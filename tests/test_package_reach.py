"""The package holds what eulac runs: every top-level function and class in
src/eulac is reachable by name from the ``eulac`` entry point, the package
exports, module-level code or the benchmark in perfbench/.  References the
tests compare against belong in tests/oracles.py.

Reachability is a closure over names: a reached definition reaches every
top-level definition named anywhere in its body, whichever module defines
it.  Imports reach nothing by themselves, except the exports of
``eulac/__init__``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eulac"

ENTRY_POINTS = {"main"}  # eulac.cli:main, the console script in pyproject.toml
ALLOWED = {
    # writes the spec format that parse_synthetic_spec reads; kept beside it so
    # the format lives in one module, and the tests round-trip specs through it
    "data.format_synthetic_spec",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """Every name and attribute under ``node``; with ``strings``, also each
    part of a dotted-name string constant, which is how perfbench/spans.py
    names what it wraps."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.split(".")[-1])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and _DOTTED.fullmatch(sub.value):
            out.update(sub.value.split("."))
    return out


def unreached_definitions() -> set[str]:
    """``module.name`` of every top-level definition in the package that no
    root reaches."""
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    roots = set(ENTRY_POINTS)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, _DEFINITIONS):
                definitions.setdefault(stmt.name, []).append((path.stem, stmt))
            elif path.stem == "__init__" or not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _names(stmt)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        roots |= _names(ast.parse(path.read_text(encoding="utf-8")), strings=True)

    seen, frontier, reached = set(roots), set(roots), set()
    while frontier:
        for module, node in definitions.get(frontier.pop(), ()):
            reached.add(f"{module}.{node.name}")
            new = _names(node) - seen
            seen |= new
            frontier |= new
    every = {f"{module}.{name}" for name, defs in definitions.items() for module, _ in defs}
    return every - reached


def test_every_package_definition_is_reachable():
    unreached = unreached_definitions()
    stray = sorted(unreached - ALLOWED)
    assert not stray, ("only tests reach " + ", ".join(stray)
                       + "; move them to tests/oracles.py or delete them")
    # an allowlisted name that is gone, or that a root now reaches, leaves the list
    assert ALLOWED <= unreached
