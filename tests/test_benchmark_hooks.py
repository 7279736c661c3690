"""The benchmark's tracer can still find every name it wraps.

``perfbench/spans.py`` swaps module-level names of eulac (and
``numpy.linalg.solve``) for timing wrappers, looking each one up as
``owner.__dict__[leaf]``.  A refactor that renames or removes one of them
makes every traced benchmark run fail with a ``KeyError``; this checks the
lookups without running a workload.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
# the theta span's scope counts the mixture module's np.linalg.solve calls
HOOKS = [target[:2] for target in SPANS.TARGETS + SPANS.ALLOC_TARGETS] + [
    ("numpy.linalg", "solve")]


@pytest.mark.parametrize("module, attribute", HOOKS, ids=[".".join(h) for h in HOOKS])
def test_hook_resolves(module, attribute):
    # the lookup of spans.Tracer.patched
    owner = importlib.import_module(module)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in owner.__dict__, f"{module}.{attribute} is gone"
    raw = owner.__dict__[leaf]
    assert callable(getattr(raw, "__func__", raw))

