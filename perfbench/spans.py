"""In-memory span recorder that wraps the names eulac modules look up.

Each eulac module calls its collaborators through module-level names
(``eulac.solver.cho_factor``, ``eulac.modelsel.gram``, ...).  ``Tracer``
swaps those names for timing wrappers while a traced op runs and puts the
originals back afterwards, so no eulac source changes.  Spans stay in
memory; the caller writes them out when the run ends.

``losses`` is elementwise, so its time counts in its caller's span.  The
program is one process without queues or locks, so no span waits.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gram_info(span: Span, result) -> None:
    rows, cols = result.shape
    span.info["mb"] = 8.0 * rows * cols / 1e6


def _fit_record_info(span: Span, result) -> None:
    record = result[1]
    span.info.update(
        iterations=record.iterations,
        accepted=max(len(record.objective_history) - 1, 0),
        converged=record.converged,
        final_gradient=record.final_gradient_norm,
    )


@contextmanager
def _kkt_solves(tracer: "Tracer", span: Span):
    # the mixture module reaches the dense KKT solve as np.linalg.solve;
    # count it only while estimate_theta runs
    with tracer.patched("numpy.linalg", "solve", "mixture.kkt_solve"):
        yield


@contextmanager
def _alloc_peak(tracer: "Tracer", span: Span):
    tracemalloc.start()
    try:
        yield
    finally:
        span.info["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()


# (module, attribute, span name, result hook, scope around the call)
TARGETS = (
    ("eulac.data", "load_libsvm", "data.load", None, None),
    ("eulac.data", "load_features_csv", "data.load", None, None),
    ("eulac.cli", "_write_text", "cli.write", None, None),
    ("eulac.mixture", "gram", "kernel.gram", _gram_info, None),
    ("eulac.modelsel", "gram", "kernel.gram", _gram_info, None),
    ("eulac.solver", "gram", "kernel.gram", _gram_info, None),
    ("eulac.cli", "median_heuristic", "kernel.median", None, None),
    ("eulac.modelsel", "median_heuristic", "kernel.median", None, None),
    ("eulac.cli", "estimate_theta", "mixture.theta", None, _kkt_solves),
    ("eulac.mixture", "_simplex_qp", "mixture.qp", None, None),
    ("eulac.modelsel", "cross_validate", "modelsel.cv", None, None),
    ("eulac.solver", "cho_factor", "solver.cholesky", None, None),
    ("eulac.solver", "_first_order_alpha", "solver.first_order", _fit_record_info, None),
    ("eulac.modelsel", "_first_order_alpha", "solver.first_order", _fit_record_info, None),
    ("eulac.solver", "_objective_arrays", "solver.objective_eval", None, None),
    ("eulac.solver", "_gradient_arrays", "solver.gradient_eval", None, None),
    ("eulac.solver", "predict_scores", "solver.predict", None, None),
    ("eulac.solver", "DualModel.to_json", "solver.model_io", None, None),
    ("eulac.solver", "DualModel.from_json", "solver.model_io", None, None),
    ("eulac.modelsel", "lac_risk_from_scores", "risk.lac", None, None),
    ("eulac.solver", "lac_risk_from_scores", "risk.lac", None, None),
    ("eulac.cli", "macro_f1", "evalbench.metrics", None, None),
    ("eulac.evalbench", "ConfusionMatrix.from_labels", "evalbench.metrics", None, None),
)
# tracemalloc slows every allocation (about 2x on the first-order solver),
# so the CV allocation peak is taken in an op of its own
ALLOC_TARGETS = (("eulac.modelsel", "cross_validate", "modelsel.cv", None, _alloc_peak),)


class Tracer:
    """Records nested spans; ``installed()`` wraps every name in ``targets``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, on_result, scope):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                if scope is None:
                    result = fn(*args, **kwargs)
                else:
                    with scope(self, s):
                        result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(s, result)
            return result
        return traced

    @contextmanager
    def patched(self, module: str, attribute: str, name: str, on_result=None, scope=None):
        owner = importlib.import_module(module)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[leaf]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(raw.__func__, name, on_result, scope))
        else:
            replacement = self._wrap(raw, name, on_result, scope)
        setattr(owner, leaf, replacement)
        try:
            yield
        finally:
            setattr(owner, leaf, raw)

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for target in self.targets:
                stack.enter_context(self.patched(*target))
            yield


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def _inside(spans: list[Span], ancestor: str) -> set[int]:
    """Ids of spans that have a span named ``ancestor`` above them."""
    by_id = {s.id: s for s in spans}
    found = set()
    for s in spans:
        p = s.parent
        while p in by_id:
            if by_id[p].name == ancestor:
                found.add(s.id)
                break
            p = by_id[p].parent
    return found


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer readings of one traced op, whose spans are ``spans``."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def named(name):
        return by_name[name]

    def total(name):
        return sum(s.duration for s in named(name))

    in_first_order = _inside(spans, "solver.first_order")
    first_order = [s.info for s in named("solver.first_order")]
    objective_evals = sum(1 for s in named("solver.objective_eval") if s.id in in_first_order)
    accepted = sum(info["accepted"] for info in first_order)
    cholesky = [s.duration for s in named("solver.cholesky")]
    cv = named("modelsel.cv")
    return {
        "data.load_s": total("data.load"),
        "cli.write_s": total("cli.write"),
        "kernel.gram_s": total("kernel.gram"),
        "kernel.gram_calls": len(named("kernel.gram")),
        "kernel.gram_mb": sum(s.info["mb"] for s in named("kernel.gram")),
        "kernel.median_s": total("kernel.median"),
        "kernel.median_calls": len(named("kernel.median")),
        "mixture.theta_s": total("mixture.theta"),
        "mixture.qp_s": total("mixture.qp"),
        "mixture.qp_calls": len(named("mixture.qp")),
        "mixture.kkt_solves": len(named("mixture.kkt_solve")),
        "modelsel.cv_s": total("modelsel.cv"),
        "modelsel.cv_self_s": sum(own[s.id] for s in cv),
        "solver.cholesky_s": sum(cholesky),
        "solver.cholesky_calls": len(cholesky),
        "solver.cholesky_max_s": max(cholesky, default=0.0),
        "solver.first_order_s": total("solver.first_order"),
        "solver.iterations": sum(info["iterations"] for info in first_order),
        "solver.objective_evals": objective_evals,
        "solver.gradient_evals": sum(
            1 for s in named("solver.gradient_eval") if s.id in in_first_order),
        "solver.armijo_accept_ratio": accepted / objective_evals if objective_evals else 0.0,
        "solver.nonconverged": sum(1 for info in first_order if not info["converged"]),
        "solver.final_gradient_max": max(
            (info["final_gradient"] for info in first_order), default=0.0),
        "solver.predict_s": total("solver.predict"),
        "solver.model_io_s": total("solver.model_io"),
        "risk.calls": len(named("risk.lac")),
        "risk.s": total("risk.lac"),
        "evalbench.metrics_s": total("evalbench.metrics"),
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}


def as_rows(op: int, spans: list[Span]) -> list[list]:
    """Compact rows [op, id, parent, name, start, end, info] for writing out."""
    return [[op, s.id, s.parent, s.name, s.start, s.end, s.info] for s in spans]
