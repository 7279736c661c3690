"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench -q

It runs every workload untraced and traced on a few dozen points, so the
harness, its output checks and its tracing cannot rot unnoticed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import eulac.solver  # noqa: E402
from eulac import data as dt  # noqa: E402
from eulac.kernel import KernelSpec  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {name: dataclasses.replace(w, n_labeled=30, n_unlabeled=60, n_test=90)
        for name, w in harness.WORKLOADS.items()}
SCRATCH = ROOT / ".perfbench" / "selftest"


@pytest.fixture
def work():
    path = SCRATCH / "work"
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_benchmark_json_matches_harness():
    assert {w["name"] for w in BENCH["workloads"]} <= set(harness.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])


# a traced fit_iterative run takes about 40 s even at tiny sizes, because
# the solver's iteration caps do not shrink with the data; its spans are
# checked on one short solve in test_first_order_spans instead
@pytest.mark.parametrize("name, trace", [
    (name, trace) for name in harness.WORKLOADS for trace in (False, True)
    if (name, trace) != ("fit_iterative", True)])
def test_workload_at_tiny_size(name, trace, work):
    cho_factor = eulac.solver.cho_factor
    result = harness.run_workload(TINY[name], 3, 0.0, trace, ROOT, work)

    assert result["correct"], result["readings"]["problems"]
    assert result["failed"] == 0
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in listed} <= set(result["metrics"])
    assert eulac.solver.cho_factor is cho_factor  # wrappers were taken off
    m = result["metrics"]
    if trace:
        assert result["attempted"] >= 2 and result["spans"]
    if name in {w["name"] for w in BENCH["workloads"]}:
        # a time that reads 0 on every run would be indistinguishable from
        # one that is not measured
        assert all(m[x["name"]] != 0 for x in listed if x["unit"] == "s")
    if trace and name != "fit_iterative":
        assert m["solver.cholesky_calls"] > 0 and m["mixture.qp_calls"] > 0
        assert m["kernel.median_calls"] > 0 and m["modelsel.cv_alloc_peak_mb"] > 0
        assert m["solver.iterations"] == 0


def test_first_order_spans():
    spec = dt.parse_synthetic_spec((ROOT / harness.SPEC).read_text())
    labeled, unlabeled, _ = dt.sample_synthetic(spec, 20, 40, 10)
    tracer = spans.Tracer()
    with tracer.installed(), tracer.span("op"):
        model = eulac.solver.fit_first_order(
            labeled, unlabeled, KernelSpec(1.0), 0.7,
            eulac.solver.FitOptions(lam=0.01, max_iterations=40), "logistic")
    m = spans.layer_metrics(tracer.spans)
    assert m["solver.iterations"] == model.record.iterations > 0
    assert m["solver.nonconverged"] == (0 if model.record.converged else 1)
    assert m["solver.objective_evals"] == m["risk.calls"] > 0
    assert m["solver.gradient_evals"] > 0 and 0 < m["solver.armijo_accept_ratio"] <= 1
    assert m["kernel.gram_calls"] == 1 and m["solver.cholesky_calls"] == 0


def test_self_times_cover_the_root_span():
    tracer = spans.Tracer()
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    own = spans.self_times(tracer.spans)
    assert min(own.values()) >= 0
    assert sum(own.values()) == pytest.approx(tracer.spans[0].duration, abs=1e-12)


def test_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fit_square", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
