"""Workloads, closed-loop ops and output checks of the eulac benchmark.

Every op calls ``eulac.cli.main`` in this process, one call at a time
(closed loop, one client).  The inputs come from ``eulac gen`` on the
bundled spec with the workload seed, so the program sees only generated
files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eulac import cli
from eulac import data as dt
from eulac.kernel import gram
from eulac.solver import DualModel, objective

import spans

SPEC = Path("specs") / "two_known_one_new_2d.txt"
# set-up is repeated and its median reported, so one slow repetition does
# not decide setup_s
SETUP_REPEATS = 3
# an eval is short next to its fit, so each fitted model is scored several
# times per op to give eval_s enough samples
EVALS_PER_MODEL = 3
FIT_ARTIFACTS = ("model.json", "cv_report.json", "theta.json")
EXIT_NONCONVERGED = 2
# the byte-identical check needs two ops; a traced run needs one untraced
# and one traced op
MIN_OPS = 2
_ITERATIVE = ("--theta", "0.7", "--sigma-mult", "1.0", "--lambda", "0.01")


class SetupError(RuntimeError):
    """The workload's inputs or model could not be made."""


@dataclass(frozen=True)
class Workload:
    name: str
    n_labeled: int
    n_unlabeled: int
    n_test: int
    # (loss, extra flags) of each `eulac fit` in one op
    fits: tuple[tuple[str, tuple[str, ...]], ...]
    # True: the fits run at set-up and each op is one `eulac eval`
    eval_only: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("fit_square", 500, 1000, 5000, (("square", ()),)),
    # not in BENCHMARK.json: its work depends on the data seed too much for
    # a steady fit_s (see README.md); run it by name
    Workload("fit_iterative", 150, 300, 2000,
             (("logistic", _ITERATIVE), ("double-hinge", _ITERATIVE))),
    Workload("eval_bulk", 500, 1000, 20000, (("square", ()),), eval_only=True),
)}


@dataclass
class Op:
    fit_s: float | None  # the op's fits; None on an eval_bulk op
    eval_s: list[float]
    fit_codes: list[int]
    total_s: float  # wall time of the whole op
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None  # per-layer readings of a traced op
    spans: list | None = None


def call(argv, tracer: spans.Tracer | None = None) -> tuple[int, float]:
    """Run one eulac command in this process; its output is discarded."""
    sink = io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main([str(a) for a in argv])
    except Exception:
        # an uncaught exception is what exit code 1 reports from a process
        traceback.print_exc(file=sys.stderr)
        code = 1
    return code, time.perf_counter() - start


def import_seconds(src: Path) -> float:
    """Wall time of importing eulac in a fresh interpreter."""
    code = (f"import sys, time; sys.path.insert(0, {str(src)!r}); "
            "t = time.perf_counter(); import eulac.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise SetupError(f"importing eulac failed:\n{proc.stderr}")
    return float(proc.stdout)


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


@contextlib.contextmanager
def _traced(tracer: spans.Tracer | None):
    if tracer is None:
        yield
        return
    with tracer.installed(), tracer.span("op"):
        yield


class Run:
    """One workload at one seed: set-up, ops and the checks on their outputs."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path):
        self.w = workload
        self.seed = seed
        self.src = root / "src"
        self.spec = root / SPEC
        self.data = work / "data"
        self.out = work / "out"
        self.reference: dict[str, object] = {}
        self.problems: list[str] = []  # failed checks outside any op
        self.f1: dict[str, float] = {}
        self.objective: dict[str, float] = {}
        self.theta_err: dict[str, float] = {}

    def _same(self, key: str, value) -> bool:
        """True when ``value`` equals the first value seen under ``key``."""
        return self.reference.setdefault(key, value) == value

    def generate(self) -> None:
        w = self.w
        code, _ = call(["gen", "--spec", self.spec, "--out", self.data, "--seed", self.seed,
                        "--n-labeled", w.n_labeled, "--n-unlabeled", w.n_unlabeled,
                        "--n-test", w.n_test])
        if code != 0:
            raise SetupError(f"eulac gen exited {code}")

    def fit_all(self, tracer=None) -> tuple[float, list[int]]:
        """Run the workload's fits; returns their seconds and exit codes."""
        seconds, codes = 0.0, []
        for loss, flags in self.w.fits:
            shutil.rmtree(self.out / loss, ignore_errors=True)
            code, s = call(["fit", "--labeled", self.data / "labeled.libsvm",
                            "--unlabeled", self.data / "unlabeled.csv",
                            "--out", self.out / loss, "--seed", self.seed,
                            "--loss", loss, *flags], tracer)
            seconds += s
            codes.append(code)
        return seconds, codes

    def check_fits(self) -> list[str]:
        problems = []
        for loss, _ in self.w.fits:
            out = self.out / loss
            for name in FIT_ARTIFACTS:
                if not self._same(f"{loss}/{name}", _digest(out / name)):
                    problems.append(f"{loss}: {name} differs from the first op's")
            cv_report = json.loads((out / "cv_report.json").read_text())
            selected = (cv_report["selected"]["sigma"], cv_report["selected"]["lambda"])
            if not self._same(f"{loss}/selected", selected):
                problems.append(f"{loss}: selected (sigma, lambda) {selected} changed")
            theta = json.loads((out / "theta.json").read_text())["theta_hat"]
            if not 0.0 < theta <= 1.0:
                problems.append(f"{loss}: theta_hat {theta} outside (0, 1]")
            if loss not in self.objective:
                self.objective[loss] = self._objective(out / "model.json")
                spec_theta = json.loads((self.data / "manifest.json").read_text())["theta"]
                self.theta_err[loss] = abs(theta - spec_theta)
        return problems

    def _objective(self, model_path: Path) -> float:
        """Regularized training objective of the saved model on its training data."""
        model = DualModel.load(model_path)
        labeled = dt.load_libsvm(self.data / "labeled.libsvm")
        unlabeled = dt.load_features_csv(self.data / "unlabeled.csv")
        G = gram(model.kernel, model.support_points, model.support_points)
        return objective(model.alpha, G, labeled, unlabeled, model.theta, model.lam,
                         model.loss_kind)

    def check_eval(self, loss: str, result: Path) -> list[str]:
        problems = []
        if not self._same(f"{loss}/eval", _digest(result)):
            problems.append(f"{loss}: {result.name} differs from the first eval's")
        payload = json.loads(result.read_text())
        counted = int(np.sum(payload["confusion"]["counts"]))
        if counted != self.w.n_test or payload["n_test"] != self.w.n_test:
            problems.append(f"{loss}: confusion counts sum to {counted}, not {self.w.n_test}")
        if not 0.0 <= payload["macro_f1"] <= 1.0:
            problems.append(f"{loss}: macro_f1 {payload['macro_f1']} outside [0, 1]")
        self.f1.setdefault(loss, payload["macro_f1"])
        return problems

    def set_up(self) -> tuple[list[float], list[float]]:
        """Import eulac and make the inputs (and on eval_bulk the model)
        SETUP_REPEATS times; returns the set-up and set-up fit seconds."""
        setup_s, fit_s = [], []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds(self.src)
            start = time.perf_counter()
            self.generate()
            if self.w.eval_only:
                seconds, codes = self.fit_all()
                fit_s.append(seconds)
            setup_s.append(imported + time.perf_counter() - start)
            if self.w.eval_only:
                if any(code != 0 for code in codes):
                    raise SetupError(f"eulac fit exited {codes}")
                self.problems += self.check_fits()
        return setup_s, fit_s

    def op(self, tracer: spans.Tracer | None = None, pipeline: bool = False) -> Op:
        """One op: the fits, then EVALS_PER_MODEL evals of each model; on
        eval_bulk one eval.  With ``pipeline`` an eval_bulk op refits its
        model first, so that a traced op covers every layer it depends on.
        Outputs are checked after the op."""
        fit = pipeline or not self.w.eval_only
        evals = 1 if self.w.eval_only else EVALS_PER_MODEL
        results = [(loss, self.out / loss / f"eval-{i}.json")
                   for loss, _ in self.w.fits for i in range(evals)]
        for _, result in results:
            result.unlink(missing_ok=True)
        fit_s, fit_codes, eval_s, eval_codes = None, [], [], []
        start = time.perf_counter()
        with _traced(tracer):
            if fit:
                fit_s, fit_codes = self.fit_all(tracer)
            if all(code in (0, EXIT_NONCONVERGED) for code in fit_codes):
                for loss, result in results:
                    code, s = call(["eval", "--model", self.out / loss / "model.json",
                                    "--test", self.data / "test.libsvm", "--out", result],
                                   tracer)
                    eval_codes.append(code)
                    eval_s.append(s)
        op = Op(fit_s, eval_s, fit_codes, time.perf_counter() - start)
        if any(code not in (0, EXIT_NONCONVERGED) for code in fit_codes):
            op.problems.append(f"eulac fit exited {fit_codes}")
        elif any(code != 0 for code in eval_codes):
            op.problems.append(f"eulac eval exited {eval_codes}")
        else:
            if fit:
                op.problems += self.check_fits()
            for loss, result in results:
                op.problems += self.check_eval(loss, result)
        return op

    def measure(self, seconds: float, trace: bool) -> tuple[list[Op], float]:
        """Closed loop: ops back to back until the next would end past ``seconds``.

        Makes at least MIN_OPS ops.  A traced run alternates untraced and
        traced ops of the whole pipeline and ends with one op that takes the
        CV allocation peak.  Returns the ops and that peak in MB.
        """
        ops: list[Op] = []
        start = time.perf_counter()
        while True:
            tracer = spans.Tracer() if trace and len(ops) % 2 == 1 else None
            op = self.op(tracer, pipeline=trace)
            if tracer is not None:
                self._attach_spans(op, tracer)
            ops.append(op)
            if len(ops) >= MIN_OPS and time.perf_counter() - start + op.total_s > seconds:
                break
        if not trace:
            return ops, 0.0
        tracer = spans.Tracer(spans.ALLOC_TARGETS)
        self.problems += self.op(tracer, pipeline=True).problems
        return ops, max(s.info["alloc_peak_mb"] for s in tracer.spans if s.name == "modelsel.cv")

    @staticmethod
    def _attach_spans(op: Op, tracer: spans.Tracer) -> None:
        op.spans = tracer.spans
        op.layers = spans.layer_metrics(tracer.spans)
        root = tracer.spans[0]
        # children must nest inside their parent for the self times to
        # attribute the op's wall time without gaps or overlap
        own = spans.self_times(tracer.spans).values()
        if min(own) < -1e-9 or abs(sum(own) - root.duration) > 1e-9 * len(own):
            op.problems.append(f"span self times sum to {sum(own)}, op took {root.duration}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9 .. p50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return p, float(np.percentile(samples, p))
    return None


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 root: Path, work: Path) -> dict:
    """Set up, measure and check one workload; returns metrics and readings."""
    run = Run(workload, seed, root, work)
    setup_s, setup_fit_s = run.set_up()
    ops, cv_alloc_peak_mb = run.measure(seconds, trace)

    failed = sum(1 for op in ops if op.problems)
    nonconverged = sum(1 for op in ops if EXIT_NONCONVERGED in op.fit_codes and not op.problems)
    fit_s = setup_fit_s if workload.eval_only else [op.fit_s for op in ops]
    eval_s = [s for op in ops for s in op.eval_s]
    theta_err = statistics.fmean(run.theta_err.values())
    if trace:
        traced = [op for op in ops if op.layers is not None]
        plain = [op for op in ops if op.layers is None]
        metrics = spans.median_metrics([op.layers for op in traced])
        metrics["mixture.theta_abs_err"] = theta_err
        metrics["modelsel.cv_alloc_peak_mb"] = cv_alloc_peak_mb
        metrics["solver.objective"] = sum(run.objective.values())
        metrics["trace.overhead_s"] = (statistics.median(op.total_s for op in traced)
                                       - statistics.median(op.total_s for op in plain))
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "fit_s": statistics.median(fit_s),
            "eval_s": statistics.median(eval_s),
            "peak_rss_mb": peak_rss_mb(),
            "macro_f1": statistics.fmean(run.f1.values()),
        }
    problems = run.problems + [p for op in ops for p in op.problems]
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "readings": {
            # exit 2 (non-convergence flagged) counts here, but not in
            # ``failed``: such an op finished and its outputs passed the checks
            "failed_share": (failed + nonconverged) / len(ops),
            "nonconverged_ops": nonconverged,
            "theta_abs_err": theta_err,
            "objective": sum(run.objective.values()),
            "fit_s_samples": fit_s,
            "eval_s_samples": eval_s,
            "eval_s_tail": tail(eval_s),
            "setup_s_samples": setup_s,
            "problems": problems,
        },
        "spans": [spans.as_rows(i, op.spans) for i, op in enumerate(ops) if op.spans],
    }
