"""Command-line surface: gen | fit | eval | theta | cv | bench.

Every command is driven purely by flags (no environment variables) and is
reproducible: the same flags and seed produce byte-identical artifacts.
Exit codes: 0 success, 2 finished-with-solver-warning, 1 failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import data as dt
from .evalbench import (
    DEFAULT_SCALING_SIZES,
    DEFAULT_SWEEP_RATIOS,
    ConfusionMatrix,
    check_sizes,
    macro_f1,
    run_excess_risk_seeds,
    run_theta_sweep,
    run_unlabeled_scaling,
)
from .kernel import DEFAULT_SIGMA_MULTIPLIERS, KernelSpec, median_heuristic
from .losses import LOSS_KINDS, SQUARE
from .mixture import (DEFAULT_SLOPE_THRESHOLD, ThetaEstimate, check_slope_threshold,
                      estimate_theta)
from .modelsel import DEFAULT_LAMBDAS, HyperGrid, cross_validate, fit_with_selection
from .risk import zero_one_risk
from .solver import DualModel

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARNING = 2


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _dump_json(path: str | Path | None, payload: dict) -> None:
    """Write the payload's artifact text to ``path``, or to stdout without one."""
    if path:
        _write_text(Path(path), dt.json_text(payload))
    else:
        sys.stdout.write(dt.json_text(payload))


def _read_spec(path: str) -> dt.SyntheticSpec:
    return dt.parse_synthetic_spec(dt.read_text(path), path)


def _checked_flags(args) -> HyperGrid | None:
    """Refuse every out-of-range flag value by its flag's name before any
    file is read; the grid of a command that has grid flags, else None."""
    flags = vars(args)
    if flags.get("theta") is not None:
        dt.check_theta(args.theta)
    floors = {"repeats": 1, "n_labeled": 1, "n_unlabeled": 1, "n_test": 1, "grid_resolution": 2,
              "folds": 2}
    for key, least in floors.items():
        if key in flags:
            dt.check_count("--" + key.replace("_", "-"), flags[key], least)
    if "sizes" in flags:
        check_sizes("--sizes", args.sizes)
    if "ratios" in flags:
        dt.check_ratios("--ratios", args.ratios)
    if "lam" not in flags:
        return None
    return HyperGrid(sigma_multipliers=tuple(args.sigma_mult), lambda_candidates=tuple(args.lam),
                     loss_kind=args.loss, folds=args.folds)


def _pooled_median(labeled, unlabeled) -> float:
    """Median pairwise distance of the pooled sample: the theta kernel's
    bandwidth and the unit of the CV bandwidth grid."""
    return median_heuristic(dt.pooled_points(labeled, unlabeled))


def _load_training(args):
    """The labeled and unlabeled files, read only once every flag is known
    to be usable, and the grid of ``_checked_flags``.  --theta-threshold is
    checked even beside --theta, since every artifact echoes it."""
    check_slope_threshold(args.theta_threshold)
    grid = _checked_flags(args)
    return dt.load_libsvm(args.labeled), dt.load_features_csv(args.unlabeled), grid


def _resolve_theta(args, labeled, unlabeled, median: float | None = None):
    """The --theta value, or the estimate, warning of curve QPs its guard stopped."""
    if args.theta is not None:
        return ThetaEstimate(args.theta, curve=())
    if median is None:
        median = _pooled_median(labeled, unlabeled)
    estimate = estimate_theta(labeled, unlabeled, KernelSpec(median),
                              slope_threshold=args.theta_threshold)
    if estimate.qp_guard_hits:
        print(f"warning: {estimate.qp_guard_hits} of the theta curve's QPs stopped at their "
              "iteration guard; their distances may be suboptimal", file=sys.stderr)
    return estimate


def _file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _config_echo(args) -> dict:
    """Flags and input digests that determined this artifact, echoed for
    reproducibility; a command echoes only the flags it has.  Inputs are
    named by content, not path, so the same data fit from any directory
    gives the same bytes."""
    flags = vars(args)
    echo = {"command": args.command}
    for key in ("labeled", "unlabeled"):
        echo[f"{key}_sha256"] = _file_sha256(flags[key])
    for key in ("seed", "loss", "theta", "theta_threshold", "folds"):
        if key in flags:
            echo[key] = flags[key]
    if "lam" in flags:  # the grid flags come together
        echo["lambda_candidates"] = list(args.lam)
        echo["sigma_multipliers"] = list(args.sigma_mult)
    return echo


def cmd_gen(args) -> int:
    _checked_flags(args)
    spec = dataclasses.replace(_read_spec(args.spec), seed=args.seed)
    labeled, unlabeled, test = dt.sample_synthetic(
        spec, args.n_labeled, args.n_unlabeled, args.n_test
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dt.write_libsvm(out / "labeled.libsvm", labeled)
    dt.write_features_csv(out / "unlabeled.csv", unlabeled.X)
    dt.write_libsvm(out / "test.libsvm", test)
    bayes = dt.bayes_risk_oracle(spec, args.grid_resolution) if spec.dimension <= 2 else None
    _dump_json(out / "manifest.json", {
        "command": "gen",
        "seed": args.seed,
        "theta": spec.theta,
        "bayes_risk": bayes,
        "grid_resolution": args.grid_resolution if bayes is not None else None,
        "dimension": spec.dimension,
        "num_known_classes": spec.num_known_classes,
        "n_labeled": args.n_labeled,
        "n_unlabeled": args.n_unlabeled,
        "n_test": args.n_test,
        "files": ["labeled.libsvm", "unlabeled.csv", "test.libsvm"],
    })
    print(f"wrote labeled/unlabeled/test + manifest to {out}")
    return EXIT_OK


def _theta_payload(estimate) -> dict:
    return {
        "theta_hat": estimate.theta_hat,
        "no_novelty_detected": estimate.no_novelty_detected,
        "knee": estimate.knee,
        "slope_cut": estimate.slope_cut,
        "curve": [[c, d] for c, d in estimate.curve],
    }


def _write_cv_and_theta(out: Path, args, report, estimate) -> None:
    """cv_report.json and theta.json, each headed by the config echo."""
    echo = _config_echo(args)
    _dump_json(out / "cv_report.json", {"config": echo, **report.payload()})
    _dump_json(out / "theta.json", {"config": echo, **_theta_payload(estimate)})


def _warn_unconverged_cv(report) -> None:
    """Name every grid cell whose cross-validation solves stopped short of
    their convergence tolerance; the exit code does not change."""
    cells = [f"sigma_multiplier={c.sigma_multiplier} lambda={c.lam} "
             f"({c.nonconverged_folds} of {report.folds} folds)"
             for c in report.cells if c.nonconverged_folds]
    if cells:
        print("warning: cross-validation solves did not reach their convergence tolerance at "
              + ", ".join(cells), file=sys.stderr)


def cmd_fit(args) -> int:
    labeled, unlabeled, grid = _load_training(args)
    median = _pooled_median(labeled, unlabeled)
    estimate = _resolve_theta(args, labeled, unlabeled, median)
    model, report = fit_with_selection(labeled, unlabeled, estimate.theta_hat, grid, args.seed,
                                       median)

    out = Path(args.out)
    _write_text(out / "model.json", model.to_json())
    _write_cv_and_theta(out, args, report, estimate)
    print(f"selected sigma={report.selected.sigma!r} lambda={report.selected.lam!r} "
          f"theta={estimate.theta_hat!r}; model written to {out / 'model.json'}")
    _warn_unconverged_cv(report)
    if not model.record.converged:
        print("warning: solver did not reach its convergence tolerance", file=sys.stderr)
        return EXIT_WARNING
    return EXIT_OK


def cmd_eval(args) -> int:
    model_bytes = Path(args.model).read_bytes()
    model = DualModel.from_json(dt.utf8_text(args.model, model_bytes))
    test = dt.load_libsvm(args.test, nc_label=dt.NC_FILE_LABEL,
                          num_known_classes=model.num_known_classes)
    pred = model.predict(test.X)
    cm = ConfusionMatrix.from_labels(test.y, pred, model.num_known_classes)
    class_names = [str(k) for k in range(1, model.num_known_classes + 1)] + [dt.NC_NAME]
    # inputs are named by content, as in _config_echo, so the same files
    # evaluated from any directory give the same bytes
    payload = {
        "command": "eval",
        "model_sha256": hashlib.sha256(model_bytes).hexdigest(),
        "test_sha256": _file_sha256(args.test),
        "n_test": cm.total,
        "accuracy": cm.accuracy,
        "macro_f1": macro_f1(cm),
        "zero_one_risk": zero_one_risk(pred, test.y),
        "confusion": {
            "classes": class_names,
            "counts": cm.counts.tolist(),
        },
    }
    _dump_json(args.out, payload)
    return EXIT_OK


def cmd_theta(args) -> int:
    labeled, unlabeled, _ = _load_training(args)
    estimate = _resolve_theta(args, labeled, unlabeled)
    _dump_json(args.out, {"config": _config_echo(args), **_theta_payload(estimate)})
    return EXIT_OK


def cmd_cv(args) -> int:
    labeled, unlabeled, grid = _load_training(args)
    median = _pooled_median(labeled, unlabeled)
    estimate = _resolve_theta(args, labeled, unlabeled, median)
    report = cross_validate(labeled, unlabeled, estimate.theta_hat, grid, args.seed, median)
    _write_cv_and_theta(Path(args.out), args, report, estimate)
    print(f"selected sigma={report.selected.sigma!r} lambda={report.selected.lam!r}")
    _warn_unconverged_cv(report)
    return EXIT_OK


def _bench_source(args):
    """The harness's synthetic spec, or its labeled file and class
    configuration; excess-risk has --spec alone."""
    data, config = vars(args).get("data"), vars(args).get("config")
    if args.spec and (data or config):
        raise ValueError("bench takes either --spec or --data with --config, not both")
    if args.spec:
        return _read_spec(args.spec)
    if not (data and config):
        raise ValueError("bench needs either --spec or both --data and --config")
    full = dt.load_libsvm(data)
    classes = dt.parse_class_configuration(dt.read_text(config), config)
    # the configuration names the file's own ids, which the loader keeps in
    # label_map
    ids = full.label_map
    absent = sorted((classes.known_labels | classes.new_labels) - ids.keys())
    if absent:
        raise ValueError(f"class configuration names ids absent from {data}: {absent}")
    return (full, dt.ClassConfiguration({ids[c] for c in classes.known_labels},
                                        {ids[c] for c in classes.new_labels}))


def cmd_bench(args) -> int:
    grid = _checked_flags(args)
    source = _bench_source(args)
    out = Path(args.out)
    seeds = tuple(args.seed + i for i in range(args.repeats))

    if args.harness == "scaling":
        report = run_unlabeled_scaling(source, tuple(args.sizes), seeds, args.n_labeled,
                                       args.n_test, grid, args.theta)
        _write_text(out / "scaling.json", report.to_json())
        _write_text(out / "scaling.csv", report.to_csv("macro_f1"))
        print(f"spearman(size, mean macro-F1) = {report.spearman('macro_f1')}")
        return EXIT_OK

    if args.harness == "theta-sweep":
        report = run_theta_sweep(source, tuple(args.ratios), seeds, args.n_labeled,
                                 args.n_unlabeled, args.n_test, grid)
        _write_text(out / "theta_sweep.json", report.to_json())
        _write_text(out / "theta_sweep_f1.csv", report.to_csv("macro_f1"))
        _write_text(out / "theta_sweep_accuracy.csv", report.to_csv("accuracy"))
        print("theta sweep written")
        return EXIT_OK

    # excess-risk: fit one model per seed on generated data and verify that
    # the square-loss surrogate excess bounds the observed 0-1 excess
    if source.dimension > 2:
        raise ValueError("the excess-risk harness needs dimension <= 2")
    results = []
    for seed, check in run_excess_risk_seeds(source, seeds, args.n_labeled,
                                             args.n_unlabeled, grid, args.theta):
        results.append({"seed": seed, **dataclasses.asdict(check), "passed": check.passed})
        print(f"seed {seed}: lhs={check.lhs:.6f} <= rhs={check.rhs:.6f} "
              f"+ 3se={3 * check.monte_carlo_se:.6f} -> "
              f"{'PASS' if check.passed else 'FAIL'}")
    _dump_json(out / "excess_risk.json", {"command": "excess-risk", "runs": results})
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_ERROR


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    p.add_argument("--out", default="out", help="output directory or file")


def _add_theta(p: argparse.ArgumentParser, threshold: bool = True) -> None:
    p.add_argument("--theta", type=float, default=None,
                   help="known mixture fraction; omit to estimate it")
    if threshold:
        p.add_argument("--theta-threshold", type=float, default=DEFAULT_SLOPE_THRESHOLD,
                       help="slope threshold for the mixture estimator")


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--loss", choices=LOSS_KINDS, default=SQUARE)
    p.add_argument("--lambda", dest="lam", type=float, nargs="+",
                   default=DEFAULT_LAMBDAS, help="regularization candidates")
    p.add_argument("--sigma-mult", type=float, nargs="+",
                   default=DEFAULT_SIGMA_MULTIPLIERS,
                   help="bandwidth multipliers of the median distance")
    p.add_argument("--folds", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser.  Every list-valued flag defaults to a tuple,
    so no command can change the default a later call reads."""
    parser = argparse.ArgumentParser(
        prog="eulac",
        description="Kernel one-vs-rest classification with an augmented novel "
                    "class, trained from labeled and unlabeled data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic class-shift benchmark")
    p.add_argument("--spec", required=True, help="synthetic spec (key-value text)")
    p.add_argument("--n-labeled", type=int, default=500)
    p.add_argument("--n-unlabeled", type=int, default=1000)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--grid-resolution", type=int, default=400)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="estimate theta, cross-validate, fit and save a model")
    p.add_argument("--labeled", required=True, help="labeled data (LIBSVM)")
    p.add_argument("--unlabeled", required=True, help="unlabeled features (CSV)")
    _add_common(p)
    _add_theta(p)
    _add_grid(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="evaluate a saved model on a test file")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True, help="LIBSVM test file, novel class as label 0")
    p.add_argument("--out", default=None, help="metrics JSON path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("theta", help="estimate the known-class mixture fraction")
    p.add_argument("--labeled", required=True)
    p.add_argument("--unlabeled", required=True)
    p.add_argument("--out", default=None, help="theta JSON path (default: stdout)")
    _add_theta(p)
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("cv", help="cross-validate without refitting")
    p.add_argument("--labeled", required=True)
    p.add_argument("--unlabeled", required=True)
    _add_common(p)
    _add_theta(p)
    _add_grid(p)
    p.set_defaults(func=cmd_cv)

    # each harness takes only the flags it reads
    harnesses = sub.add_parser("bench", help="run a benchmark harness").add_subparsers(
        dest="harness", required=True)
    scaling = harnesses.add_parser("scaling", help="refit as the unlabeled set grows")
    sweep = harnesses.add_parser("theta-sweep", help="vary the novel-class share of the test data")
    excess = harnesses.add_parser("excess-risk", help="check the square-loss excess-risk bound")
    for p in (scaling, sweep, excess):
        p.add_argument("--spec", required=p is excess, help="synthetic spec (key-value text)")
        p.add_argument("--repeats", type=int, default=10, help="number of seeds per cell")
        p.add_argument("--n-labeled", type=int, default=500)
        _add_common(p)
        _add_grid(p)
        p.set_defaults(func=cmd_bench)
    for p in (scaling, sweep):
        p.add_argument("--data", help="full labeled dataset (LIBSVM)")
        p.add_argument("--config", help="class configuration (key-value text)")
        p.add_argument("--n-test", type=int, default=1000)
    for p in (sweep, excess):
        p.add_argument("--n-unlabeled", type=int, default=1000)
    for p in (scaling, excess):
        _add_theta(p, threshold=False)
    scaling.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SCALING_SIZES)
    sweep.add_argument("--ratios", type=float, nargs="+", default=DEFAULT_SWEEP_RATIOS)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call of a process, not
    at import, and reused by every later call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # numpy's MemoryError names the array it could not allocate, such as a
    # dense Gram too large for the machine
    except (ValueError, OSError, np.linalg.LinAlgError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
