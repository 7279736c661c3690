"""Run one eulac benchmark workload and print its result as a JSON line.

    python3 perfbench/run.py --workload fit_square --seed 1 --seconds 40 --trace 0

Run it from the root of an eulac checkout; it imports eulac from the
checkout's ``src``.  BLAS is pinned to one thread before numpy loads.
Workloads and metric names and units are listed in ``BENCHMARK.json``.
With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  Lines before
the last one are a human-readable summary; the last line is the result.
Readings and spans are also written under ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a name from harness.WORKLOADS")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads(package) -> int | None:
    """Thread count of the OpenBLAS bundled with ``package``, if it has one."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    for package in (numpy, scipy):
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env[package.__name__] = {
            "version": package.__version__,
            "blas": f"{blas.get('name')} {blas.get('openblas configuration', blas.get('version'))}",
            "blas_threads": _blas_threads(package),
        }
    return env


def _print_summary(workload, seed, trace, result, env, load) -> None:
    r = result["readings"]
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"closed loop, 1 client, {result['attempted']} ops")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:<22.10g} {m['unit']}")
    for name, value in r["unlisted_metrics"].items():
        print(f"  {name:28s} {value:<22.10g} (not in BENCHMARK.json)")
    print(f"  {'failed_share':28s} {r['failed_share']:<22.10g} ratio  "
          f"(of {result['attempted']} ops: {result['failed']} failed a check or exited 1, "
          f"{r['nonconverged_ops']} exited 2 as the solver flagged non-convergence)")
    print(f"  {'theta_abs_err':28s} {r['theta_abs_err']:<22.10g} abs")
    print(f"  {'objective':28s} {r['objective']:<22.10g} value")
    if not trace:
        print(f"  samples: fit_s n={len(r['fit_s_samples'])}, eval_s n={len(r['eval_s_samples'])}, "
              f"setup n={len(r['setup_s_samples'])}")
        if r["eval_s_tail"]:
            p, value = r["eval_s_tail"]
            print(f"  eval_s p{p:g} = {value:.6g} s over {len(r['eval_s_samples'])} samples")
    else:
        print("  time waited: not applicable (one process, no queues or locks)")
    print(f"  load average {load[0]:.2f} -> {load[1]:.2f} on {env['cpu_count']} cpus"
          + ("  BUSY: timings taken on a loaded machine" if load[2] else ""))
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    for problem in r["problems"]:
        print(f"  check failed: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "eulac" / "__init__.py").is_file():
        print(f"error: no eulac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    load_start = os.getloadavg()[0]
    import eulac.cli
    if not Path(eulac.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported eulac from {eulac.cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = harness.run_workload(harness.WORKLOADS[args.workload], args.seed,
                                      args.seconds, bool(args.trace), ROOT, work)
    except harness.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_end = os.getloadavg()[0]
    busy = max(load_start, load_end) > os.cpu_count()

    listed = bench["per_layer" if args.trace else "end_to_end"]
    values = result["metrics"]
    missing = {m["name"] for m in listed} - set(values)
    if missing:
        print(f"error: BENCHMARK.json lists {sorted(missing)}, which the harness does "
              f"not measure", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": values.pop(m["name"]), "unit": m["unit"]}
                         for m in listed}
    result["readings"]["unlisted_metrics"] = values

    _print_summary(args.workload, args.seed, args.trace, result, env,
                   (load_start, load_end, busy))
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {key: result[key] for key in ("correct", "attempted", "failed", "metrics",
                                           "readings")}
    record.update(environment=env, load_average=[load_start, load_end], busy=busy,
                  seconds=args.seconds)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result["spans"]:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for op in result["spans"]:
                for row in op:
                    fh.write(json.dumps(row) + "\n")

    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
