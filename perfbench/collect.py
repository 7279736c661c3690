"""Run the benchmark over several seeds and report medians and spreads.

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --workloads fit_iterative --seeds 1-5
    python3 perfbench/collect.py --seeds 1-10 --record "seed baseline" --commit 30c4d3f

Each run is a separate ``perfbench/run.py`` process, one at a time.  For
every end-to-end metric it prints the median, the quartiles and the spread
(interquartile range as a share of the median) next to the metric's bound
from ``BENCHMARK.json``; a spread above a third of the bound is flagged.
``--record`` appends the medians and quartiles to ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    result.update({key: value for key, value in json.loads(record.read_text()).items()
                   if key in ("readings", "environment", "busy")})
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                   help="seed range such as 1-10")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="LABEL", help="append the medians to trajectory.json")
    p.add_argument("--commit", default="", help="commit the recorded numbers belong to")
    args = p.parse_args(argv)

    listed = bench["per_layer" if args.trace else "end_to_end"]
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  + (" BUSY" if result["busy"] else ""), flush=True)

    summary = {}
    steady = True
    for workload, results in runs.items():
        summary[workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "busy_runs": sum(r["busy"] for r in results),
            "failed_share": statistics.fmean(r["readings"]["failed_share"] for r in results),
            "theta_abs_err": summarize([r["readings"]["theta_abs_err"] for r in results]),
            "environment": results[0]["environment"],
            "metrics": {},
        }
        print(f"\n{workload}: {len(results)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}")
        for m in listed:
            stats = summarize([r["metrics"][m["name"]]["value"] for r in results])
            stats["unit"] = m["unit"]
            summary[workload]["metrics"][m["name"]] = stats
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and stats["spread"] > bound / 3:
                flag = "  SPREAD ABOVE BOUND/3"
                steady = False
            print(f"  {m['name']:28s} median {stats['median']:<14.6g} q1 {stats['q1']:<14.6g} "
                  f"q3 {stats['q3']:<14.6g} spread {stats['spread']:<8.4f}"
                  + (f" bound {bound}" if bound is not None else "") + flag)

    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / "collect.json").write_text(json.dumps(summary, indent=1) + "\n")
    if args.record:
        trajectory_path = HERE / "trajectory.json"
        trajectory = json.loads(trajectory_path.read_text()) if trajectory_path.exists() else []
        trajectory.append({
            "label": args.record,
            "commit": args.commit,
            "seeds": args.seeds,
            "run_seconds": args.seconds,
            "trace": args.trace,
            "environment": next(iter(summary.values()))["environment"],
            "workloads": {w: {"correct": s["correct"], "attempted": s["attempted"],
                              "failed": s["failed"], "failed_share": s["failed_share"],
                              "busy_runs": s["busy_runs"],
                              "theta_abs_err_median": s["theta_abs_err"]["median"],
                              "metrics": {k: {key: v[key] for key in ("median", "q1", "q3", "unit")}
                                          for k, v in s["metrics"].items()}}
                          for w, s in summary.items()},
        })
        trajectory_path.write_text(json.dumps(trajectory, indent=1) + "\n")
    print("\nsteady" if steady else "\nnot steady: a spread is above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
