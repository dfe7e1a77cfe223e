"""Repeat benchmark runs over seeds and summarize them per metric.

    python3 bench/baseline.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                              [--trace-seed N] [--write bench/baseline.json]
                              [--compare bench/baseline.json]

For each workload, runs ``bench/run.py`` once per seed with tracing off and
reports, per end-to-end metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the sample count and the
spread: the distance between the quartiles as a share of the median.  With
``--trace-seed`` it adds one traced run per workload for the per-layer
numbers (median, quartiles and sample count over its traced rounds).
``--write`` stores everything, with the run environment, as the committed
baseline; ``--compare`` reports how far each median moved from a stored
baseline, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout[-3000:]}")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--write", default=None)
    parser.add_argument("--compare", default=None)
    args = parser.parse_args()
    old = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            old = json.load(fh)["workloads"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seconds": args.seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds, 0) for s in _seeds(args.seeds)]
        entry = {"end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            stats["runs"] = values
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:16s} {name:12s} median {stats['median']:.5g} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}", flush=True)
            if old and workload in old:
                before = old[workload]["end_to_end"][name]["median"]
                change = (stats["median"] - before) / before
                worse = "  <-- worse by more than the bound" if change > bound else ""
                print(f"{'':16s} {name:12s} median {before:.5g} before, "
                      f"change {change:+.4f}{worse}", flush=True)
        if args.trace_seed is not None:
            one_run(workload, args.trace_seed, args.seconds, 1)
            record = os.path.join(BENCH_DIR, "runs",
                                  f"{workload}-seed{args.trace_seed}-trace1.json")
            with open(record, encoding="utf-8") as fh:
                entry["per_layer"] = json.load(fh)["metrics"]
            entry["per_layer_seed"] = args.trace_seed
        out["workloads"][workload] = entry

    if args.write:
        record = os.path.join(BENCH_DIR, "runs",
                              f"{args.workloads.split(',')[0]}-seed{_seeds(args.seeds)[-1]}-trace0.json")
        with open(record, encoding="utf-8") as fh:
            out["environment"] = json.load(fh)["environment"]
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
