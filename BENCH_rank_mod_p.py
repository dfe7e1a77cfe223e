"""Wall time and peak RSS of the north-star rank run, at one or more source trees.

    python3 BENCH_rank_mod_p.py --tree NAME=SRC_DIR [--tree ...] [--runs 3] [--out FILE]

Each SRC_DIR is the ``src`` directory of a checkout (say, one made with
``git archive`` of the commit to compare).  BENCH_rank_mod_p.json holds
the output of one such run.

Per run and tree, in alternating order, three fresh processes:
``build-matrix --n 4 --kind K``, then ``rank --mod 2147483647`` and
``rank --mod 2`` on that file.  Each process's wall time is taken around
its spawn and exit, its peak RSS from ``os.wait4``.  Writes one JSON
object with every sample and the medians.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

STEPS = (
    ("build-matrix --n 4 --kind K", ["build-matrix", "--n", "4", "--kind", "K", "--out"]),
    ("rank --mod 2147483647", ["rank", "--mod", "2147483647", "--in"]),
    ("rank --mod 2", ["rank", "--mod", "2", "--in"]),
)


def timed(src: str, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "ufabound.cli", *argv], env=env,
                            stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped here, so Popen must not wait again
    if code:
        raise SystemExit(f"{argv} exited {code}")
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "stdout": out.decode().strip().replace(argv[-1], "<file>")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tree", action="append", required=True)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--out")
    args = ap.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree)
    samples = {name: {step: [] for step, _ in STEPS} for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(args.runs):
            order = list(trees) if run % 2 == 0 else list(reversed(trees))
            for name in order:
                path = os.path.join(tmp, f"K4-{name}.mat")
                for step, argv in STEPS:
                    r = timed(trees[name], [*argv, path])
                    samples[name][step].append(r)
                    print(name, step, r, file=sys.stderr)
    stdouts = {step: {r["stdout"] for name in trees for r in samples[name][step]}
               for step, _ in STEPS[1:]}
    result = {
        "what": "north-star rank run: build-matrix --n 4 --kind K, then rank "
                "--mod 2147483647 and rank --mod 2 on its file; one fresh process "
                "per step, wall time around spawn and exit, peak RSS from wait4",
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "machine": platform.machine()},
        "runs": args.runs,
        "identical_stdout": all(len(v) == 1 for v in stdouts.values()),
        "median": {name: {step: {"wall_s": statistics.median(r["wall_s"] for r in rs),
                                 "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rs)}
                          for step, rs in samples[name].items()} for name in trees},
        "samples": samples,
    }
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
