"""Wall time and peak RSS of ``schmidt --random 100``, at one or more source trees.

    python3 BENCH_schmidt_random.py --tree NAME=SRC_DIR [--tree ...] [--runs 5] [--out FILE]

Each SRC_DIR is the ``src`` directory of a checkout (say, one made with
``git archive`` of the commit to compare).  BENCH_schmidt_random.json
holds the output of one such run.

Per run, shape and tree, in alternating tree order, one fresh process:
``schmidt --random 100 --states S --alphabet A`` for the shapes S/A of
SHAPES.  Each process's wall time is taken around its spawn and exit, its
peak RSS from ``os.wait4``.  Every tree must print the same bytes for a
shape, or the run stops.  Writes one JSON object with every sample, the
medians and, per shape, the runs in which each tree beat the first one.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SHAPES = ((2, 2), (3, 2), (4, 2), (5, 2), (3, 5), (2, 8))
INSTANCES = 100


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
    return {"wall_s": round(wall, 4), "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),
            "stdout": out}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--tree", action="append", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out")
    args = ap.parse_args()
    trees = dict(t.split("=", 1) for t in args.tree)
    shapes = [f"{s}/{a}" for s, a in SHAPES]
    samples = {name: {shape: [] for shape in shapes} for name in trees}
    for run in range(args.runs):
        order = list(trees) if run % 2 == 0 else list(reversed(trees))
        for (states, alphabet), shape in zip(SHAPES, shapes):
            argv = ["schmidt", "--random", str(INSTANCES), "--states", str(states),
                    "--alphabet", str(alphabet)]
            outs = set()
            for name in order:
                r = timed(trees[name], argv)
                outs.add(r.pop("stdout"))
                samples[name][shape].append(r)
                print(name, shape, r, file=sys.stderr)
            if len(outs) != 1:
                raise SystemExit(f"{shape}: the trees print different bytes")
    first = next(iter(trees))
    result = {
        "what": f"schmidt --random {INSTANCES} --states S --alphabet A, one fresh "
                "process per shape, tree and run, wall time around spawn and exit, "
                "peak RSS from wait4; every tree printed the same bytes",
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "machine": platform.machine()},
        "runs": args.runs,
        "identical_stdout": True,
        "median": {name: {shape: {key: round(statistics.median(r[key] for r in rs), 4)
                                  for key in ("wall_s", "peak_rss_mb")}
                          for shape, rs in samples[name].items()} for name in trees},
        f"faster_than_{first}": {
            name: {shape: sum(r["wall_s"] < b["wall_s"]
                              for r, b in zip(rs, samples[first][shape]))
                   for shape, rs in samples[name].items()}
            for name in trees if name != first},
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
