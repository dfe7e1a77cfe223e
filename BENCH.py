"""Wall time and peak RSS of end-to-end CLI runs, at one or more source trees.

    python3 BENCH.py SUITE --tree NAME=SRC_DIR [--tree ...] [--runs 5] [--out FILE]

Each SRC_DIR is the ``src`` directory of a checkout (say, one made with
``git archive`` of the commit to compare); BENCH_<SUITE>.json holds the
output of one such run.  A suite is a list of chains of (label, argv)
steps, FILE in an argv standing for one temporary file per tree and chain.
Per run, chain and tree, in a tree order flipped every run, each step is
one fresh process, timed around its spawn and exit, its peak RSS from
``os.wait4``.  Every tree must print the same bytes for a step, the file's
path masked, or the run stops.  Writes one JSON object with the medians,
each tree's wall-time quartiles per step, the runs in which each tree beat
the first one, and every sample with the last line it printed.
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

FILE = "<file>"
SUITES = {
    "rank_mod_p": [[
        ("build-matrix --n 4 --kind K", ["build-matrix", "--n", "4", "--kind", "K", "--out", FILE]),
        ("rank --mod 2147483647", ["rank", "--mod", "2147483647", "--in", FILE]),
        ("rank --mod 2", ["rank", "--mod", "2", "--in", FILE]),
    ]],
    "schmidt_random": [
        [(f"{states}/{alphabet}", ["schmidt", "--random", "100", "--states", str(states),
                                   "--alphabet", str(alphabet)])]
        for states, alphabet in ((2, 2), (3, 2), (4, 2), (5, 2), (3, 5), (2, 8))],
    "verify": [[
        ("verify --n 3", ["verify", "--n", "3"]),
        ("verify --n 3 --level full", ["verify", "--n", "3", "--level", "full"]),
        ("verify --n 4", ["verify", "--n", "4"]),
        ("verify --n 4 --level full", ["verify", "--n", "4", "--level", "full"]),
    ]],
}


def timed(src: str, argv: list[str], path: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [path if arg == FILE else arg for arg in argv]
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
            "stdout": out.decode().replace(path, FILE)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("suite", choices=SUITES)
    ap.add_argument("--tree", action="append", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2: the quartiles need two samples")
    trees = dict(t.split("=", 1) for t in args.tree)
    chains = SUITES[args.suite]
    samples = {name: {label: [] for chain in chains for label, _ in chain} for name in trees}
    printed = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(args.runs):
            order = list(trees) if run % 2 == 0 else list(reversed(trees))
            for c, chain in enumerate(chains):
                for name in order:
                    path = os.path.join(tmp, f"{name}-{c}")
                    for label, argv in chain:
                        r = timed(trees[name], argv, path)
                        if printed.setdefault(label, r["stdout"]) != r["stdout"]:
                            raise SystemExit(f"{label}: {name} printed other bytes")
                        r["stdout"] = r["stdout"].rstrip("\n").rpartition("\n")[2]
                        samples[name][label].append(r)
                        print(name, label, r, file=sys.stderr)
    first = next(iter(trees))
    result = {
        "what": f"{args.suite}: " + "; ".join(" then ".join(label for label, _ in chain)
                                             for chain in chains)
                + "; one fresh process per step, tree and run, wall time around spawn and "
                "exit, peak RSS from wait4; every tree printed the same bytes",
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "machine": platform.machine()},
        "runs": args.runs,
        "identical_stdout": True,
        "median": {name: {label: {key: round(statistics.median(r[key] for r in rs), 4)
                                  for key in ("wall_s", "peak_rss_mb")}
                          for label, rs in steps.items()} for name, steps in samples.items()},
        "wall_s_quartiles": {
            name: {label: [round(q, 4) for q in statistics.quantiles([r["wall_s"] for r in rs], n=4)]
                   for label, rs in steps.items()}
            for name, steps in samples.items()},
        f"faster_than_{first}": {
            name: {label: sum(r["wall_s"] < b["wall_s"] for r, b in zip(rs, samples[first][label]))
                   for label, rs in steps.items()}
            for name, steps in samples.items() if name != first},
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
