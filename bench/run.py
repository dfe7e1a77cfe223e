"""The ufabound benchmark.

    python3 bench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke [--trace 0|1]

A run repeats rounds of one workload for ``--seconds`` seconds.  Each round
is a fresh interpreter (``bench/child.py``) that imports ufabound and runs
the workload's CLI calls through ``ufabound.cli.main``, with BLAS and OpenMP
pinned to one thread.  Every round's output goes through the workload's
correctness gate; a round that fails it is counted and gives no timing
sample.  Rounds 0 and 1 get the same inputs and must print the same bytes.

Times are reported at full machine speed.  On a shared virtual machine the
speed at which Python runs drifts by up to 2x over seconds to minutes, far
more than the changes the benchmark must resolve.  The child therefore runs
a fixed ~1 ms probe (``child.probe_s``) before, every 25 ms during, and after
the round; its mean over the probe's full-speed time is the round's slowdown,
and the probe time inside the round is subtracted.  ``run_s`` is the round's
wall time from the first ``cli.main`` call to the last return divided by that
slowdown, ``setup_s`` the time from spawning the child until ``cli.main`` is
callable divided by the slowdown around start-up.  The raw times are kept in
the run record.  In traced rounds the probes' time lands in whichever layer
is running (about 4 %).

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json,
medians over its rounds.  With ``--trace 1`` every other round installs the
tracer (``bench/tracer.py``) and the run reports the per-layer metrics,
medians over the traced rounds, plus the tracing overhead against the
untraced rounds.  ``--smoke`` runs every workload once at a tiny size (twice
with ``--trace 1``: untraced, then traced), gate only, no timing.
``--workload all`` runs every workload in turn.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary precedes it,
and a run record with every round goes to ``bench/runs/``.  The exit status
is 1 when a gate failed and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from child import probe_s
from workloads import WORKLOADS, Gate, normalized_stdout

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS_DIR = os.path.join(BENCH_DIR, "runs")
CHILD = os.path.join(BENCH_DIR, "child.py")
CHILD_TIMEOUT_S = 100
# probe_s() on the reference box (2-core Xeon VM, Python 3.11) at full speed
PROBE_NOMINAL_S = 1.0e-3
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.update(THREAD_ENV)
    return env


# -- one round --------------------------------------------------------------

def run_round(size, seed: int, index: int, traced: bool, run_id: str,
              spans_path: str) -> dict:
    tmp = tempfile.mkdtemp(prefix="round-", dir=RUNS_DIR)
    try:
        job = {"commands": size.commands(seed, index, tmp), "trace": traced,
               "n": size.n, "run_id": run_id, "spans_path": spans_path}
        parent_probe = probe_s()
        spawned = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHILD, json.dumps(job)],
                                  cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            reply = proc.stdout.strip().splitlines()[-1:] if proc.returncode == 0 else []
            res = json.loads(reply[0]) if reply else None
            error = None if res else f"child exit {proc.returncode}: {proc.stderr[-500:]}"
        except subprocess.TimeoutExpired:
            res, error = None, f"child timed out after {CHILD_TIMEOUT_S} s"
        wall_s = time.monotonic() - spawned
        if res is None:
            gate = Gate(size.ops, size.ops, [error])
            return {"index": index, "traced": traced, "ok": False, "wall_s": wall_s,
                    "attempted": gate.attempted, "failed": gate.failed,
                    "problems": gate.problems, "stdout": None}
        gate = size.check(res["outputs"], tmp, res["count"], seed, index)
        # the machine's slowdown against full speed, around start-up (the
        # median of three probes: one alone is often cold) and during the round
        probes = res["run_probes_s"]
        setup_slowdown = statistics.median(
            [parent_probe, res["start_probe_s"], probes[0]]) / PROBE_NOMINAL_S
        slowdown = statistics.fmean(probes) / PROBE_NOMINAL_S
        raw_setup_s = res["ready"] - spawned
        return {"index": index, "traced": traced, "ok": gate.ok, "wall_s": wall_s,
                "attempted": gate.attempted, "failed": gate.failed,
                "problems": gate.problems,
                "stdout": normalized_stdout(res["outputs"], tmp),
                "run_s": res["run_s"] / slowdown, "setup_s": raw_setup_s / setup_slowdown,
                "raw_run_s": res["run_s"], "raw_setup_s": raw_setup_s,
                "slowdown": slowdown, "setup_slowdown": setup_slowdown,
                "cpu_s": res["cpu_s"], "peak_rss_mb": res["peak_rss_mb"],
                "numpy": res["numpy"], "layers": res.get("layers")}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# -- one run ----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Rounds of one workload until ``seconds`` are used; the gate and the
    per-round numbers of each."""
    w = WORKLOADS[name]
    size = w.smoke if smoke else w.full
    run_id = f"{name}-seed{seed}-trace{int(trace)}"
    spans_path = os.path.join(RUNS_DIR, run_id + ".spans.jsonl")
    if trace:
        open(spans_path, "w").close()
    min_rounds = (2 if trace else 1) if smoke else (4 if trace else 3)
    deadline = time.monotonic() + seconds
    rounds = []
    while len(rounds) < min_rounds or (
            not smoke and time.monotonic()
            + statistics.median(r["wall_s"] for r in rounds) <= deadline):
        r = len(rounds)
        # rounds 0 and 1 share inputs; traced runs pair each traced round
        # with the untraced one before it on the same inputs
        index = r // 2 if trace else max(r - 1, 0)
        rounds.append(run_round(size, seed, index, trace and r % 2 == 1,
                                run_id, spans_path))

    problems = [p for r in rounds for p in r["problems"]]
    if len(rounds) >= 2 and rounds[0]["stdout"] != rounds[1]["stdout"]:
        problems.append("the same inputs printed different stdout")
    if not smoke and seed == 0 and rounds[0]["stdout"] is not None:
        digest = hashlib.sha256(rounds[0]["stdout"].encode()).hexdigest()
        if digest != w.stdout_digest:
            problems.append(f"stdout sha256 {digest} differs from the pinned digest")
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "rounds": rounds, "problems": problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "correct": not problems and all(r["ok"] for r in rounds)}


def _stats(values: list[float]) -> dict:
    values = sorted(values)
    if not values:
        return {"value": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metrics_of(run: dict, spec: dict) -> dict:
    """Medians over the run's passing rounds, named and unitized as in the spec."""
    good = [r for r in run["rounds"] if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not run["trace"]:
        values = {m: [r[m] for r in good] for m in ("run_s", "setup_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {}
        for r in traced:
            for k, v in r["layers"].items():
                # times at full machine speed, like run_s
                if units.get(k) == "s":
                    v /= r["slowdown"]
                elif units.get(k) == "1/s":
                    v *= r["slowdown"]
                values.setdefault(k, []).append(v)
        plain_run = [r["run_s"] for r in plain]
        traced_run = [r["run_s"] for r in traced]
        values["process.cpu_s"] = [r["cpu_s"] / r["slowdown"] for r in plain]
        values["trace.untraced_run_s"] = plain_run
        values["trace.traced_run_s"] = traced_run
        if plain_run and traced_run:
            base = statistics.median(plain_run)
            extra = statistics.median(traced_run) - base
            values["trace.overhead_s"] = [extra]
            values["trace.overhead_ratio"] = [extra / base]
        wanted = spec["per_layer"]
    names = {m["name"] for m in wanted}
    missing, unknown = names - set(values), set(values) - names
    if missing and (traced if run["trace"] else good):
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {m["name"]: {**_stats(values.get(m["name"], [])), "unit": m["unit"]}
            for m in wanted}


# -- run record -------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines() -> int:
    pkg = os.path.join(ROOT, "src", "ufabound")
    total = 0
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def environment(runs: list[dict]) -> dict:
    numpy_versions = {r["numpy"] for run in runs for r in run["rounds"] if "numpy" in r}
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": sorted(numpy_versions), "git_commit": _git_commit(),
            "child_thread_env": THREAD_ENV, "src_lines": _src_lines()}


def _slim(run: dict) -> dict:
    rounds = [{k: v for k, v in r.items() if k != "stdout"} for r in run["rounds"]]
    return {**run, "rounds": rounds}


# -- output -----------------------------------------------------------------

def describe(run: dict, metrics: dict) -> list[str]:
    good = sum(r["ok"] for r in run["rounds"])
    ratio = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    lines = [f"{run['workload']}  seed {run['seed']}  trace {int(run['trace'])}  "
             f"rounds {len(run['rounds'])} ({good} passed)  "
             f"fail_ratio {run['failed']}/{run['attempted']} = {ratio:.4g}"]
    for name, m in metrics.items():
        if m["value"] is None:
            lines.append(f"  {name:44s} no sample")
            continue
        lines.append(f"  {name:44s} {m['value']:.6g} {m['unit']}  "
                     f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    lines.extend(f"  FAIL {p}" for p in run["problems"][:20])
    return lines


def main(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a tiny size, gate only")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not os.path.exists(os.path.join(ROOT, "src", "ufabound", "cli.py")):
        print(f"error: no ufabound sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = (list(WORKLOADS) if args.smoke or args.workload == "all"
             else [args.workload])
    os.makedirs(RUNS_DIR, exist_ok=True)

    runs, result_metrics = [], {}
    for name in names:
        run = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke)
        metrics = metrics_of(run, spec)  # also checks the names against the spec
        if args.smoke:
            metrics = {}  # a smoke run asserts no timing
        runs.append(run)
        print("\n".join(describe(run, metrics)), flush=True)
        for m, v in metrics.items():
            key = m if len(names) == 1 else f"{name}.{m}"
            result_metrics[key] = {"value": v["value"], "unit": v["unit"]}
        record = {"environment": environment([run]), **_slim(run), "metrics": metrics}
        path = os.path.join(RUNS_DIR, f"{run['workload']}-seed{args.seed}"
                                      f"-trace{args.trace}{'-smoke' if args.smoke else ''}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print(f"  record: {os.path.relpath(path, ROOT)}")

    correct = all(run["correct"] for run in runs)
    print(json.dumps({"correct": correct,
                      "attempted": sum(run["attempted"] for run in runs),
                      "failed": sum(run["failed"] for run in runs),
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
