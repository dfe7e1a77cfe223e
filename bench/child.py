"""One benchmark round in a fresh interpreter.

Usage: ``python3 bench/child.py '<job JSON>'`` with ``src`` on PYTHONPATH.
The job names the CLI calls to make, whether to trace, the size whose
ordered-table count to report, and where to write the spans.  The child
imports ufabound and numpy, runs the calls through ``cli.main`` with
stdout and stderr captured, and prints one JSON line: the monotonic time
at which ``cli.main`` became callable, the wall and CPU time from the
first call to the last return, its peak RSS, each call's exit status and
output, and, when traced, the per-layer numbers.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback

PROBE_ITERATIONS = 3000
PROBE_INTERVAL_S = 0.025


def probe_s() -> float:
    """Time of a fixed ~1 ms pure-Python task: small-int bit operations,
    tuples and dict updates, like the program's table code.  It measures how
    fast the machine runs Python at this moment."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = (i & 1023, i >> 6)
        table[key] = table.get(key, 0) + 1
        acc ^= (key[0] << 3) | (key[1] & 7)
    return time.perf_counter() - start


class SpeedProbe:
    """Runs ``probe_s`` every ``PROBE_INTERVAL_S`` seconds of wall time from a
    SIGALRM handler, so that the machine's speed is sampled all through the
    round, not only at its ends."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(probe_s())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    probe_start = probe_s()
    job = json.loads(sys.argv[1])
    import numpy
    from ufabound import cli, combinatorics
    ready = time.monotonic()

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()
    main_fn = cli.main  # looked up after install, so the wrapper when traced

    probe_before = probe_s()
    outputs = []
    probes = SpeedProbe()
    probes.start()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for argv in job["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main_fn(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = "exception"
        outputs.append({"rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    probes.stop()
    # the probes ran inside the timed window; their time is not the program's
    run_probes = probes.samples
    run_s = wall_s - sum(run_probes)
    cpu_s -= sum(run_probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = probe_s()

    result = {
        "ready": ready,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "start_probe_s": probe_start,
        "run_probes_s": [probe_before, *run_probes, probe_after],
        "outputs": outputs,
        "count": combinatorics.count_ordered_prefix_tables(job["n"]),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall_s)
        with open(job["spans_path"], "a", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
