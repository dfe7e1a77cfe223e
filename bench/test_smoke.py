"""Tests of the benchmark itself; no timing is asserted.

    python3 -m pytest bench
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from workloads import Pipeline, Schmidt, Verify  # noqa: E402


def _run(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_passes_every_gate(trace):
    code, result, stdout = _run("--smoke", "--trace", trace)
    assert code == 0, stdout
    assert result["correct"] and result["failed"] == 0
    rounds = 2 if trace == "1" else 1
    assert result["attempted"] == rounds * (3 + 11 + 3)


def _out(stdout, rc=0):
    return {"rc": rc, "stdout": stdout, "stderr": ""}


def test_pipeline_gate_rejects_a_wrong_rank(tmp_path):
    pipeline = Pipeline(2)
    path = os.path.join(str(tmp_path), "K2.mat")
    good = [_out(f"7x9 matrix written to {path}\n"), _out("7\n"), _out("7\n")]
    assert pipeline.check(good, str(tmp_path), 7, 0, 0).ok
    bad = good[:2] + [_out("6\n")]
    gate = pipeline.check(bad, str(tmp_path), 7, 0, 0)
    assert not gate.ok and gate.failed == 1 and gate.attempted == 3
    assert not pipeline.check(good, str(tmp_path), 6, 0, 0).ok


def test_verify_gate_counts_failed_checks():
    lines = [f"PASS  check {i} (x)" for i in range(11)]
    good = "\n".join(lines + ["11/11 checks passed"]) + "\n"
    assert Verify(2, "quick").check([_out(good)], "", 7, 0, 0).ok
    lines[3] = "FAIL  check 3 (x)"
    bad = "\n".join(lines + ["10/11 checks passed"]) + "\n"
    gate = Verify(2, "quick").check([_out(bad, rc=1)], "", 7, 0, 0)
    assert not gate.ok and gate.failed == 1


def test_schmidt_gate_counts_failed_instances():
    def line(i, ok):
        return json.dumps({"bound": 115, "n": 3, "ok": ok, "rank": 1, "seed": i})
    good = "\n".join([line(i, True) for i in range(3)]
                     + ["bound 115 holds on 3 random instances"]) + "\n"
    assert Schmidt(3).check([_out(good)], "", 115, 0, 0).ok
    bad = "\n".join([line(0, True), line(1, False)]) + "\n"
    gate = Schmidt(3).check([_out(bad, rc=1)], "", 115, 0, 0)
    assert not gate.ok and gate.failed == 2
