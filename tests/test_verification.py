import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ufabound import automata, combinatorics, tables, verification, witness

SRC = Path(__file__).resolve().parents[1] / "src"


def test_quick_suite_passes_at_n2():
    results = verification.run_checks(2, level="quick", seed=0)
    assert len(results) == len(verification._CHECKS)
    for r in results:
        assert r.ok, r


def test_results_are_deterministic():
    a = verification.run_checks(2, level="quick", seed=7)
    b = verification.run_checks(2, level="quick", seed=7)
    assert a == b


def test_level_validated():
    with pytest.raises(ValueError):
        verification.run_checks(2, level="medium")


# Each oracle comparison must report a disagreement as a failed check: not
# raise, and not pass.

def test_orderedness_disagreement_fails(monkeypatch):
    monkeypatch.setattr(verification, "_unordered_witness", lambda f: None)
    r = verification.check_orderedness_agreement(3, "full", random.Random(0))
    assert not r.ok and "disagree" in r.detail


def test_entry_simulation_disagreement_fails(monkeypatch):
    # the check reads its simulation from one batched search per block of rows
    monkeypatch.setattr(automata, "concatenation_bits", lambda a, xs, ys: [0] * len(xs))
    r = verification.check_entry_simulation_agreement(2, "full", random.Random(0))
    assert not r.ok and "simulation 0" in r.detail


def test_entry_simulation_reports_the_first_failing_pair(monkeypatch):
    # faults in the grid cells of the 251st draw of the seeded sample and of
    # a later draw on a lower row, which a scan in grid order would meet
    # first: the report names the 251st draw, the first failing pair in
    # sample order
    m = witness.build_M(3)
    rng = random.Random(0)
    sample = [(rng.randrange(m.rows), rng.randrange(m.cols)) for _ in range(10_000)]
    i, j = sample[250]
    later = next(pair for pair in reversed(sample[251:])
                 if pair[0] < i and pair not in sample[:251])
    aut = witness.WitnessAutomaton(3, m.row_labels, m.col_labels)
    words = [aut.word(m.row_labels[r], m.col_labels[c]) for r, c in ((i, j), later)]
    faults = {(tuple(w[:2]), tuple(w[2:])) for w in words}
    real = automata.concatenation_bits
    flipped = []

    def cells_flipped(a, xs, ys):
        bits = real(a, xs, ys)
        for r, x in enumerate(xs):
            for c, y in enumerate(ys):
                if (tuple(x), tuple(y)) in faults:
                    bits[r] ^= 1 << c
                    flipped.append((x, y))
        return bits

    monkeypatch.setattr(automata, "concatenation_bits", cells_flipped)
    r = verification.check_entry_simulation_agreement(3, "full", random.Random(0))
    assert len(flipped) == 2
    assert not r.ok
    assert r.detail == (f"entry {m.entry(i, j)}, simulation {1 - m.entry(i, j)} "
                        f"on {m.row_labels[i]}, {m.col_labels[j]}")


def test_layer_rank_disagreement_fails(monkeypatch):
    monkeypatch.setattr(verification, "_complement_rank", lambda f: 0)
    r = verification.check_layer_rank(3, "full", random.Random(0))
    assert not r.ok and "complement-matrix rank 0" in r.detail


def test_count_index_form_disagreement_fails(monkeypatch):
    monkeypatch.setattr(verification, "_count_by_second_index_form", lambda n: -1)
    r = verification.check_count_matches_enumeration(3, "full", random.Random(0))
    assert not r.ok and "index forms" in r.detail


def test_spurious_drop_down_fails(monkeypatch):
    monkeypatch.setattr(tables, "layer_masks", lambda f, f0: (1, 0))
    r = verification.check_drop_down_rows(3, "full", random.Random(0))
    assert not r.ok and "non-zero entry" in r.detail


def test_missing_breakthrough_breaks_completion(monkeypatch):
    monkeypatch.setattr(tables, "layer_masks", lambda f, f0: (0, 0))
    r = verification.check_breakthrough_completion(3, "full", random.Random(0))
    assert not r.ok and re.fullmatch(r"mismatch for .* against .*, stage \[.*\]", r.detail)


def test_missing_forced_breakthrough_fails(monkeypatch):
    monkeypatch.setattr(tables, "layer_masks", lambda f, f0: (0, 0))
    r = verification.check_forced_breakthrough(3, "full", random.Random(0))
    assert not r.ok and "no breakthrough" in r.detail


def test_completion_mismatch_names_the_lowest_wrong_stage(monkeypatch):
    # claim a breakthrough through every layer: the entries then read 1 on
    # every stage set, and the first real zero is the empty stage set
    monkeypatch.setattr(tables, "layer_masks", lambda f, f0: (0, 0b111))
    r = verification.check_breakthrough_completion(3, "full", random.Random(0))
    assert not r.ok and r.detail.endswith("stage []")


def _check_named(results, name):
    return next(r for r in results if r.name == name)


def test_repeated_ordered_table_fails(monkeypatch):
    real = combinatorics.enumerate_ordered_prefix_tables
    monkeypatch.setattr(combinatorics, "enumerate_ordered_prefix_tables",
                        lambda n: real(n) + real(n)[:1])
    r = _check_named(verification.run_checks(2, "full"), "ordered-table enumerations agree")
    assert not r.ok and "yields 8 tables, 7 distinct" in r.detail


def test_enumeration_count_mismatch_fails(monkeypatch):
    real = combinatorics.enumerate_ordered_prefix_tables
    monkeypatch.setattr(combinatorics, "enumerate_ordered_prefix_tables",
                        lambda n: real(n)[1:])
    r = _check_named(verification.run_checks(2, "full"), "ordered-table enumerations agree")
    assert not r.ok and "gives 6 tables, the count 7" in r.detail


def test_enumeration_differing_from_filter_fails(monkeypatch):
    real = combinatorics.enumerate_ordered_prefix_tables
    monkeypatch.setattr(tables, "enumerate_ordered_prefix_tables_by_filter",
                        lambda n: real(n)[1:])
    r = verification.check_count_matches_enumeration(2, "full", random.Random(0))
    assert not r.ok and "differ" in r.detail


# Under ``python -O`` the checks must compare exactly as without it.

def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def test_injected_disagreement_fails_under_optimize():
    code = ("import random\n"
            "from ufabound import tables, verification\n"
            "tables.is_ordered = lambda f: True\n"
            "r = verification.check_orderedness_agreement(3, 'full', random.Random(0))\n"
            "print('PASS' if r.ok else 'FAIL')\n")
    proc = _run("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "FAIL\n"


def test_missing_breakthrough_fails_under_optimize():
    code = ("import random\n"
            "from ufabound import tables, verification\n"
            "tables.layer_masks = lambda f, f0: (0, 0)\n"
            "r = verification.check_forced_breakthrough(3, 'full', random.Random(0))\n"
            "print('PASS' if r.ok else 'FAIL')\n")
    proc = _run("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "FAIL\n"


def test_count_mismatch_is_a_failed_check_not_a_traceback():
    code = ("import sys\n"
            "from ufabound import combinatorics\n"
            "from ufabound.cli import main\n"
            "real = combinatorics.count_ordered_prefix_tables\n"
            "combinatorics.count_ordered_prefix_tables = lambda n: real(n) + 1\n"
            "sys.exit(main(['verify', '--n', '2']))\n")
    proc = _run("-c", code)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "FAIL  ordered-table enumerations agree" in proc.stdout


def test_verify_output_is_identical_under_optimize():
    argv = ["-m", "ufabound.cli", "verify", "--n", "2", "--level", "full"]
    plain = _run(*argv)
    optimized = _run("-O", *argv)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout


def test_library_has_no_bare_asserts():
    for path in (SRC / "ufabound").glob("*.py"):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert not [ln for ln in lines if re.match(r"\s*assert ", ln)], path
