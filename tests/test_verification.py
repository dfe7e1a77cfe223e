import dataclasses
import gc
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from ufabound import automata, combinatorics, crossing, exact_linalg, tables, verification, witness
from ufabound.cli import main

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
    sample = [divmod(rng.randrange(m.rows * m.cols), m.cols) for _ in range(10_000)]
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


def test_entry_simulation_fails_on_a_cell_the_sample_missed(monkeypatch):
    # every row of M is simulated, so a fault in a cell outside the seeded
    # quick sample fails the check too, naming the first failing cell
    m = witness.build_M(3)
    rng = random.Random(0)
    sample = {divmod(rng.randrange(m.rows * m.cols), m.cols) for _ in range(500)}
    i, j = next((70, j) for j in range(m.cols) if (70, j) not in sample)
    aut = witness.WitnessAutomaton(3, m.row_labels, m.col_labels)
    word = aut.word(m.row_labels[i], m.col_labels[j])
    real = automata.concatenation_bits

    def cell_flipped(a, xs, ys):
        bits = real(a, xs, ys)
        for r, x in enumerate(xs):
            if tuple(x) == tuple(word[:2]):
                bits[r] ^= 1 << [tuple(y) for y in ys].index(tuple(word[2:]))
        return bits

    monkeypatch.setattr(automata, "concatenation_bits", cell_flipped)
    r = verification.check_entry_simulation_agreement(3, "quick", random.Random(0))
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


def _same_for_every_pair(drop, brk):
    # a stand-in for tables.layer_masks that gives every pair the same
    # layers: bit i of drop (of brk) says that it drops down from (breaks
    # through) layer i
    def masks(firsts, bases):
        out = []
        for fs, f0 in zip(firsts, bases):
            every = (1 << len(fs)) - 1
            out.append([(every if drop >> i & 1 else 0, every if brk >> i & 1 else 0)
                        for i in range(tables.layer_structure(f0).rank_k)])
        return out
    return masks


def test_spurious_drop_down_fails(monkeypatch):
    monkeypatch.setattr(tables, "layer_masks", _same_for_every_pair(1, 0))
    r = verification.check_drop_down_rows(3, "full", random.Random(0))
    assert not r.ok and "non-zero entry" in r.detail


def test_missing_breakthrough_breaks_completion(monkeypatch):
    monkeypatch.setattr(tables, "layer_masks", _same_for_every_pair(0, 0))
    r = verification.check_breakthrough_completion(3, "full", random.Random(0))
    assert not r.ok and re.fullmatch(r"mismatch for .* against .*, stage \[.*\]", r.detail)


def test_missing_forced_breakthrough_fails(monkeypatch):
    monkeypatch.setattr(tables, "layer_masks", _same_for_every_pair(0, 0))
    r = verification.check_forced_breakthrough(3, "full", random.Random(0))
    assert not r.ok and "no breakthrough" in r.detail


def test_completion_mismatch_names_the_lowest_wrong_stage(monkeypatch):
    # claim a breakthrough through every layer: the entries then read 1 on
    # every stage set, and the first real zero is the empty stage set
    monkeypatch.setattr(tables, "layer_masks", _same_for_every_pair(0, 0b111))
    r = verification.check_breakthrough_completion(3, "full", random.Random(0))
    assert not r.ok and r.detail.endswith("stage []")


def test_flipped_staged_entries_fail_completion_at_the_first_pair(monkeypatch):
    # flip the entries of ordered[60] against stage sets {1} and {0, 1} of
    # ordered[100], and of ordered[61] against stage set {0} of ordered[45]:
    # the report names the first pair in pair order, the first table
    # outermost, and its lowest wrong stage set
    ordered = combinatorics.enumerate_ordered_prefix_tables(3)
    ks = [tables.layer_structure(f).rank_k for f in ordered]
    flips = [(60, 100, 0b11), (60, 100, 0b10), (61, 45, 0b01)]
    real = witness.acceptance_matrix

    def flipped(prefixes, suffixes, n):
        m = real(prefixes, suffixes, n)
        bits = list(m.bits)
        for i, j, stage in flips:
            # the staged tables are the columns, base by base, in stage-set order
            col = sum(1 << k for k in ks[:j]) + stage
            assert suffixes[col] == witness.build_g_I(
                ordered[j], {layer for layer in range(ks[j]) if stage >> layer & 1})
            bits[list(prefixes).index(ordered[i])] ^= 1 << col
        return witness.BoolMatrix(m.row_labels, m.col_labels, m.cols, tuple(bits))

    monkeypatch.setattr(witness, "acceptance_matrix", flipped)
    r = verification.check_breakthrough_completion(3, "full", random.Random(0))
    assert not r.ok
    assert r.detail == ("mismatch for PrefixTable(n=3, values=(6, 4, 4)) against "
                        "PrefixTable(n=3, values=(12, 14, 4)), stage [1]")
    assert verification.check_drop_down_rows(3, "full", random.Random(0)).ok


# One run studies the table pairs once and shares M, and keeps neither
# after it returns.

def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_run_studies_each_pair_once(monkeypatch):
    masks = _counting(monkeypatch, tables, "layer_masks")
    staged = _counting(monkeypatch, witness, "build_g_I")
    built = _counting(monkeypatch, witness, "build_M")
    # K is read off the memoised M
    built_k = _counting(monkeypatch, witness, "build_K")
    results = verification.run_checks(3, "full")
    assert all(r.ok for r in results)
    ordered = combinatorics.enumerate_ordered_prefix_tables(3)
    # one masks computation over all 115 base tables, each with all 115
    # first tables in one shared list
    [(firsts, bases)] = masks
    assert [f.values for f in bases] == [f.values for f in ordered]
    assert len({id(fs) for fs in firsts}) == 1 and len(firsts[0]) == 115
    # each of the 115 base tables' 2^k staged suffix tables, built once
    assert len(staged) == sum(1 << tables.layer_structure(f).rank_k for f in ordered)
    assert built == [(3,)] and built_k == []


def test_one_run_enumerates_the_ordered_tables_once(monkeypatch):
    # the layer-rank check, the count check and the pair study share one
    # list; the filter enumeration stays the count check's own oracle
    enumerated = _counting(monkeypatch, combinatorics, "enumerate_ordered_prefix_tables")
    assert all(r.ok for r in verification.run_checks(3, "full"))
    assert enumerated == [(3,)]


def test_concurrent_runs_keep_their_own_memo(monkeypatch):
    # two runs inside run_checks at once, the quick one storing its pair
    # study before the full one reaches the pair checks: each must report
    # what it reports on its own
    runs = (("quick", 5), ("full", 0))
    want = {level: verification.run_checks(3, level, seed) for level, seed in runs}
    barrier = threading.Barrier(len(runs), timeout=60)

    def meet(n, level, rng):
        barrier.wait()
        return verification.CheckResult("meet", True, "")

    def quick_study_first(n, level, rng):
        if level == "quick":
            verification._study(n, level, rng)
        return meet(n, level, rng)

    monkeypatch.setattr(verification, "_CHECKS",
                        [meet, quick_study_first, *verification._CHECKS, meet])
    got = {}

    def run(level, seed):
        got[level] = verification.run_checks(3, level, seed)[2:-1]

    threads = [threading.Thread(target=run, args=args) for args in runs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert got == want


# With a second CPU the random-automaton check runs in a forked worker
# beside the other checks; the report must not show where it ran.

def _verify_on(capsys, monkeypatch, cpus, *argv):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: cpus)
        code = main(["verify", *argv])
    with pytest.raises(ChildProcessError):  # no worker left behind
        os.waitpid(-1, os.WNOHANG)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("n", ["1", "2", "3", "4"])
def test_verify_prints_the_same_bytes_with_one_cpu_and_two(capsys, monkeypatch, n):
    for level in ("quick", "full"):
        for seed in ("0", "7"):
            argv = ("--n", n, "--level", level, "--seed", seed)
            one = _verify_on(capsys, monkeypatch, {0}, *argv)
            assert one[0] == 0 and one[1].endswith("11/11 checks passed\n")
            assert _verify_on(capsys, monkeypatch, {0, 1}, *argv) == one


def test_a_failing_random_instance_reads_the_same_from_the_worker(
        capsys, monkeypatch, tmp_path):
    rng = random.Random(0)
    bad = [rng.randrange(2**30) for _ in range(3)][-1]
    real = crossing._report
    pids = tmp_path / "pids"

    def third_fails(a, xs, ys, found, seed):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        report = real(a, xs, ys, found, seed)
        return dataclasses.replace(report, ok=False) if seed == bad else report

    monkeypatch.setattr(crossing, "_report", third_fails)
    runs = {}
    for cpus in ({0}, {0, 1}):
        runs[len(cpus)] = _verify_on(capsys, monkeypatch, cpus, "--n", "2")
        ran_in = set(pids.read_text().split())
        pids.unlink()
        # every instance in this process, or every one in one worker
        assert len(ran_in) == 1 and (str(os.getpid()) in ran_in) == (len(cpus) == 1)
    assert runs[1] == runs[2]
    code, out = runs[2]
    assert code == 1
    assert (f"FAIL  random-automaton ranks stay within the bound (instance seed {bad})\n"
            "10/11 checks passed\n") in out


def test_a_full_run_at_size_four_reads_k_off_m(monkeypatch):
    built_k = _counting(monkeypatch, witness, "build_K")
    built_m = _counting(monkeypatch, witness, "build_M")
    results = verification.run_checks(4, "full")
    assert all(r.ok for r in results)
    assert built_k == [] and built_m == [(3,), (4,)]


def test_k_read_off_m_is_k():
    for n in (1, 2, 3):
        assert verification._ordered_rows(witness.build_M(n)) == witness.build_K(n)


def test_no_study_survives_a_run():
    verification.run_checks(3, "full")
    assert verification._run_memo.get() is None
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, verification._PairStudy)]


def test_a_later_run_sees_a_patched_layer_mask(monkeypatch):
    name = "drop-down rows vanish"
    assert _check_named(verification.run_checks(3, "full"), name).ok
    monkeypatch.setattr(tables, "layer_masks", _same_for_every_pair(1, 0))
    r = _check_named(verification.run_checks(3, "full"), name)
    assert not r.ok and "non-zero entry" in r.detail


def test_a_failing_check_still_clears_the_run_memo(monkeypatch):
    def broken(n, level, rng):
        raise RuntimeError("broken check")

    monkeypatch.setattr(verification, "_CHECKS", [verification.check_staged_suffix_tables,
                                                  broken])
    with pytest.raises(RuntimeError):
        verification.run_checks(2, "full")
    assert verification._run_memo.get() is None


def test_full_level_ranks_m_itself_at_size_four(monkeypatch):
    # K at size 4 has 3451 rows and M 7891: a wrong rank of M must fail the
    # full check, where the quick one takes M's rank from K's
    ranked = []
    real = exact_linalg.rank_mod_p

    def wrong_on_m(m, p):
        ranked.append(m.rows)
        return real(m, p) if m.rows == 3451 else 0

    monkeypatch.setattr(exact_linalg, "rank_mod_p", wrong_on_m)
    r = verification.check_matrix_rank_is_count(4, "full", random.Random(0))
    assert not r.ok and ranked == [3451, 7891]


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
            "tables.layer_masks = lambda firsts, bases: [\n"
            "    [(0, 0)] * tables.layer_structure(f0).rank_k for f0 in bases]\n"
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
    for n in ("2", "3"):
        argv = ["-m", "ufabound.cli", "verify", "--n", n, "--level", "full"]
        plain = _run(*argv)
        optimized = _run("-O", *argv)
        assert plain.returncode == optimized.returncode == 0
        assert optimized.stdout == plain.stdout


def test_library_has_no_bare_asserts():
    for path in (SRC / "ufabound").glob("*.py"):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert not [ln for ln in lines if re.match(r"\s*assert ", ln)], path
