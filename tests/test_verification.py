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
from ufabound.errors import CapacityError

from conftest import staged_table_image

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
    # faults in the grid cells of the 251st draw of a seeded sample and of
    # a later draw on a lower row: the report names the later draw's cell,
    # the first failing cell in grid order
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
    i, j = later
    assert r.detail == (f"entry {m.entry(i, j)}, simulation {1 - m.entry(i, j)} "
                        f"on {m.row_labels[i]}, {m.col_labels[j]}")


def test_entry_simulation_fails_on_a_cell_the_sample_missed(monkeypatch):
    # every cell of M is simulated, so a fault in a cell outside what was
    # once the seeded quick sample fails the check too, naming that cell
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


def test_entry_simulation_names_the_lowest_failing_column_of_a_row(monkeypatch):
    # faults in two columns of one row of M: the report names the lower one
    m = witness.build_M(3)
    i, j, k = 70, 5, 150
    aut = witness.WitnessAutomaton(3, m.row_labels, m.col_labels)
    faults = {(tuple(w[:2]), tuple(w[2:]))
              for w in (aut.word(m.row_labels[i], m.col_labels[c]) for c in (k, j))}
    real = automata.concatenation_bits

    def cells_flipped(a, xs, ys):
        bits = real(a, xs, ys)
        for r, x in enumerate(xs):
            for c, y in enumerate(ys):
                if (tuple(x), tuple(y)) in faults:
                    bits[r] ^= 1 << c
        return bits

    monkeypatch.setattr(automata, "concatenation_bits", cells_flipped)
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
    def masks(fs, bases):
        every = (1 << len(fs)) - 1
        return [[(every if drop >> i & 1 else 0, every if brk >> i & 1 else 0)
                 for i in range(tables.layer_structure(f0).rank_k)] for f0 in bases]
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
    # ordered[100], and of ordered[61] against stage set {0} of ordered[45],
    # in G: each flipped entry is read by every (f0, I) whose staged table
    # is that column of G.  The completion report names the first such
    # pair in pair order, the first table outermost, that does not drop
    # down, with its lowest stage set; the drop-down report names the
    # first one that does
    ordered = combinatorics.enumerate_ordered_prefix_tables(3)
    ks = [tables.layer_structure(f).rank_k for f in ordered]

    def stage(j, b):
        return {layer for layer in range(ks[j]) if b >> layer & 1}

    flips = [(60, 100, 0b11), (60, 100, 0b10), (61, 45, 0b01)]
    cells = {(i, staged_table_image(ordered[j], stage(j, b))) for i, j, b in flips}
    real = witness.staged_matrix

    def flipped(rows, n):
        m = real(rows, n)
        bits = list(m.bits)
        for i, h in cells:
            bits[i] ^= 1 << m.col_labels.index(witness.build_g_I(h, set()))
        return witness.BoolMatrix(m.row_labels, m.col_labels, m.cols, tuple(bits))

    hits = sorted((i, j, b) for i, h in cells for j, f0 in enumerate(ordered)
                  for b in range(1 << ks[j]) if staged_table_image(f0, stage(j, b)) == h)
    drops = [any(d for d, _ in tables.layer_masks([ordered[i]], [ordered[j]])[0])
             for i, j, _ in hits]
    monkeypatch.setattr(witness, "staged_matrix", flipped)
    r = verification.check_breakthrough_completion(3, "full", random.Random(0))
    i, j, b = next(hit for hit, drop in zip(hits, drops) if not drop)
    assert not r.ok
    assert r.detail == (f"mismatch for {ordered[i]} against {ordered[j]}, "
                        f"stage {sorted(stage(j, b))}")
    assert r.detail == ("mismatch for PrefixTable(n=3, values=(6, 4, 4)) against "
                        "PrefixTable(n=3, values=(4, 14, 4)), stage []")
    r = verification.check_drop_down_rows(3, "full", random.Random(0))
    i, j, _ = next(hit for hit, drop in zip(hits, drops) if drop)
    assert not r.ok and r.detail == f"non-zero entry for {ordered[i]} against {ordered[j]}"


@pytest.mark.parametrize("size", [3, 4])
def test_the_quick_study_reads_each_pair_as_a_call_of_its_own(size):
    # draw j pairs base table j with first table j: bit j of its masks and
    # columns is what layer_masks and staged_columns give that pair alone
    study = verification._pair_study(size, "quick", random.Random(0))
    assert study.pairs == [1 << j for j in range(len(study.bases))]
    g = witness.staged_matrix(verification._ordered(size), size)
    for j, (f, f0) in enumerate(zip(study.firsts, study.bases, strict=True)):
        assert [(d >> j & 1, b >> j & 1) for d, b in study.masks[j]] == \
            tables.layer_masks([f], [f0])[0]
        [acc], [cols] = witness.staged_columns(g, [f], [f0])
        assert study.accepts[j] == acc
        assert [c >> j & 1 for c in study.columns[j]] == cols


def test_forced_breakthrough_studies_distinct_tables_of_at_least_the_base_size(monkeypatch):
    # one base table against itself, an equal copy of it, a larger table
    # outside its pairs, a different table of its size and a smaller one:
    # only the different table of its size is a pair the check counts
    f0 = tables.PrefixTable.from_sets(3, [{1}, {1, 2}, {1, 2, 3}])
    larger = tables.PrefixTable.from_sets(3, [{1, 2, 3}] * 3)
    other = tables.PrefixTable.from_sets(3, [{1, 2}] * 3)
    smaller = tables.PrefixTable.from_sets(3, [{1}] * 3)
    fs = [f0, tables.PrefixTable(3, f0.values), larger, other, smaller]
    assert tables.table_size(other) == tables.table_size(f0)
    monkeypatch.setattr(verification, "_draw_pairs",
                        lambda size, level, rng: ([f0], fs, [0b11011]))
    r = verification.check_forced_breakthrough(3, "full", random.Random(0))
    assert r.ok and r.detail == "1 pairs"
    monkeypatch.setattr(tables, "layer_masks", _same_for_every_pair(0, 0))
    r = verification.check_forced_breakthrough(3, "full", random.Random(0))
    assert not r.ok and r.detail == f"no breakthrough for {other} against {f0}"


def test_a_staged_table_outside_g_fails_the_staged_check(monkeypatch):
    # build_g_I(ordered[100], {1}) replaced by a table that is no column of
    # G: the staged-table check names it, and no check raises
    ordered = combinatorics.enumerate_ordered_prefix_tables(3)
    f0 = ordered[100]
    stray = tables.SuffixTable(3, (0, 14, 14), 0b1100)
    real = witness.build_g_I

    def build(f, stage):
        return stray if (f, set(stage)) == (f0, {1}) else real(f, stage)

    monkeypatch.setattr(witness, "build_g_I", build)
    assert stray not in witness.staged_matrix(ordered, 3).col_labels
    results = verification.run_checks(3, "full")
    r = _check_named(results, "staged suffix tables: acceptance sets")
    assert not r.ok and r.detail == f"no column of G for {f0}, [1]"
    assert len(results) == len(verification._CHECKS)


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
    built_g = _counting(monkeypatch, witness, "staged_matrix")
    # G stands in for K, which is never built
    built_k = _counting(monkeypatch, witness, "build_K")
    results = verification.run_checks(3, "full")
    assert all(r.ok for r in results)
    ordered = combinatorics.enumerate_ordered_prefix_tables(3)
    # one masks computation over all 115 base tables, each with all 115
    # first tables in one list
    [(firsts, bases)] = masks
    assert [f.values for f in bases] == [f.values for f in ordered]
    assert [f.values for f in firsts] == [f.values for f in ordered]
    # G once, with one unstaged table per ordered table, and each of the
    # 115 base tables' 2^k staged suffix tables, built once
    assert len(built_g) == 1
    assert len(staged) == 115 + sum(1 << tables.layer_structure(f).rank_k for f in ordered)
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


# With a second CPU a full run's random-automaton check runs in a forked
# worker beside the other checks; the report must not show where it ran.

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

    def third_fails(a, xs, ys, found, seed, shared):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        report = real(a, xs, ys, found, seed, shared)
        return dataclasses.replace(report, ok=False) if seed == bad else report

    monkeypatch.setattr(crossing, "_report", third_fails)
    runs = {}
    for cpus in ({0}, {0, 1}):
        runs[len(cpus)] = _verify_on(capsys, monkeypatch, cpus, "--n", "2", "--level", "full")
        ran_in = set(pids.read_text().split())
        pids.unlink()
        # every instance in this process, or every one in one worker
        assert len(ran_in) == 1 and (str(os.getpid()) in ran_in) == (len(cpus) == 1)
    assert runs[1] == runs[2]
    code, out = runs[2]
    assert code == 1
    assert (f"FAIL  random-automaton ranks stay within the bound (instance seed {bad})\n"
            "10/11 checks passed\n") in out


def test_only_a_full_run_forks_for_its_random_check(capsys, monkeypatch):
    # a quick run's 10 instances run here; a full run's 50 in one worker
    with monkeypatch.context() as m:
        m.setattr(os, "fork", lambda: pytest.fail("a quick run forked"))
        code, out = _verify_on(capsys, monkeypatch, {0, 1}, "--n", "3")
    assert code == 0 and out.endswith("11/11 checks passed\n")
    real, forks = os.fork, []

    def counted():
        forks.append(os.getpid())
        return real()

    with monkeypatch.context() as m:
        m.setattr(os, "fork", counted)
        code, out = _verify_on(capsys, monkeypatch, {0, 1}, "--n", "3", "--level", "full")
    assert code == 0 and out.endswith("11/11 checks passed\n")
    assert forks == [os.getpid()]


def test_a_full_run_at_size_four_builds_no_k(monkeypatch):
    built_k = _counting(monkeypatch, witness, "build_K")
    built_m = _counting(monkeypatch, witness, "build_M")
    results = verification.run_checks(4, "full")
    assert all(r.ok for r in results)
    assert built_k == [] and built_m == [(3,), (4,)]


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
    # M at size 4 has 7891 rows and is the only matrix ranked mod 2: a wrong
    # rank of M must fail the full check, where the quick one takes M's rank
    # from G's
    ranked = []
    real = exact_linalg.rank_mod_p

    def wrong_on_m(m, p):
        ranked.append(m.rows)
        return real(m, p) if m.rows == 3451 else 0

    monkeypatch.setattr(exact_linalg, "rank_mod_p", wrong_on_m)
    r = verification.check_matrix_rank_is_count(4, "full", random.Random(0))
    assert not r.ok and ranked == [7891]


def test_g_dependent_mod_2_at_size_four_fails_the_rank_check(capsys, monkeypatch):
    # row 2 of G4 set to the XOR of rows 0 and 1: the distinct rows are
    # dependent mod 2 and too many for exact elimination, so the check
    # reports their GF(2) rank as a lower bound and fails, and the other
    # checks still report
    real = witness.staged_matrix

    def dependent(rows, n):
        m = real(rows, n)
        bits = list(m.bits)
        bits[2] = bits[0] ^ bits[1]
        assert bits[2] not in m.bits
        return witness.BoolMatrix(m.row_labels, m.col_labels, m.cols, tuple(bits))

    monkeypatch.setattr(witness, "staged_matrix", dependent)
    code = main(["verify", "--n", "4"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert ("FAIL  matrix rank equals the ordered-table count "
            "(rank at least 3450 (mod 2), count 3451)") in out.splitlines()
    assert len(out.splitlines()) == len(verification._CHECKS) + 1


def test_rank_check_refuses_sizes_beyond_the_enumeration_cap(monkeypatch):
    # G at size 5 would be 164,731 square: the check refuses before any work
    monkeypatch.setattr(verification, "_matrix_g", None)
    for level in ("quick", "full"):
        with pytest.raises(CapacityError, match="limited to n <= 4"):
            verification.check_matrix_rank_is_count(5, level, random.Random(0))


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
            "tables.layer_masks = lambda fs, bases: [\n"
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
