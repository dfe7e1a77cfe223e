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

from conftest import oracle_layers, staged_table_image

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
    r = verification.check_orderedness_agreement(verification.Run(3, "full"))
    assert not r.ok and "disagree" in r.detail


def test_entry_simulation_disagreement_fails(monkeypatch):
    # the check reads its simulation from one batched search over M
    monkeypatch.setattr(automata, "concatenation_bits", lambda a, xs, ys: [0] * len(xs))
    r = verification.check_entry_simulation_agreement(verification.Run(2, "full"))
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
    r = verification.check_entry_simulation_agreement(verification.Run(3, "full"))
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
    r = verification.check_entry_simulation_agreement(verification.Run(3, "quick"))
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
    r = verification.check_entry_simulation_agreement(verification.Run(3, "quick"))
    assert not r.ok
    assert r.detail == (f"entry {m.entry(i, j)}, simulation {1 - m.entry(i, j)} "
                        f"on {m.row_labels[i]}, {m.col_labels[j]}")


def test_the_entry_check_is_one_search_over_m(monkeypatch):
    # every row word of M3 against every column word, in one call
    real = automata.concatenation_bits
    calls = []

    def counted(a, xs, ys):
        calls.append((len(xs), len(ys)))
        return real(a, xs, ys)

    monkeypatch.setattr(automata, "concatenation_bits", counted)
    r = verification.check_entry_simulation_agreement(verification.Run(3, "full"))
    assert r.ok and calls == [(133, 217)]


def test_a_flipped_bit_of_m_fails_the_augmentation_identity(monkeypatch):
    # bit 0 flipped in the row of M's first unordered table, the first row
    # that a quadruple reads
    m = witness.build_M(3)
    i = next(i for i, f in enumerate(m.row_labels) if not tables.is_ordered(f))
    bits = list(m.bits)
    bits[i] ^= 1
    flipped = witness.BoolMatrix(m.row_labels, m.col_labels, m.cols, tuple(bits))
    monkeypatch.setattr(verification.Run, "m", lambda run, size: flipped)
    r = verification.check_augmentation_identity(verification.Run(3, "quick"))
    assert not r.ok and r.detail == f"violated at {m.row_labels[i]}"


def test_layer_rank_disagreement_fails(monkeypatch):
    monkeypatch.setattr(verification, "_complement_rank", lambda f: 0)
    r = verification.check_layer_rank(verification.Run(3, "full"))
    assert not r.ok and "complement-matrix rank 0" in r.detail


def test_count_index_form_disagreement_fails(monkeypatch):
    monkeypatch.setattr(verification, "_count_by_second_index_form", lambda n: -1)
    r = verification.check_count_matches_enumeration(verification.Run(3, "full"))
    assert not r.ok and "index forms" in r.detail


def _same_for_every_pair(drop, brk):
    # verification._study_of with every pair given the same layers: bit i of
    # drop (of brk) says that it drops down from (breaks through) layer i
    real = verification._study_of

    def study_of(g, firsts, bases):
        _, accepts, columns = real(g, firsts, bases)
        every = (1 << len(firsts)) - 1
        masks = [[(every if drop >> i & 1 else 0, every if brk >> i & 1 else 0)
                  for i in range(tables.layer_structure(f0).rank_k)] for f0 in bases]
        return masks, accepts, columns
    return study_of


def test_spurious_drop_down_fails(monkeypatch):
    monkeypatch.setattr(verification, "_study_of", _same_for_every_pair(1, 0))
    r = verification.check_drop_down_rows(verification.Run(3, "full"))
    assert not r.ok and "non-zero entry" in r.detail


def test_missing_breakthrough_breaks_completion(monkeypatch):
    monkeypatch.setattr(verification, "_study_of", _same_for_every_pair(0, 0))
    r = verification.check_breakthrough_completion(verification.Run(3, "full"))
    assert not r.ok and re.fullmatch(r"mismatch for .* against .*, stage \[.*\]", r.detail)


def test_missing_forced_breakthrough_fails(monkeypatch):
    monkeypatch.setattr(verification, "_study_of", _same_for_every_pair(0, 0))
    r = verification.check_forced_breakthrough(verification.Run(3, "full"))
    assert not r.ok and "no breakthrough" in r.detail


def test_completion_mismatch_names_the_lowest_wrong_stage(monkeypatch):
    # claim a breakthrough through every layer: the entries then read 1 on
    # every stage set, and the first real zero is the empty stage set
    monkeypatch.setattr(verification, "_study_of", _same_for_every_pair(0, 0b111))
    r = verification.check_breakthrough_completion(verification.Run(3, "full"))
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
    drops = [any(d for d, _ in oracle_layers(ordered[i], ordered[j])) for i, j, _ in hits]
    monkeypatch.setattr(witness, "staged_matrix", flipped)
    r = verification.check_breakthrough_completion(verification.Run(3, "full"))
    i, j, b = next(hit for hit, drop in zip(hits, drops) if not drop)
    assert not r.ok
    assert r.detail == (f"mismatch for {ordered[i]} against {ordered[j]}, "
                        f"stage {sorted(stage(j, b))}")
    assert r.detail == ("mismatch for PrefixTable(n=3, values=(6, 4, 4)) against "
                        "PrefixTable(n=3, values=(4, 14, 4)), stage []")
    r = verification.check_drop_down_rows(verification.Run(3, "full"))
    i, j, _ = next(hit for hit, drop in zip(hits, drops) if drop)
    assert not r.ok and r.detail == f"non-zero entry for {ordered[i]} against {ordered[j]}"


def _assert_columns_are_the_acceptance_cells(firsts, bases, accepts, columns, n):
    """accepts[j][b] is the accept set of base table bases[j]'s staged
    table of stage set b, and bit t of columns[j][b] the cell of firsts[t]
    against that table, read off one acceptance matrix per base table (its
    cells are those of one-cell matrices); returns the cells checked."""
    checked = 0
    for f0, acc, cols in zip(bases, accepts, columns, strict=True):
        k = tables.layer_structure(f0).rank_k
        staged = [witness.build_g_I(f0, {i for i in range(k) if b >> i & 1})
                  for b in range(1 << k)]
        assert acc == [h.accept_flags for h in staged]
        rows = witness.acceptance_matrix(firsts, staged, n).bits
        assert cols == [sum((row >> b & 1) << t for t, row in enumerate(rows))
                        for b in range(1 << k)]
        checked += len(firsts) << k
    return checked


@pytest.mark.parametrize("size, level, seed", [(3, "full", 0), (4, "quick", 7)])
def test_the_study_columns_are_the_acceptance_cells(size, level, seed):
    # every first table against every staged table of every base table,
    # also the pairs a sampled study does not mark
    study = verification.Run(size, level, seed).study()
    ks = [tables.layer_structure(f0).rank_k for f0 in study.bases]
    assert _assert_columns_are_the_acceptance_cells(
        study.firsts, study.bases, study.accepts, study.columns, size) == \
        len(study.firsts) * sum(1 << k for k in ks)


def test_the_study_reads_a_repeated_first_table_and_no_first_tables():
    # a table twice among the first tables, also as an equal copy, and no
    # first tables at all
    ordered = combinatorics.enumerate_ordered_prefix_tables(3)
    g = witness.staged_matrix(ordered, 3)
    bases = ordered[40:47]
    for fs in (ordered[:30] + [ordered[5], tables.PrefixTable(3, ordered[5].values)], []):
        _, accepts, columns = verification._study_of(g, fs, bases)
        assert _assert_columns_are_the_acceptance_cells(fs, bases, accepts, columns, 3) == \
            len(fs) * sum(1 << tables.layer_structure(f0).rank_k for f0 in bases)


def test_a_staged_table_outside_g_reads_none_and_zero():
    # G without the column of one staged table of a rank-2 base table:
    # that stage set reads None and 0, every other one its column
    ordered = combinatorics.enumerate_ordered_prefix_tables(3)
    f0 = next(f for f in ordered if tables.layer_structure(f).rank_k == 2)
    stages = [{i for i in range(2) if s >> i & 1} for s in range(4)]
    c = ordered.index(staged_table_image(f0, {0}))
    full = witness.staged_matrix(ordered, 3)
    low = (1 << c) - 1
    g = witness.BoolMatrix(full.row_labels, full.col_labels[:c] + full.col_labels[c + 1:],
                           full.cols - 1,
                           tuple(row >> 1 & ~low | row & low for row in full.bits))
    _, [acc], [cols] = verification._study_of(g, ordered, [f0])
    _, [want_acc], [want_cols] = verification._study_of(full, ordered, [f0])
    for s, stage in enumerate(stages):
        if staged_table_image(f0, stage) == ordered[c]:
            assert acc[s] is None and cols[s] == 0
        else:
            assert (acc[s], cols[s]) == (want_acc[s], want_cols[s])
    assert acc[1] is None and None not in want_acc


@pytest.mark.parametrize("size", [3, 4])
def test_the_quick_study_reads_each_pair_as_a_call_of_its_own(size):
    # draw j pairs base table j with first table j: bit j of its masks and
    # columns is what the study of that pair alone gives
    run = verification.Run(size, "quick")
    study = run.study()
    assert study.pairs == [1 << j for j in range(len(study.bases))]
    g = run.g(size)
    for j, (f, f0) in enumerate(zip(study.firsts, study.bases, strict=True)):
        [layers], [acc], [cols] = verification._study_of(g, [f], [f0])
        assert [(d >> j & 1, b >> j & 1) for d, b in study.masks[j]] == layers
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
    monkeypatch.setattr(verification, "_draw_pairs", lambda run: ([f0], fs, [0b11011]))
    r = verification.check_forced_breakthrough(verification.Run(3, "full"))
    assert r.ok and r.detail == "1 pairs"
    monkeypatch.setattr(verification, "_study_of", _same_for_every_pair(0, 0))
    r = verification.check_forced_breakthrough(verification.Run(3, "full"))
    assert not r.ok and r.detail == f"no breakthrough for {other} against {f0}"


def test_a_wrong_staged_accept_set_fails_the_staged_check(monkeypatch):
    # the accept set of base table 100's last staged table, every layer
    # staged, with state 1 flipped
    real = verification._study_of

    def study_of(g, firsts, bases):
        masks, accepts, columns = real(g, firsts, bases)
        accepts[100][-1] ^= 0b10
        return masks, accepts, columns

    monkeypatch.setattr(verification, "_study_of", study_of)
    f0 = combinatorics.enumerate_ordered_prefix_tables(3)[100]
    stage = list(range(tables.layer_structure(f0).rank_k))
    r = verification.check_staged_suffix_tables(verification.Run(3, "full"))
    assert not r.ok and r.detail == f"wrong accept set for {f0}, {stage}"


def test_a_staged_table_outside_g_fails_the_staged_check(monkeypatch):
    # the staged table of ordered[100] and {1} replaced by a table that is
    # no column of G: the staged-table check names it, and no check raises
    ordered = combinatorics.enumerate_ordered_prefix_tables(3)
    f0 = ordered[100]
    stray = tables.SuffixTable(3, (0, 14, 14), 0b1100)
    real = witness.staged_tables

    def build(f):
        staged = real(f)
        if f == f0:
            staged[0b10] = stray
        return staged

    monkeypatch.setattr(witness, "staged_tables", build)
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
    studies = _counting(monkeypatch, verification, "_study_of")
    unstaged = _counting(monkeypatch, witness, "build_g_I")
    staged = _counting(monkeypatch, witness, "staged_tables")
    built = _counting(monkeypatch, witness, "acceptance_matrix")
    built_g = _counting(monkeypatch, witness, "staged_matrix")
    # G stands in for K, which is never built
    built_k = _counting(monkeypatch, witness, "build_K")
    results = verification.run_checks(3, "full")
    assert all(r.ok for r in results)
    ordered = combinatorics.enumerate_ordered_prefix_tables(3)
    # one study of all 115 base tables, each with all 115 first tables in
    # one list
    [(g, firsts, bases)] = studies
    assert [f.values for f in bases] == [f.values for f in ordered]
    assert [f.values for f in firsts] == [f.values for f in ordered]
    # G once, with one unstaged table per ordered table, and each of the
    # 115 base tables' 2^k staged suffix tables, built in one call
    assert len(built_g) == 1 and g.cols == 115 and len(unstaged) == 115
    assert [f.values for (f,) in staged] == [f.values for f in ordered]
    # two acceptance matrices: M over the 133 prefix tables, then G
    assert [(len(rows), n) for rows, _, n in built] == [(133, 3), (115, 3)] and built_k == []


def test_one_run_enumerates_the_ordered_tables_once(monkeypatch):
    # on one CPU the layer-rank check, the count check and the pair study
    # share one list, and the orderedness check, the count check's filter
    # enumeration and M one list of prefix tables; the filter enumeration
    # stays the count check's own oracle
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    enumerated = _counting(monkeypatch, combinatorics, "enumerate_ordered_prefix_tables")
    prefixes = _counting(monkeypatch, tables, "prefix_table_values")
    assert all(r.ok for r in verification.run_checks(3, "full"))
    assert enumerated == [(3,)] and prefixes == [(3,)]


def test_concurrent_runs_keep_their_own_memo(monkeypatch):
    # two runs inside run_checks at once, the quick one building its pair
    # study before the full one reaches the pair checks: each must report
    # what it reports on its own
    runs = (("quick", 5), ("full", 0))
    want = {level: verification.run_checks(3, level, seed) for level, seed in runs}
    barrier = threading.Barrier(len(runs), timeout=60)

    def meet(run):
        barrier.wait()
        return verification.CheckResult("meet", True, "")

    def quick_study_first(run):
        if run.level == "quick":
            run.study()
        return meet(run)

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


# With a second CPU, from three states on, the orderedness, count and
# random-automaton checks run in a forked worker beside the other checks;
# the report must not show where they ran.

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


def test_a_failed_fork_runs_the_worker_checks_here(monkeypatch, refused_forks):
    # the checks meant for the worker run in this process, with the
    # one-CPU results in the same order
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = verification.run_checks(3, "full")
    assert refused_forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert verification.run_checks(3, "full") == one
    assert refused_forks == [1]


def _random_seed(level, k, seed=0):
    """The seed of the random-automaton check's instance k."""
    return verification.Run(3, level, seed).seeds[k]


def test_a_failing_random_instance_reads_the_same_from_the_worker(
        capsys, monkeypatch, tmp_path):
    real = crossing._report
    pids = tmp_path / "pids"
    for level in ("quick", "full"):
        bad = _random_seed(level, 2)

        def third_fails(a, xs, ys, found, seed, shared):
            with open(pids, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            report = real(a, xs, ys, found, seed, shared)
            return dataclasses.replace(report, ok=False) if seed == bad else report

        monkeypatch.setattr(crossing, "_report", third_fails)
        runs = {}
        for cpus in ({0}, {0, 1}):
            runs[len(cpus)] = _verify_on(capsys, monkeypatch, cpus, "--n", "3", "--level", level)
            ran_in = set(pids.read_text().split())
            pids.unlink()
            # every instance in this process with one CPU, or with two every
            # one in one worker
            here = len(cpus) == 1
            assert len(ran_in) == 1 and (str(os.getpid()) in ran_in) == here
        assert runs[1] == runs[2]
        code, out = runs[2]
        assert code == 1
        assert (f"FAIL  random-automaton ranks stay within the bound (instance seed {bad})\n"
                "10/11 checks passed\n") in out


def test_an_error_in_the_random_check_worker_exits_2(capsys, monkeypatch):
    bad = _random_seed("full", 30)
    real = crossing._report

    def raising(a, xs, ys, found, seed, shared):
        if seed == bad:
            raise RuntimeError("boom")
        return real(a, xs, ys, found, seed, shared)

    monkeypatch.setattr(crossing, "_report", raising)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    code = main(["verify", "--n", "3", "--level", "full"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    # the worker's items are the positions of its checks in _CHECKS
    away = [verification._CHECKS.index(check) for check in verification._BESIDE]
    assert err == f"error: the worker on items {away[0]}..{away[-1]} raised RuntimeError: boom\n"
    with pytest.raises(ChildProcessError):  # no worker left behind
        os.waitpid(-1, os.WNOHANG)


def test_run_checks_calls_the_random_check_it_lists(monkeypatch, tmp_path):
    # a wrapper bound in the module and in its lists, as the bench tracer
    # binds its own, sees the check run, in the worker with two CPUs, and
    # report what the check reports called on its own
    real = verification.check_random_automata_bound
    calls = tmp_path / "calls"

    def wrapped(run):
        r = real(run)
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {r.detail}\n")
        return r

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(verification, "check_random_automata_bound", wrapped)
    for name in ("_CHECKS", "_BESIDE"):
        monkeypatch.setattr(verification, name, [wrapped if check is real else check
                                                 for check in getattr(verification, name)])
    for level in ("quick", "full"):
        results = verification.run_checks(3, level)
        [(pid, detail)] = [line.split(" ", 1) for line in calls.read_text().splitlines()]
        calls.unlink()
        assert pid != str(os.getpid()) and detail == results[-1].detail and results[-1].ok
        assert results[-1] == real(verification.Run(3, level))


def test_a_run_forks_once_from_three_states_at_both_levels(capsys, monkeypatch):
    # from three states on one worker runs the checks of _BESIDE, at both
    # levels; at one and two states, where the other checks take less than
    # the fork costs, every check runs here
    real = os.fork
    for n, level, forks in (("1", "quick", 0), ("1", "full", 0), ("2", "quick", 0),
                            ("2", "full", 0), ("3", "quick", 1), ("3", "full", 1),
                            ("4", "quick", 1)):
        forked = []

        def counted():
            forked.append(os.getpid())
            return real()

        with monkeypatch.context() as m:
            m.setattr(os, "fork", counted)
            code, out = _verify_on(capsys, monkeypatch, {0, 1}, "--n", n, "--level", level)
        assert code == 0 and out.endswith("11/11 checks passed\n")
        assert forked == [os.getpid()] * forks, (n, level)


@pytest.mark.parametrize("name, fault, value, detail", [
    ("orderedness characterizations agree", "_unordered_witness", None, "they disagree on"),
    ("ordered-table enumerations agree", "_count_by_second_index_form", -1,
     "index forms of the count disagree")])
def test_a_failing_check_in_the_worker_still_lets_the_others_report(
        capsys, monkeypatch, name, fault, value, detail):
    # a check of the worker forced to fail, before the fork: its FAIL line
    # and every other check's PASS line print as on one CPU, the worker
    # going on past the failure to the checks after it
    monkeypatch.setattr(verification, fault, lambda arg: value)
    for level in ("quick", "full"):
        runs = {len(cpus): _verify_on(capsys, monkeypatch, cpus, "--n", "3", "--level", level)
                for cpus in ({0}, {0, 1})}
        assert runs[1] == runs[2]
        code, out = runs[2]
        *checks, summary = out.splitlines()
        failed = [line for line in checks if not line.startswith("PASS  ")]
        assert code == 1 and len(checks) == len(verification._CHECKS) and len(failed) == 1
        assert failed[0].startswith(f"FAIL  {name} ({detail}")
        assert summary == "10/11 checks passed"


def test_a_full_run_at_size_four_builds_no_k(monkeypatch):
    # on one CPU each size's prefix tables are enumerated once, and M's
    # rows at each size are the run's own prefix tables
    from ufabound import workers

    runs = []

    class Kept(verification.Run):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(workers, "_cpus", lambda: 1)
    monkeypatch.setattr(verification, "Run", Kept)
    built_k = _counting(monkeypatch, witness, "build_K")
    built = _counting(monkeypatch, witness, "acceptance_matrix")
    enumerated = _counting(monkeypatch, tables, "prefix_table_values")
    results = verification.run_checks(4, "full")
    assert all(r.ok for r in results)
    assert built_k == [] and enumerated == [(3,), (4,)]
    [run] = runs
    assert [n for rows, _, n in built if rows is run.prefix(n)] == [3, 4]


def test_no_study_survives_a_run():
    verification.run_checks(3, "full")
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, verification._PairStudy)]


def test_a_later_run_sees_a_patched_layer_mask(monkeypatch):
    name = "drop-down rows vanish"
    assert _check_named(verification.run_checks(3, "full"), name).ok
    monkeypatch.setattr(verification, "_study_of", _same_for_every_pair(1, 0))
    r = _check_named(verification.run_checks(3, "full"), name)
    assert not r.ok and "non-zero entry" in r.detail


def test_leaving_a_run_early_reaps_its_worker_and_keeps_no_study(monkeypatch):
    # a full run with a second CPU forks its worker before the first check;
    # a first check that raises after the pair study is built must still
    # reap the worker and drop the study with the run
    from ufabound import workers

    real = os.fork
    forked, studied = [], []

    def counted():
        forked.append(os.getpid())
        return real()

    def left_early(run):
        studied.append(type(run.study()))
        raise RuntimeError("left early")

    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(verification, "_CHECKS", [left_early, *verification._CHECKS])
    with pytest.raises(RuntimeError, match="left early"):
        verification.run_checks(3, "full")
    assert forked == [os.getpid()] and studied == [verification._PairStudy]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, verification._PairStudy)]


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
    r = verification.check_matrix_rank_is_count(verification.Run(4, "full"))
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


def test_a_run_refuses_a_bad_size_or_level_before_any_work(monkeypatch):
    # G at size 5 would be 164,731 square: a run refuses that size, and a
    # level it does not know, before it forks its worker or builds anything
    from ufabound import workers

    def no_work(*args):
        raise AssertionError("work done")

    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_work)
    for module, name in ((tables, "prefix_table_values"), (witness, "acceptance_matrix"),
                         (witness, "staged_matrix"),
                         (combinatorics, "enumerate_ordered_prefix_tables"),
                         (crossing, "random_records")):
        monkeypatch.setattr(module, name, no_work)
    for level in ("quick", "full"):
        with pytest.raises(CapacityError, match="limited to n <= 4"):
            verification.run_checks(5, level)
    with pytest.raises(ValueError, match="level must be quick or full"):
        verification.run_checks(3, "medium")


@pytest.mark.parametrize("n, message", [("5", "exhaustive table enumeration is limited to n <= 4"),
                                        ("0", "n must be positive, got 0")])
def test_verify_refuses_a_size_out_of_range_before_any_work(capsys, monkeypatch, n, message):
    # with a second CPU a full run would fork its random-automaton worker
    # first; a size out of range forks nothing and builds nothing
    from ufabound import workers

    real = os.fork
    forked = []

    def counted():
        forked.append(os.getpid())
        return real()

    def no_build(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(workers, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(witness, "acceptance_matrix", no_build)
    code = main(["verify", "--n", n, "--level", "full"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert forked == []


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
    # the filter enumeration misses the first ordered table
    real = tables.is_ordered
    first = combinatorics.enumerate_ordered_prefix_tables(2)[0]
    monkeypatch.setattr(tables, "is_ordered", lambda f: f != first and real(f))
    r = verification.check_count_matches_enumeration(verification.Run(2, "full"))
    assert not r.ok and "differ" in r.detail


def test_a_wrong_born_structure_fails_the_count_check(monkeypatch):
    real = combinatorics.enumerate_ordered_prefix_tables
    # the table ({1}, {1}, {1,2,3}) born as if {1,2} were one of its
    # values: rank 2, where its computed structure has rank 1
    wrong = tables.layered_tables(3, (0b0010, 0b0110, 0b1110), [(0, 0, 2)])[0]
    assert tables.layer_structure(wrong) != tables.layer_structure(
        tables.PrefixTable(3, wrong.values))
    monkeypatch.setattr(combinatorics, "enumerate_ordered_prefix_tables",
                        lambda n: [wrong if f == wrong else f for f in real(n)])
    r = verification.check_count_matches_enumeration(verification.Run(3, "quick"))
    assert not r.ok and r.detail == (f"the layer enumeration's structure of {wrong} "
                                     f"differs from the computed one")


# Under ``python -O`` the checks must compare exactly as without it.

def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def test_injected_disagreement_fails_under_optimize():
    code = ("from ufabound import tables, verification\n"
            "tables.is_ordered = lambda f: True\n"
            "r = verification.check_orderedness_agreement(verification.Run(3, 'full'))\n"
            "print('PASS' if r.ok else 'FAIL')\n")
    proc = _run("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "FAIL\n"


def test_missing_breakthrough_fails_under_optimize():
    code = ("from ufabound import verification\n"
            "real = verification._study_of\n"
            "def study_of(g, firsts, bases):\n"
            "    masks, accepts, columns = real(g, firsts, bases)\n"
            "    return [[(0, 0)] * len(layers) for layers in masks], accepts, columns\n"
            "verification._study_of = study_of\n"
            "r = verification.check_forced_breakthrough(verification.Run(3, 'full'))\n"
            "print('PASS' if r.ok else 'FAIL')\n")
    proc = _run("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "FAIL\n"


def test_staged_drop_down_and_completion_faults_fail_under_optimize():
    # the study's accept sets emptied, every first table dropping down from
    # layer 0, and no breakthrough anywhere
    code = ("from ufabound import verification\n"
            "real = verification._study_of\n"
            "def faulty(drop, accept):\n"
            "    def study_of(g, firsts, bases):\n"
            "        masks, accepts, columns = real(g, firsts, bases)\n"
            "        every = (1 << len(firsts)) - 1 if drop else 0\n"
            "        return ([[(every, 0)] * len(layers) for layers in masks],\n"
            "                [[a if accept else 0 for a in acc] for acc in accepts], columns)\n"
            "    return study_of\n"
            "for name, drop, accept in (('check_staged_suffix_tables', 0, 0),\n"
            "                           ('check_drop_down_rows', 1, 1),\n"
            "                           ('check_breakthrough_completion', 0, 1)):\n"
            "    verification._study_of = faulty(drop, accept)\n"
            "    r = getattr(verification, name)(verification.Run(3, 'full'))\n"
            "    print('PASS' if r.ok else 'FAIL', r.detail.split()[0])\n")
    proc = _run("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "FAIL wrong\nFAIL non-zero\nFAIL mismatch\n"


def test_flipped_m_bit_and_wrong_accept_set_fail_under_optimize():
    # the faults of test_a_flipped_bit_of_m_fails_the_augmentation_identity
    # and test_a_wrong_staged_accept_set_fails_the_staged_check
    code = ("from ufabound import tables, verification, witness\n"
            "m = witness.build_M(3)\n"
            "i = next(i for i, f in enumerate(m.row_labels) if not tables.is_ordered(f))\n"
            "bits = list(m.bits)\n"
            "bits[i] ^= 1\n"
            "flipped = witness.BoolMatrix(m.row_labels, m.col_labels, m.cols, tuple(bits))\n"
            "verification.Run.m = lambda run, size: flipped\n"
            "r = verification.check_augmentation_identity(verification.Run(3, 'quick'))\n"
            "print('PASS' if r.ok else 'FAIL', r.detail == f'violated at {m.row_labels[i]}')\n"
            "real = verification._study_of\n"
            "def study_of(g, firsts, bases):\n"
            "    masks, accepts, columns = real(g, firsts, bases)\n"
            "    accepts[100][-1] ^= 0b10\n"
            "    return masks, accepts, columns\n"
            "verification._study_of = study_of\n"
            "r = verification.check_staged_suffix_tables(verification.Run(3, 'full'))\n"
            "print('PASS' if r.ok else 'FAIL', r.detail.split(' for ')[0])\n")
    proc = _run("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "FAIL True\nFAIL wrong accept set\n"


def test_wrong_born_structure_fails_under_optimize():
    code = ("from ufabound import combinatorics, tables, verification\n"
            "real = combinatorics.enumerate_ordered_prefix_tables\n"
            "wrong = tables.layered_tables(3, (0b0010, 0b0110, 0b1110), [(0, 0, 2)])[0]\n"
            "combinatorics.enumerate_ordered_prefix_tables = lambda n: [\n"
            "    wrong if f == wrong else f for f in real(n)]\n"
            "r = verification.check_count_matches_enumeration(verification.Run(3, 'quick'))\n"
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
