"""Named self-checks behind the ``verify`` command.

Each check re-derives one structural fact of the construction by
independent means and reports pass/fail; together they exercise the whole
pipeline at a chosen size.  ``quick`` samples where ``full`` is
exhaustive.  All sampling is seeded, so identical invocations print
identical reports.
"""

from __future__ import annotations

import functools
import itertools
import random
from math import factorial
from typing import Callable, NamedTuple

from . import automata, combinatorics, crossing, exact_linalg, tables, witness
from .statesets import elements, full_mask

MERSENNE_PRIME = 2**31 - 1
# sampled rows per search in the entry check: each search simulates its rows
# times every sampled column (217 at n = 3), and its layout holds one int of
# all those lanes per letter; one search over all 133 rows of M would raise
# the check's peak memory by about 1.5 MB
ENTRY_BLOCK_ROWS = 32


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _tables_for(n: int, level: str, rng: random.Random):
    ordered = combinatorics.enumerate_ordered_prefix_tables(n)
    if level == "quick" and len(ordered) > 40:
        ordered = rng.sample(ordered, 40)
    return ordered


def _unordered_witness(f: tables.PrefixTable):
    """A quadruple (u1, u2, v1, v2) with v1 in f(u1) - f(u2) and v2 in
    f(u2) - f(u1), or None: the second characterization of orderedness."""
    for u1, u2 in itertools.permutations(range(1, f.n + 1), 2):
        a, b = f.value(u1), f.value(u2)
        for v1 in elements(a & ~b):
            for v2 in elements(b & ~a):
                return (u1, u2, v1, v2)
    return None


def check_orderedness_agreement(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "orderedness characterizations agree"
    fs = tables.enumerate_prefix_tables(min(n, 3))
    if n >= 4:
        fs += rng.sample(tables.enumerate_prefix_tables(4), 500)
    for f in fs:
        if (_unordered_witness(f) is None) != tables.is_ordered(f):
            return CheckResult(name, False, f"they disagree on {f}")
    return CheckResult(name, True, f"{len(fs)} tables")


def check_entry_simulation_agreement(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "graph entries match two-way simulation"
    size = min(n, 3)
    m = witness.build_M(size)
    if n <= 2:
        pairs = itertools.product(range(m.rows), range(m.cols))
    else:
        count = 10_000 if level == "full" else 500
        pairs = ((rng.randrange(m.rows), rng.randrange(m.cols)) for _ in range(count))
    # the pairs kept as two byte strings of indices, which fit in a byte as M
    # has 133 rows and 217 columns at size 3: 10,000 tuples would take about
    # 30 times the memory
    pair_rows, pair_cols = bytearray(), bytearray()
    for i, j in pairs:
        pair_rows.append(i)
        pair_cols.append(j)
    rows, cols = sorted(set(pair_rows)), sorted(set(pair_cols))
    automaton = witness.WitnessAutomaton(size, m.row_labels, m.col_labels)
    # the sampled rows times the sampled columns, one lane per word: a
    # pair's word is two letters of its row and one of its column
    col_words = [automaton.word(m.row_labels[0], m.col_labels[j])[2:] for j in cols]
    simulated = {}
    for first in range(0, len(rows), ENTRY_BLOCK_ROWS):
        block = rows[first:first + ENTRY_BLOCK_ROWS]
        row_words = [automaton.word(m.row_labels[i], m.col_labels[0])[:2] for i in block]
        simulated.update(zip(block, automata.concatenation_bits(
            automaton.nfa, row_words, col_words)))
    column = {j: k for k, j in enumerate(cols)}
    for i, j in zip(pair_rows, pair_cols):
        bit = simulated[i] >> column[j] & 1
        if m.entry(i, j) != bit:
            return CheckResult(name, False, f"entry {m.entry(i, j)}, simulation {bit} "
                               f"on {m.row_labels[i]}, {m.col_labels[j]}")
    return CheckResult(name, True, f"{len(pair_rows)} pairs")


def check_augmentation_identity(n: int, level: str, rng: random.Random) -> CheckResult:
    size = min(n, 3)
    fs = tables.enumerate_prefix_tables(size)
    m = witness.build_M(size)
    index = {f.values: i for i, f in enumerate(fs)}
    checked = 0
    for f in fs:
        for u1 in range(1, size + 1):
            for u2 in range(1, size + 1):
                if u1 == u2:
                    continue
                cross = f.value(u1) & ~f.value(u2)
                other = f.value(u2) & ~f.value(u1)
                for v1 in elements(cross):
                    for v2 in elements(other):
                        fe, fep, fee = tables.augment(f, u1, u2, v1, v2)
                        a = m.bits[index[f.values]]
                        d = m.bits[index[fee.values]]
                        b = m.bits[index[fe.values]]
                        c = m.bits[index[fep.values]]
                        if (a ^ d) != (b ^ c) or (a & d) != (b & c):
                            return CheckResult("augmented-row identity", False,
                                               f"violated at {f}")
                        checked += 1
    detail = f"{checked} quadruples" if checked else "vacuous: every table is ordered"
    return CheckResult("augmented-row identity", True, detail)


def _complement_rank(f: tables.PrefixTable) -> int:
    """Rational rank of f's complement matrix: 1 at (u, v) iff v is not in
    f(u).  For an ordered table it equals the layer rank."""
    full = full_mask(f.n)
    # 1-based state masks: shifting out bit 0 puts state v in column v - 1
    bits = tuple((~fu & full) >> 1 for fu in f.values)
    labels = tuple(range(f.n))
    return exact_linalg.rank_exact(witness.BoolMatrix(labels, labels, f.n, bits))


def check_layer_rank(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "layer rank equals complement-matrix rank"
    fs = _tables_for(min(n, 4), level, rng)
    for f in fs:
        layer_rank = tables.layer_structure(f).rank_k
        matrix_rank = _complement_rank(f)
        if matrix_rank != layer_rank:
            return CheckResult(name, False, f"layer rank {layer_rank}, "
                               f"complement-matrix rank {matrix_rank} for {f}")
    return CheckResult(name, True, f"{len(fs)} tables")


def _table_pair_sample(n: int, level: str, rng: random.Random):
    ordered = combinatorics.enumerate_ordered_prefix_tables(n)
    if level == "quick":
        pairs = [(rng.choice(ordered), rng.choice(ordered)) for _ in range(60)]
    elif n <= 3:
        pairs = [(f, f0) for f in ordered for f0 in ordered]
    else:
        pairs = [(rng.choice(ordered), rng.choice(ordered)) for _ in range(1000)]
    return ordered, pairs


def _stage_set(bits: int, k: int) -> set[int]:
    return {i for i in range(k) if bits >> i & 1}


def check_staged_suffix_tables(n: int, level: str, rng: random.Random) -> CheckResult:
    size = min(n, 4)
    _, pairs = _table_pair_sample(size, level, rng)
    for f0 in {f0 for _, f0 in pairs}:
        ls = tables.layer_structure(f0)
        k = ls.rank_k
        for bits in range(1 << k):
            stage = _stage_set(bits, k)
            g = witness.build_g_I(f0, stage)
            if k - 1 in stage:
                expected = tables.mask_of(
                    v for v in range(1, size + 1) if ls.suffix_layer[v - 1] >= k - 1)
            else:
                expected = tables.mask_of(
                    v for v in range(1, size + 1) if ls.suffix_layer[v - 1] == k)
            if g.accept_flags != expected:
                return CheckResult("staged suffix tables: acceptance sets", False,
                                   f"wrong accept set for {f0}, {sorted(stage)}")
    return CheckResult("staged suffix tables: acceptance sets", True,
                       f"{len({f0 for _, f0 in pairs})} base tables")


def _staged_rows(size: int, pairs) -> list[int]:
    """For each pair (f, f0) in turn, f's entries against the 2^k staged suffix
    tables of f0, packed so that bit b holds stage set {i : bit i of b}.

    Each base table's staged tables are built once and every distinct f is
    one row of a single acceptance matrix over all of them.
    """
    offsets, staged = {}, []
    for f0 in dict.fromkeys(f0 for _, f0 in pairs):
        k = tables.layer_structure(f0).rank_k
        offsets[f0] = (len(staged), k)
        staged += [witness.build_g_I(f0, _stage_set(bits, k)) for bits in range(1 << k)]
    fs = list(dict.fromkeys(f for f, _ in pairs))
    row_of = dict(zip(fs, witness.acceptance_matrix(fs, staged, size).bits))
    out = []
    for f, f0 in pairs:
        start, k = offsets[f0]
        out.append(row_of[f] >> start & ((1 << (1 << k)) - 1))
    return out


def check_drop_down_rows(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "drop-down rows vanish"
    size = min(n, 4)
    _, pairs = _table_pair_sample(size, level, rng)
    pairs = [pair for pair in pairs if tables.layer_masks(*pair)[0]]
    checked = 0
    for (f, f0), row in zip(pairs, _staged_rows(size, pairs)):
        if row:
            return CheckResult(name, False, f"non-zero entry for {f} against {f0}")
        checked += 1 << tables.layer_structure(f0).rank_k
    detail = f"{checked} entries" if checked else "vacuous: no drop-downs at this size"
    return CheckResult(name, True, detail)


@functools.cache
def _completion_row(k: int, brk: int) -> int:
    """Entries predicted by breakthrough completion, packed like a staged
    row: bit b is set iff stage set b together with brk covers all k layers."""
    every = (1 << k) - 1
    return sum(1 << b for b in range(1 << k) if b | brk == every)


def check_breakthrough_completion(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "breakthrough completion determines entries"
    size = min(n, 4)
    _, pairs = _table_pair_sample(size, level, rng)
    kept, breaks = [], []
    for pair in pairs:
        drop, brk = tables.layer_masks(*pair)
        if not drop:
            kept.append(pair)
            breaks.append(brk)
    checked = 0
    for (f, f0), brk, row in zip(kept, breaks, _staged_rows(size, kept)):
        k = tables.layer_structure(f0).rank_k
        wrong = row ^ _completion_row(k, brk)
        if wrong:
            stage = _stage_set((wrong & -wrong).bit_length() - 1, k)
            return CheckResult(name, False, f"mismatch for {f} against {f0}, "
                               f"stage {sorted(stage)}")
        checked += 1 << k
    return CheckResult(name, True, f"{checked} entries")


def check_forced_breakthrough(n: int, level: str, rng: random.Random) -> CheckResult:
    size = min(n, 4)
    _, pairs = _table_pair_sample(size, level, rng)
    checked = 0
    for f, f0 in pairs:
        if f.values == f0.values or tables.table_size(f) < tables.table_size(f0):
            continue
        if not tables.layer_masks(f, f0)[1]:
            return CheckResult("at-least-as-large tables always break through", False,
                               f"no breakthrough for {f} against {f0}")
        checked += 1
    return CheckResult("at-least-as-large tables always break through", True,
                       f"{checked} pairs")


def check_matrix_rank_is_count(n: int, level: str, rng: random.Random) -> CheckResult:
    expected = combinatorics.count_ordered_prefix_tables(n)
    if n <= 2:
        m = witness.build_M(n)
        k = witness.build_K(n)
        got_m = exact_linalg.rank_exact(m)
        got_k = exact_linalg.rank_exact(k)
    elif n == 3:
        m = witness.build_M(n)
        k = witness.build_K(n)
        got_m = exact_linalg.rank_mod_p(m, MERSENNE_PRIME)
        got_k = exact_linalg.rank_exact(k)
    else:
        # size 4 is heavy: certify through the cheap packed-bit field only
        k = witness.build_K(n)
        got_k = exact_linalg.rank_mod_p(k, 2)
        got_m = got_k
    ok = got_m == got_k == expected
    return CheckResult("matrix rank equals the ordered-table count", ok,
                       f"rank {got_k}, count {expected}")


def check_random_automata_bound(n: int, level: str, rng: random.Random) -> CheckResult:
    instances = 50 if level == "full" else 10
    states = min(n, 3)
    for i in range(instances):
        report = crossing.random_campaign_report(states, 2, seed=rng.randrange(2**30))
        if not report.ok:
            return CheckResult("random-automaton ranks stay within the bound", False,
                               f"instance seed {report.seed}")
    return CheckResult("random-automaton ranks stay within the bound", True,
                       f"{instances} instances with {states} states")


def _count_by_second_index_form(n: int) -> int:
    """sum_{k=1}^{n} (k-1)! k! S(n, k) S(n+1, k), the index form of the
    count that :func:`combinatorics.count_ordered_prefix_tables` does not use."""
    s2 = combinatorics.stirling2
    return sum(factorial(k - 1) * factorial(k) * s2(n, k) * s2(n + 1, k)
               for k in range(1, n + 1))


def check_count_matches_enumeration(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "ordered-table enumerations agree"
    size = min(n, 4) if level == "full" else min(n, 3)
    count = combinatorics.count_ordered_prefix_tables(size)
    second = _count_by_second_index_form(size)
    if count != second:
        return CheckResult(name, False, f"index forms of the count disagree at "
                           f"size {size}: {count} != {second}")
    by_filter = tables.enumerate_ordered_prefix_tables_by_filter(size)
    by_layers = combinatorics.enumerate_ordered_prefix_tables(size)
    layered = {f.values for f in by_layers}
    if len(layered) != len(by_layers):
        return CheckResult(name, False, f"the layer enumeration yields {len(by_layers)} "
                           f"tables, {len(layered)} distinct, at size {size}")
    if len(by_layers) != count:
        return CheckResult(name, False, f"the layer enumeration gives {len(by_layers)} "
                           f"tables, the count {count} at size {size}")
    if {f.values for f in by_filter} != layered:
        return CheckResult(name, False, f"the filter and layer enumerations differ "
                           f"at size {size}")
    return CheckResult(name, True, f"{len(by_filter)} tables at size {size}")


_CHECKS: list[Callable] = [
    check_orderedness_agreement,
    check_entry_simulation_agreement,
    check_augmentation_identity,
    check_layer_rank,
    check_count_matches_enumeration,
    check_staged_suffix_tables,
    check_drop_down_rows,
    check_breakthrough_completion,
    check_forced_breakthrough,
    check_matrix_rank_is_count,
    check_random_automata_bound,
]


def run_checks(n: int, level: str = "quick", seed: int = 0) -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    results = []
    for check in _CHECKS:
        rng = random.Random(seed)
        results.append(check(n, level, rng))
    return results
