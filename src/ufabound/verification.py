"""Named self-checks behind the ``verify`` command.

Each check re-derives one structural fact of the construction by
independent means and reports pass/fail; together they exercise the whole
pipeline at a chosen size.  ``quick`` samples where ``full`` is
exhaustive.  All sampling is seeded, so identical invocations print
identical reports.  The table-pair checks and the rank check read one
square matrix G (:func:`ufabound.witness.staged_matrix`) per run and size.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import functools
import itertools
import operator
import random
from math import factorial
from typing import Callable, NamedTuple

from . import automata, combinatorics, crossing, exact_linalg, tables, witness
from .errors import CapacityError
from .statesets import elements, full_mask

MERSENNE_PRIME = 2**31 - 1
# rows of M per search in the entry check: each search simulates its rows
# times every column (217 at n = 3), and its layout holds one int of all
# those lanes per letter; one search over all 133 rows of M would raise
# the check's peak memory by about 1.5 MB
ENTRY_BLOCK_ROWS = 32

# what several checks read (M, G and the ordered tables at a size, the pair
# study), kept by run_checks for one run and seen only inside it, so that
# concurrent runs keep their own; a check called on its own builds its own
_run_memo = contextvars.ContextVar("_run_memo", default=None)


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _shared(key, build: Callable):
    memo = _run_memo.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _matrix_m(size: int) -> witness.BoolMatrix:
    return _shared(("M", size), lambda: witness.build_M(size))


def _ordered(size: int) -> list[tables.PrefixTable]:
    return _shared(("ordered", size),
                   lambda: combinatorics.enumerate_ordered_prefix_tables(size))


def _matrix_g(size: int) -> witness.BoolMatrix:
    return _shared(("G", size), lambda: witness.staged_matrix(_ordered(size), size))


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
    m = _matrix_m(size)
    automaton = witness.WitnessAutomaton(size, m.row_labels, m.col_labels)
    # every row times every column, one lane per word, so that a simulated
    # row reads like M's: a pair's word is two letters of its row and one
    # of its column
    col_words = [automaton.word(m.row_labels[0], g)[2:] for g in m.col_labels]
    simulated = []
    for first in range(0, m.rows, ENTRY_BLOCK_ROWS):
        row_words = [automaton.word(f, m.col_labels[0])[:2]
                     for f in m.row_labels[first:first + ENTRY_BLOCK_ROWS]]
        simulated += automata.concatenation_bits(automaton.nfa, row_words, col_words)
    for i, (row, sim) in enumerate(zip(m.bits, simulated)):
        if diff := row ^ sim:  # the first failing cell, in grid order
            j = (diff & -diff).bit_length() - 1
            return CheckResult(name, False, f"entry {m.entry(i, j)}, simulation {sim >> j & 1} "
                               f"on {m.row_labels[i]}, {m.col_labels[j]}")
    # above size 2 the count is that of a sample this check no longer
    # draws; the bench digests and the CLI pins fix the wording, so it
    # changes with the phase-record benchmark change (ROADMAP item 3)
    count = m.rows * m.cols if n <= 2 else 10_000 if level == "full" else 500
    return CheckResult(name, True, f"{count} pairs")


def check_augmentation_identity(n: int, level: str, rng: random.Random) -> CheckResult:
    size = min(n, 4) if level == "full" else min(n, 3)
    m = _matrix_m(size)
    fs = m.row_labels
    index = {f.values: i for i, f in enumerate(fs)}
    checked = 0
    for f in fs:
        for u1, u2 in itertools.permutations(range(1, size + 1), 2):
            for v1 in elements(f.value(u1) & ~f.value(u2)):
                for v2 in elements(f.value(u2) & ~f.value(u1)):
                    fe, fep, fee = tables.augment(f, u1, u2, v1, v2)
                    a = m.bits[index[f.values]]
                    d = m.bits[index[fee.values]]
                    b = m.bits[index[fe.values]]
                    c = m.bits[index[fep.values]]
                    if (a ^ d) != (b ^ c) or (a & d) != (b & c):
                        return CheckResult("augmented-row identity", False, f"violated at {f}")
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
    fs = _ordered(min(n, 4))
    if level == "quick" and len(fs) > 40:
        fs = rng.sample(fs, 40)
    for f in fs:
        layer_rank = tables.layer_structure(f).rank_k
        matrix_rank = _complement_rank(f)
        if matrix_rank != layer_rank:
            return CheckResult(name, False, f"layer rank {layer_rank}, "
                               f"complement-matrix rank {matrix_rank} for {f}")
    return CheckResult(name, True, f"{len(fs)} tables")


def _stage_set(bits: int, k: int) -> set[int]:
    return {i for i in range(k) if bits >> i & 1}


class _PairStudy(NamedTuple):
    """The sampled (f, f0) pairs of ordered tables and all that the pair
    checks read of them, computed once and bit-sliced over the first tables.

    Bit t of an int of entry j stands for the pair of the base table
    bases[j] with the first table firsts[t]; bit t of pairs[j] marks the
    pairs studied, which run in the order of t, then j.  masks[j] are the
    base table's :func:`tables.layer_masks`; for stage set b (bit l stages
    layer l), accepts[j][b] and columns[j][b] are what
    :func:`witness.staged_columns` reads off G for its
    :func:`witness.build_g_I` table.
    """

    bases: list
    firsts: list
    pairs: list
    masks: list
    accepts: list
    columns: list


def _draw_pairs(size: int, level: str, rng: random.Random) -> tuple:
    """The bases, firsts and pairs of a :class:`_PairStudy`: every pair of
    ordered tables, or the drawn pairs, the first of draw j in bit j."""
    ordered = _ordered(size)
    if level == "full" and size <= 3:
        return ordered, ordered, [(1 << len(ordered)) - 1] * len(ordered)
    picks = [ordered[rng.randrange(len(ordered))]
             for _ in range(120 if level == "quick" else 2000)]
    bases = picks[1::2]
    return bases, picks[0::2], [1 << j for j in range(len(bases))]


def _pair_study(size: int, level: str, rng: random.Random) -> _PairStudy:
    bases, firsts, pairs = _draw_pairs(size, level, rng)
    accepts, columns = witness.staged_columns(_matrix_g(size), firsts, bases)
    return _PairStudy(bases, firsts, pairs, tables.layer_masks(firsts, bases),
                      accepts, columns)


def _study(n: int, level: str, rng: random.Random) -> _PairStudy:
    size = min(n, 4)
    return _shared(("pairs", size), lambda: _pair_study(size, level, rng))


def _union(ints) -> int:
    return functools.reduce(operator.or_, ints, 0)


def _first_failing(study: _PairStudy, failing: list[int]) -> tuple:
    """The first studied pair, in the study's order, with bit t of
    failing[j] set, as (f, f0, t, j)."""
    t = min((w & -w).bit_length() - 1 for w in failing if w)
    j = next(j for j, w in enumerate(failing) if w >> t & 1)
    return study.firsts[t], study.bases[j], t, j


def check_staged_suffix_tables(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "staged suffix tables: acceptance sets"
    study = _study(n, level, rng)
    for f0, accepts in zip(study.bases, study.accepts):
        ls = tables.layer_structure(f0)
        k = ls.rank_k
        for bits, accept in enumerate(accepts):
            stage = _stage_set(bits, k)
            if accept is None:
                return CheckResult(name, False, f"no column of G for {f0}, {sorted(stage)}")
            # the states on suffix layer k, and on layer k - 1 when it is staged
            low = k - 1 if k - 1 in stage else k
            expected = tables.mask_of(v for v, s in enumerate(ls.suffix_layer, 1) if s >= low)
            if accept != expected:
                return CheckResult(name, False, f"wrong accept set for {f0}, {sorted(stage)}")
    return CheckResult(name, True, f"{len(set(study.bases))} base tables")


def check_drop_down_rows(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "drop-down rows vanish"
    study = _study(n, level, rng)
    failing, checked = [], 0
    for pairs, layers, cols in zip(study.pairs, study.masks, study.columns):
        drop = pairs & _union(d for d, _ in layers)
        failing.append(drop & _union(cols))
        checked += drop.bit_count() * len(cols)
    if any(failing):
        f, f0, _, _ = _first_failing(study, failing)
        return CheckResult(name, False, f"non-zero entry for {f} against {f0}")
    detail = f"{checked} entries" if checked else "vacuous: no drop-downs at this size"
    return CheckResult(name, True, detail)


def _completed(layers: list, b: int) -> int:
    # the tables that breakthrough completion predicts to accept the staged
    # table of stage set b: those breaking through every layer outside b
    return functools.reduce(operator.and_, (brk for i, (_, brk) in enumerate(layers)
                                            if not b >> i & 1), -1)


def check_breakthrough_completion(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "breakthrough completion determines entries"
    study = _study(n, level, rng)
    failing, checked = [], 0
    for pairs, layers, cols in zip(study.pairs, study.masks, study.columns):
        kept = pairs & ~_union(d for d, _ in layers)
        failing.append(kept & _union(_completed(layers, b) ^ col for b, col in enumerate(cols)))
        checked += kept.bit_count() * len(cols)
    if any(failing):
        f, f0, t, j = _first_failing(study, failing)
        b = next(b for b, col in enumerate(study.columns[j])
                 if (_completed(study.masks[j], b) ^ col) >> t & 1)
        return CheckResult(name, False, f"mismatch for {f} against {f0}, "
                           f"stage {sorted(_stage_set(b, len(study.masks[j])))}")
    return CheckResult(name, True, f"{checked} entries")


def check_forced_breakthrough(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "at-least-as-large tables always break through"
    study = _study(n, level, rng)
    # the first tables of each table size and of each value tuple, as lanes
    by_size, by_values = collections.defaultdict(int), collections.defaultdict(int)
    for t, f in enumerate(study.firsts):
        by_size[tables.table_size(f)] |= 1 << t
        by_values[f.values] |= 1 << t
    failing, checked = [], 0
    for f0, pairs, layers in zip(study.bases, study.pairs, study.masks):
        size = tables.table_size(f0)
        larger = pairs & ~by_values[f0.values] & _union(
            lanes for z, lanes in by_size.items() if z >= size)
        failing.append(larger & ~_union(brk for _, brk in layers))
        checked += larger.bit_count()
    if any(failing):
        f, f0, _, _ = _first_failing(study, failing)
        return CheckResult(name, False, f"no breakthrough for {f} against {f0}")
    return CheckResult(name, True, f"{checked} pairs")


def check_matrix_rank_is_count(n: int, level: str, rng: random.Random) -> CheckResult:
    name = "matrix rank equals the ordered-table count"
    tables.check_enumeration_size(n)  # G lists every ordered table at n, with no cap of its own
    expected = combinatorics.count_ordered_prefix_tables(n)
    g = _matrix_g(n)
    try:
        # exact, and at most K's rank, which is at most G's row count
        got_k = exact_linalg.rank_exact(g)
    except CapacityError:
        # refused only when G's distinct rows are dependent mod 2 beyond the
        # entry cap: their GF(2) rank is then a lower bound, and no proof
        return CheckResult(name, False, f"rank at least {exact_linalg.rank_mod_p(g, 2)} "
                           f"(mod 2), count {expected}")
    if n <= 2:
        got_m = exact_linalg.rank_exact(_matrix_m(n))
    elif n == 3 or level == "full":
        # size 4 is heavy: there M is ranked through the cheap packed-bit field only
        got_m = exact_linalg.rank_mod_p(_matrix_m(n), MERSENNE_PRIME if n == 3 else 2)
    else:
        got_m = got_k
    return CheckResult(name, got_m == got_k == expected, f"rank {got_k}, count {expected}")


def check_random_automata_bound(n: int, level: str, rng: random.Random) -> CheckResult:
    instances = 50 if level == "full" else 10
    states = min(n, 3)
    seeds = [rng.randrange(2**30) for _ in range(instances)]
    for report in crossing.random_campaign(states, 2, seeds):
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
    by_layers = _ordered(size)
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

    def random_check() -> dict:
        return check_random_automata_bound(n, level, random.Random(seed))._asdict()

    token = _run_memo.set({})
    try:
        # the random-automaton check reads nothing the others build.  Under
        # full it runs beside them, in a worker forked before M or the pair
        # study exists; every check draws from a fresh generator, so a shared
        # sample is the one each check would have drawn itself.  Under quick
        # its 10 instances cost about as much as the fork, so it runs here
        if level == "full":
            # imported here, so that only the commands that fork workers load it
            from . import workers
            beside = workers.beside(random_check)
        else:
            beside = contextlib.nullcontext(random_check)
        with beside as random_result:
            return [CheckResult(**random_result()) if check is check_random_automata_bound
                    else check(n, level, random.Random(seed)) for check in _CHECKS]
    finally:
        _run_memo.reset(token)
