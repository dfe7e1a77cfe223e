"""Named self-checks behind the ``verify`` command.

Each check re-derives one structural fact of the construction by
independent means and reports pass/fail; together they exercise the whole
pipeline at a chosen size.  ``quick`` samples where ``full`` is
exhaustive.  All sampling is seeded, so identical invocations print
identical reports.  Every check reads what it needs off one :class:`Run`:
M, the prefix tables, the ordered tables and the square matrix G
(:func:`ufabound.witness.staged_matrix`) per size, the pair study, and
the random check's seeds.  From three states on, the checks that build
what no other check reads run in a worker that :func:`run_checks` forks
once the run is made, on its copy of the run, beside the others
(:data:`_BESIDE`).
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import random
from math import factorial
from typing import Callable, NamedTuple

from . import automata, combinatorics, crossing, exact_linalg, tables, witness
from .errors import CapacityError
from .statesets import elements, full_mask, transpose

MERSENNE_PRIME = 2**31 - 1


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class Run:
    """One verify run at size n: the prefix tables' value tuples, the
    prefix tables built from them (M's rows), M, the ordered tables and G
    per size and the pair study, each built on first use and kept on the
    run, and the random-automaton check's state count and instance seeds.

    A bad level, or n beyond the enumeration cap (G lists every ordered
    table at n), is refused as the run is made, before anything is built.
    Each check draws from a fresh generator (:meth:`rng`), so a shared
    sample is the one it would have drawn itself.
    """

    def __init__(self, n: int, level: str = "quick", seed: int = 0):
        if level not in ("quick", "full"):
            raise ValueError("level must be quick or full")
        tables.check_enumeration_size(n)
        self.n, self.level, self.seed = n, level, seed
        self.states = min(n, 3)
        rng = self.rng()
        self.seeds = [rng.randrange(2**30) for _ in range(50 if level == "full" else 10)]
        self._built = {}

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def _kept(self, key, build: Callable, *args):
        if key not in self._built:
            self._built[key] = build(*args)
        return self._built[key]

    def values(self, size: int) -> list[tuple[int, ...]]:
        return self._kept(("values", size), tables.prefix_table_values, size)

    def prefix(self, size: int) -> list[tables.PrefixTable]:
        return self._kept(("prefix", size), lambda: [
            tables.PrefixTable(size, values) for values in self.values(size)])

    def m(self, size: int) -> witness.BoolMatrix:
        return self._kept(("M", size), lambda: witness.acceptance_matrix(
            self.prefix(size), tables.enumerate_suffix_tables(size), size))

    def ordered(self, size: int) -> list[tables.PrefixTable]:
        return self._kept(("ordered", size), combinatorics.enumerate_ordered_prefix_tables, size)

    def g(self, size: int) -> witness.BoolMatrix:
        return self._kept(("G", size), witness.staged_matrix, self.ordered(size), size)

    def study(self) -> _PairStudy:
        """The sampled table pairs at n and G's reading of them."""
        if "study" not in self._built:
            bases, firsts, pairs = _draw_pairs(self)
            self._built["study"] = _PairStudy(bases, firsts, pairs,
                                              *_study_of(self.g(self.n), firsts, bases))
        return self._built["study"]


def _quadruples(f: tables.PrefixTable):
    """The quadruples (u1, u2, v1, v2) with v1 in f(u1) - f(u2), v2 in f(u2) - f(u1)."""
    for u1, u2 in itertools.permutations(range(1, f.n + 1), 2):
        a, b = f.value(u1), f.value(u2)
        for v1 in elements(a & ~b):
            for v2 in elements(b & ~a):
                yield u1, u2, v1, v2


def _unordered_witness(f: tables.PrefixTable):
    """A quadruple of f, or None: the second characterization of orderedness."""
    return next(_quadruples(f), None)


def check_orderedness_agreement(run: Run) -> CheckResult:
    name = "orderedness characterizations agree"
    fs = run.prefix(min(run.n, 3))
    if run.n >= 4:
        # the sample is drawn by index, so only its 500 tables are built
        values = run.values(4)
        fs = fs + [tables.PrefixTable(4, values[i])
                   for i in run.rng().sample(range(len(values)), 500)]
    for f in fs:
        if (_unordered_witness(f) is None) != tables.is_ordered(f):
            return CheckResult(name, False, f"they disagree on {f}")
    return CheckResult(name, True, f"{len(fs)} tables")


def check_entry_simulation_agreement(run: Run) -> CheckResult:
    name = "graph entries match two-way simulation"
    size = min(run.n, 3)
    m = run.m(size)
    automaton = witness.WitnessAutomaton(size, m.row_labels, m.col_labels)
    # every row times every column, one lane per word, so that a simulated
    # row reads like M's: a pair's word is two letters of its row and one
    # of its column
    row_words = [automaton.word(f, m.col_labels[0])[:2] for f in m.row_labels]
    col_words = [automaton.word(m.row_labels[0], g)[2:] for g in m.col_labels]
    simulated = automata.concatenation_bits(automaton.nfa, row_words, col_words)
    for i, (row, sim) in enumerate(zip(m.bits, simulated)):
        if diff := row ^ sim:  # the first failing cell, in grid order
            j = (diff & -diff).bit_length() - 1
            return CheckResult(name, False, f"entry {m.entry(i, j)}, simulation {sim >> j & 1} "
                               f"on {m.row_labels[i]}, {m.col_labels[j]}")
    # above size 2 the count is that of a sample this check no longer
    # draws; the bench digests and the CLI pins fix the wording, so it
    # changes with the phase-record benchmark change (ROADMAP item 3)
    count = m.rows * m.cols if run.n <= 2 else 10_000 if run.level == "full" else 500
    return CheckResult(name, True, f"{count} pairs")


def check_augmentation_identity(run: Run) -> CheckResult:
    size = min(run.n, 4) if run.level == "full" else min(run.n, 3)
    m = run.m(size)
    row = {f.values: bits for f, bits in zip(m.row_labels, m.bits)}
    checked = 0
    for f, a in zip(m.row_labels, m.bits):
        for quadruple in _quadruples(f):
            fe, fep, fee = tables.augment(f, *quadruple)
            b, c, d = row[fe.values], row[fep.values], row[fee.values]
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


def check_layer_rank(run: Run) -> CheckResult:
    name = "layer rank equals complement-matrix rank"
    fs = run.ordered(min(run.n, 4))
    if run.level == "quick" and len(fs) > 40:
        fs = run.rng().sample(fs, 40)
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
    pairs studied, which run in the order of t, then j.  masks, accepts and
    columns are :func:`_study_of`'s.
    """

    bases: list
    firsts: list
    pairs: list
    masks: list
    accepts: list
    columns: list


def _draw_pairs(run: Run) -> tuple:
    """The bases, firsts and pairs of the run's :class:`_PairStudy`: every
    pair of ordered tables, or the drawn pairs, the first of draw j in bit j."""
    ordered = run.ordered(run.n)
    if run.level == "full" and run.n <= 3:
        return ordered, ordered, [(1 << len(ordered)) - 1] * len(ordered)
    rng = run.rng()
    picks = [ordered[rng.randrange(len(ordered))]
             for _ in range(120 if run.level == "quick" else 2000)]
    bases = picks[1::2]
    return bases, picks[0::2], [1 << j for j in range(len(bases))]


def _study_of(g: witness.BoolMatrix, firsts: list, bases: list) -> tuple:
    """(masks, accepts, columns) of the first tables, each a row of G,
    against the base tables, in one pass per base table f0 = bases[j].

    masks[j][i] is the pair (drop, brk) of ints over the first tables for
    layer i < k of f0: with reach_i the union of f(u) over the states u on
    f0's prefix layers up to i, f drops down from layer i when reach_i
    stays inside S_{i-1} (empty for i = 0) and breaks through it when
    reach_i leaves S_i.  For stage set b (bit l stages layer l),
    accepts[j][b] is the accept set of the column of G equal to
    :func:`witness.staged_tables` of f0 at b, and columns[j][b] the
    int of the first tables with a 1 there; None and 0 where no column of
    G equals it.  arcs[u-1][v] is the int of the first tables with v in
    f(u), and down[c] that of those with a 1 in column c, each from one
    :func:`transpose` per call.
    """
    n = g.row_labels[0].n
    every = (1 << len(firsts)) - 1
    row_of = {f: i for i, f in enumerate(g.row_labels)}
    col_of = {h: c for c, h in enumerate(g.col_labels)}
    arcs = [transpose([f.values[u] for f in firsts], n + 1) for u in range(n)]
    down = transpose([g.bits[row_of[f]] for f in firsts], g.cols)
    masks, accepts, columns = [], [], []
    for f0 in bases:
        ls = tables.layer_structure(f0)
        k = ls.rank_k
        # reach[v] is the int of the first tables whose reach_i holds v
        reach, below, layers = [0] * (n + 1), 0, []
        for i, s_i in enumerate(ls.nested_sets[:k]):
            for arc, layer in zip(arcs, ls.prefix_layer):
                if layer == i:
                    reach = list(map(operator.or_, reach, arc))
            # the tables whose reach_i leaves S_{i-1}, which do not drop
            # down, and those whose reach_i leaves S_i, which break through
            left_below = left_s_i = 0
            for v, r in enumerate(reach):
                if not below >> v & 1:
                    left_below |= r
                    if not s_i >> v & 1:
                        left_s_i |= r
            layers.append((every & ~left_below, left_s_i))
            below = s_i
        masks.append(layers)
        cols = [col_of.get(h) for h in witness.staged_tables(f0)]
        accepts.append([None if c is None else g.col_labels[c].accept_flags for c in cols])
        columns.append([0 if c is None else down[c] for c in cols])
    return masks, accepts, columns


def _union(ints) -> int:
    return functools.reduce(operator.or_, ints, 0)


def _first_failing(study: _PairStudy, failing: list[int]) -> tuple:
    """The first studied pair, in the study's order, with bit t of
    failing[j] set, as (f, f0, t, j)."""
    t = min((w & -w).bit_length() - 1 for w in failing if w)
    j = next(j for j, w in enumerate(failing) if w >> t & 1)
    return study.firsts[t], study.bases[j], t, j


def check_staged_suffix_tables(run: Run) -> CheckResult:
    name = "staged suffix tables: acceptance sets"
    study = run.study()
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


def check_drop_down_rows(run: Run) -> CheckResult:
    name = "drop-down rows vanish"
    study = run.study()
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


def check_breakthrough_completion(run: Run) -> CheckResult:
    name = "breakthrough completion determines entries"
    study = run.study()
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


def check_forced_breakthrough(run: Run) -> CheckResult:
    name = "at-least-as-large tables always break through"
    study = run.study()
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


def check_matrix_rank_is_count(run: Run) -> CheckResult:
    name = "matrix rank equals the ordered-table count"
    expected = combinatorics.count_ordered_prefix_tables(run.n)
    g = run.g(run.n)
    try:
        # exact, and at most K's rank, which is at most G's row count
        got_k = exact_linalg.rank_exact(g)
    except CapacityError:
        # refused only when G's distinct rows are dependent mod 2 beyond the
        # entry cap: their GF(2) rank is then a lower bound, and no proof
        return CheckResult(name, False, f"rank at least {exact_linalg.rank_mod_p(g, 2)} "
                           f"(mod 2), count {expected}")
    if run.n <= 2:
        got_m = exact_linalg.rank_exact(run.m(run.n))
    elif run.n == 3 or run.level == "full":
        # size 4 is heavy: there M is ranked through the cheap packed-bit field only
        got_m = exact_linalg.rank_mod_p(run.m(run.n), MERSENNE_PRIME if run.n == 3 else 2)
    else:
        got_m = got_k
    return CheckResult(name, got_m == got_k == expected, f"rank {got_k}, count {expected}")


def check_random_automata_bound(run: Run) -> CheckResult:
    name = "random-automaton ranks stay within the bound"
    for record in crossing.random_records(run.states, 2, run.seeds):
        if not record["ok"]:
            return CheckResult(name, False, f"instance seed {record['seed']}")
    return CheckResult(name, True, f"{len(run.seeds)} instances with {run.states} states")


def _count_by_second_index_form(n: int) -> int:
    """sum_{k=1}^{n} (k-1)! k! S(n, k) S(n+1, k), the index form of the
    count that :func:`combinatorics.count_ordered_prefix_tables` does not use."""
    s2 = combinatorics.stirling2
    return sum(factorial(k - 1) * factorial(k) * s2(n, k) * s2(n + 1, k)
               for k in range(1, n + 1))


def check_count_matches_enumeration(run: Run) -> CheckResult:
    name = "ordered-table enumerations agree"
    size = min(run.n, 4) if run.level == "full" else min(run.n, 3)
    count = combinatorics.count_ordered_prefix_tables(size)
    second = _count_by_second_index_form(size)
    if count != second:
        return CheckResult(name, False, f"index forms of the count disagree at "
                           f"size {size}: {count} != {second}")
    by_filter = [f for f in run.prefix(size) if tables.is_ordered(f)]
    by_layers = run.ordered(size)
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
    # the layer enumeration's tables are born with their layer structure,
    # which the other checks read: compare it with the one computed afresh
    # for the filter enumeration's copy of each table
    computed = {f.values: tables.layer_structure(f) for f in by_filter}
    for f in by_layers:
        if tables.layer_structure(f) != computed[f.values]:
            return CheckResult(name, False, f"the layer enumeration's structure of {f} "
                               f"differs from the computed one")
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


# the checks that build what no other check reads (every prefix table of
# size 3, the sample of size 4, the filter enumeration, the random automata):
# from three states on a run's worker runs them, its own tables built anew,
# while the checks that share M, G and the pair study run here
_BESIDE: list[Callable] = [
    check_orderedness_agreement,
    check_count_matches_enumeration,
    check_random_automata_bound,
]


def run_checks(n: int, level: str = "quick", seed: int = 0) -> list[CheckResult]:
    """Every check of :data:`_CHECKS` on one run, in that order.  From
    three states on, those of :data:`_BESIDE` run in a worker forked before
    anything is built, on its copy of the run, and reaped however the
    ``with`` block ends; below three states every check runs here."""
    # imported here, so that only the commands that fork workers load it
    from . import workers

    run = Run(n, level, seed)
    # below three states a fork costs more than the other checks take
    away = [i for i, check in enumerate(_CHECKS) if check in _BESIDE and run.states == 3]

    def check_away(positions: list[int]):
        # a failed check is a result too: every line is "ok", its verdict in
        # "passed", so that the worker goes on to the next check
        for i in positions:
            r = _CHECKS[i](run)
            yield {"ok": True, "name": r.name, "passed": r.ok, "detail": r.detail}

    with workers.beside(check_away, away) as results_away:
        results = [None if i in away else check(run) for i, check in enumerate(_CHECKS)]
        for i, r in zip(away, results_away()):
            results[i] = CheckResult(r["name"], r["passed"], r["detail"])
    return results
