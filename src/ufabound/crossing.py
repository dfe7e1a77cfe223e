"""Extracting crossing tables from an arbitrary two-way automaton.

Any two-way automaton, on any split of its input into a prefix and a
suffix, induces the same kind of tables the witness construction uses:
for a prefix, the states in which the head can first leave it rightwards
(from the initial configuration, and from each re-entry state); for a
suffix, the states from which the head can leave it leftwards, plus the
states from which it can go on to accept.  The resulting concatenation
matrix over chosen prefix and suffix sets can then be compared, entry by
entry and in rank, against the universal acceptance matrix.

Tables are read straight off lane-parallel searches
(:func:`ufabound.automata._search`), one lane per string and starting
configuration, whose per-state ints :func:`ufabound.statesets.transpose`
turns into one state mask per lane.  The concatenation matrix simulates
every concatenated word as a lane of its own, so its entries never come
from the tables they are compared against.  An instance lays out its
concatenated words, prefixes and suffixes as three grids, and one search
decides a block of instances, each with its own automaton.  One universal
matrix over the block's distinct tables follows, and each instance reads
its own rows and columns out of it; :func:`verify_optimality` is the
one-instance case, and
:func:`schmidt_matrix`, :func:`prefix_tables_of` and
:func:`suffix_tables_of` are one-grid cases.  Every string is checked
against its automaton's alphabet first.

Tables here use 1-based state indices (state q_i of the automaton is
index i = internal id + 1), matching :mod:`ufabound.tables`.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from itertools import compress, repeat, starmap
from typing import Iterator, Optional, Sequence

from . import exact_linalg
from .automata import (LEFT_MARKER, RIGHT_MARKER, TwoWayNfa, _check_words,
                       _concatenation_grid, _search, concatenation_bits)
from .combinatorics import count_ordered_prefix_tables
from .errors import random_block
from .statesets import full_mask, transpose
from .tables import PrefixTable, SuffixTable
from .witness import BoolMatrix, acceptance_matrix


def _prefix_grid(a: TwoWayNfa, xs: Sequence[Sequence[int]]) -> tuple:
    """:func:`prefix_tables_of` as a grid of :func:`ufabound.automata._search`.

    Lane (i, k) runs on ``⊢ xs[i]``: k = 0 from the initial
    configuration, k = q + 1 re-entering the last position in state q.
    The lanes that leave rightwards land on the split, where they are read.
    """
    n = a.state_count
    cols = n + 1
    rep = sum(1 << i * cols for i in range(len(xs)))
    seeds = [(-1 - len(x), q, 1 << i * cols) for i, x in enumerate(xs) for q in a.initial]
    seeds += [(-1, q, rep << q + 1) for q in range(n)]

    def read(right, left, accepted):
        exits = transpose([0, *right], len(xs) * cols)
        rows = [tuple(exits[i:i + cols]) for i in range(0, len(exits), cols)]
        found = {row: PrefixTable(n, tuple(row[0] | t for t in row[1:])) if row[0] else None
                 for row in dict.fromkeys(rows)}
        return [found[row] for row in rows]

    return [(LEFT_MARKER, *x) for x in xs], [()] * cols, seeds, read


def _suffix_grid(a: TwoWayNfa, ys: Sequence[Sequence[int]]) -> tuple:
    """:func:`suffix_tables_of` as a grid of :func:`ufabound.automata._search`.

    Lane (q, j) runs on ``ys[j] ⊣`` from state q at its first position.
    The lanes that leave leftwards land just before the split, where they
    are read, and so is acceptance.
    """
    n = a.state_count
    cols = len(ys)
    row = (1 << cols) - 1
    full = full_mask(n)

    def table(col):
        # col[q - 1]: the exits of the lane started in state q, bit 0 if it accepts
        a_y = sum((m & 1) << q for q, m in enumerate(col, start=1))
        return SuffixTable(n, tuple(full if m & 1 else m for m in col), a_y) if a_y else None

    def read(right, left, accepted):
        exits = transpose([accepted, *left], n * cols)
        columns = [tuple(exits[j::cols]) for j in range(cols)]
        found = {col: table(col) for col in dict.fromkeys(columns)}
        return [found[col] for col in columns]

    return ([()] * n, [(*y, RIGHT_MARKER) for y in ys],
            [(0, q, row << q * cols) for q in range(n)], read)


def prefix_tables_of(a: TwoWayNfa, xs: Sequence[Sequence[int]]
                     ) -> list[Optional[PrefixTable]]:
    """The prefix table induced by each string x of ``xs``, in one search.

    With s_x the 1-based mask of the states in which the head can first
    leave ``⊢ x`` rightwards from the initial configuration, f(q) is s_x
    together with the states in which it can leave rightwards after
    re-entering the last position of ``⊢ x`` in state q; for the empty
    prefix that position is the left marker itself.  The table is None
    when s_x is empty: nothing leaves the prefix, and the matrix row is
    all zero anyway.
    """
    _check_words(a, xs)
    [found] = _search([(a, [_prefix_grid(a, xs)])])
    return found


def suffix_tables_of(a: TwoWayNfa, ys: Sequence[Sequence[int]]
                     ) -> list[Optional[SuffixTable]]:
    """The suffix table induced by each string y of ``ys``, in one search.

    Its accepting states are those from which the automaton, started at
    the first position of ``y ⊣``, can accept without leaving it; for the
    empty suffix these are just the accepting states.  g(q) is the full
    set for an accepting q, and otherwise the states in which the head can
    leave ``y ⊣`` leftwards after starting in state q at its first
    position.  The table is None when no state accepts: the matrix column
    is then all zero anyway.
    """
    _check_words(a, ys)
    [found] = _search([(a, [_suffix_grid(a, ys)])])
    return found


def schmidt_matrix(a: TwoWayNfa, xs: Sequence[Sequence[int]],
                   ys: Sequence[Sequence[int]]) -> BoolMatrix:
    """The 0/1 concatenation matrix: entry (x, y) is acceptance of x·y,
    every concatenated word simulated as one lane of a single search."""
    xs = tuple(tuple(x) for x in xs)
    ys = tuple(tuple(y) for y in ys)
    return BoolMatrix(xs, ys, len(ys), tuple(concatenation_bits(a, xs, ys)))


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of one rank-versus-bound experiment.

    ``universal`` is the acceptance matrix over the distinct induced
    tables, which label its rows and columns.
    """

    n: int
    rank: int
    bound: int
    rows: int
    cols: int
    reduced_rows: int
    reduced_cols: int
    seed: Optional[int]
    ok: bool
    matrix: BoolMatrix
    universal: BoolMatrix

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "bound": self.bound,
            "rows": self.rows,
            "cols": self.cols,
            "reduced_rows": self.reduced_rows,
            "reduced_cols": self.reduced_cols,
            "seed": self.seed,
            "ok": self.ok,
        }


def verify_optimality(a: TwoWayNfa, xs: Sequence[Sequence[int]],
                      ys: Sequence[Sequence[int]],
                      seed: Optional[int] = None) -> OptimalityReport:
    """Check that the concatenation matrix is a function of the induced
    crossing tables and never out-ranks the closed-form bound.

    The matrix and the crossing tables of ``xs`` and ``ys`` come from one
    search, with one grid of lanes each.  The universal acceptance matrix
    is built over the distinct tables, in first-occurrence order.  Each of
    its columns is spread over the matrix's own columns with that suffix
    table, and every row of the matrix must equal the spread row of its
    prefix table, or zero where the string induces no table.  That one
    comparison makes rows and columns without a table zero and every other
    entry agree, so the matrix is the universal one with rows and columns
    repeated and zero rows and columns added.  Its rank must then equal
    the universal matrix's and stay within the bound.
    """
    [report] = _reports([(a, xs, ys, seed)])
    return report


def _report(a: TwoWayNfa, xs: tuple, ys: tuple, found: Sequence,
            seed: Optional[int], shared: tuple) -> OptimalityReport:
    """One instance's check, from the (matrix rows, prefix tables, suffix
    tables) that its three grids found and its block's universal matrix,
    ``shared`` = (the row of each prefix table, the column of each suffix
    table)."""
    n = a.state_count
    bits, fx, gy = found
    matrix = BoolMatrix(xs, ys, len(ys), tuple(bits))

    # the matrix's columns per distinct suffix table, in first-occurrence order
    where: dict = {}
    for j, g in enumerate(gy):
        if g is not None:
            where[g] = where.get(g, 0) | 1 << j
    row_tables = list(dict.fromkeys(f for f in fx if f is not None))
    # its universal matrix is its own rows and columns of the shared one;
    # each row is also spread over the matrix's columns
    block_rows, block_cols = shared
    picks = [(1 << b, block_cols[g], cols) for b, (g, cols) in enumerate(where.items())]
    universal_bits = []
    spread = {None: 0}
    for f in row_tables:
        u = block_rows[f]
        row = spread_row = 0
        for bit, c, cols in picks:
            if u >> c & 1:
                row |= bit
                spread_row |= cols
        universal_bits.append(row)
        spread[f] = spread_row
    universal = BoolMatrix(tuple(row_tables), tuple(where), len(where), tuple(universal_bits))
    entries_ok = all(b == spread[f] for f, b in zip(fx, bits))

    rank = exact_linalg.rank_exact(matrix)
    bound = count_ordered_prefix_tables(n)
    ok = entries_ok and rank == exact_linalg.rank_exact(universal) <= bound

    return OptimalityReport(
        n=n, rank=rank, bound=bound,
        rows=matrix.rows, cols=matrix.cols,
        reduced_rows=universal.rows, reduced_cols=universal.cols,
        seed=seed, ok=ok, matrix=matrix, universal=universal)


def _reports(instances: Sequence[tuple]) -> Iterator[OptimalityReport]:
    """The report of each instance (automaton, xs, ys, seed), in order:
    one search and one universal matrix for all, over every distinct table
    in first-occurrence order, then each compared and ranked as it is
    asked for."""
    instances = [(a, tuple(map(tuple, xs)), tuple(map(tuple, ys)), seed)
                 for a, xs, ys, seed in instances]
    for a, xs, ys, _ in instances:
        _check_words(a, xs + ys)
    results = iter(_search([(a, [_concatenation_grid(a, xs, ys), _prefix_grid(a, xs),
                                 _suffix_grid(a, ys)]) for a, xs, ys, _ in instances]))
    grids = list(zip(results, results, results))
    universal = acceptance_matrix(
        list(dict.fromkeys(f for _, fx, _ in grids for f in fx if f is not None)),
        list(dict.fromkeys(g for _, _, gy in grids for g in gy if g is not None)),
        instances[0][0].state_count)
    shared = (dict(zip(universal.row_labels, universal.bits)),
              {g: c for c, g in enumerate(universal.col_labels)})
    for (a, xs, ys, seed), found in zip(instances, grids):
        yield _report(a, xs, ys, found, seed, shared)


# ---------------------------------------------------------------------------
# randomized experiment material

def random_two_way_nfa(state_count: int, alphabet_size: int,
                       rng: random.Random) -> TwoWayNfa:
    """Every possible move is present independently with probability 1/2,
    minus the moves the structural rules forbid.

    One ``rng.random()`` is drawn for each initial state, each accepting
    state, and then each move (q, symbol, t, d) in that order, a forbidden
    move included; a state or move is kept when its draw is below 1/2."""
    # drawn as compress reads them, one per item
    keep = map(operator.lt, starmap(rng.random, repeat(())), repeat(0.5))
    states = range(state_count)
    initial = frozenset(compress(states, keep))
    accepting = frozenset(compress(states, keep))
    moves = [(t, d) for t in states for d in (-1, +1)]
    rightward = frozenset(moves[1::2])
    symbols = (*range(alphabet_size), LEFT_MARKER, RIGHT_MARKER)
    trans: dict = {}
    for q in states:
        for c in symbols:
            trans[(q, c)] = frozenset(compress(moves, keep))
        # nothing moves off the left marker, and accepting states halt on
        # the right marker
        trans[(q, LEFT_MARKER)] &= rightward
        if q in accepting:
            del trans[(q, RIGHT_MARKER)]
    return TwoWayNfa(state_count, alphabet_size, initial, trans, accepting)


def random_strings(alphabet_size: int, count: int, max_len: int,
                   rng: random.Random) -> list[tuple[int, ...]]:
    """``count`` strings, each of ``rng.randint(0, max_len)`` letters drawn
    by ``rng.randrange(alphabet_size)``, with the calls those make inlined:
    ``getrandbits(k)``, k the bit length of the range's size, drawn again
    while out of range, as :class:`random.Random` does."""
    if alphabet_size < 1 or max_len < 0:
        raise ValueError("random strings need a letter and a length of 0 or more")
    bits = rng.getrandbits
    k_len, k_letter = (max_len + 1).bit_length(), alphabet_size.bit_length()
    out = []
    for _ in range(count):
        length = bits(k_len)
        while length > max_len:
            length = bits(k_len)
        word = []
        while len(word) < length:
            c = bits(k_letter)
            if c < alphabet_size:
                word.append(c)
        out.append(tuple(word))
    return out


CAMPAIGN_MAX_STRINGS = 20
CAMPAIGN_MAX_LEN = 6


def random_campaign(state_count: int, alphabet_size: int,
                    seeds: Sequence[int]) -> Iterator[OptimalityReport]:
    """Each seeded random instance (automaton, string sets, full check), in
    seed order, one search per block of :func:`ufabound.errors.random_block`."""
    def instance(seed: int) -> tuple:
        rng = random.Random(seed)
        a = random_two_way_nfa(state_count, alphabet_size, rng)
        xs = random_strings(alphabet_size, rng.randint(1, CAMPAIGN_MAX_STRINGS),
                            CAMPAIGN_MAX_LEN, rng)
        ys = random_strings(alphabet_size, rng.randint(1, CAMPAIGN_MAX_STRINGS),
                            CAMPAIGN_MAX_LEN, rng)
        return a, xs, ys, seed

    size = random_block(state_count, alphabet_size)
    for k in range(0, len(seeds), size):
        yield from _reports([instance(seed) for seed in seeds[k:k + size]])

