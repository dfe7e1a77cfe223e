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
configuration, as keys of values.  The concatenation matrix simulates
every concatenated word as a lane of its own, so its entries never come
from the tables they are compared against.  An instance (automaton, xs,
ys) is one group of the search, whose grid holds its concatenated words,
prefixes and suffixes, and one search decides a block of instances.
One table is built per distinct key, and one universal matrix over them
follows, out of which each instance reads its own rows and columns.
:func:`verify_optimality` is the one-instance case, and
:func:`prefix_tables_of` and :func:`suffix_tables_of` are the one-sided
cases.  Every string is checked against its automaton's alphabet first.

Tables here use 1-based state indices (state q_i of the automaton is
index i = internal id + 1), matching :mod:`ufabound.tables`.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat, starmap
from typing import Iterable, Iterator, Optional, Sequence

from . import exact_linalg
from .automata import LEFT_MARKER, RIGHT_MARKER, TwoWayNfa, _search, concatenation_bits
from .combinatorics import count_ordered_prefix_tables
from .errors import random_block
from .tables import PrefixTable, SuffixTable
from .witness import BoolMatrix, acceptance_matrix


def _tables(keys: Iterable, build) -> dict:
    """One table per distinct key but None, in first-occurrence order, each
    from ``build``: a validating constructor."""
    return {key: build(key) for key in dict.fromkeys(keys) if key is not None}


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
    [(_, keys, _)] = _search([(a, xs, ())])
    return list(map(_tables(keys, partial(PrefixTable, a.state_count)).get, keys))


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
    [(_, _, keys)] = _search([(a, (), ys)])
    return list(map(_tables(keys, lambda g: SuffixTable(a.state_count, *g)).get, keys))


def schmidt_matrix(a: TwoWayNfa, xs: Sequence[Sequence[int]],
                   ys: Sequence[Sequence[int]]) -> BoolMatrix:
    """The 0/1 concatenation matrix: entry (x, y) is acceptance of x·y,
    every concatenated word simulated as one lane of a single search."""
    xs = tuple(map(tuple, xs))
    ys = tuple(map(tuple, ys))
    return BoolMatrix(xs, ys, len(ys), tuple(concatenation_bits(a, xs, ys)))


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of one rank-versus-bound experiment.

    ``universal`` is the acceptance matrix over the distinct induced
    tables, which label its rows and columns; the sizes are read off the
    two matrices.
    """

    n: int
    rank: int
    bound: int
    seed: Optional[int]
    ok: bool
    matrix: BoolMatrix
    universal: BoolMatrix

    rows = property(lambda self: self.matrix.rows)
    cols = property(lambda self: self.matrix.cols)
    reduced_rows = property(lambda self: self.universal.rows)
    reduced_cols = property(lambda self: self.universal.cols)

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
    search over one grid of lanes.  The universal acceptance matrix
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
    """One instance's check, from its (matrix rows, prefix tables, suffix
    tables), read off its grid, and its block's universal matrix,
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

    return OptimalityReport(n=n, rank=rank, bound=bound, seed=seed, ok=ok,
                            matrix=matrix, universal=universal)


def _reports(instances: Sequence[tuple]) -> Iterator[OptimalityReport]:
    """The report of each instance (automaton, xs, ys, seed), in order:
    one search and one universal matrix for all, over every distinct table
    in first-occurrence order, then each compared and ranked as it is
    asked for."""
    instances = [(a, tuple(map(tuple, xs)), tuple(map(tuple, ys)), seed)
                 for a, xs, ys, seed in instances]
    found = _search([(a, xs, ys) for a, xs, ys, _ in instances])
    n = instances[0][0].state_count
    rows = _tables((f for _, fx, _ in found for f in fx), partial(PrefixTable, n))
    cols = _tables((g for _, _, gy in found for g in gy), lambda g: SuffixTable(n, *g))
    universal = acceptance_matrix(list(rows.values()), list(cols.values()), n)
    shared = (dict(zip(universal.row_labels, universal.bits)),
              dict(zip(universal.col_labels, range(universal.cols))))
    for (a, xs, ys, seed), (bits, fx, gy) in zip(instances, found):
        yield _report(a, xs, ys, (bits, list(map(rows.get, fx)), list(map(cols.get, gy))),
                      seed, shared)


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


def random_records(state_count: int, alphabet_size: int,
                   seeds: Sequence[int]) -> Iterator[dict]:
    """The JSON record of each :func:`random_campaign` report, in seed order."""
    return (report.to_json() for report in random_campaign(state_count, alphabet_size, seeds))
