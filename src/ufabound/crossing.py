"""Extracting crossing tables from an arbitrary two-way automaton.

Any two-way automaton, on any split of its input into a prefix and a
suffix, induces the same kind of tables the witness construction uses:
for a prefix, the states in which the head can first leave it rightwards
(from the initial configuration, and from each re-entry state); for a
suffix, the states from which the head can leave it leftwards, plus the
states from which it can go on to accept.  The resulting concatenation
matrix over chosen prefix and suffix sets can then be compared, entry by
entry and in rank, against the universal acceptance matrix.

Profiles are read from lane-parallel searches
(:func:`ufabound.automata._search`), one lane per string and starting
configuration.  The concatenation matrix simulates every concatenated
word as a lane of its own, so its entries never come from the tables
they are compared against.  :func:`verify_optimality` lays out the
concatenated words, the prefixes and the suffixes as three grids of one
search; :func:`schmidt_matrix`, :func:`prefix_profiles` and
:func:`suffix_profiles` are its one-grid cases.

Profiles and tables here use 1-based state indices (state q_i of the
automaton is index i = internal id + 1), matching :mod:`ufabound.tables`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import exact_linalg
from .automata import (LEFT_MARKER, RIGHT_MARKER, TwoWayNfa, _concatenation_grid,
                       _search, concatenation_bits)
from .combinatorics import count_ordered_prefix_tables
from .statesets import full_mask
from .tables import PrefixTable, SuffixTable
from .witness import BoolMatrix, acceptance_matrix


def _lane_mask(states: Sequence[int], lane: int) -> int:
    # the 1-based mask of the states whose int of lanes holds ``lane``
    mask = 0
    for t, lanes in enumerate(states, start=1):
        mask |= (lanes >> lane & 1) << t
    return mask


def _prefix_grid(a: TwoWayNfa, xs: Sequence[Sequence[int]]) -> tuple:
    """:func:`prefix_profiles` as a grid of :func:`ufabound.automata._search`.

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
        return [(_lane_mask(right, i * cols),
                 tuple(_lane_mask(right, i * cols + k) for k in range(1, cols)))
                for i in range(len(xs))]

    return [(LEFT_MARKER, *x) for x in xs], [()] * cols, seeds, read


def _suffix_grid(a: TwoWayNfa, ys: Sequence[Sequence[int]]) -> tuple:
    """:func:`suffix_profiles` as a grid of :func:`ufabound.automata._search`.

    Lane (q, j) runs on ``ys[j] ⊣`` from state q at its first position.
    The lanes that leave leftwards land just before the split, where they
    are read, and so is acceptance.
    """
    n = a.state_count
    cols = len(ys)
    row = (1 << cols) - 1

    def read(right, left, accepted):
        accepted = [accepted >> q * cols for q in range(n)]
        return [(_lane_mask(accepted, j),
                 tuple(_lane_mask(left, q * cols + j) for q in range(n)))
                for j in range(cols)]

    return ([()] * n, [(*y, RIGHT_MARKER) for y in ys],
            [(0, q, row << q * cols) for q in range(n)], read)


def prefix_profiles(a: TwoWayNfa, xs: Sequence[Sequence[int]]
                    ) -> list[tuple[int, tuple[int, ...]]]:
    """:func:`prefix_profile` of every string of ``xs``, in one search."""
    return _search(a, [_prefix_grid(a, xs)])[0]


def suffix_profiles(a: TwoWayNfa, ys: Sequence[Sequence[int]]
                    ) -> list[tuple[int, tuple[int, ...]]]:
    """:func:`suffix_profile` of every string of ``ys``, in one search."""
    return _search(a, [_suffix_grid(a, ys)])[0]


def prefix_profile(a: TwoWayNfa, x: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Exit-right behaviour on the left-marked prefix.

    Returns the mask of states reachable off the right end from the
    initial configuration, and per state i the mask reachable off the
    right end after re-entering the last fragment position in state i.
    For an empty prefix that position is the left marker itself.
    """
    return prefix_profiles(a, [x])[0]


def suffix_profile(a: TwoWayNfa, y: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Acceptance and exit-left behaviour on the right-marked suffix.

    Returns the mask of states from which the automaton can accept without
    leaving the fragment, and per state i the mask of states in which the
    head can leave the fragment to the left after starting in state i at
    its first position.
    """
    return suffix_profiles(a, [y])[0]


def _prefix_tables(n: int, profiles) -> list[Optional[PrefixTable]]:
    return [PrefixTable(n, tuple(s_x | t_q for t_q in t)) if s_x else None
            for s_x, t in profiles]


def _suffix_tables(n: int, profiles) -> list[Optional[SuffixTable]]:
    return [SuffixTable(n, tuple(full_mask(n) if a_y >> q & 1 else t_q
                                 for q, t_q in enumerate(t_prime, start=1)), a_y)
            if a_y else None for a_y, t_prime in profiles]


def prefix_tables_of(a: TwoWayNfa, xs: Sequence[Sequence[int]]
                     ) -> list[Optional[PrefixTable]]:
    """The prefix table induced by each string of ``xs``, or None when
    nothing can leave the prefix (the matrix row is then all zero anyway)."""
    return _prefix_tables(a.state_count, prefix_profiles(a, xs))


def suffix_tables_of(a: TwoWayNfa, ys: Sequence[Sequence[int]]
                     ) -> list[Optional[SuffixTable]]:
    """The suffix table induced by each string of ``ys``, or None when
    acceptance is unreachable (the matrix column is then all zero anyway)."""
    return _suffix_tables(a.state_count, suffix_profiles(a, ys))


def prefix_table_of(a: TwoWayNfa, x: Sequence[int]) -> Optional[PrefixTable]:
    """:func:`prefix_tables_of` of one string."""
    return prefix_tables_of(a, [x])[0]


def suffix_table_of(a: TwoWayNfa, y: Sequence[int]) -> Optional[SuffixTable]:
    """:func:`suffix_tables_of` of one string."""
    return suffix_tables_of(a, [y])[0]


def schmidt_matrix(a: TwoWayNfa, xs: Sequence[Sequence[int]],
                   ys: Sequence[Sequence[int]]) -> BoolMatrix:
    """The 0/1 concatenation matrix: entry (x, y) is acceptance of x·y,
    every concatenated word simulated as one lane of a single search."""
    xs = tuple(tuple(x) for x in xs)
    ys = tuple(tuple(y) for y in ys)
    return BoolMatrix(xs, ys, len(ys), tuple(concatenation_bits(a, xs, ys)))


@dataclass(frozen=True)
class OptimalityReport:
    """Outcome of one rank-versus-bound experiment."""

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
    pruned: BoolMatrix
    deduplicated: BoolMatrix

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
    """Check that the concatenation matrix never out-ranks the closed-form
    bound, through the chain of rank-preserving reductions.

    The matrix and the crossing profiles of ``xs`` and ``ys`` come from one
    search, with one grid of lanes each.

    The matrix is pruned of rows and columns with empty crossing profiles
    (those must be all zero), then deduplicated by induced table; the
    deduplicated entries must agree with the universal acceptance matrix,
    and all three ranks must coincide and stay within the bound.
    """
    n = a.state_count
    xs = tuple(tuple(x) for x in xs)
    ys = tuple(tuple(y) for y in ys)
    bits, prefixes, suffixes = _search(
        a, [_concatenation_grid(a, xs, ys), _prefix_grid(a, xs), _suffix_grid(a, ys)])
    matrix = BoolMatrix(xs, ys, len(ys), tuple(bits))
    fx = _prefix_tables(n, prefixes)
    gy = _suffix_tables(n, suffixes)

    keep_rows = [i for i, f in enumerate(fx) if f is not None]
    keep_cols = [j for j, g in enumerate(gy) if g is not None]
    # pruned rows and columns must be all zero
    kept = sum(1 << j for j in keep_cols)
    ok = all(not b or (f is not None and not b & ~kept) for f, b in zip(fx, matrix.bits))

    pruned = matrix.select(keep_rows, keep_cols)

    # entries are a function of the induced tables alone
    universal = acceptance_matrix([fx[i] for i in keep_rows],
                                  [gy[j] for j in keep_cols], n)
    if universal.bits != pruned.bits:
        ok = False

    # one representative, the first, per induced table
    rep_rows = sorted({fx[i]: i for i in reversed(keep_rows)}.values())
    rep_cols = sorted({gy[j]: j for j in reversed(keep_cols)}.values())
    dedup = matrix.select(rep_rows, rep_cols)

    rank = exact_linalg.rank_exact(matrix)
    rank_pruned = exact_linalg.rank_exact(pruned)
    rank_dedup = exact_linalg.rank_exact(dedup)
    bound = count_ordered_prefix_tables(n)
    ok = ok and rank == rank_pruned == rank_dedup and rank <= bound

    return OptimalityReport(
        n=n, rank=rank, bound=bound,
        rows=matrix.rows, cols=matrix.cols,
        reduced_rows=dedup.rows, reduced_cols=dedup.cols,
        seed=seed, ok=ok,
        matrix=matrix, pruned=pruned, deduplicated=dedup)


# ---------------------------------------------------------------------------
# randomized experiment material

def random_two_way_nfa(state_count: int, alphabet_size: int,
                       rng: random.Random) -> TwoWayNfa:
    """Every possible move is present independently with probability 1/2,
    minus the moves the structural rules forbid."""
    symbols = list(range(alphabet_size)) + [LEFT_MARKER, RIGHT_MARKER]
    initial = frozenset(q for q in range(state_count) if rng.random() < 0.5)
    accepting = frozenset(q for q in range(state_count) if rng.random() < 0.5)
    trans: dict = {}
    for q in range(state_count):
        for c in symbols:
            for t in range(state_count):
                for d in (-1, +1):
                    if rng.random() >= 0.5:
                        continue
                    if c == LEFT_MARKER and d == -1:
                        continue
                    if c == RIGHT_MARKER and q in accepting:
                        continue
                    trans.setdefault((q, c), set()).add((t, d))
    return TwoWayNfa(state_count, alphabet_size, initial, trans, accepting)


def random_strings(alphabet_size: int, count: int, max_len: int,
                   rng: random.Random) -> list[tuple[int, ...]]:
    out = []
    for _ in range(count):
        length = rng.randint(0, max_len)
        out.append(tuple(rng.randrange(alphabet_size) for _ in range(length)))
    return out


CAMPAIGN_MAX_STRINGS = 20
CAMPAIGN_MAX_LEN = 6


def random_campaign_report(state_count: int, alphabet_size: int,
                           seed: int) -> OptimalityReport:
    """One seeded random instance: automaton, string sets, full check."""
    rng = random.Random(seed)
    a = random_two_way_nfa(state_count, alphabet_size, rng)
    xs = random_strings(alphabet_size, rng.randint(1, CAMPAIGN_MAX_STRINGS),
                        CAMPAIGN_MAX_LEN, rng)
    ys = random_strings(alphabet_size, rng.randint(1, CAMPAIGN_MAX_STRINGS),
                        CAMPAIGN_MAX_LEN, rng)
    return verify_optimality(a, xs, ys, seed=seed)
