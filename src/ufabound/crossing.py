"""Extracting crossing tables from an arbitrary two-way automaton.

Any two-way automaton, on any split of its input into a prefix and a
suffix, induces the same kind of tables the witness construction uses:
for a prefix, the states in which the head can first leave it rightwards
(from the initial configuration, and from each re-entry state); for a
suffix, the states from which the head can leave it leftwards, plus the
states from which it can go on to accept.  The resulting concatenation
matrix over chosen prefix and suffix sets can then be compared, entry by
entry and in rank, against the universal acceptance matrix.

Profiles and tables here use 1-based state indices (state q_i of the
automaton is index i = internal id + 1), matching :mod:`ufabound.tables`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import exact_linalg
from .automata import LEFT_MARKER, RIGHT_MARKER, TwoWayNfa, _reach, twonfa_accepts
from .combinatorics import count_ordered_prefix_tables
from .statesets import full_mask
from .tables import PrefixTable, SuffixTable
from .witness import BoolMatrix, acceptance_matrix


def prefix_profile(a: TwoWayNfa, x: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Exit-right behaviour on the left-marked prefix.

    Returns the mask of states reachable off the right end from the
    initial configuration, and per state i the mask reachable off the
    right end after re-entering the last fragment position in state i.
    For an empty prefix that position is the left marker itself.
    """
    tape = [LEFT_MARKER] + list(x)
    last = len(tape) - 1
    _, s_x, _ = _reach(a, tape, [(q, 0) for q in a.initial])
    t = tuple(_reach(a, tape, [(q, last)])[1] for q in range(a.state_count))
    return s_x, t


def suffix_profile(a: TwoWayNfa, y: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Acceptance and exit-left behaviour on the right-marked suffix.

    Returns the mask of states from which the automaton can accept without
    leaving the fragment, and per state i the mask of states in which the
    head can leave the fragment to the left after starting in state i at
    its first position.
    """
    tape = list(y) + [RIGHT_MARKER]
    last = len(tape) - 1
    a_y = 0
    t_prime = []
    for q in range(a.state_count):
        seen, _, exit_left = _reach(a, tape, [(q, 0)])
        if any((p, last) in seen for p in a.accepting):
            a_y |= 1 << (q + 1)
        t_prime.append(exit_left)
    return a_y, tuple(t_prime)


def prefix_table_of(a: TwoWayNfa, x: Sequence[int]) -> Optional[PrefixTable]:
    """The prefix table induced by ``x``, or None when nothing can leave
    the prefix (the matrix row is then all zero anyway)."""
    s_x, t = prefix_profile(a, x)
    if s_x == 0:
        return None
    return PrefixTable(a.state_count, tuple(s_x | t[q] for q in range(a.state_count)))


def suffix_table_of(a: TwoWayNfa, y: Sequence[int]) -> Optional[SuffixTable]:
    """The suffix table induced by ``y``, or None when acceptance is
    unreachable (the matrix column is then all zero anyway)."""
    a_y, t_prime = suffix_profile(a, y)
    if a_y == 0:
        return None
    full = full_mask(a.state_count)
    values = tuple(full if a_y >> (q + 1) & 1 else t_prime[q]
                   for q in range(a.state_count))
    return SuffixTable(a.state_count, values, a_y)


def schmidt_matrix(a: TwoWayNfa, xs: Sequence[Sequence[int]],
                   ys: Sequence[Sequence[int]]) -> BoolMatrix:
    """The 0/1 concatenation matrix: entry (x, y) is acceptance of x·y."""
    xs = [tuple(x) for x in xs]
    ys = [tuple(y) for y in ys]
    bits = []
    for x in xs:
        b = 0
        for j, y in enumerate(ys):
            if twonfa_accepts(a, x + y):
                b |= 1 << j
        bits.append(b)
    return BoolMatrix(tuple(xs), tuple(ys), len(ys), tuple(bits))


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

    The matrix is pruned of rows and columns with empty crossing profiles
    (those must be all zero), then deduplicated by induced table; the
    deduplicated entries must agree with the universal acceptance matrix,
    and all three ranks must coincide and stay within the bound.
    """
    matrix = schmidt_matrix(a, xs, ys)
    fx = [prefix_table_of(a, x) for x in matrix.row_labels]
    gy = [suffix_table_of(a, y) for y in matrix.col_labels]

    keep_rows = [i for i, f in enumerate(fx) if f is not None]
    keep_cols = [j for j, g in enumerate(gy) if g is not None]
    ok = True
    # pruned rows and columns must be all zero
    for i, f in enumerate(fx):
        if f is None and matrix.bits[i]:
            ok = False
    zero_col_mask = 0
    for j, g in enumerate(gy):
        if g is None:
            zero_col_mask |= 1 << j
    if any(b & zero_col_mask for b in matrix.bits):
        ok = False

    pruned = matrix.select(keep_rows, keep_cols)

    # entries are a function of the induced tables alone
    universal = acceptance_matrix([fx[i] for i in keep_rows],
                                  [gy[j] for j in keep_cols], a.state_count)
    if universal.bits != pruned.bits:
        ok = False

    rep_rows, seen_f = [], set()
    for i in keep_rows:
        if fx[i].values not in seen_f:
            seen_f.add(fx[i].values)
            rep_rows.append(i)
    rep_cols, seen_g = [], set()
    for j in keep_cols:
        key = (gy[j].values, gy[j].accept_flags)
        if key not in seen_g:
            seen_g.add(key)
            rep_cols.append(j)
    dedup = matrix.select(rep_rows, rep_cols)

    rank = exact_linalg.rank_exact(matrix)
    rank_pruned = exact_linalg.rank_exact(pruned)
    rank_dedup = exact_linalg.rank_exact(dedup)
    bound = count_ordered_prefix_tables(a.state_count)
    ok = ok and rank == rank_pruned == rank_dedup and rank <= bound

    return OptimalityReport(
        n=a.state_count, rank=rank, bound=bound,
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


def random_campaign_report(state_count: int, alphabet_size: int, seed: int,
                           max_strings: int = 20, max_len: int = 6) -> OptimalityReport:
    """One seeded random instance: automaton, string sets, full check."""
    rng = random.Random(seed)
    a = random_two_way_nfa(state_count, alphabet_size, rng)
    xs = random_strings(alphabet_size, rng.randint(1, max_strings), max_len, rng)
    ys = random_strings(alphabet_size, rng.randint(1, max_strings), max_len, rng)
    return verify_optimality(a, xs, ys, seed=seed)
