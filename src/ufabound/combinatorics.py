"""Counting and enumerating ordered prefix tables.

An ordered prefix table decomposes uniquely into a layer assignment (which
chain position each state's value occupies) and the chain of nested sets
itself.  Counting each factor separately gives the closed form

    count(n) = sum over k of  k! * stirling2(n+1, k+1) * (k+1)! * stirling2(n, k+1)

with k running over the possible chain lengths 0..n-1, equivalently
sum_{k=1}^{n} (k-1)! k! stirling2(n, k) stirling2(n+1, k); the ``verify``
suite compares the two index forms.

Naming note: this module deliberately distinguishes ``stirling2`` (set
partitions) from ``s_count`` (nested set sequences); the two are related
by a factorial factor and easy to conflate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb, factorial
from typing import Iterator

from .errors import BIJECTION_MAX_N, CapacityError
from .statesets import check_n, full_mask
from .tables import PrefixTable

def _stirling_row(n: int, top: int) -> list[int]:
    """stirling2(n, k) for k = 0..top, built row by row from n = 0."""
    row = [1] + [0] * top
    for m in range(1, n + 1):
        for k in range(min(m, top), 0, -1):
            row[k] = k * row[k] + row[k - 1]
        row[0] = 0
    return row


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into exactly k non-empty blocks."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"stirling2 needs 0 <= k <= n, got n={n}, k={k}")
    return _stirling_row(n, k)[k]


def _check_rank_range(n: int, k: int) -> None:
    if not 0 <= k <= n - 1:
        raise ValueError(f"rank must lie in 0..{n - 1}, got {k}")


def p_count(n: int, k: int) -> int:
    """Number of layer functions of rank k: maps {1..n} -> {0..k} hitting
    every value below k."""
    _check_rank_range(n, k)
    return factorial(k) * stirling2(n + 1, k + 1)


def s_count(n: int, k: int) -> int:
    """Number of nested set sequences of rank k: strictly increasing chains
    of k+1 non-empty subsets of {1..n} ending in the full set."""
    _check_rank_range(n, k)
    return factorial(k + 1) * stirling2(n, k + 1)


# schmidt asks for the same bound once per instance
@functools.lru_cache(maxsize=32)
def count_ordered_prefix_tables(n: int) -> int:
    """The closed form: the sum over k of p_count(n, k) * s_count(n, k)."""
    if n < 1:
        raise ValueError("n must be positive")
    # p_count and s_count would rebuild a Stirling row per k; share two
    below, above = _stirling_row(n, n), _stirling_row(n + 1, n)
    return sum(factorial(k) * above[k + 1] * factorial(k + 1) * below[k + 1]
               for k in range(n))


@dataclass(frozen=True)
class PrefixLayerFunction:
    """A map {1..n} -> {0..k} attaining every value in {0..k-1}."""

    n: int
    rank_k: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.n:
            raise ValueError("one layer per state required")
        if any(not 0 <= v <= self.rank_k for v in self.values):
            raise ValueError("layer out of range")
        if not set(range(self.rank_k)) <= set(self.values):
            raise ValueError("every layer below the rank must be attained")


@dataclass(frozen=True)
class NestedSetSequence:
    """Masks S_0 < S_1 < ... < S_k = {1..n}, strictly nested, S_0 non-empty."""

    n: int
    rank_k: int
    sets: tuple[int, ...]

    def __post_init__(self):
        if len(self.sets) != self.rank_k + 1:
            raise ValueError("a rank-k sequence has k+1 sets")
        if self.sets[0] == 0:
            raise ValueError("the first set must be non-empty")
        if self.sets[-1] != full_mask(self.n):
            raise ValueError("the last set must be the full set")
        for a, b in zip(self.sets, self.sets[1:]):
            if a & ~b or a == b:
                raise ValueError("sets must be strictly nested")


def enumerate_prefix_layer_functions(n: int, k: int) -> Iterator[PrefixLayerFunction]:
    _check_rank_range(n, k)
    required = set(range(k))
    for values in itertools.product(range(k + 1), repeat=n):
        if required <= set(values):
            yield PrefixLayerFunction(n, k, values)


def _submasks_between(mask: int, min_bits: int) -> list[int]:
    # proper non-empty submasks of mask with at least min_bits bits, ascending
    out = []
    sub = (mask - 1) & mask
    while sub:
        if sub.bit_count() >= min_bits:
            out.append(sub)
        sub = (sub - 1) & mask
    out.reverse()
    return out


def enumerate_nested_set_sequences(n: int, k: int) -> Iterator[NestedSetSequence]:
    _check_rank_range(n, k)

    def grow(top: int, depth: int) -> Iterator[tuple[int, ...]]:
        if depth == 0:
            yield (top,)
            return
        for sub in _submasks_between(top, depth):
            for seq in grow(sub, depth - 1):
                yield seq + (top,)

    for sets in grow(full_mask(n), k):
        yield NestedSetSequence(n, k, sets)


def table_from_layer_pair(p: PrefixLayerFunction, s: NestedSetSequence) -> PrefixTable:
    """The ordered prefix table with f(u) = S_{p(u)}."""
    if p.n != s.n or p.rank_k != s.rank_k:
        raise ValueError("mismatched layer function and set sequence")
    return PrefixTable(p.n, tuple(s.sets[v] for v in p.values))


def enumerate_ordered_prefix_tables(n: int) -> list[PrefixTable]:
    """All ordered prefix tables, generated through the layer decomposition.

    ``verify`` checks the output for repeats and against the closed-form
    count.
    """
    check_n(n)
    if n > BIJECTION_MAX_N:
        raise CapacityError(
            f"ordered-table enumeration is limited to n <= {BIJECTION_MAX_N}")
    return [table_from_layer_pair(p, s)
            for k in range(n)
            for s in enumerate_nested_set_sequences(n, k)
            for p in enumerate_prefix_layer_functions(n, k)]


def table1_row(n: int) -> tuple[int, int, int, int]:
    """The four bound formulas at size n.

    Columns: deterministic-two-way to unambiguous lower and upper bounds,
    the nondeterministic-two-way to unambiguous lower bound computed by
    this package, and the nondeterministic-two-way to deterministic bound.
    """
    if n < 1:
        raise ValueError("n must be positive")
    dfa2ufa_lower = sum(comb(n, k - 1) * comb(n, k) * comb(2 * k - 2, k - 1)
                        for k in range(1, n + 1))
    dfa2ufa_upper = sum(comb(n, k - 1) * comb(n, k) * factorial(k)
                        for k in range(1, n + 1))
    nfa2ufa_lower = count_ordered_prefix_tables(n)
    nfa2dfa = sum(comb(n, i) * comb(n, j) * (2 ** (n - i) - 1) ** (n - j)
                  for i in range(1, n + 1) for j in range(1, n + 1))
    return dfa2ufa_lower, dfa2ufa_upper, nfa2ufa_lower, nfa2dfa


def asymptotic_floor(n: int) -> int:
    """The single dominant term (n-1) * (n!)^2 / 2 of the count, exactly.

    Integral for every n: it equals C(n, 2) * (n-1)! * n!.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return (n - 1) * factorial(n) ** 2 // 2
