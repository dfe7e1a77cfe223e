"""Counting and enumerating ordered prefix tables.

An ordered prefix table decomposes uniquely into a layer function (which
chain position each state's value occupies) and the chain of nested sets
itself.  Both factors of rank k are maps {1..n} -> {0..k}: a layer
function attains every value below k, and a chain S_0 < ... < S_k is the
surjection s with S_i = {v : s(v) <= i}, which is the suffix layer of its
tables.  The bijection builds each table from the two and hands it out with
its layer structure attached.  Counting each factor separately gives the
closed form

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
import operator
from math import comb, factorial

from .errors import BIJECTION_MAX_N, CapacityError
from .statesets import check_n
from .tables import PrefixTable, layered_tables

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


def _layer_maps(n: int, k: int, hit: int) -> list[tuple[int, ...]]:
    """The maps {1..n} -> {0..k} whose image holds every value below hit,
    as value tuples in :func:`itertools.product` order."""
    required = set(range(hit))
    return [p for p in itertools.product(range(k + 1), repeat=n) if required.issubset(p)]


def _chain(s: tuple[int, ...], k: int) -> tuple[int, ...]:
    # the nested sets S_i = {v : s(v) <= i}, i = 0..k, of a surjection s
    sets = [0] * (k + 1)
    for v, i in enumerate(s, start=1):
        sets[i] |= 1 << v
    return tuple(itertools.accumulate(sets, operator.or_))


def enumerate_ordered_prefix_tables(n: int) -> list[PrefixTable]:
    """All ordered prefix tables, generated through the layer decomposition
    and born with their layer structure: by rank k, then by chain in the
    order of (S_{k-1}, ..., S_0), then by layer function.

    ``verify`` checks the output for repeats, against the closed-form count
    and, structure by structure, against :func:`ufabound.tables.layer_structure`.
    """
    check_n(n)
    if n > BIJECTION_MAX_N:
        raise CapacityError(
            f"ordered-table enumeration is limited to n <= {BIJECTION_MAX_N}")
    out = []
    for k in range(n):
        layer_functions = _layer_maps(n, k, k)
        chains = sorted((_chain(s, k) for s in _layer_maps(n, k, k + 1)),
                        key=lambda chain: chain[-2::-1])
        for chain in chains:
            out += layered_tables(n, chain, layer_functions)
    return out


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
