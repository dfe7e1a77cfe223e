"""Prefix and suffix tables: crossing behaviour of a two-way automaton.

A prefix table f maps each state u in {1..n} to the non-empty set of
states in which the automaton can leave a fixed prefix to the right after
entering it in state u; some state whose value is contained in all other
values must exist (a starting state), and f at a starting state is the set
of states reachable from the initial configuration.  A suffix table g maps
each state to the set of states in which the automaton can leave a fixed
suffix to the left, with a special marker for states from which it can
accept outright; any accepting entry is saturated to the full set.

Together a prefix and a suffix table form a bipartite graph: left vertices
feed right vertices through the prefix table's arcs, right vertices feed
left vertices through the suffix table's arcs, and acceptance of the
combined string is exactly the existence of a path from the starting state
to an accepting right vertex (decided in :mod:`ufabound.witness`).

``values`` tuples are bit masks over {1..n} (see :mod:`ufabound.statesets`)
with values[u-1] holding the set for state u.  Both tables are slotted
frozen dataclasses, each with its own validating ``__init__``; a prefix
table also keeps its layer structure, once computed, in a slot that is no
field.  Their text forms format each distinct mask once per process.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ENUMERATION_MAX_N, CapacityError
from .statesets import check_n, format_set, full_mask, is_subset, mask_of, parse_set


@dataclass(frozen=True, init=False)
class PrefixTable:
    __slots__ = ("n", "values", "_layers")
    n: int
    values: tuple[int, ...]

    def __init__(self, n: int, values: Iterable[int]):
        check_n(n)
        values = tuple(values)
        full = (1 << (n + 1)) - 2
        if len(values) != n:
            raise ValueError("a prefix table needs one value per state")
        common = full
        for v in values:
            if v == 0:
                raise ValueError("prefix table values must be non-empty")
            if v & ~full:
                raise ValueError("value out of range")
            common &= v
        if common not in values:
            raise ValueError("no starting state: some value must be contained in all others")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)

    def __reduce__(self):
        return PrefixTable, (self.n, self.values)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "PrefixTable":
        return cls(n, tuple(mask_of(s) for s in sets))

    def value(self, u: int) -> int:
        return self.values[u - 1]


@dataclass(frozen=True, init=False)
class SuffixTable:
    __slots__ = ("n", "values", "accept_flags")
    n: int
    values: tuple[int, ...]
    accept_flags: int

    def __init__(self, n: int, values: Iterable[int], accept_flags: int):
        # values[v-1] = g(v) restricted to {1..n}; accept_flags is the mask
        # of the states whose value contains Accept
        check_n(n)
        values = tuple(values)
        full = (1 << (n + 1)) - 2
        if len(values) != n:
            raise ValueError("a suffix table needs one value per state")
        if accept_flags == 0:
            raise ValueError("some state must lead to acceptance")
        if accept_flags & ~full:
            raise ValueError("accept flags out of range")
        for v, val in enumerate(values, start=1):
            if val & ~full:
                raise ValueError("value out of range")
            if accept_flags >> v & 1 and val != full:
                raise ValueError("an accepting entry must carry the full set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "accept_flags", accept_flags)

    def __reduce__(self):
        return SuffixTable, (self.n, self.values, self.accept_flags)

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]],
                  accept: Iterable[int]) -> "SuffixTable":
        return cls(n, tuple(mask_of(s) for s in sets), mask_of(accept))

    def value(self, v: int) -> int:
        return self.values[v - 1]


def starting_state(f: PrefixTable) -> int:
    """The minimal state whose value is contained in every other value."""
    common = full_mask(f.n)
    for v in f.values:
        common &= v
    return f.values.index(common) + 1


def table_size(f: PrefixTable) -> int:
    """Total number of arcs: the sum of value sizes."""
    return sum(v.bit_count() for v in f.values)


def augment(f: PrefixTable, u1: int, u2: int, v1: int, v2: int
            ) -> tuple[PrefixTable, PrefixTable, PrefixTable]:
    """Add the missing cross arcs (u1, v2) and (u2, v1), separately and jointly.

    Requires v1 in f(u1) and v2 in f(u2) while neither cross arc exists.
    All three results are valid prefix tables sharing f's starting state.
    """
    if u1 == u2 or v1 == v2:
        raise ValueError("indices must be distinct")
    for x in (u1, u2, v1, v2):
        if not 1 <= x <= f.n:
            raise ValueError(f"index {x} out of range")
    a, b = f.value(u1), f.value(u2)
    if not (a >> v1 & 1 and b >> v2 & 1):
        raise ValueError("v1 must lie in f(u1) and v2 in f(u2)")
    if a >> v2 & 1 or b >> v1 & 1:
        raise ValueError("the cross arcs must be absent from f")

    def patched(add1: bool, add2: bool) -> PrefixTable:
        vals = list(f.values)
        if add1:
            vals[u1 - 1] |= 1 << v2
        if add2:
            vals[u2 - 1] |= 1 << v1
        return PrefixTable(f.n, tuple(vals))

    return patched(True, False), patched(False, True), patched(True, True)


def is_ordered(f: PrefixTable) -> bool:
    """True iff the values of f form a chain under inclusion."""
    return _is_chain(f.values)


def _is_chain(masks: Sequence[int]) -> bool:
    # a & b is a or b exactly when one of the two holds the other
    return all(a & b in (a, b) for a, b in itertools.combinations(masks, 2))


@dataclass(frozen=True, slots=True)
class LayerStructure:
    """The chain of a table's distinct values and the derived layer maps.

    nested_sets is S_0 < S_1 < ... < S_k with S_k the full set (appended
    when the table never takes that value); rank_k counts the distinct
    values other than the full set.  prefix_layer[u-1] locates f(u) in the
    chain, suffix_layer[v-1] is the first chain index whose set contains v.
    """

    rank_k: int
    nested_sets: tuple[int, ...]
    prefix_layer: tuple[int, ...]
    suffix_layer: tuple[int, ...]


def _suffix_layer(n: int, chain: Sequence[int]) -> tuple[int, ...]:
    # for each state v, the first chain index whose set holds v
    return tuple(next(i for i, s in enumerate(chain) if s >> v & 1) for v in range(1, n + 1))


def layer_structure(f: PrefixTable) -> LayerStructure:
    """f's layer structure, computed on the first call and kept on f itself
    (not in a module-level cache), unless f was born with it
    (:func:`layered_tables`).  Raises ValueError for an unordered table."""
    cached = getattr(f, "_layers", None)
    if cached is not None:
        return cached
    if not is_ordered(f):
        raise ValueError("layer structure is defined for ordered tables only")
    full = full_mask(f.n)
    chain = sorted(set(f.values), key=int.bit_count)
    rank_k = sum(1 for s in chain if s != full)
    if chain[-1] != full:
        chain.append(full)
    index = {s: i for i, s in enumerate(chain)}
    pl = tuple(index[v] for v in f.values)
    ls = LayerStructure(rank_k, tuple(chain), pl, _suffix_layer(f.n, chain))
    object.__setattr__(f, "_layers", ls)
    return ls


def layered_tables(n: int, chain: tuple[int, ...],
                   layer_functions: Iterable[tuple[int, ...]]) -> list[PrefixTable]:
    """The ordered tables f(u) = chain[p[u-1]], one per layer function p,
    each born with its layer structure.

    chain is S_0 < S_1 < ... < S_k with S_k the full set, and each p maps
    {1..n} to {0..k} attaining every layer below k, so p is the table's
    prefix layer.  Each table is validated as a prefix table; chain and p
    are taken as given (``verify``'s count check compares the structures
    they give with :func:`layer_structure`'s).
    """
    rank_k = len(chain) - 1
    suffix_layer = _suffix_layer(n, chain)
    out = []
    for p in layer_functions:
        f = PrefixTable(n, tuple(map(chain.__getitem__, p)))
        object.__setattr__(f, "_layers", LayerStructure(rank_k, chain, p, suffix_layer))
        out.append(f)
    return out


def check_enumeration_size(n: int) -> None:
    check_n(n)
    if n > ENUMERATION_MAX_N:
        raise CapacityError(
            f"exhaustive table enumeration is limited to n <= {ENUMERATION_MAX_N}")


def prefix_table_values(n: int) -> list[tuple[int, ...]]:
    """The value-mask tuples of all prefix tables on {1..n}, ascending."""
    check_enumeration_size(n)
    full = full_mask(n)
    nonempty = [m for m in range(2, full + 1) if m and is_subset(m, full)]
    out = []
    for values in itertools.product(nonempty, repeat=n):
        common = full
        for v in values:
            common &= v
        if common in values:
            out.append(values)
    return out


def enumerate_prefix_tables(n: int) -> list[PrefixTable]:
    """All prefix tables on {1..n}, ordered by their value-mask tuples."""
    return [PrefixTable(n, values) for values in prefix_table_values(n)]


def enumerate_suffix_tables(n: int) -> list[SuffixTable]:
    """All suffix tables on {1..n}, accept flags most significant."""
    check_enumeration_size(n)
    full = full_mask(n)
    subsets = [m for m in range(0, full + 1) if is_subset(m, full)]
    accept_masks = [m for m in subsets if m]
    out = []
    for accept in accept_masks:
        free = [v for v in range(1, n + 1) if not accept >> v & 1]
        for assignment in itertools.product(subsets, repeat=len(free)):
            values = [full] * n
            for v, val in zip(free, assignment):
                values[v - 1] = val
            out.append(SuffixTable(n, tuple(values), accept))
    return out


def enumerate_ordered_prefix_tables_by_filter(n: int) -> list[PrefixTable]:
    return [PrefixTable(n, values) for values in prefix_table_values(n) if _is_chain(values)]


# ---------------------------------------------------------------------------
# text serialization: "n; f(1); f(2); ..." with comma-separated 1-based
# states, "-" for the empty set, and "A" marking an accepting suffix entry

# the text of each mask, formatted once: a matrix's label files repeat few masks
_set_text = functools.cache(format_set)


def prefix_table_to_text(f: PrefixTable) -> str:
    return "; ".join([str(f.n)] + [_set_text(v) for v in f.values])


def prefix_table_from_text(text: str) -> PrefixTable:
    parts = [p.strip() for p in text.split(";")]
    n = int(parts[0])
    if len(parts) != n + 1:
        raise ValueError(f"expected {n} values, got {len(parts) - 1}")
    return PrefixTable(n, tuple(parse_set(p, n) for p in parts[1:]))


def suffix_table_to_text(g: SuffixTable) -> str:
    parts = [str(g.n)]
    for v in range(1, g.n + 1):
        parts.append("A" if g.accept_flags >> v & 1 else _set_text(g.values[v - 1]))
    return "; ".join(parts)


def suffix_table_from_text(text: str) -> SuffixTable:
    parts = [p.strip() for p in text.split(";")]
    n = int(parts[0])
    if len(parts) != n + 1:
        raise ValueError(f"expected {n} values, got {len(parts) - 1}")
    full = full_mask(n)
    values = []
    accept = 0
    for v, part in enumerate(parts[1:], start=1):
        if part == "A":
            accept |= 1 << v
            values.append(full)
        else:
            values.append(parse_set(part, n))
    return SuffixTable(n, tuple(values), accept)
