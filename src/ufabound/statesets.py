"""Bit-mask subsets of the state index set {1, ..., n}.

Everywhere in this package a set of 1-based state indices is an ``int``
in which index ``i`` occupies bit ``1 << i``.  Bit 0 is never used, so a
mask reads off in natural order and masks compare cheaply.  Masks are
plain Python ints, so they have no width limit; the size caps of the
computations that grow with n live in :mod:`ufabound.errors`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# chunk_unions looks masks up this many bits at a time, so its lookup
# tables stay small for any n
CHUNK_BITS = 8


def check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")


def full_mask(n: int) -> int:
    """Mask of the whole set {1, ..., n}."""
    return (1 << (n + 1)) - 2


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def elements(mask: int) -> list[int]:
    """Indices present in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def chunk_unions(contrib: Sequence[int]) -> list[tuple[int, int | None, list[int]]]:
    """Lookups from a mask to the union of ``contrib[i]`` over its bits i.

    ``contrib`` has one entry per mask bit, bit 0 included.  The mask is
    split into chunks of ``CHUNK_BITS`` bits, and per chunk the result holds
    ``(shift, keep, table)``: ``table[mask >> shift & keep]`` is the union
    over that chunk's bits.  The top chunk needs no and-mask, so its
    ``keep`` is None, and a mask narrower than one chunk is its own index.
    """
    top = len(contrib)
    out = []
    for shift in range(0, top, CHUNK_BITS):
        width = min(CHUNK_BITS, top - shift)
        table = [0]
        for c in contrib[shift:shift + width]:
            table += [t | c for t in table]
        out.append((shift, None if shift + width == top else (1 << width) - 1, table))
    return out


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def format_set(mask: int) -> str:
    """Render a mask as ``1,3,4``; the empty set is ``-``."""
    if not mask:
        return "-"
    return ",".join(str(i) for i in elements(mask))


def parse_set(text: str, n: int) -> int:
    text = text.strip()
    if text == "-":
        return 0
    m = 0
    for part in text.split(","):
        i = int(part)
        if not 1 <= i <= n:
            raise ValueError(f"state {i} out of range 1..{n}")
        m |= 1 << i
    return m
