"""Bit-mask subsets of the state index set {1, ..., n}.

Everywhere in this package a set of 1-based state indices is an ``int``
in which index ``i`` occupies bit ``1 << i``.  Bit 0 is never used, so a
mask reads off in natural order and masks compare cheaply.  Masks are
plain Python ints, so they have no width limit; the size caps of the
computations that grow with n live in :mod:`ufabound.errors`.  The
bit-sliced code slices the other way: one int per state with one bit per
tape (:mod:`ufabound.automata`), one int per vertex with one bit per
column (:mod:`ufabound.witness`), and one int per arc, layer or staged
table with one bit per first table of a table pair
(:func:`ufabound.tables.layer_masks`,
:func:`ufabound.witness.staged_columns` and the pair checks in
:mod:`ufabound.verification`).
"""

from __future__ import annotations

from typing import Iterable


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
