"""Bit-mask subsets of the state index set {1, ..., n}.

Everywhere in this package a set of 1-based state indices is an ``int``
in which index ``i`` occupies bit ``1 << i``.  Bit 0 is never used, so a
mask reads off in natural order and masks compare cheaply.  Masks are
plain Python ints, so they have no width limit; the size caps of the
computations that grow with n live in :mod:`ufabound.errors`.  The
bit-sliced code slices the other way: one int per state with one bit per
tape (:mod:`ufabound.automata`), one int per vertex with one bit per
column (:mod:`ufabound.witness`), and one int per arc, layer or column
of the staged matrix G with one bit per table in a pair study's one list
of first tables (:func:`ufabound.tables.layer_masks`,
:func:`ufabound.witness.staged_columns` and the pair checks in
:mod:`ufabound.verification`).  :func:`transpose` is the one step
from either slicing to the other.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# bytes.translate tables: _SPREAD[t] sends the digits "0" and "1" to a byte
# with bit t clear or set, _DIGIT[i] sends a byte to the digit of its bit i
_SPREAD = [bytes(1 << t if c == ord("1") else 0 for c in range(256)) for t in range(8)]
_DIGIT = [bytes(ord("0") | c >> i & 1 for c in range(256)) for i in range(8)]


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


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """Bit j of result i is bit i of rows[j], for i < ``width``; no row may
    hold a bit at or beyond it.  Up to 8 rows, each row's digits become a
    byte per column with the row's bit set, all read by one ``to_bytes``;
    rows of up to 8 bits are packed a byte each, one ``bytes.translate``
    to digits per column; anything else goes through the rows' text.
    """
    if len(rows) <= 8:
        spread = 0
        for t, row in enumerate(rows):
            if row:
                spread |= int.from_bytes(bin(row)[:1:-1].encode().translate(_SPREAD[t]),
                                         "little")
        return list(spread.to_bytes(width, "little"))
    if width <= 8:
        packed = bytes(reversed(rows))
        return [int(packed.translate(_DIGIT[i]), 2) for i in range(width)]
    lines = [bin(row | 1 << width)[:2:-1] for row in reversed(rows)]
    return [int("".join(column), 2) for column in zip(*lines)]
