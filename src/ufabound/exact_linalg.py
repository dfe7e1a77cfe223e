"""Exact rank of packed 0/1 matrices, over the rationals and over prime fields.

Every engine takes a :class:`~ufabound.witness.BoolMatrix`.  The rational
rank first drops zero and repeated rows, which leave the rank alone, and
takes the rank of the distinct rows over GF(2), which is cheap on the
packed rows: when it reaches min(rows, cols) some minor of that order is
odd, hence non-zero, and the rational rank is that full rank.  Any other
matrix goes through fraction-free elimination of its distinct rows:
every intermediate value is an integer (a minor of the original matrix),
so the result is exact for matrices of any size that fits in memory.
A matrix whose distinct rows are too large to eliminate is refused here
and should go through :func:`rank_mod_p`, which gives a certified lower
bound on the rational rank (a vanishing rational minor vanishes mod p as
well, so the mod-p rank can never exceed it).

Pivoting is deterministic: first non-zero entry in column order.
"""

from __future__ import annotations

import numpy as np

from .errors import MOD_P_LIMIT, RANK_EXACT_MAX_ENTRIES, CapacityError
from .witness import CHUNK_ELEMS, BoolMatrix


def rank_exact(m: BoolMatrix) -> int:
    """Rank over the rationals, by fraction-free integer elimination of the
    distinct non-zero rows unless their GF(2) rank is already full.

    A full GF(2) rank needs no elimination and so has no size limit; the
    limit is checked on the distinct rows, before elimination reads an
    entry.
    """
    nrows, ncols = m.rows, m.cols
    # zero and repeated rows leave the rank alone; an odd minor is non-zero,
    # so a full rank mod 2 of the distinct rows is the rational rank
    distinct = tuple(dict.fromkeys(b for b in m.bits if b))
    full = min(len(distinct), ncols)
    if _rank_mod_2(distinct) == full:
        return full
    if len(distinct) * ncols > RANK_EXACT_MAX_ENTRIES:
        raise CapacityError(
            f"{nrows}x{ncols} matrix with {len(distinct)} distinct non-zero rows "
            f"exceeds the {RANK_EXACT_MAX_ENTRIES}-entry limit of exact elimination; "
            "use rank_mod_p")
    if len(distinct) < nrows:
        nrows = len(distinct)
        m = BoolMatrix(tuple(range(nrows)), m.col_labels, ncols, distinct)
    a = m.to_lists()
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        pivot_row = a[rank]
        pv = pivot_row[col]
        for r in range(rank + 1, nrows):
            row = a[r]
            f = row[col]
            if f == 0 and pv == prev:
                # row already scaled correctly; avoid a full pass
                continue
            for c in range(col + 1, ncols):
                row[c] = (row[c] * pv - f * pivot_row[c]) // prev
            row[col] = 0
        prev = pv
        rank += 1
    return rank


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 64 bits."""
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if p % q == 0:
            return p == q
    d = p - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in small:
        x = pow(base, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rank_mod_2(rows_bits: tuple[int, ...]) -> int:
    """Rank over GF(2) with rows packed as Python ints; each pivot is filed
    under its top bit, which no other pivot shares."""
    pivots: dict[int, int] = {}
    for row in rows_bits:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return len(pivots)


def rank_mod_p(m: BoolMatrix, p: int) -> int:
    """Rank over GF(p) for a prime p below ``MOD_P_LIMIT`` (2^31).  Always a
    lower bound on :func:`rank_exact`."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= MOD_P_LIMIT:
        raise CapacityError(
            f"rank_mod_p needs a prime below 2^31, got {p}: the int64 "
            "elimination is exact only while p^2 stays below 2^62")
    if p == 2:
        return _rank_mod_2(m.bits)

    # residues are stored in int32 and widened to int64 only in the pivot row
    # and the chunk being reduced: a product of two residues needs 62 bits,
    # and NumPy keeps int32 * int in int32, where it would wrap silently
    arr = m.to_numpy()
    nrows, ncols = arr.shape
    chunk = max(1, CHUNK_ELEMS // max(ncols, 1))
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = np.nonzero(arr[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            arr[[rank, piv]] = arr[[piv, rank]]
        inv = pow(int(arr[rank, col]), p - 2, p)
        row = arr[rank, col:].astype(np.int64) * inv % p
        arr[rank, col:] = row
        below = np.nonzero(arr[rank + 1:, col])[0] + rank + 1
        for s in range(0, below.size, chunk):
            idx = below[s:s + chunk]
            narrow = arr[idx, col:]
            block = narrow[:, :1].astype(np.int64) * row
            np.subtract(narrow, block, out=block)
            block %= p
            arr[idx, col:] = block
            del narrow, block  # freed before the next chunk is gathered
        rank += 1
    return rank
