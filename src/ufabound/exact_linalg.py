"""Exact rank of integer matrices, over the rationals and over prime fields.

The rational rank uses fraction-free elimination: every intermediate value
is an integer (a minor of the original matrix), so the result is exact for
0/1 matrices of any size that fits in memory.  Very large matrices are
refused here and should go through :func:`rank_mod_p`, which gives a
certified lower bound on the rational rank (a vanishing rational minor
vanishes mod p as well, so the mod-p rank can never exceed it).

Pivoting is deterministic: first non-zero entry in column order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import MOD_P_LIMIT, RANK_EXACT_MAX_ENTRIES, CapacityError

# rows per chunk in the mod-p update; caps temporary allocations
_CHUNK_ELEMS = 4_000_000


def _as_rows(m) -> list[list[int]]:
    if hasattr(m, "to_lists"):  # packed 0/1 matrices
        return m.to_lists()
    return [[int(x) for x in row] for row in m]


def rank_exact(m) -> int:
    """Rank over the rationals, by fraction-free integer elimination."""
    a = _as_rows(m)
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    if nrows * ncols > RANK_EXACT_MAX_ENTRIES:
        raise CapacityError(
            f"{nrows}x{ncols} matrix exceeds the {RANK_EXACT_MAX_ENTRIES}-entry "
            "limit of exact elimination; use rank_mod_p")
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


def _rank_mod_2(rows_bits: list[int]) -> int:
    """Rank over GF(2) with rows packed as Python ints."""
    pivots: list[int] = []
    rank = 0
    for row in rows_bits:
        cur = row
        for pv in pivots:
            if cur >> (pv.bit_length() - 1) & 1:
                cur ^= pv
        if cur:
            pivots.append(cur)
            pivots.sort(key=int.bit_length, reverse=True)
            rank += 1
    return rank


def _to_mod_array(m, p: int) -> np.ndarray:
    if isinstance(m, np.ndarray):
        arr = m.astype(np.int64, copy=True)
    elif hasattr(m, "to_numpy"):  # packed 0/1 matrices
        arr = m.to_numpy(np.int64)
    else:
        arr = np.array([[int(x) % p for x in row] for row in m], dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(0, 0)
    arr %= p
    return arr


def rank_mod_p(m, p: int, jobs: int = 1) -> int:
    """Rank over GF(p) for a prime p below ``MOD_P_LIMIT`` (2^31).  Always a
    lower bound on :func:`rank_exact`.

    ``jobs`` > 1 threads the row updates inside each pivot step; rows are
    disjoint, so the result is identical.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p >= MOD_P_LIMIT:
        raise CapacityError(
            f"rank_mod_p needs a prime below 2^31, got {p}: the int64 "
            "elimination is exact only while p^2 stays below 2^62")
    if p == 2:
        if hasattr(m, "bits"):  # packed 0/1 matrices keep their row ints
            return _rank_mod_2(list(m.bits))
        bits = []
        for row in m:
            b = 0
            for j, x in enumerate(row):
                if int(x) & 1:
                    b |= 1 << j
            bits.append(b)
        return _rank_mod_2(bits)

    arr = _to_mod_array(m, p)
    nrows, ncols = arr.shape if arr.ndim == 2 else (0, 0)
    if nrows == 0 or ncols == 0:
        return 0
    chunk = max(1, _CHUNK_ELEMS // ncols)

    def eliminate(idx, col, row):
        block = arr[idx, col:]
        block -= arr[idx, col, None] * row
        block %= p
        arr[idx, col:] = block

    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
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
            row = arr[rank, col:] * inv % p
            arr[rank, col:] = row
            below = np.nonzero(arr[rank + 1:, col])[0] + rank + 1
            step = chunk
            if pool is not None and below.size:
                step = min(chunk, -(-below.size // jobs))
            chunks = [below[s:s + step] for s in range(0, below.size, step)]
            if pool is not None and len(chunks) > 1:
                list(pool.map(lambda idx: eliminate(idx, col, row), chunks))
            else:
                for idx in chunks:
                    eliminate(idx, col, row)
            rank += 1
    finally:
        if pool is not None:
            pool.shutdown()
    return rank
