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

The GF(p) rank works on the distinct non-zero rows as well.  When their
GF(2) rank equals their number, the square minor on the GF(2) pivot
columns is eliminated mod p first, and a full rank there is the answer:
the rank of a column subset never exceeds the whole matrix's, and no rank
exceeds the row count.  Otherwise (p divides that minor's determinant, or
the GF(2) rank falls short) every column of the distinct rows is
eliminated, by the same routine.

Pivoting is deterministic: first non-zero entry in column order.
"""

from __future__ import annotations

from .errors import MOD_P_LIMIT, RANK_EXACT_MAX_ENTRIES, CapacityError
from .witness import CHUNK_ELEMS, BoolMatrix


def _distinct_rows(m: BoolMatrix) -> BoolMatrix:
    """The distinct non-zero rows of ``m`` in their first order, ``m`` itself
    when it has no zero or repeated row: those leave every rank alone."""
    rows = tuple(dict.fromkeys(b for b in m.bits if b))
    if len(rows) == m.rows:
        return m
    return BoolMatrix(tuple(range(len(rows))), m.col_labels, m.cols, rows)


def rank_exact(m: BoolMatrix) -> int:
    """Rank over the rationals, by fraction-free integer elimination of the
    distinct non-zero rows unless their GF(2) rank is already full.

    A full GF(2) rank needs no elimination and so has no size limit; the
    limit is checked on the distinct rows, before elimination reads an
    entry.
    """
    distinct = _distinct_rows(m)
    nrows, ncols = distinct.rows, distinct.cols
    # an odd minor is non-zero, so a full rank mod 2 of the distinct rows is
    # the rational rank
    full = min(nrows, ncols)
    if len(_rank_mod_2(distinct.bits)) == full:
        return full
    if nrows * ncols > RANK_EXACT_MAX_ENTRIES:
        raise CapacityError(
            f"{m.rows}x{ncols} matrix with {nrows} distinct non-zero rows "
            f"exceeds the {RANK_EXACT_MAX_ENTRIES}-entry limit of exact elimination; "
            "use rank_mod_p")
    a = distinct.to_lists()
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


def _rank_mod_2(rows_bits: tuple[int, ...]) -> list[int]:
    """The pivot columns of an elimination over GF(2), in increasing order,
    with rows packed as Python ints; their number is the rank.  Each pivot
    is filed under its top bit, which no other pivot shares."""
    pivots: dict[int, int] = {}
    for row in rows_bits:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return sorted(pivots)


def _eliminate_mod_p(arr: np.ndarray, p: int) -> int:
    """Rank mod p of the residues ``arr`` (int32), which it overwrites.

    Each column's first non-zero row is its pivot row.  Every other row that
    is non-zero in that column becomes pv * row - f * pivot row, with pv the
    pivot and f the row's entry there, which keeps the row space since pv is
    a unit; the pivot row is then zeroed, so later columns see only rows
    that have not been pivots, with no row swap and no modular inverse.
    """
    import numpy as np  # here, so that only the commands that need numpy load it

    # a product of two residues needs 62 bits, and NumPy keeps int32 * int
    # in int32, where it would wrap silently: the pivot row and the chunk
    # being reduced are widened to int64, the residues stay int32
    nrows, ncols = arr.shape
    chunk = max(1, CHUNK_ELEMS // max(ncols, 1))
    rank = 0
    for col in range(ncols):
        hits = np.flatnonzero(arr[:, col])
        if hits.size == 0:
            continue
        piv = hits[0]
        prow = arr[piv, col:].astype(np.int64)
        pv = int(prow[0])
        for s in range(1, hits.size, chunk):
            idx = hits[s:s + chunk]
            narrow = arr[idx, col:]
            block = np.multiply(narrow, pv, dtype=np.int64)
            spare = np.multiply(narrow[:, :1], prow)
            block -= spare
            # block -= block // p * p: the residues of %, since int64 //
            # floors too, at a fraction of the cost of NumPy's remainder by
            # a scalar; spare holds each product in turn, so that no third
            # array of the chunk's size is made
            np.floor_divide(block, p, out=spare)
            spare *= p
            block -= spare
            arr[idx, col:] = block
            del narrow, block, spare  # freed before the next chunk is gathered
        arr[piv, col:] = 0
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_mod_p(m: BoolMatrix, p: int) -> int:
    """Rank over GF(p) for a prime p below ``MOD_P_LIMIT`` (2^31).  Always a
    lower bound on :func:`rank_exact`.  For odd p, the GF(2) pivot minor of
    the distinct rows is eliminated first, as the module docstring says."""
    # refused by size first: a primality test of a 4,000-digit modulus takes
    # seconds, and its digits would make a 4 kB error line
    if p >= MOD_P_LIMIT:
        raise CapacityError(
            f"rank_mod_p needs a prime below 2^31, got a {p.bit_length()}-bit "
            "modulus: the int64 elimination is exact only while p^2 stays below 2^62")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    m = _distinct_rows(m)
    pivots = _rank_mod_2(m.bits)
    if p == 2:
        return len(pivots)
    if len(pivots) == m.rows:
        rank = _eliminate_mod_p(m.to_numpy(pivots), p)
        if rank == m.rows:
            return rank
    return _eliminate_mod_p(m.to_numpy(), p)
