import random
from fractions import Fraction

import pytest

from ufabound import exact_linalg
from ufabound.errors import CapacityError
from ufabound.exact_linalg import rank_exact, rank_mod_p
from ufabound.witness import BoolMatrix


def packed(rows, ncols=None):
    """The 0/1 lists ``rows`` as a BoolMatrix, bit j of a row = column j."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    bits = tuple(sum(x << j for j, x in enumerate(row)) for row in rows)
    return BoolMatrix(tuple(range(len(rows))), tuple(range(ncols)), ncols, bits)


def random_rows(rng, nrows, ncols):
    return [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]


def rank_fraction_oracle(rows):
    """Independent oracle: plain Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in r] for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for r in range(rank + 1, nrows):
            if a[r][col]:
                factor = a[r][col] / top[col]
                a[r] = [x - factor * y for x, y in zip(a[r], top)]
        rank += 1
        if rank == nrows:
            break
    return rank


def test_rank_exact_basics():
    assert rank_exact(packed([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank_exact(packed([[1] * 4] * 4)) == 1
    assert rank_exact(packed([[0, 0], [0, 0]])) == 0
    assert rank_exact(packed([[1, 1, 0], [1, 1, 0], [0, 0, 1]])) == 2


def test_empty_shapes_have_rank_zero():
    for m in (packed([]), packed([], 4), packed([[]] * 3)):
        assert rank_exact(m) == 0
        for p in (2, 3, 2**31 - 1):
            assert rank_mod_p(m, p) == 0


def test_rank_exact_agrees_with_fraction_oracle():
    rng = random.Random(42)
    for _ in range(2000):
        rows = random_rows(rng, rng.randint(0, 7), rng.randint(1, 7))
        assert rank_exact(packed(rows)) == rank_fraction_oracle(rows)


def test_rank_exact_transpose_and_permutation_invariance():
    rng = random.Random(1)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_rows(rng, nrows, ncols)
        r = rank_exact(packed(rows))
        assert r == rank_exact(packed(list(map(list, zip(*rows)))))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        cols = list(range(ncols))
        rng.shuffle(cols)
        assert r == rank_exact(packed([[row[c] for c in cols] for row in shuffled]))


def test_zero_and_duplicate_rows_do_not_change_rank():
    rng = random.Random(2)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_rows(rng, nrows, ncols)
        r = rank_exact(packed(rows))
        padded = packed(rows + [[0] * ncols, rows[0][:]])
        assert rank_exact(padded) == r
        assert rank_mod_p(padded, 3) == rank_mod_p(packed(rows), 3)
        wide = [row + [0, row[0]] for row in rows]
        assert rank_exact(packed(wide)) == r


def test_rank_exact_capacity_guard():
    big = BoolMatrix(tuple(range(4000)), tuple(range(3000)), 3000, (0,) * 4000)
    with pytest.raises(CapacityError, match="4000x3000 matrix exceeds the 10000000-entry"):
        rank_exact(big)


def test_rank_exact_refuses_before_converting_entries(monkeypatch):
    def no_lists(self):
        raise AssertionError("the entries were converted before the size check")

    monkeypatch.setattr(BoolMatrix, "to_lists", no_lists)
    big = BoolMatrix(tuple(range(4000)), tuple(range(3000)), 3000, (0,) * 4000)
    with pytest.raises(CapacityError, match="4000x3000 matrix exceeds the 10000000-entry"):
        rank_exact(big)


def test_rank_mod_p_basics():
    eye = packed([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for p in (2, 3, 2**31 - 1):
        assert rank_mod_p(eye, p) == 3
    assert rank_mod_p(packed([[1, 1], [1, 1]]), 2**31 - 1) == 1
    # characteristic matters: the determinant is 2, so the rank drops only
    # mod 2
    m = packed([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert rank_exact(m) == 3
    assert rank_mod_p(m, 2) == 2
    assert rank_mod_p(m, 3) == 3


def test_rank_mod_p_accepts_numpy_and_packed():
    # numpy arrays and lists are no longer inputs; the packed part stays: a
    # BoolMatrix built from raw row ints (bit j is column j) ranks like the
    # same 0/1 rows
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    raw = BoolMatrix(("a", "b", "c"), ("x", "y", "z"), 3, (0b101, 0b110, 0b011))
    assert raw.bits == packed(rows).bits
    assert rank_mod_p(raw, 5) == rank_mod_p_oracle(rows, 5) == 3
    assert rank_mod_p(raw, 2) == rank_mod_p_oracle(rows, 2) == 2
    assert rank_exact(raw) == rank_fraction_oracle(rows) == 3


def test_rank_mod_p_rejects_composite():
    for bad in (1, 4, 2**31):
        with pytest.raises(ValueError):
            rank_mod_p(packed([[1]]), bad)


def test_rank_mod_p_rejects_primes_beyond_int64_range():
    # 2^32 + 15, 2^61 - 1 and 2^89 - 1 are prime; the int64 elimination
    # would wrap (or overflow) on them
    m = packed([[1, 1], [1, 0]])
    for p in (4294967311, 2**61 - 1, 2**89 - 1):
        with pytest.raises(CapacityError, match="2\\^31"):
            rank_mod_p(m, p)
    assert rank_mod_p(m, 2**31 - 1) == 2


def test_rank_mod_p_never_exceeds_rational_rank():
    rng = random.Random(3)
    for _ in range(500):
        m = packed(random_rows(rng, rng.randint(1, 6), rng.randint(1, 6)))
        q = rank_exact(m)
        for p in (2, 5, 101, 2**31 - 1):
            assert rank_mod_p(m, p) <= q


def rank_mod_p_oracle(rows, p):
    """Independent oracle: Gauss-Jordan elimination mod p on Python ints."""
    mat = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col] * pow(mat[rank][col], p - 2, p) % p
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_rank_mod_2_against_fraction_oracle_in_characteristic_two():
    rng = random.Random(9)
    for _ in range(400):
        rows = random_rows(rng, rng.randint(1, 9), rng.randint(1, 9))
        assert rank_mod_p(packed(rows), 2) == rank_mod_p_oracle(rows, 2)


def test_rank_mod_odd_p_against_elimination_oracle():
    rng = random.Random(6)
    for _ in range(300):
        rows = random_rows(rng, rng.randint(1, 12), rng.randint(1, 12))
        # at 2^31 - 1 the residues fill int32 and their products need int64
        for p in (3, 7, 2**31 - 1):
            assert rank_mod_p(packed(rows), p) == rank_mod_p_oracle(rows, p)


def test_rank_mod_p_reduces_in_chunks_of_rows(monkeypatch):
    # one or two rows per chunk of the update below each pivot
    monkeypatch.setattr(exact_linalg, "CHUNK_ELEMS", 20)
    rng = random.Random(12)
    for _ in range(100):
        rows = random_rows(rng, rng.randint(1, 12), 10)
        for p in (3, 2**31 - 1):
            assert rank_mod_p(packed(rows), p) == rank_mod_p_oracle(rows, p)
