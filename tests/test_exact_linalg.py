import random
from fractions import Fraction

import numpy as np
import pytest

from ufabound.errors import CapacityError
from ufabound.exact_linalg import rank_exact, rank_mod_p
from ufabound.witness import BoolMatrix


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
    assert rank_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank_exact([[1] * 4] * 4) == 1
    assert rank_exact([]) == 0
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([[2, 4], [1, 2]]) == 1


def test_rank_exact_agrees_with_fraction_oracle():
    rng = random.Random(42)
    for _ in range(2000):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        assert rank_exact(rows) == rank_fraction_oracle(rows)


def test_rank_exact_transpose_and_permutation_invariance():
    rng = random.Random(1)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        r = rank_exact(rows)
        assert r == rank_exact(list(map(list, zip(*rows))))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        cols = list(range(ncols))
        rng.shuffle(cols)
        assert r == rank_exact([[row[c] for c in cols] for row in shuffled])


def test_zero_and_duplicate_rows_do_not_change_rank():
    rng = random.Random(2)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        r = rank_exact(rows)
        padded = rows + [[0] * ncols, rows[0][:]]
        assert rank_exact(padded) == r
        assert rank_mod_p(padded, 3) == rank_mod_p(rows, 3)
        wide = [row + [0, row[0]] for row in rows]
        assert rank_exact(wide) == r


def test_rank_exact_capacity_guard():
    big = np.zeros((4000, 3000), dtype=np.int8)
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
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for p in (2, 3, 2**31 - 1):
        assert rank_mod_p(eye, p) == 3
    assert rank_mod_p([[1, 1], [1, 1]], 2**31 - 1) == 1
    # characteristic matters: this matrix drops rank only mod 2
    m = [[1, 1], [1, -1]]
    assert rank_exact(m) == 2
    assert rank_mod_p(m, 2) == 1
    assert rank_mod_p(m, 3) == 2


def test_rank_mod_p_rejects_composite():
    for bad in (1, 4, 2**31):
        with pytest.raises(ValueError):
            rank_mod_p([[1]], bad)


def test_rank_mod_p_rejects_primes_beyond_int64_range():
    # 2^32 + 15, 2^61 - 1 and 2^89 - 1 are prime; the int64 elimination
    # would wrap (or overflow) on them
    for p in (4294967311, 2**61 - 1, 2**89 - 1):
        with pytest.raises(CapacityError, match="2\\^31"):
            rank_mod_p([[1, 1], [1, 2]], p)
    assert rank_mod_p([[1, 1], [1, 2]], 2**31 - 1) == 2


def test_rank_mod_p_never_exceeds_rational_rank():
    rng = random.Random(3)
    for _ in range(500):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        q = rank_exact(rows)
        for p in (2, 5, 101, 2**31 - 1):
            assert rank_mod_p(rows, p) <= q


def test_rank_mod_p_accepts_numpy_and_packed():
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    arr = np.array(rows)
    packed = BoolMatrix(("a", "b", "c"), ("x", "y", "z"), 3,
                        (0b101, 0b110, 0b011))
    assert rank_mod_p(arr, 5) == rank_mod_p(rows, 5) == 3
    assert rank_mod_p(packed, 2) == rank_mod_p(rows, 2) == 2
    assert rank_exact(packed) == 3


def test_rank_mod_2_against_fraction_oracle_in_characteristic_two():
    # reduce mod 2 first, then the Fraction elimination is a GF(2) oracle
    # because all intermediate values stay 0/1-valued rationals mod 2; use
    # the exact rank of the 0/1 matrix lifted to integers as reference via
    # brute-force pivoting over GF(2)
    def gf2_rank_oracle(rows):
        mat = [r[:] for r in rows]
        rank = 0
        ncols = len(mat[0]) if mat else 0
        for col in range(ncols):
            piv = next((r for r in range(rank, len(mat)) if mat[r][col] % 2), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            for r in range(len(mat)):
                if r != rank and mat[r][col] % 2:
                    mat[r] = [(a + b) % 2 for a, b in zip(mat[r], mat[rank])]
            rank += 1
        return rank

    rng = random.Random(9)
    for _ in range(400):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        assert rank_mod_p(rows, 2) == gf2_rank_oracle(rows)


def test_rank_mod_p_jobs_do_not_change_result():
    rng = random.Random(6)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows = [[rng.randint(0, 6) for _ in range(ncols)] for _ in range(nrows)]
        assert rank_mod_p(rows, 7, jobs=3) == rank_mod_p(rows, 7)
    from ufabound.witness import build_K
    k3 = build_K(3)
    assert rank_mod_p(k3, 2**31 - 1, jobs=2) == 115
