import random
from fractions import Fraction

import numpy as np
import pytest

from ufabound import exact_linalg, witness
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


def _over_cap_deficient():
    # 4000 distinct rows over 3000 columns, 12 million entries: every row is
    # even, so column 0 is zero, and the GF(2) rank (at most 13, the rows
    # having 13 bits) falls short of 3000
    return BoolMatrix(tuple(range(4000)), tuple(range(3000)), 3000,
                      tuple(2 * (i + 1) for i in range(4000)))


def test_rank_exact_capacity_guard():
    with pytest.raises(CapacityError, match="4000x3000 matrix with 4000 distinct non-zero "
                                            "rows exceeds the 10000000-entry"):
        rank_exact(_over_cap_deficient())


def test_rank_exact_refuses_before_converting_entries(monkeypatch):
    def no_lists(self):
        raise AssertionError("the entries were converted before the size check")

    monkeypatch.setattr(BoolMatrix, "to_lists", no_lists)
    with pytest.raises(CapacityError, match="exceeds the 10000000-entry"):
        rank_exact(_over_cap_deficient())


def test_rank_exact_returns_a_full_gf2_rank_beyond_the_size_limit(monkeypatch):
    # 3001 x 3400 is over 10^7 entries, but the rows 1 << i have full GF(2)
    # rank, which certifies the rational rank without elimination
    def no_lists(self):
        raise AssertionError("a full GF(2) rank went through elimination")

    monkeypatch.setattr(BoolMatrix, "to_lists", no_lists)
    eye = BoolMatrix(tuple(range(3001)), tuple(range(3400)), 3400,
                     tuple(1 << i for i in range(3001)))
    assert rank_exact(eye) == 3001


def test_rank_exact_limits_the_distinct_rows(monkeypatch):
    # 5000 rows over 3000 columns are over the limit, but only their 3
    # distinct rows are eliminated: the det-2 circulant has rank 3
    circulant = [0b011, 0b110, 0b101]
    rows = (circulant * 1667)[:5000]
    m = BoolMatrix(tuple(range(5000)), tuple(range(3000)), 3000, tuple(rows))
    assert rank_mod_p(m, 2) == 2
    assert rank_exact(m) == 3


def test_rank_exact_returns_a_full_gf2_rank_without_elimination(monkeypatch):
    # K at n = 3 has rank 115 over GF(2), its row count: an odd minor of
    # order 115 proves the rational rank, so no entry is unpacked
    k = witness.build_K(3)

    def no_lists(self):
        raise AssertionError("a full GF(2) rank went through elimination")

    monkeypatch.setattr(BoolMatrix, "to_lists", no_lists)
    assert rank_exact(k) == 115


def test_rank_exact_eliminates_when_the_gf2_rank_falls_short(monkeypatch):
    # the circulant has determinant 2: rank 2 mod 2 but 3 over the rationals
    converted = []
    real = BoolMatrix.to_lists

    def counted(self):
        converted.append(self)
        return real(self)

    monkeypatch.setattr(BoolMatrix, "to_lists", counted)
    circulant = packed([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert rank_mod_p(circulant, 2) == 2
    assert rank_exact(circulant) == 3
    assert converted == [circulant]


def test_rank_exact_eliminates_only_the_distinct_non_zero_rows(monkeypatch):
    # zero rows, repeated rows and a doubled det-2 circulant: rank 2 mod 2
    # but 3 over the rationals, so elimination runs, on the three distinct
    # rows only
    converted = []
    real = BoolMatrix.to_lists

    def counted(self):
        converted.append(self.rows)
        return real(self)

    monkeypatch.setattr(BoolMatrix, "to_lists", counted)
    circulant = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    doubled = packed([[0, 0, 0], *circulant, [0, 0, 0], *circulant, circulant[1]])
    assert rank_mod_p(doubled, 2) == 2
    assert rank_exact(doubled) == 3
    assert converted == [3]
    assert rank_exact(packed([], 3)) == 0
    assert rank_exact(packed([[0, 0, 0]] * 4)) == 0
    assert rank_exact(packed([[1, 0, 1]] * 5)) == 1
    # a full GF(2) rank of the distinct rows needs no elimination, though
    # the GF(2) rank falls short of the shape's min(rows, cols)
    assert rank_exact(packed([[1, 0, 1, 1], [0, 1, 1, 0]] * 3 + [[0] * 4])) == 2
    assert converted == [3]


def test_rank_exact_refuses_only_after_the_gf2_rank(monkeypatch):
    # the GF(2) certificate comes first, on the distinct non-zero rows, and
    # the size limit only when it falls short
    ranked = []
    real = exact_linalg._rank_mod_2

    def counted(bits):
        ranked.append(len(bits))
        return real(bits)

    monkeypatch.setattr(exact_linalg, "_rank_mod_2", counted)
    with pytest.raises(CapacityError, match="exceeds the 10000000-entry"):
        rank_exact(_over_cap_deficient())
    assert ranked == [4000]


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
    # 1763 = 41·43, 8321 = 53·157 (a strong pseudoprime to base 2) and
    # 252601 = 41·61·101 (a Carmichael number) have no small factor, so
    # only a witness round of Miller-Rabin refuses them
    for bad in (1, 4, 2**31, 1763, 8321, 252601):
        with pytest.raises(ValueError):
            rank_mod_p(packed([[1]]), bad)
    assert not any(map(exact_linalg._is_prime, (1763, 8321, 252601)))


def test_rank_mod_p_rejects_primes_beyond_int64_range():
    # 2^32 + 15, 2^61 - 1 and 2^89 - 1 are prime; the int64 elimination
    # would wrap (or overflow) on them
    m = packed([[1, 1], [1, 0]])
    for p in (4294967311, 2**61 - 1, 2**89 - 1):
        with pytest.raises(CapacityError, match="2\\^31"):
            rank_mod_p(m, p)
    assert rank_mod_p(m, 2**31 - 1) == 2


def test_rank_mod_p_refuses_a_modulus_too_long_to_print():
    # past Python's 4,300-digit limit on int-to-text conversion; the
    # refusal neither prints its digits nor tests its primality
    with pytest.raises(CapacityError, match="2\\^31") as refused:
        rank_mod_p(packed([[1]]), 10**4999 + 1)
    assert len(str(refused.value)) < 200


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


def test_eliminate_mod_p_against_elimination_oracle():
    # the int64 reduction by floor division, on every column of the residues
    # and with no GF(2) pivot minor first; at 65537 and 2^31 - 1 the
    # products of residues pass 2^32 and 2^62 - 2^33
    rng = random.Random(31)
    for _ in range(200):
        rows = random_rows(rng, rng.randint(1, 14), rng.randint(1, 14))
        for p in (3, 65537, 2**31 - 1):
            arr = np.array(rows, dtype=np.int32)
            assert exact_linalg._eliminate_mod_p(arr, p) == rank_mod_p_oracle(rows, p)


def test_rank_mod_p_reduces_in_chunks_of_rows(monkeypatch):
    # one or two rows per chunk of the update below each pivot
    monkeypatch.setattr(exact_linalg, "CHUNK_ELEMS", 20)
    rng = random.Random(12)
    for _ in range(100):
        rows = random_rows(rng, rng.randint(1, 12), 10)
        for p in (3, 2**31 - 1):
            assert rank_mod_p(packed(rows), p) == rank_mod_p_oracle(rows, p)


def counted_eliminations(monkeypatch):
    """The shapes of the arrays rank_mod_p hands to its elimination."""
    shapes = []
    real = exact_linalg._eliminate_mod_p

    def counted(arr, p):
        shapes.append(arr.shape)
        return real(arr, p)

    monkeypatch.setattr(exact_linalg, "_eliminate_mod_p", counted)
    return shapes


def test_rank_mod_p_returns_a_full_rank_of_the_gf2_pivot_minor(monkeypatch):
    # K at n = 3 has full GF(2) row rank, and its 115 x 115 pivot minor has
    # full rank mod 2^31 - 1: no other column is eliminated
    shapes = counted_eliminations(monkeypatch)
    assert rank_mod_p(witness.build_K(3), 2**31 - 1) == 115
    assert shapes == [(115, 115)]


def test_rank_mod_p_eliminates_every_column_when_the_gf2_rank_falls_short(monkeypatch):
    # M at n = 3 has 133 distinct non-zero rows of GF(2) rank 115: no minor
    # is tried, and all 217 columns of the distinct rows are eliminated
    shapes = counted_eliminations(monkeypatch)
    m = witness.build_M(3)
    assert rank_mod_p(m, 3) == rank_mod_p_oracle(m.to_lists(), 3) == 115
    assert shapes == [(133, 217)]


def test_rank_mod_p_falls_back_when_the_pivot_minor_is_singular(monkeypatch):
    # full GF(2) row rank on pivot columns 1-4, whose minor is singular mod
    # 3; column 0 brings the rank mod 3 back to 4
    shapes = counted_eliminations(monkeypatch)
    rows = [[0, 1, 1, 0, 0], [1, 1, 0, 1, 0], [0, 0, 1, 1, 1], [1, 1, 0, 0, 1]]
    assert exact_linalg._rank_mod_2(packed(rows).bits) == [1, 2, 3, 4]
    assert rank_mod_p(packed(rows), 3) == rank_mod_p_oracle(rows, 3) == 4
    assert shapes == [(4, 4), (4, 5)]


def test_rank_mod_p_fallback_confirms_a_rank_below_the_gf2_rank(monkeypatch):
    # GF(2) rank 4, but the first three rows less the last are (3, 0, 0, 0),
    # zero mod 3: the minor falls short and every column confirms rank 3
    shapes = counted_eliminations(monkeypatch)
    rows = [[1, 0, 0, 1], [1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 1, 1]]
    assert rank_mod_p(packed(rows), 2) == 4
    assert rank_mod_p(packed(rows), 3) == rank_mod_p_oracle(rows, 3) == 3
    assert shapes == [(4, 4), (4, 4)]


def test_rank_mod_p_of_wide_matrices_with_repeated_and_zero_rows():
    rng = random.Random(20)
    for _ in range(150):
        ncols = rng.randint(8, 40)
        base = random_rows(rng, rng.randint(1, 8), ncols)
        rows = base + [rng.choice(base)[:] for _ in range(rng.randint(0, 4))]
        rows += [[0] * ncols] * rng.randint(0, 2)
        rng.shuffle(rows)
        for p in (3, 7, 2**31 - 1):
            assert rank_mod_p(packed(rows), p) == rank_mod_p_oracle(rows, p)


def test_to_numpy_of_selected_columns_is_the_slice_of_the_lists(monkeypatch):
    # a few rows per unpacked chunk, columns in any order, and none at all
    monkeypatch.setattr(witness, "CHUNK_ELEMS", 50)
    rng = random.Random(21)
    for _ in range(50):
        rows = random_rows(rng, rng.randint(0, 9), rng.randint(1, 30))
        m = packed(rows, len(rows[0]) if rows else 5)
        cols = rng.sample(range(m.cols), rng.randint(0, m.cols))
        arr = m.to_numpy(cols)
        assert arr.dtype == np.int32 and arr.shape == (m.rows, len(cols))
        assert arr.tolist() == [[row[c] for c in cols] for row in m.to_lists()]
