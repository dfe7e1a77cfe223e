"""Acceptance suite: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Set UFABOUND_EXTENDED=1 to include the long n=4 rank
certification.
"""

import hashlib
import itertools
import os
import random
import time

import pytest

from ufabound import combinatorics as cmb
from ufabound import crossing, exact_linalg, tables, witness
from ufabound.statesets import elements

from conftest import oracle_layers

MERSENNE = 2**31 - 1

ORDERED_TABLE_COUNTS = [1, 7, 115, 3451, 164731, 11467387,
                        1096832395, 138027417451]

BOUNDS_TABLE = {
    1: (1, 1, 1, 1),
    2: (6, 6, 7, 7),
    3: (39, 39, 115, 133),
    4: (276, 292, 3451, 7891),
    5: (2055, 2505, 164731, 1613581),
    6: (15798, 24306, 11467387, 1201168507),
    7: (124173, 263431, 1096832395, 3360710751133),
    8: (992232, 3154824, 138027417451, 36005748492454531),
}


def report(line):
    print(line)


def test_criterion_1_counting_formula():
    start = time.perf_counter()
    got = [cmb.count_ordered_prefix_tables(n) for n in range(1, 9)]
    elapsed = time.perf_counter() - start
    assert got == ORDERED_TABLE_COUNTS
    assert elapsed < 1.0
    report(f"criterion 1 PASS: counts for n=1..8 exact ({elapsed:.3f}s)")


def test_criterion_2_bounds_table():
    start = time.perf_counter()
    for n, expected in BOUNDS_TABLE.items():
        assert cmb.table1_row(n) == expected, f"row {n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 2 PASS: all four columns match for n=1..8 ({elapsed:.3f}s)")


def test_criterion_3_enumeration_consistency():
    start = time.perf_counter()
    sizes = {}
    for n in (2, 3, 4):
        by_filter = {f.values for f in tables.enumerate_ordered_prefix_tables_by_filter(n)}
        by_layers = {f.values for f in cmb.enumerate_ordered_prefix_tables(n)}
        assert by_filter == by_layers, f"n={n}"
        sizes[n] = len(by_filter)
    elapsed = time.perf_counter() - start
    assert sizes == {2: 7, 3: 115, 4: 3451}
    assert elapsed < 10.0
    report(f"criterion 3 PASS: filter and layer enumerations agree, "
           f"sizes 7/115/3451 ({elapsed:.1f}s)")


def test_criterion_4_rank_equals_count():
    start = time.perf_counter()
    m2, k2 = witness.build_M(2), witness.build_K(2)
    assert exact_linalg.rank_exact(m2) == 7
    assert exact_linalg.rank_exact(k2) == 7
    m3, k3 = witness.build_M(3), witness.build_K(3)
    assert exact_linalg.rank_mod_p(m3, MERSENNE) == 115
    assert exact_linalg.rank_mod_p(k3, MERSENNE) == 115
    assert (k3.rows, k3.cols) == (115, 217)
    assert exact_linalg.rank_exact(k3) == 115
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"criterion 4 PASS: ranks 7 and 115 confirmed ({elapsed:.1f}s)")


@pytest.mark.skipif(not os.environ.get("UFABOUND_EXTENDED"),
                    reason="set UFABOUND_EXTENDED=1 for the long n=4 rank run")
def test_criterion_4_extended_n4_rank():
    k4 = witness.build_K(4)
    assert (k4.rows, k4.cols) == (3451, 17985)
    digest = hashlib.sha256(b"".join(b.to_bytes((k4.cols + 7) // 8, "little")
                                     for b in k4.bits)).hexdigest()
    assert digest == "f9506179efc3d49f751458648f2b7aaa2fedf1797e49167e8c52762b45aa5c26"
    got = exact_linalg.rank_mod_p(k4, MERSENNE)
    assert got == 3451
    report("criterion 4 (extended) PASS: n=4 matrix has full row rank 3451")


def simulated(f, g):
    return int(witness.WitnessAutomaton(f.n, [f], [g]).accepts(f, g))


def test_criterion_5_graph_entries_match_simulation():
    fs2 = tables.enumerate_prefix_tables(2)
    gs2 = tables.enumerate_suffix_tables(2)
    assert len(fs2) * len(gs2) == 63
    m2 = witness.acceptance_matrix(fs2, gs2, 2)
    for i, f in enumerate(fs2):
        for j, g in enumerate(gs2):
            assert m2.entry(i, j) == simulated(f, g), (f, g)
    rng = random.Random(0)
    m3 = witness.build_M(3)
    for _ in range(10_000):
        i, j = rng.randrange(m3.rows), rng.randrange(m3.cols)
        f, g = m3.row_labels[i], m3.col_labels[j]
        assert m3.entry(i, j) == simulated(f, g), (f, g)
    report("criterion 5 PASS: 63 exhaustive + 10000 random pairs, "
           "zero disagreements")


def test_criterion_6_augmentation_row_identity():
    m = witness.build_M(3)
    index = {f.values: i for i, f in enumerate(m.row_labels)}
    quadruples = 0
    for f in m.row_labels:
        for u1, u2 in itertools.permutations(range(1, 4), 2):
            only_u1 = f.value(u1) & ~f.value(u2)
            only_u2 = f.value(u2) & ~f.value(u1)
            for v1 in elements(only_u1):
                for v2 in elements(only_u2):
                    fe, fep, fee = tables.augment(f, u1, u2, v1, v2)
                    a = m.bits[index[f.values]]
                    b = m.bits[index[fe.values]]
                    c = m.bits[index[fep.values]]
                    d = m.bits[index[fee.values]]
                    # a + d == b + c entrywise, for every suffix-table column
                    assert (a ^ d) == (b ^ c) and (a & d) == (b & c), (f, u1, u2, v1, v2)
                    quadruples += 1
    assert quadruples > 0
    report(f"criterion 6 PASS: row identity on {quadruples} quadruples x 217 "
           "columns, zero violations")


def _check_staged_table_properties(f, f0, n):
    ls = tables.layer_structure(f0)
    k = ls.rank_k
    # the pair's drop-down and breakthrough layers from the plain-set
    # oracle, bit i = layer i of f0
    layers = oracle_layers(f, f0)
    drop = sum(d << i for i, (d, _) in enumerate(layers))
    brk = sum(b << i for i, (_, b) in enumerate(layers))
    if f.values != f0.values and tables.table_size(f) >= tables.table_size(f0):
        assert brk, ("forced breakthrough missing", f, f0)
    stages = [{i for i in range(k) if bits >> i & 1} for bits in range(1 << k)]
    staged = [witness.build_g_I(f0, stage) for stage in stages]
    [row] = witness.acceptance_matrix([f], staged, n).bits
    evaluated = 0
    for bits, (stage, g) in enumerate(zip(stages, staged)):
        if k - 1 in stage:
            expected_accept = tables.mask_of(
                v for v in range(1, n + 1) if ls.suffix_layer[v - 1] >= k - 1)
        else:
            expected_accept = tables.mask_of(
                v for v in range(1, n + 1) if ls.suffix_layer[v - 1] == k)
        assert g.accept_flags == expected_accept, ("accept set", f0, stage)
        entry = row >> bits & 1
        if drop:
            assert entry == 0, ("drop-down row not zero", f, f0, stage)
        else:
            want = int(bits | brk == (1 << k) - 1)
            assert entry == want, ("breakthrough completion", f, f0, stage)
        evaluated += 1
    return evaluated


def test_criterion_7_staged_table_properties():
    ordered3 = cmb.enumerate_ordered_prefix_tables(3)
    entries = 0
    for f in ordered3:
        for f0 in ordered3:
            entries += _check_staged_table_properties(f, f0, 3)
    rng = random.Random(1)
    ordered4 = cmb.enumerate_ordered_prefix_tables(4)
    for _ in range(1000):
        entries += _check_staged_table_properties(rng.choice(ordered4), rng.choice(ordered4), 4)
    report(f"criterion 7 PASS: staged-table properties on {entries} entries "
           "(exhaustive n=3 + 1000 random n=4 pairs), zero violations")


def test_criterion_8_optimality_campaign():
    start = time.perf_counter()
    for states, instances, bound in ((2, 500, 7), (3, 100, 115)):
        for seed in range(instances):
            result = next(crossing.random_campaign(states, 2, [seed]))
            assert result.ok, result.to_json()
            assert result.rank <= bound, result.to_json()
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(f"criterion 8 PASS: 500 two-state + 100 three-state instances, "
           f"ranks within 7/115, reductions exact ({elapsed:.1f}s)")


def test_criterion_9_asymptotic_floor():
    for n in range(2, 9):
        assert cmb.asymptotic_floor(n) <= cmb.count_ordered_prefix_tables(n), n
    from math import factorial
    for n in (6, 7, 8):
        assert cmb.count_ordered_prefix_tables(n) > 2**n * factorial(n), n
    assert cmb.count_ordered_prefix_tables(6) == 11467387
    assert 2**6 * factorial(6) == 46080
    report("criterion 9 PASS: floor stays below the count for n=2..8, and the "
           "count clears the 2^n n! threshold from n=6")
