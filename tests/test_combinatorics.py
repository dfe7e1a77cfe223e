import itertools
from math import factorial

import pytest

from ufabound import combinatorics as cmb
from ufabound import tables
from ufabound.errors import CapacityError


def partitions_brute_force(n, k):
    """Oracle: count partitions of {1..n} into exactly k non-empty blocks.

    A partition corresponds to exactly one labelling whose block labels
    first appear in increasing order (a restricted growth string).
    """
    count = 0
    for labels in itertools.product(range(k), repeat=n):
        if len(set(labels)) != k:
            continue
        first_seen = []
        for lab in labels:
            if lab not in first_seen:
                first_seen.append(lab)
        if first_seen == sorted(first_seen):
            count += 1
    return count


class TestStirling:
    def test_against_partition_enumeration(self):
        for n in range(0, 7):
            for k in range(0, n + 1):
                assert cmb.stirling2(n, k) == partitions_brute_force(n, k)

    def test_diagonal_and_near_diagonal(self):
        for n in range(1, 9):
            assert cmb.stirling2(n, n) == 1
        assert cmb.stirling2(4, 3) == 6  # one two-element block out of C(4,2)
        assert cmb.stirling2(3, 2) == 3

    def test_range_errors(self):
        with pytest.raises(ValueError):
            cmb.stirling2(2, 3)
        with pytest.raises(ValueError):
            cmb.stirling2(2, -1)

    def test_large_n_needs_no_recursion(self):
        # a recursive recurrence would exceed Python's recursion limit here
        assert cmb.stirling2(3000, 2) == 2**2999 - 1
        assert cmb.count_ordered_prefix_tables(1000) > cmb.asymptotic_floor(1000)


def surjections_with_pin_brute_force(n, k):
    # functions {1..n+1} -> {1..k+1}, onto, sending n+1 to k+1
    count = 0
    for values in itertools.product(range(1, k + 2), repeat=n):
        full = values + (k + 1,)
        if set(full) == set(range(1, k + 2)):
            count += 1
    return count


def ordered_partitions_brute_force(n, k):
    # surjective labellings of {1..n} with k+1 ordered block labels
    count = 0
    for values in itertools.product(range(k + 1), repeat=n):
        if set(values) == set(range(k + 1)):
            count += 1
    return count


class TestLayerCounts:
    def test_p_count_against_enumeration(self):
        for n in range(1, 5):
            for k in range(0, n):
                assert cmb.p_count(n, k) == surjections_with_pin_brute_force(n, k)

    def test_s_count_against_enumeration(self):
        for n in range(1, 5):
            for k in range(0, n):
                assert cmb.s_count(n, k) == ordered_partitions_brute_force(n, k)

    def test_the_bijection_has_both_factors_of_each_rank(self):
        # the tables of rank k pair every layer function with every chain
        for n in range(1, 5):
            layer_functions, chains = {}, {}
            for f in cmb.enumerate_ordered_prefix_tables(n):
                ls = tables.layer_structure(f)
                layer_functions.setdefault(ls.rank_k, set()).add(ls.prefix_layer)
                chains.setdefault(ls.rank_k, set()).add(ls.nested_sets)
            assert {k: len(ps) for k, ps in layer_functions.items()} == {
                k: cmb.p_count(n, k) for k in range(n)}, n
            assert {k: len(ss) for k, ss in chains.items()} == {
                k: cmb.s_count(n, k) for k in range(n)}, n

    def test_named_values(self):
        assert cmb.p_count(2, 1) == 3
        assert cmb.s_count(2, 1) == 2
        for n in (1, 2, 3, 5):
            assert cmb.p_count(n, 0) == 1
            assert cmb.s_count(n, 0) == 1

    def test_rank_range_enforced(self):
        with pytest.raises(ValueError):
            cmb.p_count(3, 3)
        with pytest.raises(ValueError):
            cmb.s_count(3, -1)


class TestCount:
    def test_small_values(self):
        assert [cmb.count_ordered_prefix_tables(n) for n in (1, 2, 3)] == [1, 7, 115]

    def test_matches_filter_enumeration(self):
        for n in (1, 2, 3, 4):
            if n == 1:
                filtered = [tables.PrefixTable(1, (2,))]
            else:
                filtered = tables.enumerate_ordered_prefix_tables_by_filter(n)
            assert len(filtered) == cmb.count_ordered_prefix_tables(n)


class TestBijectionEnumeration:
    def test_matches_filter_for_n2(self):
        via_layers = {f.values for f in cmb.enumerate_ordered_prefix_tables(2)}
        via_filter = {f.values
                      for f in tables.enumerate_ordered_prefix_tables_by_filter(2)}
        assert via_layers == via_filter

    def test_rank_histogram_n2(self):
        hist = {}
        for f in cmb.enumerate_ordered_prefix_tables(2):
            k = tables.layer_structure(f).rank_k
            hist[k] = hist.get(k, 0) + 1
        assert hist == {0: 1, 1: 6}

    def test_born_structures_match_the_computed_ones(self):
        for n in range(1, 5):
            for f in cmb.enumerate_ordered_prefix_tables(n):
                assert tables.is_ordered(f)
                fresh = tables.PrefixTable(n, f.values)
                assert tables.layer_structure(f) == tables.layer_structure(fresh), f

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            cmb.enumerate_ordered_prefix_tables(6)


class TestTable1:
    def test_named_rows(self):
        assert cmb.table1_row(1) == (1, 1, 1, 1)
        assert cmb.table1_row(3) == (39, 39, 115, 133)
        assert cmb.table1_row(5) == (2055, 2505, 164731, 1613581)


class TestAsymptoticFloor:
    def test_values(self):
        assert cmb.asymptotic_floor(1) == 0
        assert cmb.asymptotic_floor(4) == 864
        assert cmb.asymptotic_floor(4) <= 3451

    def test_closed_form_is_integral(self):
        from math import comb
        for n in range(1, 12):
            assert cmb.asymptotic_floor(n) == comb(n, 2) * factorial(n - 1) * factorial(n)

    def test_stays_below_count(self):
        for n in range(2, 9):
            assert cmb.asymptotic_floor(n) <= cmb.count_ordered_prefix_tables(n)
