import copy
import functools
import itertools
import pickle
import random

import pytest

from ufabound.errors import CapacityError
from ufabound.statesets import elements, full_mask, mask_of
from ufabound.tables import (PrefixTable, SuffixTable, augment,
                             enumerate_prefix_tables, enumerate_suffix_tables,
                             is_ordered, layer_structure, layered_tables,
                             prefix_table_from_text, prefix_table_to_text,
                             starting_state, suffix_table_from_text,
                             suffix_table_to_text, table_size)
from ufabound.verification import (Run, _complement_rank, _study_of, _unordered_witness,
                                   check_layer_rank)
from ufabound.witness import acceptance_matrix, staged_matrix

from conftest import oracle_layers, reach_up_to


def pt(n, *sets):
    return PrefixTable.from_sets(n, sets)


CHAIN3 = pt(3, {1}, {1, 2}, {1, 2, 3})


def starting_states_brute_force(f):
    """Oracle: check the containment condition with plain Python sets."""
    sets = [set(elements(v)) for v in f.values]
    return [i + 1 for i, s in enumerate(sets) if all(s <= t for t in sets)]


class TestPrefixTableInvariants:
    def test_rejects_empty_value(self):
        with pytest.raises(ValueError):
            pt(2, {1}, set())

    def test_rejects_missing_starting_state(self):
        with pytest.raises(ValueError):
            pt(2, {1}, {2})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pt(2, {1}, {3})

    def test_every_enumerated_table_has_brute_force_starting_state(self):
        for f in enumerate_prefix_tables(3):
            starts = starting_states_brute_force(f)
            assert starts
            assert starting_state(f) == min(starts)


class TestStartingStateAndSize:
    def test_constant_full_table(self):
        assert starting_state(pt(3, {1, 2, 3}, {1, 2, 3}, {1, 2, 3})) == 1

    def test_subset_scan_examples(self):
        # frozen from the brute-force containment oracle
        f = pt(2, {2}, {1, 2})
        assert starting_states_brute_force(f) == [1]
        assert starting_state(f) == 1
        g = pt(3, {1, 2}, {1}, {1, 2, 3})
        assert starting_states_brute_force(g) == [2]
        assert starting_state(g) == 2

    def test_table_size(self):
        assert table_size(pt(3, {1}, {1}, {1})) == 3
        assert table_size(pt(3, {1, 2, 3}, {1, 2, 3}, {1, 2, 3})) == 9
        assert table_size(pt(2, {2}, {1, 2})) == 3


class TestSuffixTableInvariants:
    def test_accept_entry_must_be_full(self):
        with pytest.raises(ValueError):
            SuffixTable.from_sets(2, [{1}, {1, 2}], accept={1})

    def test_accept_flags_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SuffixTable.from_sets(2, [{1}, {2}], accept=set())

    def test_empty_values_are_legal_outside_accept(self):
        g = SuffixTable.from_sets(2, [{1, 2}, set()], accept={1})
        assert g.value(2) == 0


def st(n, sets, accept):
    return SuffixTable.from_sets(n, sets, accept)


class TestRecords:
    """The tables are slotted records that behave as the frozen dataclasses
    of their fields: repr, equality, hash and immutability."""

    def test_repr(self):
        assert repr(pt(2, {1}, {1, 2})) == "PrefixTable(n=2, values=(2, 6))"
        assert repr(st(2, [{1, 2}, set()], {1})) == \
            "SuffixTable(n=2, values=(6, 0), accept_flags=2)"

    def test_hash_is_the_field_tuples(self):
        assert hash(pt(2, {1}, {1, 2})) == hash((2, (2, 6)))
        assert hash(st(2, [{1, 2}, set()], {1})) == hash((2, (6, 0), 2))

    def test_equality_needs_the_same_class_and_fields(self):
        f, g = PrefixTable(2, (6, 6)), SuffixTable(2, (6, 6), 2)
        assert f == PrefixTable(2, [6, 6]) and g == SuffixTable(2, (6, 6), 2)
        assert f != g and g != f
        assert f != (2, (6, 6)) and g != (2, (6, 6), 2)
        assert g != SuffixTable(2, (6, 6), 6) and f != PrefixTable(2, (2, 6))

    @pytest.mark.parametrize("table", [CHAIN3, st(2, [{1, 2}, set()], {1})])
    def test_fields_can_be_neither_assigned_nor_deleted(self, table):
        for name in ("n", "values", "accept_flags", "_layers", "other"):
            with pytest.raises(AttributeError):
                setattr(table, name, 1)
            with pytest.raises(AttributeError):
                delattr(table, name)
        assert table.n in (2, 3)

    def test_copies_are_equal(self):
        for table in (CHAIN3, st(2, [{1, 2}, set()], {1})):
            assert pickle.loads(pickle.dumps(table)) == table
            assert copy.copy(table) == table == copy.deepcopy(table)

    def test_a_layered_table_is_the_plain_table_of_its_values(self):
        # the layer structure a table is born with is no field: the table
        # compares, hashes, prints and pickles as the one built from values
        [layered] = layered_tables(3, (0b0010, 0b0110, 0b1110), [(0, 1, 2)])
        plain = PrefixTable(3, layered.values)
        assert layered == plain == layered and hash(layered) == hash(plain)
        assert repr(layered) == repr(plain)
        assert pickle.dumps(layered) == pickle.dumps(plain)
        assert pickle.loads(pickle.dumps(layered)) == plain

    @pytest.mark.parametrize("n, values, message", [
        (0, (), "n must be positive, got 0"),
        (2, (2,), "a prefix table needs one value per state"),
        (2, (2, 0), "prefix table values must be non-empty"),
        (2, (2, 8), "value out of range"),
        (2, (2, 1), "value out of range"),
        (2, (2, 4), "no starting state: some value must be contained in all others"),
    ])
    def test_prefix_table_errors(self, n, values, message):
        with pytest.raises(ValueError) as exc:
            PrefixTable(n, values)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n, values, accept, message", [
        (0, (), 2, "n must be positive, got 0"),
        (2, (6,), 2, "a suffix table needs one value per state"),
        (2, (6, 6), 0, "some state must lead to acceptance"),
        (2, (6, 6), 8, "accept flags out of range"),
        (2, (6, 6), 1, "accept flags out of range"),
        (2, (6, 8), 2, "value out of range"),
        (2, (6, 2), 6, "an accepting entry must carry the full set"),
    ])
    def test_suffix_table_errors(self, n, values, accept, message):
        with pytest.raises(ValueError) as exc:
            SuffixTable(n, values, accept)
        assert str(exc.value) == message


class TestHaspath:
    """Path existence in the bipartite graph of a table pair: the entries
    of an acceptance_matrix row."""

    def test_single_arc(self):
        assert acceptance_matrix([pt(1, {1})], [st(1, [{1}], {1})], 1).bits == (1,)

    def test_no_arcs(self):
        # no arc leads from right vertex 2 back to the left side
        f = pt(2, {2}, {2})
        assert acceptance_matrix([f], [st(2, [{1, 2}, set()], {1})], 2).bits == (0,)

    def test_alternating_path(self):
        # (L,1)->(R,2), (R,2)->(L,2), (L,2)->(R,1); target {1}; only the
        # first column has the arc (R,2)->(L,2)
        f = pt(2, {2}, {1, 2})
        gs = [st(2, [{1, 2}, {2}], {1}), st(2, [{1, 2}, set()], {1})]
        assert acceptance_matrix([f], gs, 2).bits == (0b01,)


class TestAugment:
    def test_example(self):
        f = pt(3, {1}, {1, 2}, {1, 3})
        fe, fep, fee = augment(f, 2, 3, 2, 3)
        assert fe.value(2) == mask_of({1, 2, 3}) and fe.value(3) == f.value(3)
        assert fep.value(3) == mask_of({1, 2, 3}) and fep.value(2) == f.value(2)
        assert fee.value(2) == fee.value(3) == mask_of({1, 2, 3})
        assert table_size(fee) == table_size(f) + 2

    def test_precondition_violations(self):
        f = pt(3, {1}, {1, 2}, {1, 3})
        with pytest.raises(ValueError):
            augment(f, 2, 2, 2, 3)       # u1 == u2
        with pytest.raises(ValueError):
            augment(f, 2, 3, 2, 2)       # v1 == v2
        with pytest.raises(ValueError):
            augment(f, 2, 3, 3, 2)       # v1 not in f(u1)
        with pytest.raises(ValueError):
            augment(f, 2, 3, 1, 3)       # v2 = 3 but cross arc demands absence of 1 in f(3)

    def test_exhaustive_preservation_n3(self):
        # every valid quadruple keeps validity, the starting state, and adds two arcs
        for f in enumerate_prefix_tables(3):
            s = starting_state(f)
            for u1, u2 in itertools.permutations(range(1, 4), 2):
                for v1 in elements(f.value(u1) & ~f.value(u2)):
                    for v2 in elements(f.value(u2) & ~f.value(u1)):
                        fe, fep, fee = augment(f, u1, u2, v1, v2)
                        for h in (fe, fep, fee):
                            assert starting_state(h) == s
                        assert table_size(fee) == table_size(f) + 2
                        assert table_size(fe) == table_size(fep) == table_size(f) + 1


class TestOrderedness:
    def test_all_n2_tables_are_ordered(self):
        assert all(is_ordered(f) for f in enumerate_prefix_tables(2))

    def test_unordered_example(self):
        assert not is_ordered(pt(3, {1}, {1, 2}, {1, 3}))

    def test_constant_table_is_ordered(self):
        assert is_ordered(pt(3, {2}, {2}, {2}))

    def test_characterizations_agree_exhaustively(self):
        for n in (2, 3):
            for f in enumerate_prefix_tables(n):
                assert (_unordered_witness(f) is None) == is_ordered(f), f

    def test_characterizations_agree_random_n4(self):
        rng = random.Random(5)
        pool = enumerate_prefix_tables(4)
        for f in rng.sample(pool, 500):
            assert (_unordered_witness(f) is None) == is_ordered(f), f


class TestLayerStructure:
    def test_chain_table(self):
        ls = layer_structure(CHAIN3)
        assert ls.rank_k == 2
        assert ls.nested_sets == (mask_of({1}), mask_of({1, 2}), mask_of({1, 2, 3}))
        assert ls.prefix_layer == (0, 1, 2)
        assert ls.suffix_layer == (0, 1, 2)

    def test_constant_full(self):
        ls = layer_structure(pt(3, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}))
        assert ls.rank_k == 0
        assert ls.nested_sets == (full_mask(3),)
        assert ls.prefix_layer == (0, 0, 0)
        assert ls.suffix_layer == (0, 0, 0)

    def test_constant_proper_subset(self):
        ls = layer_structure(pt(3, {1, 2}, {1, 2}, {1, 2}))
        assert ls.rank_k == 1
        assert ls.nested_sets == (mask_of({1, 2}), full_mask(3))
        assert ls.prefix_layer == (0, 0, 0)
        assert ls.suffix_layer == (0, 0, 1)

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            layer_structure(pt(3, {1}, {1, 2}, {1, 3}))

    def test_starting_state_sits_on_layer_zero(self):
        for f in enumerate_prefix_tables(3):
            if not is_ordered(f):
                continue
            ls = layer_structure(f)
            assert ls.prefix_layer[starting_state(f) - 1] == 0
            assert all(p <= ls.rank_k for p in ls.prefix_layer)

    def test_layered_tables_are_born_with_their_structure(self):
        chain = (mask_of({1}), mask_of({1, 2}), full_mask(3))
        f, g = layered_tables(3, chain, [(1, 0, 2), (0, 1, 1)])
        assert f == pt(3, {1, 2}, {1}, {1, 2, 3}) and g == pt(3, {1}, {1, 2}, {1, 2})
        assert layer_structure(f) == layer_structure(pt(3, {1, 2}, {1}, {1, 2, 3}))
        assert layer_structure(g) == layer_structure(pt(3, {1}, {1, 2}, {1, 2}))
        assert layer_structure(g).nested_sets is chain

    def test_layered_tables_are_validated(self):
        # an empty S_0 gives an empty value, which no prefix table has
        with pytest.raises(ValueError, match="non-empty"):
            layered_tables(2, (0, full_mask(2)), [(0, 1)])


class TestTableRankViaMatrix:
    """The complement-matrix rank behind ``check_layer_rank``."""

    def test_constant_full_is_zero(self):
        assert _complement_rank(pt(2, {1, 2}, {1, 2})) == 0

    def test_chain_table(self):
        assert _complement_rank(CHAIN3) == 2

    def test_matches_layer_rank_exhaustively(self):
        for n, ordered in ((2, 7), (3, 115)):
            result = check_layer_rank(Run(n, "full"))
            assert result.ok and result.detail == f"{ordered} tables", result


def _layers_of(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


@functools.cache
def g_at(n):
    """The staged matrix G over the ordered tables of size n."""
    return staged_matrix([f for f in enumerate_prefix_tables(n) if is_ordered(f)], n)


@functools.cache
def every_pair_masks(n):
    """The lane of each ordered table of size n and the masks of each as a
    base table, from one study of all of them against all of them."""
    g = g_at(n)
    masks, _, _ = _study_of(g, g.row_labels, g.row_labels)
    return {f: t for t, f in enumerate(g.row_labels)}, masks


def pair_masks(f, f0):
    """f's drop-down and breakthrough layers against f0, as bit masks over
    f0's layers (bit i = layer i), read off f's lane of f0's masks."""
    lane, masks = every_pair_masks(f.n)
    t = lane[f]
    return (sum((d >> t & 1) << i for i, (d, _) in enumerate(masks[lane[f0]])),
            sum((b >> t & 1) << i for i, (_, b) in enumerate(masks[lane[f0]])))


def _assert_sliced_masks_match_the_oracle(fs, bases, pairs, masks):
    """Checks bit t of masks[j] for each pair (fs[t], bases[j]) that bit t
    of pairs[j] marks; returns the number of pairs checked."""
    checked = 0
    for f0, lanes, layers in zip(bases, pairs, masks, strict=True):
        for d, b in layers:
            assert 0 <= d < 1 << len(fs) and 0 <= b < 1 << len(fs)
        for t, f in enumerate(fs):
            if lanes >> t & 1:
                got = [(bool(d >> t & 1), bool(b >> t & 1)) for d, b in layers]
                assert got == oracle_layers(f, f0), (f, f0)
                checked += 1
    return checked


class TestBreakthroughAndDropDown:
    def test_own_layers_are_neutral(self):
        for f in enumerate_prefix_tables(3):
            if not is_ordered(f):
                continue
            assert pair_masks(f, f) == (0, 0)

    def test_break_example(self):
        f = pt(3, {1, 2, 3}, {1, 2, 3}, {1, 2, 3})
        drop, brk = pair_masks(f, CHAIN3)
        assert _layers_of(brk) == {0, 1}
        assert drop == 0

    def test_drop_example(self):
        f = pt(3, {1}, {1}, {1})
        drop, _ = pair_masks(f, CHAIN3)
        assert drop >> 1 & 1
        assert not drop & 1  # nothing lies below layer 0

    def test_drop_at_layer_zero_is_impossible(self):
        ordered = [f for f in enumerate_prefix_tables(3) if is_ordered(f)]
        for f in ordered:
            for f0 in ordered:
                if layer_structure(f0).rank_k >= 1:
                    assert not pair_masks(f, f0)[0] & 1

    def test_layer_index_validated(self):
        unordered = pt(3, {1}, {1, 2}, {1, 3})
        with pytest.raises(ValueError):
            _study_of(g_at(3), [CHAIN3], [unordered])
        ordered = [f for f in enumerate_prefix_tables(3) if is_ordered(f)]
        for f in ordered:
            for f0 in ordered:
                k = layer_structure(f0).rank_k
                drop, brk = pair_masks(f, f0)
                assert 0 <= drop < 1 << k and 0 <= brk < 1 << k

    def test_unordered_table_still_rejected_after_use(self):
        unordered = pt(3, {1}, {1, 2}, {1, 3})
        for _ in range(2):
            with pytest.raises(ValueError):
                layer_structure(unordered)
            with pytest.raises(ValueError):
                _study_of(g_at(3), [CHAIN3], [unordered])

    def test_layer_structure_is_computed_once_per_table(self):
        f = pt(3, {1}, {1, 2}, {1, 2, 3})
        assert layer_structure(f) is layer_structure(f)
        assert layer_structure(f) == layer_structure(CHAIN3)

    def test_break_set_matches_pointwise_predicate(self):
        def breaks_at(f, f0, i):
            # f's reach from f0's prefix layers <= i leaves S_i
            s_i = set(elements(layer_structure(f0).nested_sets[i]))
            return bool(reach_up_to(f, f0, i) - s_i)

        rng = random.Random(9)
        ordered = [f for f in enumerate_prefix_tables(3) if is_ordered(f)]
        for _ in range(300):
            f, f0 = rng.choice(ordered), rng.choice(ordered)
            k = layer_structure(f0).rank_k
            brk = pair_masks(f, f0)[1]
            assert _layers_of(brk) == {i for i in range(k) if breaks_at(f, f0, i)}

    def test_drop_mask_matches_pointwise_predicate(self):
        def drops_at(f, f0, i):
            # f's reach from f0's prefix layers <= i stays inside S_{i-1}
            ls = layer_structure(f0)
            below = set(elements(ls.nested_sets[i - 1])) if i >= 1 else set()
            return reach_up_to(f, f0, i) <= below

        ordered = [f for f in enumerate_prefix_tables(3) if is_ordered(f)]
        drops = 0
        for f in ordered:
            for f0 in ordered:
                k = layer_structure(f0).rank_k
                drop = pair_masks(f, f0)[0]
                assert _layers_of(drop) == {i for i in range(k) if drops_at(f, f0, i)}
                drops += drop != 0
        assert drops > 0

    def test_distinct_at_least_as_large_tables_break_through(self):
        # exhaustive at n = 2 and 3
        for n in (2, 3):
            ordered = [f for f in enumerate_prefix_tables(n) if is_ordered(f)]
            for f in ordered:
                for f0 in ordered:
                    if f != f0 and table_size(f) >= table_size(f0):
                        assert pair_masks(f, f0)[1], (f, f0)


    def test_sliced_masks_match_the_oracle_on_every_pair_at_n3(self):
        # the full study at size 3: every ordered table is a first table of
        # every base table, in one call
        study = Run(3, "full").study()
        assert len(study.bases) == 115
        assert _assert_sliced_masks_match_the_oracle(
            study.firsts, study.bases, study.pairs, study.masks) == 115 ** 2

    def test_sliced_masks_match_the_oracle_on_the_quick_n4_sample(self):
        # the pairs of verify --n 4 --level quick --seed 7: draw j pairs
        # base table j with first table j, and the masks hold every pair
        study = Run(4, "quick", 7).study()
        assert study.pairs == [1 << j for j in range(60)]
        every = [(1 << 60) - 1] * 60
        assert _assert_sliced_masks_match_the_oracle(
            study.firsts, study.bases, every, study.masks) == 60 ** 2

    def test_one_list_of_first_tables(self):
        # a table twice among the first tables, also as an equal copy, and
        # no first tables at all
        ordered = [f for f in enumerate_prefix_tables(3) if is_ordered(f)]
        fs = ordered[:40] + [ordered[7], PrefixTable(3, ordered[7].values)]
        bases = ordered[3:9]
        masks, _, _ = _study_of(g_at(3), fs, bases)
        every = [(1 << len(fs)) - 1] * len(bases)
        assert _assert_sliced_masks_match_the_oracle(fs, bases, every, masks) == 42 * 6
        assert _study_of(g_at(3), [], bases)[0] == [[(0, 0)] * layer_structure(f0).rank_k
                                                    for f0 in bases]
        assert _study_of(g_at(3), [], []) == ([], [], [])


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_prefix_tables(2)) == 7
        assert len(enumerate_suffix_tables(2)) == 9
        assert len(enumerate_suffix_tables(3)) == 9 ** 3 - 8 ** 3

    def test_suffix_count_closed_form(self):
        # one option per state: any subset of {1..n}, or the accepting value
        for n in (1, 2, 3, 4):
            assert len(enumerate_suffix_tables(n)) == (2**n + 1)**n - (2**n)**n

    def test_prefix_count_matches_determinization_bound(self):
        # the tables are exactly the states of the classic one-way
        # determinization, so their number equals that closed form
        from ufabound.combinatorics import table1_row
        for n in (1, 2, 3, 4):
            assert len(enumerate_prefix_tables(n)) == table1_row(n)[3]

    def test_prefix_tables_are_sorted_and_distinct(self):
        out = [f.values for f in enumerate_prefix_tables(3)]
        assert out == sorted(out) and len(set(out)) == len(out)

    def test_suffix_tables_sorted_by_accept_then_values(self):
        out = [(g.accept_flags, g.values) for g in enumerate_suffix_tables(3)]
        assert out == sorted(out) and len(set(out)) == len(out)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_prefix_tables(5)
        with pytest.raises(CapacityError):
            enumerate_suffix_tables(5)


class TestTextSerialization:
    def test_documented_forms(self):
        f = prefix_table_from_text("3; 1; 1,2; 1,2,3")
        assert f == CHAIN3
        assert prefix_table_to_text(f) == "3; 1; 1,2; 1,2,3"
        g = suffix_table_from_text("3; A; 2; -")
        assert g.accept_flags == mask_of({1})
        assert g.values == (full_mask(3), mask_of({2}), 0)
        assert suffix_table_to_text(g) == "3; A; 2; -"

    def test_round_trip_is_bit_exact(self):
        for f in enumerate_prefix_tables(3):
            assert prefix_table_from_text(prefix_table_to_text(f)) == f
        for g in enumerate_suffix_tables(2):
            assert suffix_table_from_text(suffix_table_to_text(g)) == g

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            prefix_table_from_text("3; 1; 1,2")
        with pytest.raises(ValueError):
            prefix_table_from_text("2; 1; 3")
        with pytest.raises(ValueError):
            suffix_table_from_text("2; -; -")  # nothing accepts
        with pytest.raises(ValueError, match="expected 2 values, got 1"):
            suffix_table_from_text("2; A")
