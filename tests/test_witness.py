import random

import numpy as np
import pytest

from ufabound import witness
from ufabound.automata import LEFT_MARKER, RIGHT_MARKER
from ufabound.errors import CapacityError
from ufabound.statesets import full_mask, mask_of
from ufabound.tables import (PrefixTable, SuffixTable, enumerate_prefix_tables,
                             enumerate_ordered_prefix_tables_by_filter,
                             enumerate_suffix_tables, is_ordered,
                             layer_structure, starting_state)
from ufabound.witness import (BoolMatrix, WitnessAutomaton, acceptance_matrix,
                              build_K, build_M, build_g_I,
                              staged_matrix)

from conftest import staged_table_image


def pt(n, *sets):
    return PrefixTable.from_sets(n, sets)


def st(n, sets, accept):
    return SuffixTable.from_sets(n, sets, accept)


class TestEncoding:
    def test_constant_table_starts_at_one(self):
        f = pt(2, {1}, {1})
        g = st(2, [{1, 2}, set()], {1})
        # start letters 0, 1; prefix letter 2; suffix letter 3
        assert WitnessAutomaton(2, [f], [g]).word(f, g) == [0, 2, 3]

    def test_start_letter_names_the_starting_state(self):
        f = pt(2, {2}, {1, 2})
        g = st(2, [{1, 2}, set()], {1})
        aut = WitnessAutomaton(2, [pt(2, {1}, {1}), f], [g])
        assert starting_state(f) == 1
        assert aut.word(f, g) == [0, 3, 4]
        # the start letter forces its state from every state
        assert all(aut.nfa.moves(q, 0) == frozenset({(0, +1)}) for q in range(2))

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            WitnessAutomaton(2, [pt(2, {1}, {1})], [st(3, [{1, 2, 3}, set(), set()], {1})])

    def test_word_rejects_tables_that_are_not_letters(self):
        f, other = pt(2, {1}, {1}), pt(2, {2}, {1, 2})
        g = st(2, [{1, 2}, set()], {1})
        aut = WitnessAutomaton(2, [f], [g])
        with pytest.raises(ValueError, match="letters of this automaton"):
            aut.word(other, g)
        with pytest.raises(ValueError, match="letters of this automaton"):
            aut.word(f, st(2, [{1, 2}, {1, 2}], {1, 2}))


class TestTransitionOracle:
    def test_letter_semantics(self):
        f = pt(2, {2}, {1, 2})
        g = st(2, [{1, 2}, {2}], {1})
        a = WitnessAutomaton(2, [f], [g])
        start, pre, suf = 1, 2, 3
        # states are numbered from 0 in the concrete automaton
        assert a.nfa.moves(0, start) == frozenset({(1, +1)})
        assert a.nfa.moves(1, pre) == frozenset({(0, +1), (1, +1)})
        # non-accepting entry bounces left through its value
        assert a.nfa.moves(1, suf) == frozenset({(1, -1)})
        # accepting entry moves right instead
        assert a.nfa.moves(0, suf) == frozenset({(0, +1)})
        assert a.nfa.moves(0, LEFT_MARKER) == frozenset({(0, +1)})
        assert a.nfa.moves(0, RIGHT_MARKER) == frozenset()
        assert a.nfa.initial == frozenset({0})
        assert a.nfa.accepting == frozenset({0, 1})
        assert a.nfa.alphabet_size == 4

    def test_payload_size_checked(self):
        with pytest.raises(ValueError, match="wrong size"):
            WitnessAutomaton(2, [pt(3, {1}, {1}, {1})], [])


def random_table_pair(n, rng):
    """A prefix and a suffix table with sparse values, so that paths bounce
    back and forth."""
    full = full_mask(n)

    def state():
        return 1 << rng.randint(1, n)

    core = state()
    values = [core | state() for _ in range(n)]
    values[rng.randrange(n)] = core
    accept = state()
    g = SuffixTable(n, tuple(full if accept >> v & 1 else state() | state()
                             for v in range(1, n + 1)), accept)
    return PrefixTable(n, tuple(values)), g


def simulated(f, g):
    return int(WitnessAutomaton(f.n, [f], [g]).accepts(f, g))


class TestMEntry:
    def test_direct_acceptance(self):
        f = pt(2, {1}, {1})
        g = st(2, [{1, 2}, set()], {1})
        assert acceptance_matrix([f], [g], 2).bits == (simulated(f, g),) == (1,)

    def test_dead_end(self):
        f = pt(2, {2}, {2})
        g = st(2, [{1, 2}, set()], {1})
        assert acceptance_matrix([f], [g], 2).bits == (simulated(f, g),) == (0,)

    def test_needs_a_bounce(self):
        f = pt(2, {2}, {1, 2})
        g = st(2, [{1, 2}, {2}], {1})
        assert acceptance_matrix([f], [g], 2).bits == (simulated(f, g),) == (1,)

    def test_exhaustive_agreement_n2(self):
        fs = enumerate_prefix_tables(2)
        gs = enumerate_suffix_tables(2)
        m = acceptance_matrix(fs, gs, 2)
        for i, f in enumerate(fs):
            for j, g in enumerate(gs):
                assert m.entry(i, j) == simulated(f, g), (f, g)

    def test_random_agreement_n3(self):
        rng = random.Random(0)
        fs = enumerate_prefix_tables(3)
        gs = enumerate_suffix_tables(3)
        m = acceptance_matrix(fs, gs, 3)
        for _ in range(2000):
            i, j = rng.randrange(len(fs)), rng.randrange(len(gs))
            assert m.entry(i, j) == simulated(fs[i], gs[j]), (fs[i], gs[j])

    def test_random_agreement_beyond_one_lookup_chunk(self):
        # larger witness automata through the simulation oracle; sparse
        # tables make paths bounce, so both entry values occur; the pairs
        # are the diagonal of one matrix
        rng = random.Random(11)
        for n in (8, 9, 17, 30):
            fs, gs = zip(*(random_table_pair(n, rng) for _ in range(40)))
            m = acceptance_matrix(fs, gs, n)
            entries = [m.entry(i, i) for i in range(40)]
            assert entries == [simulated(f, g) for f, g in zip(fs, gs)]
            assert set(entries) == {0, 1}


class TestMatrices:
    def test_n2_shape_and_equality(self):
        m = build_M(2)
        k = build_K(2)
        assert (m.rows, m.cols) == (7, 9)
        assert m.bits == k.bits and m.row_labels == k.row_labels

    def test_n3_shapes(self):
        m = build_M(3)
        k = build_K(3)
        assert m.rows == len(enumerate_prefix_tables(3)) == 133
        assert m.cols == 217
        assert k.rows == 115

    def test_k_is_row_submatrix_of_m(self):
        m = build_M(3)
        k = build_K(3)
        rows_of = {f.values: bits for f, bits in zip(m.row_labels, m.bits)}
        for f, bits in zip(k.row_labels, k.bits):
            assert is_ordered(f)
            assert rows_of[f.values] == bits

    def test_rows_match_entry_function(self):
        # the whole matrix against one column at a time
        m = build_M(2)
        for j, g in enumerate(m.col_labels):
            column = acceptance_matrix(m.row_labels, [g], 2)
            assert column.bits == tuple(b >> j & 1 for b in m.bits)

    def test_random_rows_match_entry_function_n3(self):
        rng = random.Random(4)
        m = build_M(3)
        rows = rng.sample(range(m.rows), 25)
        for j, g in enumerate(m.col_labels):
            column = acceptance_matrix([m.row_labels[i] for i in rows], [g], 3)
            assert column.bits == tuple(m.bits[i] >> j & 1 for i in rows)

    def test_full_and_reduced_matrices_have_equal_exact_rank(self):
        from ufabound import exact_linalg as la
        m3, k3 = build_M(3), build_K(3)
        assert la.rank_exact(m3) == la.rank_exact(k3) == 115

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            build_M(5)
        with pytest.raises(CapacityError):
            build_K(5)

    def test_table_sizes_must_match_n(self):
        f2, f3 = pt(2, {1}, {1}), pt(3, {1}, {1}, {1})
        g2, g3 = st(2, [{1, 2}, set()], {1}), st(3, [{1, 2, 3}, set(), set()], {1})
        for fs, gs, n in (([f2], [g3], 2), ([f2], [g3], 3), ([f3], [g2], 2),
                          ([f3], [g2], 3), ([f3], [g3], 2), ([f2], [g2], 3),
                          ([f2, f3], [g2], 2), ([f2], [g2, g3], 2), ([], [g3], 2)):
            with pytest.raises(ValueError, match="size n"):
                acceptance_matrix(fs, gs, n)


def fixed_rounds_row(f, suffixes):
    """Reference for the row kernel: the alternating reachability run for a
    fixed 2n+2 rounds, one state bit at a time, over all columns."""
    n = f.n
    gvals = np.array([g.values for g in suffixes], dtype=np.int64)
    amask = np.array([g.accept_flags for g in suffixes], dtype=np.int64)
    left = np.full(len(suffixes), 1 << starting_state(f), dtype=np.int64)
    right = np.zeros_like(left)
    for _ in range(2 * n + 2):
        for v in range(1, n + 1):
            right |= np.where(left >> v & 1, f.values[v - 1], 0)
        for v in range(1, n + 1):
            left |= np.where(right >> v & 1, gvals[:, v - 1], 0)
    return sum(1 << int(j) for j in np.flatnonzero(right & amask))


class TestRowKernel:
    """The row kernel stops once no left mask changes; a fixed number of
    rounds must give the same bits."""

    def check_rows(self, fs, gs):
        # one shared first round per call, as acceptance_matrix shares it
        maps, first = witness._suffix_arc_maps(gs[0].n, gs), {}
        rows = [witness._row_bits(f.values, starting_state(f), *maps, first) for f in fs]
        assert rows == [fixed_rounds_row(f, gs) for f in fs]
        return rows

    def test_every_row_at_n3(self):
        rows = self.check_rows(enumerate_prefix_tables(3), enumerate_suffix_tables(3))
        assert len(set(rows)) > 100

    def test_seeded_ordered_rows_at_n4(self):
        rng = random.Random(4)
        fs = rng.sample(enumerate_ordered_prefix_tables_by_filter(4), 200)
        self.check_rows(fs, enumerate_suffix_tables(4))

    def test_seeded_unordered_rows_at_n4(self):
        rng = random.Random(5)
        fs = rng.sample([f for f in enumerate_prefix_tables(4) if not is_ordered(f)], 200)
        self.check_rows(fs, enumerate_suffix_tables(4))

    def test_rows_sharing_a_starting_value_or_a_starting_state(self):
        # the first three share the starting value {1} from states 1, 2 and
        # 3; the last three share starting state 1 with values {2}, {1, 2}
        # and {3, 4}
        fs = [pt(4, {1}, {1, 2}, {1, 3}, {1, 2, 4}),
              pt(4, {1, 4}, {1}, {1, 2, 3}, {1, 3}),
              pt(4, {1, 2, 3, 4}, {1, 3}, {1}, {1, 2}),
              pt(4, {2}, {2, 3}, {1, 2}, {2, 4}),
              pt(4, {1, 2}, {1, 2, 3}, {1, 2, 4}, {1, 2}),
              pt(4, {3, 4}, {1, 3, 4}, {2, 3, 4}, {3, 4})]
        assert [f.values[starting_state(f) - 1] for f in fs[:3]] == [mask_of({1})] * 3
        assert [starting_state(f) for f in fs] == [1, 2, 3, 1, 1, 1]
        rows = self.check_rows(fs, enumerate_suffix_tables(4))
        assert len(set(rows)) == len(rows)

    def test_constant_table_and_a_single_starting_state(self):
        # a constant table of the full set has no right vertex outside its
        # starting value; the second table's starting value is one state
        gs = enumerate_suffix_tables(3)
        rows = self.check_rows([pt(3, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}),
                                pt(3, {1, 2}, {2}, {2, 3})], gs)
        assert rows[0] == (1 << len(gs)) - 1

    def test_random_tables_beyond_one_lookup_chunk(self):
        rng = random.Random(23)
        for n in (8, 9, 17, 33, 40):
            pairs = [random_table_pair(n, rng) for _ in range(300)]
            fs = [f for f, _ in pairs[:20]]
            rows = self.check_rows(fs, [g for _, g in pairs])
            assert 0 < sum(r.bit_count() for r in rows) < 20 * 300


class TestStagedSuffixTables:
    def test_rank_one_base_example(self):
        f0 = pt(2, {1}, {1, 2})
        empty = build_g_I(f0, set())
        assert empty.values == (mask_of({1}), full_mask(2))
        assert empty.accept_flags == mask_of({2})
        staged = build_g_I(f0, {0})
        assert staged.values == (full_mask(2), full_mask(2))
        assert staged.accept_flags == mask_of({1, 2})

    def test_accept_set_formula_random(self):
        rng = random.Random(8)
        from ufabound.combinatorics import enumerate_ordered_prefix_tables
        pool = enumerate_ordered_prefix_tables(4)
        for _ in range(200):
            f0 = rng.choice(pool)
            ls = layer_structure(f0)
            k = ls.rank_k
            stage = {i for i in range(k) if rng.random() < 0.5}
            g = build_g_I(f0, stage)
            if k - 1 in stage:
                expected = mask_of(v for v in range(1, 5)
                                   if ls.suffix_layer[v - 1] >= k - 1)
            else:
                expected = mask_of(v for v in range(1, 5)
                                   if ls.suffix_layer[v - 1] == k)
            assert g.accept_flags == expected

    def test_out_of_range_stage_rejected(self):
        f0 = pt(2, {1}, {1, 2})
        with pytest.raises(ValueError):
            build_g_I(f0, {1})

    def test_matches_set_arithmetic_oracle(self):
        # same case analysis written with plain sets instead of masks
        def oracle(f0, stage):
            ls = layer_structure(f0)
            k = ls.rank_k
            everyone = set(range(1, f0.n + 1))
            values, accept = [], set()
            for v in sorted(everyone):
                s = ls.suffix_layer[v - 1]
                if s not in stage and s < k:
                    values.append({u for u in everyone
                                   if ls.prefix_layer[u - 1] <= s})
                elif s in stage and s + 1 < k:
                    values.append({u for u in everyone
                                   if ls.prefix_layer[u - 1] <= s + 1})
                else:
                    values.append(set(everyone))
                    accept.add(v)
            return SuffixTable.from_sets(f0.n, values, accept)

        rng = random.Random(13)
        from ufabound.combinatorics import enumerate_ordered_prefix_tables
        for n in (2, 3, 4):
            pool = enumerate_ordered_prefix_tables(n)
            for _ in range(120):
                f0 = rng.choice(pool)
                k = layer_structure(f0).rank_k
                stage = {i for i in range(k) if rng.random() < 0.5}
                assert build_g_I(f0, stage) == oracle(f0, stage)

    def test_every_staged_table_is_a_column_of_g(self):
        # every (f0, I) at sizes 1 to 4 has an ordered image h under the
        # map phi with build_g_I(f0, I) == build_g_I(h, set()), and G's
        # columns are distinct, so each staged table is exactly one column
        from ufabound.combinatorics import enumerate_ordered_prefix_tables
        for n, pairs in zip((1, 2, 3, 4), (1, 13, 373, 19141)):
            ordered = enumerate_ordered_prefix_tables(n)
            known = set(ordered)
            seen = 0
            for f0 in ordered:
                k = layer_structure(f0).rank_k
                for s in range(1 << k):
                    stage = {i for i in range(k) if s >> i & 1}
                    h = staged_table_image(f0, stage)
                    assert h in known and build_g_I(f0, stage) == build_g_I(h, set())
                    seen += 1
            assert seen == pairs
            g = staged_matrix(ordered, n)
            assert g.row_labels == tuple(ordered) and g.cols == len(ordered)
            assert len(set(g.col_labels)) == g.cols


WIDTH_ERROR = "rows must be contiguous 0/1 strings of the stated width"


def read_text(tmp_path, text):
    """``load_matrix`` of a file holding exactly ``text``."""
    path = tmp_path / "m.mat"
    path.write_bytes(text.encode())
    return witness.load_matrix(str(path))


class TestMatrixText:
    def test_round_trip(self, tmp_path):
        # all-zero, all-one, leading-zero and trailing-zero rows around the
        # 64-bit word boundary, and matrices without rows or columns (an
        # r x 0 matrix is written as r empty row lines)
        ms = [build_M(2)]
        for w in (1, 63, 64, 65, 200):
            rows = (0, (1 << w) - 1, 1 << w - 1, 1, 0x5A5A5A5A5A5A5A5A5A5A % (1 << w))
            ms.append(BoolMatrix(tuple(range(len(rows))), tuple(range(w)), w, rows))
        for r, w in ((0, 0), (0, 4), (1, 0), (2, 0), (5, 0)):
            ms.append(BoolMatrix(tuple(range(r)), tuple(range(w)), w, (0,) * r))
        for m in ms:
            witness.save_matrix(m, str(tmp_path / "m.mat"))
            again = witness.load_matrix(str(tmp_path / "m.mat"))
            assert (again.rows, again.cols, again.bits) == (m.rows, m.cols, m.bits)

    def test_format_shape(self, tmp_path):
        m = BoolMatrix(("r",), ("c1", "c2", "c3"), 3, (0b101,))
        witness.save_matrix(m, str(tmp_path / "m.mat"))
        assert (tmp_path / "m.mat").read_bytes() == b"1 3\n101\n"

    def test_parse_rejects_garbage(self, tmp_path):
        for text in ("", "1 3\n10", "2 2\n11\n2x",
                     # int() accepts underscores and signs, the format does not
                     "1 3\n0_1\n", "1 3\n+01\n"):
            with pytest.raises(ValueError):
                read_text(tmp_path, text)

    def test_load_reads_a_file_line_by_line(self, tmp_path):
        # blank lines are skipped (except as the rows of a matrix without
        # columns), line ends may be \r\n, every error has its own message,
        # and a wrong row count is reported before a bad row
        for text, want in (("1 3\n\n101\n", (0b101,)),
                           ("2 3\r\n101\r\n  \r\n011\r\n", (0b101, 0b110)),
                           ("2 0\n\n\n", (0, 0)), ("2 0\n\n\n\n", "expected 2 rows, found 3"),
                           ("", "empty matrix file"), ("\n \n", "empty matrix file"),
                           ("x 3\n101\n", "first line must be 'rows cols'"),
                           ("-1 3\n", "first line must be 'rows cols'"),
                           ("0 -3\n", "first line must be 'rows cols'"),
                           ("+1 3\n101\n", "first line must be 'rows cols'"),
                           ("1_0 3\n101\n", "first line must be 'rows cols'"),
                           ("1 3 3\n101\n", "first line must be 'rows cols'"),
                           ("3 3\n101\n", "expected 3 rows, found 1"),
                           ("1 3\n1x1\n111\n", "expected 1 rows, found 2"),
                           ("2 3\n1x1\n111\n", WIDTH_ERROR),
                           ("1 3\n10\n", WIDTH_ERROR), ("1 3\n+01\n", WIDTH_ERROR)):
            try:
                got = read_text(tmp_path, text).bits
            except ValueError as exc:
                got = str(exc)
            assert got == want, text

    def test_full_width_rows_of_other_characters_are_refused(self, tmp_path):
        # each row has the stated width; int(row, 2) would take "_", "+",
        # surrounding spaces and digits of other scripts, and the row check
        # comes before it
        for row in ("1021", "1_01", "+101", "-101", "10 1", " 101", "101 ", "1\t01",
                    "1\u066101", "1\uff1101", "1\U0001d7d901", "\u0660\u0661\u0660\u0661"):
            assert len(row) == 4, repr(row)
            with pytest.raises(ValueError, match=WIDTH_ERROR):
                read_text(tmp_path, f"2 4\n1111\n{row}\n")
        assert read_text(tmp_path, "2 4\n1111\n0110\n").bits == (0b1111, 0b0110)

    def test_save_and_load_with_labels(self, tmp_path):
        m = build_K(2)
        path = tmp_path / "k2.mat"
        witness.save_matrix(m, str(path))
        loaded = witness.load_matrix(str(path))
        assert loaded.bits == m.bits
        rows_file = (path.parent / "k2.mat.rows").read_text().splitlines()
        cols_file = (path.parent / "k2.mat.cols").read_text().splitlines()
        assert len(rows_file) == 7 and len(cols_file) == 9
        from ufabound.tables import prefix_table_from_text
        assert prefix_table_from_text(rows_file[0]) == m.row_labels[0]


class TestBoolMatrix:
    def test_to_lists(self):
        m = BoolMatrix(("a", "b"), ("x", "y", "z"), 3, (0b110, 0b001))
        assert m.to_lists() == [[0, 1, 1], [1, 0, 0]]

    def test_to_numpy_matches_lists(self, monkeypatch):
        m = build_M(2)
        assert m.to_numpy().tolist() == m.to_lists()
        # two rows per unpacked chunk, the last one shorter
        monkeypatch.setattr(witness, "CHUNK_ELEMS", 2 * m.cols + 1)
        arr = m.to_numpy()
        assert arr.dtype == np.int32 and arr.tolist() == m.to_lists()
        for shape in ((0, 0), (0, 5), (3, 0)):
            empty = BoolMatrix(tuple(range(shape[0])), tuple(range(shape[1])),
                               shape[1], (0,) * shape[0])
            assert empty.to_numpy().shape == shape

    def test_validation(self):
        with pytest.raises(ValueError):
            BoolMatrix(("a",), ("x",), 1, (0b10,))
        with pytest.raises(ValueError):
            BoolMatrix(("a",), ("x", "y"), 1, (0b1,))
