import itertools
import json
import random

import pytest

from conftest import (closure_exits, configurations, dfs_two_way_accepts,
                      oracle_prefix_table, oracle_suffix_table)
from ufabound import crossing
from ufabound.automata import (LEFT_MARKER, RIGHT_MARKER, TwoWayNfa, _concatenation_grid,
                               _layout, _reach, _search, concatenation_bits,
                               twonfa_accepts)
from ufabound.combinatorics import enumerate_ordered_prefix_tables
from ufabound.crossing import (_prefix_grid, _suffix_grid, prefix_tables_of, random_strings,
                               random_two_way_nfa, schmidt_matrix, suffix_tables_of,
                               verify_optimality)
from ufabound.errors import (RANDOM_BLOCK_ALPHABET, RANDOM_BLOCK_MAX, RANDOM_BLOCK_MOVES,
                             random_block)
from ufabound.statesets import full_mask, mask_of, transpose
from ufabound.tables import (PrefixTable, SuffixTable, enumerate_prefix_tables,
                             enumerate_suffix_tables, starting_state)
from ufabound.witness import BoolMatrix, WitnessAutomaton, acceptance_matrix, build_M


def forward_only():
    trans = {(0, LEFT_MARKER): {(0, +1)}, (0, 0): {(0, +1)}, (0, 1): {(0, +1)}}
    return TwoWayNfa(1, 2, {0}, trans, {0})


def never_accepting():
    trans = {(0, LEFT_MARKER): {(0, +1)}, (0, 0): {(0, +1)}, (0, 1): {(0, +1)}}
    return TwoWayNfa(1, 2, {0}, trans, set())


def right_marker_mover():
    """State 0 (not accepting) walks to the right marker and there moves
    right into the accepting state 1: a move off the tape, so it is dropped."""
    trans = {(0, LEFT_MARKER): {(0, +1)}, (0, 0): {(0, +1)},
             (0, RIGHT_MARKER): {(1, +1)}}
    return TwoWayNfa(2, 1, {0}, trans, {1})


def submatrix(m, rows, cols):
    """The entries of m on the given row and column indices, in that order."""
    return BoolMatrix(tuple(m.row_labels[i] for i in rows),
                      tuple(m.col_labels[j] for j in cols), len(cols),
                      tuple(sum((m.bits[i] >> j & 1) << k for k, j in enumerate(cols))
                            for i in rows))


def kept_and_first(tables):
    """The indices with a table, and those holding a table's first occurrence."""
    kept = [i for i, t in enumerate(tables) if t is not None]
    return kept, [i for i in kept if tables.index(tables[i]) == i]


class TestProfiles:
    def test_forward_sweep(self):
        a = forward_only()
        assert prefix_tables_of(a, [(), (0,), (1, 0)]) == [PrefixTable(1, (mask_of({1}),))] * 3

    def test_no_left_marker_moves(self):
        # stuck on the left marker, though a re-entered head would exit
        a = TwoWayNfa(1, 1, {0}, {(0, 0): {(0, +1)}}, {0})
        assert prefix_tables_of(a, [(0,)]) == [None] == [oracle_prefix_table(a, (0,))]

    def test_forward_only_induces_the_constant_table(self):
        [f] = prefix_tables_of(forward_only(), [(0, 1)])
        assert f is not None and f.n == 1
        assert f.values == (mask_of({1}),)

    def test_suffix_accept_and_exit(self):
        [g] = suffix_tables_of(forward_only(), [(0,)])
        assert g.accept_flags == mask_of({1})
        assert g.value(1) == full_mask(1)

    def test_never_accepting_suffix(self):
        assert suffix_tables_of(never_accepting(), [(0,)]) == [None]

    def test_profile_record(self):
        [f] = prefix_tables_of(forward_only(), [(0,)])
        [g] = suffix_tables_of(forward_only(), [(1,)])
        assert f == PrefixTable(1, (mask_of({1}),))
        assert g == SuffixTable(1, (mask_of({1}),), mask_of({1}))

    def test_empty_suffix_accepts_from_accepting_states(self):
        # on the bare right marker, exactly the accepting states accept,
        # and marker moves going left exit immediately
        trans = {(0, RIGHT_MARKER): {(1, -1)}}
        a = TwoWayNfa(2, 1, {0}, trans, {1})
        assert suffix_tables_of(a, [()]) == [SuffixTable(2, (mask_of({2}), full_mask(2)),
                                                         mask_of({2}))]

    def test_right_move_off_the_right_marker_is_dropped(self):
        a = right_marker_mover()
        words = ((), (0,), (0, 0))
        for word in words:
            tape = (LEFT_MARKER, *word, RIGHT_MARKER)
            # one lane: the tape fills the positions between the two padding
            # positions, where the exits would land; slot p·2 + q holds
            # configuration (p, q)
            cells, _, _ = _layout([([tape], [()])])
            slots = _reach([(a, 1)], cells, [(1, 0, 1)])
            exit_left, *at, exit_right = [
                mask_of(q + 1 for q in range(2) if slots[p * 2 + q] & 1)
                for p in range(len(cells))]
            assert at == [mask_of({1})] * len(tape)
            assert exit_right == exit_left == 0
            assert closure_exits(a, tape, [(0, 0)]) == (configurations(at), 0, 0)
            assert not twonfa_accepts(a, word)
        # the suffix fragment ends on the right marker: state 1 does not
        # accept through the dropped move, and it is no exit either; only
        # the bare right marker, where state 2 starts, accepts
        gs = suffix_tables_of(a, words)
        assert gs == [SuffixTable(2, (0, full_mask(2)), mask_of({2})), None, None]
        assert gs == [oracle_suffix_table(a, word) for word in words]
        # a prefix fragment ends on a real symbol, so the same state exits
        assert prefix_tables_of(a, [(0,)]) == [PrefixTable(2, (mask_of({1}),) * 2)]

    def test_profiles_match_the_closure_oracle(self, sparse_two_way_nfa):
        rng = random.Random(41)
        tables_seen = 0
        for _ in range(500):
            a = random_two_way_nfa(rng.randint(1, 3), 2, rng)
            x = random_strings(2, 1, 5, rng)[0]
            y = random_strings(2, 1, 5, rng)[0]
            [f] = prefix_tables_of(a, [x])
            [g] = suffix_tables_of(a, [y])
            assert f == oracle_prefix_table(a, x)
            assert g == oracle_suffix_table(a, y)
            tables_seen += (f is not None) + (g is not None)
        assert tables_seen > 300  # the tables are not vacuously None
        # beyond three states, with sparser moves so that tables differ
        for states in (8, 8, 9, 9):
            a = sparse_two_way_nfa(states, 2, rng)
            xs = random_strings(2, 3, 4, rng)
            ys = random_strings(2, 3, 4, rng)
            assert prefix_tables_of(a, xs) == [oracle_prefix_table(a, x) for x in xs]
            assert suffix_tables_of(a, ys) == [oracle_suffix_table(a, y) for y in ys]

    def test_symbols_outside_the_alphabet_are_rejected(self):
        # a marker id inside a string or a letter beyond the alphabet is
        # refused by every table family, not read as a quiet result
        a = forward_only()
        one_letter = TwoWayNfa(1, 1, {0}, {(0, LEFT_MARKER): {(0, +1)}}, {0})
        calls = [lambda: suffix_tables_of(a, [(RIGHT_MARKER,)]),
                 lambda: prefix_tables_of(one_letter, [(7,)]),
                 lambda: prefix_tables_of(a, [(0,), (LEFT_MARKER,)]),
                 lambda: suffix_tables_of(a, [(0, 2)]),
                 lambda: schmidt_matrix(a, [(0,)], [(RIGHT_MARKER,)]),
                 lambda: verify_optimality(a, [(2,)], [(0,)]),
                 lambda: verify_optimality(a, [(0,)], [(LEFT_MARKER,)])]
        for call in calls:
            with pytest.raises(ValueError, match="out of range"):
                call()


def ragged(alphabet, count, max_len, rng):
    """A string family with the empty string first and mixed lengths."""
    return [(), *random_strings(alphabet, count - 1, max_len, rng)]


class TestLaneSearch:
    """The batched search against the oracles that follow one configuration
    at a time, on ragged families (the empty string, mixed lengths) with
    more lanes than one 64-bit word."""

    STATES = (*range(1, 10), 17, 31)

    def test_concatenation_matches_the_search(self, sparse_two_way_nfa):
        rng = random.Random(8)
        outcomes = {}
        for states in self.STATES:
            for alphabet in (2, 3):
                for moves in (1, 2, 2):
                    a = sparse_two_way_nfa(states, alphabet, rng, moves)
                    xs = ragged(alphabet, 9, 5, rng)
                    ys = ragged(alphabet, 8, 5, rng)
                    bits = concatenation_bits(a, xs, ys)
                    assert schmidt_matrix(a, xs, ys).bits == tuple(bits)
                    for i, x in enumerate(xs):
                        for j, y in enumerate(ys):
                            want = dfs_two_way_accepts(a, x + y)
                            assert bits[i] >> j & 1 == want, (states, x, y)
                            outcomes.setdefault(states, set()).add(want)
        assert outcomes == {states: {False, True} for states in self.STATES}

    def test_batched_profiles_match_the_closure_oracle(self, sparse_two_way_nfa):
        rng = random.Random(9)
        tables_seen = 0
        for states in self.STATES:
            # the closure oracle is cubic in the configurations, so the
            # largest automata get fewer and shorter strings
            count, max_len = (20, 5) if states < 17 else (3, 3)
            for alphabet in (2, 3):
                # dense moves too, where every lane reaches far
                a = (random_two_way_nfa(states, alphabet, rng) if states == 3
                     else sparse_two_way_nfa(states, alphabet, rng))
                xs = ragged(alphabet, count, max_len, rng)
                ys = ragged(alphabet, count, max_len, rng)
                fs = prefix_tables_of(a, xs)
                gs = suffix_tables_of(a, ys)
                assert fs == [oracle_prefix_table(a, x) for x in xs]
                assert gs == [oracle_suffix_table(a, y) for y in ys]
                tables_seen += sum(t is not None for t in (*fs, *gs))
        assert tables_seen > 200  # the tables are not vacuously None

    def test_letters_sharing_moves(self, sparse_two_way_nfa):
        # 40 letters, each with the moves of one of six base letters, so that
        # several letters at one position allow the same move
        rng = random.Random(10)
        outcomes, tables_seen = set(), 0
        for states in (1, 2, 3, 4, 6):
            base = sparse_two_way_nfa(states, 6, rng)
            copies = [rng.randrange(6) for _ in range(40)]
            trans = {(q, c): base.moves(q, b)
                     for q in range(states) for c, b in enumerate(copies)}
            trans.update({(q, c): base.moves(q, c) for q in range(states)
                          for c in (LEFT_MARKER, RIGHT_MARKER)})
            a = TwoWayNfa(states, 40, base.initial, trans, base.accepting)
            xs = ragged(40, 16, 4, rng)
            ys = ragged(40, 16, 4, rng)
            bits = concatenation_bits(a, xs, ys)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    want = dfs_two_way_accepts(a, x + y)
                    assert bits[i] >> j & 1 == want, (states, x, y)
                    outcomes.add(want)
            fs = prefix_tables_of(a, xs)
            gs = suffix_tables_of(a, ys)
            assert fs == [oracle_prefix_table(a, x) for x in xs]
            assert gs == [oracle_suffix_table(a, y) for y in ys]
            tables_seen += sum(t is not None for t in (*fs, *gs))
        assert outcomes == {False, True}
        assert tables_seen > 50  # the tables are not vacuously None

    def test_one_search_equals_the_one_family_searches(self, sparse_two_way_nfa):
        # verify_optimality's three grids in one search, against each family
        # searched alone, with empty families on either side
        rng = random.Random(11)
        for states in (1, 2, 3, 5, 9):
            for alphabet in (1, 2, 4):
                a = (random_two_way_nfa(states, alphabet, rng) if states <= 3
                     else sparse_two_way_nfa(states, alphabet, rng))
                for rows, cols in ((7, 5), (1, 9), (0, 4), (6, 0), (0, 0)):
                    xs = ragged(alphabet, rows, 4, rng) if rows else []
                    ys = ragged(alphabet, cols, 4, rng) if cols else []
                    alone = [concatenation_bits(a, xs, ys), prefix_tables_of(a, xs),
                             suffix_tables_of(a, ys)]
                    assert _search([(a, [_concatenation_grid(a, xs, ys), _prefix_grid(a, xs),
                                         _suffix_grid(a, ys)])]) == alone
                    report = verify_optimality(a, xs, ys)
                    assert report.ok
                    assert report.matrix == schmidt_matrix(a, xs, ys)
                    _, first_rows = kept_and_first(alone[1])
                    _, first_cols = kept_and_first(alone[2])
                    dedup = submatrix(report.matrix, first_rows, first_cols)
                    assert report.universal.bits == dedup.bits
                    assert report.universal.row_labels == tuple(alone[1][i] for i in first_rows)
                    assert report.universal.col_labels == tuple(alone[2][j] for j in first_cols)

    def test_a_grid_without_lanes_takes_no_lanes(self, sparse_two_way_nfa):
        # grids with no lanes before, between and after the others read
        # nothing and shift no other grid's lanes
        rng = random.Random(12)
        a = sparse_two_way_nfa(3, 2, rng)
        xs = ragged(2, 6, 4, rng)
        ys = ragged(2, 5, 4, rng)
        got = _search([(a, [_prefix_grid(a, []), _concatenation_grid(a, xs, []),
                            _prefix_grid(a, xs), _suffix_grid(a, []), _suffix_grid(a, ys),
                            _concatenation_grid(a, [], ys)])])
        assert got == [[], [0] * len(xs), prefix_tables_of(a, xs), [],
                       suffix_tables_of(a, ys), []]
        assert _search([(a, [_prefix_grid(a, [])])]) == [[]]
        assert _search([(a, [_suffix_grid(a, [])])]) == [[]]
        assert transpose([0, 0, 0], 0) == []

    @pytest.mark.parametrize("states", [7, 8, 9, 15, 16])
    def test_lane_reads_on_both_sides_of_a_byte(self, states, sparse_two_way_nfa):
        # a lane's 1-based state mask takes one byte up to seven states, and
        # the transpose spreads the states' ints to bytes; from eight states
        # on it packs them per byte (up to 8 lanes) or reads their text.
        # Each path against a bit probe per lane and state, with more lanes
        # than one 64-bit word
        rng = random.Random(states)
        for lanes in (1, 7, 8, 70):
            ints = [rng.getrandbits(lanes) for _ in range(states)]
            flags = rng.getrandbits(lanes)
            want = [sum((held >> lane & 1) << t for t, held in enumerate((flags, *ints)))
                    for lane in range(lanes)]
            assert transpose([flags, *ints], lanes) == want
            assert transpose([0, *ints], lanes) == [m & ~1 for m in want]
        a = sparse_two_way_nfa(states, 2, rng, 3)
        xs = ragged(2, 6, 4, rng)
        ys = ragged(2, 6, 4, rng)
        fs = prefix_tables_of(a, xs)
        gs = suffix_tables_of(a, ys)
        assert fs == [oracle_prefix_table(a, x) for x in xs]
        assert gs == [oracle_suffix_table(a, y) for y in ys]

    def test_empty_families(self):
        a = forward_only()
        assert concatenation_bits(a, [], [(0,)]) == []
        assert concatenation_bits(a, [(0,)], []) == [0]
        assert prefix_tables_of(a, []) == suffix_tables_of(a, []) == []


class TestInducedTables:
    def test_starting_value_is_the_initial_exit_set(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(1000):
            a = random_two_way_nfa(rng.randint(1, 3), 2, rng)
            x = tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
            s_x = closure_exits(a, [LEFT_MARKER, *x], [(q, 0) for q in a.initial])[1]
            [f] = prefix_tables_of(a, [x])
            if f is None:
                assert s_x == 0
                continue
            hits += 1
            assert f.value(starting_state(f)) == s_x
        assert hits > 200  # the sweep is not vacuous

    def test_accept_flags_equal_accept_profile(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(1000):
            a = random_two_way_nfa(rng.randint(1, 3), 2, rng)
            y = tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
            a_y = mask_of(q + 1 for q in range(a.state_count)
                          if any(p == len(y) and t in a.accepting for t, p in
                                 closure_exits(a, [*y, RIGHT_MARKER], [(q, 0)])[0]))
            [g] = suffix_tables_of(a, [y])
            if g is None:
                assert a_y == 0
                continue
            hits += 1
            assert g.accept_flags == a_y
        assert hits > 200

    def test_witness_automaton_round_trip(self):
        rng = random.Random(3)
        fs = enumerate_prefix_tables(3)
        gs = enumerate_suffix_tables(3)
        aut = WitnessAutomaton(3, fs, gs)
        pairs = [(rng.choice(fs), rng.choice(gs)) for _ in range(250)]
        words = [aut.word(f, g) for f, g in pairs]
        assert prefix_tables_of(aut.nfa, [w[:2] for w in words]) == [f for f, _ in pairs]
        assert suffix_tables_of(aut.nfa, [w[2:] for w in words]) == [g for _, g in pairs]


class TestSchmidtMatrix:
    def test_always_accepting(self):
        m = schmidt_matrix(forward_only(), [(), (0,)], [(1,), ()])
        assert m.to_lists() == [[1, 1], [1, 1]]

    def test_never_accepting(self):
        m = schmidt_matrix(never_accepting(), [(), (0,)], [(1,), ()])
        assert m.to_lists() == [[0, 0], [0, 0]]

    def test_entries_are_concatenation_acceptance(self):
        rng = random.Random(5)
        for _ in range(50):
            a = random_two_way_nfa(2, 2, rng)
            xs = random_strings(2, 4, 3, rng)
            ys = random_strings(2, 4, 3, rng)
            m = schmidt_matrix(a, xs, ys)
            for i, x in enumerate(xs):
                for j, y in enumerate(ys):
                    assert m.entry(i, j) == int(dfs_two_way_accepts(a, tuple(x) + tuple(y)))

    def test_witness_matrix_reappears(self):
        # feed the witness automaton its own alphabet: the concatenation
        # matrix over canonical prefixes and suffix letters is the n=2
        # acceptance matrix, entry for entry
        fs = enumerate_prefix_tables(2)
        gs = enumerate_suffix_tables(2)
        aut = WitnessAutomaton(2, fs, gs)
        xs = [tuple(aut.word(f, gs[0])[:2]) for f in fs]
        ys = [tuple(aut.word(fs[0], g)[2:]) for g in gs]
        m = schmidt_matrix(aut.nfa, xs, ys)
        assert m.bits == build_M(2).bits


class TestVerifyOptimality:
    def test_report_fields_and_json(self):
        rng = random.Random(2)
        a = random_two_way_nfa(2, 2, rng)
        xs = random_strings(2, 6, 3, rng)
        ys = random_strings(2, 6, 3, rng)
        report = verify_optimality(a, xs, ys, seed=99)
        assert report.ok
        blob = json.loads(json.dumps(report.to_json()))
        assert set(blob) == {"n", "rank", "bound", "rows", "cols",
                             "reduced_rows", "reduced_cols", "seed", "ok"}
        assert blob["seed"] == 99 and blob["n"] == 2 and blob["bound"] == 7
        assert blob["rows"] == 6 and blob["cols"] == 6
        assert blob["reduced_rows"] <= 6 and blob["reduced_cols"] <= 6

    def test_rank_chain_and_entry_agreement(self):
        rng = random.Random(31)
        from ufabound import exact_linalg as la
        for _ in range(40):
            a = random_two_way_nfa(2, 2, rng)
            xs = random_strings(2, rng.randint(1, 8), 4, rng)
            ys = random_strings(2, rng.randint(1, 8), 4, rng)
            report = verify_optimality(a, xs, ys)
            assert report.ok
            # the chain of rank-preserving reductions, gathered here: rows and
            # columns without a table dropped, then one per distinct table
            kept_rows, first_rows = kept_and_first(prefix_tables_of(a, xs))
            kept_cols, first_cols = kept_and_first(suffix_tables_of(a, ys))
            pruned = submatrix(report.matrix, kept_rows, kept_cols)
            dedup = submatrix(report.matrix, first_rows, first_cols)
            assert (la.rank_exact(report.matrix)
                    == la.rank_exact(pruned)
                    == la.rank_exact(dedup)
                    == report.rank)
            assert dedup.bits == report.universal.bits
            universal = acceptance_matrix(prefix_tables_of(a, dedup.row_labels),
                                          suffix_tables_of(a, dedup.col_labels), 2)
            assert universal == report.universal

    def test_empty_profile_rows_are_zero(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(300):
            a = random_two_way_nfa(2, 2, rng)
            xs = random_strings(2, 5, 3, rng)
            ys = random_strings(2, 5, 3, rng)
            m = schmidt_matrix(a, xs, ys)
            for i, f in enumerate(prefix_tables_of(a, xs)):
                if f is None:
                    assert m.bits[i] == 0
                    checked += 1
            for j, g in enumerate(suffix_tables_of(a, ys)):
                if g is None:
                    assert all(not m.entry(i, j) for i in range(m.rows))
                    checked += 1
        assert checked > 50

    def test_bound_is_attained_through_the_crossing_pipeline(self):
        # the witness automaton over the ordered prefix tables and all
        # suffix tables, fed its own letters: prefix strings are a start
        # letter and a prefix letter, suffix strings one suffix letter
        for n, count, letters in ((2, 7, 18), (3, 115, 335)):
            fs = enumerate_ordered_prefix_tables(n)
            gs = enumerate_suffix_tables(n)
            aut = WitnessAutomaton(n, fs, gs)
            assert aut.nfa.alphabet_size == letters
            xs = [tuple(aut.word(f, gs[0])[:2]) for f in fs]
            ys = [tuple(aut.word(fs[0], g)[2:]) for g in gs]
            report = verify_optimality(aut.nfa, xs, ys)
            assert report.ok
            assert report.rank == report.bound == count
            assert (report.rows, report.cols) == (len(fs), len(gs))

    def test_campaign_is_deterministic(self):
        a = next(crossing.random_campaign(2, 2, [12]))
        b = next(crossing.random_campaign(2, 2, [12]))
        assert a.to_json() == b.to_json()
        assert a.matrix.bits == b.matrix.bits


class TestVerifyOptimalityRejects:
    """Each injected fault must give a report that is not ok."""

    @staticmethod
    def instance():
        # a seeded campaign instance whose kept matrix has a 1, with the
        # string of its first non-zero row repeated at the end
        for seed in range(100):
            rng = random.Random(seed)
            a = random_two_way_nfa(3, 2, rng)
            xs = random_strings(2, 8, 4, rng)
            ys = random_strings(2, 8, 4, rng)
            report = verify_optimality(a, xs, ys)
            assert report.ok
            if any(report.universal.bits):
                i = next(i for i, b in enumerate(report.matrix.bits) if b)
                return a, xs + [xs[i]], ys
        raise AssertionError("no instance with a non-zero kept entry")

    @staticmethod
    def patch_search(monkeypatch, change):
        real = crossing._report

        def patched(a, xs, ys, found, seed, shared):
            return real(a, xs, ys, change(*found), seed, shared)

        monkeypatch.setattr(crossing, "_report", patched)

    def test_a_flipped_universal_entry_fails(self, monkeypatch):
        a, xs, ys = self.instance()
        real = crossing.acceptance_matrix

        def flipped(prefixes, suffixes, n):
            m = real(prefixes, suffixes, n)
            return BoolMatrix(m.row_labels, m.col_labels, m.cols, (m.bits[0] ^ 1, *m.bits[1:]))

        monkeypatch.setattr(crossing, "acceptance_matrix", flipped)
        assert not verify_optimality(a, xs, ys).ok

    def test_a_non_zero_pruned_row_fails(self, monkeypatch):
        a, xs, ys = self.instance()

        def drop_row(bits, fx, gy):
            i = next(i for i, b in enumerate(bits) if b)
            return bits, fx[:i] + [None] + fx[i + 1:], gy

        self.patch_search(monkeypatch, drop_row)
        assert not verify_optimality(a, xs, ys).ok

    def test_a_non_zero_pruned_column_fails(self, monkeypatch):
        a, xs, ys = self.instance()

        def drop_column(bits, fx, gy):
            j = next(j for j in range(len(gy)) if any(b >> j & 1 for b in bits))
            return bits, fx, gy[:j] + [None] + gy[j + 1:]

        self.patch_search(monkeypatch, drop_column)
        assert not verify_optimality(a, xs, ys).ok

    def test_two_rows_of_one_string_must_agree(self, monkeypatch):
        # the repeated string's second row is zeroed, which leaves every rank
        # as it was; its table is the first copy's, so the universal matrix
        # gives it the first copy's non-zero row
        a, xs, ys = self.instance()

        def differ(bits, fx, gy):
            return bits[:-1] + [0], fx, gy

        self.patch_search(monkeypatch, differ)
        report = verify_optimality(a, xs, ys)
        assert report.matrix.bits[-1] != report.matrix.bits[xs.index(xs[-1])]
        assert not report.ok

    def test_a_miscounted_universal_rank_fails(self, monkeypatch):
        # the universal matrix is the one whose labels are tables
        a, xs, ys = self.instance()
        real = crossing.exact_linalg.rank_exact

        def miscount(m):
            return real(m) + isinstance(m.row_labels[0], PrefixTable)

        monkeypatch.setattr(crossing.exact_linalg, "rank_exact", miscount)
        report = verify_optimality(a, xs, ys)
        assert report.rank == real(report.matrix)
        assert not report.ok


class TestBlocks:
    """Instances decided together, each lane running its own automaton,
    against each instance decided alone."""

    @staticmethod
    def instances(states, alphabet, rng):
        # empty strings in every family, empty families, and an automaton
        # that induces no table at all
        silent = TwoWayNfa(states, alphabet, set(), {}, set())
        out = [(silent, ragged(alphabet, 3, 3, rng), ragged(alphabet, 4, 3, rng), 0)]
        for k in range(1, 9):
            a = random_two_way_nfa(states, alphabet, rng)
            xs = ragged(alphabet, rng.randint(1, 7), 4, rng)
            ys = ragged(alphabet, rng.randint(1, 7), 4, rng)
            out.append((a, xs, ys, k))
        out.append((a, [], ys, 9))
        out.append((a, xs, [], 10))
        return out

    def test_a_block_reports_what_each_instance_reports_alone(self):
        rng = random.Random(21)
        kept = 0
        for states in range(1, 6):
            for alphabet in (1, 2, 3):
                instances = self.instances(states, alphabet, rng)
                alone = [verify_optimality(a, xs, ys, seed) for a, xs, ys, seed in instances]
                assert list(crossing._reports(instances)) == alone
                assert list(crossing._reports(instances[4:5])) == alone[4:5]
                assert alone[0].universal.rows == alone[0].universal.cols == 0
                kept += sum(r.universal.rows * r.universal.cols for r in alone)
        assert kept > 100  # the universal matrices are not vacuously empty

    def test_each_universal_is_the_matrix_of_its_own_tables_alone(self):
        rng = random.Random(22)
        for states in range(1, 6):
            for alphabet in (1, 2, 3):
                instances = self.instances(states, alphabet, rng)
                for (a, xs, ys, _), report in zip(instances, crossing._reports(instances)):
                    fx = dict.fromkeys(f for f in prefix_tables_of(a, xs) if f is not None)
                    gy = dict.fromkeys(g for g in suffix_tables_of(a, ys) if g is not None)
                    assert report.universal == acceptance_matrix(list(fx), list(gy), states)

    def test_a_block_builds_one_universal_matrix(self, monkeypatch):
        calls = []
        real = crossing.acceptance_matrix

        def counted(prefixes, suffixes, n):
            calls.append(n)
            return real(prefixes, suffixes, n)

        monkeypatch.setattr(crossing, "acceptance_matrix", counted)
        seeds = range(2 * RANDOM_BLOCK_MAX)
        assert len(list(crossing.random_campaign(3, 2, seeds))) == len(seeds)
        assert calls == [3, 3]

    def test_each_lane_of_several_automata_is_its_own_closure(self, sparse_two_way_nfa):
        # the several-automata search against the closure oracle on each
        # lane's own tape: 3-4 automata, each with a grid of bare fragments,
        # whose heads zig-zag out of both ends, one of marked prefixes, which
        # exit right at the split, and one of marked suffixes, which exit
        # left just before it; every grid has seeds
        rng = random.Random(24)
        seen = {"right": set(), "left": set(), "far": 0, "padding": 0}
        for states in (1, 2, 3, 4):
            for _ in range(3):
                alphabet = rng.randint(1, 3)
                groups = []
                for _ in range(rng.randint(3, 4)):
                    a = (random_two_way_nfa(states, alphabet, rng) if rng.random() < 0.3
                         else sparse_two_way_nfa(states, alphabet, rng, 3))
                    # bare fragments up to 5 letters, marked ones up to 4
                    # with the marker, so that some exits land in the padding
                    xs = ragged(alphabet, rng.randint(1, 4), 5, rng)
                    ys = [*ragged(alphabet, rng.randint(1, 3), 4, rng),
                          (*random_strings(alphabet, 1, 4, rng)[0], rng.randrange(alphabet))]
                    marked = ragged(alphabet, 3, 3, rng)
                    groups.append((a, [(xs, ys), ([(LEFT_MARKER, *x) for x in marked], [()]),
                                       ([()], [(*y, RIGHT_MARKER) for y in marked])]))
                lanes, seeds = [], []
                for a, grids in groups:
                    for kind, (xs, ys) in zip(("bare", "prefix", "suffix"), grids):
                        tapes = [(x, y) for x in xs for y in ys]
                        # each lane's seeds, as (state, tape position)
                        picks = [[(rng.randrange(states), rng.randrange(len(x + y)))
                                  for _ in range(rng.randint(0, 2))] if x + y else []
                                 for x, y in tapes]
                        if not any(picks):
                            x, y = next(t for t in tapes if t[0] + t[1])
                            picks[tapes.index((x, y))] = [(0, 0)]
                        lanes += [(a, kind, x, x + y, pick) for (x, y), pick in zip(tapes, picks)]
                        seeds.append([(k - len(x), q, 1 << lane)
                                      for lane, ((x, _), pick) in enumerate(zip(tapes, picks))
                                      for q, k in pick])
                stacked = [(xs, ys) for _, grids in groups for xs, ys in grids]
                cells, split, offsets = _layout(stacked)
                owners, g = [], 0
                for a, grids in groups:
                    owners.append((a, (1 << offsets[g + len(grids)]) - (1 << offsets[g])))
                    g += len(grids)
                at = _reach(owners, cells, [(split + p, q, bits << offset)
                                            for grid, offset in zip(seeds, offsets)
                                            for p, q, bits in grid])
                assert len(lanes) == offsets[-1]
                for lane, (a, kind, x, tape, pick) in enumerate(lanes):
                    start = split - len(x)
                    reached = {(q, p - start) for p in range(len(cells)) for q in range(states)
                               if at[p * states + q] >> lane & 1}
                    assert all(-1 <= k <= len(tape) for _, k in reached)
                    configs = {(q, k) for q, k in reached if 0 <= k < len(tape)}
                    right = mask_of(q + 1 for q, k in reached if k == len(tape))
                    left = mask_of(q + 1 for q, k in reached if k == -1)
                    assert (configs, right, left) == closure_exits(a, tape, pick), (lane, kind)
                    if right:
                        seen["right"].add(kind)
                    if left:
                        seen["left"].add(kind)
                    seen["far"] += len(configs) > len(pick) + 2
                    seen["padding"] += bool(left and start == 1 or right
                                            and start + len(tape) == len(cells) - 1)
        # exits on both sides, at the split and in the padding, and lanes
        # that reach far
        assert seen["right"] == {"bare", "prefix"} and seen["left"] == {"bare", "suffix"}
        assert seen["far"] > 50 and seen["padding"] > 10

    def test_a_flipped_shared_entry_fails_exactly_its_readers(self, monkeypatch):
        instances = self.instances(2, 2, random.Random(23))
        reports = list(crossing._reports(instances))
        assert all(r.ok for r in reports)
        shared = crossing.acceptance_matrix(
            list(dict.fromkeys(f for r in reports for f in r.universal.row_labels)),
            list(dict.fromkeys(g for r in reports for g in r.universal.col_labels)), 2)
        real = crossing.acceptance_matrix
        readers_seen = set()
        for i in range(shared.rows):
            for j in range(shared.cols):
                f, g = shared.row_labels[i], shared.col_labels[j]
                readers = [f in r.universal.row_labels and g in r.universal.col_labels
                           for r in reports]
                readers_seen.add(min(sum(readers), 2))

                def flipped(prefixes, suffixes, n, i=i, j=j):
                    m = real(prefixes, suffixes, n)
                    assert m == shared
                    bits = list(m.bits)
                    bits[i] ^= 1 << j
                    return BoolMatrix(m.row_labels, m.col_labels, m.cols, tuple(bits))

                monkeypatch.setattr(crossing, "acceptance_matrix", flipped)
                got = [not r.ok for r in crossing._reports(instances)]
                assert got == readers, (i, j)
        # entries read by no instance, by one, and by several
        assert readers_seen == {0, 1, 2}

    def test_the_campaign_reports_each_seed_as_alone(self):
        seeds = range(70, 110)
        for states in (2, 3):
            # full blocks and a partial last one
            assert len(seeds) % random_block(states, 2)
            got = list(crossing.random_campaign(states, 2, seeds))
            assert got == [next(crossing.random_campaign(states, 2, [seed])) for seed in seeds]
            assert list(crossing.random_records(states, 2, seeds)) == \
                [next(crossing.random_records(states, 2, [seed])) for seed in seeds]

    def test_a_block_keeps_at_most_its_moves(self, monkeypatch):
        assert random_block(3, 2) == RANDOM_BLOCK_MAX
        # states^2 * (alphabet + 2) moves per automaton, at most
        # RANDOM_BLOCK_MOVES in a block and one automaton at least
        assert random_block(10, 8) * 10**2 * (8 + 2) == RANDOM_BLOCK_MOVES
        assert random_block(10, 18) == random_block(10, 19) == 1
        # and at most RANDOM_BLOCK_ALPHABET letters
        assert random_block(1, RANDOM_BLOCK_ALPHABET) > 1 == random_block(1, 17)
        # 100^2 * (198 + 2) moves is the cap itself
        assert random_block(100, 198) == 1
        # one automaton per search at the cap, none of them built that size
        real = crossing._search
        blocks = []

        def counted(groups):
            blocks.append(len(groups))
            return real(groups)

        monkeypatch.setattr(crossing, "random_two_way_nfa",
                            lambda states, alphabet, rng: forward_only_over(alphabet))
        monkeypatch.setattr(crossing, "_search", counted)
        for states, alphabet, sizes in ((100, 198, [1, 1, 1]), (10, 8, [2, 1])):
            blocks.clear()
            reports = list(crossing.random_campaign(states, alphabet, range(3)))
            assert blocks == sizes and [r.seed for r in reports] == [0, 1, 2]


class TestRandomDraws:
    """The random automata and strings against the per-move loop and the
    ``randint``/``randrange`` calls that define them: equal results and the
    generator left in the same state."""

    @staticmethod
    def oracle_two_way_nfa(state_count, alphabet_size, rng):
        symbols = list(range(alphabet_size)) + [LEFT_MARKER, RIGHT_MARKER]
        initial = frozenset(q for q in range(state_count) if rng.random() < 0.5)
        accepting = frozenset(q for q in range(state_count) if rng.random() < 0.5)
        trans: dict = {}
        for q in range(state_count):
            for c in symbols:
                for t in range(state_count):
                    for d in (-1, +1):
                        if rng.random() >= 0.5:
                            continue
                        if c == LEFT_MARKER and d == -1:
                            continue
                        if c == RIGHT_MARKER and q in accepting:
                            continue
                        trans.setdefault((q, c), set()).add((t, d))
        return TwoWayNfa(state_count, alphabet_size, initial, trans, accepting)

    @staticmethod
    def oracle_strings(alphabet_size, count, max_len, rng):
        out = []
        for _ in range(count):
            length = rng.randint(0, max_len)
            out.append(tuple(rng.randrange(alphabet_size) for _ in range(length)))
        return out

    def test_the_draws_are_the_oracles_draws(self):
        alphabets = (1, 2, 3, 4, 5, 240)
        # every third of the 3,840 shapes, each drawn from its own seed
        shapes = list(itertools.product(range(1, 5), alphabets, range(1, 21), range(8)))[::3]
        for seed, (states, alphabet, count, max_len) in enumerate(shapes):
            got, want = random.Random(seed), random.Random(seed)
            assert random_two_way_nfa(states, alphabet, got) == \
                self.oracle_two_way_nfa(states, alphabet, want)
            for _ in range(2):
                assert random_strings(alphabet, count, max_len, got) == \
                    self.oracle_strings(alphabet, count, max_len, want)
            assert got.getstate() == want.getstate()
        assert len(shapes) == 1280
        assert {s[0] for s in shapes} == {1, 2, 3, 4}
        assert {s[1] for s in shapes} == set(alphabets)
        assert {s[2] for s in shapes} == set(range(1, 21))
        assert {s[3] for s in shapes} == set(range(8))

    def test_strings_need_a_letter_and_a_length(self):
        for alphabet, max_len in ((0, 3), (2, -1)):
            with pytest.raises(ValueError):
                random_strings(alphabet, 1, max_len, random.Random(0))


def forward_only_over(alphabet):
    trans = {(0, c): {(0, +1)} for c in (LEFT_MARKER, *range(alphabet))}
    return TwoWayNfa(1, alphabet, {0}, trans, {0})
