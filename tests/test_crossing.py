import json
import random

from conftest import (closure_exits, configurations, dfs_two_way_accepts,
                      oracle_prefix_profile, oracle_suffix_profile)
from ufabound.automata import (LEFT_MARKER, RIGHT_MARKER, TwoWayNfa, _layout,
                               _reach, concatenation_bits, twonfa_accepts)
from ufabound.combinatorics import enumerate_ordered_prefix_tables
from ufabound.crossing import (prefix_profile, prefix_profiles, prefix_table_of,
                               random_campaign_report, random_strings,
                               random_two_way_nfa, schmidt_matrix,
                               suffix_profile, suffix_profiles, suffix_table_of,
                               verify_optimality)
from ufabound.statesets import full_mask, mask_of
from ufabound.tables import enumerate_prefix_tables, enumerate_suffix_tables
from ufabound.witness import WitnessAutomaton, build_M, m_entry


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


class TestProfiles:
    def test_forward_sweep(self):
        a = forward_only()
        for x in ((), (0,), (1, 0)):
            s_x, t = prefix_profile(a, x)
            assert s_x == mask_of({1})
            assert t == (mask_of({1}),)

    def test_no_left_marker_moves(self):
        a = TwoWayNfa(1, 1, {0}, {(0, 0): {(0, +1)}}, {0})
        s_x, t = prefix_profile(a, (0,))
        assert s_x == 0          # stuck on the left marker
        assert t == (mask_of({1}),)
        assert prefix_table_of(a, (0,)) is None

    def test_forward_only_induces_the_constant_table(self):
        f = prefix_table_of(forward_only(), (0, 1))
        assert f is not None and f.n == 1
        assert f.values == (mask_of({1}),)

    def test_suffix_accept_and_exit(self):
        a = forward_only()
        a_y, t_prime = suffix_profile(a, (0,))
        assert a_y == mask_of({1})
        assert t_prime == (0,)
        g = suffix_table_of(a, (0,))
        assert g.accept_flags == mask_of({1})
        assert g.value(1) == full_mask(1)

    def test_never_accepting_suffix(self):
        assert suffix_table_of(never_accepting(), (0,)) is None

    def test_profile_record(self):
        s_x, t = prefix_profile(forward_only(), (0,))
        a_y, t_prime = suffix_profile(forward_only(), (1,))
        assert s_x == a_y == mask_of({1})
        assert t == (mask_of({1}),) and t_prime == (0,)

    def test_empty_suffix_accepts_from_accepting_states(self):
        # on the bare right marker, exactly the accepting states accept,
        # and marker moves going left exit immediately
        trans = {(0, RIGHT_MARKER): {(1, -1)}}
        a = TwoWayNfa(2, 1, {0}, trans, {1})
        a_y, t_prime = suffix_profile(a, ())
        assert a_y == mask_of({2})
        assert t_prime == (mask_of({2}), 0)

    def test_right_move_off_the_right_marker_is_dropped(self):
        a = right_marker_mover()
        for word in ((), (0,), (0, 0)):
            tape = [LEFT_MARKER, *word, RIGHT_MARKER]
            # one lane: the tape fills the positions between the two padding
            # positions, where the exits would land
            cells, _, _ = _layout([tape], [()])
            exit_left, *at, exit_right = [
                mask_of(q + 1 for q, lanes in enumerate(states) if lanes & 1)
                for states in _reach(a, cells, [(1, 0, 1)])]
            assert at == [mask_of({1})] * len(tape)
            assert exit_right == exit_left == 0
            assert closure_exits(a, tape, [(0, 0)]) == (configurations(at), 0, 0)
            assert not twonfa_accepts(a, word)
            # the suffix fragment ends on the right marker: state 1 does not
            # accept through the dropped move, and it is no exit either
            a_y, t_prime = suffix_profile(a, word)
            assert a_y == (0 if word else mask_of({2})) and t_prime == (0, 0)
            assert (a_y, t_prime) == oracle_suffix_profile(a, word)
        # a prefix fragment ends on a real symbol, so the same state exits
        assert prefix_profile(a, (0,)) == (mask_of({1}), (mask_of({1}), 0))

    def test_profiles_match_the_closure_oracle(self, sparse_two_way_nfa):
        rng = random.Random(41)
        exits_seen = 0
        for _ in range(500):
            a = random_two_way_nfa(rng.randint(1, 3), 2, rng)
            x = random_strings(2, 1, 5, rng)[0]
            y = random_strings(2, 1, 5, rng)[0]
            prefix = prefix_profile(a, x)
            suffix = suffix_profile(a, y)
            assert prefix == oracle_prefix_profile(a, x)
            assert suffix == oracle_suffix_profile(a, y)
            exits_seen += bool(prefix[0]) + any(suffix[1])
        assert exits_seen > 300  # the exit masks are not vacuously empty
        # beyond three states, with sparser moves so that profiles differ
        for states in (8, 8, 9, 9):
            a = sparse_two_way_nfa(states, 2, rng)
            for x in random_strings(2, 3, 4, rng):
                assert prefix_profile(a, x) == oracle_prefix_profile(a, x)
            for y in random_strings(2, 3, 4, rng):
                assert suffix_profile(a, y) == oracle_suffix_profile(a, y)


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
        exits_seen = 0
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
                prefixes = prefix_profiles(a, xs)
                suffixes = suffix_profiles(a, ys)
                assert prefixes == [oracle_prefix_profile(a, x) for x in xs]
                assert suffixes == [oracle_suffix_profile(a, y) for y in ys]
                exits_seen += sum(bool(p[0]) + any(p[1]) for p in prefixes)
                exits_seen += sum(bool(s[0]) + any(s[1]) for s in suffixes)
        assert exits_seen > 200  # the exit masks are not vacuously empty

    def test_empty_families(self):
        a = forward_only()
        assert concatenation_bits(a, [], [(0,)]) == []
        assert concatenation_bits(a, [(0,)], []) == [0]
        assert prefix_profiles(a, []) == suffix_profiles(a, []) == []


class TestInducedTables:
    def test_starting_value_is_the_initial_exit_set(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(1000):
            a = random_two_way_nfa(rng.randint(1, 3), 2, rng)
            x = tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
            s_x, _ = prefix_profile(a, x)
            f = prefix_table_of(a, x)
            if f is None:
                assert s_x == 0
                continue
            hits += 1
            from ufabound.tables import starting_state
            assert f.value(starting_state(f)) == s_x
        assert hits > 200  # the sweep is not vacuous

    def test_accept_flags_equal_accept_profile(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(1000):
            a = random_two_way_nfa(rng.randint(1, 3), 2, rng)
            y = tuple(rng.randrange(2) for _ in range(rng.randint(0, 4)))
            a_y, _ = suffix_profile(a, y)
            g = suffix_table_of(a, y)
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
        for _ in range(250):
            f, g = rng.choice(fs), rng.choice(gs)
            word = aut.word(f, g)
            fx = prefix_table_of(aut.nfa, word[:2])
            gy = suffix_table_of(aut.nfa, word[2:])
            assert fx == f
            assert gy == g


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
            assert (la.rank_exact(report.matrix)
                    == la.rank_exact(report.pruned)
                    == la.rank_exact(report.deduplicated)
                    == report.rank)
            for i, f in enumerate(report.deduplicated.row_labels):
                for j, g in enumerate(report.deduplicated.col_labels):
                    fx = prefix_table_of(a, f)
                    gy = suffix_table_of(a, g)
                    assert report.deduplicated.entry(i, j) == m_entry(fx, gy)

    def test_empty_profile_rows_are_zero(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(300):
            a = random_two_way_nfa(2, 2, rng)
            xs = random_strings(2, 5, 3, rng)
            ys = random_strings(2, 5, 3, rng)
            m = schmidt_matrix(a, xs, ys)
            for i, x in enumerate(xs):
                if prefix_table_of(a, x) is None:
                    assert m.bits[i] == 0
                    checked += 1
            for j, y in enumerate(ys):
                if suffix_table_of(a, y) is None:
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
        a = random_campaign_report(2, 2, seed=12)
        b = random_campaign_report(2, 2, seed=12)
        assert a.to_json() == b.to_json()
        assert a.matrix.bits == b.matrix.bits
