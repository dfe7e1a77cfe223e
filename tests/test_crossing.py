import json
import random

from ufabound.automata import LEFT_MARKER, RIGHT_MARKER, TwoWayNfa, twonfa_accepts
from ufabound.crossing import (prefix_profile, prefix_table_of,
                               random_campaign_report, random_strings,
                               random_two_way_nfa, schmidt_matrix,
                               suffix_profile, suffix_table_of,
                               verify_optimality)
from ufabound.statesets import full_mask, mask_of
from ufabound.tables import enumerate_prefix_tables, enumerate_suffix_tables
from ufabound.witness import WitnessAutomaton, encode_string, m_entry


def forward_only():
    trans = {(0, LEFT_MARKER): {(0, +1)}, (0, 0): {(0, +1)}, (0, 1): {(0, +1)}}
    return TwoWayNfa(1, 2, {0}, trans, {0})


def never_accepting():
    trans = {(0, LEFT_MARKER): {(0, +1)}, (0, 0): {(0, +1)}, (0, 1): {(0, +1)}}
    return TwoWayNfa(1, 2, {0}, trans, set())


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
        for _ in range(250):
            f, g = rng.choice(fs), rng.choice(gs)
            aut, word = WitnessAutomaton(3).concretize(encode_string(f, g))
            fx = prefix_table_of(aut, word[:2])
            gy = suffix_table_of(aut, word[2:])
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
                    assert m.entry(i, j) == int(twonfa_accepts(a, tuple(x) + tuple(y)))

    def test_witness_matrix_reappears(self):
        # feed the witness automaton its own alphabet: the concatenation
        # matrix over canonical prefixes and suffix letters is the n=2
        # acceptance matrix, entry for entry
        from ufabound.witness import build_M, PrefixSym, StartState, SuffixSym
        fs = enumerate_prefix_tables(2)
        gs = enumerate_suffix_tables(2)
        letters = [StartState(1), StartState(2)]
        letters += [PrefixSym(f) for f in fs] + [SuffixSym(g) for g in gs]
        aut, ids = WitnessAutomaton(2).concretize(letters)
        code = dict(zip(letters, ids))
        from ufabound.tables import starting_state
        xs = [(code[StartState(starting_state(f))], code[PrefixSym(f)]) for f in fs]
        ys = [(code[SuffixSym(g)],) for g in gs]
        m = schmidt_matrix(aut, xs, ys)
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
            assert (la.rank_exact(report.matrix.to_lists())
                    == la.rank_exact(report.pruned.to_lists())
                    == la.rank_exact(report.deduplicated.to_lists())
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

    def test_campaign_is_deterministic(self):
        a = random_campaign_report(2, 2, seed=12)
        b = random_campaign_report(2, 2, seed=12)
        assert a.to_json() == b.to_json()
        assert a.matrix.bits == b.matrix.bits
