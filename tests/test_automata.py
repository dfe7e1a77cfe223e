import random

import pytest

from conftest import dfs_two_way_accepts
from ufabound.automata import (LEFT_MARKER, RIGHT_MARKER, TwoWayNfa,
                               dump_automaton, load_automaton, twonfa_accepts)


def forward_only_two_way():
    trans = {(0, LEFT_MARKER): {(0, +1)}, (0, 0): {(0, +1)}, (0, 1): {(0, +1)}}
    return TwoWayNfa(1, 2, {0}, trans, {0})


def test_forward_sweep_accepts():
    a = forward_only_two_way()
    for word in ([], [0], [1, 0, 1]):
        assert twonfa_accepts(a, word)


def test_empty_transition_map_rejects_nonempty():
    # acceptance needs the right marker, so an accepting initial state
    # alone does not accept even the empty string
    a = TwoWayNfa(2, 2, {0}, {}, {0, 1})
    for word in ([], [0], [1, 0]):
        assert not twonfa_accepts(a, word)


def test_two_state_chain():
    trans = {(0, LEFT_MARKER): {(0, +1)}, (0, 0): {(1, +1)}}
    a = TwoWayNfa(2, 1, {0}, trans, {1})
    assert twonfa_accepts(a, [0])
    assert not twonfa_accepts(a, [])
    assert not twonfa_accepts(a, [0, 0])


def test_symbol_out_of_range_rejected():
    a = forward_only_two_way()
    for word in ([2], [0, -1]):
        with pytest.raises(ValueError):
            twonfa_accepts(a, word)


def test_stuck_at_left_marker():
    a = TwoWayNfa(2, 2, {0}, {(0, 0): {(1, +1)}}, {1})
    for word in ([], [0], [0, 1]):
        assert not twonfa_accepts(a, word)


def test_two_way_walks_back_and_forth():
    # bounce off the right marker once, then come back and accept
    trans = {
        (0, LEFT_MARKER): {(0, +1)},
        (0, 0): {(0, +1)},
        (0, RIGHT_MARKER): {(1, -1)},
        (1, 0): {(1, -1)},
        (1, LEFT_MARKER): {(2, +1)},
        (2, 0): {(2, +1)},
    }
    a = TwoWayNfa(3, 1, {0}, trans, {2})
    assert twonfa_accepts(a, [0])
    assert twonfa_accepts(a, [0, 0, 0])
    assert not twonfa_accepts(TwoWayNfa(3, 1, {0}, trans, {1}), [0])


def random_two_way(rng, states=2, alphabet=2):
    from ufabound.crossing import random_two_way_nfa
    return random_two_way_nfa(states, alphabet, rng)


def test_two_way_acceptance_is_order_independent():
    rng = random.Random(3)
    for _ in range(200):
        a = random_two_way(rng)
        word = [rng.randrange(2) for _ in range(rng.randint(0, 5))]
        assert twonfa_accepts(a, word) == dfs_two_way_accepts(a, word)


def test_acceptance_matches_the_search_beyond_three_states(sparse_two_way_nfa):
    # one lane per word, up to 17 states, against the configuration search
    rng = random.Random(17)
    outcomes = {}
    for states in (*range(1, 10), 17):
        for _ in range(30):
            a = sparse_two_way_nfa(states, 2, rng)
            for _ in range(5):
                word = [rng.randrange(2) for _ in range(rng.randint(0, 7))]
                got = twonfa_accepts(a, word)
                assert got == dfs_two_way_accepts(a, word), (states, word)
                outcomes.setdefault(states, set()).add(got)
    assert all(seen == {False, True} for seen in outcomes.values())


def test_two_way_structural_rules():
    with pytest.raises(ValueError):
        TwoWayNfa(1, 1, {0}, {(0, LEFT_MARKER): {(0, -1)}}, {0})
    with pytest.raises(ValueError):
        TwoWayNfa(1, 1, {0}, {(0, RIGHT_MARKER): {(0, -1)}}, {0})
    # a non-accepting state may move on the right marker
    TwoWayNfa(2, 1, {0}, {(0, RIGHT_MARKER): {(0, -1)}}, {1})


@pytest.mark.parametrize("args, message", [
    ((0, 1, set(), {}, set()), "state_count must be positive"),
    ((1, 0, {0}, {}, set()), "alphabet_size must be positive"),
    ((1, 1, {0}, {(1, 0): {(0, 1)}}, set()), "transition from unknown state 1"),
    ((1, 1, {0}, {(0, 1): {(0, 1)}}, set()), "transition on unknown symbol 1"),
    ((1, 1, {0}, {(0, 0): {(1, 1)}}, set()), "transition into unknown state 1"),
    ((1, 1, {0}, {(0, 0): {(0, 0)}}, set()), "bad direction 0"),
    ((1, 1, {1}, {}, set()), "state 1 out of range"),
])
def test_two_way_nfa_refuses_malformed_parts(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TwoWayNfa(*args)


JSON_2NFA = {
    "type": "2nfa",
    "states": 2,
    "alphabet": ["a", "b"],
    "initial": [1],
    "accepting": [2],
    "transitions": [
        {"from": 1, "symbol": "⊢", "to": 1, "dir": 1},
        {"from": 1, "symbol": "a", "to": 2, "dir": 1},
        {"from": 2, "symbol": "b", "to": 2, "dir": 1},
    ],
}


def test_json_round_trip():
    a, alphabet = load_automaton(JSON_2NFA)
    assert isinstance(a, TwoWayNfa)
    assert twonfa_accepts(a, [0])          # "a"
    assert twonfa_accepts(a, [0, 1, 1])    # "abb"
    assert not twonfa_accepts(a, [1])      # "b"
    again, alphabet2 = load_automaton(dump_automaton(a, alphabet))
    assert alphabet2 == alphabet
    assert again == a


@pytest.mark.parametrize("mutate", [
    lambda o: o.update(extra=1),
    lambda o: o.pop("alphabet"),
    lambda o: o.update(type="dfa"),
    lambda o: o.update(initial=[3]),
    lambda o: o["transitions"].append({"from": 1, "symbol": "zz", "to": 1, "dir": 1}),
    lambda o: o["transitions"].append({"from": 1, "symbol": "a", "to": 1}),
    lambda o: o["transitions"].append(
        {"from": 1, "symbol": "a", "to": 1, "dir": 0}),
    lambda o: o["transitions"].append(
        {"from": 1, "symbol": "a", "to": 1, "dir": 1, "note": "hi"}),
    # a well-formed one-way file: "2nfa" is the only type
    lambda o: o.update(type="nfa", transitions=[{"from": 1, "symbol": "a", "to": 2}]),
    lambda o: o.update(states=True, accepting=[1], transitions=[
        {"from": 1, "symbol": "a", "to": 1, "dir": 1}]),
    lambda o: o.update(initial=[True]),
    lambda o: o.update(accepting=[True]),
    lambda o: o["transitions"].append({"from": True, "symbol": "a", "to": 1, "dir": 1}),
    lambda o: o["transitions"].append({"from": 1, "symbol": "a", "to": True, "dir": 1}),
    lambda o: o["transitions"].append({"from": 1, "symbol": "a", "to": 1, "dir": True}),
    lambda o: o.update(alphabet=[["a"], "b"]),
    lambda o: o["transitions"].append({"from": 1, "symbol": ["a"], "to": 1, "dir": 1}),
])
def test_json_rejects_malformed(mutate):
    import copy
    obj = copy.deepcopy(JSON_2NFA)
    mutate(obj)
    with pytest.raises(ValueError):
        load_automaton(obj)
