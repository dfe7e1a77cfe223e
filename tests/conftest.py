import pytest

from ufabound.automata import LEFT_MARKER, RIGHT_MARKER, TwoWayNfa


def _sparse_two_way_nfa(states, alphabet, rng):
    """A random two-way automaton with about one move per state and symbol.

    ``crossing.random_two_way_nfa`` keeps each move with probability 1/2,
    so beyond a few states nearly every state reaches nearly every
    configuration; sparse moves keep acceptance and the profiles varied.
    """
    initial = {q for q in range(states) if rng.random() < 0.5}
    accepting = {q for q in range(states) if rng.random() < 0.5}
    trans = {}
    for q in range(states):
        for c in (*range(alphabet), LEFT_MARKER, RIGHT_MARKER):
            if c == RIGHT_MARKER and q in accepting:
                continue
            for t in range(states):
                for d in (-1, +1):
                    if (c, d) != (LEFT_MARKER, -1) and rng.random() < 1 / states:
                        trans.setdefault((q, c), set()).add((t, d))
    return TwoWayNfa(states, alphabet, initial, trans, accepting)


@pytest.fixture
def sparse_two_way_nfa():
    return _sparse_two_way_nfa
