import pytest

from ufabound.automata import LEFT_MARKER, RIGHT_MARKER, TwoWayNfa
from ufabound.statesets import elements, mask_of


def _sparse_two_way_nfa(states, alphabet, rng, moves=2):
    """A random two-way automaton with about ``moves`` moves per state and
    symbol.

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
                    if (c, d) != (LEFT_MARKER, -1) and rng.random() < moves / (2 * states):
                        trans.setdefault((q, c), set()).add((t, d))
    return TwoWayNfa(states, alphabet, initial, trans, accepting)


@pytest.fixture
def sparse_two_way_nfa():
    return _sparse_two_way_nfa


# ---------------------------------------------------------------------------
# independent oracles for the two-way search, one configuration at a time

def dfs_two_way_accepts(a, word):
    """Acceptance by a plain depth-first search on the word's own tape."""
    tape = [LEFT_MARKER, *word, RIGHT_MARKER]
    last = len(word) + 1
    seen = set()
    stack = [(q, 0) for q in a.initial]
    while stack:
        state, pos = stack.pop()
        if (state, pos) in seen:
            continue
        seen.add((state, pos))
        if pos == last and state in a.accepting:
            return True
        for t, d in a.moves(state, tape[pos]):
            if 0 <= pos + d <= last:
                stack.append((t, pos + d))
    return False


def closure_exits(a, tape, seeds):
    """Reached configurations and exits on one tape fragment.

    Every configuration gets its own successor set, with the head moving
    off the fragment recorded as a pseudo-configuration ("right", t) or
    ("left", t); a right move off the right marker has no successor.
    Warshall's closure over these sets then gives, for the seeds, the
    reached configurations and the 1-based exit masks.
    """
    last = len(tape) - 1
    nodes = [(q, p) for q in range(a.state_count) for p in range(last + 1)]
    succ = {}
    for q, p in nodes:
        out = set()
        for t, d in a.moves(q, tape[p]):
            if p + d > last:
                if tape[p] != RIGHT_MARKER:
                    out.add(("right", t))
            elif p + d < 0:
                out.add(("left", t))
            else:
                out.add((t, p + d))
        succ[(q, p)] = out
    for k in nodes:
        for i in nodes:
            if k in succ[i]:
                succ[i] |= succ[k]
    reached = set(seeds).union(*(succ[c] for c in seeds))

    def exits(side):
        return mask_of(t + 1 for where, t in reached if where == side)

    configs = {c for c in reached if c[0] not in ("right", "left")}
    return configs, exits("right"), exits("left")


def configurations(at):
    """The (state, position) pairs of a per-position 1-based state mask list."""
    return {(v - 1, p) for p, states in enumerate(at) for v in elements(states)}


def oracle_prefix_profile(a, x):
    tape = [LEFT_MARKER, *x]
    last = len(tape) - 1
    s_x = closure_exits(a, tape, [(q, 0) for q in a.initial])[1]
    return s_x, tuple(closure_exits(a, tape, [(q, last)])[1]
                      for q in range(a.state_count))


def oracle_suffix_profile(a, y):
    tape = [*y, RIGHT_MARKER]
    last = len(tape) - 1
    a_y, t_prime = 0, []
    for q in range(a.state_count):
        configs, _, exit_left = closure_exits(a, tape, [(q, 0)])
        if any(p == last and state in a.accepting for state, p in configs):
            a_y |= 1 << (q + 1)
        t_prime.append(exit_left)
    return a_y, tuple(t_prime)
