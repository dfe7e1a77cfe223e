import errno
import os

import pytest

from ufabound.automata import LEFT_MARKER, RIGHT_MARKER, TwoWayNfa
from ufabound.statesets import elements, full_mask, mask_of
from ufabound.tables import PrefixTable, SuffixTable, layer_structure


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


@pytest.fixture
def refused_forks(monkeypatch):
    """Every ``os.fork`` fails as it does with no process id to spare,
    without asking the system for one; the list of attempts."""
    tried = []

    def fork():
        tried.append(1)
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", fork)
    return tried


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


def oracle_prefix_table(a, x):
    """The prefix table of ``x``, or None, from one closure per seed."""
    tape = [LEFT_MARKER, *x]
    last = len(tape) - 1
    s_x = closure_exits(a, tape, [(q, 0) for q in a.initial])[1]
    if not s_x:
        return None
    return PrefixTable(a.state_count, tuple(s_x | closure_exits(a, tape, [(q, last)])[1]
                                            for q in range(a.state_count)))


def oracle_suffix_table(a, y):
    """The suffix table of ``y``, or None, from one closure per state."""
    tape = [*y, RIGHT_MARKER]
    last = len(tape) - 1
    accept, values = 0, []
    for q in range(a.state_count):
        configs, _, exit_left = closure_exits(a, tape, [(q, 0)])
        if any(p == last and state in a.accepting for state, p in configs):
            accept |= 1 << (q + 1)
            exit_left = full_mask(a.state_count)
        values.append(exit_left)
    return SuffixTable(a.state_count, tuple(values), accept) if accept else None


# ---------------------------------------------------------------------------
# the map from a staged suffix table to the ordered table whose unstaged
# table it is

def staged_table_image(f0, stage):
    """phi(f0, I): the ordered table h with ``build_g_I(h, set()) ==
    build_g_I(f0, I)``.

    Each staged suffix layer moves up by one; the distinct shifted layers
    t_0 < ... < t_{m-1} below f0's rank k give the chain S'_i of the states
    on shifted layers up to t_i, closed by the full set, and h sends u to
    S'_i for the least i with f0's prefix layer of u at most t_i, else to
    the full set.
    """
    ls = layer_structure(f0)
    shifted = [s + 1 if s in stage else s for s in ls.suffix_layer]
    tops = sorted({s for s in shifted if s < ls.rank_k})
    chain = [mask_of(v for v, s in enumerate(shifted, start=1) if s <= t) for t in tops]
    chain.append(full_mask(f0.n))
    return PrefixTable(f0.n, tuple(chain[next((i for i, t in enumerate(tops) if p <= t),
                                              len(tops))] for p in ls.prefix_layer))


# ---------------------------------------------------------------------------
# the plain-set oracle of the pair study's drop-down and breakthrough layers

def reach_up_to(f, f0, i):
    """The union of f(u), as a set, over the states u on f0's prefix
    layers up to i."""
    ls = layer_structure(f0)
    reach = set()
    for u in range(1, f.n + 1):
        if ls.prefix_layer[u - 1] <= i:
            reach |= set(elements(f.value(u)))
    return reach


def oracle_layers(f, f0):
    """Plain sets, per layer i of f0: whether f drops down from it (reach_i
    inside S_{i-1}, empty for i = 0) and whether f breaks through it
    (reach_i leaves S_i)."""
    ls = layer_structure(f0)
    chain = [set(elements(s)) for s in ls.nested_sets]
    return [(reach_up_to(f, f0, i) <= (chain[i - 1] if i else set()),
             not reach_up_to(f, f0, i) <= chain[i]) for i in range(ls.rank_k)]
