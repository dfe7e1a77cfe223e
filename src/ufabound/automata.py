"""Two-way nondeterministic finite automata.

States and symbols are dense 0-based integers internally; every external
surface (the JSON format, printed output) numbers states from 1.  A two-way
automaton walks a tape ``⊢ w ⊣`` with the left marker at position 0 and the
right marker at position len(w)+1, and accepts by reaching the right marker
in an accepting state.  Accepting states have no moves on the right marker,
so reaching that configuration ends the computation; acceptance therefore
reduces to plain reachability in the finite configuration graph, and
looping computations never contribute.  One search of that graph,
:func:`_reach`, serves both acceptance and the crossing tables of
:mod:`ufabound.crossing`.  It runs many tapes at once, bit-sliced over
them: a tape is a lane, and per configuration (position p, state q),
flat slot p·n + q, the search keeps the int of the lanes that reach it;
a lane may carry its own automaton, of one state count for all.
Expanding a slot masks it once and costs one AND and one OR per move,
however many letters and automata its position holds.  :func:`_layout`
stacks grids of tapes prefixes[i]·suffixes[j] around one split position,
writing each distinct string once.  :func:`_search` gives each group
(automaton, xs, ys) one grid of its words xs[i]·ys[j], its prefixes and
its suffixes, and reads their word rows and crossing-table keys off one
search; :func:`concatenation_bits` keeps the word rows of one group.

Automata are immutable after construction and every operation here is
a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .statesets import transpose


LEFT_MARKER = -1
RIGHT_MARKER = -2

_DIRECTIONS = (-1, +1)


@dataclass(frozen=True)
class TwoWayNfa:
    """A two-way NFA over ``⊢ w ⊣``.

    ``transitions`` maps (state, symbol) to a set of (state, direction)
    pairs, direction ±1.  Symbols are 0..alphabet_size-1 plus the reserved
    LEFT_MARKER / RIGHT_MARKER ids.  Two structural rules are enforced:
    no move on the left marker goes further left, and accepting states
    have no moves on the right marker (they halt there).
    """

    state_count: int
    alphabet_size: int
    initial: frozenset[int]
    transitions: Mapping[tuple[int, int], frozenset[tuple[int, int]]]
    accepting: frozenset[int]

    def __post_init__(self):
        if self.state_count < 1:
            raise ValueError("state_count must be positive")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        trans = {}
        for (q, c), moves in dict(self.transitions).items():
            moves = frozenset(moves)
            if not 0 <= q < self.state_count:
                raise ValueError(f"transition from unknown state {q}")
            if not (0 <= c < self.alphabet_size or c in (LEFT_MARKER, RIGHT_MARKER)):
                raise ValueError(f"transition on unknown symbol {c}")
            for t, d in moves:
                if not 0 <= t < self.state_count:
                    raise ValueError(f"transition into unknown state {t}")
                if d not in _DIRECTIONS:
                    raise ValueError(f"bad direction {d}")
                if c == LEFT_MARKER and d == -1:
                    raise ValueError("move off the left marker")
            if c == RIGHT_MARKER and q in self.accepting and moves:
                raise ValueError(f"accepting state {q} must halt on the right marker")
            if moves:
                trans[(q, c)] = moves
        object.__setattr__(self, "transitions", trans)
        for q in self.initial | self.accepting:
            if not 0 <= q < self.state_count:
                raise ValueError(f"state {q} out of range")

    def moves(self, state: int, symbol: int) -> frozenset[tuple[int, int]]:
        return self.transitions.get((state, symbol), frozenset())


def _check_words(a: TwoWayNfa, words: Sequence[Sequence[int]]) -> None:
    """Refuse any symbol outside the alphabet, a marker id included.  Each
    distinct symbol is checked once; the error names the first bad one."""
    symbols = set().union(*words)
    if symbols and not (min(symbols) >= 0 and max(symbols) < a.alphabet_size):
        c = next(c for word in words for c in word if not 0 <= c < a.alphabet_size)
        raise ValueError(f"symbol {c} out of range 0..{a.alphabet_size - 1}")


def _layout(grids: Sequence[tuple]):
    """Stack the grids (prefixes, suffixes) in lane space around one split.

    The tape prefixes[i] + suffixes[j] of grid g is lane offsets[g] + i·C + j,
    C = len(suffixes); strings are tuples.  Each distinct prefix and each
    distinct suffix is written once, with the OR of its lanes across all
    grids.  Returns ``(cells, split, offsets)``: ``cells[p]`` lists the
    (symbol, lanes) pairs of position p, every prefix ends just before
    ``split`` and every suffix starts at it, and ``offsets`` ends with the
    number of lanes.  Positions 0 and ``len(cells) - 1`` are padding, with
    no cells.
    """
    heads: dict[tuple, int] = {}
    tails: dict[tuple, int] = {}
    offsets, offset = [], 0
    for xs, ys in grids:
        cols = len(ys)
        row = (1 << cols) - 1
        for i, x in enumerate(xs):
            heads[x] = heads.get(x, 0) | row << offset + i * cols
        rep = sum(1 << i * cols for i in range(len(xs))) << offset
        for j, y in enumerate(ys):
            tails[y] = tails.get(y, 0) | rep << j
        offsets.append(offset)
        offset += len(xs) * cols
    offsets.append(offset)
    split = 1 + max(map(len, heads), default=0)
    width = max(map(len, tails), default=0)
    cells: list[dict[int, int]] = [{} for _ in range(split + width + 1)]
    placed = [(split - len(x), x, lanes) for x, lanes in heads.items()]
    placed += [(split, y, lanes) for y, lanes in tails.items()]
    for start, word, lanes in placed:
        for p, c in enumerate(word, start):
            cell = cells[p]
            # a string alone at (p, c) keeps its own int: a copy would hold
            # every lane twice while the layout is built
            cell[c] = cell[c] | lanes if c in cell else lanes
    return [list(cell.items()) for cell in cells], split, offsets


def _reach(groups: Sequence[tuple[TwoWayNfa, int]],
           cells: Sequence[Sequence[tuple[int, int]]],
           seeds: Iterable[tuple[int, int, int]]) -> list[int]:
    """The lanes of a :func:`_layout` that reach each configuration from
    the (position, state, lanes) ``seeds``.  Configuration (p, q) is slot
    p·n + q of the flat result, which holds the int of its lanes.

    ``groups`` pairs each automaton with the int of its lanes.  Each slot
    first gets its moves, a tuple of (target slot, allowed lanes): allowed
    is the OR of the lanes whose letter at p lets state q make that move
    and whose automaton has it, so a move reads no letter.
    Several automata's moves are merged once per symbol, as (q, d·n + t,
    their lanes); one automaton's are read straight from its table.
    Sweeps the slots left to right, then right to left and so on, until a
    sweep reaches nothing new.  A slot is masked once as it is expanded:
    its fresh lanes less those it already has are its new lanes, recorded
    and moved on, and a move only ORs the allowed ones into its target's
    fresh lanes, even lanes the target already has.  An expansion thus
    costs one AND and one OR per move.  A head that leaves its
    fragment lands in the padding, which is never expanded: its fresh
    lanes are recorded at the end, and the callers read the exits there.
    A right move off the right marker is dropped.  Private, so that
    ``bench/tracer.py`` does not wrap it.
    """
    n = groups[0][0].state_count
    [(a, _), *several] = groups
    merged: dict[int, tuple] = {}
    moves: list[tuple] = []
    for p, cell in enumerate(cells):
        base = p * n
        out: list[dict[int, int]] = [{} for _ in range(n)]
        for c, lanes in cell:
            if not several:
                for q, allowed in enumerate(out):
                    for t, d in a.transitions.get((q, c), ()):
                        if c != RIGHT_MARKER or d < 0:
                            target = base + d * n + t
                            allowed[target] = allowed.get(target, 0) | lanes
                continue
            if c not in merged:
                found: dict[tuple[int, int], int] = {}
                for b, own in groups:
                    for q in range(n):
                        for t, d in b.transitions.get((q, c), ()):
                            if c != RIGHT_MARKER or d < 0:
                                move = q, d * n + t
                                found[move] = found[move] | own if move in found else own
                merged[c] = tuple((q, offset, own) for (q, offset), own in found.items())
            for q, offset, own in merged[c]:
                if own := lanes & own:
                    allowed = out[q]
                    target = base + offset
                    allowed[target] = allowed.get(target, 0) | own
        moves += [tuple(allowed.items()) for allowed in out]
    at = [0] * len(moves)
    fresh = [0] * len(moves)
    for p, q, lanes in seeds:
        fresh[p * n + q] |= lanes
    forward = range(n, len(moves) - n)
    sweep, moved = forward, True
    while moved:
        moved = False
        for s in sweep:
            reached = fresh[s]
            if reached:
                fresh[s] = 0
                reached &= ~at[s]
                if reached:
                    moved = True
                    at[s] |= reached
                    for t, allowed in moves[s]:
                        fresh[t] |= reached & allowed
        sweep = forward[::-1] if sweep is forward else forward
    # the padding is never expanded: what reached it is still fresh
    for s in (*range(n), *range(len(moves) - n, len(moves))):
        at[s] |= fresh[s]
    return at


def _search(groups: Sequence[tuple[TwoWayNfa, Sequence, Sequence]]) -> list[tuple]:
    """Each group's (word rows, prefix keys, suffix keys), in order, from
    one :func:`_reach` over the stacked lanes of all groups.

    A group is (automaton, xs, ys), its strings checked against the
    alphabet first.  Its rows are ``⊢ xs[i]`` and then n empty heads, its
    columns ``ys[j] ⊣`` and then n + 1 empty tails, C columns in all.
    Lane (i, j) of the words block, i < |xs| and j < |ys|, runs
    ``⊢ xs[i] ys[j] ⊣`` from the initial configuration.  Prefix lane
    (i, |ys| + k) runs ``⊢ xs[i]``: k = 0 from the initial configuration,
    with the row's words, and k = q + 1 re-entering its last position in
    state q; its right exits land on the split.  Suffix lane (|xs| + q, j)
    runs ``ys[j] ⊣`` from state q at its first position; its left exits
    land just before the split, and it may accept.  The n(n + 1) corner
    lanes get no seed.  The word rows have bit j for ys[j]; the keys are
    those of the tables each string induces, None where it induces none:
    a prefix table's values, a suffix table's (values, accept flags).
    """
    for a, xs, ys in groups:
        _check_words(a, (*xs, *ys))
    n = groups[0][0].state_count
    cells, split, offsets = _layout([([(LEFT_MARKER, *x) for x in xs] + [()] * n,
                                      [(*y, RIGHT_MARKER) for y in ys] + [()] * (n + 1))
                                     for _, xs, ys in groups])
    owners = [(a, ((1 << end - start) - 1) << start)
              for (a, _, _), start, end in zip(groups, offsets, offsets[1:])]

    def seeds():
        # one at a time: a list of them, each as wide as its highest lane, would
        # grow with the square of the number of rows
        for (a, xs, ys), offset in zip(groups, offsets):
            cols = len(ys)
            width = cols + n + 1
            for i, x in enumerate(xs):
                for q in a.initial:
                    yield split - 1 - len(x), q, ((1 << cols + 1) - 1) << offset + i * width
            # bit i·C for each row i < |xs|
            rep = ((1 << len(xs) * width) - 1) // ((1 << width) - 1) << offset
            for q in range(n):
                yield split - 1, q, rep << cols + 1 + q
                yield split, q, ((1 << cols) - 1) << offset + (len(xs) + q) * width

    at = _reach(owners, cells, seeds())
    # each accepting state, with the lanes whose automaton accepts in it
    accepting: dict[int, int] = {}
    for a, own in owners:
        for q in a.accepting:
            accepting[q] = accepting[q] | own if q in accepting else own
    accepted = 0
    for p, cell in enumerate(cells):
        for c, lanes in cell:
            if c == RIGHT_MARKER:
                for q, own in accepting.items():
                    accepted |= at[p * n + q] & lanes & own
    right, left = at[split * n:split * n + n], at[split * n - n:split * n]
    out = []
    for (_, xs, ys), offset in zip(groups, offsets):
        cols = len(ys)
        width = cols + n + 1
        low = len(xs) * width
        word = (1 << cols) - 1
        exits = transpose([0, *(lanes >> offset & (1 << low) - 1 for lanes in right)], low)
        fs = [tuple(map(exits[i].__or__, exits[i + 1:i + n + 1])) if exits[i] else None
              for i in range(cols, low, width)]
        # an accepting suffix lane holds every state: g(q) is then the full set
        tail = (1 << n * width) - 1
        acc = accepted >> offset + low & tail
        exits = transpose([0, *(lanes >> offset + low & tail | acc for lanes in left)],
                          n * width)
        flags = transpose([0, *(acc >> i & word for i in range(0, n * width, width))], cols)
        out.append(([accepted >> offset + i & word for i in range(0, low, width)], fs,
                    [(tuple(exits[j::width]), a_y) if a_y else None
                     for j, a_y in enumerate(flags)]))
    return out


def concatenation_bits(a: TwoWayNfa, xs: Sequence[Sequence[int]],
                       ys: Sequence[Sequence[int]]) -> list[int]:
    """Acceptance of every word xs[i] + ys[j], in one search: row i of the
    result has bit j set iff ``⊢ xs[i] ys[j] ⊣`` is accepted."""
    [(bits, _, _)] = _search([(a, xs, ys)])
    return bits


def twonfa_accepts(a: TwoWayNfa, word: Sequence[int]) -> bool:
    """Whether an accepting state reaches the right marker on ``⊢ word ⊣``."""
    return concatenation_bits(a, [word], [()])[0] == 1


# ---------------------------------------------------------------------------
# JSON automaton format
#
# {"type": "2nfa", "states": k, "alphabet": [names...],
#  "initial": [1-based...], "accepting": [1-based...],
#  "transitions": [{"from": i, "symbol": name or "⊢"/"⊣", "to": j, "dir": ±1}]}
#
# Unknown fields are rejected so that typos fail loudly, and JSON booleans
# are not integers here.

_TOP_FIELDS = {"type", "states", "alphabet", "initial", "accepting", "transitions"}
_TRANSITION_FIELDS = {"from", "symbol", "to", "dir"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _states_from_json(raw, state_count, what):
    if not isinstance(raw, list):
        raise ValueError(f"{what} must be an array of 1-based states")
    out = set()
    for s in raw:
        if not _is_int(s) or not 1 <= s <= state_count:
            raise ValueError(f"{what} entry {s!r} out of range 1..{state_count}")
        out.add(s - 1)
    return frozenset(out)


def load_automaton(obj: dict) -> tuple[TwoWayNfa, list[str]]:
    """Build an automaton from a parsed JSON object.

    Returns the automaton together with the alphabet names, in symbol-id
    order.
    """
    if not isinstance(obj, dict):
        raise ValueError("automaton JSON must be an object")
    unknown = set(obj) - _TOP_FIELDS
    if unknown:
        raise ValueError(f"unknown fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(obj)
    if missing:
        raise ValueError(f"missing fields: {sorted(missing)}")
    if obj["type"] != "2nfa":
        raise ValueError(f"type must be \"2nfa\", got {obj['type']!r}")
    states = obj["states"]
    if not _is_int(states) or states < 1:
        raise ValueError("states must be a positive integer")
    alphabet = obj["alphabet"]
    if (not isinstance(alphabet, list) or not alphabet
            or any(not isinstance(s, str) for s in alphabet)
            or len(set(alphabet)) != len(alphabet)
            or "⊢" in alphabet or "⊣" in alphabet):
        raise ValueError("alphabet must be a non-empty array of distinct symbol names")
    sym_id = {name: i for i, name in enumerate(alphabet)}
    sym_id["⊢"] = LEFT_MARKER
    sym_id["⊣"] = RIGHT_MARKER

    initial = _states_from_json(obj["initial"], states, "initial")
    accepting = _states_from_json(obj["accepting"], states, "accepting")

    if not isinstance(obj["transitions"], list):
        raise ValueError("transitions must be an array")
    trans: dict = {}
    for t in obj["transitions"]:
        if not isinstance(t, dict):
            raise ValueError("each transition must be an object")
        if set(t) != _TRANSITION_FIELDS:
            raise ValueError(
                f"transition fields must be exactly {sorted(_TRANSITION_FIELDS)}")
        src, dst = t["from"], t["to"]
        for s in (src, dst):
            if not _is_int(s) or not 1 <= s <= states:
                raise ValueError(f"transition state {s!r} out of range")
        if not isinstance(t["symbol"], str) or t["symbol"] not in sym_id:
            raise ValueError(f"unknown symbol {t['symbol']!r}")
        d = t["dir"]
        if not _is_int(d) or d not in _DIRECTIONS:
            raise ValueError(f"dir must be -1 or +1, got {d!r}")
        # TwoWayNfa's own check would name the 0-based state
        if t["symbol"] == "⊣" and src - 1 in accepting:
            raise ValueError(f"accepting state {src} must halt on the right marker")
        trans.setdefault((src - 1, sym_id[t["symbol"]]), set()).add((dst - 1, d))

    return TwoWayNfa(states, len(alphabet), initial, trans, accepting), list(alphabet)


def dump_automaton(a: TwoWayNfa, alphabet: Sequence[str]) -> dict:
    """Inverse of :func:`load_automaton`; transitions come out sorted."""
    if len(alphabet) != a.alphabet_size:
        raise ValueError("alphabet length does not match the automaton")
    names = dict(enumerate(alphabet))
    names[LEFT_MARKER] = "⊢"
    names[RIGHT_MARKER] = "⊣"
    entries = []
    for (q, c), moves in a.transitions.items():
        for t, d in moves:
            entries.append({"from": q + 1, "symbol": names[c], "to": t + 1, "dir": d})
    entries.sort(key=lambda e: (e["from"], e["symbol"], e["to"], e["dir"]))
    return {
        "type": "2nfa",
        "states": a.state_count,
        "alphabet": list(alphabet),
        "initial": sorted(q + 1 for q in a.initial),
        "accepting": sorted(q + 1 for q in a.accepting),
        "transitions": entries,
    }
