"""Two-way nondeterministic finite automata.

States and symbols are dense 0-based integers internally; every external
surface (the JSON format, printed output) numbers states from 1.  A two-way
automaton walks a tape ``⊢ w ⊣`` with the left marker at position 0 and the
right marker at position len(w)+1, and accepts by reaching the right marker
in an accepting state.  Accepting states have no moves on the right marker,
so reaching that configuration ends the computation; acceptance therefore
reduces to plain reachability in the finite configuration graph, and
looping computations never contribute.  One search of that graph,
:func:`_reach`, serves both acceptance and the crossing profiles of
:mod:`ufabound.crossing`.  It runs many tapes at once, bit-sliced over
them: a tape is a lane, and per position and state the search keeps the
int of the lanes that reach it.  Expanding a position costs one AND per
move of the automaton, however many letters the position holds.
:func:`_layout` stacks grids of tapes prefixes[i]·suffixes[j] around one
split position, and :func:`_search` runs several such grids, each with
its own seeds and readout, as one search; :func:`concatenation_bits`
is its one-grid case that decides every word xs[i]·ys[j].

Automata are immutable after construction and every operation here is
a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


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


def _check_word(a: TwoWayNfa, word: Sequence[int]) -> None:
    for c in word:
        if not 0 <= c < a.alphabet_size:
            raise ValueError(f"symbol {c} out of range 0..{a.alphabet_size - 1}")


def _layout(grids: Sequence[tuple]):
    """Stack the grids (prefixes, suffixes, ...) in lane space around one split.

    The tape prefixes[i] + suffixes[j] of grid g is lane offsets[g] + i·C + j,
    C = len(suffixes).  Returns ``(cells, split, offsets)``: ``cells[p]``
    lists the (symbol, lanes) pairs of position p, every prefix ends just
    before ``split`` and every suffix starts at it.  Positions 0 and
    ``len(cells) - 1`` are padding, with no cells.
    """
    split = 1 + max((len(x) for xs, *_ in grids for x in xs), default=0)
    width = max((len(y) for _, ys, *_ in grids for y in ys), default=0)
    cells: list[dict[int, int]] = [{} for _ in range(split + width + 1)]
    offsets, offset = [], 0
    for xs, ys, *_ in grids:
        cols = len(ys)
        rep = sum(1 << i * cols for i in range(len(xs))) << offset
        for i, x in enumerate(xs):
            for p, c in enumerate(x, start=split - len(x)):
                cells[p][c] = cells[p].get(c, 0) | ((1 << cols) - 1) << offset + i * cols
        for j, y in enumerate(ys):
            for p, c in enumerate(y, start=split):
                cells[p][c] = cells[p].get(c, 0) | rep << j
        offsets.append(offset)
        offset += len(xs) * cols
    return [list(cell.items()) for cell in cells], split, offsets


def _reach(a: TwoWayNfa, cells: Sequence[Sequence[tuple[int, int]]],
           seeds: Iterable[tuple[int, int, int]]) -> list[list[int]]:
    """The lanes of a :func:`_layout` that reach each configuration from
    the (position, state, lanes) ``seeds``: ``at[p][q]`` is their int.

    Each position first gets its move masks: ``masks[p][q]`` maps every
    move (t, d) from state q on a letter there to the OR of the lanes whose
    letter allows it, so an expansion costs one AND per move however many
    letters the position has.  Sweeps left to right, then right to left
    and so on, expanding only the newly reached lanes of each (position,
    state), until a sweep reaches nothing new.  A head that leaves its
    fragment lands in the padding, where the callers read the exits; a
    right move off the right marker is dropped.  Private, so that
    ``bench/tracer.py`` does not wrap it.
    """
    n = a.state_count
    masks = [[{} for _ in range(n)] for _ in cells]
    for cell, mask in zip(cells, masks):
        for c, lanes in cell:
            for q, moves in enumerate(mask):
                for move in a.transitions.get((q, c), ()):
                    if c != RIGHT_MARKER or move[1] < 0:
                        moves[move] = moves.get(move, 0) | lanes
    at = [[0] * n for _ in cells]
    fresh = [[0] * n for _ in cells]
    for p, q, lanes in seeds:
        at[p][q] |= lanes
        fresh[p][q] |= lanes
    forward = range(1, len(cells) - 1)
    sweep, moved = forward, True
    while moved:
        moved = False
        for p in sweep:
            new = fresh[p]
            if not any(new):
                continue
            moved = True
            fresh[p] = [0] * n
            for reached, moves in zip(new, masks[p]):
                if reached:
                    for (t, d), allowed in moves.items():
                        lanes = reached & allowed
                        if lanes:
                            grown = lanes & ~at[p + d][t]
                            if grown:
                                at[p + d][t] |= grown
                                fresh[p + d][t] |= grown
        sweep = forward[::-1] if sweep is forward else forward
    return at


def _search(a: TwoWayNfa, grids: Sequence[tuple]) -> list:
    """Every grid's result, from one :func:`_reach` over their stacked lanes.

    A grid is (prefixes, suffixes, seeds, read) in its own lanes i·C + j:
    ``seeds`` are (position relative to the split, state, lanes), and
    ``read(right, left, accepted)`` gives its result from the states' lanes
    just after the split, those just before it and the lanes that reach
    their right marker in an accepting state.
    """
    cells, split, offsets = _layout(grids)
    at = _reach(a, cells, [(split + p, q, lanes << offset)
                           for (_, _, seeds, _), offset in zip(grids, offsets)
                           for p, q, lanes in seeds])
    accepted = 0
    for cell, states in zip(cells, at):
        for c, lanes in cell:
            if c == RIGHT_MARKER:
                for q in a.accepting:
                    accepted |= states[q] & lanes
    return [read([lanes >> offset for lanes in at[split]],
                 [lanes >> offset for lanes in at[split - 1]], accepted >> offset)
            for (_, _, _, read), offset in zip(grids, offsets)]


def _concatenation_grid(a: TwoWayNfa, xs: Sequence[Sequence[int]],
                        ys: Sequence[Sequence[int]]) -> tuple:
    """The words ⊢ xs[i] ys[j] ⊣ from the initial configuration, read as
    one int per row with bit j for ys[j]."""
    for word in (*xs, *ys):
        _check_word(a, word)
    cols = len(ys)
    row = (1 << cols) - 1
    return ([(LEFT_MARKER, *x) for x in xs], [(*y, RIGHT_MARKER) for y in ys],
            [(-1 - len(x), q, row << i * cols) for i, x in enumerate(xs) for q in a.initial],
            lambda right, left, accepted: [accepted >> i * cols & row
                                           for i in range(len(xs))])


def concatenation_bits(a: TwoWayNfa, xs: Sequence[Sequence[int]],
                       ys: Sequence[Sequence[int]]) -> list[int]:
    """Acceptance of every word xs[i] + ys[j], in one search: row i of the
    result has bit j set iff ``⊢ xs[i] ys[j] ⊣`` is accepted."""
    return _search(a, [_concatenation_grid(a, xs, ys)])[0]


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
