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
:mod:`ufabound.crossing`, which run it on a fragment of the tape.

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


def _reach(a: TwoWayNfa, tape: Sequence[int],
           seeds: Iterable[tuple[int, int]]) -> tuple[set, int, int]:
    """Depth-first search of the configuration graph on ``tape``.

    ``tape`` is a list of symbol ids, markers included, and configurations
    are (state, position) pairs with positions indexing it.  Returns the
    configurations reachable from ``seeds`` plus the 1-based masks of the
    states in which the head moves off the right end and off the left end.
    A right move off the right marker is dropped, not counted as an exit.

    This is the package's only two-way search; :mod:`ufabound.crossing`
    runs it on prefix and suffix fragments.  It is private: callers use
    acceptance and the profiles, and ``bench/tracer.py``, which times
    every public function per call, would otherwise wrap it once per
    matrix entry.
    """
    moves = a.transitions
    last = len(tape) - 1
    exit_right = 0
    exit_left = 0
    seen = set(seeds)
    stack = list(seen)
    while stack:
        state, pos = stack.pop()
        sym = tape[pos]
        for t, d in moves.get((state, sym), ()):
            npos = pos + d
            if npos > last:
                if sym != RIGHT_MARKER:
                    exit_right |= 1 << (t + 1)
            elif npos < 0:
                exit_left |= 1 << (t + 1)
            elif (t, npos) not in seen:
                seen.add((t, npos))
                stack.append((t, npos))
    return seen, exit_right, exit_left


def twonfa_accepts(a: TwoWayNfa, word: Sequence[int]) -> bool:
    """Whether an accepting state reaches the right marker on ``⊢ word ⊣``."""
    _check_word(a, word)
    last = len(word) + 1
    seen, _, _ = _reach(a, [LEFT_MARKER, *word, RIGHT_MARKER],
                        [(q, 0) for q in a.initial])
    return any((q, last) in seen for q in a.accepting)


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
