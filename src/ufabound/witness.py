"""The universal witness automaton and its acceptance matrices.

The automaton of size n reads three-letter strings: a letter naming a
starting state, a letter carrying a whole prefix table, and a letter
carrying a whole suffix table.  Its full alphabet (one letter per table) is
far too large to list, so :class:`WitnessAutomaton` is built as one plain
two-way automaton over the letters of the tables it is given.

The acceptance matrix has one row per prefix table and one column per
suffix table; the reduced matrix K keeps only the rows of ordered prefix
tables, and the staged matrix G only K's columns of the unstaged suffix
tables, one per ordered table, which every staged table equals.  Every
entry is decided by one kernel, bipartite-graph reachability run over a
whole row of columns at once until no column's reached set grows.  The
kernel is bit-sliced: per vertex it keeps one int of the columns that
reach it, so a row comes out packed, one int with bit j = column j, and
stays that way through the matrix text format and the GF(2) rank.
Direct two-way simulation of the automaton is the independent oracle it
is compared against, in :mod:`ufabound.verification` and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .automata import LEFT_MARKER, TwoWayNfa, twonfa_accepts
from .statesets import elements, full_mask, transpose
from .tables import (PrefixTable, SuffixTable,
                     enumerate_ordered_prefix_tables_by_filter,
                     enumerate_prefix_tables, enumerate_suffix_tables,
                     layer_structure, prefix_table_to_text, starting_state,
                     suffix_table_to_text)


class WitnessAutomaton:
    """The witness automaton of size n over the letters of the given tables.

    Letters 0..n-1 force states 1..n.  Letter n+a carries ``prefixes[a]``
    and moves right into f(q).  Letter n+len(prefixes)+b carries
    ``suffixes[b]``: an accepting entry moves right, any other bounces left
    into g(q).  The left marker moves right and the right marker has no
    moves; the initial state is 1 and every state accepts, so reaching the
    right marker in any state accepts.  ``nfa`` is the plain two-way
    automaton, with states numbered from 0.
    """

    def __init__(self, n: int, prefixes: Sequence[PrefixTable],
                 suffixes: Sequence[SuffixTable]):
        if any(t.n != n for t in (*prefixes, *suffixes)):
            raise ValueError("letter payload has the wrong size")
        self._prefix_letter: dict[PrefixTable, int] = {}
        self._suffix_letter: dict[SuffixTable, int] = {}
        trans: dict = {}
        for q in range(n):
            trans[(q, LEFT_MARKER)] = frozenset({(q, +1)})
            for c in range(n):
                trans[(q, c)] = frozenset({(c, +1)})
        for c, f in enumerate(prefixes, start=n):
            self._prefix_letter.setdefault(f, c)
            for q in range(n):
                trans[(q, c)] = frozenset((v - 1, +1) for v in elements(f.values[q]))
        for c, g in enumerate(suffixes, start=n + len(prefixes)):
            self._suffix_letter.setdefault(g, c)
            for q in range(n):
                if g.accept_flags >> (q + 1) & 1:
                    trans[(q, c)] = frozenset({(q, +1)})
                else:
                    trans[(q, c)] = frozenset((v - 1, -1) for v in elements(g.values[q]))
        self.nfa = TwoWayNfa(n, n + len(prefixes) + len(suffixes), frozenset({0}),
                             trans, frozenset(range(n)))

    def word(self, f: PrefixTable, g: SuffixTable) -> list[int]:
        """The three-letter word of a table pair: f's starting state, f, g."""
        prefix, suffix = self._prefix_letter.get(f), self._suffix_letter.get(g)
        if prefix is None or suffix is None:
            raise ValueError("both tables must be letters of this automaton")
        return [starting_state(f) - 1, prefix, suffix]

    def accepts(self, f: PrefixTable, g: SuffixTable) -> bool:
        return twonfa_accepts(self.nfa, self.word(f, g))


# ---------------------------------------------------------------------------
# acceptance matrices

# elements per chunk of the numpy temporaries made from a whole matrix, in
# BoolMatrix.to_numpy and in the GF(p) elimination
CHUNK_ELEMS = 1_000_000


@dataclass(frozen=True)
class BoolMatrix:
    """A dense 0/1 matrix with labelled rows and columns.

    Each row is packed into one int, bit j = column j.
    """

    row_labels: tuple
    col_labels: tuple
    cols: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_labels) != len(self.bits):
            raise ValueError("one label per row required")
        if len(self.col_labels) != self.cols:
            raise ValueError("one label per column required")
        if any(b >> self.cols for b in self.bits):
            raise ValueError("row bits exceed the column count")

    @property
    def rows(self) -> int:
        return len(self.bits)

    def entry(self, i: int, j: int) -> int:
        return self.bits[i] >> j & 1

    def to_lists(self) -> list[list[int]]:
        return [[b >> j & 1 for j in range(self.cols)] for b in self.bits]

    def to_numpy(self, cols: Sequence[int] | None = None) -> np.ndarray:
        """The entries as an int32 array, or only the columns ``cols`` in
        that order, unpacked a chunk of rows at a time so that no wider copy
        of the whole matrix is ever held."""
        import numpy as np  # here, so that only the commands that need numpy load it

        pick = slice(self.cols) if cols is None else np.asarray(cols, dtype=np.intp)
        width = self.cols if cols is None else len(pick)
        out = np.empty((self.rows, width), dtype=np.int32)
        nbytes = (self.cols + 7) // 8
        step = max(1, CHUNK_ELEMS // max(self.cols, 1))
        for start in range(0, self.rows, step):
            chunk = self.bits[start:start + step]
            raw = np.frombuffer(
                b"".join(b.to_bytes(nbytes, "little") for b in chunk), dtype=np.uint8)
            out[start:start + len(chunk)] = np.unpackbits(
                raw.reshape(len(chunk), nbytes), axis=1, bitorder="little")[:, pick]
        return out


def _suffix_arc_maps(n: int, suffixes: Sequence[SuffixTable]):
    # bit-sliced over the columns: feeds[v - 1] lists (u, cols) where cols
    # is the int of the columns whose table sends right vertex v to left
    # vertex u; acc[v - 1] is the int of the columns that accept at v; the
    # last value is the int of every column
    feeds = []
    for v in range(n):
        arcs = transpose([g.values[v] for g in suffixes], n + 1)
        feeds.append([(u, cols) for u, cols in enumerate(arcs) if cols])
    acc = transpose([g.accept_flags for g in suffixes], n + 1)[1:]
    return feeds, acc, (1 << len(suffixes)) - 1


def _row_bits(f: PrefixTable, feeds, acc: list[int], every: int) -> int:
    # one matrix row: run the alternating reachability over all columns at
    # once, left[u] and right[v] being the ints of the columns whose reached
    # set holds that vertex.  Left sets only grow, so right = f(left) is
    # recomputed rather than accumulated, and the rounds stop once no left
    # set changes
    n = f.n
    sources = [[u for u in range(1, n + 1) if f.values[u - 1] >> v & 1]
               for v in range(1, n + 1)]
    left = [0] * (n + 1)
    left[starting_state(f)] = every
    while True:
        right = []
        for us in sources:
            r = 0
            for u in us:
                r |= left[u]
            right.append(r)
        grown = left.copy()
        for r, arcs in zip(right, feeds):
            if r:
                for u, cols in arcs:
                    grown[u] |= r & cols
        if grown == left:
            break
        left = grown
    row = 0
    for r, a in zip(right, acc):
        row |= r & a
    return row


def acceptance_matrix(prefixes: Sequence[PrefixTable], suffixes: Sequence[SuffixTable],
                      n: int) -> BoolMatrix:
    """Entry (f, g) is 1 iff the table-pair graph has a path from f's
    starting state to one of g's accepting right vertices, that is, iff
    :class:`WitnessAutomaton` accepts the pair's three-letter word.
    Every table must have size ``n``.
    """
    if any(t.n != n for t in (*prefixes, *suffixes)):
        raise ValueError(f"every table must have size n = {n}")
    maps = _suffix_arc_maps(n, suffixes)
    bits = [_row_bits(f, *maps) for f in prefixes]
    return BoolMatrix(tuple(prefixes), tuple(suffixes), len(suffixes), tuple(bits))


def build_M(n: int) -> BoolMatrix:
    """Acceptance matrix over all prefix tables x all suffix tables."""
    return acceptance_matrix(enumerate_prefix_tables(n), enumerate_suffix_tables(n), n)


def build_K(n: int) -> BoolMatrix:
    """The row-submatrix of the acceptance matrix on ordered prefix tables."""
    return acceptance_matrix(enumerate_ordered_prefix_tables_by_filter(n),
                             enumerate_suffix_tables(n), n)


# ---------------------------------------------------------------------------
# the staged suffix-table family used in the independence argument

def build_g_I(f0: PrefixTable, stage_layers: set[int] | frozenset[int]) -> SuffixTable:
    """Suffix table that mirrors f0's layers, staging a breakthrough at
    each layer in ``stage_layers``.

    A right vertex on suffix layer s feeds exactly the left vertices on
    prefix layers up to s (or up to s+1 where a breakthrough is staged);
    entries that would reach past the top layer accept outright.
    """
    ls = layer_structure(f0)
    k = ls.rank_k
    stage = set(stage_layers)
    if not stage <= set(range(k)):
        raise ValueError(f"stage layers must lie in 0..{k - 1}")
    full = full_mask(f0.n)
    # left vertices on prefix layer <= j, for each j
    pl_le = [0] * (k + 1)
    for u in range(1, f0.n + 1):
        pl_le[ls.prefix_layer[u - 1]] |= 1 << u
    for j in range(1, k + 1):
        pl_le[j] |= pl_le[j - 1]
    values = []
    accept = 0
    for v in range(1, f0.n + 1):
        s = ls.suffix_layer[v - 1]
        if s not in stage and s < k:
            values.append(pl_le[s])
        elif s in stage and s + 1 < k:
            values.append(pl_le[s + 1])
        else:
            values.append(full)
            accept |= 1 << v
    return SuffixTable(f0.n, tuple(values), accept)


def staged_matrix(ordered: Sequence[PrefixTable], n: int) -> BoolMatrix:
    """G: the acceptance matrix of the tables ``ordered`` against
    ``build_g_I(h, set())`` for each h in ``ordered``.  When those are all
    the ordered tables, each of their staged tables is a column of G (the
    tests check it up to size 4), and a full rank of G is K's rank."""
    return acceptance_matrix(ordered, [build_g_I(h, set()) for h in ordered], n)


def staged_columns(g: BoolMatrix, fs: Sequence[PrefixTable], bases: Sequence[PrefixTable]
                   ) -> tuple[list[list[int | None]], list[list[int]]]:
    """The staged suffix tables of each base table f0 = bases[j], one per
    stage set b (bit l stages layer l), looked up among the columns of G
    (:func:`staged_matrix`) and read against the first tables fs, each a
    row of G: accepts[j][b] is the accept set of the column equal to
    ``build_g_I(f0, b's layers)``, None when there is none, and
    columns[j][b] the int of the tables fs[t] (bit t) with a 1 there, 0
    when there is none.  The rows of fs are transposed once, in
    :func:`ufabound.statesets.transpose`.
    """
    row_of = {f: i for i, f in enumerate(g.row_labels)}
    col_of = {h: c for c, h in enumerate(g.col_labels)}
    if not all(f in row_of for f in fs):
        raise ValueError("every first table must be a row of G")
    down = transpose([g.bits[row_of[f]] for f in fs], g.cols)
    accepts, columns = [], []
    for f0 in bases:
        k = layer_structure(f0).rank_k
        cols = [col_of.get(build_g_I(f0, {i for i in range(k) if b >> i & 1}))
                for b in range(1 << k)]
        accepts.append([None if c is None else g.col_labels[c].accept_flags for c in cols])
        columns.append([0 if c is None else down[c] for c in cols])
    return accepts, columns


# ---------------------------------------------------------------------------
# matrix text format: "rows cols" on the first line, then one line of
# contiguous 0/1 characters per row; when the labels are tables, companion
# .rows/.cols files carry them in the table text serialization

def _matrix_lines(m: BoolMatrix):
    # a row's text is its int in binary, reversed so that column 0 comes
    # first; a marker bit above the last column keeps the zero columns at
    # the end of the line
    yield f"{m.rows} {m.cols}\n"
    for b in m.bits:
        yield bin(b | 1 << m.cols)[:2:-1] + "\n"


def _read_matrix(lines: Iterable[str]) -> BoolMatrix:
    # one line at a time; blank lines are skipped, except that they are the
    # rows of a matrix without columns; a wrong row count is reported
    # before a bad row
    lines = iter(lines)
    header = next((ln for ln in lines if ln.strip()), None)
    if header is None:
        raise ValueError("empty matrix file")
    fields = header.split()
    # plain decimal digits: int() would also accept "-", "+" and "_"
    if len(fields) != 2 or not all(f.isascii() and f.isdigit() for f in fields):
        raise ValueError("first line must be 'rows cols'")
    rows, cols = map(int, fields)
    bits, found, bad = [], 0, False
    for ln in lines:
        ln = ln.rstrip("\n")
        if cols and not ln.strip():
            continue
        found += 1
        # checked before int(), which would also accept "_", "+", spaces and
        # other digits; counted in C, as a set of each row took longer than
        # the int() itself
        if bad or len(ln) != cols or ln.count("0") + ln.count("1") != cols:
            bad = True
        else:
            bits.append(int(ln[::-1] or "0", 2))
    if found != rows:
        raise ValueError(f"expected {rows} rows, found {found}")
    if bad:
        raise ValueError("rows must be contiguous 0/1 strings of the stated width")
    return BoolMatrix(tuple(range(rows)), tuple(range(cols)), cols, tuple(bits))


def save_matrix(m: BoolMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_matrix_lines(m))
    if all(isinstance(lbl, PrefixTable) for lbl in m.row_labels):
        with open(path + ".rows", "w", encoding="utf-8") as fh:
            for lbl in m.row_labels:
                fh.write(prefix_table_to_text(lbl) + "\n")
    if all(isinstance(lbl, SuffixTable) for lbl in m.col_labels):
        with open(path + ".cols", "w", encoding="utf-8") as fh:
            for lbl in m.col_labels:
                fh.write(suffix_table_to_text(lbl) + "\n")


def load_matrix(path: str) -> BoolMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return _read_matrix(fh)
