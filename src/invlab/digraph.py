"""Oriented graphs with bit-packed adjacency, inversions, and text formats.

A digraph here is loop-free and 2-cycle-free on at most 64 vertices, with
one out-neighbour bitmask per vertex.  Inverting a vertex set reverses
every arc with both ends inside it; a decycling family is a sequence of
sets whose inversions leave the graph acyclic, and the inversion number
is the least length of such a family.

Families correspond to per-vertex characteristic vectors: bit i of a
vertex's vector says whether the vertex lies in set i, and an arc ends up
reversed exactly when its endpoints' vectors have odd overlap.  The
solver searches vectors, each a plain int, and returns its witnesses as
families; this module only knows families.

The adjacency text form is the 0/1 row form of :mod:`invlab.f2`, read and
written there; this module adds the digraph checks to it, and owns the
one-line encoding and the family format.

All values are immutable and every function is pure; a
``TournamentClasses``, the class walk's tables for one order, keeps each
code's canonical form once it has given it.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from collections.abc import Iterable, Iterator, Sequence

from .errors import ResourceLimitError, check_int, check_masks
from .f2 import dump_rows, parse_rows
from .record import Record

MAX_VERTICES = 64

# Enumeration walks all 2^(n(n-1)/2) labelled tournaments.  The class
# generator packs each pair's destination bits under all n! relabellings
# into one int, one field per relabelling: 16 bits up to n=6 (15 pairs),
# 32 bits at n=7 (21 pairs), where the walk takes about 0.2 s.  n=8 would
# need a 2^28-entry seen map and 40,320 relabellings per class, so 7 is
# the cap.
MAX_ENUM_VERTICES = 7

# A subset of vertices is a plain bitmask.
VertexSet = int


def _check_vertex_count(n, low: int = 0) -> int:
    return check_int(n, "vertex count", low, MAX_VERTICES)


class Digraph(Record):
    """Loop-free, 2-cycle-free directed graph; ``out_rows[v]`` masks v's heads."""

    __slots__ = ("n", "out_rows")
    n: int
    out_rows: tuple[int, ...]

    def __init__(self, n: int, out_rows: Iterable[int]):
        _check_vertex_count(n)
        out_rows = check_masks(out_rows, "row {}", n)
        if len(out_rows) != n:
            raise ValueError("adjacency row count does not match vertex count")
        for u in range(n):
            row = out_rows[u]
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
            while row:
                v = (row & -row).bit_length() - 1
                if out_rows[v] >> u & 1:
                    raise ValueError(f"2-cycle between {u} and {v}")
                row &= row - 1
        super().__init__(n, out_rows)

    @classmethod
    def from_arcs(cls, n: int, arcs: Sequence[tuple[int, int]]) -> "Digraph":
        rows = [0] * _check_vertex_count(n)
        for arc in arcs:
            u, v = check_masks(arc, "arc endpoint", n, index=True)
            rows[u] |= 1 << v
        return cls(n, rows)

    def has_arc(self, u: int, v: int) -> bool:
        u, v = check_masks((u, v), "vertex", self.n, index=True)
        return bool(self.out_rows[u] >> v & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.out_rows[u]
            while row:
                v = (row & -row).bit_length() - 1
                yield (u, v)
                row &= row - 1

    def arc_count(self) -> int:
        return sum(r.bit_count() for r in self.out_rows)

    def is_tournament(self) -> bool:
        return self.arc_count() == self.n * (self.n - 1) // 2

    def in_rows(self) -> tuple[int, ...]:
        return _columns(self.out_rows, self.n)

    def induced(self, mask: VertexSet) -> "Digraph":
        """Subgraph on the masked vertices, renumbered in ascending order."""
        check_masks((mask,), "vertex set", self.n)
        verts = [v for v in range(self.n) if mask >> v & 1]
        return Digraph(len(verts), _induced_rows(self.out_rows, verts))


def _induced_rows(rows: Sequence[int], vertices: Sequence[int]) -> tuple[int, ...]:
    """The rows of the subgraph on distinct ``vertices``, its vertex i
    being ``vertices[i]``: ``induced`` without the graph, in any order."""
    index = {v: i for i, v in enumerate(vertices)}
    mask = sum(1 << v for v in vertices)
    out = []
    for v in vertices:
        row = rows[v] & mask
        new = 0
        while row:
            w = (row & -row).bit_length() - 1
            new |= 1 << index[w]
            row &= row - 1
        out.append(new)
    return tuple(out)


def _columns(rows: Sequence[int], n: int) -> tuple[int, ...]:
    cols = [0] * n
    for u in range(n):
        row = rows[u]
        while row:
            v = (row & -row).bit_length() - 1
            cols[v] |= 1 << u
            row &= row - 1
    return tuple(cols)


class InversionFamily(Record):
    """Ordered sequence of vertex subsets of an n-vertex host graph."""

    __slots__ = ("n", "sets")
    n: int
    sets: tuple[VertexSet, ...]

    def __init__(self, n: int, sets: Iterable[VertexSet]):
        check_int(n, "host size", 0, MAX_VERTICES)
        super().__init__(n, check_masks(sets, "set {}", n))

    @property
    def k(self) -> int:
        return len(self.sets)

    @classmethod
    def from_vertex_lists(
        cls, n: int, lists: Sequence[Sequence[int]]
    ) -> "InversionFamily":
        check_int(n, "host size", 0, MAX_VERTICES)
        return cls(n, [
            sum(1 << v for v in set(check_masks(vs, f"vertex in set {i}", n, index=True)))
            for i, vs in enumerate(lists)
        ])

    def vertex_lists(self) -> list[list[int]]:
        return [[v for v in range(self.n) if s >> v & 1] for s in self.sets]


def apply_family(D: Digraph, F: InversionFamily) -> Digraph:
    """D with every set of the family inverted (order never matters)."""
    if F.n != D.n:
        raise ValueError("family host size does not match graph")
    return Digraph(D.n, _flipped_rows(D.out_rows, F.sets))


def _flipped_rows(rows: Sequence[int], sets: Sequence[VertexSet]) -> tuple[int, ...]:
    """The rows once every set is inverted: ``apply_family`` without the graph."""
    # the XOR of the sets holding u marks the vertices whose arc with u
    # lies in an odd number of sets, so is reversed once all are inverted
    cols = _columns(rows, len(rows))
    out = []
    for u, row in enumerate(rows):
        flip = 0
        for s in sets:
            if s >> u & 1:
                flip ^= s
        out.append(row & ~flip | cols[u] & flip)
    return tuple(out)


def invert(D: Digraph, X: VertexSet) -> Digraph:
    """Reverse every arc with both endpoints in X: the one-set family (X,)."""
    return apply_family(D, InversionFamily(D.n, (X,)))


def _peel(blockers: Sequence[int], remaining: int) -> tuple[list[int], int]:
    # strip the least vertex v with no blockers[v] left while there is one;
    # the stripped vertices in order, and the mask of those left
    order = []
    while remaining:
        pick = -1
        m = remaining
        while m:
            v = (m & -m).bit_length() - 1
            if blockers[v] & remaining == 0:
                pick = v
                break
            m &= m - 1
        if pick < 0:
            break
        order.append(pick)
        remaining ^= 1 << pick
    return order, remaining


def is_acyclic(D: Digraph) -> list[int] | None:
    """Topological order witnessing acyclicity, or None if a cycle exists.

    Ties are broken toward the smallest vertex index, so witnesses are
    deterministic.
    """
    order, remaining = _peel(_columns(D.out_rows, D.n), (1 << D.n) - 1)
    return None if remaining else order


def _acyclic(rows: Sequence[int]) -> bool:
    """Whether the rows have no cycle, without the graph or an order: the
    peel strips sinks, which it reads off the rows themselves, where
    ``is_acyclic`` strips sources, which need the columns."""
    return not _peel(rows, (1 << len(rows)) - 1)[1]


def residual_cycle(D: Digraph) -> list[int] | None:
    """Some directed cycle of D as a vertex list, or None if acyclic."""
    # strip sources, then sinks (removing a sink never makes a source)
    _, remaining = _peel(_columns(D.out_rows, D.n), (1 << D.n) - 1)
    _, remaining = _peel(D.out_rows, remaining)
    if not remaining:
        return None
    start = (remaining & -remaining).bit_length() - 1
    seen: dict[int, int] = {}
    path = []
    v = start
    while v not in seen:
        seen[v] = len(path)
        path.append(v)
        nxt = D.out_rows[v] & remaining
        v = (nxt & -nxt).bit_length() - 1
    return path[seen[v] :]


def reverse(D: Digraph) -> Digraph:
    """Reverse every arc."""
    return Digraph(D.n, _columns(D.out_rows, D.n))


def _symmetries(
    outs: Sequence[int], ins: Sequence[int], v: int, steps: int = 1024
) -> tuple[int, list[tuple[list[int], int]]]:
    """The maps of the graph with rows ``outs`` and columns ``ins`` onto
    itself or onto its reverse: v's orbit under them, as a mask, and
    those that fix v, each as (image list, mask of its fixed points).

    A map v -> u, u of v's degree pair in the image, is sought in the
    disjoint union of the graph and its image (bits n..2n-1), whose cells
    start as {v, u} and the rest and are split until the vertices of each
    cell larger than a pair have as many out- and in-neighbours in every
    cell; a cell with unlike halves refutes a branch, and the least
    vertex of the first larger cell is paired with each image vertex
    there in turn.  Each map found is checked arc by arc.  Every u but v
    needs one map, the orbit being closed under the maps found; u = v
    takes every leaf, so the stabilizer is whole.  After ``steps``
    refinements the search gives up, which loses maps and never adds one.
    """
    n = len(outs)
    half = (1 << n) - 1
    degree = (outs[v].bit_count(), ins[v].bit_count())
    orbit, maps, stabilizer, left = 1 << v, [], [], steps

    def refine(cells: list[int], fresh: list[int]) -> list[int] | None:
        # counts into the cells a split made, as the others' are known equal
        while fresh:
            split, pieces = [], []
            for cell in cells:
                if cell.bit_count() == 2:  # a wrong pair is left to the map's check
                    split.append(cell)
                    continue
                groups: dict[int, int] = {}
                while cell:
                    low = cell & -cell
                    x = low.bit_length() - 1
                    ux, dx, key = up[x], down[x], 0  # 7 bits a count: at most 63
                    for c in fresh:
                        key = key << 14 | (ux & c).bit_count() << 7 | (dx & c).bit_count()
                    groups[key] = groups.get(key, 0) | low
                    cell ^= low
                split += groups.values()
                if len(groups) > 1:
                    pieces += groups.values()
            if any((c & half).bit_count() * 2 != c.bit_count() for c in pieces):
                return None
            cells, fresh = split, pieces
        return cells

    def extend(cells: list[int], fresh: list[int]) -> Iterator[list[int]]:
        nonlocal left
        left -= 1
        if left < 0 or (cells := refine(cells, fresh)) is None:
            return
        for i, cell in enumerate(cells):
            if cell.bit_count() > 2:
                x = cell & -cell
                rest = cell >> n
                while rest:
                    y = (rest & -rest) << n
                    pair = [x | y, cell ^ x ^ y]
                    yield from extend(cells[:i] + pair + cells[i + 1:], pair)
                    rest &= rest - 1
                return
        p = [0] * n
        for cell in cells:
            p[(cell & -cell).bit_length() - 1] = cell.bit_length() - 1 - n
        # a bijection keeping every arc, onto a graph with as many arcs
        if all(image[p[x]] >> p[y] & 1 for x in range(n) for y in range(n) if outs[x] >> y & 1):
            yield p

    for u in [*range(v), *range(v + 1, n), v]:  # the orbit first, the stabilizer last
        for image, image_ins in ((outs, ins), (ins, outs)):
            if (u != v and orbit >> u & 1 or left <= 0
                    or (image[u].bit_count(), image_ins[u].bit_count()) != degree):
                continue
            up = list(outs) + [r << n for r in image]
            down = list(ins) + [c << n for c in image_ins]
            cells = [1 << v | 1 << u + n, (1 << 2 * n) - 1 ^ 1 << v ^ 1 << u + n]
            found = list(itertools.islice(extend(cells, cells), None if u == v else 1))
            if u == v:
                stabilizer += [(p, sum(1 << x for x in range(n) if p[x] == x)) for p in found]
            maps += found
            grown = 0
            while found and grown != orbit:  # close the orbit under the maps found
                grown = orbit
                orbit |= sum({1 << p[x] for p in maps for x in range(n) if grown >> x & 1})
    return orbit, stabilizer


def _check_enum_order(n: int) -> None:
    if check_int(n, "vertex count", 0) > MAX_ENUM_VERTICES:
        raise ResourceLimitError(
            f"labelled enumeration is capped at {MAX_ENUM_VERTICES} vertices"
        )


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _tournament(n: int, pairs: list[tuple[int, int]], code: int) -> Digraph:
    rows = [0] * n
    for idx, (i, j) in enumerate(pairs):
        if code >> idx & 1:
            rows[i] |= 1 << j
        else:
            rows[j] |= 1 << i
    return Digraph(n, rows)


def nonisomorphic_tournaments(n: int) -> list[Digraph]:
    """One representative per isomorphism class of n-vertex tournaments,
    in ascending code order (see ``TournamentClasses``)."""
    return TournamentClasses(n).representatives()


class TournamentClasses:
    """The isomorphism classes of n-vertex tournaments, n at most
    ``MAX_ENUM_VERTICES``, and one exact canonical form for them.

    A labelled tournament's code has bit ``idx`` set exactly when pair
    (i, j), i < j, number ``idx`` in lexicographic pair order, is the arc
    i->j.  The representative of a class is its member with the smallest
    code, T's canonical code.

    Under a relabelling p, pair bit ``idx`` moves to one fixed destination
    bit and is inverted when p reverses the pair, so an image code is a
    flip mask XOR the destination bits of the set bits.  Both are packed
    once, over all n! relabellings at once: one int per pair holds its
    destination bit under relabelling number r in field r, 16 bits wide
    up to n=6 and 32 at n=7, and one int holds the flip masks.  A code's
    whole orbit is then the flip int XOR the ints of its set bits, read
    back field by field.  Pair (i, j)'s ints are built from two columns of
    the relabellings: the images of i and of j under each, which are kept
    to name the relabelling a field belongs to.  The orbit alone gives
    the canonical form; only ``representatives()`` walks the classes.
    """

    __slots__ = ("n", "_pairs", "_dests", "_flips", "_images", "_fmt", "_size", "_forms")

    def __init__(self, n: int):
        _check_enum_order(n)
        pairs = _pairs(n)
        width = 2 if len(pairs) <= 16 else 4
        byteorder = sys.byteorder
        # field[a*n + b]: the bytes of the destination bit of a pair sent to
        # (a, b); flipped[a*n + b] the same when a > b, else zero
        zero = bytes(width)
        field = [zero] * (n * n)
        flipped = [zero] * (n * n)
        for idx, (a, b) in enumerate(pairs):
            dest = (1 << idx).to_bytes(width, byteorder)
            field[a * n + b] = field[b * n + a] = flipped[b * n + a] = dest
        # images[i][r]: the image of i under relabelling r, a column at a
        # time, so the n! relabellings are never held at once
        images = [
            list(map(operator.itemgetter(i), itertools.permutations(range(n))))
            for i in range(n)
        ]
        scaled = [list(map(n.__mul__, col)) for col in images]
        dests = []
        flips = 0
        for i, j in pairs:
            cells = list(map(operator.add, scaled[i], images[j]))
            dests.append(int.from_bytes(b"".join(map(field.__getitem__, cells)), byteorder))
            flips |= int.from_bytes(b"".join(map(flipped.__getitem__, cells)), byteorder)
        self.n = n
        self._pairs = pairs
        self._dests = dests
        self._flips = flips
        self._images = images
        self._fmt = "H" if width == 2 else "I"  # one field of an orbit
        self._size = width * math.factorial(n)  # bytes per orbit
        self._forms: dict[int, tuple[Digraph, int]] = {}  # code -> (R, r)

    def _orbit(self, code: int) -> memoryview:
        """Item r: the code of the tournament ``code`` relabelled by r."""
        orbit = self._flips
        for idx, dest in enumerate(self._dests):
            if code >> idx & 1:
                orbit ^= dest
        return memoryview(orbit.to_bytes(self._size, sys.byteorder)).cast(self._fmt)

    def representatives(self) -> list[Digraph]:
        """One member per class, the least code, in ascending code order."""
        return [_tournament(self.n, self._pairs, code) for code in self._walk()]

    def _walk(self) -> list[int]:
        """The representatives' codes.  The walk visits the codes in
        ascending order, keeping one byte per code that says whether the
        code was seen.  The first unseen code starts a new class, and its
        whole orbit is marked at once."""
        seen = bytearray(1 << len(self._pairs))
        codes = []
        code = seen.find(0)
        while code >= 0:
            codes.append(code)
            for image in self._orbit(code):
                seen[image] = 1
            code = seen.find(0, code + 1)
        return codes

    def canonical(
        self, T: Digraph, vertices: Sequence[int] | None = None
    ) -> tuple[Digraph, tuple[int, ...]]:
        """The representative R of the class of T's subgraph on
        ``vertices``, in that order (all of T's by default), and where R
        lies in T: R's vertex i is T's vertex ``at[i]``.  The subgraph must
        be a tournament on n vertices.

        R's code is the least field of the subgraph's orbit, and the
        first field that holds it names the relabelling that maps the
        subgraph onto R; no class walk is needed.  Each code's R and
        relabelling are kept once found, since a sweep asks the same
        deletion codes again and again: one entry per distinct code
        asked, no more than the deletions the sweep keeps listed.
        """
        n = self.n
        vertices = check_masks(range(T.n) if vertices is None else vertices,
                               "vertex", T.n, index=True)
        if len(set(vertices)) != len(vertices) or len(vertices) != n:
            raise ValueError(f"canonical form needs {n} distinct vertices, got {vertices}")
        rows = T.out_rows
        code = 0
        for idx, (i, j) in enumerate(self._pairs):
            a, b = vertices[i], vertices[j]
            if rows[a] >> b & 1:
                code |= 1 << idx
            elif not rows[b] >> a & 1:
                raise ValueError(f"canonical form needs a tournament: no arc between {a} and {b}")
        form = self._forms.get(code)
        if form is None:
            orbit = self._orbit(code).tolist()
            least = min(orbit)
            form = self._forms[code] = (_tournament(n, self._pairs, least), orbit.index(least))
        rep, r = form
        at = [0] * n
        for v, col in zip(vertices, self._images):
            at[col[r]] = v
        return rep, tuple(at)


def dump_digraph(D: Digraph) -> str:
    """Text form (:func:`~invlab.f2.dump_rows`): entry (i,j) = 1 for i->j."""
    return dump_rows(D.out_rows)


def parse_digraph(text: str) -> Digraph:
    """Parse the digraph text format, rejecting loops and 2-cycles."""
    rows = parse_rows(text)
    return Digraph(len(rows), rows)


def encode_digraph(D: Digraph) -> str:
    """Single-line encoding used in experiment reports: enc:<n>:<hex rows>."""
    return f"enc:{D.n}:" + ".".join(format(r, "x") for r in D.out_rows)


# exactly what encode_digraph writes, the prefix optional: no sign, no
# leading zero, no upper case, no space or underscore, ASCII digits only
_HEX_ROW = r"(?:0|[1-9a-f][0-9a-f]*)"
_ENCODING = re.compile(rf"(?:enc:)?(0|[1-9][0-9]*):({_HEX_ROW}(?:\.{_HEX_ROW})*)?")


def decode_digraph(text: str) -> Digraph:
    """Inverse of :func:`encode_digraph`; the ``enc:`` prefix may be left off."""
    m = _ENCODING.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed digraph encoding {text!r}")
    n = int(m[1])
    rows = tuple(int(part, 16) for part in m[2].split(".")) if m[2] else ()
    if len(rows) != n:
        raise ValueError(f"encoding declares {n} vertices but has {len(rows)} rows")
    return Digraph(n, rows)


def dump_family(F: InversionFamily) -> str:
    """Text form: one line per set, each ended by a newline, of its
    space-separated 0-based vertex indices; the empty family is ``""``."""
    return "".join(" ".join(map(str, vs)) + "\n" for vs in F.vertex_lists())


def parse_family(text: str, n: int) -> InversionFamily:
    """Parse the family text format for an n-vertex host graph.

    Every line is one set, a blank line the empty set, so any family
    reads back from ``dump_family`` whole, empty sets included.
    """
    lists = [ln.split() for ln in text.splitlines()]
    for i, toks in enumerate(lists):
        for tok in toks:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"set {i}: {tok!r} is not a vertex index")
    # a token longer than n's digits is out of range, and int() refuses
    # strings past 4,300 digits, so it is refused unread
    lists = [[tok.lstrip("0") or "0" for tok in toks] for toks in lists]
    for i, toks in enumerate(lists):
        for tok in toks:
            if len(tok) > len(str(n)):
                raise ValueError(f"vertex in set {i} must be in range({n}), got {tok}")
    return InversionFamily.from_vertex_lists(n, [list(map(int, t)) for t in lists])
