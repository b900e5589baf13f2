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

All values are immutable and every function is pure.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import sys
from collections.abc import Iterable, Iterator, Sequence

from .errors import ResourceLimitError, check_int
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
        out_rows = tuple(out_rows)
        _check_vertex_count(n)
        if len(out_rows) != n:
            raise ValueError("adjacency row count does not match vertex count")
        for v, row in enumerate(out_rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {v} points outside the vertex range")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for u in range(n):
            row = out_rows[u]
            while row:
                v = (row & -row).bit_length() - 1
                if out_rows[v] >> u & 1:
                    raise ValueError(f"2-cycle between {u} and {v}")
                row &= row - 1
        super().__init__(n, out_rows)

    @classmethod
    def from_arcs(cls, n: int, arcs: Sequence[tuple[int, int]]) -> "Digraph":
        rows = [0] * _check_vertex_count(n)
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) has an endpoint {_outside(n)}")
            rows[u] |= 1 << v
        return cls(n, rows)

    def has_arc(self, u: int, v: int) -> bool:
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
        if check_int(mask, "vertex set", None) < 0 or mask >> self.n:
            raise ValueError("vertex set outside the graph")
        verts = [v for v in range(self.n) if mask >> v & 1]
        index = {v: i for i, v in enumerate(verts)}
        rows = []
        for v in verts:
            row = self.out_rows[v] & mask
            new = 0
            while row:
                w = (row & -row).bit_length() - 1
                new |= 1 << index[w]
                row &= row - 1
            rows.append(new)
        return Digraph(len(verts), rows)


def _outside(n: int) -> str:
    return f"outside 0..{n - 1}" if n > 0 else "outside the graph, which has no vertices"


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
        sets = tuple(sets)
        for i, s in enumerate(sets):
            if check_int(s, f"set {i}", None) < 0 or s >> n:
                raise ValueError(f"set {i} contains vertices {_outside(n)}")
        super().__init__(n, sets)

    @property
    def k(self) -> int:
        return len(self.sets)

    @classmethod
    def from_vertex_lists(
        cls, n: int, lists: Sequence[Sequence[int]]
    ) -> "InversionFamily":
        sets = []
        for i, vs in enumerate(lists):
            if any(v < 0 for v in vs):
                raise ValueError(f"set {i} contains vertices {_outside(n)}")
            sets.append(sum(1 << v for v in set(vs)))
        return cls(n, sets)

    def vertex_lists(self) -> list[list[int]]:
        return [[v for v in range(self.n) if s >> v & 1] for s in self.sets]


def apply_family(D: Digraph, F: InversionFamily) -> Digraph:
    """D with every set of the family inverted (order never matters)."""
    if F.n != D.n:
        raise ValueError("family host size does not match graph")
    # the XOR of the sets holding u marks the vertices whose arc with u
    # lies in an odd number of sets, so is reversed once all are inverted
    cols = _columns(D.out_rows, D.n)
    rows = []
    for u in range(D.n):
        flip = 0
        for s in F.sets:
            if s >> u & 1:
                flip ^= s
        row = D.out_rows[u]
        rows.append(row & ~flip | cols[u] & flip)
    return Digraph(D.n, rows)


def invert(D: Digraph, X: VertexSet) -> Digraph:
    """Reverse every arc with both endpoints in X: the one-set family (X,)."""
    if check_int(X, "vertex set", None) < 0 or X >> D.n:
        raise ValueError("vertex set outside the graph")
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
    """One representative per isomorphism class of n-vertex tournaments.

    A labelled tournament's code has bit ``idx`` set exactly when pair
    (i, j), i < j, number ``idx`` in lexicographic pair order, is the arc
    i->j.  The representative of a class is its member with the smallest
    code, and representatives are listed in ascending code order.

    The walk visits the codes in ascending order, keeping one byte per
    code that says whether the code was seen.  The first unseen code
    starts a new class, and its whole orbit is marked at once: under a
    relabelling p, pair bit ``idx`` moves to one fixed destination bit and
    is inverted when p reverses the pair, so an image code is a flip mask
    XOR the destination bits of the set bits.  Both are packed once per
    call, over all n! relabellings at once: one int per pair holds its
    destination bit under relabelling number r in field r, 16 bits wide
    up to n=6 and 32 at n=7, and one int holds the flip masks.  A class's
    whole orbit is then the flip int XOR the ints of its code's set bits,
    read back field by field.  Pair (i, j)'s ints are built from two
    columns of the relabellings: the images of i and of j under each.
    """
    _check_enum_order(n)
    pairs = _pairs(n)
    m = len(pairs)
    width, fmt = (2, "H") if m <= 16 else (4, "I")
    byteorder = sys.byteorder
    # field[a*n + b]: the bytes of the destination bit of a pair sent to
    # (a, b); flipped[a*n + b] the same when a > b, else zero
    zero = bytes(width)
    field = [zero] * (n * n)
    flipped = [zero] * (n * n)
    for idx, (a, b) in enumerate(pairs):
        dest = (1 << idx).to_bytes(width, byteorder)
        field[a * n + b] = field[b * n + a] = flipped[b * n + a] = dest
    # images[i][r]: the image of i under relabelling r, a column at a time,
    # so the n! relabellings are never held at once
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
    size = width * math.factorial(n)
    seen = bytearray(1 << m)
    reps = []
    code = seen.find(0)
    while code >= 0:
        reps.append(_tournament(n, pairs, code))
        orbit = flips
        for idx in range(m):
            if code >> idx & 1:
                orbit ^= dests[idx]
        for image in memoryview(orbit.to_bytes(size, byteorder)).cast(fmt):
            seen[image] = 1
        code = seen.find(0, code + 1)
    return reps


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
    """Text form: one set per line, space-separated 0-based vertex indices."""
    return "\n".join(" ".join(map(str, vs)) for vs in F.vertex_lists()) + "\n"


def parse_family(text: str, n: int) -> InversionFamily:
    """Parse the family text format for an n-vertex host graph.

    Every line is one set (a blank line is the empty set); trailing blank
    lines are ignored.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    sets = []
    for i, ln in enumerate(lines):
        mask = 0
        for tok in ln.split():
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"set {i}: {tok!r} is not a vertex index")
            v = int(tok)
            if not 0 <= v < n:
                raise ValueError(f"set {i}: vertex {v} {_outside(n)}")
            mask |= 1 << v
        sets.append(mask)
    return InversionFamily(n, sets)
