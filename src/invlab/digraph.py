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

All values are immutable and every function is pure.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections.abc import Iterator, Sequence

from .errors import ResourceLimitError
from .record import Record

MAX_VERTICES = 64

# Enumeration walks all 2^(n(n-1)/2) labelled tournaments; the class
# generator takes seconds at n=7.  n=8 would need a 2^28-entry seen map and
# 40,320 relabellings per class, so 7 is the cap.
MAX_ENUM_VERTICES = 7

# A subset of vertices is a plain bitmask.
VertexSet = int


class Digraph(Record):
    """Loop-free, 2-cycle-free directed graph; ``out_rows[v]`` masks v's heads."""

    __slots__ = ("n", "out_rows")
    n: int
    out_rows: tuple[int, ...]

    def __init__(self, n: int, out_rows: tuple[int, ...]):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}")
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
        rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u}, {v}) has an endpoint outside 0..{n - 1}")
            rows[u] |= 1 << v
        return cls(n, tuple(rows))

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
        if mask < 0 or mask >> self.n:
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
        return Digraph(len(verts), tuple(rows))


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

    def __init__(self, n: int, sets: tuple[VertexSet, ...]):
        full = (1 << n) - 1
        for i, s in enumerate(sets):
            if s < 0 or s & ~full:
                raise ValueError(f"set {i} contains vertices outside 0..{n - 1}")
        super().__init__(n, sets)

    @property
    def k(self) -> int:
        return len(self.sets)

    @classmethod
    def from_vertex_lists(
        cls, n: int, lists: Sequence[Sequence[int]]
    ) -> "InversionFamily":
        return cls(n, tuple(sum(1 << v for v in set(vs)) for vs in lists))

    def vertex_lists(self) -> list[list[int]]:
        return [[v for v in range(self.n) if s >> v & 1] for s in self.sets]


def invert(D: Digraph, X: VertexSet) -> Digraph:
    """Reverse every arc with both endpoints in X."""
    if X < 0 or X >> D.n:
        raise ValueError("vertex set outside the graph")
    cols = _columns(D.out_rows, D.n)
    rows = []
    for u in range(D.n):
        row = D.out_rows[u]
        if X >> u & 1:
            row = (row & ~X) | (cols[u] & X)
        rows.append(row)
    return Digraph(D.n, tuple(rows))


def apply_family(D: Digraph, F: InversionFamily) -> Digraph:
    """Invert the family's sets one after another (order never matters)."""
    if F.n != D.n:
        raise ValueError("family host size does not match graph")
    out = D
    for s in F.sets:
        out = invert(out, s)
    return out


def is_acyclic(D: Digraph) -> list[int] | None:
    """Topological order witnessing acyclicity, or None if a cycle exists.

    Ties are broken toward the smallest vertex index, so witnesses are
    deterministic.
    """
    in_rows = _columns(D.out_rows, D.n)
    remaining = (1 << D.n) - 1
    order = []
    while remaining:
        pick = -1
        m = remaining
        while m:
            v = (m & -m).bit_length() - 1
            if in_rows[v] & remaining == 0:
                pick = v
                break
            m &= m - 1
        if pick < 0:
            return None
        order.append(pick)
        remaining ^= 1 << pick
    return order


def residual_cycle(D: Digraph) -> list[int] | None:
    """Some directed cycle of D as a vertex list, or None if acyclic."""
    in_rows = _columns(D.out_rows, D.n)
    remaining = (1 << D.n) - 1
    changed = True
    while changed and remaining:
        changed = False
        m = remaining
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            if in_rows[v] & remaining == 0 or D.out_rows[v] & remaining == 0:
                remaining ^= 1 << v
                changed = True
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


def _require_enumerable(n: int) -> None:
    if n > MAX_ENUM_VERTICES:
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
    return Digraph(n, tuple(rows))


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
    XOR the destination bits of the set bits.  Both are tabulated for all
    n! relabellings once per call.
    """
    _require_enumerable(n)
    pairs = _pairs(n)
    m = len(pairs)
    index = {pair: idx for idx, pair in enumerate(pairs)}
    # dests[idx][k]: destination bit of pair idx under relabelling k.
    # flips[k]: destination bits of the pairs relabelling k reverses.
    # Sharing the m power objects keeps each table entry one pointer.
    powers = [1 << idx for idx in range(m)]
    dests: list[list[int]] = [[] for _ in range(m)]
    flips = []
    for perm in itertools.permutations(range(n)):
        flip = 0
        for idx, (i, j) in enumerate(pairs):
            a, b = perm[i], perm[j]
            dest = powers[index[min(a, b), max(a, b)]]
            dests[idx].append(dest)
            if a > b:
                flip |= dest
        flips.append(flip)
    seen = bytearray(1 << m)
    reps = []
    code = seen.find(0)
    while code >= 0:
        reps.append(_tournament(n, pairs, code))
        images = flips
        for idx in range(m):
            if code >> idx & 1:
                images = list(map(operator.xor, images, dests[idx]))
        for image in images:
            seen[image] = 1
        code = seen.find(0, code + 1)
    return reps


def dump_digraph(D: Digraph) -> str:
    """Text form: first line n, then n rows of n characters, (i,j)=1 for i->j."""
    lines = [str(D.n)]
    for u in range(D.n):
        lines.append(
            "".join("1" if D.out_rows[u] >> v & 1 else "0" for v in range(D.n))
        )
    return "\n".join(lines) + "\n"


def parse_digraph(text: str) -> Digraph:
    """Parse the digraph text format, rejecting loops and 2-cycles."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty digraph file")
    if not (lines[0].isascii() and lines[0].isdigit()):
        raise ValueError(f"first line must be the order, got {lines[0]!r}")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} adjacency rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"row {i} must be {n} characters of 0/1, got {ln!r}")
        rows.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
    return Digraph(n, tuple(rows))


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
                raise ValueError(f"set {i}: vertex {v} outside 0..{n - 1}")
            mask |= 1 << v
        sets.append(mask)
    return InversionFamily(n, tuple(sets))
