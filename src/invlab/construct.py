"""Graph constructions, the constructor expression grammar, and explicit
decycling-family builders.

Constructions: the directed triangle, transitive tournaments, the
reversed-path tournament, k-joins (a dijoin is the k-join of two parts),
and blow-ups (replace each vertex of a host graph by a digraph, with full
arc bundles following the host's arcs).  Blow-up parts are laid out
consecutively in part order, so a part's family shifted by the vertex
count of the parts before it is a family of the same vertices of the
blow-up.

The expression grammar is deliberately minimal (no variables, no
bindings) so one line fully reproduces an experiment instance:

    expr := 'c3' ['(' ')'] | name '(' args ')'

One table, ``_GRAMMAR``, maps every other name to its argument signature
and its constructor: ``tt(i)``, ``qn(i)``, ``rev(e)``, ``dijoin(e, e)``,
``join(e, ...)``, ``blowup(e; e, ...)`` and ``blowup_uniform(e; e, i)``.
The parser builds the graph as it reads, with no expression tree: each
call runs its constructor once its arguments are read.  Errors carry
byte offsets; a constructor's refusal (a size past the vertex limit, a
blow-up with the wrong number of parts) is a ParseError at the offset
of that constructor's name.  ``join_parts`` reads a join's arguments
the same way and returns the parts instead of the join.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import accumulate
from operator import xor

from .digraph import (
    Digraph,
    InversionFamily,
    _check_vertex_count,
    apply_family,
    is_acyclic,
    residual_cycle,
)
from .digraph import reverse as reverse_digraph
from .errors import ParseError, VerificationError, check_int


def c3() -> Digraph:
    """The directed 3-cycle."""
    return Digraph(3, (0b010, 0b100, 0b001))


def transitive(n: int) -> Digraph:
    """Transitive tournament: arc i -> j exactly when i < j."""
    _check_vertex_count(n)
    full = (1 << n) - 1
    return Digraph(n, ((full >> (i + 1)) << (i + 1) for i in range(n)))


def qn(n: int) -> Digraph:
    """Transitive tournament with its unique directed hamiltonian path reversed.

    The path visits 0,1,...,n-1 in order, so inverting each pair {i, i+1}
    once turns each arc i -> i+1 into i+1 -> i while longer arcs stay.
    """
    _check_vertex_count(n, 1)
    return apply_family(transitive(n), InversionFamily(n, (3 << i for i in range(n - 1))))


def qn_family(n: int) -> InversionFamily:
    """The floor((n-1)/2) pair sets {v_2i, v_2i+1} (1-based vertex labels).

    With 0-based indices set i covers vertices 2i+1 and 2i+2; the family
    decycles ``qn(n)``, giving the standard upper bound on its inversion
    number.
    """
    _check_vertex_count(n, 1)
    sets = []
    for i in range(1, (n - 1) // 2 + 1):
        sets.append((1 << (2 * i - 1)) | (1 << (2 * i)))
    return InversionFamily(n, sets)


def dijoin(left: Digraph, right: Digraph) -> Digraph:
    """Disjoint union of left and right plus every arc from left to right:
    the k-join of the two."""
    return k_join([left, right])


def blow_up(H: Digraph, parts: list[Digraph]) -> Digraph:
    """Replace vertex i of H by parts[i], with full bundles along H's arcs."""
    if len(parts) != H.n:
        raise ValueError(f"blow-up needs exactly {H.n} parts, got {len(parts)}")
    offsets = list(accumulate((p.n for p in parts), initial=0))
    masks = [((1 << p.n) - 1) << off for p, off in zip(parts, offsets)]
    rows = []
    for i, p in enumerate(parts):
        off = offsets[i]
        bundle = 0
        hrow = H.out_rows[i]
        while hrow:
            j = (hrow & -hrow).bit_length() - 1
            bundle |= masks[j]
            hrow &= hrow - 1
        rows.extend((row << off) | bundle for row in p.out_rows)
    return Digraph(offsets[-1], rows)


def k_join(parts: list[Digraph]) -> Digraph:
    """Blow-up of the transitive tournament: parts dijoined one after another."""
    return blow_up(transitive(len(parts)), parts)


# ---------------------------------------------------------------------------
# Constructor expressions

# deepest nesting of constructor calls; deeper input is refused, not recursed
MAX_EXPR_DEPTH = 100


def _blowup_uniform(base: Digraph, part: Digraph, count: int) -> Digraph:
    # refused before a part list of that length is built
    if check_int(count, "blowup count", 1) != base.n:
        raise ValueError(f"blowup base has {base.n} vertices but count is {count}")
    return blow_up(base, [part] * count)


# name -> (argument signature, constructor).  In a signature 'i' reads an
# integer, 'e' an expression, '*' a list of one or more comma-separated
# expressions, and ',' or ';' itself; c3, with its optional '()', is apart.
_GRAMMAR = {
    "tt": ("i", transitive),
    "qn": ("i", qn),
    "rev": ("e", reverse_digraph),
    "dijoin": ("e,e", dijoin),
    "join": ("*", k_join),
    "blowup": ("e;*", blow_up),
    "blowup_uniform": ("e;e,i", _blowup_uniform),
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[a-z_][a-z0-9_]*)|(?P<int>[0-9]+)|(?P<sym>[(),;])"
    r"|(?P<eof>\Z)|(?P<bad>.))"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        """The next token's kind, text and end; ``pos`` moves to its start."""
        m = _TOKEN_RE.match(self.text, self.pos)
        kind = m.lastgroup
        self.pos = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", self.pos)
        return kind, m[kind], m.end()

    def take(self, kind: str, text: str | None, what: str) -> str:
        got, value, end = self.peek()
        if got != kind or text is not None and value != text:
            raise ParseError(f"expected {what}", self.pos)
        self.pos = end
        return value

    def skip(self, sym: str) -> None:
        self.take("sym", sym, repr(sym))

    def args(self, sig: str) -> list:
        out = []
        for c in sig:
            if c == "i":
                out.append(int(self.take("int", None, "an integer")))
            elif c == "e":
                out.append(self.expr())
            elif c == "*":
                parts = [self.expr()]
                while self.peek()[1] == ",":
                    self.skip(",")
                    parts.append(self.expr())
                out.append(parts)
            else:
                self.skip(c)
        return out

    def expr(self) -> Digraph:
        name = self.take("ident", None, "a constructor name")
        start = self.pos - len(name)
        if name == "c3":
            if self.peek()[1] == "(":
                self.skip("(")
                self.skip(")")
            return c3()
        if name not in _GRAMMAR:
            raise ParseError(f"unknown constructor {name!r}", start)
        sig, build = _GRAMMAR[name]
        self.skip("(")
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_EXPR_DEPTH}", start)
        try:  # a constructor's refusal becomes a ParseError at its name
            graph = build(*self.args(sig))
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), start) from None
        self.skip(")")
        self.depth -= 1
        return graph

    def end(self) -> None:
        kind, value, _ = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {value!r}", self.pos)


def graph_from_expr(text: str) -> Digraph:
    """The graph a constructor expression builds; errors carry byte offsets."""
    p = _Parser(text)
    graph = p.expr()
    p.end()
    return graph


def join_parts(text: str) -> list[Digraph]:
    """The parts of a ``join(...)`` expression, in order, each built as
    ``graph_from_expr`` builds it; any other text is a ParseError."""
    p = _Parser(text)
    p.take("ident", "join", "a join expression")
    p.skip("(")
    p.depth = 1  # the parts nest inside the join's own call
    (parts,) = p.args("*")
    p.skip(")")
    p.end()
    return parts


# ---------------------------------------------------------------------------
# Explicit decycling-family constructions


def _require_decycling(D: Digraph, F: InversionFamily, what: str) -> None:
    cycle = residual_cycle(apply_family(D, F))
    if cycle is not None:
        raise VerificationError(f"{what} left a cycle {cycle}", cycle)


def extend_family_to_c3_dijoin(D: Digraph, F: InversionFamily) -> InversionFamily:
    """Lift a decycling family of D to one of the same size for c3 => D.

    Requires an odd family length k >= 3 and even weight for every
    characteristic vector.  The triangle's first vertex joins no set while
    the other two join all k sets: the triangle then loses its cycle (odd
    k flips one arc) and every cross arc keeps its direction (even
    weights), so the lifted family decycles the dijoin.  The result is
    verified, not assumed.
    """
    k = F.k
    if k % 2 == 0 or k < 3:
        raise ValueError(f"family length must be odd and at least 3, got {k}")
    # bit v of the sets' XOR is the weight parity of vertex v's vector
    if reduce(xor, F.sets, 0):
        raise ValueError("every characteristic vector must have even weight")
    if is_acyclic(apply_family(D, F)) is None:
        raise ValueError("family does not decycle the graph")
    joined = dijoin(c3(), D)
    sets = tuple(0b110 | (s << 3) for s in F.sets)
    out = InversionFamily(joined.n, sets)
    _require_decycling(joined, out, "triangle dijoin family")
    return out

