"""Exact inversion-number solvers with certified witnesses.

Two independent backends:

* ``assign``: iterative deepening over the family size k.  Level 0 is no
  search: its one family is the empty one, so one acyclicity peel decides
  it, at no node.  From k=1 on, each level searches
  characteristic-vector assignments vertex by vertex with forward
  checking.  Each unplaced vertex keeps a 2^k-bit mask of the vectors
  that close no cycle with the placed prefix; placing a vertex removes
  from every mask the vectors that now close one through it, a branch is
  cut as soon as a mask empties, and the next vertex is the one with the
  fewest vectors left (fail first), a tie there going first to the
  vertex on the most cyclic triangles with another vertex unplaced.
  On a tournament the placed vertices' flipped arcs close no cycle and
  join every pair, so they are a linear order, and a candidate inside
  its vertex's mask puts the vertex after those with a flipped arc into
  it and before the rest: the cycles it closes are read at that position
  from two prefix tables, two lists of |P|+1 mask-wide ints per depth.
  An oriented graph with a non-adjacent pair has no such order, and
  keeps the walk of the prefix's reachability closure, the rule exact on
  every graph (``_by_position`` picks the rule).  ``exists_family``
  walks the very tree of ``inv_exact``'s level k.  The
  flips depend only on the dot products of the vectors, so any isometry
  of GF(2)^k maps decycling families to decycling families, and two are
  broken (see ``_search_assignment``): permutation of family positions,
  where a vertex may only set a prefix of each block of coordinates
  whose columns agree so far, and, for even k, the map complementing
  every odd-weight vector, where the first odd-weight vector weighs at
  most k/2.  A vertex's canonical candidates are one 2^k-bit mask too,
  each rule one mask ANDed in, kept per block shape in a memo local to
  the call.  A node is one canonical candidate examined; those outside
  its vertex's mask cost one popcount together.  Per coordinate c the
  search keeps a column mask of the placed vertices whose vector sets c,
  so the pattern of arcs a candidate reverses is the XOR of the masks of
  its set coordinates.  Both symmetry rules hold along that order, since
  it reads only the graph, the placed set and the mask sizes, which
  every member of an isometry orbit shares.  A third rule bans a root
  vector searched to the end, with its orbit under the two, at every
  image of the root under the graph's (anti-)automorphisms, and a fourth,
  in plain mode, bans one searched to the end below the root at every
  image of its vertex under those maps that fix each placed vertex; the
  maps are found once per solve.

* ``order``: minimizes, over linear orders of the vertices, the least
  dimension realizing the order's flip constraints with a free diagonal.
  Branch and bound over order prefixes; exact for tournaments, where
  every pair is constrained.  Once a prefix P is fixed, every vertex
  outside it comes later, so each of P's rows of the flip matrix is
  known in every column: a pair (u in P, r) flips exactly when r -> u.
  The flip matrix is symmetric, so a prefix is bounded by the least rank
  of any symmetric matrix holding that row block, over P's diagonal bits
  (``f2._free_diag_bound``, itself a branch and bound over those bits,
  capped at the best width found, which checks no argument: the walk
  builds every block valid), with Lempel's +1 for a zero diagonal only
  once P is the whole order.  That is at least the block's rank, so the
  walk meets the first best order a rank bound meets, in fewer nodes.
  Columns are indexed by vertex, so appending a vertex adds its row and
  leaves the others as they are.  A block fixes its prefix's order,
  which the walk visits once, so bounds are not memoized.  Capped at
  ``ORDER_BACKEND_MAX_N`` vertices.  The witness is its own too: the best order's flip matrix,
  with the diagonal its bound chose, peeled into k rank-one terms u u^t
  (``f2._peel``, Lempel's least width), whose rows u are the family's sets.

The brute-force subset enumeration both are checked against is a test
oracle in ``tests/helpers.py``.  The solver builds no graphs: ``kjoin``'s
tightness criterion is one ``exists_family`` call with even weights only.

Every returned witness is checked to decycle its graph before it leaves
this module.  Budgets are counted in search nodes, not wall time, so runs
are reproducible; ``inv_exact`` counts all its k levels against one
budget, and the order backend its whole walk.  Searches are
single-threaded, so results (and witnesses) are identical run to run.

``inv_exact`` also takes two certificates in ``SearchOptions``, each
checked against the graph before any search: ``lower``, a ``Sub`` naming
an induced subgraph by an embedding, the part's vertex i at one of the
graph's vertices, and its resolved result, and ``upper``, a decycling
family.  A sweep's part is often a class representative, whose vertices
lie in the graph in another order.  ``inv_exact`` then searches only the
levels from the subgraph's value up to one below the family's width, and
returns that family, as ``composed``, when they are all empty.  Its
``InvResult`` says which certificate proves the value (``proof``) and
where its witness came from (``source``).
``exists_family`` and the order backend check no certificates, so they
refuse any.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from .digraph import (
    Digraph,
    InversionFamily,
    _acyclic,
    _flipped_rows,
    _induced_rows,
    _symmetries,
    dump_family,
)
from .errors import BudgetExceededError, ResourceLimitError, check_int, check_masks
from .f2 import _free_diag_bound, _peel
from .record import Record

MAX_K = 12

BACKENDS = ("assign", "order")

ORDER_BACKEND_MAX_N = 12


class Sub(Record):
    """A lower bound by an induced subgraph, named by an embedding: part
    vertex i is D's vertex ``vertices[i]``, and ``result`` is the part's
    resolved solve.  Deleting vertices keeps an acyclic graph acyclic, and
    renaming them keeps the value, so inv(D) >= result.value for every D
    whose subgraph on ``vertices``, in that order, is ``part``; the
    ascending tuple names ``D.induced(mask)``."""

    __slots__ = ("vertices", "part", "result")
    vertices: tuple[int, ...]
    part: Digraph
    result: "InvResult"

    def __init__(self, vertices: tuple[int, ...], part: Digraph, result: "InvResult"):
        super().__init__(vertices, part, result)


class SearchOptions(Record):
    """Limits of a solve and, for ``inv_exact``, two optional certificates:
    ``lower``, a ``Sub`` bounding the value below, and ``upper``, a
    decycling family bounding it above by its width."""

    __slots__ = ("max_k", "budget", "lower", "upper")
    max_k: int
    budget: int | None
    lower: Sub | None
    upper: InversionFamily | None

    def __init__(
        self,
        max_k: int = MAX_K,
        budget: int | None = None,
        lower: Sub | None = None,
        upper: InversionFamily | None = None,
    ):
        check_int(max_k, "max_k", 0, MAX_K)
        if budget is not None:
            check_int(budget, "budget", 1)
        if lower is not None and not isinstance(lower, Sub):
            raise ValueError(f"lower must be a Sub, got {lower!r}")
        if upper is not None and not isinstance(upper, InversionFamily):
            raise ValueError(f"upper must be an InversionFamily, got {upper!r}")
        super().__init__(max_k, budget, lower, upper)


class InvResult(Record):
    """Certified inversion number with witness and search statistics.

    ``value`` is None when the search was capped at ``max_k_exhausted``
    without finding a family (a bounded-unknown outcome, explicitly
    marked); otherwise no family of ``value - 1`` sets exists and the
    witness decycles the graph.  ``proof`` says why that level is empty:
    ``exhausted``, searched to the end, or ``sub:<hex mask>``, an induced
    subgraph of that value (``SearchOptions.lower``).  ``source`` says
    where the witness came from: ``search``, or ``composed``, the upper
    family a caller supplied (``SearchOptions.upper``).
    """

    __slots__ = (
        "value", "witness", "backend", "nodes_explored", "elapsed", "max_k_exhausted",
        "proof", "source",
    )
    value: int | None
    witness: InversionFamily | None
    backend: str
    nodes_explored: int
    elapsed: float
    max_k_exhausted: int
    proof: str
    source: str

    def __init__(
        self,
        value: int | None,
        witness: InversionFamily | None,
        backend: str,
        nodes_explored: int,
        elapsed: float,
        max_k_exhausted: int,
        proof: str = "exhausted",
        source: str = "search",
    ):
        super().__init__(
            value, witness, backend, nodes_explored, elapsed, max_k_exhausted, proof, source
        )

    @property
    def resolved(self) -> bool:
        return self.value is not None

    def report(self, deterministic: bool = False) -> str:
        if self.resolved:
            # no level lies below 0, so a value of 0 needs no proof
            proof = self.proof if self.value else "none"
            if proof == "exhausted":
                proof = f"{self.value - 1}_exhausted"
            head = (
                f"inv={self.value} k_proof={proof}"
                f" backend={self.backend} nodes={self.nodes_explored}"
            )
            if self.source != "search":
                head += f" witness={self.source}"
        else:
            head = (
                f"inv=unknown k_exhausted={self.max_k_exhausted}"
                f" backend={self.backend} nodes={self.nodes_explored}"
            )
        if not deterministic:
            head += f" elapsed={self.elapsed:.3f}s"
        lines = [head]
        if self.witness is not None and self.witness.k:
            lines.append(dump_family(self.witness).rstrip("\n"))
        return "\n".join(lines)


def _vertex_order(D: Digraph, ins: Sequence[int]) -> list[int]:
    # The assignment search's first vertex and tie-break: descending degree
    # imbalance first, since imbalanced vertices force flips early, so
    # cycles among assigned vertices appear sooner.  ins are D's in-rows.
    return sorted(
        range(D.n),
        key=lambda v: (-abs(D.out_rows[v].bit_count() - ins[v].bit_count()), v),
    )


def _cyclic_triangles(outs: Sequence[int], ins: Sequence[int]) -> list[int]:
    """Per vertex r, the cyclic triangles r -> a -> b -> r through it: for
    each out-neighbour a, the arcs from a into r's in-row."""
    tri = []
    for r, row in enumerate(outs):
        count = 0
        while row:
            low = row & -row
            count += (outs[low.bit_length() - 1] & ins[r]).bit_count()
            row ^= low
        tri.append(count)
    return tri


def _block_prefixes(tops: int) -> int:
    """The vectors w that set a prefix of each block, as a 2^k-bit mask.

    Bit c of ``tops`` is set where coordinate c heads its block, which runs
    down to the next head, and bit k-1 is set: w sets a prefix of each
    block when every coordinate it sets but a head has the one above set.
    """
    return sum(1 << w for w in range(1 << tops.bit_length()) if not w & ~(w >> 1) & ~tops)


def _weight_class(tops: int, w: int, first: bool, odd: Sequence[int]) -> int:
    """The vectors with w's weight in each block of ``tops`` and, while
    ``first`` holds and |w| is odd, those with its complement's: w's orbit
    under the two symmetry rules at a node, as a 2^k-bit mask.  ``counts[t]``
    holds the vectors that set t coordinates of the block so far."""
    full = (1 << (1 << tops.bit_length())) - 1
    same = twin = full
    counts, block = [full], 0
    for c in range(tops.bit_length()):  # a head is its block's highest coordinate
        col = odd[1 << c]
        counts = [a & ~col | b & col for a, b in zip(counts + [0], [0] + counts)]
        block |= 1 << c
        if tops >> c & 1:
            t = (w & block).bit_count()
            same &= counts[t]
            twin &= counts[len(counts) - 1 - t]
            counts, block = [full], 0
    return same | twin if first and w.bit_count() & 1 else same


def _by_position(D: Digraph) -> bool:
    """Whether ``_search_assignment`` reads a candidate's cycles from its
    position in the flipped prefix's linear order, which exists when every
    pair of D is adjacent; otherwise it walks the prefix's closure."""
    return D.is_tournament()


def _search_assignment(
    D: Digraph, k: int, opts: SearchOptions, spent: int = 0, *,
    even_weight_only: bool = False, group: list | None = None,
) -> tuple[InversionFamily | None, int]:
    """Complete DFS for a decycling family of k sets; (family or None, nodes).

    Vertex vectors are plain ints of width k, and the family's set c is
    the column mask of coordinate k-1-c once every vertex is placed.

    Forward checking with a fail-first order (Haralick and Elliott, AIJ
    1980).  Each unplaced vertex r keeps a 2^k-bit mask, bit x set while
    vector x closes no cycle through r with the placed prefix; masks start
    full, or even-weight only under ``even_weight_only``.  Placing v can
    only add cycles r -> a ~> v ~> b -> r, with a in the set A of v and
    its ancestors and b in the set B of v and its descendants in the
    flipped prefix.  With F[x] the placed vertices u where x.vec[u] is
    odd, x closes one when (out[r] ^ adj[r] & F[x]) meets A and
    (in[r] ^ adj[r] & F[x]) meets B.  Each side is a union, over r's
    neighbours u in A (or B), of the vectors x that put the arc between r
    and u on that side: odd[vec[u]] or its complement, from a parity
    table built per call.  The masks are blocks of one int, so one update
    serves every vertex.  A branch is cut when a mask empties, and the
    next vertex is the unplaced one with the fewest vectors left.  A node
    is one canonical candidate examined, in or out of its vertex's mask,
    and ``opts.budget`` counts nodes.

    On a tournament (``_by_position``) A and B need no closure walk.  The
    flipped prefix closes no cycle and joins every pair, so it is a
    linear order pi.  A candidate inside v's mask closes no cycle through
    v either, so it puts v after the p placed vertices with a flipped arc
    into v (``back``) and before the others: A is v and pi's first p
    vertices, B is v and the rest.  So up = to_v | ups[p] and down =
    from_v | downs[p], with ups[i] the OR of ``to_at`` over pi's first i
    vertices and downs[i] that of ``from_at`` over the others: the masks
    are the closure walk's bit for bit, and so are the trees, node counts
    and witnesses.  A node's lists are its parent's with the parent's
    vertex inserted at its p, one comprehension each, built when the
    node's first candidate goes deeper; until then its candidates read
    the parent's lists around that vertex, so a node whose candidates all
    fail builds none.  A search holds at most two lists of |P|+1 ints of
    n * 2^k bits per depth.  With a non-adjacent pair, a vertex's arcs no
    longer fix its place among the placed ones, and the closure walk,
    exact on every oriented graph, stays.

    A tie on the fewest vectors goes first to the vertex on the most
    cyclic triangles r -> a -> b -> r of D with a or b unplaced, v counted
    as placed, and only a tie left there goes to ``_vertex_order``; the
    root is its first vertex.  Exhausted levels are where fail-first
    branching pays, and on hard graphs they cost far more than the
    witness level, which the rule may lengthen.  Each vertex's triangles
    are counted once per call (``_cyclic_triangles``); at a tie, those
    the placed vertices close are the arcs from its placed
    out-neighbours into its placed in-neighbours.

    Mask sizes depend only on dot products, and the triangle key only on
    D and the placed set, so every member of an isometry orbit is
    searched in the same vertex sequence, and both symmetry rules hold
    along it.  The block-prefix rule: sorting a solution's coordinates by
    their columns in that sequence gives a member of its orbit that sets
    a prefix of each block at each vertex.
    And for even k the all-ones vector j has j.j = 0, so x -> x + (x.j) j
    keeps every dot product: it fixes even-weight vectors and complements
    odd-weight ones.  It fixes every vertex before the first odd-weight
    one and commutes with the block-prefix rule, which keeps weights, so
    that first odd-weight vector may skip weights above k/2 and lose no
    orbit; skipped vectors are not nodes.  For odd k, j.j = 1 and the map
    is no isometry.  ``spent`` nodes of ``opts.budget`` are already used
    by the caller.

    The third rule: once the root's vector w is searched to the end with
    no family, no family gives the root a vector of w's orbit under the
    two rules, those of w's weight and, under the complement rule, of
    weight k-|w| if it is odd.  An automorphism s of D, or an isomorphism
    onto its reverse, carries a family with such a vector at s(root) to
    one with it at the root, so the later root vectors ban the orbit at
    each image the finder gives.  Banned sets are unions of the rules'
    orbits, so both rules still hold.  Under ``even_weight_only`` the
    bans only cut, a banned vector skipped like one outside its mask
    (``keep``), and never steer the order: steering there grew some of
    the criterion's levels.

    The fourth rule, the third below the root, in plain mode only: once
    w at vertex v is searched to the end under a non-empty placed set P,
    no family has P's vectors and a member of w's class at v.  The class
    (``_weight_class``) is w's orbit under the maps of the two rules that
    fix P's vectors: the vectors with w's weight in each block of
    ``tops`` and, while ``first`` holds and |w| is odd, those with its
    complement's.  A map s of the two kinds that fixes P carries a
    family with that class at s(v) onto such a family, so the class is
    banned at each such image for the rest of the node's subtree, ANDed
    into its masks as the root bans are.  The maps that fix the
    root come from the same finder (``digraph._symmetries``), which runs
    at the first failed root vector, once per call, or once per
    ``inv_exact`` solve, whose levels share its result through
    ``group``; before it runs, only the root bans.  Images are kept by
    (P, v) and classes by (tops, w, first), per call.

    A call searches one k level and builds its tables once: the block
    constants; in one pass over the arcs, each vertex's in-row and the
    blocks of its neighbours (``near``) and of the vertices with an arc
    into it (``tails``); then the vertex order, the triangle counts and
    the parity table.

    Coordinates are numbered k-1 down to 0, so the blocks' heads are one
    int ``tops`` (``_block_prefixes``), w splits them at ``~w & w >> 1``,
    and ascending w is the search order.  While ``first``, the complement
    rule ANDs in the vectors of even weight or weight up to k/2.  A node
    walks its candidates inside its vertex's mask, lowest first, counts
    the skipped ones by popcount, and checks the budget before each
    candidate it walks and after the last, so an overrun raises at the
    node where a walk of every candidate would raise it.
    """
    n = D.n
    if n == 0:
        return InversionFamily(0, (0,) * k), 0
    outs = D.out_rows
    size = 1 << k
    full = (1 << size) - 1
    # all masks live in one int, vertex r's in the block of bits from
    # r*size, so each update acts on every vertex at once
    rep = sum(1 << r * size for r in range(n))  # the low bit of each block
    high = rep << size - 1  # the high bit of each block
    low_bits = high - rep  # the other bits of each block
    linear = _by_position(D)
    # one pass over the arcs: an arc u -> v puts u in ins[v], u's block in
    # tails[v] (the blocks of r with an arc r -> v), and off tournaments
    # each end's block in the other's near (the blocks of its neighbours);
    # on one, v's near is every block but its own, made per node
    ins = [0] * n
    tails = [0] * n
    near = [0] * n
    every = (1 << n * size) - 1
    for u in range(n):
        row = outs[u]
        bit = 1 << u
        block = full << u * size
        while row:
            low = row & -row
            v = low.bit_length() - 1
            ins[v] |= bit
            tails[v] |= block
            if not linear:
                near[v] |= block
                near[u] |= full << v * size
            row ^= low
    order = _vertex_order(D, ins)
    tri = _cyclic_triangles(outs, ins)
    adj = [o | i for o, i in zip(outs, ins)]
    # odd[w] bit x: x.w is odd; linear in w, so built from the unit vectors
    odd = [0] * size
    coords_of = [()] * size  # coords_of[w]: the coordinates w sets
    for c in range(k):
        run = 1 << c
        m = ((1 << run) - 1) << run  # in each 2^(c+1) vectors, the last half set c
        span = 2 * run
        while span < size:
            m |= m << span
            span *= 2
        odd[run] = m
    for w in range(1, size):
        low = w & -w
        coords_of[w] = coords_of[w ^ low] + (low.bit_length() - 1,)
        if low != w:
            odd[w] = odd[low] ^ odd[w ^ low]

    budget = opts.budget
    limit = None if budget is None else budget - spent
    start = full ^ odd[size - 1] if even_weight_only else full
    # first: k is even and no odd-weight vector is placed yet, so the next
    # vector keeps to light, the even weights and the weights up to k/2
    first = k % 2 == 0 and not even_weight_only
    light = sum(
        1 << w for w in range(size) if w.bit_count() <= k // 2 or not w.bit_count() & 1
    )
    memo: dict[int, int] = {}  # tops -> its candidates; tops sets bit k-1
    cols = [0] * k  # cols[c] bit u: placed u's vector sets coordinate c
    # block r of to_at[u]: vectors of r that give an arc r -> u, placed u;
    # of from_at[u], those giving u -> r
    to_at = [0] * n
    from_at = [0] * n
    prefix: list[int] = []  # placed vertices
    nodes = 0
    # group: the root's orbit, a set, and its stabilizer's maps but the
    # identity, once found; images: (P, v) -> v's images but v under the
    # maps that fix P, one low bit per block; classes: (tops, w, first) ->
    # w's class
    group = [] if group is None else group
    images: dict[int, int] = {}
    classes: dict[tuple, int] = {}
    keep = -1  # block r: the vectors no failed root vector's class bans at r

    def dfs(
        v: int,
        tops: int,
        first: bool,
        masks: int,
        desc: list[int] | None,
        tables: tuple | None,
        placed: int,
        rest: list[int],
        live: int,
    ) -> bool:
        # masks: block r the vectors unplaced r may take; by closure,
        # desc[u]: placed u and what it reaches in the flipped prefix; by
        # position, tables: (ups, downs, at, to_u, from_u), those of the
        # prefix but its last vertex u, ups[i] to_at ORed over the first i
        # vertices of its flipped order and downs[i] from_at over the
        # others, then u's place in that order and its to_at and from_at;
        # rest: unplaced but v, by order; live: the high bits of rest's blocks
        nonlocal nodes, keep
        if linear:
            ups, downs, at, to_u, from_u = tables
            own_ups = own_downs = None  # the prefix's, built for its first child
        cand = memo.get(tops)
        if cand is None:
            cand = memo[tops] = _block_prefixes(tops) & start
        if first:
            cand &= light
        mv = masks >> v * size & full
        bit = 1 << v
        av = adj[v] & placed
        ov = outs[v] & placed
        iv = ins[v] & placed
        nv = every ^ full << v * size if linear else near[v]
        tv = tails[v]
        # the candidates inside mv and not banned at v, then an end bit
        todo = cand & mv & keep >> v * size | 1 << size
        while True:
            low = todo & -todo
            todo ^= low
            # cand keeps the candidates not yet counted: those up to w are
            # nodes now, those outside mv each a skipped bit test
            done = cand & (low << 1) - 1
            cand ^= done
            nodes += done.bit_count()
            if limit is not None and nodes > limit:
                raise BudgetExceededError(f"assignment search exceeded {budget} nodes")
            if not todo:
                return False
            w = low.bit_length() - 1
            coords = coords_of[w]
            if not rest:
                for c in coords:
                    cols[c] |= bit
                return True
            # bit u of flip: parity of u's vector & w
            flip = 0
            for c in coords:
                flip ^= cols[c]
            to_v = odd[w] * rep & nv ^ tv
            # r -> a for some a that reaches v, and b -> r for some b that
            # v reaches, close a cycle
            if linear:
                # flip holds only neighbours of v, so iv ^ flip is back,
                # the p placed vertices before v in the flipped order
                p = (iv ^ flip).bit_count()
                from_v = to_v ^ nv
                if p > at:  # u is before v
                    up = to_v | to_u | ups[p - 1]
                    down = from_v | downs[p - 1]
                else:
                    up = to_v | ups[p]
                    down = from_v | from_u | downs[p]
            else:
                swap = av & flip
                heads = ov ^ swap  # arcs v -> u once flipped
                back = iv ^ swap  # arcs u -> v once flipped
                to_at[v] = to_v
                from_at[v] = to_v ^ nv
                below = bit
                tmp = heads
                while tmp:
                    low = tmp & -tmp
                    below |= desc[low.bit_length() - 1]
                    tmp ^= low
                up = to_v
                grown = desc[:]
                grown[v] = below
                for u in prefix:
                    if desc[u] & back:
                        up |= to_at[u]
                        grown[u] |= below
                down = 0
                tmp = below
                while tmp:
                    low = tmp & -tmp
                    down |= from_at[low.bit_length() - 1]
                    tmp ^= low
            new = masks & ~(up & down)
            kept = new & keep if even_weight_only else new  # else masks hold the bans
            if ((kept & low_bits) + low_bits | kept) & live != live:
                continue  # some vertex has no vector left
            least = size + 1
            for r in rest:
                size_r = (new >> r * size & full).bit_count()
                if size_r < least:
                    least = size_r
                    ties = [r]
                elif size_r == least:
                    ties.append(r)
            nxt_v = ties[0]
            if len(ties) > 1:
                # r's triangles less those the placed close: the arcs
                # from its placed out-neighbours into its placed in-neighbours
                seen = placed | bit
                most = -1
                for r in ties:
                    open_r = tri[r]
                    into = ins[r] & seen
                    tmp = outs[r] & seen
                    while tmp:
                        low = tmp & -tmp
                        open_r -= (outs[low.bit_length() - 1] & into).bit_count()
                        tmp ^= low
                    if open_r > most:
                        most = open_r
                        nxt_v = r
            for c in coords:
                cols[c] |= bit
            nxt_rest = rest[:]  # copy and remove: cheaper than a comprehension
            nxt_rest.remove(nxt_v)
            if linear:
                if own_ups is None:  # u enters the order at at
                    own_ups = ups[:at + 1] + [x | to_u for x in ups[at:]]
                    own_downs = [x | from_u for x in downs[:at + 1]] + downs[at:]
                grown = None
                nxt_tables = (own_ups, own_downs, p, to_v, from_v)
            else:
                prefix.append(v)
                nxt_tables = None
            if dfs(
                nxt_v,
                tops | ~w & w >> 1,
                first and not w.bit_count() & 1,
                new,
                grown,
                nxt_tables,
                placed | bit,
                nxt_rest,
                live ^ 1 << nxt_v * size + size - 1,
            ):
                return True
            if not linear:
                prefix.pop()
            for c in coords:
                cols[c] ^= bit
            # no family puts P's vectors and w's class at v, so none puts
            # them at v's image under a map that fixes P: ban it there
            if not group:  # found at the first failed root vector
                if placed:
                    continue
                orbit, stabilizer = _symmetries(outs, ins, v)
                group[:] = ({u for u in range(n) if orbit >> u & 1},
                            [s for s in stabilizer if s[1] != (1 << n) - 1])
            elif placed and (even_weight_only or not group[1]):
                continue  # even weights ban at the root alone
            partners = images.get(placed << 6 | v)
            if partners is None:
                mapped = {p[v] for p, f in group[1] if not placed & ~f} if placed else group[0]
                partners = images[placed << 6 | v] = sum(1 << u * size for u in mapped - {v})
            if partners:
                banned = classes.get((tops, w, first))
                if banned is None:
                    banned = classes[tops, w, first] = _weight_class(tops, w, first, odd)
                if even_weight_only:
                    keep &= ~(banned * partners)
                else:  # the masks steer the order, see the docstring
                    masks &= ~(banned * partners)

    root = order[0]
    live = high ^ 1 << root * size + size - 1
    # by position nothing is placed: one empty table each, and at = -1 for
    # no u, so the root's position 0 reads their one entry, ups[-1]
    desc = None if linear else [0] * n
    tables = ([0], [0], -1, 0, 0) if linear else None
    if not dfs(root, 1 << k >> 1, first, start * rep, desc, tables, 0, order[1:], live):
        return None, nodes
    return InversionFamily(n, cols[::-1]), nodes  # coordinate c is set k-1-c


def _uncertified(opts: SearchOptions | None) -> SearchOptions:
    """``opts``, or the default limits, for a solver that takes no
    certificates: one would go unchecked there, so it is refused."""
    if opts is None:
        return SearchOptions()
    if opts.lower is not None or opts.upper is not None:
        raise ValueError("only inv_exact takes lower and upper certificates")
    return opts


def exists_family(
    D: Digraph, k: int, opts: SearchOptions | None = None, *, even_weight_only: bool = False
) -> InversionFamily | None:
    """Some decycling family of k sets for D, checked to decycle it, or None.

    None means no such family exists.  With ``even_weight_only`` every
    vertex's characteristic vector has even weight: the XOR of the sets is
    empty.  Raises BudgetExceededError when the node budget runs out,
    which is distinct from a certified None.
    """
    opts = _uncertified(opts)
    check_int(k, "family size", 0, MAX_K)
    found, _ = _search_assignment(D, k, opts, even_weight_only=even_weight_only)
    if found is not None:
        _certify(D, found)
    return found


def _decycles(D: Digraph, sets: Sequence[int]) -> bool:
    """Whether inverting ``sets`` leaves D acyclic, checked on D's flipped
    rows: ``is_acyclic(apply_family(D, F))`` with no graph built."""
    return _acyclic(_flipped_rows(D.out_rows, sets))


def _certify(D: Digraph, family: InversionFamily) -> None:
    if not _decycles(D, family.sets):
        raise RuntimeError("internal witness failed its decycling check; this is a bug")


def _result(
    D: Digraph,
    family: InversionFamily | None,
    backend: str,
    nodes: int,
    start: float,
    max_k: int,
    lower: Sub | None = None,
    source: str = "search",
) -> InvResult:
    """Resolved at the family's size once it decycles D, which a composed
    family passed in ``_bounds``; with no family, unresolved with every
    level up to ``max_k`` exhausted.  The proof is ``lower`` when its
    value lies above the last empty level, which no search then reached."""
    value = None
    if family is not None:
        if source == "search":
            _certify(D, family)
        value, max_k = family.k, family.k - 1
    proof = "exhausted"
    if lower is not None and max_k < lower.result.value:
        proof = f"sub:{sum(1 << v for v in lower.vertices):x}"
    return InvResult(
        value, family, backend, nodes, time.perf_counter() - start, max_k, proof, source
    )


def _levels(opts: SearchOptions) -> tuple[int, int]:
    """The first and the last level under ``opts``, unchecked: from the lower
    bound's value, or 0, up to one below the upper family's width, or ``max_k``."""
    low = 0 if opts.lower is None else opts.lower.result.value
    return low, opts.max_k if opts.upper is None else min(opts.max_k, opts.upper.k - 1)


def _bounds(D: Digraph, opts: SearchOptions) -> tuple[int, int]:
    """``_levels(opts)``, the levels ``inv_exact`` searches, once ``opts``'
    certificates pass their checks on D's rows, with no graph built: the
    part's rows against D's rows on the lower bound's vertices, read under
    its map, the family on D's flipped rows."""
    lower, upper = opts.lower, opts.upper
    if lower is not None:
        vertices = lower.vertices
        if type(vertices) is not tuple:
            raise ValueError(f"lower bound vertices must be a tuple, got {vertices!r}")
        check_masks(vertices, "lower bound vertex", D.n, index=True)
        part = lower.part
        if type(part) is not Digraph:
            raise ValueError(f"lower bound part must be a Digraph, got {part!r}")
        if len(vertices) != part.n:
            raise ValueError(
                f"lower bound names {len(vertices)} vertices for a part of {part.n}"
            )
        if len(set(vertices)) != len(vertices):
            twice = next(v for i, v in enumerate(vertices) if v in vertices[:i])
            raise ValueError(f"lower bound names vertex {twice} twice")
        if part.out_rows != _induced_rows(D.out_rows, vertices):
            raise ValueError(
                f"lower bound part is not the subgraph induced by vertices {vertices}"
            )
        if not isinstance(lower.result, InvResult):
            raise ValueError(f"lower bound result must be an InvResult, got {lower.result!r}")
        if not lower.result.resolved:
            raise ValueError("lower bound result is unresolved")
        check_int(lower.result.value, "lower bound value", 0, MAX_K)
    low, high = _levels(opts)
    if upper is not None:
        if upper.n != D.n:
            raise ValueError(f"upper family is on {upper.n} vertices, not {D.n}")
        if not _decycles(D, upper.sets):
            raise ValueError("upper family does not decycle the graph")
        if low > upper.k:
            raise ValueError(f"lower bound {low} is above the upper family's {upper.k} sets")
    return low, high


def _searches(opts: SearchOptions) -> bool:
    """Whether ``inv_exact`` under ``opts`` may search a level k >= 1."""
    low, high = _levels(opts)
    return max(low, 1) <= high


def inv_exact(D: Digraph, opts: SearchOptions | None = None) -> InvResult:
    """Inversion number by iterative deepening over the family size.

    Level 0 is decided by one acyclicity peel and costs no node: an
    acyclic D has value 0 with the empty family as its witness, and a
    cyclic D's level 0 is empty, so the search starts at k=1.
    ``opts.budget`` caps the nodes of all levels together, so
    ``nodes_explored`` never exceeds it.  With certificates in ``opts``
    (checked first, see ``_bounds``) only the levels between them are
    searched: from the lower bound's value, since a smaller family pads
    with empty sets to one of that size, up to one below the upper
    family's width, which is the value, with that family as the witness,
    when every level between is exhausted and the width is at most
    ``max_k``.  A lower bound above ``max_k`` leaves nothing to search.
    Each level k is the tree ``exists_family(D, k)`` walks.
    """
    if opts is None:
        opts = SearchOptions()
    start = time.perf_counter()
    low, high = _bounds(D, opts)
    total = 0
    found, source = None, "search"
    group: list = []  # the root's symmetries, found once for every level
    for k in range(low, high + 1):
        if k:
            found, nodes = _search_assignment(D, k, opts, total, group=group)
            total += nodes
        elif _acyclic(D.out_rows):
            # level 0's one family is the empty one, which decycles D
            # exactly when D is acyclic: one peel decides it, at no node
            found = InversionFamily(D.n, ())
        if found is not None:
            break
    else:
        if opts.upper is not None and opts.upper.k <= opts.max_k:
            found, source = opts.upper, "composed"
    return _result(D, found, "assign", total, start, opts.max_k, opts.lower, source)


def inv_order_backend(D: Digraph, opts: SearchOptions | None = None) -> InvResult:
    """Inversion number as a minimum over linear orders of the vertices.

    For each order, the arcs pointing against it are exactly the pairs
    whose vectors must have odd overlap, and the least width realizing
    those constraints (diagonal free) is Lempel's rank rule minimized
    over the diagonal; the minimum over orders is the inversion number.
    Orders are built vertex by vertex, and a prefix is cut when every
    symmetric matrix holding its vertices' rows, as every completion's
    flip matrix does, needs the best width found (see the module
    docstring).  Tournaments only: a
    missing pair would wrongly be constrained to "no flip".  Graphs above
    ``ORDER_BACKEND_MAX_N`` vertices are refused with ResourceLimitError
    before any search.  Value and witness are both independent of the
    assignment backend, for cross-validation: the witness is the peel of
    the best order's flip matrix, whose k rows, read as sets, put an odd
    number of sets on exactly the pairs the order flips.  ``opts.budget``
    caps the walk's nodes, which are the whole solve.  Orders wider than
    ``opts.max_k`` are pruned, so when none fits the result is unresolved
    with ``max_k`` exhausted, as from ``inv_exact``.
    """
    opts = _uncertified(opts)
    if not D.is_tournament():
        raise ValueError("the order backend is only exact on tournaments")
    if D.n > ORDER_BACKEND_MAX_N:
        raise ResourceLimitError(
            f"order backend is capped at {ORDER_BACKEND_MAX_N} vertices"
        )
    start = time.perf_counter()
    n = D.n
    if n == 0:
        return _result(D, InversionFamily(0, ()), "order", 0, start, opts.max_k)

    best_k = opts.max_k + 1  # prunes every order wider than max_k
    best = [0] * n  # the best order's flip matrix, rows by vertex
    nodes = 0
    budget = opts.budget
    ins = D.in_rows()

    def walk(seq: tuple[int, ...], block: tuple[int, ...], used: int) -> None:
        # block[i] bit w: the arc between seq[i] and w points against an
        # order that starts with seq; every later vertex w counts as after
        nonlocal nodes, best_k
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"order search exceeded {budget} nodes")
        # every completion's flip matrix holds the prefix's rows
        k, d = _free_diag_bound(block, seq, n, best_k)
        if k >= best_k:
            return
        if len(seq) == n:
            best_k = k
            for v, row in zip(seq, block):
                best[v] = row | d & 1 << v
            return
        for v in range(n):
            if not used >> v & 1:
                # earlier u flips when v -> u, later w when w -> v
                row = D.out_rows[v] & used | ins[v] & ~used
                walk(seq + (v,), block + (row,), used | 1 << v)

    walk((), (), 0)
    found = InversionFamily(n, _peel(best)) if best_k <= opts.max_k else None
    return _result(D, found, "order", nodes, start, opts.max_k)

