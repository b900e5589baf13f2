"""Exact inversion-number solvers with certified witnesses.

Two independent backends:

* ``assign``: iterative deepening over the family size k, searching
  characteristic-vector assignments vertex by vertex with forward
  checking.  Each unplaced vertex keeps a 2^k-bit mask of the vectors
  that close no cycle with the placed prefix; placing a vertex removes
  from every mask the vectors that now close one through it, a branch is
  cut as soon as a mask empties, and the next vertex is the one with the
  fewest vectors left (fail first).  A node is one canonical candidate
  examined, and one outside its vertex's mask costs a bit test.  The
  flips depend only on the dot products of the vectors, so any isometry
  of GF(2)^k maps decycling families to decycling families, and two are
  broken.  Permutation of family positions (coordinate permutation of
  all vectors at once): coordinates whose columns agree so far form
  blocks of consecutive coordinates, and a vertex may only set a prefix
  of each block.  And, for even k, the map complementing every
  odd-weight vector: the first odd-weight vector in search order weighs
  at most k/2.  Mask sizes are isometry invariants, so the vertex
  sequence is the same along every member of an orbit, and both rules
  stay sound (see ``_search_assignment``).  The list of block lengths
  (the shape), with whether an odd-weight vector is placed yet, fixes a
  vertex's candidate list, which each search call builds once and keeps
  in a dict local to the call, up to ``_MEMO_CAP`` entries in all; a
  list past the cap is rebuilt at each node that needs it.  Per
  coordinate c the search keeps a column mask of the placed vertices
  whose vector sets c, so the pattern of arcs a candidate reverses is
  the XOR of the masks of its set coordinates.

* ``order``: minimizes, over linear orders of the vertices, the least
  dimension realizing the order's flip constraints with a free diagonal.
  Branch and bound over order prefixes; exact for tournaments, where
  every pair is constrained.  Once a prefix P is fixed, every vertex
  outside it comes later, so each of P's rows of the flip matrix is
  known in every column: a pair (u in P, r) flips exactly when r -> u.
  A prefix is bounded by the least rank of that row block over P's
  diagonal bits (``f2.free_diag_bound``, itself a branch and bound over
  those bits, capped at the best width found), with Lempel's +1 for a
  zero diagonal only once P is the whole order.  Columns are indexed by
  vertex, so appending a vertex adds its row and leaves the others as
  they are.  A block fixes its prefix's order, which the walk visits
  once, so bounds are not memoized.  Capped at ``ORDER_BACKEND_MAX_N``
  vertices.  The witness is its own too: the best order's flip matrix,
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
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from .digraph import Digraph, InversionFamily, apply_family, dump_family, is_acyclic
from .errors import BudgetExceededError, ResourceLimitError, check_int
from .f2 import _peel, free_diag_bound
from .record import Record

MAX_K = 12

BACKENDS = ("assign", "order")

ORDER_BACKEND_MAX_N = 12


class SearchOptions(Record):
    __slots__ = ("max_k", "budget")
    max_k: int
    budget: int | None

    def __init__(self, max_k: int = MAX_K, budget: int | None = None):
        check_int(max_k, "max_k", 0, MAX_K)
        if budget is not None:
            check_int(budget, "budget", 1)
        super().__init__(max_k, budget)


class InvResult(Record):
    """Certified inversion number with witness and search statistics.

    ``value`` is None when the search was capped at ``max_k_exhausted``
    without finding a family (a bounded-unknown outcome, explicitly
    marked); otherwise every k <= value-1 was exhausted and the witness
    decycles the graph.
    """

    __slots__ = (
        "value", "witness", "backend", "nodes_explored", "elapsed", "max_k_exhausted"
    )
    value: int | None
    witness: InversionFamily | None
    backend: str
    nodes_explored: int
    elapsed: float
    max_k_exhausted: int

    def __init__(
        self,
        value: int | None,
        witness: InversionFamily | None,
        backend: str,
        nodes_explored: int,
        elapsed: float,
        max_k_exhausted: int,
    ):
        super().__init__(value, witness, backend, nodes_explored, elapsed, max_k_exhausted)

    @property
    def resolved(self) -> bool:
        return self.value is not None

    def report(self, deterministic: bool = False) -> str:
        if self.resolved:
            # no level lies below 0, so a value of 0 needs no proof
            proof = f"{self.value - 1}_exhausted" if self.value else "none"
            head = (
                f"inv={self.value} k_proof={proof}"
                f" backend={self.backend} nodes={self.nodes_explored}"
            )
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


# candidate list entries one search call may keep in its memo; what would
# pass this is rebuilt each time it is needed
_MEMO_CAP = 1 << 16


def _candidates(
    shape: tuple[int, ...], even_only: bool
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Canonical vectors for a vertex whose blocks have lengths ``shape``.

    Entries are ``(w, coordinates set in w, shape after w)``, the last
    block's prefix length varying fastest; ``even_only`` drops odd weights.
    Each block's options, one per prefix length, are listed once and
    joined onto the entries of the blocks before it.
    """
    out: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(0, (), ())]
    start = 0
    for m in shape:
        # setting the block's first c coordinates splits it into c and m - c
        options = [
            (
                ((1 << c) - 1) << start,
                tuple(range(start, start + c)),
                ((c,) if c else ()) + ((m - c,) if c < m else ()),
            )
            for c in range(m + 1)
        ]
        out = [(w | bw, cs + bc, nx + bn) for w, cs, nx in out for bw, bc, bn in options]
        start += m
    if even_only:
        return [entry for entry in out if not len(entry[1]) & 1]
    return out


def _search_assignment(
    D: Digraph, k: int, opts: SearchOptions, spent: int = 0, *, even_weight_only: bool = False
) -> tuple[InversionFamily | None, int]:
    """Complete DFS for a decycling family of k sets; (family or None, nodes).

    Vertex vectors are plain ints of width k, and the family's set c is
    the column mask of coordinate c once every vertex is placed.

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
    next vertex is the unplaced one with the fewest vectors left, ties
    going to ``_vertex_order``.  A node is one canonical candidate
    examined, in or out of its vertex's mask (out costs one bit test),
    and ``opts.budget`` counts nodes.

    Mask sizes depend only on dot products, so every member of an
    isometry orbit is searched in the same vertex sequence, and both
    symmetry rules hold along it.  The block-prefix rule: sorting a
    solution's coordinates by their columns in that sequence gives a
    member of its orbit that sets a prefix of each block at each vertex.
    And for even k the all-ones vector j has j.j = 0, so x -> x + (x.j) j
    keeps every dot product: it fixes even-weight vectors and complements
    odd-weight ones.  It fixes every vertex before the first odd-weight
    one and commutes with the block-prefix rule, which keeps weights, so
    that first odd-weight vector may skip weights above k/2 and lose no
    orbit; skipped vectors are not nodes.  For odd k, j.j = 1 and the map
    is no isometry.  ``spent`` nodes of ``opts.budget`` are already used
    by the caller.

    A call searches one k level and builds its tables once: the block
    constants; in one pass over the arcs, each vertex's in-row and the
    blocks of its neighbours (``near``) and of the vertices with an arc
    into it (``tails``); then the vertex order and the parity table.  A
    candidate list is built on the first use of its key and kept in the
    call's memo.
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
    # one pass over the arcs: an arc u -> v puts u in ins[v], u's block in
    # tails[v] (the blocks of r with an arc r -> v), and each end's block
    # in the other's near (the blocks of its neighbours)
    ins = [0] * n
    tails = [0] * n
    near = [0] * n
    for u in range(n):
        row = outs[u]
        bit = 1 << u
        block = full << u * size
        while row:
            low = row & -row
            v = low.bit_length() - 1
            ins[v] |= bit
            tails[v] |= block
            near[v] |= block
            near[u] |= full << v * size
            row ^= low
    order = _vertex_order(D, ins)
    adj = [o | i for o, i in zip(outs, ins)]
    # odd[w] bit x: x.w is odd; linear in w, so built from the unit vectors
    odd = [0] * size
    for c in range(k):
        run = 1 << c
        m = ((1 << run) - 1) << run  # in each 2^(c+1) vectors, the last half set c
        span = 2 * run
        while span < size:
            m |= m << span
            span *= 2
        odd[run] = m
    for w in range(3, size):
        low = w & -w
        if low != w:
            odd[w] = odd[low] ^ odd[w ^ low]

    budget = opts.budget
    limit = None if budget is None else budget - spent
    even_only = even_weight_only
    half = k // 2
    # key (shape, first): first while no odd-weight vector is placed and k
    # is even; entries carry their child's key, so descending tests nothing
    memo: dict[tuple[tuple[int, ...], bool], list] = {}
    stored = 0
    cols = [0] * k  # cols[c] bit u: placed u's vector sets coordinate c
    # block r of to_at[u]: vectors of r that give an arc r -> u, placed u;
    # of from_at[u], those giving u -> r
    to_at = [0] * n
    from_at = [0] * n
    prefix: list[int] = []  # placed vertices
    nodes = 0

    def candidates(key: tuple[tuple[int, ...], bool]) -> list:
        nonlocal stored
        shape, first = key
        if first:
            # an odd vector heavier than k/2 here has its complement in the tree
            base = memo.get((shape, False)) or candidates((shape, False))
            cands = [
                (w, c, (nxt, len(c) % 2 == 0))
                for w, c, (nxt, _) in base
                if len(c) % 2 == 0 or len(c) <= half
            ]
        else:
            cands = [(w, c, (nxt, False)) for w, c, nxt in _candidates(shape, even_only)]
        if stored + len(cands) <= _MEMO_CAP:
            memo[key] = cands
            stored += len(cands)
        return cands

    def dfs(
        v: int,
        key: tuple[tuple[int, ...], bool],
        masks: int,
        desc: list[int],
        placed: int,
        rest: list[int],
        live: int,
    ) -> bool:
        # masks: block r the vectors unplaced r may take; desc[u]: placed u
        # and what it reaches in the flipped prefix; rest: unplaced but v,
        # by order; live: the high bits of rest's blocks
        nonlocal nodes
        cands = memo.get(key)
        if cands is None:
            cands = candidates(key)
        mv = masks >> v * size & full
        bit = 1 << v
        av = adj[v] & placed
        ov = outs[v] & placed
        iv = ins[v] & placed
        nv = near[v]
        tv = tails[v]
        for w, coords, nxt in cands:
            nodes += 1
            if limit is not None and nodes > limit:
                raise BudgetExceededError(
                    f"assignment search exceeded {budget} nodes"
                )
            if not mv >> w & 1:
                continue  # closes a cycle through v
            if not rest:
                for c in coords:
                    cols[c] |= bit
                return True
            # bit u of flip: parity of u's vector & w
            flip = 0
            for c in coords:
                flip ^= cols[c]
            swap = av & flip
            heads = ov ^ swap  # arcs v -> u once flipped
            back = iv ^ swap  # arcs u -> v once flipped
            to_v = odd[w] * rep & nv ^ tv
            to_at[v] = to_v
            from_at[v] = to_v ^ nv
            # r -> a for some a that reaches v, and b -> r for some b that
            # v reaches, close a cycle
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
            if ((new & low_bits) + low_bits | new) & live != live:
                continue  # some vertex has no vector left
            least = size + 1
            for r in rest:
                size_r = (new >> r * size & full).bit_count()
                if size_r < least:
                    least = size_r
                    nxt_v = r
            for c in coords:
                cols[c] |= bit
            prefix.append(v)
            if dfs(
                nxt_v,
                nxt,
                new,
                grown,
                placed | bit,
                [r for r in rest if r != nxt_v],
                live ^ 1 << nxt_v * size + size - 1,
            ):
                return True
            prefix.pop()
            for c in coords:
                cols[c] ^= bit
        return False

    start = full ^ odd[size - 1] if even_only else full
    # with even_only no odd vector comes, so no list needs the filter
    key = ((k,) if k else (), k % 2 == 0 and not even_only)
    root = order[0]
    live = high ^ 1 << root * size + size - 1
    if not dfs(root, key, start * rep, [0] * n, 0, order[1:], live):
        return None, nodes
    return InversionFamily(n, cols), nodes


def exists_family(
    D: Digraph, k: int, opts: SearchOptions | None = None, *, even_weight_only: bool = False
) -> InversionFamily | None:
    """Some decycling family of k sets for D, checked to decycle it, or None.

    None means no such family exists.  With ``even_weight_only`` every
    vertex's characteristic vector has even weight: the XOR of the sets is
    empty.  Raises BudgetExceededError when the node budget runs out,
    which is distinct from a certified None.
    """
    if opts is None:
        opts = SearchOptions()
    check_int(k, "family size", 0, MAX_K)
    found, _ = _search_assignment(D, k, opts, even_weight_only=even_weight_only)
    if found is not None:
        _certify(D, found)
    return found


def _certify(D: Digraph, family: InversionFamily) -> None:
    if is_acyclic(apply_family(D, family)) is None:
        raise RuntimeError("internal witness failed its decycling check; this is a bug")


def _result(
    D: Digraph,
    family: InversionFamily | None,
    backend: str,
    nodes: int,
    start: float,
    max_k: int,
) -> InvResult:
    """Resolved at the family's size once it decycles D; with no family,
    unresolved with every level up to ``max_k`` exhausted."""
    value = None
    if family is not None:
        _certify(D, family)
        value, max_k = family.k, family.k - 1
    return InvResult(value, family, backend, nodes, time.perf_counter() - start, max_k)


def inv_exact(D: Digraph, opts: SearchOptions | None = None) -> InvResult:
    """Inversion number by iterative deepening over the family size.

    ``opts.budget`` caps the nodes of all levels together, so
    ``nodes_explored`` never exceeds it.
    """
    if opts is None:
        opts = SearchOptions()
    start = time.perf_counter()
    total = 0
    for k in range(opts.max_k + 1):
        found, nodes = _search_assignment(D, k, opts, total)
        total += nodes
        if found is not None:
            break
    return _result(D, found, "assign", total, start, opts.max_k)


def inv_order_backend(D: Digraph, opts: SearchOptions | None = None) -> InvResult:
    """Inversion number as a minimum over linear orders of the vertices.

    For each order, the arcs pointing against it are exactly the pairs
    whose vectors must have odd overlap, and the least width realizing
    those constraints (diagonal free) is Lempel's rank rule minimized
    over the diagonal; the minimum over orders is the inversion number.
    Orders are built vertex by vertex, and a prefix is cut when the rows
    its vertices have in every completion's flip matrix already need the
    best width found (see the module docstring).  Tournaments only: a
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
    if opts is None:
        opts = SearchOptions()
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
        # the prefix's rows bound every completion, and only grow along it
        k, d = free_diag_bound(block, seq, n, best_k)
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

