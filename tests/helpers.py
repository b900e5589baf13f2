"""Shared generators for randomized tests (seeded, reproducible), and the
brute-force oracles the library is checked against."""

from __future__ import annotations

import functools
import itertools
import operator
import random
import time
from dataclasses import dataclass
from typing import Iterator, Sequence
from unittest import mock

from invlab.digraph import (
    Digraph,
    InversionFamily,
    _acyclic,
    _check_enum_order,
    _columns,
    _pairs,
    _symmetries,
    _tournament,
    apply_family,
    invert,
    is_acyclic,
    residual_cycle,
)
from invlab import cli, solver, sweep
from invlab.construct import blow_up
from invlab.errors import BudgetExceededError, ResourceLimitError, VerificationError
from invlab.f2 import _free_diag_bound


# A symmetric matrix is a tuple of row ints, bit j of row i = entry (i,j).


def random_symmetric(rng: random.Random, n: int) -> tuple[int, ...]:
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def diagonal(M: Sequence[int]) -> int:
    """M's diagonal entries as a bitmask (bit i = m_ii)."""
    return sum(r & 1 << i for i, r in enumerate(M))


def with_diagonal(M: Sequence[int], diag: int) -> tuple[int, ...]:
    """M with its diagonal replaced by the bits of ``diag``."""
    return tuple(r & ~(1 << i) | diag & 1 << i for i, r in enumerate(M))


def random_tournament(rng: random.Random, n: int) -> Digraph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return Digraph(n, tuple(rows))


def random_oriented(rng: random.Random, n: int) -> Digraph:
    """Each pair independently absent, forward, or backward."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.randrange(3)
            if roll == 1:
                rows[i] |= 1 << j
            elif roll == 2:
                rows[j] |= 1 << i
    return Digraph(n, tuple(rows))


def random_family(rng: random.Random, n: int, k: int) -> InversionFamily:
    return InversionFamily(n, tuple(rng.getrandbits(n) for _ in range(k)))


def all_symmetric(n: int):
    """Every symmetric matrix of order n (2^(n(n+1)/2) of them)."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for bits in range(1 << len(cells)):
        rows = [0] * n
        for idx, (i, j) in enumerate(cells):
            if bits >> idx & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield tuple(rows)


def all_oriented(n: int):
    """Every labelled oriented graph of order n (3^(n(n-1)/2) of them)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for states in itertools.product(range(3), repeat=len(pairs)):
        rows = [0] * n
        for (i, j), state in zip(pairs, states):
            if state == 1:
                rows[i] |= 1 << j
            elif state == 2:
                rows[j] |= 1 << i
        yield Digraph(n, tuple(rows))


# Reference forms and law checks no run needs: the solver flips arcs from
# vectors inline, the class walk marks orbits instead of keying graphs, and
# the rank law is checked against the paper, never used in a solve.  A
# vector is a plain int, bit i = coordinate i, as in the library.


def dot(u: int, v: int) -> int:
    """Scalar product over GF(2): parity of the AND of the two bitmasks."""
    return (u & v).bit_count() & 1


def family_vectors(F: InversionFamily) -> tuple[int, ...]:
    """Characteristic vectors of F: bit i of vertex v's says v lies in set i."""
    return tuple(
        sum((s >> v & 1) << i for i, s in enumerate(F.sets)) for v in range(F.n)
    )


def apply_assignment(D: Digraph, vecs: Sequence[int]) -> Digraph:
    """Reverse each arc whose endpoint vectors have odd overlap.

    Agrees with ``apply_family`` on the transposed family by construction;
    the equivalence is exercised on randomized inputs in the tests.
    """
    if len(vecs) != D.n:
        raise ValueError("assignment must cover every vertex")
    rows = [0] * D.n
    for u, v in D.arcs():
        if (vecs[u] & vecs[v]).bit_count() & 1:
            rows[v] |= 1 << u
        else:
            rows[u] |= 1 << v
    return Digraph(D.n, tuple(rows))


def flip_matrix(D: Digraph, order: Sequence[int]) -> tuple[int, ...]:
    """Which unordered pairs must flip for D to be sorted by ``order``.

    Entry (u,v) is 1 when the arc between u and v points against the
    order.  Pairs without an arc stay 0, and the diagonal is left zero;
    self-products are unconstrained by arcs.
    """
    if sorted(order) != list(range(D.n)):
        raise ValueError("order must be a permutation of the vertices")
    pos = [0] * D.n
    for i, v in enumerate(order):
        pos[v] = i
    rows = [0] * D.n
    for u, v in D.arcs():
        if pos[v] < pos[u]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


def rank_of_rows(rows: Sequence[int]) -> int:
    """Rank of a list of bitmask rows over GF(2)."""
    pivots: dict[int, int] = {}
    for row in rows:
        v = row
        while v:
            low = v & -v
            if low in pivots:
                v ^= pivots[low]
            else:
                pivots[low] = v
                break
    return len(pivots)


def family_rank(vecs: Sequence[int]) -> int:
    """Rank over GF(2) of the set of distinct vertex vectors."""
    return rank_of_rows(sorted(set(vecs)))


def enumerate_tournaments(n: int) -> Iterator[Digraph]:
    """All labelled tournaments on n vertices, each exactly once.

    Tournament number ``code`` sets pair (i, j), i < j, to i->j exactly
    when bit ``idx`` of ``code`` is set, ``idx`` counting the pairs in
    lexicographic order; codes are listed in ascending order.
    """
    _check_enum_order(n)
    pairs = _pairs(n)
    for code in range(1 << len(pairs)):
        yield _tournament(n, pairs, code)


def canonical_key(D: Digraph) -> tuple[int, int]:
    """Isomorphism-invariant key of an oriented graph: minimum relabelled encoding.

    The encoding gives each pair i < j two bits, one for i->j and one for
    j->i, so it tells all three pair states apart and determines the
    graph.  It is minimized over the relabellings that sort vertices by
    descending (out-degree, in-degree), a set every isomorphism carries
    onto the other graph's; equal keys therefore hold exactly for
    isomorphic oriented graphs, tournaments or not.
    """
    n = D.n
    rows = D.out_rows
    cols = _columns(rows, n)
    groups: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        groups.setdefault((rows[v].bit_count(), cols[v].bit_count()), []).append(v)
    ordered = [groups[d] for d in sorted(groups, reverse=True)]
    best = None
    for arrangement in itertools.product(
        *(itertools.permutations(g) for g in ordered)
    ):
        perm = [v for part in arrangement for v in part]
        key = 0
        bit = 1
        for i in range(n):
            ri = rows[perm[i]]
            for j in range(i + 1, n):
                pj = perm[j]
                if ri >> pj & 1:
                    key |= bit
                elif rows[pj] >> perm[i] & 1:
                    key |= bit << 1
                bit <<= 2
        if best is None or key < best:
            best = key
    return (n, best if best is not None else 0)


@dataclass(frozen=True)
class RankBoundReport:
    """Outcome of the rank law check for one decycling assignment."""

    ok: bool
    rank: int
    inversion_number: int
    required: int


def rank_lower_bound_check(D: Digraph, vecs: Sequence[int], inv: int) -> RankBoundReport:
    """Check the rank law for decycling vectors of D, given inv(D).

    The distinct characteristic vectors of any decycling family span at
    least inv(D) dimensions when inv(D) is even, and at least inv(D)-1
    when odd.  A violation is reported, not raised; it would be a finding.
    """
    if is_acyclic(apply_assignment(D, vecs)) is None:
        raise ValueError("assignment does not decycle the graph")
    required = inv if inv % 2 == 0 else inv - 1
    r = family_rank(vecs)
    return RankBoundReport(
        ok=r >= required, rank=r, inversion_number=inv, required=required
    )


def tournament_code(T: Digraph) -> int:
    """The ``enumerate_tournaments`` code of T: bit idx of pair (i, j) is i->j."""
    pairs = [(i, j) for i in range(T.n) for j in range(i + 1, T.n)]
    return sum(1 << idx for idx, (i, j) in enumerate(pairs) if T.has_arc(i, j))


def relabel(D: Digraph, perm) -> Digraph:
    """The copy of D in which vertex v is renamed perm[v]."""
    return Digraph.from_arcs(D.n, [(perm[u], perm[v]) for u, v in D.arcs()])


def nonisomorphic_by_key(n: int) -> list[Digraph]:
    """Reference class list: the first labelled tournament of each canonical key."""
    seen = set()
    reps = []
    for T in enumerate_tournaments(n):
        key = canonical_key(T)
        if key not in seen:
            seen.add(key)
            reps.append(T)
    return reps


def reference_class_walk(n: int) -> list[Digraph]:
    """Reference class list: the orbit walk before its tables were packed.

    The same walk as ``nonisomorphic_tournaments``, with the destination
    bits kept as one list per pair over the n! relabellings, built by a
    loop over relabellings and pairs, and each orbit XORed a list at a
    time.
    """
    _check_enum_order(n)
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


def canonical_by_relabelling(
    T: Digraph, vertices: Sequence[int]
) -> tuple[Digraph, tuple[int, ...]]:
    """Reference canonical form: every relabelling of T's subgraph on
    ``vertices`` tried in turn, with no packed table.

    Relabelling p, in ``itertools.permutations`` order, sends the
    subgraph's vertex i to p[i]; the least image code gives the
    representative R, and the first p that reaches it puts R's vertex p[i]
    at T's vertex ``vertices[i]``.
    """
    n = len(vertices)
    pairs = _pairs(n)
    rows = T.out_rows
    best = None
    for p in itertools.permutations(range(n)):
        back = [0] * n  # the inverse of p
        for i, image in enumerate(p):
            back[image] = i
        code = 0
        for idx, (a, b) in enumerate(pairs):
            if rows[vertices[back[a]]] >> vertices[back[b]] & 1:
                code |= 1 << idx
        if best is None or code < best[0]:
            best = (code, p)
    code, p = best
    at = [0] * n
    for i, v in enumerate(vertices):
        at[p[i]] = v
    return _tournament(n, pairs, code), tuple(at)


def candidates_by_product(blocks: list[tuple[int, ...]]):
    """Reference candidate generator of the assignment search.

    ``blocks`` are groups of interchangeable coordinates; each candidate
    sets a prefix of every block, and yields ``(w, blocks after w)``.
    """
    for counts in itertools.product(*(range(len(b) + 1) for b in blocks)):
        w = 0
        nb = []
        for b, c in zip(blocks, counts):
            for idx in b[:c]:
                w |= 1 << idx
            if 0 < c:
                nb.append(b[:c])
            if c < len(b):
                nb.append(b[c:])
        yield w, nb


def inv_subset_oracle(D: Digraph, max_k: int = 2, subset_budget: int = 1 << 21) -> int | None:
    """Ground-truth inversion number: try every subset sequence up to length max_k.

    Returns the inversion number when it is at most max_k, else None.
    Refuses instances whose sequence count exceeds ``subset_budget``.
    """
    per_level = 1 << D.n
    total = sum(per_level**k for k in range(max_k + 1))
    if total > subset_budget:
        raise ResourceLimitError(f"{total} subset sequences exceed the budget {subset_budget}")

    def decyclable(G: Digraph, depth: int) -> bool:
        if depth == 0:
            return is_acyclic(G) is not None
        return any(decyclable(invert(G, x), depth - 1) for x in range(per_level))

    return next((k for k in range(max_k + 1) if decyclable(D, k)), None)


def realize_oracle(M: Sequence[int], k: int, node_budget: int = 1 << 22) -> tuple[int, ...] | None:
    """Exhaustively search for vectors in GF(2)^k whose Gram matrix is M.

    Sound and complete: returns a witness list or None.  Refuses instances
    whose raw assignment space 2^(n*k) exceeds ``node_budget`` rather than
    ever returning a wrong answer.
    """
    n = len(M)
    if n * k > 0 and (1 << (n * k)) > node_budget:
        raise ResourceLimitError(
            f"2^({n}*{k}) assignments exceed the oracle budget {node_budget}"
        )
    vecs = [0] * n

    def fits(t: int, w: int) -> bool:
        if w.bit_count() & 1 != M[t] >> t & 1:
            return False
        for s in range(t):
            if (vecs[s] & w).bit_count() & 1 != (M[s] >> t & 1):
                return False
        return True

    def search(t: int) -> bool:
        if t == n:
            return True
        for w in range(1 << k):
            if fits(t, w):
                vecs[t] = w
                if search(t + 1):
                    return True
        return False

    if not search(0):
        return None
    return tuple(vecs)


def free_diag_by_loop(M, cols: Sequence[int] | None = None, width: int | None = None):
    """Reference free-diagonal minimum: a fresh rank for each of the 2^m diagonals.

    Without ``cols``, ``M`` is a symmetric matrix, whose own diagonal is
    ignored; with them, a row block: rows of ``width`` columns whose bit
    (i, cols[i]) is free.  Settings are tried as binary numbers x, bit i
    of x the bit of row i; returns ``(k, d_bits)`` with the first setting
    reaching the least width k, as a column mask (for a matrix, the
    smallest diagonal).  Lempel's +1 for a zero diagonal on a nonzero
    matrix applies only when the block is square.
    """
    if cols is None:
        cols, width = range(len(M)), len(M)
    m = len(M)
    base = [r & ~(1 << c) for r, c in zip(M, cols)]
    best_k, best_d = None, 0
    for x in range(1 << m):
        d = sum((x >> i & 1) << c for i, c in enumerate(cols))
        r = rank_of_rows([b | (d & 1 << c) for b, c in zip(base, cols)])
        kd = r + 1 if m == width and r and not d else r
        if best_k is None or kd < best_k:
            best_k, best_d = kd, d
    return best_k, best_d


def completion_rank_by_loop(rows: Sequence[int], cols: Sequence[int], width: int):
    """Reference completion bound: the least rank of every symmetric matrix
    holding a row block, over every diagonal and every completion.

    Row i is the matrix's row cols[i], with its bit cols[i] free, so the
    rows' square on ``cols`` must be symmetric off its diagonal.  The
    other rows hold the transpose on ``cols``, and each of their entries
    elsewhere is free, one bit per unordered pair.  Settings of the rows'
    free bits are tried as binary numbers as in ``free_diag_by_loop``,
    each at the least rank over all its completions, with Lempel's +1 for
    a zero diagonal when the block is square and nothing is left free;
    returns ``(k, d)`` with the first setting reaching the least width.
    """
    m = len(rows)
    rest = [v for v in range(width) if v not in cols]
    cells = [(a, b) for i, a in enumerate(rest) for b in rest[i:]]
    fixed = [0] * width
    for r, c in zip(rows, cols):
        fixed[c] = r & ~(1 << c)
        for v in rest:
            fixed[v] |= (r >> v & 1) << c
    for r, c in zip(rows, cols):
        assert all((r >> u ^ fixed[u] >> c) & 1 == 0 for u in cols if u != c)
    best_k, best_d = None, 0
    for x in range(1 << m):
        d = sum((x >> i & 1) << c for i, c in enumerate(cols))
        ranks = []
        for bits in range(1 << len(cells)):
            M = [f | d & 1 << v for v, f in enumerate(fixed)]
            for t, (a, b) in enumerate(cells):
                if bits >> t & 1:
                    M[a] |= 1 << b
                    M[b] |= 1 << a
            ranks.append(rank_of_rows(M))
        r = min(ranks)
        kd = r + 1 if m == width and r and not d else r
        if best_k is None or kd < best_k:
            best_k, best_d = kd, d
    return best_k, best_d


def reference_free_diag_bound(rows, cols, width, cap=None):
    """``_free_diag_bound`` before the completion bound, whose trees the
    older order pins recorded: the least rank of the rows themselves over
    their free bits, ``free_diag_by_loop``'s value and setting, by the same
    branch and bound on low-bit pivots, for valid arguments only."""
    m = len(rows)
    base = [r & ~(1 << c) for r, c in zip(rows, cols)]
    free = [1 << c for c in cols]
    pivots: dict[int, int] = {}
    best = [width + 2 if cap is None else cap, 0]

    def place(i: int, d: int, r: int) -> None:
        if i < 0:
            best[:] = (r + 1 if m == width and r and not d else r), d
            return
        for bit in (0, free[i]):
            v = base[i] | bit
            while v:
                low = v & -v
                p = pivots.get(low)
                if p is None:
                    if r + 1 < best[0]:
                        pivots[low] = v
                        place(i - 1, d | bit, r + 1)
                        del pivots[low]
                    break
                v ^= p
            else:
                if r < best[0]:
                    place(i - 1, d | bit, r)

    place(m - 1, 0, 0)
    return tuple(best)


def use_reference_bound(monkeypatch, *modules) -> None:
    """Bound the order backend's prefixes, and ``_free_diag_bound`` where
    each of ``modules`` imported it, by ``reference_free_diag_bound``."""
    for module in (solver,) + modules:
        monkeypatch.setattr(module, "_free_diag_bound", reference_free_diag_bound)


# The assignment search's candidate lists before they became masks: the
# block-prefix rule as lists, checked against the masks and used by
# reference_search.
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


def reference_search(
    D: Digraph, k: int, opts, spent: int = 0, complement: bool = False, *,
    even_weight_only: bool = False,
):
    """Reference assignment search: (family, nodes) as ``_search_assignment``.

    The search before forward checking, kept whole so its trees stay
    pinned: a fixed vertex order (``_vertex_order``), each candidate
    tested by a walk of the flipped prefix's reach sets, and the block
    rule on family positions.  With ``complement``, at even k the first
    odd-weight vector skips weights above k/2 (skipped vectors are not
    nodes), as the search did before forward checking; without it, as
    before that rule.  Its memo is per call and uncapped.
    """
    n = D.n
    if n == 0:
        return InversionFamily(0, (0,) * k), 0
    cols_in = D.in_rows()
    order = sorted(
        range(n),
        key=lambda v: (-abs(D.out_rows[v].bit_count() - cols_in[v].bit_count()), v),
    )
    # arcs between position t and earlier positions s
    fwd = [0] * n  # bit s: arc order[s] -> order[t]
    bwd = [0] * n  # bit s: arc order[t] -> order[s]
    for t in range(n):
        vt = order[t]
        for s in range(t):
            vs = order[s]
            if D.out_rows[vs] >> vt & 1:
                fwd[t] |= 1 << s
            elif D.out_rows[vt] >> vs & 1:
                bwd[t] |= 1 << s

    budget = opts.budget
    limit = None if budget is None else budget - spent
    even_only = even_weight_only
    memo: dict[tuple[int, ...], list] = {}
    vec = [0] * n
    cols = [0] * k  # cols[c] bit s: vec[s] sets coordinate c
    reach = [0] * n  # transitive closure of the flipped prefix graph
    nodes = 0

    half = k // 2

    def dfs(t: int, shape: tuple[int, ...], first: bool) -> bool:
        # first: no odd-weight vector placed yet, under the complement rule
        nonlocal nodes
        cands = memo.get(shape)
        if cands is None:
            cands = memo[shape] = _candidates(shape, even_only)
        bit = 1 << t
        ft = fwd[t]
        bt = bwd[t]
        for w, coords, nxt in cands:
            odd = len(coords) & 1
            if first and odd and len(coords) > half:
                continue
            nodes += 1
            if limit is not None and nodes > limit:
                raise BudgetExceededError(f"assignment search exceeded {budget} nodes")
            flip = 0
            for c in coords:
                flip ^= cols[c]
            swap = (ft | bt) & flip
            out_t = bt ^ swap
            in_t = ft ^ swap
            acc = out_t
            tmp = out_t
            while tmp:
                low = tmp & -tmp
                r = reach[low.bit_length() - 1]
                if r & in_t:
                    break
                acc |= r
                tmp ^= low
            if tmp:
                continue
            vec[t] = w
            if t + 1 == n:
                return True
            saved = reach[:t]
            reach[t] = acc
            add = bit | acc
            for s in range(t):
                if (in_t >> s & 1) or (reach[s] & in_t):
                    reach[s] |= add
            for c in coords:
                cols[c] |= bit
            if dfs(t + 1, nxt, first and not odd):
                return True
            for c in coords:
                cols[c] ^= bit
            reach[:t] = saved
        return False

    if not dfs(0, (k,) if k else (), complement and k % 2 == 0 and not even_only):
        return None, nodes
    sets = [0] * k
    for t, v in enumerate(order):
        for c in range(k):
            sets[c] |= (vec[t] >> c & 1) << v
    return InversionFamily(n, tuple(sets)), nodes


def reference_forward_search(
    D: Digraph, k: int, opts, spent: int = 0, *, even_weight_only: bool = False,
    triangles: bool = False, group: list | None = None,
):
    """Reference forward-checked search: (family, nodes) as ``_search_assignment``.

    The search before every tie on the fewest vectors went to cyclic
    triangles, kept whole so its trees stay pinned: the same masks,
    symmetry rules, candidate walk and budget checks, with a tie on the
    fewest vectors going to ``_vertex_order`` alone.  Its candidate
    masks are ``solver._block_prefixes``, so a spy on that sees them.

    With ``triangles`` it is the search before a failed root vector was
    banned from the root's images (``reference_triangle_search``): a tie
    on the fewest vectors goes first to the vertex on the most cyclic
    triangles with another vertex unplaced, and only then to
    ``_vertex_order``, with the two vector-side symmetry rules alone.
    It finds no symmetry, so it ignores ``group``.
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
    order = solver._vertex_order(D, ins)
    tri = solver._cyclic_triangles(outs, ins) if triangles else None
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

    def dfs(
        v: int,
        tops: int,
        first: bool,
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
        cand = memo.get(tops)
        if cand is None:
            cand = memo[tops] = solver._block_prefixes(tops) & start
        if first:
            cand &= light
        mv = masks >> v * size & full
        bit = 1 << v
        av = adj[v] & placed
        ov = outs[v] & placed
        iv = ins[v] & placed
        nv = near[v]
        tv = tails[v]
        todo = cand & mv | 1 << size  # the candidates inside mv, then an end bit
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
                    ties = [r]
                elif size_r == least:
                    ties.append(r)
            nxt_v = ties[0]
            if tri is not None and len(ties) > 1:
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
            prefix.append(v)
            if dfs(
                nxt_v,
                tops | ~w & w >> 1,
                first and not w.bit_count() & 1,
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

    root = order[0]
    live = high ^ 1 << root * size + size - 1
    if not dfs(root, 1 << k >> 1, first, start * rep, [0] * n, 0, order[1:], live):
        return None, nodes
    return InversionFamily(n, cols[::-1]), nodes  # coordinate c is set k-1-c


reference_triangle_search = functools.partial(reference_forward_search, triangles=True)


def use_triangle_reference(monkeypatch) -> None:
    """Make every assignment search run ``reference_triangle_search``, the
    search before root bans, whose trees the older pins record: each
    level ``inv_exact`` searches, ``exists_family`` and a direct search."""
    monkeypatch.setattr(solver, "_search_assignment", reference_triangle_search)


def root_bans_only(outs, ins, v, *args, **kwargs):
    """The symmetry finder with no stabilizer map: v's orbit alone, so
    the assignment search bans a failed vector at the root's images and
    nowhere below the root, as before deeper bans."""
    return _symmetries(outs, ins, v, *args, **kwargs)[0], []


def root_ban_search(D: Digraph, k: int, opts, spent: int = 0, **kwargs):
    """``solver._search_assignment`` with ``root_bans_only`` as its finder:
    (family, nodes) of the search that bans at the root alone."""
    with mock.patch.object(solver, "_symmetries", root_bans_only):
        return solver._search_assignment(D, k, opts, spent, **kwargs)


def use_root_ban_reference(monkeypatch) -> None:
    """Make every assignment search ban at the root alone
    (``root_bans_only``), the search whose trees the root-ban pins
    record: each level ``inv_exact`` searches, ``exists_family`` and a
    direct search."""
    monkeypatch.setattr(solver, "_symmetries", root_bans_only)


def use_reference_search(monkeypatch) -> None:
    """Make every search run the search before forward checking.

    That is ``reference_search`` with the complement rule, for
    ``exists_family`` and for ``inv_exact`` at every level from k=0 (as
    ``reference_inv_exact``), whose node counts the older budget and
    stdout pins record.
    """
    search = functools.partial(reference_search, complement=True)
    monkeypatch.setattr(solver, "_search_assignment", search)
    monkeypatch.setattr(solver, "inv_exact", functools.partial(reference_inv_exact, search=search))


def reference_inv_exact(D: Digraph, opts=None, *, search=None):
    """``inv_exact`` before level 0 became one acyclicity peel: the level
    loop kept whole, so its trees stay pinned.  Every level it searches,
    k=0 included, is a ``search`` call, by default
    ``reference_forward_search``, so level 0's nodes count toward the
    total and the budget."""
    if opts is None:
        opts = solver.SearchOptions()
    search = search or reference_forward_search
    start = time.perf_counter()
    low, high = solver._bounds(D, opts)
    total = 0
    found, source = None, "search"
    for k in range(low, high + 1):
        found, nodes = search(D, k, opts, total)
        total += nodes
        if found is not None:
            break
    else:
        if opts.upper is not None and opts.upper.k <= opts.max_k:
            found, source = opts.upper, "composed"
    return solver._result(D, found, "assign", total, start, opts.max_k, opts.lower, source)


def use_reference_levels(monkeypatch) -> None:
    """Make every solve search level 0 as ``reference_inv_exact`` does,
    whose totals the older budget boundaries and stdout pins record."""
    monkeypatch.setattr(solver, "inv_exact", reference_inv_exact)


def reference_plain_order_inv_exact(D: Digraph, opts=None, *, certified_ties: bool = False):
    """``inv_exact`` before it broke mask-size ties by cyclic triangles: the
    level loop kept whole, level 0 by one peel, so its trees stay pinned.
    Every level, certified or not, is a ``reference_forward_search`` call
    in the ``_vertex_order`` tie-break.  With ``certified_ties`` a
    certified solve, one with an upper family, searches its levels in the
    triangle tie-break (``solver._search_assignment``), as ``inv_exact``
    did before plain solves took it too."""
    if opts is None:
        opts = solver.SearchOptions()
    start = time.perf_counter()
    low, high = solver._bounds(D, opts)
    if certified_ties and opts.upper is not None:
        search = solver._search_assignment
    else:
        search = reference_forward_search
    total = 0
    found, source = None, "search"
    for k in range(low, high + 1):
        if k:
            found, nodes = search(D, k, opts, total)
            total += nodes
        elif _acyclic(D.out_rows):
            found = InversionFamily(D.n, ())
        if found is not None:
            break
    else:
        if opts.upper is not None and opts.upper.k <= opts.max_k:
            found, source = opts.upper, "composed"
    return solver._result(D, found, "assign", total, start, opts.max_k, opts.lower, source)


def use_plain_order(monkeypatch, certified_ties: bool = False) -> None:
    """Make every solve search its levels in the plain vertex order, or
    with ``certified_ties`` only the solves with no upper family, as
    ``reference_plain_order_inv_exact`` does, whose totals the older
    sweep and join pins record."""
    monkeypatch.setattr(
        solver,
        "inv_exact",
        functools.partial(reference_plain_order_inv_exact, certified_ties=certified_ties),
    )


def use_unbounded_joins(monkeypatch) -> None:
    """Make a sweep solve each blow-up it asks, every join and ``thm15``'s,
    from k=0 with no certificates, as before the join bounds; the older
    budget and max-k stdout pins record that route.  The parts are still
    answered first, but no checker that did not ask for them sees their
    answers."""
    monkeypatch.setattr(sweep.Sweep, "_blowup_options", lambda self, ask: self.opts)


def _without_cores(monkeypatch) -> None:
    # no class walked for a core, so no blow-up by cores asked
    monkeypatch.setattr(sweep.Sweep, "_below", lambda self, parts: [])
    monkeypatch.setattr(sweep.Sweep, "_core_ask", lambda self, ask: None)


def use_largest_part_only(monkeypatch) -> None:
    """Make a sweep answer each phase of a round in one map, with a
    blow-up's largest part as its only lower bound and no bound for a
    plain solve, as before one-vertex deletions and cores gave bounds; the
    older sweep node pins record that route."""

    def options(self, ask):
        return self._blowup_options(ask) if isinstance(ask, sweep.BlowUp) else self.opts

    _without_cores(monkeypatch)
    monkeypatch.setattr(sweep.Sweep, "_options", options)
    monkeypatch.setattr(sweep, "_by_order", lambda todo: [todo] if todo else [])


def one_vertex_deletion_lower(ask, blown: dict, run) -> solver.Sub | None:
    """The sweep's lower bound from one-vertex deletions before cores:
    the best the table of the sweep ``run`` holds, the first of largest
    value, or None.  A tournament's deletion is read by its class
    representative (``Sweep._by_class``), and any other plain graph has
    none.  A blow-up's deletion, of a vertex of one part, is the blow-up
    of the same host with that part replaced by the representative of the
    part's deletion: it is read in ``blown``, order -> (host, *parts) ->
    (graph key, graph) of the blow-ups asked, so no graph is built to
    probe."""
    best = None

    def offer(vertices: tuple, part: Digraph, key) -> None:
        nonlocal best
        found = run.results.get(key)
        if found is not None and (best is None or found.value > best.result.value):
            best = solver.Sub(vertices, part, found)

    if not isinstance(ask, sweep.BlowUp):
        for rep, at in run._by_class(ask):
            offer(at, rep, sweep._key(rep))
        return best
    smaller = blown.get(ask.graph.n - 1)
    if smaller is None:
        return best
    parts = ask.parts
    offsets = list(itertools.accumulate((p.n for p in parts), initial=0))
    for j, part in enumerate(parts):
        start, end = offsets[j], offsets[j + 1]
        for rep, at in run._by_class(part):
            known = smaller.get((ask.host, *parts[:j], rep, *parts[j + 1:]))
            if known is not None:
                key, graph = known
                # the smaller blow-up's part j is rep, at the deletion's vertices
                vertices = (*range(start), *(start + a for a in at), *range(end, offsets[-1]))
                offer(vertices, graph, key)
    return best


def one_vertex_options(ask, blown: dict, run):
    """``Sweep._options`` before cores: a blow-up's certificates from
    ``Sweep._blowup_options``, then ``one_vertex_deletion_lower``'s bound
    when its value is larger; a ``(graph, k)`` ask takes none."""
    opts = run.opts
    if isinstance(ask, tuple):
        return opts
    if isinstance(ask, sweep.BlowUp):
        opts = run._blowup_options(ask)
    lower = one_vertex_deletion_lower(ask, blown, run)
    if lower is None or opts.lower is not None and lower.result.value <= opts.lower.result.value:
        return opts
    return solver.SearchOptions(opts.max_k, opts.budget, lower, opts.upper)


def use_one_vertex_blowups(monkeypatch) -> None:
    """Make a sweep bound each solve by its one-vertex deletions, as
    before cores (``one_vertex_options``): no class is walked for a core,
    no blow-up by cores is asked, and each blow-up solved is kept in the
    run's ``blown`` for the blow-ups one vertex larger.  The older sweep
    pins of conj-direction record that route."""

    class Sweep(sweep.Sweep):
        __slots__ = ("blown",)

        def __init__(self, opts, jobs=1):
            super().__init__(opts, jobs)
            self.blown: dict[int, dict[tuple, tuple]] = {}

        def _options(self, ask):
            if isinstance(ask, sweep.BlowUp):
                entry = (sweep._key(ask), ask.graph)
                self.blown.setdefault(ask.graph.n, {})[(ask.host, *ask.parts)] = entry
            return one_vertex_options(ask, self.blown, self)

    _without_cores(monkeypatch)
    monkeypatch.setattr(cli, "Sweep", Sweep)


def use_no_deletion_upper(monkeypatch) -> None:
    """Make a sweep give no plain solve an upper family from its
    deletions' witnesses (``Sweep._deletion_upper``), as before that rule,
    so each searches its witness level; the older sweep node and
    certificate pins record that route."""
    monkeypatch.setattr(sweep.Sweep, "_deletion_upper", lambda self, *args: None)


def deletion_upper_by_vectors(G: Digraph, candidates, value: int, results: dict):
    """Reference for ``Sweep._deletion_upper``: for each candidate ``(R,
    at)`` of ``value`` naming n - 1 vertices, in order, R's witness mapped
    through ``at`` and each vector x of the vertex ``at`` leaves out tried
    from 0 up, bit i putting it in set i, by one ``solver._decycles`` call
    each; the first family that decycles G, or None."""
    n = G.n
    for part, at in candidates:
        found = results.get(sweep._key(part))
        if found is None or found.value != value or len(at) != n - 1:
            continue
        (v,) = set(range(n)) - set(at)
        sets = [sum(1 << at[i] for i in range(part.n) if s >> i & 1)
                for s in found.witness.sets]
        for x in range(1 << value):
            family = [s | (x >> i & 1) << v for i, s in enumerate(sets)]
            if solver._decycles(G, family):
                return InversionFamily(n, family)
    return None


def compose_family(
    H: Digraph,
    F_H: InversionFamily,
    parts: list[Digraph],
    part_families: list[InversionFamily],
) -> InversionFamily:
    """A decycling family of the blow-up of H by ``parts``, of width
    ``F_H.k`` plus the widths of ``part_families``: the reference for the
    upper family a sweep gives each blow-up it asks, with the host's
    witness as ``F_H``, or no host sets for an acyclic host such as a
    join's transitive tournament.

    Each set of ``F_H`` is blown up to the union of its vertices' parts,
    and each part's family follows in place, part by part.  A blown-up set
    reverses the arcs between two parts as ``F_H`` reverses H's arc, and
    within a part every arc or none, so when ``F_H`` decycles H and each
    part family its part, every part ends acyclic or reversed acyclic and
    the parts are ordered by H made acyclic: the family decycles the
    blow-up whatever H's shape.  The result is verified, not assumed: a
    family that does not decycle its graph leaves a cycle, and raises
    VerificationError with it.
    """
    if len(parts) != H.n or len(part_families) != H.n:
        raise ValueError(f"blow-up needs exactly {H.n} parts and part families")
    if F_H.n != H.n:
        raise ValueError(f"host family is on {F_H.n} vertices, not {H.n}")
    offsets = list(itertools.accumulate((p.n for p in parts), initial=0))
    masks = [((1 << p.n) - 1) << off for p, off in zip(parts, offsets)]
    sets = [sum(m for j, m in enumerate(masks) if s >> j & 1) for s in F_H.sets]
    for j, (p, F, off) in enumerate(zip(parts, part_families, offsets)):
        if F.n != p.n:
            raise ValueError(f"family of part {j} is on {F.n} vertices, not {p.n}")
        sets.extend(s << off for s in F.sets)
    blown = blow_up(H, parts)
    out = InversionFamily(blown.n, sets)
    cycle = residual_cycle(apply_family(blown, out))
    if cycle is not None:
        raise VerificationError(f"blow-up family left a cycle {cycle}", cycle)
    return out


# bounds one reference_order_search call may keep in its memo; what would
# pass this is recomputed each time it is needed
ORDER_MEMO_CAP = 1 << 16


def reference_order_search(D: Digraph, opts) -> tuple[int, int]:
    """Reference order walk: (least width, nodes) as the order backend had it.

    The walk before the row-block lookahead, kept whole so its trees stay
    pinned: each prefix is bounded by its square flip matrix alone, grown
    by one row per step, with a per-call memo of up to
    ``ORDER_MEMO_CAP`` bounds.  The width is ``opts.max_k + 1`` when no
    order fits.
    """
    n = D.n
    best_k = opts.max_k + 1  # prunes every order wider than max_k
    nodes = 0
    budget = opts.budget

    # prefix flip rows -> least free-diagonal width, up to ORDER_MEMO_CAP entries
    memo: dict[tuple[int, ...], int] = {}

    def walk(seq: tuple[int, ...], rows: tuple[int, ...], used: int) -> None:
        # rows[i] bit j: the arc between seq[i] and seq[j] points against seq
        nonlocal nodes, best_k
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"order search exceeded {budget} nodes")
        m = len(seq)
        if m >= 2:
            k = memo.get(rows)
            if k is None:
                k = _free_diag_bound(rows, range(m), m, m + 2)[0]
                if len(memo) < ORDER_MEMO_CAP:
                    memo[rows] = k
            # the prefix bound never decreases along a completion
            if k >= best_k:
                return
            if m == n:
                best_k = k
                return
        elif m == n:  # a single vertex needs no inversion
            best_k = 0
            return
        bit = 1 << m
        for v in range(n):
            if not used >> v & 1:
                out_v = D.out_rows[v]
                grown = list(rows)
                row = 0
                for i, u in enumerate(seq):
                    if out_v >> u & 1:  # v comes after u but points to it
                        grown[i] |= bit
                        row |= 1 << i
                grown.append(row)
                walk(seq + (v,), tuple(grown), used | (1 << v))

    if n:
        walk((), (), 0)
    else:
        best_k = 0
    return best_k, nodes
