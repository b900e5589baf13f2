"""Shared generators for randomized tests (seeded, reproducible), and the
brute-force oracles the library is checked against."""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from invlab.digraph import (
    Digraph,
    InversionFamily,
    _check_enum_order,
    _columns,
    _pairs,
    _tournament,
    apply_family,
    invert,
    is_acyclic,
)
from invlab import solver
from invlab.errors import BudgetExceededError, ResourceLimitError
from invlab.f2 import free_diag_bound
from invlab.solver import _candidates


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


def use_reference_search(monkeypatch) -> None:
    """Make ``inv_exact`` run the search before forward checking.

    That is ``reference_search`` with the complement rule, whose node
    counts the older budget and stdout pins record.
    """
    monkeypatch.setattr(
        solver, "_search_assignment", functools.partial(reference_search, complement=True)
    )


def reference_order_search(D: Digraph, opts) -> tuple[int, int]:
    """Reference order walk: (least width, nodes) as the order backend had it.

    The walk before the row-block lookahead, kept whole so its trees stay
    pinned: each prefix is bounded by its square flip matrix alone, grown
    by one row per step, with a per-call memo of up to
    ``solver._MEMO_CAP`` bounds.  The width is ``opts.max_k + 1`` when no
    order fits.
    """
    n = D.n
    best_k = opts.max_k + 1  # prunes every order wider than max_k
    nodes = 0
    budget = opts.budget

    # prefix flip rows -> least free-diagonal width, up to _MEMO_CAP entries
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
                k = free_diag_bound(rows, range(m), m)[0]
                if len(memo) < solver._MEMO_CAP:
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
