"""Exact inversion-number solvers with certified witnesses.

Three independent backends:

* ``assign``: iterative deepening over the family size k, searching
  characteristic-vector assignments vertex by vertex.  A partial
  assignment is pruned as soon as the flipped subgraph on the assigned
  vertices contains a cycle.  The only symmetry broken is permutation of
  family positions (coordinate permutation of all vectors at once), which
  maps decycling families to decycling families and is therefore sound:
  coordinates whose columns agree so far form blocks of consecutive
  coordinates, and a vertex may only set a prefix of each block.  The
  list of block lengths (the shape) thus fixes a vertex's candidate
  list, which each search call builds once per shape and keeps in a
  dict local to the call, up to ``_MEMO_CAP`` entries in all; a shape
  past the cap is rebuilt at each node that needs it.  Per coordinate
  c the search keeps a column mask of the earlier positions whose
  vector sets c, so the pattern of arcs a candidate reverses is the XOR
  of the masks of its set coordinates.

* ``order``: minimizes, over linear orders of the vertices, the least
  dimension realizing the order's flip constraints with a free diagonal.
  Branch and bound over order prefixes; exact for tournaments, where
  every pair is constrained.  Only the value is its own: the witness
  comes from the assignment search at that value.

* ``subset``: raw enumeration of subset sequences, the ground-truth
  oracle at tiny sizes.

Every returned witness is checked to decycle its graph before it leaves
this module.  Budgets are counted in search nodes, not wall time, so runs
are reproducible; ``inv_exact`` counts all its k levels against one
budget.  Searches are single-threaded, so results (and witnesses) are
identical run to run.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from itertools import product

from .construct import c3, dijoin
from .digraph import (
    Digraph,
    InversionFamily,
    VectorAssignment,
    apply_family,
    assignment_to_family,
    dump_family,
    family_rank,
    invert,
    is_acyclic,
)
from .errors import BudgetExceededError, CriterionViolationError, ResourceLimitError
from .f2 import BitVec, SymMatrix, min_gram_dim_free_diag

MAX_K = 12

BACKENDS = ("assign", "order", "subset")

# subset backend: total number of subset sequences it may enumerate
DEFAULT_SUBSET_BUDGET = 1 << 21

ORDER_BACKEND_MAX_N = 10


@dataclass(frozen=True)
class SearchOptions:
    backend: str = "assign"
    max_k: int = MAX_K
    budget: int | None = None
    even_weight_only: bool = False

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if not 0 <= self.max_k <= MAX_K:
            raise ValueError(f"max_k must be in 0..{MAX_K}")
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class InvResult:
    """Certified inversion number with witness and search statistics.

    ``value`` is None when the search was capped at ``max_k_exhausted``
    without finding a family (a bounded-unknown outcome, explicitly
    marked); otherwise every k <= value-1 was exhausted and the witness
    decycles the graph.
    """

    value: int | None
    witness: InversionFamily | None
    backend: str
    nodes_explored: int
    elapsed: float
    max_k_exhausted: int

    @property
    def resolved(self) -> bool:
        return self.value is not None

    def report(self, deterministic: bool = False) -> str:
        if self.resolved:
            head = (
                f"inv={self.value} k_proof={self.value - 1}_exhausted"
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


def _vertex_order(D: Digraph) -> list[int]:
    # Descending degree imbalance first: imbalanced vertices force flips
    # early, so cycles among assigned vertices appear sooner.
    cols = D.in_rows()
    return sorted(
        range(D.n),
        key=lambda v: (-abs(D.out_rows[v].bit_count() - cols[v].bit_count()), v),
    )


# entries of candidate lists one search call may keep; a shape whose list
# would pass this is rebuilt at each node that needs it instead of stored
_MEMO_CAP = 1 << 16


def _candidates(
    shape: tuple[int, ...], even_only: bool
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Canonical vectors for a vertex whose blocks have lengths ``shape``.

    Entries are ``(w, coordinates set in w, shape after w)``, the last
    block's prefix length varying fastest; ``even_only`` drops odd weights.
    """
    out = []
    for counts in product(*(range(m + 1) for m in shape)):
        coords: list[int] = []
        nxt = []
        start = 0
        for m, c in zip(shape, counts):
            coords.extend(range(start, start + c))
            if 0 < c:
                nxt.append(c)
            if c < m:
                nxt.append(m - c)
            start += m
        if even_only and len(coords) & 1:
            continue
        out.append((sum(1 << c for c in coords), tuple(coords), tuple(nxt)))
    return out


def _search_assignment(
    D: Digraph, k: int, opts: SearchOptions, spent: int = 0
) -> tuple[VectorAssignment | None, int]:
    """Complete DFS for a decycling assignment of width k; (witness, nodes).

    ``spent`` nodes of ``opts.budget`` are already used by the caller.
    """
    n = D.n
    if n == 0:
        return VectorAssignment(k, ()), 0
    order = _vertex_order(D)
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
    even_only = opts.even_weight_only
    memo: dict[tuple[int, ...], list] = {}
    stored = 0
    vec = [0] * n
    cols = [0] * k  # cols[c] bit s: vec[s] sets coordinate c
    reach = [0] * n  # transitive closure of the flipped prefix graph
    nodes = 0

    def dfs(t: int, shape: tuple[int, ...]) -> bool:
        nonlocal nodes, stored
        cands = memo.get(shape)
        if cands is None:
            cands = _candidates(shape, even_only)
            if stored + len(cands) <= _MEMO_CAP:
                memo[shape] = cands
                stored += len(cands)
        bit = 1 << t
        ft = fwd[t]
        bt = bwd[t]
        for w, coords, nxt in cands:
            nodes += 1
            if limit is not None and nodes > limit:
                raise BudgetExceededError(
                    f"assignment search exceeded {budget} nodes"
                )
            # bit s of flip: parity of vec[s] & w
            flip = 0
            for c in coords:
                flip ^= cols[c]
            swap = (ft | bt) & flip  # arcs the prefix vectors reverse
            out_t = bt ^ swap
            in_t = ft ^ swap
            # out_t and in_t are disjoint, so a cycle through t is a path
            # from a head in out_t back to a tail in in_t; stop at the first
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
                continue  # a cycle through this vertex already exists
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
            if dfs(t + 1, nxt):
                return True
            for c in coords:
                cols[c] ^= bit
            reach[:t] = saved
        return False

    if not dfs(0, (k,) if k else ()):
        return None, nodes
    vecs = [BitVec(k, 0)] * n
    for t, v in enumerate(order):
        vecs[v] = BitVec(k, vec[t])
    return VectorAssignment(k, tuple(vecs)), nodes


def exists_family(
    D: Digraph, k: int, opts: SearchOptions | None = None
) -> VectorAssignment | None:
    """Some width-k decycling assignment of D, or None if there is none.

    With ``even_weight_only`` the per-vertex domain is restricted to
    even-weight vectors.  Raises BudgetExceededError when the node budget
    runs out, which is distinct from a certified None.
    """
    if opts is None:
        opts = SearchOptions()
    if not 0 <= k <= MAX_K:
        raise ValueError(f"family size must be in 0..{MAX_K}")
    found, _ = _search_assignment(D, k, opts)
    return found


def _certify(D: Digraph, family: InversionFamily) -> None:
    if is_acyclic(apply_family(D, family)) is None:
        raise RuntimeError("internal witness failed its decycling check; this is a bug")


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
            family = assignment_to_family(found)
            _certify(D, family)
            return InvResult(
                value=k,
                witness=family,
                backend="assign",
                nodes_explored=total,
                elapsed=time.perf_counter() - start,
                max_k_exhausted=k - 1,
            )
    return InvResult(
        value=None,
        witness=None,
        backend="assign",
        nodes_explored=total,
        elapsed=time.perf_counter() - start,
        max_k_exhausted=opts.max_k,
    )


# prefix flip pattern -> least free-diagonal width; bounded, shared by calls
@functools.lru_cache(maxsize=1 << 16)
def _order_bound(rows: tuple[int, ...]) -> int:
    return min_gram_dim_free_diag(SymMatrix(len(rows), rows))[0]


def _prefix_rows(D: Digraph, seq: list[int]) -> tuple[int, ...]:
    m = len(seq)
    rows = [0] * m
    for i in range(m):
        ri = D.out_rows[seq[i]]
        for j in range(i + 1, m):
            if ri >> seq[j] & 1:
                continue  # agrees with the prefix order
            if D.out_rows[seq[j]] >> seq[i] & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def inv_order_backend(D: Digraph, opts: SearchOptions | None = None) -> InvResult:
    """Inversion number as a minimum over linear orders of the vertices.

    For each order, the arcs pointing against it are exactly the pairs
    whose vectors must have odd overlap, and the least width realizing
    those constraints (diagonal free) is computed in closed form; the
    minimum over orders is the inversion number.  Tournaments only: a
    missing pair would wrongly be constrained to "no flip".  The value is
    independent of the assignment backend, for cross-validation; the
    witness comes from the assignment search at that value (its own node
    budget, not counted in ``nodes_explored``), and finding none there
    raises CriterionViolationError.
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
        return InvResult(0, InversionFamily(0, ()), "order", 0, 0.0, -1)

    best_k: int | None = None
    nodes = 0
    budget = opts.budget

    def walk(seq: list[int], used: int) -> None:
        nonlocal nodes, best_k
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"order search exceeded {budget} nodes")
        m = len(seq)
        if m >= 2:
            k = _order_bound(_prefix_rows(D, seq))
            # the prefix bound never decreases along a completion
            if best_k is not None and k >= best_k:
                return
            if m == n:
                best_k = k
                return
        elif m == n:  # a single vertex needs no inversion
            best_k = 0
            return
        for v in range(n):
            if not used >> v & 1:
                seq.append(v)
                walk(seq, used | (1 << v))
                seq.pop()

    walk([], 0)
    k = best_k
    assert k is not None
    found, _ = _search_assignment(D, k, replace(opts, even_weight_only=False))
    if found is None:
        raise CriterionViolationError(
            f"order search gives {k} but no width-{k} assignment decycles the graph"
        )
    family = assignment_to_family(found)
    _certify(D, family)
    return InvResult(
        value=k,
        witness=family,
        backend="order",
        nodes_explored=nodes,
        elapsed=time.perf_counter() - start,
        max_k_exhausted=k - 1,
    )


def _subset_search(
    D: Digraph, max_k: int, subset_budget: int
) -> tuple[int | None, InversionFamily | None, int]:
    n = D.n
    per_level = 1 << n
    total = sum(per_level**k for k in range(max_k + 1))
    if total > subset_budget:
        raise ResourceLimitError(
            f"{total} subset sequences exceed the budget {subset_budget}"
        )
    tried = 0

    def level(G: Digraph, chosen: list[int], depth: int) -> list[int] | None:
        nonlocal tried
        if depth == 0:
            tried += 1
            return list(chosen) if is_acyclic(G) is not None else None
        for x in range(per_level):
            chosen.append(x)
            hit = level(invert(G, x), chosen, depth - 1)
            if hit is not None:
                return hit
            chosen.pop()
        return None

    for k in range(max_k + 1):
        hit = level(D, [], k)
        if hit is not None:
            return k, InversionFamily(n, tuple(hit)), tried
    return None, None, tried


def inv_subset_oracle(
    D: Digraph, max_k: int = 2, subset_budget: int = DEFAULT_SUBSET_BUDGET
) -> int | None:
    """Ground-truth oracle: enumerate all subset sequences up to length max_k.

    Returns the inversion number when it is at most max_k, else None.
    Refuses instances whose sequence count exceeds ``subset_budget``.
    """
    value, _, _ = _subset_search(D, max_k, subset_budget)
    return value


def inv_subset_backend(D: Digraph, opts: SearchOptions | None = None) -> InvResult:
    """InvResult wrapper around the subset oracle (witness included).

    The depth is clipped to the deepest level whose sequence count fits
    the budget, so the result may be a bounded unknown.
    """
    if opts is None:
        opts = SearchOptions()
    budget = opts.budget if opts.budget is not None else DEFAULT_SUBSET_BUDGET
    per_level = 1 << D.n
    max_k = -1
    total = 0
    while max_k < opts.max_k and total + per_level ** (max_k + 1) <= budget:
        max_k += 1
        total += per_level**max_k
    if max_k < 0:
        raise ResourceLimitError("subset budget does not even cover the empty family")
    start = time.perf_counter()
    value, family, tried = _subset_search(D, max_k, budget)
    elapsed = time.perf_counter() - start
    if value is None:
        return InvResult(None, None, "subset", tried, elapsed, max_k)
    _certify(D, family)
    return InvResult(value, family, "subset", tried, elapsed, value - 1)


def solve(D: Digraph, opts: SearchOptions | None = None) -> InvResult:
    """Dispatch on ``opts.backend``."""
    if opts is None:
        opts = SearchOptions()
    if opts.backend == "assign":
        return inv_exact(D, opts)
    if opts.backend == "order":
        return inv_order_backend(D, opts)
    return inv_subset_backend(D, opts)


def is_c3_tight(D: Digraph, opts: SearchOptions | None = None) -> bool:
    """Whether dijoining a triangle onto D leaves the inversion number flat.

    Evaluates the direct route (solve the dijoin) and, when the value is
    odd and at least 3, the even-weight-family criterion; disagreement
    between the two routes raises instead of being swallowed.  For even
    values at least 2 the dijoin must grow the value by one, and that too
    is enforced.
    """
    if opts is None:
        opts = SearchOptions()
    base = inv_exact(D, opts)
    if not base.resolved:
        raise ResourceLimitError("inversion number of the base graph unresolved")
    k = base.value
    direct = inv_exact(dijoin(c3(), D), opts)
    if not direct.resolved:
        raise ResourceLimitError("inversion number of the dijoin unresolved")
    tight = direct.value == k
    if k >= 3 and k % 2 == 1:
        crit_opts = replace(opts, even_weight_only=True)
        criterion = exists_family(D, k, crit_opts) is not None
        if criterion != tight:
            raise CriterionViolationError(
                f"even-weight criterion says {criterion} but the dijoin"
                f" computes {direct.value} against base {k}"
            )
    elif k >= 2 and k % 2 == 0 and tight:
        raise CriterionViolationError(
            f"dijoin value {direct.value} equals even base value {k}"
        )
    return tight


@dataclass(frozen=True)
class RankBoundReport:
    """Outcome of the rank law check for one decycling assignment."""

    ok: bool
    rank: int
    inversion_number: int
    required: int


def rank_lower_bound_check(
    D: Digraph, A: VectorAssignment, opts: SearchOptions | None = None
) -> RankBoundReport:
    """Check the rank law for a decycling assignment of D.

    The distinct characteristic vectors of any decycling family span at
    least inv(D) dimensions when inv(D) is even, and at least inv(D)-1
    when odd.  A violation is reported, not raised; it would be a finding.
    """
    if is_acyclic(apply_family(D, assignment_to_family(A))) is None:
        raise ValueError("assignment does not decycle the graph")
    result = inv_exact(D, opts)
    if not result.resolved:
        raise ResourceLimitError("inversion number unresolved")
    inv = result.value
    required = inv if inv % 2 == 0 else inv - 1
    r = family_rank(A)
    return RankBoundReport(
        ok=r >= required, rank=r, inversion_number=inv, required=required
    )
