"""Command-line surface: graph and family I/O, gram factorization, and the
named reproducible experiments.

Graph sources anywhere a file is accepted:

* a path to a file in the digraph text format,
* ``expr:<constructor expression>``  (see the grammar in ``construct``),
* ``enc:<n>:<hex rows>``  (the single-line encoding experiment reports
  embed, so any report line can be replayed directly).

Each experiment names its flags, with default and range, in
``EXPERIMENTS``; ``cmd_experiment`` refuses any other given and checks
these before its builder lists instances from them.  Its checker is a
generator over one instance that yields what it asks: graphs, or
``BlowUp``s of a host by parts (a dijoin or k-join blows up ``tt(m)``),
for their values, or ``(graph, k)`` pairs, for 1 or 0 as the graph has a
decycling k-family whose vectors all have even weight.  It receives the
answers as a list of ints in that order and returns ``(holds, detail)``
(None outside the identity's scope); it never searches or raises.
``cmd_experiment`` advances every checker in rounds and answers each
distinct ask once per sweep, keyed by the rows of the graph it names
(``_key``), as every memo of the run is.  Each round answers the asked
blow-ups' parts, their cyclic hosts (an acyclic host has value 0) and
every cyclic class their parts' one-vertex deletions reach (an acyclic
one is read as value 0 with no solve, see ``_value``), then the asks
themselves together with each blow-up of a host by its parts' cores (see
``_Deletions.core``), each phase in one pool map per vertex count,
smallest first, and only what is not yet in its table.
Each solve takes its bounds in ``_options``: a blow-up between the
certificates its inputs give (``_blowup_options``), then below by the
first of strictly larger value among the induced subgraphs the table
has solved: a blow-up's blow-up by cores, or any other graph's
one-vertex deletions, read by class (``digraph.TournamentClasses``) for
a tournament up to order 8, else as its own subgraphs, so ``qn(n)``
reads ``qn(n - 1)`` from order 9 up (at orders 5 to 8 it is not its
class's representative, so none is).  Any other graph takes above the
first family of that width extending a deletion's witness to the vertex
it leaves out (``_deletion_upper``), which proves its value unsearched.
Every bound is checked by the solver, and a solve no checker asked for
gives no bound when it is unresolved.
Every solve is ``solver.inv_exact(graph, opts)``, with bounds only from
the table, so a solve depends on its task alone.  The engine alone makes
UNKNOWN: when an answer a checker asked for is unresolved, the checker
is not resumed, and the instance reports the first such reason in ask
order, ``budget: <why>`` or ``max-k: inv(<encoding>) > <max-k>``.

Exit codes: 0 all passed / resolved, 1 usage error or stdout closed by
its reader, 2 unknowns present (a budget or --max-k left a value
unresolved), 3 a checked identity failed (a finding).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from collections.abc import Generator
from itertools import accumulate

from . import construct, digraph, f2, solver
from .errors import ParseError, ResourceLimitError, check_int
from .record import Record

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
EXIT_VIOLATION = 3


def resolve_graph_source(source: str) -> digraph.Digraph:
    """Load a graph from a file path, an expr: source, or an enc: encoding."""
    if source.startswith("expr:"):
        return construct.graph_from_expr(source[5:])
    if source.startswith("enc:"):
        return digraph.decode_digraph(source)
    with open(source, "r", encoding="utf-8") as fh:
        return digraph.parse_digraph(fh.read())


def _options_from_args(args) -> solver.SearchOptions:
    # refused here, so the message names the flag, not the SearchOptions field
    check_int(args.max_k, "--max-k", 0, solver.MAX_K)
    if args.budget is not None:
        check_int(args.budget, "--budget", 1)
    return solver.SearchOptions(max_k=args.max_k, budget=args.budget)


def cmd_inv(args) -> int:
    D = resolve_graph_source(args.graph)
    opts = _options_from_args(args)
    solve = solver.inv_order_backend if args.backend == "order" else solver.inv_exact
    try:
        result = solve(D, opts)
    except ResourceLimitError as exc:
        print(f"inv=unknown reason={exc}")
        return EXIT_UNKNOWN
    print(result.report(deterministic=args.deterministic))
    return EXIT_OK if result.resolved else EXIT_UNKNOWN


def cmd_verify(args) -> int:
    D = resolve_graph_source(args.graph)
    with open(args.family, "r", encoding="utf-8") as fh:
        F = digraph.parse_family(fh.read(), D.n)
    out = digraph.apply_family(D, F)
    order = digraph.is_acyclic(out)
    if order is not None:
        print("acyclic order=" + " ".join(map(str, order)))
        return EXIT_OK
    cycle = digraph.residual_cycle(out)
    print("cyclic cycle=" + "->".join(map(str, cycle + [cycle[0]])))
    return EXIT_VIOLATION


def cmd_gram(args) -> int:
    with open(args.matrix, "r", encoding="utf-8") as fh:
        M = f2.load_matrix(fh.read())
    cols = f2.gram_factor(M)
    dim = f2.min_gram_dim(M)
    if cols is None:
        print("infeasible reason=zero_diagonal_nonsingular")
        print(f"min_gram_dim={dim}")
        return EXIT_OK
    if f2.gram_of(cols) != M:
        print("error: factorization failed verification", file=sys.stderr)
        return EXIT_VIOLATION
    k = len(M)
    print(f"factored k={k} verified=1")
    for col in cols:  # coordinate 0 first
        print(f"{col:0{k}b}"[::-1])
    print(f"min_gram_dim={dim}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Experiments


_Checker = Generator[list, list[int], tuple[bool, str] | None]

# every dijoin's triangle and host; a Digraph is immutable, so one serves all
C3 = construct.c3()
TT2 = construct.transitive(2)
TT1 = construct.transitive(1)


class BlowUp(Record):
    """A checker's ask for the value of the blow-up of ``host`` by ``parts``.
    The sweep answers ``inputs()`` first, then solves ``graph`` within the
    bounds they give (see ``_blowup_options``)."""

    __slots__ = ("host", "parts", "graph")
    host: digraph.Digraph
    parts: tuple[digraph.Digraph, ...]
    graph: digraph.Digraph

    def __init__(self, host: digraph.Digraph, parts: list[digraph.Digraph]):
        super().__init__(host, tuple(parts), construct.blow_up(host, list(parts)))

    def inputs(self) -> list[digraph.Digraph]:
        """The parts, then the host unless it is acyclic (value 0, no set)."""
        cyclic = digraph.is_acyclic(self.host) is None
        return [*self.parts, self.host] if cyclic else list(self.parts)


def _check_thm13(inst: str) -> _Checker:
    D = digraph.decode_digraph(inst)
    (k,) = yield [D]
    if k < 2 or k % 2:
        return None  # outside the theorem: even values of at least 2
    (got,) = yield [BlowUp(TT2, [C3, D])]
    return got == k + 1, f"inv={k} dijoin_inv={got} expect={k + 1}"


def _check_dijoins(L, R, lr_name: str, rl_name: str) -> _Checker:
    # dijoin(L, R) and dijoin(R, L) must have the same value
    lr, rl = yield [BlowUp(TT2, [L, R]), BlowUp(TT2, [R, L])]
    return lr == rl, f"{lr_name}={lr} {rl_name}={rl}"


def _check_direction(inst: str) -> _Checker:
    D = digraph.decode_digraph(inst)
    return (yield from _check_dijoins(C3, D, "c3_first", "c3_last"))


def _check_abnormal(inst: str) -> _Checker:
    D = construct.graph_from_expr(inst)
    triple = BlowUp(construct.transitive(3), [C3, C3, D])
    left, right = yield [triple, BlowUp(TT2, [C3, D])]
    return left == right + 1, f"triple_join_inv={left} dijoin_inv={right} expect={right + 1}"


def _check_kjoin(inst: str) -> _Checker:
    parts = construct.join_parts(inst)
    invs = yield parts
    special = [i for i, v in enumerate(invs) if v != 1]
    if len(special) > 1 or not all(v >= 1 for v in invs):
        return None  # outside the rule: a part of value 0, or two above 1
    j = special[0] if special else 0
    D, k = parts[j], invs[j]
    # for odd k >= 3, D's even-weight k-family criterion decides tightness too
    criterion = [(D, k)] if k >= 3 and k % 2 else []
    dijoin_k, *said = yield [BlowUp(TT2, [C3, D])] + criterion
    tight = dijoin_k == k
    if said and said[0] != tight:
        return False, (f"criterion: even-weight criterion says {bool(said[0])}"
                       f" but the dijoin computes {dijoin_k} against base {k}")
    if k >= 2 and k % 2 == 0 and tight:
        return False, f"criterion: dijoin value {dijoin_k} equals even base value {k}"
    expect = sum(invs) - (1 if tight else 0)
    (got,) = yield [BlowUp(construct.transitive(len(parts)), parts)]
    return got == expect, f"parts={invs} tight={int(tight)} join_inv={got} expect={expect}"


def _check_thm15(inst: str) -> _Checker:
    D = digraph.decode_digraph(inst)
    (base,) = yield [D]
    if base != 1:
        return None  # outside the theorem: value-1 tournaments only
    (got,) = yield [BlowUp(D, [C3] * D.n)]
    return got == D.n + 1, f"blowup_inv={got} expect={D.n + 1}"


def _check_qn(inst: str) -> _Checker:
    n, exact = (int(tok) for tok in inst.split(","))
    Q = construct.qn(n)
    F = construct.qn_family(n)
    bound = (n - 1) // 2
    if digraph.is_acyclic(digraph.apply_family(Q, F)) is None:
        return False, f"n={n} pair family leaves a cycle"
    if len(F.sets) != bound:
        return False, f"n={n} family size {len(F.sets)} != {bound}"
    if not exact:
        return True, f"n={n} family_ok bound={bound}"
    (value,) = yield [Q]
    return value <= bound, f"n={n} inv={value} bound={bound}"


def _check_bounds(inst: str) -> _Checker:
    n = int(inst)
    worst = max((yield digraph.nonisomorphic_tournaments(n)))
    detail = f"n={n} invn={worst}"
    if n < 4:
        return True, detail
    low = (n - 1) / 2 - math.log2(n)
    return low <= worst <= n - 3, detail + f" window=[{low:.2f},{n - 3}]"


def _check_conj_direction(inst: str) -> _Checker:
    L, R = map(digraph.decode_digraph, inst.split("|"))
    return (yield from _check_dijoins(L, R, "lr", "rl"))


def _classes(n: int) -> list[str]:
    return [digraph.encode_digraph(T) for T in digraph.nonisomorphic_tournaments(n)]


def _build_tournaments(args) -> list[str]:
    return [enc for n in range(1, args.n_max + 1) for enc in _classes(n)]


def _build_abnormal(args) -> list[str]:
    return ["tt(1)", "tt(3)", "c3"]


def _build_kjoin(args) -> list[str]:
    return [
        "join(c3, c3)",
        "join(c3, c3, c3)",
        "join(c3, dijoin(c3, c3))",
        "join(dijoin(c3, c3), c3)",
    ]


def _build_thm15(args) -> list[str]:
    return _classes(3)


def _build_qn(args) -> list[str]:
    return [f"{n},{int(n <= args.n_exact)}" for n in range(1, args.n_max + 1)]


def _build_bounds(args) -> list[str]:
    return [str(n) for n in range(1, args.n_max + 1)]


def _build_conj_direction(args) -> list[str]:
    lefts, rights = _classes(args.left_n), _classes(args.right_n)
    return [f"{left}|{right}" for left in lefts for right in rights]


# every experiment flag and its help; each experiment reads its own, as
# flag -> (default, low, high), high None for no limit, in header order
FLAGS = {
    "n_max": "largest instance order",
    "n_exact": "largest order solved exactly",
    "left_n": "order of the left tournaments",
    "right_n": "order of the right tournaments",
}
# a sweep over no order checks nothing, so it is refused instead of passed
_SWEEP = {"n_max": (5, 1, digraph.MAX_ENUM_VERTICES)}
_SIDE = (3, 0, digraph.MAX_ENUM_VERTICES)

EXPERIMENTS = {
    "thm13": (
        _build_tournaments,
        _check_thm13,
        _SWEEP,
        "dijoining a triangle onto any even-value tournament adds exactly one",
    ),
    "direction": (
        _build_tournaments,
        _check_direction,
        _SWEEP,
        "triangle dijoins have the same value from either side",
    ),
    "abnormal": (
        _build_abnormal,
        _check_abnormal,
        {},
        "[triangle, triangle, D] exceeds the triangle dijoin of D by one",
    ),
    "kjoin": (
        _build_kjoin,
        _check_kjoin,
        {},
        "k-join value is the part sum, minus one exactly on tight parts",
    ),
    "thm15": (
        _build_thm15,
        _check_thm15,
        {},
        "blowing triangles into a value-1 tournament lands one above its order",
    ),
    "qn": (
        _build_qn,
        _check_qn,
        {"n_max": (5, 1, digraph.MAX_VERTICES), "n_exact": (7, 0, None)},
        "the pair family decycles the reversed-path tournament within its bound",
    ),
    "bounds": (
        _build_bounds,
        _check_bounds,
        _SWEEP,
        "largest value over all tournaments of each order sits in the known window",
    ),
    "conj-direction": (
        _build_conj_direction,
        _check_conj_direction,
        {"left_n": _SIDE, "right_n": _SIDE},
        "dijoin value is independent of direction (swept, not assumed)",
    ),
}


def Pool(processes: int):
    """A pool of ``processes`` workers; a serial run never imports multiprocessing."""
    import multiprocessing

    return multiprocessing.Pool(processes)


def _run_one(task: tuple) -> solver.InvResult | int | str:
    """Pool task ``(ask, opts)``: a graph's result or, for a ``(graph, k)``
    ask, 1 or 0 as the graph has a decycling k-family whose vectors all
    have even weight; else why the budget ran out."""
    ask, opts = task
    try:
        if isinstance(ask, tuple):
            return int(solver.exists_family(*ask, opts, even_weight_only=True) is not None)
        return solver.inv_exact(ask, opts)
    except ResourceLimitError as exc:
        return f"budget: {exc}"


def _graph(ask) -> digraph.Digraph:
    """The graph an ask names: a ``(graph, k)`` ask's graph, or the graph
    a blow-up builds."""
    if isinstance(ask, tuple):
        return ask[0]
    return ask.graph if isinstance(ask, BlowUp) else ask


def _key(ask) -> tuple:
    """Table key: a graph's rows, kept apart from a ``(graph, k)`` ask's
    ``(rows, k)``; a blow-up is keyed by the graph it builds."""
    rows = _graph(ask).out_rows
    return (rows, ask[1]) if isinstance(ask, tuple) else rows


def _blowup_options(
    ask: BlowUp, results: dict[tuple, solver.InvResult], opts: solver.SearchOptions
) -> solver.SearchOptions:
    """``opts`` with the certificates a blow-up's inputs give once all are
    resolved, built from their results alone on the blow-up's layout,
    where part j starts after the vertices of the parts before it.  Below:
    the first part of largest value, the blow-up's subgraph on its
    vertices.  Above: each host witness set blown up to the union of its
    vertices' parts, then each part's witness shifted onto its vertices.
    A blown-up set reverses the arcs between parts as the host's set does
    the host's arcs, and a part's arcs all or none, so the family decycles
    the blow-up.  ``solver._bounds`` checks both against the blow-up."""
    parts = ask.parts
    found = [results.get(_key(g)) for g in ask.inputs()]
    if any(r is None for r in found):
        return opts
    found, host = found[: len(parts)], found[len(parts):]
    offsets = list(accumulate((p.n for p in parts), initial=0))
    masks = [(1 << p.n) - 1 << off for p, off in zip(parts, offsets)]
    best = max(range(len(parts)), key=lambda i: found[i].value)
    lower = solver.Sub(tuple(range(offsets[best], offsets[best + 1])), parts[best], found[best])
    sets = [sum(m for j, m in enumerate(masks) if s >> j & 1)
            for r in host for s in r.witness.sets]
    sets += [s << off for r, off in zip(found, offsets) for s in r.witness.sets]
    upper = digraph.InversionFamily(offsets[-1], sets)
    return solver.SearchOptions(opts.max_k, opts.budget, lower, upper)


class _Deletions:
    """One run's one-vertex deletions of tournaments, by class, and the
    cores they lead to.  Called on a tournament T whose deletions have a
    canonical form, it lists each deletion as ``(R, at)``: R the
    representative of its class, R's vertex i at T's vertex ``at[i]``; on
    any other graph, nothing.  Each order's ``TournamentClasses`` is made
    once, each graph's list found once, keyed by its rows, each part's
    core walked once, and each blow-up by cores built once."""

    __slots__ = ("forms", "found", "cores", "by_cores")

    def __init__(self):
        self.forms: dict[int, digraph.TournamentClasses] = {}
        self.found: dict[tuple[int, ...], list] = {}
        self.cores: dict[tuple[int, ...], tuple | None] = {}
        self.by_cores: dict[tuple, BlowUp | None] = {}

    def __call__(self, T: digraph.Digraph) -> list[tuple[digraph.Digraph, tuple]]:
        listed = self.found.get(T.out_rows)
        if listed is not None:
            return listed
        listed = self.found[T.out_rows] = []
        n = T.n
        if not 2 <= n <= digraph.MAX_ENUM_VERTICES + 1 or not T.is_tournament():
            return listed
        form = self.forms.get(n - 1)
        if form is None:
            form = self.forms[n - 1] = digraph.TournamentClasses(n - 1)
        for v in range(n):
            listed.append(form.canonical(T, [u for u in range(n) if u != v]))
        return listed

    def of(self, T: digraph.Digraph) -> list[tuple[digraph.Digraph, tuple]]:
        """T's one-vertex deletions: by class where the forms reach T,
        else each as T's own subgraph, R's vertex i at ``at[i]``."""
        n = T.n
        if n <= digraph.MAX_ENUM_VERTICES + 1 and T.is_tournament():
            return self(T)
        full = (1 << n) - 1
        return [(T.induced(full ^ 1 << v), (*range(v), *range(v + 1, n))) for v in range(n)]

    def below(self, parts) -> list[digraph.Digraph]:
        """The graphs that finding the cores of ``parts`` and solving
        their blow-ups by cores need, but for those of value 0 (see
        ``_value``): every cyclic class that deleting vertices from the
        parts, one at a time, reaches, and the one vertex that is an
        acyclic part's core.  Every class below an acyclic one is acyclic
        too."""
        seen: dict[tuple[int, ...], digraph.Digraph | None] = {}
        stack = []
        for P in parts:
            if digraph.is_acyclic(P) is None:
                stack.append(P)
            elif self(P):
                seen[TT1.out_rows] = TT1
        while stack:
            for R, _ in self(stack.pop()):
                if R.out_rows not in seen:
                    cyclic = digraph.is_acyclic(R) is None
                    seen[R.out_rows] = R if cyclic else None
                    if cyclic:
                        stack.append(R)
        return [R for R in seen.values() if R is not None]

    def core(self, P: digraph.Digraph, results: dict) -> tuple | None:
        """P's core ``(C, at)``, C's vertex i at P's vertex ``at[i]``, or
        None when a value the walk reads is unresolved.  From P, the walk
        steps to the first deletion class of the same value until none
        keeps it: C has P's value, and every one-vertex deletion of C a
        smaller one.  A graph the forms do not reach is its own core."""
        rows = P.out_rows
        if rows in self.cores:
            return self.cores[rows]
        value = _value(P, results)
        found = None if value is None else (P, tuple(range(P.n)))
        while found is not None:
            C, at = found
            for R, sub in self(C):
                smaller = _value(R, results)
                if smaller is None:
                    found = None
                    break
                if smaller == value:
                    found = R, tuple(at[i] for i in sub)
                    break
            else:
                break  # every deletion of C is smaller: C is the core
        self.cores[rows] = found
        return found

    def core_ask(self, ask: BlowUp, results: dict) -> tuple | None:
        """``(key, B, at)``: B the blow-up of ``ask``'s host by its parts'
        cores, keyed ``key``, B's vertex i at ask's vertex ``at[i]``; or
        None when a part has no core, every part is its own, or B is
        acyclic, a value 0 no bound needs."""
        cores = [self.core(p, results) for p in ask.parts]
        if None in cores or all(C.n == p.n for (C, _), p in zip(cores, ask.parts)):
            return None
        parts = [C for C, _ in cores]
        shape = tuple(map(_key, [ask.host, *parts]))
        if shape not in self.by_cores:
            core = BlowUp(ask.host, parts)
            self.by_cores[shape] = core if digraph.is_acyclic(core.graph) is None else None
        core = self.by_cores[shape]
        if core is None:
            return None
        offsets = accumulate((p.n for p in ask.parts), initial=0)
        at = tuple(off + v for (_, sub), off in zip(cores, offsets) for v in sub)
        return _key(core), core, at


def _value(G: digraph.Digraph, results: dict) -> int | None:
    """G's value: the table's (0 for any acyclic graph it holds), else 0
    when G is acyclic, with no solve, or None when G is unresolved."""
    found = results.get(_key(G))
    if found is not None:
        return found.value
    return 0 if digraph.is_acyclic(G) is not None else None


def _options(ask, results: dict, deletions: _Deletions,
             opts: solver.SearchOptions) -> solver.SearchOptions:
    """``opts`` with every certificate the table gives the graph ``ask``
    names: a blow-up's from ``_blowup_options``, then below the first of
    strictly larger value among the induced subgraphs the table has
    solved, a blow-up's blow-up by its parts' cores (``_Deletions.core_ask``)
    or a graph's one-vertex deletions (``_Deletions.of``), each mapped into
    ``ask``'s graph, and a graph's above from its deletions' witnesses
    (``_deletion_upper``).  A ``(graph, k)`` ask takes none."""
    if isinstance(ask, tuple):
        return opts
    if isinstance(ask, BlowUp):
        opts = _blowup_options(ask, results, opts)
        got = deletions.core_ask(ask, results)
        candidates = [] if got is None else [(got[1].graph, got[2])]
    else:
        candidates = deletions.of(ask)
    lower, upper = opts.lower, opts.upper
    for part, at in candidates:
        found = results.get(_key(part))
        if found is not None and (lower is None or found.value > lower.result.value):
            lower = solver.Sub(at, part, found)
    if lower is not None and upper is None and not isinstance(ask, BlowUp):
        upper = _deletion_upper(ask, candidates, lower.result.value, results)
    return solver.SearchOptions(opts.max_k, opts.budget, lower, upper)


def _deletion_upper(G: digraph.Digraph, candidates: list, value: int,
                    results: dict) -> digraph.InversionFamily | None:
    """The first family of ``value`` sets that decycles G extending the
    witness of a candidate ``(R, at)`` of that value on n - 1 vertices, the
    vertex ``at`` leaves out in set j for bit j of the least such vector."""
    n, rows, full = G.n, G.out_rows, (1 << (1 << value)) - 1
    # a mask of vectors has bit x for vector x; par[j]: those that set j
    par = [sum(1 << x for x in range(1 << value) if x >> j & 1) for j in range(value)]
    for part, at in candidates:
        found = results.get(_key(part))
        if found is None or found.value != value or len(at) != n - 1:
            continue
        v, sets = n * (n - 1) // 2 - sum(at), found.witness.sets  # v: the vertex left out
        # R flipped is acyclic, so the peel lists i after all i reaches;
        # into[i]: the vectors under which i reaches v, bad: v reaches i too
        flipped = digraph._flipped_rows(part.out_rows, sets)
        bad, into = 0, [0] * part.n
        for i in digraph._peel(flipped, (1 << part.n) - 1)[0]:
            flip = 0  # the vectors that reverse the arc between at[i] and v
            for s, p in zip(sets, par):
                flip ^= p * (s >> i & 1)
            out, back = rows[v] >> at[i] & 1, rows[at[i]] >> v & 1
            into[i] = (full ^ flip) * back | flip * out
            heads = flipped[i]
            while heads:
                into[i] |= into[(heads & -heads).bit_length() - 1]
                heads &= heads - 1
            bad |= ((full ^ flip) * out | flip * back) & into[i]
        if bad != full:
            x = ((bad + 1) & ~bad).bit_length() - 1  # the least vector not bad
            sets = [sum(1 << u for i, u in enumerate(at) if s >> i & 1) for s in sets]
            return digraph.InversionFamily(n, [s | (x >> j & 1) << v for j, s in enumerate(sets)])
    return None


def _by_order(todo: dict) -> list[dict]:
    """The asks of ``todo`` (key -> ask) in one dict per vertex count of
    the graph each names, in ascending order."""
    groups: dict[int, dict] = {}
    for key, ask in todo.items():
        groups.setdefault(_graph(ask).n, {})[key] = ask
    return [groups[n] for n in sorted(groups)]


def cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {args.name!r}; choices: " + " ".join(sorted(EXPERIMENTS))
        )
    jobs = min(check_int(args.jobs, "--jobs", 1), os.cpu_count() or 1)
    build, check, own, _ = EXPERIMENTS[args.name]
    opts = _options_from_args(args)
    header = [f"experiment={args.name}"]
    for flag in {**own, **FLAGS}:  # its own flags first, in header order
        name, value = "--" + flag.replace("_", "-"), getattr(args, flag)
        if flag in own:
            default, low, high = own[flag]
            value = check_int(default if value is None else value, name, low, high)
            setattr(args, flag, value)  # the builder reads it
            header.append(f"{name[2:]}={value}")
        elif value is not None:
            raise ValueError(f"experiment {args.name} takes no {name}")
    start = time.perf_counter()
    instances = build(args)
    table: dict[tuple, int | str] = {}  # ask key (_key) -> answer, or why none
    results: dict[tuple, solver.InvResult] = {}  # graph key -> its resolved result
    deletions = _Deletions()
    # (status, detail) per instance; None outside its identity's scope
    outcomes: list[tuple | None] = [None] * len(instances)
    # (instance index, checker, keys of the asks it waits for)
    waiting = [(i, check(inst), None) for i, inst in enumerate(instances)]
    with Pool(jobs) if jobs > 1 and len(instances) > 1 else contextlib.nullcontext() as pool:
        solve_all = map if pool is None else pool.map

        def answer(todo: dict) -> None:
            # every ask of todo (key -> ask) solved in one map per order,
            # smallest first, each graph within the bounds that only the
            # table supplies, smaller graphs' results included
            for group in _by_order(todo):
                tasks = [(a.graph if isinstance(a, BlowUp) else a,
                          _options(a, results, deletions, opts)) for a in group.values()]
                for key, (graph, _), got in zip(group, tasks, solve_all(_run_one, tasks)):
                    if isinstance(got, solver.InvResult):
                        if got.resolved:
                            results[key] = got
                            got = got.value
                        else:
                            got = f"max-k: inv({digraph.encode_digraph(graph)}) > {opts.max_k}"
                    table[key] = got

        while waiting:  # one round: advance every checker, then answer what they ask
            asked = []
            todo: dict = {}  # key -> ask, for asks not in the table yet
            for i, checker, keys in waiting:
                values = None if keys is None else [table[key] for key in keys]
                reason = next((v for v in values or () if isinstance(v, str)), None)
                if reason is not None:  # an answer it asked for is unresolved
                    outcomes[i] = ("UNKNOWN", reason)
                    continue
                try:
                    asks = checker.send(values)
                except StopIteration as stop:
                    if stop.value is not None:
                        holds, detail = stop.value
                        outcomes[i] = ("PASS" if holds else "FAIL", detail)
                    continue
                keys = [_key(a) for a in asks]
                todo.update((k, a) for k, a in zip(keys, asks) if k not in table)
                asked.append((i, checker, keys))
            # the blow-ups' inputs and the classes their parts' cores are
            # walked through, not yet in the table, answered first
            blowups = [a for a in todo.values() if isinstance(a, BlowUp)]
            inputs = {_key(g): g for a in blowups for g in a.inputs()}
            parts = {p.out_rows: p for a in blowups for p in a.parts}.values()
            inputs.update((_key(g), g) for g in deletions.below(parts))
            answer({k: g for k, g in inputs.items() if k not in table})
            # then the asks, each blow-up's blow-up by cores in the same pass
            todo = {k: a for k, a in todo.items() if k not in table}
            for a in blowups:
                got = deletions.core_ask(a, results)
                if got is not None and got[0] not in table:
                    todo.setdefault(got[0], got[1])
            answer(todo)
            waiting = asked

    print(" ".join(header))
    statuses = []
    for inst, outcome in zip(instances, outcomes):
        if outcome is not None:
            print(f"instance {inst} {outcome[1]} : {outcome[0]}")
            statuses.append(outcome[0])
    nfail = statuses.count("FAIL")
    nunk = statuses.count("UNKNOWN")
    print(f"total={len(statuses)} pass={statuses.count('PASS')} fail={nfail} unknown={nunk}")
    if not args.deterministic:
        print(f"elapsed={time.perf_counter() - start:.2f}s")
    if nfail:
        return EXIT_VIOLATION
    if nunk:
        return EXIT_UNKNOWN
    return EXIT_OK


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-k", type=int, default=solver.MAX_K,
                   help="largest family size to try")
    p.add_argument("--budget", type=int, default=None,
                   help="search nodes allowed per solve, over all k levels "
                   "(reproducible, not wall time)")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress timings so output is bit-identical across runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invlab",
        description="Exact inversion numbers of oriented graphs, with "
        "certified witnesses and identity sweep experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("inv", help="compute the inversion number of a graph")
    p_inv.add_argument("graph", help="graph file, expr:<expression>, or enc:<...>")
    p_inv.add_argument("--backend", choices=solver.BACKENDS, default="assign")
    _add_search_flags(p_inv)
    p_inv.set_defaults(func=cmd_inv)

    p_ver = sub.add_parser("verify", help="apply a family and report the verdict")
    p_ver.add_argument("graph")
    p_ver.add_argument("family", help="family file, one set per line")
    p_ver.set_defaults(func=cmd_verify)

    p_gram = sub.add_parser("gram", help="factor a symmetric GF(2) matrix")
    p_gram.add_argument("matrix", help="matrix file")
    p_gram.set_defaults(func=cmd_gram)

    docs = "".join(f"\n  {name:16}{entry[3]}" for name, entry in sorted(EXPERIMENTS.items()))
    p_exp = sub.add_parser("experiment", help="run a named sweep",
                           epilog="experiments:" + docs,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    p_exp.add_argument("name", help="one of the experiments listed below")
    for flag, text in FLAGS.items():
        takers = ", ".join(name for name, entry in sorted(EXPERIMENTS.items()) if flag in entry[2])
        p_exp.add_argument("--" + flag.replace("_", "-"), type=int, help=f"{text} ({takers})")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="worker processes; report order is stable")
    _add_search_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, but 2 here means unknowns are present
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: nothing to report, and the interpreter's
        # final flush of what is still buffered must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
