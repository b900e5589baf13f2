"""Command-line surface: graph and family I/O, gram factorization, and the
named reproducible experiments.

Graph sources anywhere a file is accepted:

* a path to a file in the digraph text format,
* ``expr:<constructor expression>``  (see the grammar in ``construct``),
* ``enc:<n>:<hex rows>``  (the single-line encoding experiment reports
  embed, so any report line can be replayed directly).

An experiment's builder lists instances; its checker is a generator over
one instance that yields what it asks: graphs, for their values, or
``(graph, k)`` pairs, for 1 or 0 as the graph has a decycling k-family
whose vectors all have even weight.  It receives the answers as a list of
ints in that order and returns ``(holds, detail)`` (None outside the
identity's scope); it never searches or raises.  ``cmd_experiment``
advances every checker in rounds and answers each distinct ask once per
sweep, one pool map per round.  It alone makes UNKNOWN: when an answer a
checker asked for is unresolved, the checker is not resumed, and the
instance reports the first such reason in ask order, ``budget: <why>``
or ``max-k: inv(<encoding>) > <max-k>``.

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

from . import construct, digraph, f2, solver
from .errors import ParseError, ResourceLimitError, check_int

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


def _check_thm13(inst: str) -> _Checker:
    D = digraph.decode_digraph(inst)
    (k,) = yield [D]
    if k < 2 or k % 2:
        return None  # outside the theorem: even values of at least 2
    (got,) = yield [construct.dijoin(construct.c3(), D)]
    return got == k + 1, f"inv={k} dijoin_inv={got} expect={k + 1}"


def _check_dijoins(L, R, lr_name: str, rl_name: str) -> _Checker:
    # dijoin(L, R) and dijoin(R, L) must have the same value
    lr, rl = yield [construct.dijoin(L, R), construct.dijoin(R, L)]
    return lr == rl, f"{lr_name}={lr} {rl_name}={rl}"


def _check_direction(inst: str) -> _Checker:
    D = digraph.decode_digraph(inst)
    return (yield from _check_dijoins(construct.c3(), D, "c3_first", "c3_last"))


def _check_abnormal(inst: str) -> _Checker:
    D = construct.graph_from_expr(inst)
    triple = construct.k_join([construct.c3(), construct.c3(), D])
    left, right = yield [triple, construct.dijoin(construct.c3(), D)]
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
    dijoin_k, *said = yield [construct.dijoin(construct.c3(), D)] + criterion
    tight = dijoin_k == k
    if said and said[0] != tight:
        return False, (f"criterion: even-weight criterion says {bool(said[0])}"
                       f" but the dijoin computes {dijoin_k} against base {k}")
    if k >= 2 and k % 2 == 0 and tight:
        return False, f"criterion: dijoin value {dijoin_k} equals even base value {k}"
    expect = sum(invs) - (1 if tight else 0)
    (got,) = yield [construct.k_join(parts)]
    return got == expect, f"parts={invs} tight={int(tight)} join_inv={got} expect={expect}"


def _check_thm15(inst: str) -> _Checker:
    D = digraph.decode_digraph(inst)
    (base,) = yield [D]
    if base != 1:
        return None  # outside the theorem: value-1 tournaments only
    (got,) = yield [construct.blow_up(D, [construct.c3()] * D.n)]
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


def _orders(n_max: int, top: int) -> range:
    # refused before any work; a sweep over no order checks nothing, so
    # it is refused instead of passed
    return range(1, check_int(n_max, "--n-max", 1, top) + 1)


def _build_tournaments(args) -> list[str]:
    return [
        digraph.encode_digraph(T)
        for n in _orders(args.n_max, digraph.MAX_ENUM_VERTICES)
        for T in digraph.nonisomorphic_tournaments(n)
    ]


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
    return [digraph.encode_digraph(T) for T in digraph.nonisomorphic_tournaments(3)]


def _build_qn(args) -> list[str]:
    orders = _orders(args.n_max, digraph.MAX_VERTICES)
    return [f"{n},{int(n <= args.n_exact)}" for n in orders]


def _build_bounds(args) -> list[str]:
    return [str(n) for n in _orders(args.n_max, digraph.MAX_ENUM_VERTICES)]


def _build_conj_direction(args) -> list[str]:
    # both flags before either side is enumerated
    left_n = check_int(args.left_n, "--left-n", 0, digraph.MAX_ENUM_VERTICES)
    right_n = check_int(args.right_n, "--right-n", 0, digraph.MAX_ENUM_VERTICES)
    lefts = digraph.nonisomorphic_tournaments(left_n)
    rights = digraph.nonisomorphic_tournaments(right_n)
    return [
        digraph.encode_digraph(L) + "|" + digraph.encode_digraph(R)
        for L in lefts
        for R in rights
    ]


EXPERIMENTS = {
    "thm13": (
        _build_tournaments,
        _check_thm13,
        ("n_max",),
        "dijoining a triangle onto any even-value tournament adds exactly one",
    ),
    "direction": (
        _build_tournaments,
        _check_direction,
        ("n_max",),
        "triangle dijoins have the same value from either side",
    ),
    "abnormal": (
        _build_abnormal,
        _check_abnormal,
        (),
        "[triangle, triangle, D] exceeds the triangle dijoin of D by one",
    ),
    "kjoin": (
        _build_kjoin,
        _check_kjoin,
        (),
        "k-join value is the part sum, minus one exactly on tight parts",
    ),
    "thm15": (
        _build_thm15,
        _check_thm15,
        (),
        "blowing triangles into a value-1 tournament lands one above its order",
    ),
    "qn": (
        _build_qn,
        _check_qn,
        ("n_max", "n_exact"),
        "the pair family decycles the reversed-path tournament within its bound",
    ),
    "bounds": (
        _build_bounds,
        _check_bounds,
        ("n_max",),
        "largest value over all tournaments of each order sits in the known window",
    ),
    "conj-direction": (
        _build_conj_direction,
        _check_conj_direction,
        ("left_n", "right_n"),
        "dijoin value is independent of direction (swept, not assumed)",
    ),
}


def Pool(processes: int):
    """A pool of ``processes`` workers; a serial run never imports multiprocessing."""
    import multiprocessing

    return multiprocessing.Pool(processes)


def _run_one(task: tuple) -> int | None | str:
    """Pool task ``(ask, opts)``: a graph's value, None past max_k, or, for a
    ``(graph, k)`` ask, 1 or 0 as the graph has a decycling k-family whose
    vectors all have even weight; else why the budget ran out."""
    ask, opts = task
    try:
        if isinstance(ask, tuple):
            return int(solver.exists_family(*ask, opts, even_weight_only=True) is not None)
        return solver.inv_exact(ask, opts).value
    except ResourceLimitError as exc:
        return f"budget: {exc}"


def _key(ask) -> str | tuple[str, int]:
    """Table key: a graph's encoding, kept apart from a ``(graph, k)`` ask's."""
    if isinstance(ask, tuple):
        return digraph.encode_digraph(ask[0]), ask[1]
    return digraph.encode_digraph(ask)


def cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; choices: "
              + " ".join(sorted(EXPERIMENTS)), file=sys.stderr)
        return EXIT_USAGE
    jobs = min(check_int(args.jobs, "--jobs", 1), os.cpu_count() or 1)
    build, check, param_names, _ = EXPERIMENTS[args.name]
    opts = _options_from_args(args)
    start = time.perf_counter()
    instances = build(args)
    table: dict[str | tuple[str, int], int | str] = {}  # ask key -> answer, or why none
    # (status, detail) per instance; None outside its identity's scope
    outcomes: list[tuple | None] = [None] * len(instances)
    # (instance index, checker, keys of the asks it waits for)
    waiting = [(i, check(inst), None) for i, inst in enumerate(instances)]
    with Pool(jobs) if jobs > 1 and len(instances) > 1 else contextlib.nullcontext() as pool:
        solve_all = map if pool is None else pool.map
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
            solved = solve_all(_run_one, [(a, opts) for a in todo.values()])
            for key, value in zip(todo, solved):
                table[key] = f"max-k: inv({key}) > {opts.max_k}" if value is None else value
            waiting = asked

    params = [f"experiment={args.name}"]
    for attr in param_names:
        params.append(f"{attr.replace('_', '-')}={getattr(args, attr)}")
    print(" ".join(params))
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
    p_exp.add_argument("--n-max", type=int, default=5,
                       help="largest instance order for sweeps")
    p_exp.add_argument("--n-exact", type=int, default=7,
                       help="largest order solved exactly (qn sweep)")
    p_exp.add_argument("--left-n", type=int, default=3,
                       help="order of the left tournaments (conj-direction)")
    p_exp.add_argument("--right-n", type=int, default=3,
                       help="order of the right tournaments (conj-direction)")
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
