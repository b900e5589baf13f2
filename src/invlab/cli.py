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
``cmd_experiment`` hands the checkers to one ``sweep.Sweep``, which
answers their asks through ``_run_one`` (see ``sweep``), and prints
their outcomes.

Exit codes: 0 all passed / resolved, 1 usage error or stdout closed by
its reader, 2 unknowns present (a budget or --max-k left a value
unresolved), 3 a checked identity failed (a finding).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Generator

from . import construct, digraph, f2, solver
from .errors import ParseError, ResourceLimitError, check_int
from .sweep import BlowUp, Sweep

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


def _run_one(task: tuple) -> solver.InvResult | int | str:
    """Sweep task ``(ask, opts)``: a graph's result or, for a ``(graph, k)``
    ask, 1 or 0 as the graph has a decycling k-family whose vectors all
    have even weight; else why the budget ran out."""
    ask, opts = task
    try:
        if isinstance(ask, tuple):
            return int(solver.exists_family(*ask, opts, even_weight_only=True) is not None)
        return solver.inv_exact(ask, opts)
    except ResourceLimitError as exc:
        return f"budget: {exc}"


def cmd_experiment(args) -> int:
    if args.name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {args.name!r}; choices: " + " ".join(sorted(EXPERIMENTS))
        )
    jobs = min(check_int(args.jobs, "--jobs", 1),
               (os.cpu_count() or 1) if hasattr(os, "fork") else 1)
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
    outcomes = Sweep(opts, jobs).run([check(inst) for inst in instances], _run_one)

    print(" ".join(header))
    statuses = []
    for inst, outcome in zip(instances, outcomes):
        if outcome is not None:
            print(f"instance {inst} {outcome[1]} : {outcome[0]}")
            statuses.append(outcome[0])
    nfail, nunk = statuses.count("FAIL"), statuses.count("UNKNOWN")
    print(f"total={len(statuses)} pass={statuses.count('PASS')} fail={nfail} unknown={nunk}")
    if not args.deterministic:
        print(f"elapsed={time.perf_counter() - start:.2f}s")
    return EXIT_VIOLATION if nfail else EXIT_UNKNOWN if nunk else EXIT_OK


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
                       help="solving processes, this one included; report order is stable")
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
