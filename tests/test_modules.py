"""Module-level invariants that hold across the whole package."""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import invlab
from invlab import construct, f2, solver
from invlab.construct import c3, transitive
from invlab.digraph import (
    MAX_VERTICES,
    Digraph,
    InversionFamily,
    TournamentClasses,
    dump_family,
    invert,
    nonisomorphic_tournaments,
    parse_family,
)
from invlab.solver import SearchOptions, Sub

from helpers import compose_family


def test_no_module_global_caches():
    # a shared cache makes a solver's cost depend on what ran before it;
    # memos live in the call that fills them
    found = []
    for info in pkgutil.iter_modules(invlab.__path__):
        module = importlib.import_module(f"invlab.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") or hasattr(value, "cache_clear"):
                found.append(f"{info.name}.{name}")
    assert found == []


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(
    os.path.relpath(os.path.join(dirpath, name), ROOT)
    for top in ("src", "tests")
    for dirpath, _, names in os.walk(os.path.join(ROOT, top))
    for name in names
    if name.endswith(".py")
)


@pytest.mark.parametrize("path", SOURCES)
def test_parses_as_python_3_10(path):
    # pyproject declares >=3.10: this checks the grammar only, not which
    # library names exist at 3.10
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        ast.parse(fh.read(), path, feature_version=(3, 10))


def test_every_exported_name_resolves():
    missing = [name for name in invlab.__all__ if not hasattr(invlab, name)]
    assert missing == []


# test oracles and law checks that no run reaches; they live in tests/helpers.py
TEST_ONLY = {
    "apply_assignment",
    "canonical_key",
    "compose_family",
    "dot",
    "enumerate_tournaments",
    "extend_to_tournament",
    "family_rank",
    "family_vectors",
    "flip_matrix",
    "RankBoundReport",
    "rank_lower_bound_check",
    "rank_of_rows",
}


# deleted: expressions parse straight to digraphs, with no tree to
# evaluate or print, f2._free_diag_bound is the one free-diagonal bound, a
# GF(2) vector is a plain int that the assignment search turns into the
# family it returns, a symmetric matrix is a tuple of row ints that
# gram_factor and min_gram_dim both read through one rank-one peel, and
# a sweep checker returns (holds, detail) on resolved values only, while
# the sweep itself reports an unresolved one as UNKNOWN, and the sweep
# answers kjoin's even-weight criterion as one more ask, so no checker
# searches or raises; every int argument is refused by errors.check_int,
# and one solver._result builds every solver result; every mask and vertex
# index is refused by errors.check_masks, in one wording for every width;
# compose_family, the composition with no condition on the host's shape,
# replaced the dominant-vertex one; a join is asked as the BlowUp of a
# transitive tournament, whose certificates _blowup_options builds; each
# experiment flag is checked by cmd_experiment's one loop over its own table;
# _options alone picks a sweep solve's lower bound, by one rule: the first of
# strictly larger value among the induced subgraphs the table has solved;
# the free-diagonal bound is a private step of the order backend, whose
# blocks are valid by construction, so it has no public name and no row cap
REMOVED = {
    "Expr",
    "C3Expr",
    "TTExpr",
    "QnExpr",
    "RevExpr",
    "DijoinExpr",
    "JoinExpr",
    "BlowupExpr",
    "BlowupUniformExpr",
    "eval_expr",
    "pretty",
    "parse_expr",
    "min_gram_dim_free_diag",
    "BitVec",
    "VectorAssignment",
    "assignment_to_family",
    "family_to_assignment",
    "is_even_weight_assignment",
    "SymMatrix",
    "GramFactorization",
    "rank",
    "InstanceResult",
    "_read",
    "is_c3_tight",
    "CriterionViolationError",
    "_step",
    "_is_int",
    "_enumerable",
    "_certified",
    "_outside",
    "_candidates",
    "_MEMO_CAP",
    "compose_blowup_family",
    "Join",
    "_join_options",
    "_orders",
    "_deletion_lower",
    "_core_lower",
    "free_diag_bound",
    "FREE_DIAG_LIMIT",
}


def in_the_package(names):
    found = []
    for info in pkgutil.iter_modules(invlab.__path__):
        module = importlib.import_module(f"invlab.{info.name}")
        found.extend(f"{info.name}.{name}" for name in names if hasattr(module, name))
    found.extend(name for name in names if hasattr(invlab, name))
    return found


def test_test_oracles_stay_out_of_the_package():
    assert in_the_package(TEST_ONLY) == []


def test_removed_names_stay_out_of_the_package():
    assert in_the_package(REMOVED) == []


# what a run does not need: dataclasses loads inspect and ast, typing is
# replaced by collections.abc, a --jobs pool forks with os.fork alone,
# and the class walk reads its packed tables through memoryview, not array
NOT_IMPORTED = {"array", "dataclasses", "inspect", "multiprocessing", "typing"}

FOOTPRINT = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import invlab, invlab.cli
on_import = sorted(set(sys.modules) - before)
os.cpu_count, forks, fork = lambda: 2, [], os.fork
os.fork = lambda: forks.append(1) or fork()
with contextlib.redirect_stdout(io.StringIO()):
    code = invlab.cli.main(["experiment", *sys.argv[2:], "--deterministic"])
print(json.dumps({"on_import": on_import, "after_run": sorted(sys.modules), "code": code,
                  "forks": len(forks)}))
"""


def footprint(*argv) -> dict:
    # -S skips site, so no .pth file imports anything first
    src = os.path.dirname(os.path.dirname(invlab.__file__))
    return json.loads(subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT, src, *argv],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout)


def test_import_and_serial_run_load_only_what_they_use():
    report = footprint("direction", "--n-max", "3")
    assert "invlab.cli" in report["on_import"]
    assert NOT_IMPORTED & set(report["on_import"]) == set()
    assert (report["code"], report["forks"]) == (0, 0)
    assert "multiprocessing" not in report["after_run"]


def test_a_pool_run_loads_no_multiprocessing():
    # the pool forks its children itself
    report = footprint("thm13", "--n-max", "6", "--jobs", "2")
    assert report["code"] == 0 and report["forks"] > 0
    assert NOT_IMPORTED & set(report["after_run"]) == set()


# every public int parameter: (call taking it, what its refusal names, low,
# high, or None where no ValueError states an upper limit)
INT_PARAMETERS = {
    "Digraph": (lambda n: Digraph(n, ()), "vertex count", 0, MAX_VERTICES),
    "InversionFamily": (lambda n: InversionFamily(n, ()), "host size", 0, MAX_VERTICES),
    "transitive": (construct.transitive, "vertex count", 0, MAX_VERTICES),
    "qn": (construct.qn, "vertex count", 1, MAX_VERTICES),
    "qn_family": (construct.qn_family, "vertex count", 1, MAX_VERTICES),
    # above MAX_ENUM_VERTICES the refusal is a ResourceLimitError
    "nonisomorphic_tournaments": (nonisomorphic_tournaments, "vertex count", 0, None),
    "TournamentClasses": (TournamentClasses, "vertex count", 0, None),
    "max_k": (lambda k: SearchOptions(max_k=k), "max_k", 0, solver.MAX_K),
    "budget": (lambda b: SearchOptions(budget=b), "budget", 1, None),
    "exists_family": (lambda k: solver.exists_family(c3(), k), "family size", 0, solver.MAX_K),
}


def _int_refusals():
    for name, (call, what, low, high) in INT_PARAMETERS.items():
        for value in (True, 2.0, "2"):
            yield pytest.param(call, value, f"{what} must be an int, got {value!r}",
                               id=f"{name}-{value!r}")
        below = f"at least {low}" if high is None else f"in {low}..{high}"
        yield pytest.param(call, low - 1, f"{what} must be {below}, got {low - 1}",
                           id=f"{name}-below")
        if high is not None:
            yield pytest.param(call, high + 1, f"{what} must be in {low}..{high}, got {high + 1}",
                               id=f"{name}-above")


@pytest.mark.parametrize("call,value,message", _int_refusals())
def test_int_parameter_refusal(call, value, message):
    # one rule and one wording for every int argument: a bool, a float or a
    # string is refused as a ValueError, not a TypeError from range or <<
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == message


C3_RESULT = solver.inv_exact(c3())

# every public mask and vertex-index parameter: (call taking it, what its
# refusal names, width, and whether it is an index, a bit position, rather
# than a mask)
MASK_PARAMETERS = {
    "Digraph-row": (lambda r: Digraph(3, (r, 0, 0)), "row 0", 3, False),
    "from_arcs-tail": (lambda u: Digraph.from_arcs(3, [(u, 0)]), "arc endpoint", 3, True),
    "from_arcs-head": (lambda v: Digraph.from_arcs(3, [(0, v)]), "arc endpoint", 3, True),
    "has_arc-tail": (lambda u: c3().has_arc(u, 0), "vertex", 3, True),
    "has_arc-head": (lambda v: c3().has_arc(0, v), "vertex", 3, True),
    "induced": (lambda X: c3().induced(X), "vertex set", 3, False),
    "invert": (lambda X: invert(c3(), X), "set 0", 3, False),
    "InversionFamily": (lambda s: InversionFamily(3, (0, s)), "set 1", 3, False),
    "from_vertex_lists": (
        lambda v: InversionFamily.from_vertex_lists(3, [[0], [v]]), "vertex in set 1", 3, True
    ),
    "min_gram_dim-row": (lambda r: f2.min_gram_dim((0, r)), "row 1", 2, False),
    "gram_factor-row": (lambda r: f2.gram_factor((r,)), "row 0", 1, False),
    "gram_of": (lambda u: f2.gram_of([u]), "vector 0", f2.MAX_WIDTH, False),
    # the lower bound's first vertex, where its mask once was
    "canonical-vertex": (
        lambda v: TournamentClasses(3).canonical(c3(), (0, v, 2)), "vertex", 3, True,
    ),
    "inv_exact-lower-mask": (
        lambda v: solver.inv_exact(c3(), SearchOptions(lower=Sub((v, 1, 2), c3(), C3_RESULT))),
        "lower bound vertex", 3, True,
    ),
}


# calls that once raised a TypeError or MemoryError, reported the wrong
# fault, answered outside the graph or were accepted
MASK_CALLS = {
    "Digraph-float-row": (lambda: Digraph(2, (1.5, 0)), "row 0 must be an int, got 1.5"),
    "Digraph-bool-row": (lambda: Digraph(2, (True, 0)), "row 0 must be an int, got True"),
    "from_arcs-float": (lambda: Digraph.from_arcs(3, [(0, 1.5)]),
                        "arc endpoint must be an int, got 1.5"),
    "from_arcs-huge": (lambda: Digraph.from_arcs(3, [(0, 10**30)]),
                       f"arc endpoint must be in range(3), got {10**30}"),
    "from_vertex_lists-float": (lambda: InversionFamily.from_vertex_lists(3, [[1.5]]),
                                "vertex in set 0 must be an int, got 1.5"),
    "from_vertex_lists-bool": (lambda: InversionFamily.from_vertex_lists(3, [[True]]),
                               "vertex in set 0 must be an int, got True"),
    "min_gram_dim-float": (lambda: f2.min_gram_dim((1.5,)), "row 0 must be an int, got 1.5"),
    "min_gram_dim-bool": (lambda: f2.min_gram_dim((True,)), "row 0 must be an int, got True"),
    "gram_of-float": (lambda: f2.gram_of([1.5]), "vector 0 must be an int, got 1.5"),
    "has_arc-head-5": (lambda: c3().has_arc(0, 5), "vertex must be in range(3), got 5"),
    "has_arc-tail-5": (lambda: c3().has_arc(5, 0), "vertex must be in range(3), got 5"),
    "has_arc-head-negative": (lambda: c3().has_arc(0, -1), "vertex must be in range(3), got -1"),
    "parse_family-5000-digits": (lambda: parse_family("9" * 5000, 3),
                                 f"vertex in set 0 must be in range(3), got {'9' * 5000}"),
    "parse_family-5000-zeros": (lambda: parse_family("0" * 5000 + "7", 3),
                                "vertex in set 0 must be in range(3), got 7"),
}


def _mask_refusals():
    for name, (call, what, width, index) in MASK_PARAMETERS.items():
        bound = f"range({width})" if index else f"range(2**{width})"
        past = width if index else 1 << width
        for value in (True, 1.5, "1"):
            yield pytest.param(call, value, f"{what} must be an int, got {value!r}",
                               id=f"{name}-{value!r}")
        for label, value in (("negative", -1), ("past-width", past), ("huge", 10**30)):
            yield pytest.param(call, value, f"{what} must be in {bound}, got {value}",
                               id=f"{name}-{label}")
    # the family text holds only digit tokens, so only its range is checked
    for n, value in ((3, 3), (3, 10**30), (2, 99999999999999999999)):
        yield pytest.param(lambda v, n=n: parse_family(f"{v}\n", n), value,
                           f"vertex in set 0 must be in range({n}), got {value}",
                           id=f"parse_family-{value}")
    for name, (call, message) in MASK_CALLS.items():
        yield pytest.param(lambda _, call=call: call(), None, message, id=name)


@pytest.mark.parametrize("call,value,message", _mask_refusals())
def test_mask_parameter_refusal(call, value, message):
    # one rule and one wording for every vertex set, row, vector and vertex
    # index: no TypeError from >> or <<, no bool read as a vertex, and no
    # MemoryError from shifting by a huge index
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == message


def _valid_outputs():
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randrange(8)
        rows = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.7:
                    if rng.random() < 0.5:
                        rows[u] |= 1 << v
                    else:
                        rows[v] |= 1 << u
        D = Digraph(n, rows)
        X = rng.getrandbits(n) if n else 0
        F = InversionFamily.from_vertex_lists(
            n, [rng.sample(range(n), rng.randrange(n + 1)) for _ in range(rng.randrange(4))]
        )
        M = f2.gram_of([rng.getrandbits(n) for _ in range(n)])
        cols = rng.sample(range(n), n)
        yield (D, Digraph.from_arcs(n, list(D.arcs())), D.induced(X), invert(D, X),
               [D.has_arc(u, v) for u in range(n) for v in range(n)],
               F, parse_family(dump_family(F), n), M, f2.min_gram_dim(M),
               f2._free_diag_bound(rows, cols, n, n + 2),
               f2._free_diag_bound([M[c] for c in cols[: n // 2]], cols[: n // 2], n, n + 2))
    yield compose_family(
        transitive(2), InversionFamily(2, ()), [transitive(2), c3()],
        [InversionFamily(2, ()), InversionFamily(3, (0b110,))],
    )


def test_mask_rule_leaves_valid_inputs_unchanged():
    # the digest the same seeded inputs gave with the per-site range checks
    # that check_masks replaced: the same digraphs, families, ranks and (k, d),
    # with each family's text round trip reading back the family itself, and
    # the half block's (k, d) by brute force over its symmetric completions
    digest = hashlib.sha256(repr(list(_valid_outputs())).encode()).hexdigest()
    assert digest == "0aec6447b93359a4018a03c7daaf2492cbd06f70d2a64b54e06c1910c6555355"
