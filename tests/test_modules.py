"""Module-level invariants that hold across the whole package."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import invlab
from invlab import construct, f2, solver
from invlab.construct import c3
from invlab.digraph import MAX_VERTICES, Digraph, InversionFamily, nonisomorphic_tournaments
from invlab.solver import SearchOptions


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
# evaluate or print, free_diag_bound is the one free-diagonal bound, a
# GF(2) vector is a plain int that the assignment search turns into the
# family it returns, a symmetric matrix is a tuple of row ints that
# gram_factor and min_gram_dim both read through one rank-one peel, and
# a sweep checker returns (holds, detail) on resolved values only, while
# the sweep itself reports an unresolved one as UNKNOWN, and the sweep
# answers kjoin's even-weight criterion as one more ask, so no checker
# searches or raises; every int argument is refused by errors.check_int,
# and one solver._result builds every solver result
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
# replaced by collections.abc, only a --jobs pool needs multiprocessing,
# and the class walk reads its packed tables through memoryview, not array
NOT_IMPORTED = {"array", "dataclasses", "inspect", "multiprocessing", "typing"}

FOOTPRINT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import invlab, invlab.cli
on_import = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()):
    code = invlab.cli.main(["experiment", "direction", "--n-max", "3", "--deterministic"])
print(json.dumps({"on_import": on_import, "after_run": sorted(sys.modules), "code": code}))
"""


def test_import_and_serial_run_load_only_what_they_use():
    # -S skips site, so no .pth file imports anything first
    src = os.path.dirname(os.path.dirname(invlab.__file__))
    out = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT, src],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    report = json.loads(out)
    assert "invlab.cli" in report["on_import"]
    assert NOT_IMPORTED & set(report["on_import"]) == set()
    assert report["code"] == 0
    assert "multiprocessing" not in report["after_run"]


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
    "max_k": (lambda k: SearchOptions(max_k=k), "max_k", 0, solver.MAX_K),
    "budget": (lambda b: SearchOptions(budget=b), "budget", 1, None),
    "exists_family": (lambda k: solver.exists_family(c3(), k), "family size", 0, solver.MAX_K),
    "free_diag_bound-width": (lambda w: f2.free_diag_bound([], [], w), "width", 0, f2.MAX_WIDTH),
    "free_diag_bound-cap": (lambda c: f2.free_diag_bound([], [], 0, c), "cap", 0, None),
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
