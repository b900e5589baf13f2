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
# searches or raises
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
