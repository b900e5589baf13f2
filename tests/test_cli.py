"""Command-line behaviour: sources, formats, exit codes, experiments."""

import argparse
import hashlib
import os
import random
import re
import shlex
import subprocess
import sys
import time

import pytest

import invlab

import helpers

from invlab import cli, construct, digraph, solver, sweep
from invlab.construct import MAX_EXPR_DEPTH
from invlab.construct import qn, qn_family
from invlab.digraph import dump_digraph, dump_family
from invlab.errors import ResourceLimitError
from invlab.f2 import dump_matrix
from invlab.solver import SearchOptions


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def engine(results=None, opts=None) -> sweep.Sweep:
    """A sweep run under ``opts``, by default the default limits with no
    certificates, whose table of resolved results is ``results`` itself,
    not a copy, or empty."""
    run = sweep.Sweep(SearchOptions() if opts is None else opts)
    if results is not None:
        run.results = results
    return run


@pytest.fixture
def reference_solver(monkeypatch):
    # the search before forward checking, whose node counts older pins record
    helpers.use_reference_search(monkeypatch)


@pytest.fixture
def triangle_reference(monkeypatch):
    # the search before root bans, whose trees the older pins record
    helpers.use_triangle_reference(monkeypatch)


@pytest.fixture
def root_ban_reference(monkeypatch):
    # the search with bans at the root alone, whose trees the root-ban pins record
    helpers.use_root_ban_reference(monkeypatch)


@pytest.fixture
def reference_levels(monkeypatch):
    # every level searched from k=0, as the older forward-checked pins record
    helpers.use_reference_levels(monkeypatch)


@pytest.fixture
def plain_order(monkeypatch):
    # every level in the plain vertex order, as the older level-1 pins record
    helpers.use_plain_order(monkeypatch)


@pytest.fixture
def unbounded_joins(monkeypatch):
    # joins solved from k=0 with no certificates, as older pins record
    helpers.use_unbounded_joins(monkeypatch)


@pytest.fixture
def largest_part_only(monkeypatch):
    # no bound from one-vertex deletions, as older sweep pins record
    helpers.use_largest_part_only(monkeypatch)


@pytest.fixture
def one_vertex_blowups(monkeypatch):
    # blow-ups bounded by one-vertex deletions, not cores, as older pins record
    helpers.use_one_vertex_blowups(monkeypatch)


@pytest.fixture
def no_deletion_upper(monkeypatch):
    # no upper family from the deletions' witnesses, as older sweep pins record
    helpers.use_no_deletion_upper(monkeypatch)


class TestInvCommand:
    def test_triangle(self, capsys, reference_solver):
        code, out, _ = run(capsys, "inv", "expr:c3", "--deterministic")
        assert code == 0
        assert out.splitlines()[0] == "inv=1 k_proof=0_exhausted backend=assign nodes=10"

    def test_triangle_forward_checked(self, capsys, reference_levels):
        # k=0: the third vertex's mask empties after two nodes
        code, out, _ = run(capsys, "inv", "expr:c3", "--deterministic")
        assert code == 0
        assert out.splitlines()[0] == "inv=1 k_proof=0_exhausted backend=assign nodes=7"

    def test_triangle_level_zero_by_peel(self, capsys):
        # k=0 is one acyclicity peel, at no node: k=1 alone is searched
        code, out, _ = run(capsys, "inv", "expr:c3", "--deterministic")
        assert code == 0
        assert out.splitlines()[0] == "inv=1 k_proof=0_exhausted backend=assign nodes=5"

    def test_transitive_six(self, capsys):
        # no level lies below 0, so there is none to have exhausted, and
        # the peel that finds the graph acyclic costs no node
        code, out, _ = run(capsys, "inv", "expr:tt(6)", "--deterministic")
        assert (code, out) == (0, "inv=0 k_proof=none backend=assign nodes=0\n")

    def test_cyclic_with_max_k_zero_costs_no_node(self, capsys):
        code, out, _ = run(capsys, "inv", "expr:c3", "--max-k", "0", "--deterministic")
        assert (code, out) == (2, "inv=unknown k_exhausted=0 backend=assign nodes=0\n")

    def test_triple_join(self, capsys):
        code, out, _ = run(capsys, "inv", "expr:join(c3, c3, c3)", "--deterministic")
        assert code == 0 and out.startswith("inv=3 ")

    def test_order_backend(self, capsys):
        code, out, _ = run(
            capsys, "inv", "expr:qn(5)", "--backend", "order", "--deterministic"
        )
        assert code == 0 and out.startswith("inv=2 ") and "backend=order" in out

    def test_order_backend_prints_its_own_witness(self, capsys):
        # the peel of the best order's flip matrix, not an assignment search's
        code, out, _ = run(
            capsys, "inv", "expr:qn(6)", "--backend", "order", "--deterministic"
        )
        head, family = out.split("\n", 1)
        assert code == 0 and head.startswith("inv=2 ")
        assert family == dump_family(qn_family(6))

    def test_package_runs_as_a_module(self, capsys):
        argv = ["inv", "expr:c3", "--deterministic"]
        code, out, _ = run(capsys, *argv)
        src = os.path.dirname(os.path.dirname(invlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "invlab", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert code == 0 and (proc.returncode, proc.stdout) == (code, out)

    def test_bounded_unknown_exit_two(self, capsys):
        code, out, _ = run(
            capsys, "inv", "expr:c3", "--max-k", "0", "--deterministic"
        )
        assert code == 2 and out.startswith("inv=unknown k_exhausted=0")

    def test_budget_exit_two(self, capsys):
        code, out, _ = run(
            capsys, "inv", "expr:join(c3, c3)", "--budget", "3", "--deterministic"
        )
        assert code == 2 and out.startswith("inv=unknown")

    def test_budget_counts_the_whole_solve(self, capsys, reference_solver):
        # qn(10) needs 27615 nodes over its five k levels
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "27000", "--deterministic"
        )
        assert code == 2 and out.startswith("inv=unknown reason=")
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "27615", "--deterministic"
        )
        assert code == 0 and out.startswith("inv=4 ") and "nodes=27615" in out

    def test_budget_counts_the_whole_forward_checked_solve(self, capsys, reference_levels):
        # qn(10) needs 2 + 22 + 220 + 6918 + 30 = 7192 nodes
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "7191", "--deterministic"
        )
        assert code == 2 and out.startswith("inv=unknown reason=")
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "7192", "--deterministic"
        )
        assert code == 0 and out.startswith("inv=4 ") and "nodes=7192" in out

    def test_budget_counts_the_whole_solve_from_level_one(self, capsys, plain_order):
        # with level 0 decided by the peel, qn(10) needs 22 + 220 + 6918 + 30
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "7189", "--deterministic"
        )
        assert (code, out) == (2, "inv=unknown reason=assignment search exceeded 7189 nodes\n")
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "7190", "--deterministic"
        )
        assert code == 0
        assert out.startswith("inv=4 k_proof=3_exhausted backend=assign nodes=7190\n")

    @pytest.mark.usefixtures("triangle_reference")
    def test_budget_counts_the_triangle_solve(self, capsys):
        # every level breaks ties by cyclic triangles: qn(9) needs
        # 18 + 158 + 4038 + 32 nodes, as the CI budget step checks
        code, out, _ = run(
            capsys, "inv", "expr:qn(9)", "--budget", "4245", "--deterministic"
        )
        assert (code, out) == (2, "inv=unknown reason=assignment search exceeded 4245 nodes\n")
        code, out, _ = run(
            capsys, "inv", "expr:qn(9)", "--budget", "4246", "--deterministic"
        )
        assert code == 0
        assert out.startswith("inv=4 k_proof=3_exhausted backend=assign nodes=4246\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("experiment", "thm13", "--n-max", "x"),  # not an int
            ("inv", "expr:c3", "--backend", "subset"),  # not a backend
            ("inv",),  # no graph
            ("experiment",),  # no experiment name
            (),  # no command
        ],
    )
    def test_argparse_usage_error_exit_one(self, capsys, argv):
        # argparse's own exit status 2 would read as "unknowns present"
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "error:" in err

    def test_help_exit_zero(self, capsys):
        code, out, _ = run(capsys, "inv", "--help")
        assert code == 0 and "--backend {assign,order}" in out

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run(capsys, "inv", "expr:qn(")
        assert code == 1 and "offset 3" in err

    def test_construction_refusal_names_its_offset(self, capsys):
        # tt(65) is past the vertex limit: refused at its own offset, 11
        code, out, err = run(capsys, "inv", "expr:dijoin(c3, tt(65))")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert lines[0].endswith("at offset 11")

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "inv", "/no/such/file")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("inv", "", "empty file"),
            ("inv", "\n  \n", "empty file"),
            ("inv", "3\n000\n000\n", "expected 3 rows, found 2"),
            ("gram", "3\n100\n010\n", "expected 3 rows, found 2"),
        ],
    )
    def test_short_file_exit_one(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "short.txt"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_elapsed_only_without_deterministic(self, capsys):
        _, timed, _ = run(capsys, "inv", "expr:c3")
        _, plain, _ = run(capsys, "inv", "expr:c3", "--deterministic")
        head, *rest = timed.splitlines()
        assert re.fullmatch(r"(.+) elapsed=\d+\.\d{3}s", head)[1] == plain.splitlines()[0]
        assert rest == plain.splitlines()[1:] and "elapsed=" not in plain

    def test_file_and_enc_sources(self, capsys, tmp_path):
        path = tmp_path / "g.dg"
        path.write_text(dump_digraph(qn(5)))
        code, out, _ = run(capsys, "inv", str(path), "--deterministic")
        assert code == 0 and out.startswith("inv=2 ")
        code, out2, _ = run(capsys, "inv", "enc:3:2.4.1", "--deterministic")
        assert code == 0 and out2.startswith("inv=1 ")


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
with open(README, encoding="utf-8") as _fh:
    README_TEXT = _fh.read()
# the CLI block's `invlab inv <expr: source>  # <start of stdout>[ ...]` lines
INV_EXAMPLES = re.findall(
    r"^invlab (inv (?:'expr:[^']*'|expr:\S+)) +# (.+?)(?: \.\.\.)?$", README_TEXT, re.M
)


class TestReadmeExamples:
    """What the README says an example prints is what it prints."""

    def test_the_cli_block_has_inv_examples(self):
        assert len(INV_EXAMPLES) >= 2

    @pytest.mark.parametrize("command,stdout", INV_EXAMPLES, ids=[c for c, _ in INV_EXAMPLES])
    def test_inv_example_stdout(self, capsys, command, stdout):
        code, out, err = run(capsys, *shlex.split(command))
        assert code == 0 and err == ""
        assert out.startswith(stdout)

    def test_usage_error_example(self, capsys):
        prose = " ".join(README_TEXT.split())  # the example may wrap
        found = re.search(r"`inv '(expr:[^']*)'` ends with `(error: [^`]*)`", prose)
        assert found is not None
        code, out, err = run(capsys, "inv", found[1])
        assert code == 1 and out == ""
        assert err == found[2] + "\n"

    def test_experiment_refusal_examples(self, capsys):
        prose = " ".join(README_TEXT.split())
        found = re.findall(r"`experiment ([^`]*)` ends with `(error: [^`]*)`", prose)
        assert len(found) >= 2
        for argv, error in found:
            code, out, err = run(capsys, "experiment", *argv.split())
            assert (code, out, err) == (1, "", error + "\n")


class TestInvLimits:
    @pytest.mark.parametrize("backend", solver.BACKENDS)
    def test_even_weight_only_is_not_an_option(self, capsys, monkeypatch, backend):
        # a restricted search reports a value that is not inv (inv(c3) = 1,
        # even-weight vectors need 3), so inv offers no such flag
        def refuse(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(solver, "inv_exact", refuse)
        monkeypatch.setattr(solver, "inv_order_backend", refuse)
        code, out, err = run(
            capsys, "inv", "expr:c3", "--backend", backend, "--even-weight-only",
            "--deterministic",
        )
        assert code == 1 and out == ""
        assert "unrecognized arguments: --even-weight-only" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--max-k", "13"), "--max-k must be in 0..12, got 13"),
            (("--max-k", "-1"), "--max-k must be in 0..12, got -1"),
            (("--budget", "0"), "--budget must be at least 1, got 0"),
        ],
        ids=["max-k-13", "max-k-negative", "budget-0"],
    )
    def test_search_flag_out_of_range_exit_one(self, capsys, monkeypatch, flags, message):
        # the refusal names the flag, not the SearchOptions field behind it
        def refuse(*args, **kwargs):
            raise AssertionError("the solver ran before the flags were checked")

        monkeypatch.setattr(solver, "inv_exact", refuse)
        code, out, err = run(capsys, "inv", "expr:c3", *flags, "--deterministic")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("expr", ["tt(1000000000)", "qn(1000000000)"])
    def test_above_vertex_limit_exit_one(self, capsys, expr):
        code, out, err = run(capsys, "inv", "expr:" + expr)
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(digraph.MAX_VERTICES) in err

    def test_order_backend_non_tournament_exit_one(self, capsys, tmp_path):
        path = tmp_path / "path.dg"
        path.write_text(dump_digraph(digraph.Digraph.from_arcs(3, [(0, 1), (1, 2)])))
        code, out, err = run(capsys, "inv", str(path), "--backend", "order")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_order_backend_above_its_cap_exit_two(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the order search ran before the cap was checked")

        monkeypatch.setattr(solver, "_free_diag_bound", refuse)
        code, out, _ = run(capsys, "inv", "expr:qn(13)", "--backend", "order")
        assert code == 2 and out.startswith("inv=unknown reason=")
        assert str(solver.ORDER_BACKEND_MAX_N) in out

    @pytest.mark.parametrize("max_k", range(4))
    def test_order_backend_honors_max_k(self, capsys, max_k):
        code, out, _ = run(
            capsys, "inv", "expr:qn(7)", "--backend", "order",
            "--max-k", str(max_k), "--deterministic",
        )
        if max_k < 3:  # inv(qn(7)) = 3
            assert code == 2
            assert out.startswith(f"inv=unknown k_exhausted={max_k} backend=order ")
        else:
            assert code == 0 and out.startswith("inv=3 k_proof=2_exhausted backend=order ")

    def test_order_backend_budget_exit_two(self, capsys):
        code, out, _ = run(
            capsys, "inv", "expr:qn(8)", "--backend", "order", "--budget", "100"
        )
        assert code == 2 and out.startswith("inv=unknown reason=")
        assert "100 nodes" in out

    def test_order_backend_budget_boundary(self, capsys):
        # each prefix bounded by the least rank of any symmetric matrix
        # holding its rows: qn(8)'s walk takes 911 nodes, 1,230 by rank alone
        argv = ["inv", "expr:qn(8)", "--backend", "order", "--deterministic"]
        code, out, _ = run(capsys, *argv, "--budget", "910")
        assert (code, out) == (2, "inv=unknown reason=order search exceeded 910 nodes\n")
        code, out, _ = run(capsys, *argv, "--budget", "911")
        assert code == 0 and out.startswith("inv=3 k_proof=2_exhausted backend=order nodes=911\n")

    def test_deep_nesting_exit_one(self, capsys):
        deep = "rev(" * 3000 + "c3" + ")" * 3000
        code, out, err = run(capsys, "inv", "expr:" + deep)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "nested deeper" in err
        assert str(MAX_EXPR_DEPTH) in err


class TestVerifyCommand:
    def test_qn_family_acyclic(self, capsys, tmp_path):
        g = tmp_path / "q9.dg"
        f = tmp_path / "q9.fam"
        g.write_text(dump_digraph(qn(9)))
        f.write_text(dump_family(qn_family(9)))
        code, out, _ = run(capsys, "verify", str(g), str(f))
        assert code == 0 and out.startswith("acyclic order=")

    def test_empty_family_reports_cycle(self, capsys, tmp_path):
        f = tmp_path / "empty.fam"
        f.write_text("")
        code, out, _ = run(capsys, "verify", "expr:c3", str(f))
        assert code == 3 and out.strip() == "cyclic cycle=0->1->2->0"

    def test_family_twice_restores_verdict(self, capsys, tmp_path):
        fam = qn_family(9)
        doubled = dump_family(fam) + dump_family(fam)
        f = tmp_path / "twice.fam"
        f.write_text(doubled)
        code, out, _ = run(capsys, "verify", "expr:qn(9)", str(f))
        assert code == 3 and out.startswith("cyclic")  # back to the original graph

    def test_out_of_range_exit_one(self, capsys, tmp_path):
        f = tmp_path / "bad.fam"
        f.write_text("0 9\n")
        code, _, err = run(capsys, "verify", "expr:c3", str(f))
        assert code == 1 and err == "error: vertex in set 0 must be in range(3), got 9\n"

    def test_token_past_the_int_digit_limit_exit_one(self, capsys, tmp_path):
        # 5,000 digits: refused by the range rule before int() sees it
        f = tmp_path / "big.fam"
        f.write_text("0 " + "7" * 5000 + "\n")
        code, out, err = run(capsys, "verify", "expr:c3", str(f))
        assert (code, out) == (1, "")
        assert err == f"error: vertex in set 0 must be in range(3), got {'7' * 5000}\n"

    def test_empty_graph_refusal_names_no_range(self, capsys, tmp_path):
        f = tmp_path / "one.fam"
        f.write_text("0\n")
        code, out, err = run(capsys, "verify", "enc:0:", str(f))
        assert (code, out) == (1, "")
        assert err == "error: vertex in set 0 must be in range(0), got 0\n"


class TestGramCommand:
    def test_identity_three(self, capsys, tmp_path):
        m = tmp_path / "i3.mat"
        m.write_text(dump_matrix((0b001, 0b010, 0b100)))
        code, out, _ = run(capsys, "gram", str(m))
        assert code == 0
        assert out.splitlines()[0] == "factored k=3 verified=1"
        assert "min_gram_dim=3" in out

    @pytest.mark.parametrize(
        "make,want",
        [
            (
                lambda: (0b001, 0b010, 0b100),
                "factored k=3 verified=1\n100\n010\n001\nmin_gram_dim=3\n",
            ),
            (
                # 10101 / 01111 / 11111 / 01101 / 11110
                lambda: helpers.random_symmetric(random.Random(5), 5),
                "factored k=5 verified=1\n10000\n01000\n11100\n01010\n11101\n"
                "min_gram_dim=5\n",
            ),
        ],
        ids=["identity3", "random5"],
    )
    def test_columns_are_pinned(self, capsys, tmp_path, make, want):
        # each column prints as its n coordinates, coordinate 0 first
        m = tmp_path / "m.mat"
        m.write_text(dump_matrix(make()))
        code, out, _ = run(capsys, "gram", str(m))
        assert (code, out) == (0, want)

    def test_infeasible_pair(self, capsys, tmp_path):
        m = tmp_path / "alt.mat"
        m.write_text(dump_matrix((0b10, 0b01)))
        code, out, _ = run(capsys, "gram", str(m))
        assert code == 0
        assert "infeasible" in out and "min_gram_dim=3" in out

    def test_failed_verification_exit_three(self, capsys, monkeypatch, tmp_path):
        # a factorization whose Gram matrix is not the input is a finding
        monkeypatch.setattr(cli.f2, "gram_of", lambda cols: ())
        m = tmp_path / "i3.mat"
        m.write_text(dump_matrix((0b001, 0b010, 0b100)))
        code, out, err = run(capsys, "gram", str(m))
        assert (code, out, err) == (3, "", "error: factorization failed verification\n")

    def test_asymmetric_exit_one(self, capsys, tmp_path):
        m = tmp_path / "asym.mat"
        m.write_text("2\n01\n00\n")
        code, _, err = run(capsys, "gram", str(m))
        assert code == 1 and "symmetric" in err

    def test_random_odd_always_factors(self, capsys, tmp_path):
        import random

        from helpers import random_symmetric

        rng = random.Random(31)
        for _ in range(5):
            M = random_symmetric(rng, 7)
            m = tmp_path / "r.mat"
            m.write_text(dump_matrix(M))
            code, out, _ = run(capsys, "gram", str(m))
            assert code == 0 and out.startswith("factored k=7 verified=1")


class TestExperiments:
    def test_qn_experiment(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "qn", "--n-max", "7", "--deterministic"
        )
        assert code == 0
        assert "total=7 pass=7 fail=0 unknown=0" in out

    def test_bounds_experiment(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "bounds", "--n-max", "4", "--deterministic"
        )
        assert code == 0 and "n=4 invn=1" in out

    def test_thm13_small(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "thm13", "--n-max", "5", "--deterministic"
        )
        assert code == 0
        assert "fail=0 unknown=0" in out and "total=3" in out

    def test_direction_small(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "direction", "--n-max", "4", "--deterministic"
        )
        assert code == 0 and "fail=0 unknown=0" in out

    def test_abnormal(self, capsys):
        code, out, _ = run(capsys, "experiment", "abnormal", "--deterministic")
        assert code == 0 and "total=3 pass=3" in out

    def test_kjoin(self, capsys):
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 0 and "total=4 pass=4" in out

    def test_help_describes_every_experiment(self, capsys):
        code, out, _ = run(capsys, "experiment", "--help")
        assert code == 0
        for name, (*_, doc) in cli.EXPERIMENTS.items():
            assert re.search(rf"^  {re.escape(name)} +{re.escape(doc)}$", out, re.M), name
        flat = " ".join(out.split())  # however the help wraps
        assert "--left-n LEFT_N order of the left tournaments (conj-direction)" in flat
        assert "--right-n RIGHT_N order of the right tournaments (conj-direction)" in flat

    @pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
    def test_only_the_pool_task_searches(self, capsys, monkeypatch, name):
        # a checker gets answers; every search is a task of the sweep's map
        callers = set()
        for attr in ("inv_exact", "inv_order_backend", "exists_family"):
            def spy(*args, real=getattr(solver, attr), **kwargs):
                callers.add(sys._getframe(1).f_code.co_name)
                return real(*args, **kwargs)

            monkeypatch.setattr(solver, attr, spy)
        code, _, _ = run(capsys, "experiment", name, "--deterministic")
        assert code == 0 and callers == {"_run_one"}

    def test_elapsed_line_only_without_deterministic(self, capsys):
        _, timed, _ = run(capsys, "experiment", "kjoin")
        _, plain, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        *report, last = timed.splitlines()
        assert re.fullmatch(r"elapsed=\d+\.\d\ds", last)
        assert report == plain.splitlines() and "elapsed=" not in plain

    @pytest.mark.parametrize(
        "family, fail",
        [
            # no set: qn(3) keeps its triangle
            (lambda n: digraph.InversionFamily(n, []),
             "instance 3,1 n=3 pair family leaves a cycle : FAIL"),
            # one set more: a one-vertex set reverses no arc, so it still decycles
            (lambda n: digraph.InversionFamily(n, [*qn_family(n).sets, 1]),
             "instance 1,1 n=1 family size 1 != 0 : FAIL"),
        ],
        ids=["cycle", "size"],
    )
    def test_qn_bad_family_is_a_fail_line(self, capsys, monkeypatch, family, fail):
        monkeypatch.setattr(construct, "qn_family", family)
        code, out, _ = run(capsys, "experiment", "qn", "--n-max", "3", "--deterministic")
        assert code == 3
        assert [line for line in out.splitlines() if line.endswith(" : FAIL")][0] == fail

    def test_thm15(self, capsys):
        code, out, _ = run(capsys, "experiment", "thm15", "--deterministic")
        assert code == 0 and "blowup_inv=4 expect=4 : PASS" in out

    def test_conj_direction(self, capsys):
        code, out, _ = run(
            capsys,
            "experiment", "conj-direction", "--left-n", "3", "--right-n", "3",
            "--deterministic",
        )
        assert code == 0 and "total=4 pass=4" in out

    def test_unknown_name_exit_one(self, capsys):
        code, out, err = run(capsys, "experiment", "nope")
        choices = " ".join(sorted(cli.EXPERIMENTS))
        assert (code, out) == (1, "")
        assert err == f"error: unknown experiment 'nope'; choices: {choices}\n"
        assert choices == "abnormal bounds conj-direction direction kjoin qn thm13 thm15"

    def test_budget_marks_unknown_exit_two(self, capsys):
        code, out, _ = run(
            capsys,
            "experiment", "direction", "--n-max", "3", "--budget", "5",
            "--deterministic",
        )
        assert code == 2 and "unknown=0" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("thm13", "--n-max", "5", "--budget", "5"),
            ("thm15", "--budget", "5"),
            ("thm13", "--n-max", "5", "--max-k", "1"),
            ("thm15", "--max-k", "0"),
        ]
        + [(name, *flags) for name in sorted(cli.EXPERIMENTS)
           for flags in (("--max-k", "0"), ("--budget", "1"))],
    )
    def test_unresolved_base_is_unknown_exit_two(self, capsys, argv):
        # base values are solved by the checker, so an exhausted budget or
        # max-k is an UNKNOWN line, not a traceback or a dropped instance,
        # and its detail is the reason the first unresolved value has none
        code, out, _ = run(capsys, "experiment", *argv, "--deterministic")
        assert code == 2
        instances = [line for line in out.splitlines() if line.startswith("instance")]
        unknown = [line for line in instances if line.endswith(": UNKNOWN")]
        reason = re.compile(r"instance .+? (max-k: inv\(enc:[0-9a-f.:]+\) > \d+|budget: .+)"
                            r" : UNKNOWN")
        assert unknown and all(reason.fullmatch(line) for line in unknown)
        # at these limits only graphs of value 0 resolve, as at n=1 and n=2
        resolved = [line for line in instances if line not in unknown]
        assert all(line.endswith(": PASS") for line in resolved)
        if argv[0] in ("thm13", "thm15"):
            assert not resolved  # base values of 0 and 1 lie outside the theorems
        assert (f"total={len(instances)} pass={len(resolved)} fail=0"
                f" unknown={len(unknown)}") in out

    @pytest.mark.parametrize("max_k", [0, 1, 2])
    def test_max_k_line_replays(self, capsys, max_k):
        # the graph a max-k line names is unresolved at that max-k by inv too
        _, out, _ = run(capsys, "experiment", "kjoin", "--max-k", str(max_k), "--deterministic")
        named = re.findall(r" max-k: inv\((enc:\S+)\) > (\d+) : UNKNOWN$", out, re.M)
        assert named
        for enc, bound in named:
            assert bound == str(max_k)
            code, replay, _ = run(capsys, "inv", enc, "--max-k", bound, "--deterministic")
            assert code == 2 and replay.startswith(f"inv=unknown k_exhausted={max_k} ")

    def test_deterministic_reports_identical_across_jobs(self, capsys):
        _, serial, _ = run(
            capsys, "experiment", "direction", "--n-max", "3", "--deterministic"
        )
        _, parallel, _ = run(
            capsys,
            "experiment", "direction", "--n-max", "3", "--deterministic",
            "--jobs", "2",
        )
        assert serial == parallel

    def test_real_pool_matches_serial(self, capsys, monkeypatch):
        # two workers even on a one-core machine, through the real pool
        opened = []
        real_pool = sweep.Pool

        def counted_pool(processes):
            opened.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sweep, "Pool", counted_pool)
        argv = ("experiment", "thm13", "--n-max", "5", "--deterministic")
        code, serial, _ = run(capsys, *argv)
        assert code == 0 and opened == []
        code, parallel, _ = run(capsys, *argv, "--jobs", "2")
        assert code == 0 and opened == [2]
        assert parallel == serial

    def test_replayable_instances(self, capsys):
        _, out, _ = run(
            capsys, "experiment", "thm13", "--n-max", "5", "--deterministic"
        )
        enc = next(
            line.split()[1] for line in out.splitlines() if line.startswith("instance")
        )
        code, replay, _ = run(capsys, "inv", enc, "--deterministic")
        assert code == 0 and replay.startswith("inv=2 ")


class TestValueTable:
    """Checkers ask for graphs; each distinct graph is solved once per sweep."""

    # stdout sha256 of the checker-solves-its-own-graphs code, recorded
    # before the value table replaced it
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("kjoin", "--budget", "40"),
             "6e883c1dce735d73506647879a0cf1ba2624502bbb96eaf513d6e5d7f5b28d97"),
            (("direction", "--n-max", "4", "--budget", "5"),
             "9c19ec9a3d1615028ce4f1c57f75a2e4cad7ff871d09e3cd2f1b4339cb6e77e7"),
            (("conj-direction", "--left-n", "4", "--right-n", "4", "--budget", "60"),
             "d12f9b1a4e649fac9e9f3f17b820b6923caceb4902810258a88b2fc2ebc0e868"),
            # at n=6 a class past max-k comes before one past the budget, and
            # the line names the first, as a solve-as-you-read checker would
            (("bounds", "--n-max", "6", "--max-k", "1", "--budget", "50"),
             "d0b4e62e2ccc952cd18c534f5cd12874822926aa1f767e8398b2c99cb802b8ce"),
        ],
    )
    def test_budget_stdout_pinned(
        self, capsys, reference_solver, unbounded_joins, largest_part_only, argv, digest
    ):
        code, out, _ = run(capsys, "experiment", *argv, "--deterministic")
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the same sweeps on the forward-checked search, whose smaller trees
    # resolve more graphs within each budget
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("kjoin", "--budget", "40"),
             "3caae79f8b8adacd498354f94c0612d358ad809c1ef2128c57ebe17a79871fb6"),
            (("direction", "--n-max", "4", "--budget", "5"),
             "9c19ec9a3d1615028ce4f1c57f75a2e4cad7ff871d09e3cd2f1b4339cb6e77e7"),
            (("conj-direction", "--left-n", "4", "--right-n", "4", "--budget", "60"),
             "d4a903002cce9d362e07cc6a95268a95fbfac6e489e5c27b412d60da1abce5cf"),
            # at budget 50 no class runs out any more; at 20, n=5 has a class
            # past max-k and n=6 one past the budget
            (("bounds", "--n-max", "6", "--max-k", "1", "--budget", "20"),
             "4ab42235e57546428b317566489f3899a679ab96d6e01a813dedc596c9e9b227"),
        ],
    )
    def test_forward_checked_budget_stdout_pinned(
        self, capsys, reference_levels, unbounded_joins, one_vertex_blowups, argv, digest
    ):
        code, out, _ = run(capsys, "experiment", *argv, "--deterministic")
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the same sweeps with each join solved between its parts' bounds:
    # conj-direction's joins now fit the budget, and the other stdouts
    # stay as they were
    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (("kjoin", "--budget", "40"), 2,
             "3caae79f8b8adacd498354f94c0612d358ad809c1ef2128c57ebe17a79871fb6"),
            (("direction", "--n-max", "4", "--budget", "5"), 2,
             "9c19ec9a3d1615028ce4f1c57f75a2e4cad7ff871d09e3cd2f1b4339cb6e77e7"),
            (("conj-direction", "--left-n", "4", "--right-n", "4", "--budget", "60"), 0,
             "32f74e5d7dcb2274cfe7e68a74c0675bfe3fb472e9efec50eb864af2088bd8c3"),
            (("bounds", "--n-max", "6", "--max-k", "1", "--budget", "20"), 2,
             "4ab42235e57546428b317566489f3899a679ab96d6e01a813dedc596c9e9b227"),
            (("kjoin", "--max-k", "2"), 2,
             "6c4a545799229d5d404c17654e7233b561fa2983ae2c2618b985cc5a5c3ab6e6"),
        ],
    )
    def test_bounded_stdout_pinned(self, capsys, reference_levels, argv, code, digest):
        got, out, _ = run(capsys, "experiment", *argv, "--deterministic")
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the same sweeps with level 0 decided by the peel, at no node, with
    # the joins bounded and then unbounded: bounded, direction's c3 now
    # resolves within the budget (5 nodes, all at k=1), and so do the
    # joins of its four transitive bases; unbounded, conj-direction's
    # joins fit the budget, as they do bounded
    @pytest.mark.parametrize(
        "argv, code, bounded, unbounded",
        [
            (("kjoin", "--budget", "40"), 2,
             "3caae79f8b8adacd498354f94c0612d358ad809c1ef2128c57ebe17a79871fb6",
             "3caae79f8b8adacd498354f94c0612d358ad809c1ef2128c57ebe17a79871fb6"),
            (("direction", "--n-max", "4", "--budget", "5"), 2,
             "829cc8085b9dc9c03ffe64655fc8635c562d07c0dc70621f9e69fed240d46056",
             "9c19ec9a3d1615028ce4f1c57f75a2e4cad7ff871d09e3cd2f1b4339cb6e77e7"),
            (("conj-direction", "--left-n", "4", "--right-n", "4", "--budget", "60"), 0,
             "32f74e5d7dcb2274cfe7e68a74c0675bfe3fb472e9efec50eb864af2088bd8c3",
             "32f74e5d7dcb2274cfe7e68a74c0675bfe3fb472e9efec50eb864af2088bd8c3"),
            (("bounds", "--n-max", "6", "--max-k", "1", "--budget", "20"), 2,
             "4ab42235e57546428b317566489f3899a679ab96d6e01a813dedc596c9e9b227",
             "4ab42235e57546428b317566489f3899a679ab96d6e01a813dedc596c9e9b227"),
            (("kjoin", "--max-k", "2"), 2,
             "6c4a545799229d5d404c17654e7233b561fa2983ae2c2618b985cc5a5c3ab6e6",
             "6c4a545799229d5d404c17654e7233b561fa2983ae2c2618b985cc5a5c3ab6e6"),
        ],
    )
    def test_level_zero_by_peel_stdout_pinned(
        self, capsys, monkeypatch, argv, code, bounded, unbounded
    ):
        for digest in (bounded, unbounded):
            got, out, _ = run(capsys, "experiment", *argv, "--deterministic")
            assert got == code
            assert hashlib.sha256(out.encode()).hexdigest() == digest
            helpers.use_unbounded_joins(monkeypatch)

    # at max-k 2 the part's triangle dijoin (value 3) is unresolved: past
    # max-k, not past a budget, since none was set; the line names the graph
    def test_kjoin_dijoin_unresolved_pinned(self, capsys, unbounded_joins):
        code, out, _ = run(capsys, "experiment", "kjoin", "--max-k", "2", "--deterministic")
        assert code == 2
        t = construct.c3()
        dijoin = digraph.encode_digraph(construct.dijoin(t, construct.dijoin(t, t)))
        assert f"instance join(c3, dijoin(c3, c3)) max-k: inv({dijoin}) > 2 : UNKNOWN" in out
        assert "budget:" not in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6c4a545799229d5d404c17654e7233b561fa2983ae2c2618b985cc5a5c3ab6e6"
        )
        code, out, _ = run(capsys, "experiment", "kjoin", "--budget", "40", "--deterministic")
        assert code == 2 and "budget: assignment search exceeded 40 nodes" in out

    @pytest.fixture
    def solved(self, monkeypatch):
        solved = []
        inv_exact = solver.inv_exact

        def spy(D, opts=None):
            solved.append(digraph.encode_digraph(D))
            return inv_exact(D, opts)

        monkeypatch.setattr(solver, "inv_exact", spy)
        return solved

    def test_kjoin_solves_each_distinct_graph_once(self, capsys, one_vertex_blowups, solved):
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 0 and "total=4 pass=4" in out
        t = construct.c3()
        # every join of the instances is c3 => c3 or c3 => c3 => c3, and
        # so is every tightness dijoin
        asked = {
            digraph.encode_digraph(G)
            for G in (t, construct.dijoin(t, t), construct.k_join([t, t, t]))
        }
        assert len(solved) == len(set(solved)) == 3
        assert set(solved) == asked

    def test_kjoin_solves_each_distinct_graph_once_with_cores(self, capsys, solved):
        # the engine as shipped also solves, once each, the cyclic classes
        # below the parts that a core walk may read: c3 has none, and
        # c3 => c3 two of order 5, two of order 4 and c3's representative
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 0 and "total=4 pass=4" in out
        t = construct.c3()
        joins = [t, construct.dijoin(t, t), construct.k_join([t, t, t])]
        below = engine()._below(joins[:2])
        assert sorted(G.n for G in below) == [3, 4, 4, 5, 5]
        assert all(digraph.is_acyclic(G) is None for G in below)
        assert len(solved) == len(set(solved)) == 3 + 5
        assert set(solved) == {digraph.encode_digraph(G) for G in (*joins, *below)}

    def test_acyclic_hosts_are_never_asked(self, capsys, solved):
        # every kjoin ask blows up tt(2) or tt(3), of value 0 with the
        # empty family, which no map answers
        code, _, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 0 and solved
        hosts = {digraph.encode_digraph(construct.transitive(m)) for m in (2, 3)}
        assert hosts.isdisjoint(solved)
        # thm15's cyclic host is its base, answered in the first round; the
        # triangle parts are answered next, then the blow-up
        solved.clear()
        code, _, _ = run(capsys, "experiment", "thm15", "--deterministic")
        assert code == 0
        base = "enc:3:4.1.2"
        blowup = digraph.encode_digraph(construct.blow_up(digraph.decode_digraph(base),
                                                          [cli.C3] * 3))
        classes = [digraph.encode_digraph(T) for T in digraph.nonisomorphic_tournaments(3)]
        assert base in classes
        assert solved == classes + [digraph.encode_digraph(cli.C3), blowup]

    def test_each_distinct_graph_solved_once(self, capsys, one_vertex_blowups, solved):
        code, out, _ = run(
            capsys,
            "experiment", "conj-direction", "--left-n", "4", "--right-n", "4",
            "--deterministic",
        )
        assert code == 0 and "total=16 pass=16" in out
        classes = digraph.nonisomorphic_tournaments(4)
        asked = {
            digraph.encode_digraph(construct.dijoin(A, B))
            for L in classes
            for R in classes
            for A, B in ((L, R), (R, L))
        }
        # the joins' parts are answered first, once each, for their bounds
        parts = [digraph.encode_digraph(T) for T in classes]
        assert solved[:4] == parts
        assert len(solved) == len(set(solved)) == len(asked) + 4 < 2 * 16 + 4
        assert set(solved) == asked | set(parts)


# the tournament sweep's two runs and their stdout sha256, as the bench
# checks them
BENCH_SWEEPS = [
    (("direction", "--n-max", "6"),
     "aeeb38deff21a9cbabd8275f205aa36d5c8f1570cd16cf62aaccf4c035b74b69"),
    (("thm13", "--n-max", "6"),
     "d4e069f587a3ea1372f2aaeddaa614a505dda4d77086ddeeb950eaa3ad2d5d94"),
]


class TestJoinBounds:
    """Each join a sweep asks is solved between its parts' bounds."""

    @staticmethod
    def count_nodes(monkeypatch):
        # one counter shared with forked pool workers, as the bench keeps it
        import multiprocessing

        total = multiprocessing.Value("q", 0)
        inv_exact = solver.inv_exact

        def counted(D, opts=None):
            r = inv_exact(D, opts)
            with total.get_lock():
                total.value += r.nodes_explored
            return r

        monkeypatch.setattr(solver, "inv_exact", counted)
        return total

    @pytest.fixture
    def nodes(self, monkeypatch):
        return self.count_nodes(monkeypatch)

    @pytest.fixture
    def reference_nodes(self, monkeypatch):
        # the nodes of every level searched from k=0
        helpers.use_reference_levels(monkeypatch)
        return self.count_nodes(monkeypatch)

    def sweep(self, capsys, *argv):
        code, out, _ = run(capsys, "experiment", *argv, "--deterministic")
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    def test_bench_sweep_nodes_pinned(self, capsys, largest_part_only, reference_nodes):
        # 30,462 + 16,281 = 46,743 nodes with every join deepened from k=0
        for argv, digest in BENCH_SWEEPS:
            assert self.sweep(capsys, *argv) == digest
        assert reference_nodes.value == 27_466 + 14_507

    @pytest.fixture
    def plain_order_nodes(self, monkeypatch):
        # every certified level searched in the plain vertex order
        helpers.use_plain_order(monkeypatch)
        return self.count_nodes(monkeypatch)

    def test_bench_sweep_nodes_with_level_zero_by_peel(
        self, capsys, largest_part_only, plain_order_nodes
    ):
        # the same sweeps less the nodes of every level 0 searched: only
        # the parts' and bases' solves start there, since a join's lower
        # bound is at least c3's 1
        for argv, digest in BENCH_SWEEPS:
            assert self.sweep(capsys, *argv) == digest
        assert plain_order_nodes.value == 27_255 + 14_296

    @pytest.fixture
    def certified_ties_nodes(self, monkeypatch):
        # only the certified levels break ties by cyclic triangles
        helpers.use_plain_order(monkeypatch, certified_ties=True)
        return self.count_nodes(monkeypatch)

    @pytest.mark.usefixtures("triangle_reference")
    def test_bench_sweep_nodes_with_triangle_ties(
        self, capsys, largest_part_only, certified_ties_nodes
    ):
        # every join is certified, so its levels break mask-size ties by
        # cyclic triangles; the parts' and bases' plain solves are as above
        for argv, digest in BENCH_SWEEPS:
            assert self.sweep(capsys, *argv) == digest
        assert certified_ties_nodes.value == 19_697 + 8_677

    @pytest.mark.usefixtures("triangle_reference")
    def test_bench_sweep_nodes_with_triangle_ties_everywhere(
        self, capsys, largest_part_only, nodes
    ):
        # the parts' and bases' plain solves take the triangle order too
        for (argv, digest), want in zip(BENCH_SWEEPS, (19_699, 8_679)):
            nodes.value = 0
            assert self.sweep(capsys, *argv) == digest
            assert nodes.value == want

    @pytest.mark.usefixtures("triangle_reference")
    def test_pair_sweep_nodes(self, capsys, one_vertex_blowups, nodes):
        # the pair sweep the bench runs at --jobs 2, here serially
        digest = self.sweep(capsys, "conj-direction", "--left-n", "5", "--right-n", "5")
        assert digest == "73101736c6b9f4d4135ad17d7663542eaa56e0747571760df75ca743f6ff75fd"
        assert nodes.value == 62_990

    def test_a_pool_gives_the_same_stdout_and_nodes(self, capsys, monkeypatch, nodes):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        for argv, digest in BENCH_SWEEPS:
            nodes.value = 0
            assert self.sweep(capsys, *argv) == digest
            serial = nodes.value
            nodes.value = 0
            assert self.sweep(capsys, *argv, "--jobs", "2") == digest
            assert nodes.value == serial

    @pytest.fixture
    def levels(self, monkeypatch):
        # (lower value, upper width, levels searched, value) per join solve
        solves = []
        searched = []
        inv_exact = solver.inv_exact
        search = solver._search_assignment

        def level(D, k, *args, **kwargs):
            searched.append(k)
            return search(D, k, *args, **kwargs)

        def spy(D, opts=None):
            searched.clear()
            r = inv_exact(D, opts)
            if opts.upper is not None:
                solves.append((opts.lower.result.value, opts.upper.k, list(searched), r.value))
            return r

        monkeypatch.setattr(solver, "_search_assignment", level)
        monkeypatch.setattr(solver, "inv_exact", spy)
        return solves

    def test_thm13_searches_the_one_level_of_its_theorem(
        self, capsys, largest_part_only, levels
    ):
        # c3 => D for D of even value k >= 2 lies in k..k+1, so only level
        # k is searched, and it is empty, as the theorem says
        self.sweep(capsys, "thm13", "--n-max", "6")
        assert len(levels) == 3 + 33  # the classes of value 2 at orders 5 and 6
        for low, high, searched, value in levels:
            assert high == low + 1 and searched == [low] and value == high

    def test_direction_searches_one_level_per_side(self, capsys, largest_part_only, levels):
        self.sweep(capsys, "direction", "--n-max", "6")
        assert len(levels) == 2 * 76
        # a transitive D: c3 alone bounds both sides at 1, with no search
        assert sum(not searched for _, _, searched, _ in levels) == 2 * 6
        for low, high, searched, value in levels:
            assert searched == list(range(low, high))
            assert len(searched) <= 1 and low <= value <= high

    @pytest.mark.parametrize("name", ["conj-direction", "kjoin", "abnormal"])
    def test_joins_search_only_between_max_and_sum(self, capsys, levels, name):
        self.sweep(capsys, name)
        assert levels
        for low, high, searched, value in levels:
            # the search stops at the first level with a family
            assert searched == list(range(low, value if value < high else high))


class TestDeletionBounds:
    """Each sweep solve starts at the best value the table holds below
    it: a tournament's one-vertex deletions by class, and a blow-up's
    blow-up by cores (``TestCoreBounds``), or, on the one-vertex route the
    older pins here record, the blow-ups of the same host with one part's
    deletion in its place.  The older totals, with the largest part as a
    blow-up's only bound, are pinned in ``TestJoinBounds``."""

    @pytest.fixture
    def nodes(self, monkeypatch):
        return TestJoinBounds.count_nodes(monkeypatch)

    @pytest.fixture
    def solves(self, monkeypatch):
        # (order, options, levels searched, value) per solve, in solve order
        solves = []
        searched = []
        inv_exact = solver.inv_exact
        search = solver._search_assignment

        def level(D, k, *args, **kwargs):
            searched.append(k)
            return search(D, k, *args, **kwargs)

        def spy(D, opts=None):
            searched.clear()
            r = inv_exact(D, opts)
            solves.append((D.n, opts, list(searched), r.value))
            return r

        monkeypatch.setattr(solver, "_search_assignment", level)
        monkeypatch.setattr(solver, "inv_exact", spy)
        return solves

    sweep = TestJoinBounds.sweep

    @pytest.mark.parametrize(
        "argv, digest, want",
        [
            (*BENCH_SWEEPS[0], 2_937),
            (*BENCH_SWEEPS[1], 1_869),
            (("bounds", "--n-max", "6"),
             "f2684e71229867b7e6eb461d1d4e833ce23c64635a1a53d855b686403f1afd7a", 905),
            (("thm13", "--n-max", "7"),
             "332fefa516cd706e5207ea3c0721ad3372ee5e452bffe1d893da8b922a432893", 18_756),
            (("bounds", "--n-max", "7"),
             "229981acc1e58e0aed755ca722261e042d5612778c4e6c7a4a3f44b6842bfcbb", 17_792),
        ],
    )
    @pytest.mark.usefixtures("triangle_reference")
    @pytest.mark.usefixtures("no_deletion_upper")
    def test_sweep_nodes_pinned(self, capsys, nodes, argv, digest, want):
        # against 19,699, 8,679, 1,495, 107,382 and 25,842 with the
        # largest part alone, every stdout unchanged
        assert self.sweep(capsys, *argv) == digest
        assert nodes.value == want

    @pytest.mark.parametrize("argv", [argv for argv, _ in BENCH_SWEEPS])
    def test_each_level_searched_keeps_its_tree(self, capsys, monkeypatch, argv):
        # a deletion bound only skips levels: every level still searched is
        # one the largest-part route searched, in the same number of nodes
        def levels():
            found = {}
            search = solver._search_assignment

            def spy(D, k, *args, **kwargs):
                family, nodes = search(D, k, *args, **kwargs)
                found[digraph.encode_digraph(D), k] = nodes
                return family, nodes

            with monkeypatch.context() as m:
                m.setattr(solver, "_search_assignment", spy)
                digest = self.sweep(capsys, *argv)
            return digest, found

        digest, new = levels()
        helpers.use_largest_part_only(monkeypatch)
        old_digest, old = levels()
        assert digest == old_digest
        assert new.items() <= old.items() and len(new) < len(old)

    def test_pair_sweep_finds_no_deletion(self, capsys, monkeypatch, one_vertex_blowups, solves):
        # its parts are all of order 5, so no order-4 class or order-9
        # blow-up is in the table: every solve keeps the old options
        argv = ("conj-direction", "--left-n", "5", "--right-n", "5")
        self.sweep(capsys, *argv)
        new = list(solves)
        solves.clear()
        helpers.use_largest_part_only(monkeypatch)
        self.sweep(capsys, *argv)
        def bounds(solves):  # a result's elapsed time differs between runs
            return [(lower and (lower.vertices, lower.part, lower.result.value), opts.upper)
                    for _, opts, _, _ in solves for lower in (opts.lower,)]

        assert bounds(new) == bounds(solves)
        assert len(new) == 12 + 144

    @pytest.mark.usefixtures("no_deletion_upper")
    def test_thm13_joins_take_the_smaller_dijoins_value(self, capsys, solves):
        self.sweep(capsys, "thm13", "--n-max", "6")
        joins = [(n, opts, levels, value) for n, opts, levels, value in solves
                 if opts.upper is not None]
        assert len(joins) == 3 + 33  # the classes of value 2 at orders 5 and 6
        bounded = [j for j in joins if j[1].lower.part.n == j[0] - 1]
        # c3 => D, D of order 6, below by c3 => R, R a deletion of D of
        # value 2; but 2 of D's classes have no such deletion, and R of
        # order 4 never has value 2, so the order-8 joins search level 2
        assert len(bounded) == 31
        for n, opts, levels, value in joins:
            low, high = opts.lower.result.value, opts.upper.k
            assert levels == list(range(low, high)) and value == high == 3
            assert (levels == []) == (low == 3) == ((n, opts, levels, value) in bounded)

    @pytest.mark.usefixtures("no_deletion_upper")
    def test_direction_searches_at_most_one_level_per_side(self, capsys, solves):
        self.sweep(capsys, "direction", "--n-max", "6")
        joins = [(opts, levels, value) for _, opts, levels, value in solves
                 if opts.upper is not None]
        assert len(joins) == 2 * 76
        assert sum(not levels for _, levels, _ in joins) == 140
        for opts, levels, value in joins:
            low, high = opts.lower.result.value, opts.upper.k
            assert levels == list(range(low, high))
            assert len(levels) <= 1 and low <= value <= high

    @pytest.mark.usefixtures("no_deletion_upper")
    def test_plain_solves_take_their_deletions_classes(self, capsys, solves):
        self.sweep(capsys, "bounds", "--n-max", "6")
        classes = {n: set(digraph.nonisomorphic_tournaments(n)) for n in range(6)}
        assert len(solves) == 1 + 1 + 2 + 4 + 12 + 56
        for n, opts, levels, value in solves:
            if n == 1:
                assert opts.lower is None
                continue
            # the first deletion of largest value, a class of order n - 1
            assert opts.lower.part in classes[n - 1]
            assert opts.upper is None and value >= opts.lower.result.value
            assert levels == list(range(max(opts.lower.result.value, 1), value + 1))

    def test_each_phase_answers_smaller_graphs_first(self, capsys, solves):
        # the parts and bases, orders 1..6, then the dijoins, orders 4..9,
        # each phase in one map per order, the smallest first
        self.sweep(capsys, "direction", "--n-max", "6")
        orders = [n for n, _, _, _ in solves]
        cut = next(i for i in range(1, len(orders)) if orders[i] < orders[i - 1])
        assert orders[:cut] == sorted(orders[:cut]) and set(orders[:cut]) == set(range(1, 7))
        assert orders[cut:] == sorted(orders[cut:]) and set(orders[cut:]) == set(range(4, 10))

    @pytest.mark.parametrize("budget, code", [("263", 2), ("264", 0)])
    @pytest.mark.usefixtures("triangle_reference")
    def test_budget_boundary(self, capsys, budget, code):
        # direction's largest solve, a join that searches level 2 alone
        got, out, _ = run(capsys, "experiment", "direction", "--n-max", "6",
                          "--budget", budget, "--deterministic")
        assert got == code
        assert ("budget: assignment search exceeded 263 nodes" in out) == (code == 2)


class TestDeletionLower:
    """``Sweep._options``' bounds from one-vertex deletions on hand-made tables."""

    @staticmethod
    def table(graphs):
        return {sweep._key(G): solver.inv_exact(G) for G in graphs}

    def test_a_blow_up_reads_the_smaller_blow_up(self, monkeypatch):
        T = digraph.nonisomorphic_tournaments(6)[-1]
        eng = engine()
        (R, at), *_ = eng._by_class(T)
        small = cli.BlowUp(construct.transitive(2), [cli.C3, R])
        key = sweep._key(small.graph)
        eng.results = results = self.table([small.graph])
        blown = {small.graph.n: {(small.host, *small.parts): (key, small.graph)}}
        ask = cli.BlowUp(construct.transitive(2), [cli.C3, T])
        built = []
        monkeypatch.setattr(construct, "blow_up", lambda *a: built.append(a))
        lower = helpers.one_vertex_deletion_lower(ask, blown, eng)
        assert built == []  # no graph is built to probe
        assert lower == solver.Sub((0, 1, 2, *(3 + a for a in at)), small.graph, results[key])
        rows = digraph._induced_rows(ask.graph.out_rows, lower.vertices)
        assert rows == small.graph.out_rows

    def test_a_tournament_reads_its_deletions_classes(self):
        T = construct.qn(6)
        eng = engine()
        listed = eng._by_class(T)
        assert len(listed) == 6 and eng._by_class(T) is listed  # found once
        eng.results = results = self.table(R for R, _ in listed)
        lower = eng._options(T).lower
        values = [results[sweep._key(R)].value for R, _ in listed]
        R, at = listed[values.index(max(values))]  # the first of largest value
        assert lower == solver.Sub(at, R, results[sweep._key(R)])
        assert solver.inv_exact(T, SearchOptions(lower=lower)).value == 2
        eng.results = {}
        assert eng._options(T).lower is None

    @pytest.mark.parametrize(
        "graph",
        [construct.transitive(1), digraph.Digraph(3, (0b010, 0, 0)), construct.transitive(9)],
        ids=["one-vertex", "not-a-tournament", "past-the-canonical-form"],
    )
    def test_no_deletions_outside_the_canonical_form(self, graph):
        assert engine()._by_class(graph) == []

    def test_a_deletion_replaces_only_a_smaller_bound(self):
        # c3 => tt(4): c3's 1 below, and c3 => tt(3), of value 1 too, does
        # not replace it; c3 => qn(6): qn(6)'s 2 below, and c3 => qn(5),
        # of value 3, does
        eng = engine()
        for parts, proof in (([cli.C3, construct.transitive(4)], (0, 1, 2)),
                             ([cli.C3, construct.qn(6)], None)):
            ask = cli.BlowUp(construct.transitive(2), parts)
            eng.results = results = self.table(parts)
            blown = {}
            for R, _ in eng._by_class(parts[1]):
                small = cli.BlowUp(construct.transitive(2), [cli.C3, R])
                key = sweep._key(small.graph)
                results[key] = solver.inv_exact(small.graph)
                blown.setdefault(small.graph.n, {})[(small.host, *small.parts)] = (
                    key, small.graph)
            got = helpers.one_vertex_options(ask, blown, eng)
            largest = eng._blowup_options(ask)
            assert got.upper == largest.upper
            if proof is not None:
                assert got == largest and got.lower.vertices == proof
            else:
                assert got.lower.result.value == 3 > largest.lower.result.value
                assert solver.inv_exact(ask.graph, got).value == 3

    def test_a_criterion_ask_takes_no_bound(self):
        opts = SearchOptions(max_k=3)
        assert engine(opts=opts)._options((cli.C3, 1)) is opts


# the sweeps the core bound and the ladder cut, with their stdout sha256,
# which the one-vertex route prints too, and their node totals by each
CORE_SWEEPS = [
    (("conj-direction", "--left-n", "5", "--right-n", "5"),
     "73101736c6b9f4d4135ad17d7663542eaa56e0747571760df75ca743f6ff75fd", 48_888, 62_990),
    (("conj-direction", "--left-n", "4", "--right-n", "6"),
     "fd91f1044c0ec9d310c01cfa5478a7ab600b8f9992bdd9ce1c78e0f7571d98f7", 2_910, 62_536),
    (("conj-direction", "--left-n", "3", "--right-n", "6"),
     "5d0410b214c3b0d19b0ab469226f1d9aec894374bb45768e845c5ef22afd06bf", 2_910, 17_792),
    (("qn", "--n-max", "12", "--n-exact", "12"),
     "b4f6d9aa9e1db344f02d5dbf177fcb85db89da93eb2ae5bbb6bfc58f45fb2bda", 108_163, 209_889),
]

# sweeps with their solve count and the sha256 of every solve's graph, lower
# bound, upper family, value and node count, in solve order
CERTIFICATE_SWEEPS = [
    (("direction", "--n-max", "6"), 229,
     "c2820eb47c27e7b2977b9fa3ce55f4992ca5da6318d93c9c0b0852fbbc2f950a"),
    (("thm13", "--n-max", "6"), 113,
     "4c8eac8577eb8ded021fd9af2c0d9020d04a2fb8603e030a00838b1e2c818f28"),
    (("kjoin",), 8,
     "ea3c2bce4582fc5a6fcf00a089b7873d488eb9ab4852aa6141e85af447f4687a"),
    (("abnormal",), 9,
     "9a4e5025b0ac40eeb6af92e3c607577f022deae7f63a77e950c727a6906b7043"),
    (("thm15",), 4,
     "94664565145281d9a58aa668b78eacf4c39a784a40aa41a5445f07b0f8e48833"),
    (("conj-direction", "--left-n", "4", "--right-n", "6"), 544,
     "f00569a5fda9a81229aff5d2e0c366b5e6c1d8b966c0b3c7ed9e9b6aeba16d14"),
    (("conj-direction", "--left-n", "5", "--right-n", "5"), 176,
     "3321671b938972770999e0613b44c6428828d13dd17af4f421a93fdcfa756d08"),
    (("qn", "--n-max", "12", "--n-exact", "12"), 12,
     "ddb49134a925b17b374a658de7bf75d146f8a0cb6609436b5e16192aaaf36e20"),
]


class TestCoreBounds:
    """Each blow-up a sweep solves is bounded below by the blow-up of its
    host by its parts' cores, and each graph the class forms do not reach
    by its own one-vertex deletions, so ``qn(n)`` reads ``qn(n - 1)``.
    The totals of the route before, with each blow-up bounded by its
    one-vertex deletions, are pinned alongside."""

    sweep = TestJoinBounds.sweep

    @pytest.fixture
    def nodes(self, monkeypatch):
        return TestJoinBounds.count_nodes(monkeypatch)

    @pytest.fixture
    def solves(self, monkeypatch):
        # (graph, options, result) per solve, in solve order
        solves = []
        inv_exact = solver.inv_exact

        def spy(D, opts=None):
            r = inv_exact(D, opts)
            solves.append((D, opts, r))
            return r

        monkeypatch.setattr(solver, "inv_exact", spy)
        return solves

    @staticmethod
    def table(graphs):
        return {sweep._key(G): solver.inv_exact(G) for G in graphs}

    @pytest.mark.parametrize("argv, count, digest", CERTIFICATE_SWEEPS)
    @pytest.mark.usefixtures("triangle_reference")
    @pytest.mark.usefixtures("no_deletion_upper")
    def test_every_solve_keeps_its_certificates(self, capsys, solves, argv, count, digest):
        # node totals alone would miss a changed Sub of equal value
        self.sweep(capsys, *argv)
        enc = digraph.encode_digraph
        seen = [(enc(D),
                 None if opts.lower is None else
                 (opts.lower.vertices, enc(opts.lower.part), opts.lower.result.value),
                 None if opts.upper is None else tuple(opts.upper.sets),
                 r.value, r.nodes_explored) for D, opts, r in solves]
        assert len(seen) == count
        assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest, want, _", CORE_SWEEPS)
    @pytest.mark.usefixtures("triangle_reference")
    @pytest.mark.usefixtures("no_deletion_upper")
    def test_sweep_nodes_pinned(self, capsys, nodes, argv, digest, want, _):
        assert self.sweep(capsys, *argv) == digest
        assert nodes.value == want

    @pytest.mark.parametrize("argv, digest, _, want", CORE_SWEEPS[1:])
    @pytest.mark.usefixtures("triangle_reference")
    def test_one_vertex_route_nodes_pinned(
        self, capsys, one_vertex_blowups, nodes, argv, digest, _, want
    ):
        assert self.sweep(capsys, *argv) == digest
        assert nodes.value == want

    @pytest.mark.parametrize("argv", [CORE_SWEEPS[2][0], CORE_SWEEPS[3][0]])
    def test_a_pool_gives_the_same_stdout_and_nodes(self, capsys, monkeypatch, nodes, argv):
        # the deletion classes and the blow-ups by cores go through its maps
        opened = []
        real_pool = sweep.Pool

        def counted_pool(processes):
            opened.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sweep, "Pool", counted_pool)
        serial = self.sweep(capsys, *argv), nodes.value
        nodes.value = 0
        assert (self.sweep(capsys, *argv, "--jobs", "2"), nodes.value) == serial
        assert opened == [2]

    @pytest.mark.parametrize(
        "argv", [("conj-direction", "--left-n", "4", "--right-n", "6"), CORE_SWEEPS[3][0]]
    )
    def test_every_solve_matches_plain(self, capsys, monkeypatch, solves, argv):
        self.sweep(capsys, *argv)
        monkeypatch.undo()  # plain solves, unspied
        for D, opts, r in solves:
            assert r.value == solver.inv_exact(D).value
            assert digraph.is_acyclic(digraph.apply_family(D, r.witness)) is not None
        # a blow-up by cores lies more than one vertex below its blow-up
        cored = [D for D, opts, _ in solves if opts.lower and opts.lower.part.n < D.n - 1]
        assert bool(cored) == (argv[0] == "conj-direction")

    def test_acyclic_graphs_are_read_as_zero_and_never_solved(self):
        tt = construct.transitive
        eng = engine()
        # no acyclic class is listed to solve: an acyclic part's core, the
        # one vertex, is, since a blow-up by cores takes it as a part
        assert eng._below([cli.C3]) == []
        assert eng._below([tt(1)]) == []
        assert eng._below([tt(4), tt(3)]) == [sweep.TT1]
        T = digraph.nonisomorphic_tournaments(4)[-1]
        assert digraph.is_acyclic(T) is None
        assert [R.n for R in eng._below([T])] == [3]  # c3, not tt(3)
        # with an empty table, an acyclic part walks to one vertex, and
        # a blow-up of cyclic parts' cores reads no acyclic deletion
        one, at = eng._core(tt(4))
        assert one == sweep.TT1 and len(at) == 1
        eng.results = results = self.table([T, *eng._below([T])])
        C, _ = eng._core(T)
        assert C.n == 3 and engine()._value(tt(2)) == 0
        # an acyclic blow-up by cores asks for nothing
        results[sweep._key(tt(1))] = solver.inv_exact(tt(1))
        eng.results = {}
        assert eng._core_ask(cli.BlowUp(cli.TT2, [tt(4), tt(3)])) is None
        eng.results = results
        ask = cli.BlowUp(cli.TT2, [tt(4), T])
        key, core, at = eng._core_ask(ask)
        assert core.parts == (sweep.TT1, C) and len(at) == 4

    @pytest.mark.parametrize(
        "graph", [digraph.Digraph(3, (0b010, 0, 0)), construct.transitive(9)],
        ids=["not-a-tournament", "past-the-canonical-form"],
    )
    def test_other_graphs_take_their_own_deletions(self, graph):
        n = graph.n
        listed = engine()._deletions(graph)
        assert [at for _, at in listed] == [tuple(u for u in range(n) if u != v)
                                            for v in range(n)]
        for R, at in listed:
            assert R.out_rows == digraph._induced_rows(graph.out_rows, at)
        # a tournament the forms reach takes its deletions by class
        eng = engine()
        assert eng._deletions(qn(6)) is eng._by_class(qn(6))

    def test_qn_climbs_the_ladder(self, capsys, solves):
        self.sweep(capsys, *CORE_SWEEPS[3][0])
        assert [D.n for D, _, _ in solves] == list(range(1, 13))
        for (_, _, below), (D, opts, r) in zip(solves[7:], solves[8:]):
            n = D.n
            # qn(n) less its first vertex is qn(n - 1), relabelled by one:
            # the first deletion of largest value
            assert opts.lower == solver.Sub(tuple(range(1, n)), qn(n - 1), below)
            assert below.value <= r.value == (n - 1) // 2

    def test_each_distinct_graph_solved_once(self, capsys, solves):
        self.sweep(capsys, "conj-direction", "--left-n", "4", "--right-n", "4")
        solved = [sweep._key(D) for D, _, _ in solves]
        orders = [D.n for D, _, _ in solves]
        classes = digraph.nonisomorphic_tournaments(4)
        eng = engine()
        inputs = {sweep._key(G): G for G in (*classes, *eng._below(classes))}
        eng.results = self.table(inputs.values())
        asks, cored = set(), set()
        for A, B in ((L, R) for L in classes for R in classes):
            ask = cli.BlowUp(cli.TT2, [A, B])
            asks.add(sweep._key(ask.graph))
            got = eng._core_ask(ask)
            if got is not None:
                cored.add(got[0])
        assert len(solved) == len(set(solved))
        # first the parts and every class below them, then the asks and the
        # blow-ups by cores not yet solved, each phase smallest first
        cut = len(inputs)
        assert set(solved[:cut]) == set(inputs) and orders[:cut] == sorted(orders[:cut])
        assert set(solved[cut:]) == asks | cored - set(inputs)
        assert orders[cut:] == sorted(orders[cut:]) and cored - asks - set(inputs)

    def test_a_core_keeps_the_value_and_loses_it_at_every_deletion(self):
        eng = engine()
        classes = [T for n in range(1, 7) for T in digraph.nonisomorphic_tournaments(n)]
        results = self.table(classes)
        value = {T.out_rows: results[sweep._key(T)].value for T in classes}
        sizes = {}
        for T in classes:
            eng.results = results
            C, at = eng._core(T)
            eng.results = {}
            assert eng._core(T) == (C, at)  # walked once
            assert C.out_rows == digraph._induced_rows(T.out_rows, at)
            assert value[C.out_rows] == value[T.out_rows]
            assert all(value[R.out_rows] < value[C.out_rows] for R, _ in eng._by_class(C))
            sizes.setdefault(value[T.out_rows], set()).add(C.n)
        # value 0 shrinks to one vertex and value 1 to a triangle
        assert sizes == {0: {1}, 1: {3}, 2: {5, 6}}

    @classmethod
    def core_case(cls):
        """c3 => qn(6), a sweep run and its table of the parts and the
        classes below them; qn(6) keeps its value 2 without its last vertex."""
        ask = cli.BlowUp(construct.transitive(2), [cli.C3, qn(6)])
        eng = engine()
        eng.results = results = cls.table([*ask.parts, *eng._below(ask.parts)])
        return ask, eng, results

    def test_the_core_bound_is_the_blow_up_by_cores(self):
        ask, eng, results = self.core_case()
        key, core, at = eng._core_ask(ask)
        cores = [eng._core(p) for p in ask.parts]
        assert cores[0] == (cli.C3, (0, 1, 2)) and cores[1][0].n == 5
        assert core == cli.BlowUp(ask.host, [C for C, _ in cores])
        assert eng._core_ask(ask)[1] is core  # built once
        assert at == (0, 1, 2, *(3 + v for v in cores[1][1]))
        results[key] = solver.inv_exact(core.graph)
        lower = eng._options(ask).lower
        assert lower == solver.Sub(at, core.graph, results[key])
        # it replaces the largest part's 2: the blow-up by cores has 3
        opts = eng._options(ask)
        assert opts.lower == lower and lower.result.value == 3
        assert opts.upper == eng._blowup_options(ask).upper
        assert solver.inv_exact(ask.graph, opts).value == solver.inv_exact(ask.graph).value == 3
        # a blow-up whose parts are all their own cores asks for no other
        assert eng._core_ask(core) is None

    def test_a_tie_keeps_the_bound_already_held(self):
        # c3 => tt(4): its blow-up by cores, c3 => tt(1), has c3's value 1,
        # so the largest part's bound stays
        ask = cli.BlowUp(construct.transitive(2), [cli.C3, construct.transitive(4)])
        eng = engine()
        eng.results = results = self.table([*ask.parts, *eng._below(ask.parts)])
        key, core, at = eng._core_ask(ask)
        assert core.parts == (cli.C3, sweep.TT1) and at[:3] == (0, 1, 2)
        results[key] = solver.inv_exact(core.graph)
        opts = eng._options(ask)
        c3 = results[sweep._key(cli.C3)]
        assert results[key].value == c3.value == 1
        assert opts.lower == solver.Sub((0, 1, 2), cli.C3, c3)
        assert opts == eng._blowup_options(ask)

    def test_a_forged_core_bound_is_refused_before_any_search(self, monkeypatch):
        ask, eng, results = self.core_case()
        key, core, at = eng._core_ask(ask)
        found = results[key] = solver.inv_exact(core.graph)
        # a wrong embedding: the core's last vertex moved to a vertex it left
        moved = (*at[:-1], next(v for v in range(ask.graph.n) if v not in at))
        # a core of lower value: tt(5), of value 0, in the place of qn(6)'s
        weaker = construct.blow_up(ask.host, [cli.C3, construct.transitive(5)])
        forgeries = (solver.Sub(moved, core.graph, found),
                     solver.Sub(at, weaker, solver.inv_exact(weaker)))
        searched = []
        monkeypatch.setattr(solver, "_search_assignment", lambda *a: searched.append(a))
        for forged in forgeries:
            with pytest.raises(ValueError, match="not the subgraph induced"):
                solver.inv_exact(ask.graph, SearchOptions(lower=forged))
        assert searched == []

    def test_an_unresolved_solve_gives_no_bound(self):
        ask, eng, results = self.core_case()
        # the blow-up by cores unresolved: no bound, the largest part's stays
        assert eng._core_ask(ask) is not None
        opts = eng._options(ask)
        assert opts == eng._blowup_options(ask)
        # a deletion class unresolved: no core, so no blow-up by cores
        eng = engine(results)
        (R, _), *_ = eng._by_class(qn(6))
        del results[sweep._key(R)]
        assert eng._core(qn(6)) is None
        assert eng._core_ask(ask) is None

    def test_an_unresolved_core_solve_is_no_unknown_line(self, capsys, monkeypatch):
        # under a budget, a blow-up by cores or a deletion class that runs
        # out is no checker's ask: only the instances whose own dijoins ran
        # out are UNKNOWN
        ran_out = []
        inv_exact = solver.inv_exact

        def spy(D, opts=None):
            try:
                return inv_exact(D, opts)
            except ResourceLimitError:
                ran_out.append(digraph.encode_digraph(D))
                raise

        monkeypatch.setattr(solver, "inv_exact", spy)
        code, out, _ = run(capsys, "experiment", "conj-direction", "--left-n", "4",
                           "--right-n", "6", "--budget", "60", "--deterministic")
        unknown = {line.split()[1] for line in out.splitlines() if line.endswith(": UNKNOWN")}
        asked = {}
        for inst in cli._build_conj_direction(argparse.Namespace(left_n=4, right_n=6)):
            L, R = map(digraph.decode_digraph, inst.split("|"))
            for D in (construct.dijoin(L, R), construct.dijoin(R, L)):
                asked.setdefault(digraph.encode_digraph(D), set()).add(inst)
        assert unknown == {inst for g in ran_out for inst in asked.get(g, ())}
        assert any(g not in asked for g in ran_out)


class TestClassWalks:
    """Only a sweep's class list walks the classes: the deletion forms
    read each orbit alone, so a run walks each order it lists once."""

    sweep = TestJoinBounds.sweep

    @pytest.fixture
    def walked(self, monkeypatch):
        walked = []
        walk = digraph.TournamentClasses._walk

        def spy(self):
            walked.append(self.n)
            return walk(self)

        monkeypatch.setattr(digraph.TournamentClasses, "_walk", spy)
        return walked

    @pytest.mark.parametrize(
        "argv, digest, want",
        [
            (("qn", "--n-max", "8", "--n-exact", "8"),
             "4fb06421b40ea09151e118fa7b38e1e30646b47a871d636ccf206eea6f0e9a7e", []),
            (("bounds", "--n-max", "6"),
             "f2684e71229867b7e6eb461d1d4e833ce23c64635a1a53d855b686403f1afd7a", [1, 2, 3, 4, 5, 6]),
            (BENCH_SWEEPS[0][0], BENCH_SWEEPS[0][1], [1, 2, 3, 4, 5, 6]),
        ],
        ids=["qn", "bounds", "direction"],
    )
    def test_each_listed_order_walked_once(self, capsys, walked, argv, digest, want):
        assert self.sweep(capsys, *argv) == digest
        assert sorted(walked) == want


class TestTableKeys:
    """A sweep keys its table by rows (``sweep._key``), so it encodes a graph
    only to print it: here each listed class once, for its instance name."""

    sweep = TestJoinBounds.sweep

    @pytest.mark.parametrize(
        "argv, digest, want",
        [(*BENCH_SWEEPS[0], 76), (*BENCH_SWEEPS[1], 76), (*CORE_SWEEPS[0][:2], 24)],
        ids=["direction", "thm13", "conj-direction"],
    )
    def test_a_sweep_encodes_only_what_it_prints(self, capsys, monkeypatch, argv, digest, want):
        # against 1,703, 1,072 and 1,055 when the table was keyed by encoding
        encoded = []
        encode = digraph.encode_digraph

        def spy(D):
            encoded.append(D)
            return encode(D)

        monkeypatch.setattr(digraph, "encode_digraph", spy)
        assert self.sweep(capsys, *argv) == digest
        assert len(encoded) == want


# thm15's stdout, with or without its blow-up's certificates
THM15_DIGEST = "30c7e0df8782a374018de6f7063a3593200da00144dac6531f1987b65286dd8e"


class TestThm15Certified:
    """thm15's blow-up is solved between the certificates its triangle
    parts and its host give: a part's 1 below, the host's set blown up
    and the parts' sets above, 1 + 3 = 4, the value the theorem states."""

    @staticmethod
    def spy_results(monkeypatch):
        results = []
        inv_exact = solver.inv_exact

        def spy(D, opts=None):
            results.append(inv_exact(D, opts))
            return results[-1]

        monkeypatch.setattr(solver, "inv_exact", spy)
        return results

    @pytest.fixture
    def results(self, monkeypatch):
        return self.spy_results(monkeypatch)

    def sweep(self, capsys, results):
        results.clear()
        code, out, _ = run(capsys, "experiment", "thm15", "--deterministic")
        assert code == 0 and "blowup_inv=4 expect=4 : PASS" in out
        assert hashlib.sha256(out.encode()).hexdigest() == THM15_DIGEST
        return results[-1]

    @pytest.mark.usefixtures("triangle_reference")
    def test_blowup_is_composed(self, capsys, monkeypatch):
        # plain solves in the plain order, as before they broke ties by
        # cyclic triangles too
        helpers.use_plain_order(monkeypatch, certified_ties=True)
        results = self.spy_results(monkeypatch)
        blowup = self.sweep(capsys, results)
        assert (blowup.value, blowup.source, blowup.nodes_explored) == (4, "composed", 8_524)
        assert blowup.proof == "exhausted" and blowup.max_k_exhausted == 3
        assert sum(r.nodes_explored for r in results) == 8_534
        helpers.use_unbounded_joins(monkeypatch)
        blowup = self.sweep(capsys, results)
        assert (blowup.value, blowup.source, blowup.nodes_explored) == (4, "search", 8_972)

    @pytest.mark.usefixtures("triangle_reference")
    def test_blowup_is_composed_with_triangle_ties(self, capsys, monkeypatch, results):
        # the certified blow-up and the small plain solves are as above;
        # solved from k=0 with no certificate, the blow-up takes 8,566
        blowup = self.sweep(capsys, results)
        assert (blowup.value, blowup.source, blowup.nodes_explored) == (4, "composed", 8_524)
        assert sum(r.nodes_explored for r in results) == 8_534
        helpers.use_unbounded_joins(monkeypatch)
        blowup = self.sweep(capsys, results)
        assert (blowup.value, blowup.source, blowup.nodes_explored) == (4, "search", 8_566)

    @pytest.mark.parametrize("budget, code", [("8523", 2), ("8524", 0)])
    @pytest.mark.usefixtures("triangle_reference")
    def test_budget_boundary(self, capsys, budget, code):
        got, out, _ = run(capsys, "experiment", "thm15", "--budget", budget, "--deterministic")
        assert got == code
        assert ("budget: assignment search exceeded 8523 nodes" in out) == (code == 2)


# the sweeps above on the shipped trees, a root vector searched to the end
# banned at the root's images: stdout sha256 and node totals, each stdout
# unchanged
ROOT_BAN_SWEEPS = [
    (*BENCH_SWEEPS[0], 2_325),
    (*BENCH_SWEEPS[1], 1_509),
    (("bounds", "--n-max", "6"),
     "f2684e71229867b7e6eb461d1d4e833ce23c64635a1a53d855b686403f1afd7a", 885),
    (*CORE_SWEEPS[0][:2], 40_634),
    (*CORE_SWEEPS[1][:2], 2_286),
    (*CORE_SWEEPS[2][:2], 2_286),
    (*CORE_SWEEPS[3][:2], 56_650),
]
# CERTIFICATE_SWEEPS' solves on the shipped trees: the same graphs and
# certificates, with their new node counts
ROOT_BAN_CERTIFICATES = [
    (("direction", "--n-max", "6"), 229,
     "cf2c668d58931e09fc22957a513de9710b6842e2064063f32de46aabd396d0b0"),
    (("thm13", "--n-max", "6"), 113,
     "48f22759203941861888aec61586487eac9460147aaef69c0db0785db47bc2ce"),
    (("kjoin",), 8,
     "7c954c067202d189e242b8328a6125ad269204f2a908aac8fe66569099259ca9"),
    (("abnormal",), 9,
     "110d8366c442ec174bd45f0082a76e11b6910582e6871300ae89eed12e51e590"),
    (("thm15",), 4,
     "918933e61fc17fa706fe38d6a5e6cbccb25b30e3eebc0af58c4ecd3bc149e2e0"),
    (("conj-direction", "--left-n", "4", "--right-n", "6"), 544,
     "6ba0b286c88751e39a876e59e6d17a29ce57994db75ef75667e1f4068a4812fd"),
    (("conj-direction", "--left-n", "5", "--right-n", "5"), 176,
     "65d46308deebf9e25182e1f07f7671c29b4820827929a177cc7b093d42fbcca3"),
    (("qn", "--n-max", "12", "--n-exact", "12"), 12,
     "9c78649d4ecfa2fbba6409800efc78e51e9e5e95e468c443e0d8c288864e80f7"),
]
# the CI budget steps: each command's largest solve, in nodes
ROOT_BAN_BUDGETS = [
    (("inv", "expr:qn(9)"), 2_390),
    (("experiment", "direction", "--n-max", "5"), 248),
    (("experiment", "direction", "--n-max", "6"), 248),
    (("experiment", "conj-direction", "--left-n", "3", "--right-n", "6"), 248),
    (("experiment", "qn", "--n-max", "12", "--n-exact", "12"), 52_144),
    (("experiment", "thm15"), 2_299),
]


@pytest.mark.usefixtures("root_ban_reference")
class TestRootBans:
    """Sweeps on the trees where a root vector searched to the end is
    banned at the root's images, and no vector below the root is banned
    (``helpers.root_bans_only``)."""

    sweep = TestJoinBounds.sweep

    @pytest.fixture
    def nodes(self, monkeypatch):
        return TestJoinBounds.count_nodes(monkeypatch)

    @pytest.fixture
    def solves(self, monkeypatch):
        # (graph, options, result) per solve, in solve order
        solves = []
        inv_exact = solver.inv_exact

        def spy(D, opts=None):
            solves.append((D, opts, inv_exact(D, opts)))
            return solves[-1][2]

        monkeypatch.setattr(solver, "inv_exact", spy)
        return solves

    @pytest.mark.parametrize("argv, digest, want", ROOT_BAN_SWEEPS)
    @pytest.mark.usefixtures("no_deletion_upper")
    def test_sweep_nodes_pinned(self, capsys, nodes, argv, digest, want):
        assert self.sweep(capsys, *argv) == digest
        assert nodes.value == want

    @pytest.mark.parametrize("argv, count, digest", ROOT_BAN_CERTIFICATES)
    @pytest.mark.usefixtures("no_deletion_upper")
    def test_every_solve_keeps_its_certificates(self, capsys, solves, argv, count, digest):
        TestCoreBounds.test_every_solve_keeps_its_certificates(
            self, capsys, solves, argv, count, digest)

    @pytest.mark.parametrize("argv, nodes", ROOT_BAN_BUDGETS)
    def test_budget_boundary(self, capsys, argv, nodes):
        # one node short exits 2 and names the budget; the count resolves
        code, out, _ = run(capsys, *argv, "--budget", str(nodes - 1), "--deterministic")
        assert code == 2 and f"assignment search exceeded {nodes - 1} nodes" in out
        code, out, _ = run(capsys, *argv, "--budget", str(nodes), "--deterministic")
        assert code == 0 and "exceeded" not in out

    def test_thm15_blowup_is_composed(self, capsys, monkeypatch):
        results = TestThm15Certified.spy_results(monkeypatch)
        code, out, _ = run(capsys, "experiment", "thm15", "--deterministic")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == THM15_DIGEST
        blowup = results[-1]
        assert (blowup.value, blowup.source, blowup.nodes_explored) == (4, "composed", 2_299)
        assert sum(r.nodes_explored for r in results) == 2_309


# ROOT_BAN_SWEEPS on the shipped trees, where a vector searched to the end
# below the root is banned too: the same stdout, with fewer nodes where a
# solve's root has a map that fixes it
DEEP_BAN_SWEEPS = [
    (*ROOT_BAN_SWEEPS[0][:2], 2_309),
    (*ROOT_BAN_SWEEPS[1][:2], 1_509),
    (*ROOT_BAN_SWEEPS[2][:2], 885),
    (*ROOT_BAN_SWEEPS[3][:2], 31_213),
    (*ROOT_BAN_SWEEPS[4][:2], 2_270),
    (*ROOT_BAN_SWEEPS[5][:2], 2_270),
    (*ROOT_BAN_SWEEPS[6][:2], 56_650),
]
# ROOT_BAN_CERTIFICATES' solves on the shipped trees
DEEP_BAN_CERTIFICATES = [
    (("direction", "--n-max", "6"), 229,
     "ffb9651f4d6bdf176fe55f47d7b3c9ae7adc4e7c6f9db5c73ddaf5f29b1793d0"),
    ROOT_BAN_CERTIFICATES[1],
    ROOT_BAN_CERTIFICATES[2],
    (("abnormal",), 9,
     "1c8606edc295a71bcd9f46581ae7c1944a388a8e86a94d4d1b35bcb025aeae9c"),
    (("thm15",), 4,
     "a9ffc08ffef70dd598d53506edc102f24242d718bbe59c6b908be8121369dc68"),
    (("conj-direction", "--left-n", "4", "--right-n", "6"), 544,
     "28581832b7176f78fb5c1e19d507cc6dd2708219bd3262bcb745aadeb1f47dcf"),
    (("conj-direction", "--left-n", "5", "--right-n", "5"), 176,
     "8278f9955c9e891543554da3fadc5729d06ed5d9621555e245a48c05688c797d"),
    ROOT_BAN_CERTIFICATES[7],
]
# the CI budget steps on the shipped trees: thm15's blow-up shrinks, and
# the plain nine-vertex blow-up is one more step
DEEP_BAN_BUDGETS = ROOT_BAN_BUDGETS[:5] + [
    (("experiment", "thm15"), 911),
    (("inv", "expr:blowup_uniform(c3;c3,3)"), 953),
]
# the sweeps whose every searched level is searched again in
# TestDeepBans.test_no_level_grows_in_the_sweeps
LEVEL_SWEEPS = [
    ("direction", "--n-max", "7"),
    ("thm13", "--n-max", "7"),
    ("conj-direction", "--left-n", "5", "--right-n", "5"),
    ("kjoin",),
    ("abnormal",),
    ("thm15",),
]


class TestDeepBans:
    """Sweeps on the shipped trees, where a vector searched to the end
    under a placed set P is also banned at its vertex's images under the
    maps that fix P (``solver._search_assignment``)."""

    sweep = TestJoinBounds.sweep

    @pytest.fixture
    def nodes(self, monkeypatch):
        return TestJoinBounds.count_nodes(monkeypatch)

    @pytest.fixture
    def solves(self, monkeypatch):
        # (graph, options, result) per solve, in solve order
        solves = []
        inv_exact = solver.inv_exact

        def spy(D, opts=None):
            solves.append((D, opts, inv_exact(D, opts)))
            return solves[-1][2]

        monkeypatch.setattr(solver, "inv_exact", spy)
        return solves

    @pytest.mark.parametrize("argv, digest, want", DEEP_BAN_SWEEPS)
    @pytest.mark.usefixtures("no_deletion_upper")
    def test_sweep_nodes_pinned(self, capsys, nodes, argv, digest, want):
        assert self.sweep(capsys, *argv) == digest
        assert nodes.value == want

    @pytest.mark.parametrize("argv, count, digest", DEEP_BAN_CERTIFICATES)
    @pytest.mark.usefixtures("no_deletion_upper")
    def test_every_solve_keeps_its_certificates(self, capsys, solves, argv, count, digest):
        TestCoreBounds.test_every_solve_keeps_its_certificates(
            self, capsys, solves, argv, count, digest)

    @pytest.mark.parametrize("argv, nodes", DEEP_BAN_BUDGETS)
    def test_budget_boundary(self, capsys, argv, nodes):
        TestRootBans.test_budget_boundary(self, capsys, argv, nodes)

    def test_thm15_blowup_is_composed(self, capsys, monkeypatch):
        # against 2,299 nodes with bans at the root alone
        results = TestThm15Certified.spy_results(monkeypatch)
        code, out, _ = run(capsys, "experiment", "thm15", "--deterministic")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == THM15_DIGEST
        blowup = results[-1]
        assert (blowup.value, blowup.source, blowup.nodes_explored) == (4, "composed", 911)
        assert sum(r.nodes_explored for r in results) == 921

    @pytest.mark.usefixtures("no_deletion_upper")
    def test_no_level_grows_in_the_sweeps(self, capsys, monkeypatch):
        # every level these sweeps search, plain or with even weights only,
        # searched again by itself: a family exactly where the search with
        # bans at the root alone finds one, in no more nodes
        levels = []
        search = solver._search_assignment

        def spy(D, k, opts, spent=0, **kwargs):
            levels.append((D, k, kwargs.get("even_weight_only", False)))
            return search(D, k, opts, spent, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_search_assignment", spy)
            for argv in LEVEL_SWEEPS:
                self.sweep(capsys, *argv)
        assert len(levels) == 1_229
        opts = SearchOptions()
        totals = [0, 0]
        for D, k, even in levels:
            found, nodes = solver._search_assignment(D, k, opts, even_weight_only=even)
            ref, ref_nodes = helpers.root_ban_search(D, k, opts, even_weight_only=even)
            assert (found is None) == (ref is None), (digraph.encode_digraph(D), k, even)
            assert nodes <= ref_nodes, (digraph.encode_digraph(D), k, even)
            if found is not None:
                assert digraph.is_acyclic(digraph.apply_family(D, found)) is not None
            totals[0] += ref_nodes
            totals[1] += nodes
        assert totals == [281_173, 265_568]


# DEEP_BAN_SWEEPS and the order-7 sweeps with each plain solve given an
# upper family from its deletions' witnesses (Sweep._deletion_upper): the
# same stdout, in fewer nodes wherever a class keeps a deletion's value
DELETION_UPPER_SWEEPS = [
    (*DEEP_BAN_SWEEPS[0][:2], 1_604),
    (*DEEP_BAN_SWEEPS[1][:2], 804),
    (*DEEP_BAN_SWEEPS[2][:2], 180),
    (*DEEP_BAN_SWEEPS[3][:2], 31_132),
    (*DEEP_BAN_SWEEPS[4][:2], 1_565),
    (*DEEP_BAN_SWEEPS[5][:2], 1_565),
    (*DEEP_BAN_SWEEPS[6][:2], 54_947),
    (("bounds", "--n-max", "7"),
     "229981acc1e58e0aed755ca722261e042d5612778c4e6c7a4a3f44b6842bfcbb", 8_532),
    (("thm13", "--n-max", "7"),
     "332fefa516cd706e5207ea3c0721ad3372ee5e452bffe1d893da8b922a432893", 9_156),
    (("direction", "--n-max", "7"),
     "4e4c4fe6d6110dbaf335bae97c827eb03fc271c41e9cd86949b9787389691b89", 205_238),
]
# DEEP_BAN_CERTIFICATES' solves with the rule: the same graphs and lower
# bounds, with an upper family wherever a deletion's witness extends;
# abnormal's and thm15's solves take none
DELETION_UPPER_CERTIFICATES = [
    (("direction", "--n-max", "6"), 229,
     "1b780f371a6c33f4d37f81160c4c922cadc3be2279253d9ea9a171a60e57e57c"),
    (("thm13", "--n-max", "6"), 113,
     "fda862b24656e4a9a9029c7c52ce85e43a082bc08afb6a389144fd781d47d053"),
    (("kjoin",), 8,
     "7ed0cf467b7df07ab4293e442b2b2b033eed1b69f49b987cb90b86528b953b91"),
    DEEP_BAN_CERTIFICATES[3],
    DEEP_BAN_CERTIFICATES[4],
    (("conj-direction", "--left-n", "4", "--right-n", "6"), 544,
     "20c5e1b3334c53c7e4fd7a96de17d3787839cbb30615d0abd9a5793317caef1a"),
    (("conj-direction", "--left-n", "5", "--right-n", "5"), 176,
     "28ab02dd93e6e9df7f0ceaeb289792a904248253d7455e898209c1af8b293e84"),
    (("qn", "--n-max", "12", "--n-exact", "12"), 12,
     "7ead8408dedd1edbf95712621319fddacd9e9a26bb41ecc4a2e36389250dec8f"),
]
# sweeps with the distinct levels (graph, k) each searches with the rule
# and without it
DELETION_UPPER_LEVELS = [
    (BENCH_SWEEPS[0][0], 28, 88),
    (BENCH_SWEEPS[1][0], 21, 81),
    (("bounds", "--n-max", "7"), 129, 552),
    (LEVEL_SWEEPS[0], 186, 609),
    (LEVEL_SWEEPS[1], 135, 558),
    (LEVEL_SWEEPS[2], 32, 43),
    (LEVEL_SWEEPS[3], 5, 9),
]


class TestDeletionUpper:
    """Each plain sweep solve takes an upper family from its deletions'
    witnesses (``Sweep._deletion_upper``), so a class that keeps a
    deletion's value, with a witness that extends, searches no level.
    The route before, where each searches its witness level, is pinned
    in the classes above under ``no_deletion_upper``."""

    sweep = TestJoinBounds.sweep
    table = staticmethod(TestDeletionLower.table)

    @pytest.fixture
    def nodes(self, monkeypatch):
        return TestJoinBounds.count_nodes(monkeypatch)

    @pytest.fixture
    def solves(self, monkeypatch):
        # (graph, options, result) per solve, in solve order
        solves = []
        inv_exact = solver.inv_exact

        def spy(D, opts=None):
            solves.append((D, opts, inv_exact(D, opts)))
            return solves[-1][2]

        monkeypatch.setattr(solver, "inv_exact", spy)
        return solves

    @pytest.mark.parametrize("argv, digest, want", DELETION_UPPER_SWEEPS)
    def test_sweep_nodes_pinned(self, capsys, nodes, argv, digest, want):
        assert self.sweep(capsys, *argv) == digest
        assert nodes.value == want

    @pytest.mark.parametrize("argv, count, digest", DELETION_UPPER_CERTIFICATES)
    def test_every_solve_keeps_its_certificates(self, capsys, solves, argv, count, digest):
        TestCoreBounds.test_every_solve_keeps_its_certificates(
            self, capsys, solves, argv, count, digest)

    @pytest.mark.parametrize("argv, count, before", DELETION_UPPER_LEVELS)
    def test_each_level_searched_keeps_its_tree(self, capsys, monkeypatch, argv, count, before):
        # the rule only skips witness levels: every level still searched
        # is one the route without it searches, in the same number of nodes
        def levels():
            found = {}
            search = solver._search_assignment

            def spy(D, k, *args, **kwargs):
                family, nodes = search(D, k, *args, **kwargs)
                found[digraph.encode_digraph(D), k] = nodes
                return family, nodes

            with monkeypatch.context() as m:
                m.setattr(solver, "_search_assignment", spy)
                digest = self.sweep(capsys, *argv)
            return digest, found

        digest, new = levels()
        helpers.use_no_deletion_upper(monkeypatch)
        old_digest, old = levels()
        assert digest == old_digest
        assert new.items() <= old.items() and (len(new), len(old)) == (count, before)

    def test_every_family_it_gives_proves_the_value_with_no_search(self, capsys, solves):
        self.sweep(capsys, "bounds", "--n-max", "7")
        given = [(D, opts, r) for D, opts, r in solves if opts.upper is not None]
        assert (len(solves), len(given)) == (532, 429)
        for D, opts, r in given:
            assert solver._decycles(D, opts.upper.sets)
            assert opts.upper.k == opts.lower.result.value == r.value
            assert (r.nodes_explored, r.source, r.witness) == (0, "composed", opts.upper)
            assert r.proof == f"sub:{sum(1 << v for v in opts.lower.vertices):x}"

    def test_each_class_is_peeled_once_per_run(self, capsys, monkeypatch):
        # bounds --n-max 7 extends witnesses of 72 classes, each flipped and
        # peeled once in the run's Sweep, not once per graph listing it
        # (1,273 times), with the same stdout
        flipped = []
        flip = digraph._flipped_rows

        def spy(rows, sets):
            flipped.append(rows)
            return flip(rows, sets)

        monkeypatch.setattr(digraph, "_flipped_rows", spy)
        digest = self.sweep(capsys, "bounds", "--n-max", "7")
        assert digest == "229981acc1e58e0aed755ca722261e042d5612778c4e6c7a4a3f44b6842bfcbb"
        assert len(flipped) == len(set(flipped)) == 72

    def test_a_class_that_keeps_a_deletions_value_searches_nothing(self, monkeypatch):
        # qn(6) less vertex 0 is its first deletion of its value 2, and
        # that deletion's witness extends to vertex 0
        T = qn(6)
        eng = engine()
        listed = eng._by_class(T)
        eng.results = results = self.table(R for R, _ in listed)
        opts = eng._options(T)
        R, at = listed[0]
        assert opts.lower == solver.Sub(at, R, results[sweep._key(R)]) and 0 not in at
        assert opts.upper == helpers.deletion_upper_by_vectors(T, listed, 2, results)
        assert solver.inv_exact(T).value == 2
        searched = []
        monkeypatch.setattr(solver, "_search_assignment", lambda *a, **kw: searched.append(a))
        r = solver.inv_exact(T, opts)
        assert searched == []
        assert (r.value, r.nodes_explored, r.source, r.proof) == (2, 0, "composed", "sub:3e")

    def test_a_witness_that_does_not_extend_gives_no_family(self):
        # this class keeps its deletion's value 2, but no vector of the
        # vertex left out extends a witness of a deletion of value 2, so it
        # searches level 2 as with the lower bound alone
        T = digraph.decode_digraph("enc:6:22.8.3.5.f.1e")
        eng = engine()
        listed = eng._by_class(T)
        eng.results = results = self.table(R for R, _ in listed)
        opts = eng._options(T)
        assert opts.upper is None and opts.lower.result.value == 2
        assert helpers.deletion_upper_by_vectors(T, listed, 2, results) is None
        got = solver.inv_exact(T, opts)
        alone = solver.inv_exact(T, SearchOptions(lower=opts.lower))
        assert (got.value, got.source, got.nodes_explored) == (2, "search", 13)
        assert (got.witness, got.proof) == (alone.witness, alone.proof)
        assert got.nodes_explored == alone.nodes_explored

    def test_a_blow_up_keeps_its_composed_family(self, monkeypatch):
        ask, eng, results = TestCoreBounds.core_case()
        key, core, _ = eng._core_ask(ask)
        results[key] = solver.inv_exact(core.graph)
        asked = []
        monkeypatch.setattr(sweep.Sweep, "_deletion_upper", lambda self, *args: asked.append(args))
        opts = eng._options(ask)
        assert opts.upper == eng._blowup_options(ask).upper
        r = solver.inv_exact(ask.graph, opts)
        assert (r.value, r.source, r.witness) == (3, "composed", opts.upper)
        # nor does a blow-up whose inputs are unresolved take one, though
        # its blow-up by cores names all its vertices but one: c3's blow-up
        # by two vertices, whose results are not in the table, and qn(6)
        eng.results = {}
        assert eng._options(ask).upper is None
        eng.results = results
        ask = cli.BlowUp(cli.C3, [sweep.TT1, sweep.TT1, qn(6)])
        key, core, at = eng._core_ask(ask)
        results[key] = solver.inv_exact(core.graph)
        opts = eng._options(ask)
        assert len(at) == ask.graph.n - 1 and opts.lower.part == core.graph
        assert opts.upper is None and asked == []

    def test_an_unresolved_deletion_gives_nothing(self):
        T = qn(6)
        eng = engine()
        listed = eng._by_class(T)
        results = self.table(R for R, _ in listed)
        R, at = listed[0]  # of value 2, whose witness extends
        assert engine(results)._deletion_upper(T, [(R, at)], 2) is not None
        assert engine()._deletion_upper(T, [(R, at)], 2) is None
        # with no deletion of value 2 resolved: a bound of 1 and no family
        eng.results = {key: r for key, r in results.items() if r.value < 2}
        opts = eng._options(T)
        assert opts.lower.result.value == 1 and opts.upper is None
        eng.results = {}
        assert eng._options(T) == SearchOptions()
        # a candidate naming fewer than n - 1 vertices is skipped: vertices
        # 1 and 2 of this graph, where 3 would be read as the one left out,
        # and 3 extends their empty witness, though 0 -> 1 -> 2 -> 0 stays
        G = digraph.Digraph(4, (0b0010, 0b0100, 0b0001, 0b0111))
        S = G.induced(0b0110)
        assert engine(self.table([S]))._deletion_upper(G, [(S, (1, 2))], 0) is None

    @staticmethod
    def check_against_oracle(G, listed, results) -> tuple[int, int]:
        """Each candidate alone, and the whole list at each value, against
        ``helpers.deletion_upper_by_vectors``; (families, Nones) given."""
        counts, eng = [0, 0], engine(results)  # one peel memo over the calls, as in a run
        values = {results[sweep._key(R)].value for R, _ in listed}
        for candidates, value in [*(([c], results[sweep._key(c[0])].value) for c in listed),
                                  *((listed, value) for value in values)]:
            got = eng._deletion_upper(G, candidates, value)
            assert got == helpers.deletion_upper_by_vectors(G, candidates, value, results)
            counts[got is None] += 1
            if got is not None:
                assert got.k == value and solver._decycles(G, got.sets)
        return counts[0], counts[1]

    def test_matches_the_vector_oracle_on_every_class(self):
        # every deletion of every class of orders 2 to 6
        eng = engine()
        classes = [T for n in range(1, 7) for T in digraph.nonisomorphic_tournaments(n)]
        results = self.table(T for T in classes if T.n < 6)
        counts = [self.check_against_oracle(T, eng._by_class(T), results) for T in classes[1:]]
        assert [sum(c) for c in zip(*counts)] == [236, 321]

    def test_matches_the_vector_oracle_on_oriented_graphs(self):
        rng = random.Random(45)
        counts = []
        for _ in range(80):
            G = helpers.random_oriented(rng, rng.randint(2, 7))
            listed = engine()._deletions(G)
            results = self.table(R for R, _ in listed)
            counts.append(self.check_against_oracle(G, listed, results))
        assert [sum(c) for c in zip(*counts)] == [340, 130]


# the value-1 tournaments on 4 vertices, each with its triangle blow-up's
# nodes between its certificates: with bans at the root alone, and shipped
ORDER_FOUR_BLOWUPS = [
    ("enc:4:4.1.2.7", 76_571, 24_995),
    ("enc:4:8.1.3.6", 138_766, 59_766),
    ("enc:4:a.0.3.6", 76_059, 24_927),
]


class TestBlowupTheorem:
    """The paper's blow-up theorem past thm15's one base: the triangle
    blow-up of a value-1 tournament on n vertices has value n + 1."""

    def test_the_order_four_bases(self):
        bases = [T for T in digraph.nonisomorphic_tournaments(4)
                 if solver.inv_exact(T).value == 1]
        assert [digraph.encode_digraph(T) for T in bases] == [
            base for base, _, _ in ORDER_FOUR_BLOWUPS]

    @pytest.mark.parametrize("base, reference, shipped", ORDER_FOUR_BLOWUPS)
    def test_order_four_blowup_has_value_five(self, monkeypatch, base, reference, shipped):
        # between Sweep._blowup_options' certificates: a triangle's 1 below,
        # the host's set blown up and the parts' sets above, 1 + 4 = 5, so
        # level 4 alone is searched and exhausted
        ask = cli.BlowUp(digraph.decode_digraph(base), [cli.C3] * 4)
        results = {sweep._key(g): solver.inv_exact(g) for g in ask.inputs()}
        opts = engine(results)._blowup_options(ask)
        assert opts.upper.k == 5
        r = solver.inv_exact(ask.graph, opts)
        assert (r.value, r.proof, r.source, r.nodes_explored) == (
            5, "exhausted", "composed", shipped)
        helpers.use_root_ban_reference(monkeypatch)
        r = solver.inv_exact(ask.graph, opts)
        assert (r.value, r.proof, r.source, r.nodes_explored) == (
            5, "exhausted", "composed", reference)


class TestThm13BelowOrderFive:
    def test_no_class_below_order_five_has_an_even_value_of_two_or_more(self, capsys):
        # thm13 checks the classes of even value at least 2, and the first
        # lie at order 5, so a sweep with --n-max below 5 checks nothing
        values = {
            solver.inv_exact(T).value
            for n in range(1, 5)
            for T in digraph.nonisomorphic_tournaments(n)
        }
        assert values == {0, 1}
        code, out, _ = run(capsys, "experiment", "thm13", "--n-max", "5", "--deterministic")
        assert code == 0 and out.splitlines()[-1].startswith("total=3 pass=3 fail=0 ")


# the flags each experiment reads, with their defaults, in report header order
READS = {
    "abnormal": {},
    "bounds": {"--n-max": 5},
    "conj-direction": {"--left-n": 3, "--right-n": 3},
    "direction": {"--n-max": 5},
    "kjoin": {},
    "qn": {"--n-max": 5, "--n-exact": 7},
    "thm13": {"--n-max": 5},
    "thm15": {},
}
FLAGS = ("--n-max", "--n-exact", "--left-n", "--right-n")


class TestExperimentLimits:
    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(n):
            raise AssertionError("enumeration started before the limits were checked")

        monkeypatch.setattr(digraph, "nonisomorphic_tournaments", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ("thm13", "--n-max", "8"),
            ("direction", "--n-max", "8"),
            ("bounds", "--n-max", "8"),
            ("conj-direction", "--left-n", "8"),
            ("conj-direction", "--right-n", "8"),
        ],
    )
    def test_order_above_enumeration_limit_exit_one(self, capsys, no_enumeration, argv):
        code, out, err = run(capsys, "experiment", *argv, "--deterministic")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(digraph.MAX_ENUM_VERTICES) in lines[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ("thm13", "--n-max", "-5"),
            ("direction", "--n-max", "0"),
            ("bounds", "--n-max", "0"),
            ("qn", "--n-max", "-2"),
        ],
    )
    def test_empty_sweep_exit_one(self, capsys, no_enumeration, argv):
        code, out, err = run(capsys, "experiment", *argv, "--deterministic")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "--n-max" in lines[0]

    @pytest.mark.parametrize(
        "argv",
        [("conj-direction", "--left-n", "-1"), ("conj-direction", "--right-n", "-2")],
    )
    def test_negative_tournament_order_names_flag(self, capsys, no_enumeration, argv):
        code, out, err = run(capsys, "experiment", *argv, "--deterministic")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert argv[1] in lines[0]

    @pytest.mark.parametrize(
        "flags", [("--budget", "0"), ("--max-k", "13")], ids=["budget", "max-k"]
    )
    def test_search_flag_out_of_range_exit_one(self, capsys, no_enumeration, flags):
        code, out, err = run(
            capsys, "experiment", "thm13", "--n-max", "7", *flags, "--deterministic"
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_qn_above_vertex_limit_exit_one(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("qn built before --n-max was checked")

        monkeypatch.setattr(construct, "qn", refuse)
        code, out, err = run(
            capsys, "experiment", "qn", "--n-max", "70", "--deterministic"
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "--n-max" in lines[0] and str(digraph.MAX_VERTICES) in lines[0]

    def test_qn_negative_n_exact_exit_one(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("qn built before --n-exact was checked")

        monkeypatch.setattr(construct, "qn", refuse)
        code, out, err = run(
            capsys, "experiment", "qn", "--n-max", "3", "--n-exact", "-4", "--deterministic"
        )
        assert (code, out) == (1, "")
        assert err == "error: --n-exact must be at least 0, got -4\n"

    @pytest.fixture
    def built(self, monkeypatch):
        # each experiment's builder replaced by one that records the flags it
        # reads and builds nothing
        built = []
        for name, (_, check, flags, doc) in list(cli.EXPERIMENTS.items()):
            def build(args, flags=flags):
                built.append({flag: getattr(args, flag) for flag in flags})
                return []

            monkeypatch.setitem(cli.EXPERIMENTS, name, (build, check, flags, doc))
        return built

    @pytest.mark.parametrize(
        "name, flag",
        [(name, flag) for name in sorted(READS) for flag in FLAGS if flag not in READS[name]],
    )
    def test_flag_an_experiment_does_not_read_exit_one(self, capsys, built, name, flag):
        code, out, err = run(capsys, "experiment", name, flag, "3", "--deterministic")
        assert (code, out, err) == (1, "", f"error: experiment {name} takes no {flag}\n")
        assert built == []

    def test_each_experiment_reads_the_flags_its_table_names(self):
        # in header order, so compared as lists
        tables = {name: [("--" + flag.replace("_", "-"), default)
                         for flag, (default, _, _) in entry[2].items()]
                  for name, entry in cli.EXPERIMENTS.items()}
        assert tables == {name: list(flags.items()) for name, flags in READS.items()}
        assert sum(flag not in READS[name] for name in READS for flag in FLAGS) == 25

    def test_unread_flag_is_refused_before_its_range(self, capsys, built):
        code, out, err = run(capsys, "experiment", "kjoin", "--n-max", "99", "--left-n", "-5")
        assert (code, out, err) == (1, "", "error: experiment kjoin takes no --n-max\n")
        code, _, err = run(capsys, "experiment", "abnormal", "--n-exact", "-3")
        assert (code, err) == (1, "error: experiment abnormal takes no --n-exact\n")
        assert built == []

    @pytest.mark.parametrize(
        "argv, message",
        [((name, "--n-max", "8"), "--n-max must be in 1..7, got 8")
         for name in ("bounds", "direction", "thm13")]
        + [
            (("qn", "--n-max", "65"), "--n-max must be in 1..64, got 65"),
            (("qn", "--n-exact", "-4"), "--n-exact must be at least 0, got -4"),
            (("conj-direction", "--left-n", "8"), "--left-n must be in 0..7, got 8"),
            (("conj-direction", "--right-n", "-1"), "--right-n must be in 0..7, got -1"),
        ],
    )
    def test_read_flag_out_of_range_exit_one(self, capsys, built, argv, message):
        code, out, err = run(capsys, "experiment", *argv, "--deterministic")
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert built == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("nope", "--n-max", "99"), "unknown experiment 'nope'"),
            (("kjoin", "--n-max", "5", "--jobs", "0"), "--jobs must be at least 1, got 0"),
            (("kjoin", "--n-max", "5", "--max-k", "13"), "--max-k must be in 0..12, got 13"),
            (("qn", "--n-max", "99", "--budget", "0"), "--budget must be at least 1, got 0"),
        ],
    )
    def test_experiment_flags_are_refused_last(self, capsys, built, argv, message):
        # the name, then --jobs, then --max-k and --budget, then the flags
        code, out, err = run(capsys, "experiment", *argv)
        assert (code, out) == (1, "") and err.startswith(f"error: {message}")
        assert built == []

    @pytest.mark.parametrize("name", sorted(READS))
    def test_defaults_reach_the_builder_and_the_header(self, capsys, built, name):
        code, out, _ = run(capsys, "experiment", name, "--deterministic")
        defaults = READS[name]
        assert code == 0 and built == [{f[2:].replace("-", "_"): v for f, v in defaults.items()}]
        header = " ".join([f"experiment={name}"] + [f"{f[2:]}={v}" for f, v in defaults.items()])
        assert out.splitlines()[0] == header

    def test_given_flags_reach_the_builder_as_ints(self, capsys, built):
        run(capsys, "experiment", "conj-direction", "--right-n", "0", "--left-n", "7")
        run(capsys, "experiment", "qn", "--n-exact", "0", "--n-max", "64")
        assert built == [{"left_n": 7, "right_n": 0}, {"n_max": 64, "n_exact": 0}]

    def test_qn_n_exact_zero_solves_no_order(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "qn", "--n-max", "3", "--n-exact", "0", "--deterministic"
        )
        assert code == 0 and out.count("family_ok") == 3 and "total=3 pass=3" in out

    def test_criterion_violation_is_a_fail_line(self, capsys, monkeypatch):
        # the default sweep, with the triangle dijoin of dijoin(c3, c3) forged flat
        t = construct.c3()
        flat = digraph.encode_digraph(construct.dijoin(t, construct.dijoin(t, t)))
        inv_exact = solver.inv_exact

        def forged(D, opts=None):
            if digraph.encode_digraph(D) == flat:
                return solver.InvResult(2, None, "assign", 0, 0.0, 1)
            return inv_exact(D, opts)

        monkeypatch.setattr(solver, "inv_exact", forged)
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 3
        # join(c3, c3, c3) is the forged graph itself, so its join value is forged too
        assert out.splitlines()[1:] == [
            "instance join(c3, c3) parts=[1, 1] tight=0 join_inv=2 expect=2 : PASS",
            "instance join(c3, c3, c3) parts=[1, 1, 1] tight=0 join_inv=2 expect=3 : FAIL",
        ] + [
            f"instance {inst} criterion: dijoin value 2 equals even base value 2 : FAIL"
            for inst in ("join(c3, dijoin(c3, c3))", "join(dijoin(c3, c3), c3)")
        ] + ["total=4 pass=1 fail=3 unknown=0"]


# a value-3 part whose criterion the sweep must ask: kjoin's own instances
# have no part of odd value 3 or more
TIGHTNESS_JOINS = ["join(c3, join(c3, c3, c3))", "join(join(c3, c3, c3), c3)"]


class TestKjoinCriterion:
    @pytest.fixture
    def joins(self, monkeypatch):
        def use(*instances):
            build, check, params, doc = cli.EXPERIMENTS["kjoin"]
            entry = (lambda args: list(instances), check, params, doc)
            monkeypatch.setitem(cli.EXPERIMENTS, "kjoin", entry)

        return use

    @pytest.fixture
    def asked(self, monkeypatch):
        # each criterion search, with the function that made it
        asked = []
        exists_family = solver.exists_family

        def spy(D, k, opts=None, *, even_weight_only=False):
            caller = sys._getframe(1).f_code.co_name
            asked.append((caller, digraph.encode_digraph(D), k, even_weight_only))
            return exists_family(D, k, opts, even_weight_only=even_weight_only)

        monkeypatch.setattr(solver, "exists_family", spy)
        return asked

    def test_odd_part_asks_the_criterion_once_through_run_one(self, capsys, joins, asked):
        # both instances ask the same (part, 3) criterion in one round
        joins(*TIGHTNESS_JOINS)
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 0
        assert out.splitlines()[1:3] == [
            "instance join(c3, join(c3, c3, c3)) parts=[1, 3] tight=0 join_inv=4 expect=4 : PASS",
            "instance join(join(c3, c3, c3), c3) parts=[3, 1] tight=0 join_inv=4 expect=4 : PASS",
        ]
        part = digraph.encode_digraph(construct.k_join([construct.c3()] * 3))
        assert asked == [("_run_one", part, 3, True)]

    def test_out_of_scope_joins_are_left_out(self, capsys, joins):
        # a part of value 0, and two parts of value 2, lie outside the rule
        joins("join(c3, tt(1))", "join(c3, c3)", "join(dijoin(c3, c3), dijoin(c3, c3))")
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert (code, out.splitlines()) == (0, [
            "experiment=kjoin",
            "instance join(c3, c3) parts=[1, 1] tight=0 join_inv=2 expect=2 : PASS",
            "total=1 pass=1 fail=0 unknown=0",
        ])

    def test_same_stdout_through_a_real_pool(self, capsys, monkeypatch, joins):
        joins(*TIGHTNESS_JOINS)
        opened = []
        real_pool = sweep.Pool

        def counted_pool(processes):
            opened.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sweep, "Pool", counted_pool)
        argv = ("experiment", "kjoin", "--deterministic")
        code, serial, _ = run(capsys, *argv)
        assert code == 0 and "total=2 pass=2" in serial
        code, parallel, _ = run(capsys, *argv, "--jobs", "2")
        assert code == 0 and opened == [2] and parallel == serial

    def test_forged_criterion_is_a_fail_line(self, capsys, monkeypatch, joins):
        joins(TIGHTNESS_JOINS[0])

        def says_yes(D, k, opts=None, *, even_weight_only=False):
            return digraph.InversionFamily(D.n, (0,) * k)

        monkeypatch.setattr(solver, "exists_family", says_yes)
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 3
        assert out.splitlines()[1:] == [
            "instance join(c3, join(c3, c3, c3)) criterion: even-weight criterion says"
            " True but the dijoin computes 4 against base 3 : FAIL",
            "total=1 pass=0 fail=1 unknown=0",
        ]

    def test_forged_flat_even_base_is_a_fail_line(self, capsys, monkeypatch, joins):
        joins("join(c3, dijoin(c3, c3))")
        t = construct.c3()
        flat = digraph.encode_digraph(construct.dijoin(t, construct.dijoin(t, t)))
        inv_exact = solver.inv_exact

        def forged(D, opts=None):
            if digraph.encode_digraph(D) == flat:
                return solver.InvResult(2, None, "assign", 0, 0.0, 1)
            return inv_exact(D, opts)

        monkeypatch.setattr(solver, "inv_exact", forged)
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 3
        assert out.splitlines()[1:] == [
            "instance join(c3, dijoin(c3, c3)) criterion: dijoin value 2 equals even"
            " base value 2 : FAIL",
            "total=1 pass=0 fail=1 unknown=0",
        ]

    @pytest.mark.usefixtures("triangle_reference")
    def test_criterion_over_budget_is_unknown(self, capsys, monkeypatch, joins):
        # the criterion search takes 62 nodes, the rest resolve by default
        joins(TIGHTNESS_JOINS[0])
        exists_family = solver.exists_family

        def tight_budget(D, k, opts=None, *, even_weight_only=False):
            opts = solver.SearchOptions(opts.max_k, budget=50)
            return exists_family(D, k, opts, even_weight_only=even_weight_only)

        monkeypatch.setattr(solver, "exists_family", tight_budget)
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 2
        assert out.splitlines()[1:] == [
            "instance join(c3, join(c3, c3, c3)) budget: assignment search exceeded"
            " 50 nodes : UNKNOWN",
            "total=1 pass=0 fail=0 unknown=1",
        ]


    @pytest.mark.parametrize("budget, code", [(40, 2), (41, 0)])
    def test_criterion_budget_boundary(self, capsys, monkeypatch, joins, budget, code):
        # with root bans the criterion search takes 41 nodes
        joins(TIGHTNESS_JOINS[0])
        exists_family = solver.exists_family

        def tight_budget(D, k, opts=None, *, even_weight_only=False):
            opts = solver.SearchOptions(opts.max_k, budget=budget)
            return exists_family(D, k, opts, even_weight_only=even_weight_only)

        monkeypatch.setattr(solver, "exists_family", tight_budget)
        got, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert got == code
        assert ("assignment search exceeded 40 nodes : UNKNOWN" in out) == (code == 2)


class TestJobs:
    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(sweep, "Pool", RecordingPool)
        return sizes

    def test_pool_capped_at_cpu_count(self, capsys, monkeypatch, pools):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        code, out, _ = run(
            capsys, "experiment", "direction", "--n-max", "3", "--jobs", "64",
            "--deterministic",
        )
        assert code == 0 and pools == [3]
        _, serial, _ = run(
            capsys, "experiment", "direction", "--n-max", "3", "--deterministic"
        )
        assert out == serial

    def test_unknown_cpu_count_runs_serially(self, capsys, monkeypatch, pools):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        code, _, _ = run(
            capsys, "experiment", "direction", "--n-max", "3", "--jobs", "2",
            "--deterministic",
        )
        assert code == 0 and pools == []

    def test_one_pool_across_rounds(self, capsys, monkeypatch, pools):
        # thm13 asks for the bases, then for the dijoins of the even ones
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        code, parallel, _ = run(
            capsys, "experiment", "thm13", "--n-max", "5", "--jobs", "2",
            "--deterministic",
        )
        assert code == 0 and pools == [2] and "dijoin_inv=" in parallel
        _, serial, _ = run(
            capsys, "experiment", "thm13", "--n-max", "5", "--deterministic"
        )
        assert parallel == serial

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_one(self, capsys, pools, jobs):
        code, out, err = run(capsys, "experiment", "direction", "--jobs", jobs)
        assert code == 1 and out == "" and pools == []
        assert err.startswith("error:") and "--jobs" in err

    def test_only_tasks_that_search_reach_the_pool(self, capsys, monkeypatch):
        # of conj-direction 5x5's 176 solves, 22 may search a level k >= 1
        # and 19 of them share a map with another of their order; the
        # parent solves the other 157, 154 closed by their certificates
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        sent, solved = [], []
        run_one = cli._run_one

        def spy(task):
            solved.append(task)
            return run_one(task)

        class RecordingPool(sweep.Pool):
            def map(self, fn, tasks):
                assert len(tasks) > 1
                sent.extend(tasks)
                return [fn(t) for t in tasks]

        monkeypatch.setattr(cli, "_run_one", spy)
        monkeypatch.setattr(sweep, "Pool", RecordingPool)
        argv = ("experiment", "conj-direction", "--left-n", "5", "--right-n", "5",
                "--deterministic")
        code, parallel, _ = run(capsys, *argv, "--jobs", "2")
        assert code == 0 and (len(sent), len(solved)) == (19, 176)
        assert all(isinstance(ask, tuple) or solver._searches(opts) for ask, opts in sent)
        pooled = set(map(id, sent))
        searching = [id(t) in pooled for t in solved if solver._searches(t[1])]
        assert (len(searching), sum(searching)) == (22, 19)
        assert run(capsys, *argv)[1] == parallel

    @pytest.mark.parametrize("argv", [argv for argv, _ in BENCH_SWEEPS]
                             + [CORE_SWEEPS[0][0]])
    def test_three_jobs_give_the_serial_stdout_and_nodes(self, capsys, monkeypatch, argv):
        # a split over two children and the parent, on each bench sweep
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        nodes = TestJoinBounds.count_nodes(monkeypatch)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        sizes = []

        class CountedPool(sweep.Pool):
            def map(self, fn, tasks):
                sizes.append(len(tasks))
                return super().map(fn, tasks)

        monkeypatch.setattr(cli.os, "fork", counted_fork)
        monkeypatch.setattr(sweep, "Pool", CountedPool)
        serial = TestJoinBounds.sweep(None, capsys, *argv), nodes.value
        assert forks == sizes == []
        nodes.value = 0
        assert (TestJoinBounds.sweep(None, capsys, *argv, "--jobs", "3"), nodes.value) == serial
        assert max(sizes) >= 3 and len(forks) == sum(min(3, n) - 1 for n in sizes)

    def test_no_fork_runs_serially(self, capsys, monkeypatch, pools):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        monkeypatch.delattr(cli.os, "fork")
        code, _, _ = run(capsys, "experiment", "thm13", "--n-max", "5", "--jobs", "2",
                         "--deterministic")
        assert code == 0 and pools == []


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestForkPool:
    """``sweep.Pool`` forks its children for each map and leaves none behind."""

    def test_results_come_back_in_task_order(self):
        parent = os.getpid()
        with sweep.Pool(3) as pool:
            got = pool.map(lambda t: (t, os.getpid() == parent), list(range(8)))
        assert [t for t, _ in got] == list(range(8))
        assert [here for _, here in got] == [t % 3 == 0 for t in range(8)]
        assert pool.map(abs, [-4]) == [4] and pool.map(abs, []) == []
        assert no_child_left()

    def test_a_child_that_raises_raises_here(self):
        parent = os.getpid()

        def fail_in_child(t):
            if os.getpid() != parent:
                raise ValueError(f"task {t} failed")
            return t

        with pytest.raises(ValueError, match=r"^task 1 failed$"):
            sweep.Pool(2).map(fail_in_child, [0, 1, 2, 3])
        assert no_child_left()

    def test_a_child_that_dies_raises_child_process_error(self):
        parent = os.getpid()

        def die_in_child(t):
            if os.getpid() != parent:
                os._exit(9)
            return t

        with pytest.raises(ChildProcessError, match="status 9"):
            sweep.Pool(2).map(die_in_child, [0, 1])
        assert no_child_left()

    def test_a_failure_kills_the_children_still_running(self):
        # child 1 dies at once, child 2 would sleep a minute; the parent's
        # own share fails in the second map
        parent = os.getpid()

        def die_or_hang(t):
            if os.getpid() == parent:
                return t
            if t == 1:
                os._exit(9)
            time.sleep(60)

        def hang_or_fail(t):
            if os.getpid() == parent:
                raise KeyError(t)
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(ChildProcessError):
            sweep.Pool(3).map(die_or_hang, [0, 1, 2])
        assert no_child_left()
        with pytest.raises(KeyError):
            sweep.Pool(3).map(hang_or_fail, [0, 1, 2])
        assert no_child_left()
        assert time.perf_counter() - start < 30

    def test_a_sweep_whose_worker_dies_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        parent = os.getpid()
        run_one = cli._run_one

        def die_in_child(task):
            if os.getpid() != parent:
                os._exit(9)
            return run_one(task)

        monkeypatch.setattr(cli, "_run_one", die_in_child)
        code, out, err = run(capsys, "experiment", "thm13", "--n-max", "5", "--jobs", "2",
                             "--deterministic")
        assert (code, out) == (1, "")
        assert err == "error: a --jobs worker exited with status 9 and no results\n"
        assert no_child_left()


class TestBenchWrappedNames:
    """The benchmark traces a sweep by wrapping, by name, every
    ``EXPERIMENTS`` builder and checker and ``cli._run_one``: a sweep
    reaches each through those names."""

    def test_a_sweep_calls_every_wrapped_name(self, capsys, monkeypatch):
        calls = {"build": 0, "check": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for key, (build, check, flags, doc) in list(cli.EXPERIMENTS.items()):
            entry = (counted("build", build), counted("check", check), flags, doc)
            monkeypatch.setitem(cli.EXPERIMENTS, key, entry)
        monkeypatch.setattr(cli, "_run_one", counted("solve", cli._run_one))
        argv, digest, _, _ = CORE_SWEEPS[0]
        code, out, _ = run(capsys, "experiment", *argv, "--jobs", "1", "--deterministic")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
        assert calls == {"build": 1, "check": 144, "solve": 176}


class TestSweepDigests:
    # stdout digests of the module entry point: a change in the tournament
    # classes, their order or any report line changes them; every
    # experiment at its defaults, which are the same before and after the
    # join bounds
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("direction", "30a30f6f9d0a4e4255cf7661f7b50c48332bed688dc6d8db924d28e071040ce3"),
            ("thm13", "56ca4513f53db40b5629201105463e8898ecfbc5235b9bf3ea4a160ad4682084"),
            ("abnormal", "a504a7cf2bbdc89adc3cbddf55c0b24860ce82081071469ff33d4bfe96d7db9f"),
            ("bounds", "0a73660275735f8830ee12cbd1a14ac16bd71ec2b0661a39ffdf01e073b70654"),
            ("conj-direction",
             "5ee934556bd597525c03d09e1dc624ad173b5ef2d6162a4a8ecb7fcdfb32e749"),
            ("kjoin", "e8cadf5467ba4316a643c3677f97bba3809f5d852333f6a5767c5af008f2727a"),
            ("qn", "2e299fe197f0ef17518ac6d5f3340c04fc2239dcdd02f8c9350bd4e10408dfaf"),
            ("thm15", "30c7e0df8782a374018de6f7063a3593200da00144dac6531f1987b65286dd8e"),
        ],
    )
    def test_stdout_digest(self, name, digest):
        src = os.path.dirname(os.path.dirname(invlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # --n-max 5 is the default, given to the experiments that read it
        n_max = ["--n-max", "5"] if "--n-max" in READS[name] else []
        proc = subprocess.run(
            [sys.executable, "-m", "invlab.cli", "experiment", name,
             *n_max, "--deterministic"],
            capture_output=True, env=env, timeout=120, check=True,
        )
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_closing_stdout_exits_one_quietly(self, unbuffered):
        # the read end is closed before the child starts, so its first
        # write to stdout fails, whether that is a print or the last flush
        src = os.path.dirname(os.path.dirname(invlab.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "invlab.cli", "experiment", "direction",
                 "--n-max", "4"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1 and proc.stderr == b""
