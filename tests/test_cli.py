"""Command-line behaviour: sources, formats, exit codes, experiments."""

import hashlib
import os
import random
import re
import shlex
import subprocess
import sys

import pytest

import invlab

import helpers

from invlab import cli, construct, digraph, solver
from invlab.construct import MAX_EXPR_DEPTH
from invlab.construct import qn, qn_family
from invlab.digraph import dump_digraph, dump_family
from invlab.f2 import dump_matrix


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def reference_solver(monkeypatch):
    # the search before forward checking, whose node counts older pins record
    helpers.use_reference_search(monkeypatch)


class TestInvCommand:
    def test_triangle(self, capsys, reference_solver):
        code, out, _ = run(capsys, "inv", "expr:c3", "--deterministic")
        assert code == 0
        assert out.splitlines()[0] == "inv=1 k_proof=0_exhausted backend=assign nodes=10"

    def test_triangle_forward_checked(self, capsys):
        # k=0: the third vertex's mask empties after two nodes
        code, out, _ = run(capsys, "inv", "expr:c3", "--deterministic")
        assert code == 0
        assert out.splitlines()[0] == "inv=1 k_proof=0_exhausted backend=assign nodes=7"

    def test_transitive_six(self, capsys):
        # no level lies below 0, so there is none to have exhausted
        code, out, _ = run(capsys, "inv", "expr:tt(6)", "--deterministic")
        assert code == 0 and out.startswith("inv=0 k_proof=none backend=assign ")

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

    def test_budget_counts_the_whole_forward_checked_solve(self, capsys):
        # qn(10) needs 2 + 22 + 220 + 6918 + 30 = 7192 nodes
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "7191", "--deterministic"
        )
        assert code == 2 and out.startswith("inv=unknown reason=")
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "7192", "--deterministic"
        )
        assert code == 0 and out.startswith("inv=4 ") and "nodes=7192" in out

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
        "flags",
        [("--max-k", "13"), ("--max-k", "-1"), ("--budget", "0")],
        ids=["max-k-13", "max-k-negative", "budget-0"],
    )
    def test_search_flag_out_of_range_exit_one(self, capsys, monkeypatch, flags):
        def refuse(*args, **kwargs):
            raise AssertionError("the solver ran before the flags were checked")

        monkeypatch.setattr(solver, "inv_exact", refuse)
        code, out, err = run(capsys, "inv", "expr:c3", *flags, "--deterministic")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

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

        monkeypatch.setattr(solver, "free_diag_bound", refuse)
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
        assert code == 1 and "outside" in err

    def test_empty_graph_refusal_names_no_range(self, capsys, tmp_path):
        f = tmp_path / "one.fam"
        f.write_text("0\n")
        code, out, err = run(capsys, "verify", "enc:0:", str(f))
        assert (code, out) == (1, "")
        assert err == "error: set 0: vertex 0 outside the graph, which has no vertices\n"


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
        code, _, err = run(capsys, "experiment", "nope")
        assert code == 1 and "unknown experiment" in err

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
        real_pool = cli.Pool

        def counted_pool(processes):
            opened.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "Pool", counted_pool)
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
    def test_budget_stdout_pinned(self, capsys, reference_solver, argv, digest):
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
    def test_forward_checked_budget_stdout_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "experiment", *argv, "--deterministic")
        assert code == 2
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # at max-k 2 the part's triangle dijoin (value 3) is unresolved: past
    # max-k, not past a budget, since none was set; the line names the graph
    def test_kjoin_dijoin_unresolved_pinned(self, capsys):
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

    def test_kjoin_solves_each_distinct_graph_once(self, capsys, solved):
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

    def test_each_distinct_graph_solved_once(self, capsys, solved):
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
        assert len(solved) == len(set(solved)) == len(asked) < 2 * 16
        assert set(solved) == asked


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

    def test_same_stdout_through_a_real_pool(self, capsys, monkeypatch, joins):
        joins(*TIGHTNESS_JOINS)
        opened = []
        real_pool = cli.Pool

        def counted_pool(processes):
            opened.append(processes)
            return real_pool(processes)

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "Pool", counted_pool)
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

    def test_criterion_over_budget_is_unknown(self, capsys, monkeypatch, joins):
        # the criterion search takes 92 nodes, the rest resolve by default
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

        monkeypatch.setattr(cli, "Pool", RecordingPool)
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


class TestSweepDigests:
    # stdout digests of the module entry point: a change in the tournament
    # classes, their order or any report line changes them
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("direction", "30a30f6f9d0a4e4255cf7661f7b50c48332bed688dc6d8db924d28e071040ce3"),
            ("thm13", "56ca4513f53db40b5629201105463e8898ecfbc5235b9bf3ea4a160ad4682084"),
        ],
    )
    def test_stdout_digest(self, name, digest):
        src = os.path.dirname(os.path.dirname(invlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "invlab.cli", "experiment", name,
             "--n-max", "5", "--deterministic"],
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
