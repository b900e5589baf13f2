"""Command-line behaviour: sources, formats, exit codes, experiments."""

import hashlib
import os
import subprocess
import sys

import pytest

import invlab

from invlab import cli, construct, digraph, solver
from invlab.construct import MAX_EXPR_DEPTH
from invlab.errors import CriterionViolationError
from invlab.construct import qn, qn_family
from invlab.digraph import dump_digraph, dump_family
from invlab.f2 import SymMatrix, dump_matrix


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvCommand:
    def test_triangle(self, capsys):
        code, out, _ = run(capsys, "inv", "expr:c3", "--deterministic")
        assert code == 0
        assert out.splitlines()[0] == "inv=1 k_proof=0_exhausted backend=assign nodes=10"

    def test_transitive_six(self, capsys):
        code, out, _ = run(capsys, "inv", "expr:tt(6)", "--deterministic")
        assert code == 0 and out.startswith("inv=0 ")

    def test_triple_join(self, capsys):
        code, out, _ = run(capsys, "inv", "expr:join(c3, c3, c3)", "--deterministic")
        assert code == 0 and out.startswith("inv=3 ")

    def test_order_backend(self, capsys):
        code, out, _ = run(
            capsys, "inv", "expr:qn(5)", "--backend", "order", "--deterministic"
        )
        assert code == 0 and out.startswith("inv=2 ") and "backend=order" in out

    def test_subset_backend(self, capsys):
        code, out, _ = run(
            capsys, "inv", "expr:c3", "--backend", "subset", "--deterministic"
        )
        assert code == 0 and out.startswith("inv=1 ") and "backend=subset" in out

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

    def test_budget_counts_the_whole_solve(self, capsys):
        # qn(10) needs 27768 nodes over its five k levels
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "27000", "--deterministic"
        )
        assert code == 2 and out.startswith("inv=unknown reason=")
        code, out, _ = run(
            capsys, "inv", "expr:qn(10)", "--budget", "27768", "--deterministic"
        )
        assert code == 0 and out.startswith("inv=4 ") and "nodes=27768" in out

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run(capsys, "inv", "expr:qn(")
        assert code == 1 and "offset 3" in err

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


class TestInvLimits:
    def test_order_backend_ignores_even_weight_for_its_witness(self, capsys):
        code, out, _ = run(
            capsys, "inv", "expr:qn(5)", "--backend", "order", "--even-weight-only",
            "--deterministic",
        )
        assert code == 0 and out.startswith("inv=2 ") and "backend=order" in out

    @pytest.mark.parametrize("expr", ["tt(1000000000)", "qn(1000000000)"])
    def test_above_vertex_limit_exit_one(self, capsys, expr):
        code, out, err = run(capsys, "inv", "expr:" + expr)
        assert code == 1 and out == ""
        assert err.startswith("error:") and str(digraph.MAX_VERTICES) in err

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


class TestGramCommand:
    def test_identity_three(self, capsys, tmp_path):
        m = tmp_path / "i3.mat"
        m.write_text(dump_matrix(SymMatrix.identity(3)))
        code, out, _ = run(capsys, "gram", str(m))
        assert code == 0
        assert out.splitlines()[0] == "factored k=3 verified=1"
        assert "min_gram_dim=3" in out

    def test_infeasible_pair(self, capsys, tmp_path):
        m = tmp_path / "alt.mat"
        m.write_text(dump_matrix(SymMatrix.from_entries([[0, 1], [1, 0]])))
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
        ],
    )
    def test_unresolved_base_is_unknown_exit_two(self, capsys, argv):
        # base values are solved by the checker, so an exhausted budget or
        # max-k is an UNKNOWN line, not a traceback or a dropped instance
        code, out, _ = run(capsys, "experiment", *argv, "--deterministic")
        assert code == 2
        instances = [line for line in out.splitlines() if line.startswith("instance")]
        assert instances and all(line.endswith(": UNKNOWN") for line in instances)
        assert f"total={len(instances)} pass=0 fail=0 unknown={len(instances)}" in out

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

    def test_replayable_instances(self, capsys):
        _, out, _ = run(
            capsys, "experiment", "thm13", "--n-max", "5", "--deterministic"
        )
        enc = next(
            line.split()[1] for line in out.splitlines() if line.startswith("instance")
        )
        code, replay, _ = run(capsys, "inv", enc, "--deterministic")
        assert code == 0 and replay.startswith("inv=2 ")


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
        def disagree(D, opts=None):
            raise CriterionViolationError("routes disagree")

        monkeypatch.setattr(solver, "is_c3_tight", disagree)
        code, out, _ = run(capsys, "experiment", "kjoin", "--deterministic")
        assert code == 3
        fails = [line for line in out.splitlines() if line.endswith(": FAIL")]
        assert fails and all("routes disagree" in line for line in fails)
        assert "total=4 pass=0 fail=4" in out


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
