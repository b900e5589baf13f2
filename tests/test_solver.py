"""Solver backends, tightness criterion, and rank law checks."""

import dataclasses
import random

import pytest

from invlab import f2, solver
from invlab.construct import c3, dijoin, graph_from_expr, k_join, qn, transitive
from invlab.digraph import (
    InversionFamily,
    apply_family,
    assignment_to_family,
    dump_family,
    enumerate_tournaments,
    family_to_assignment,
    is_acyclic,
    nonisomorphic_tournaments,
    reverse,
)
from invlab.errors import (
    BudgetExceededError,
    CriterionViolationError,
    ResourceLimitError,
)
from invlab.solver import (
    SearchOptions,
    exists_family,
    inv_exact,
    inv_order_backend,
    inv_subset_backend,
    inv_subset_oracle,
    is_c3_tight,
    rank_lower_bound_check,
)

from helpers import candidates_by_product, random_oriented, random_tournament


class TestExistsFamily:
    def test_transitive_needs_nothing(self):
        A = exists_family(transitive(5), 0)
        assert A is not None and A.width == 0

    def test_triangle_witness_is_a_pair(self):
        from invlab.digraph import assignment_to_family

        A = exists_family(c3(), 1)
        assert A is not None
        (only_set,) = assignment_to_family(A).sets
        assert only_set.bit_count() == 2

    def test_double_triangle_needs_two(self):
        assert exists_family(dijoin(c3(), c3()), 1) is None
        assert exists_family(dijoin(c3(), c3()), 2) is not None

    def test_budget_error_is_distinct_from_none(self):
        with pytest.raises(BudgetExceededError):
            exists_family(dijoin(c3(), c3()), 1, SearchOptions(budget=3))

    def test_even_weight_restriction(self):
        # even-weight vectors of width <= 2 have all-zero pairwise products
        opts = SearchOptions(even_weight_only=True)
        assert exists_family(c3(), 1, opts) is None
        assert exists_family(c3(), 2, opts) is None
        found = exists_family(c3(), 3, opts)
        assert found is not None
        assert all(v.weight() % 2 == 0 for v in found.vecs)

    def test_k_cap(self):
        with pytest.raises(ValueError):
            exists_family(c3(), 13)


class TestInvExact:
    def test_known_joins(self):
        assert inv_exact(k_join([c3(), c3(), c3()])).value == 3
        assert inv_exact(dijoin(c3(), dijoin(c3(), c3()))).value == 3

    def test_certificate_fields(self):
        r = inv_exact(c3())
        assert r.value == 1 and r.max_k_exhausted == 0 and r.resolved
        assert is_acyclic(apply_family(c3(), r.witness)) is not None

    def test_bounded_unknown_marked(self):
        r = inv_exact(c3(), SearchOptions(max_k=0))
        assert not r.resolved and r.value is None and r.max_k_exhausted == 0

    def test_report_grammar(self):
        r = inv_exact(c3())
        head = r.report(deterministic=True).splitlines()[0]
        assert head.startswith("inv=1 k_proof=0_exhausted backend=assign nodes=")

    def test_deterministic_witness(self):
        a = inv_exact(k_join([c3(), c3()]))
        b = inv_exact(k_join([c3(), c3()]))
        assert a.witness == b.witness and a.nodes_explored == b.nodes_explored


class TestOrderBackend:
    def test_transitive(self):
        assert inv_order_backend(transitive(6)).value == 0

    def test_triangle(self):
        r = inv_order_backend(c3())
        assert r.value == 1
        assert is_acyclic(apply_family(c3(), r.witness)) is not None

    def test_agreement_on_labeled_four(self):
        for T in enumerate_tournaments(4):
            assert inv_order_backend(T).value == inv_exact(T).value

    def test_rejects_non_tournament(self):
        from invlab.digraph import Digraph

        with pytest.raises(ValueError):
            inv_order_backend(Digraph(2, (0, 0)))

    def test_rejects_large(self):
        with pytest.raises(ResourceLimitError):
            inv_order_backend(transitive(11))


class TestOrderBackendWitness:
    """The order backend's witness comes from the assignment search."""

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("realize_oracle is a test oracle only")

        monkeypatch.setattr(solver, "realize_oracle", refuse, raising=False)
        monkeypatch.setattr(f2, "realize_oracle", refuse, raising=False)

    def test_witness_without_realize_oracle(self, no_oracle):
        for T in list(enumerate_tournaments(4)) + [qn(7)]:
            r = inv_order_backend(T)
            assert r.value == inv_exact(T).value
            assert r.max_k_exhausted == r.value - 1
            assert len(r.witness.sets) == r.value
            assert is_acyclic(apply_family(T, r.witness)) is not None

    def test_witness_search_gets_value_and_budget(self, monkeypatch):
        seen = []
        search = solver._search_assignment

        def spy(D, k, opts):
            seen.append((k, opts))
            return search(D, k, opts)

        monkeypatch.setattr(solver, "_search_assignment", spy)
        opts = SearchOptions(budget=10_000, even_weight_only=True)
        r = inv_order_backend(qn(5), opts)
        assert [(k, o.budget, o.even_weight_only) for k, o in seen] == [
            (2, 10_000, False)
        ]
        # the order search's own nodes only
        assert r.nodes_explored == inv_order_backend(qn(5)).nodes_explored

    def test_missing_witness_is_a_disagreement(self, monkeypatch):
        monkeypatch.setattr(solver, "_search_assignment", lambda D, k, opts: (None, 0))
        with pytest.raises(CriterionViolationError):
            inv_order_backend(qn(5))

    def test_bound_cache_is_bounded(self):
        assert solver._order_bound.cache_info().maxsize == 1 << 16

    def test_search_options_fields(self):
        names = [f.name for f in dataclasses.fields(SearchOptions)]
        assert names == ["backend", "max_k", "budget", "even_weight_only"]


class TestSubsetOracle:
    def test_triangle(self):
        assert inv_subset_oracle(c3()) == 1

    def test_transitive(self):
        assert inv_subset_oracle(transitive(4)) == 0

    def test_unresolved_returns_none(self):
        assert inv_subset_oracle(k_join([c3(), c3(), c3()]), max_k=0) is None

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            inv_subset_oracle(transitive(5), max_k=2, subset_budget=10)

    def test_backend_wrapper_bounded_unknown(self):
        r = inv_subset_backend(k_join([c3(), c3(), c3()]), SearchOptions(budget=600))
        assert not r.resolved and r.backend == "subset"

    def test_agreement_on_small_tournaments(self):
        rng = random.Random(6)
        for _ in range(40):
            T = random_tournament(rng, rng.randint(1, 5))
            v = inv_subset_oracle(T, 2)
            assert v == inv_exact(T).value


class TestThreeBackendAgreement:
    def test_labeled_four_vertex_sweep(self):
        for T in enumerate_tournaments(4):
            a = inv_exact(T).value
            assert inv_order_backend(T).value == a
            assert inv_subset_oracle(T, 2) == a


class TestSymmetryBreakingCompleteness:
    def test_pruned_search_matches_naive_enumeration(self):
        # the only symmetry broken is permutation of family positions;
        # a raw product enumeration must agree on existence
        from itertools import product as iproduct

        from invlab.digraph import VectorAssignment, apply_assignment
        from invlab.f2 import BitVec

        def naive(D, k, even_only):
            for combo in iproduct(range(1 << k), repeat=D.n):
                if even_only and any(w.bit_count() % 2 for w in combo):
                    continue
                A = VectorAssignment(k, tuple(BitVec(k, w) for w in combo))
                if is_acyclic(apply_assignment(D, A)) is not None:
                    return True
            return False

        rng = random.Random(99)
        for _ in range(150):
            D = random_oriented(rng, rng.randint(1, 5))
            k = rng.randint(0, 3)
            even_only = rng.random() < 0.4
            opts = SearchOptions(even_weight_only=even_only)
            assert (exists_family(D, k, opts) is not None) == naive(D, k, even_only)


class TestIsC3Tight:
    def test_even_value_never_tight(self):
        assert is_c3_tight(dijoin(c3(), c3())) is False

    def test_triangle_not_tight(self):
        assert is_c3_tight(c3()) is False

    def test_acyclic_not_tight(self):
        assert is_c3_tight(transitive(3)) is False

    def test_small_class_sweep(self):
        for n in range(1, 5):
            for T in nonisomorphic_tournaments(n):
                assert is_c3_tight(T) is False  # values here are all <= 1 or even

    def test_odd_value_criterion_agrees_nonvacuously(self):
        # a value-3 instance where the even-weight route must agree with
        # the directly solved 12-vertex dijoin
        D = k_join([c3(), c3(), c3()])
        assert inv_exact(D).value == 3
        assert is_c3_tight(D) is False

    def test_no_odd_value_three_tournaments_up_to_six(self):
        # the criterion's odd branch is vacuous on tournament sweeps here
        for n in range(1, 7):
            for T in nonisomorphic_tournaments(n):
                assert inv_exact(T).value <= 2


class TestRankLaw:
    def test_minimal_witness_even_value_has_exact_rank(self):
        D = dijoin(c3(), c3())
        r = inv_exact(D)
        rep = rank_lower_bound_check(D, family_to_assignment(r.witness))
        assert rep.ok and rep.inversion_number == 2 and rep.rank == 2

    def test_padded_witness_still_passes(self):
        D = dijoin(c3(), c3())
        r = inv_exact(D)
        padded = InversionFamily(D.n, r.witness.sets + r.witness.sets[:1] * 2)
        assert is_acyclic(apply_family(D, padded)) is not None
        rep = rank_lower_bound_check(D, family_to_assignment(padded))
        assert rep.ok

    def test_rejects_non_decycling_assignment(self):
        with pytest.raises(ValueError):
            rank_lower_bound_check(
                c3(), family_to_assignment(InversionFamily(3, (0,)))
            )

    def test_random_tournament_witnesses(self):
        rng = random.Random(15)
        for _ in range(30):
            T = random_tournament(rng, rng.randint(1, 6))
            r = inv_exact(T)
            rep = rank_lower_bound_check(T, family_to_assignment(r.witness))
            assert rep.ok
            if r.value % 2 == 0:
                assert rep.rank == r.value


class TestStructuralInvariants:
    def test_reverse_invariance_small(self):
        for n in range(1, 5):
            for T in nonisomorphic_tournaments(n):
                assert inv_exact(reverse(T)).value == inv_exact(T).value

    def test_subgraph_monotone_with_family_restriction(self):
        rng = random.Random(23)
        for _ in range(60):
            D = random_oriented(rng, rng.randint(2, 6))
            mask = rng.getrandbits(D.n) or 1
            sub = D.induced(mask)
            rd, rs = inv_exact(D), inv_exact(sub)
            assert rs.value <= rd.value
            restricted = _reindex(rd.witness, mask)
            assert is_acyclic(apply_family(sub, restricted)) is not None


def _reindex(F: InversionFamily, mask: int) -> InversionFamily:
    verts = [v for v in range(F.n) if mask >> v & 1]
    sets = []
    for s in F.sets:
        sets.append(sum(1 << i for i, v in enumerate(verts) if s >> v & 1))
    return InversionFamily(len(verts), tuple(sets))


def compositions(k):
    """Every tuple of positive parts summing to k (the block shapes of width k)."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            yield (first,) + rest


def blocks_of(shape):
    blocks, start = [], 0
    for m in shape:
        blocks.append(tuple(range(start, start + m)))
        start += m
    return blocks


class TestCandidateLists:
    def test_matches_product_oracle(self):
        for k in range(8):
            for shape in compositions(k):
                for even_only in (False, True):
                    got = [
                        (w, coords, blocks_of(nxt))
                        for w, coords, nxt in solver._candidates(shape, even_only)
                    ]
                    want = [
                        (w, tuple(c for c in range(k) if w >> c & 1), nb)
                        for w, nb in candidates_by_product(blocks_of(shape))
                        if not (even_only and w.bit_count() & 1)
                    ]
                    assert got == want, (shape, even_only)


# node counts per k level and the witness of the search before the shape
# memo and the column-mask flip; the search tree must not change
PINNED_TREES = [
    ("qn(9)", [5, 56, 785, 25342, 515], "1 2\n5 6 8\n3 4\n4 5\n"),
    ("qn(10)", [5, 56, 785, 26374, 548], "1 2\n6 7 9\n3 4\n5 6\n"),
    ("join(c3,c3,c3,c3)", [3, 32, 601, 22686, 67], "1 2\n10 11\n4 5\n7 8\n"),
    (
        "blowup_uniform(c3;c3,3)",
        [3, 32, 529, 17718, 251],
        "1 2\n3 6 7 8\n4 5 6 7 8\n7 8\n",
    ),
    ("dijoin(c3,c3)", [3, 32, 18], "1 2\n4 5\n"),
]
PINNED_EVEN_QN9 = [5, 5, 62, 244, 2588, 235]
PINNED_EVEN_QN9_WITNESS = "1 2 6\n1 6\n3 5 6 8\n5 8\n2 3 6\n"


def level_counts(D, opts):
    counts = []
    for k in range(solver.MAX_K + 1):
        found, nodes = solver._search_assignment(D, k, opts)
        counts.append(nodes)
        if found is not None:
            return counts, dump_family(assignment_to_family(found))
    raise AssertionError("no witness up to MAX_K")


class TestSearchTreePinned:
    @pytest.fixture(params=["memo", "uncached"])
    def memo_cap(self, request, monkeypatch):
        if request.param == "uncached":
            monkeypatch.setattr(solver, "_MEMO_CAP", 1)

    @pytest.mark.parametrize(
        "expr,counts,witness", PINNED_TREES, ids=[e for e, _, _ in PINNED_TREES]
    )
    def test_levels_and_witness(self, memo_cap, expr, counts, witness):
        D = graph_from_expr(expr)
        assert level_counts(D, SearchOptions()) == (counts, witness)
        r = inv_exact(D)
        assert r.nodes_explored == sum(counts)
        assert dump_family(r.witness) == witness

    def test_even_weight_levels_and_witness(self, memo_cap):
        opts = SearchOptions(even_weight_only=True)
        assert level_counts(qn(9), opts) == (PINNED_EVEN_QN9, PINNED_EVEN_QN9_WITNESS)

    def test_memo_is_per_call_and_capped(self, monkeypatch):
        built = []
        candidates = solver._candidates

        def spy(shape, even_only):
            built.append(shape)
            return candidates(shape, even_only)

        monkeypatch.setattr(solver, "_candidates", spy)
        D = qn(10)
        solver._search_assignment(D, 3, SearchOptions())
        once = list(built)
        assert len(once) == len(set(once))  # each shape built once per call
        solver._search_assignment(D, 3, SearchOptions())
        assert built == once + once  # nothing kept between calls
        built.clear()
        monkeypatch.setattr(solver, "_MEMO_CAP", 1)
        solver._search_assignment(D, 3, SearchOptions())
        assert len(built) > len(once)  # shapes past the cap are rebuilt


class TestBudgetPerSolve:
    # qn(10) explores 5 + 56 + 785 + 26374 + 548 = 27768 nodes in all
    def test_budget_caps_the_whole_solve(self):
        with pytest.raises(BudgetExceededError, match="27000 nodes"):
            inv_exact(qn(10), SearchOptions(budget=27_000))
        r = inv_exact(qn(10), SearchOptions(budget=27_768))
        assert r.value == 4 and r.nodes_explored == 27_768

    def test_budget_spent_before_the_last_level(self):
        spent = 5 + 56 + 785 + 26374
        with pytest.raises(BudgetExceededError, match=f"{spent} nodes"):
            inv_exact(qn(10), SearchOptions(budget=spent))
        r = inv_exact(qn(10), SearchOptions(budget=spent, max_k=3))
        assert not r.resolved and r.nodes_explored == spent
