"""Solver backends, the even-weight tightness criterion, and rank law checks."""

import functools
import inspect
import random
import re

import pytest

from invlab import f2, solver
from invlab.construct import c3, dijoin, graph_from_expr, k_join, qn, qn_family, transitive
from invlab.digraph import (
    InversionFamily,
    apply_family,
    dump_family,
    encode_digraph,
    is_acyclic,
    nonisomorphic_tournaments,
    reverse,
)
from invlab.errors import BudgetExceededError, ResourceLimitError
from invlab.solver import (
    SearchOptions,
    exists_family,
    inv_exact,
    inv_order_backend,
)

import helpers
from helpers import (
    apply_assignment,
    candidates_by_product,
    enumerate_tournaments,
    family_vectors,
    flip_matrix,
    inv_subset_oracle,
    random_oriented,
    random_tournament,
    rank_lower_bound_check,
)


class TestExistsFamily:
    def test_transitive_needs_nothing(self):
        F = exists_family(transitive(5), 0)
        assert F == InversionFamily(5, ())

    def test_triangle_witness_is_a_pair(self):
        F = exists_family(c3(), 1)
        assert F is not None
        (only_set,) = F.sets
        assert only_set.bit_count() == 2

    def test_double_triangle_needs_two(self):
        assert exists_family(dijoin(c3(), c3()), 1) is None
        assert exists_family(dijoin(c3(), c3()), 2) is not None

    def test_budget_error_is_distinct_from_none(self):
        with pytest.raises(BudgetExceededError):
            exists_family(dijoin(c3(), c3()), 1, SearchOptions(budget=3))

    def test_even_weight_restriction(self):
        # even-weight vectors of width <= 2 have all-zero pairwise products
        assert exists_family(c3(), 1, even_weight_only=True) is None
        assert exists_family(c3(), 2, even_weight_only=True) is None
        found = exists_family(c3(), 3, even_weight_only=True)
        assert found is not None
        assert all(w.bit_count() % 2 == 0 for w in family_vectors(found))

    def test_k_cap(self):
        with pytest.raises(ValueError):
            exists_family(c3(), 13)

    @pytest.mark.parametrize("k", [True, 2.0, 2.5, "2"], ids=repr)
    def test_k_must_be_an_int(self, k):
        with pytest.raises(ValueError, match=f"family size must be an int, got {k!r}"):
            exists_family(qn(5), k)

    def test_witness_is_certified(self, monkeypatch):
        # a search that hands back a family leaving the triangle whole
        def wrong(D, k, opts, spent=0, *, even_weight_only=False):
            return InversionFamily(D.n, (0,) * k), 1

        monkeypatch.setattr(solver, "_search_assignment", wrong)
        with pytest.raises(RuntimeError, match="decycling check"):
            exists_family(c3(), 1)
        assert exists_family(transitive(3), 1) == InversionFamily(3, (0,))


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


@pytest.fixture
def bound_calls(monkeypatch):
    """The argument tuples of every order-backend call of free_diag_bound."""
    calls = []
    free_diag = solver.free_diag_bound

    def spy(*args):
        calls.append(args)
        return free_diag(*args)

    monkeypatch.setattr(solver, "free_diag_bound", spy)
    return calls


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

    def test_rejects_large(self, bound_calls):
        inv_order_backend(transitive(12))
        assert bound_calls  # the cap admits 12 vertices
        bound_calls.clear()
        with pytest.raises(ResourceLimitError, match="capped at 12 vertices"):
            inv_order_backend(transitive(13))
        assert bound_calls == []  # refused before any bound

    @pytest.mark.parametrize("max_k", range(4))
    def test_honors_max_k(self, max_k):
        # inv(qn(7)) = 3: below that the order search must not resolve it
        r = inv_order_backend(qn(7), SearchOptions(max_k=max_k))
        if max_k < 3:
            assert (r.value, r.witness, r.max_k_exhausted) == (None, None, max_k)
        else:
            assert r.value == 3 and r.max_k_exhausted == 2
        assert r.resolved == inv_exact(qn(7), SearchOptions(max_k=max_k)).resolved

    @pytest.mark.parametrize("max_k", range(4))
    def test_backends_agree_under_max_k(self, max_k):
        opts = SearchOptions(max_k=max_k)
        for n in range(7):
            for T in nonisomorphic_tournaments(n):
                a, o = inv_exact(T, opts), inv_order_backend(T, opts)
                assert (o.value, o.max_k_exhausted) == (a.value, a.max_k_exhausted)


class TestOrderBackendValues:
    def test_every_order_seven_class_matches_inv_exact(self):
        classes = nonisomorphic_tournaments(7)
        assert len(classes) == 456
        for T in classes:
            r = inv_order_backend(T)
            assert r.value == inv_exact(T).value
            assert is_acyclic(apply_family(T, r.witness)) is not None

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_random_tournaments_match_inv_exact(self, n):
        rng = random.Random(f"order-values:{n}")
        for _ in range(2):
            T = random_tournament(rng, n)
            r = inv_order_backend(T)
            assert r.value == inv_exact(T).value
            assert is_acyclic(apply_family(T, r.witness)) is not None

    def test_qn10_by_both_backends(self):
        a, o = inv_exact(qn(10)), inv_order_backend(qn(10))
        assert (a.value, o.value) == (4, 4)
        # the peel of the best order's flip matrix: the consecutive pairs
        assert o.witness == qn_family(10)
        assert is_acyclic(apply_family(qn(10), o.witness)) is not None


class TestOrderBackendWitness:
    """The order backend's witness is the peel of its best order's flip matrix."""

    @pytest.fixture
    def no_oracle(self, monkeypatch):
        # the library has no realize_oracle; the test helpers' one must stay unused
        assert not hasattr(solver, "realize_oracle")
        assert not hasattr(f2, "realize_oracle")

        def refuse(*args, **kwargs):
            raise AssertionError("realize_oracle is a test oracle only")

        monkeypatch.setattr(helpers, "realize_oracle", refuse)

    def test_witness_without_realize_oracle(self, no_oracle):
        for T in list(enumerate_tournaments(4)) + [qn(7)]:
            r = inv_order_backend(T)
            assert r.value == inv_exact(T).value
            assert r.max_k_exhausted == r.value - 1
            assert len(r.witness.sets) == r.value
            assert is_acyclic(apply_family(T, r.witness)) is not None

    def test_witness_without_the_assignment_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the order backend makes its own witness")

        graphs = [T for n in range(8) for T in nonisomorphic_tournaments(n)]
        graphs += [qn(n) for n in range(1, 11)]
        expected = [inv_exact(T).value for T in graphs]
        monkeypatch.setattr(solver, "_search_assignment", refuse)
        for T, value in zip(graphs, expected):
            r = inv_order_backend(T)
            assert r.value == value
            assert len(r.witness.sets) == value
            assert is_acyclic(apply_family(T, r.witness)) is not None

    def test_budget_covers_the_whole_solve(self):
        r = inv_order_backend(qn(7))
        exact = inv_order_backend(qn(7), SearchOptions(budget=r.nodes_explored))
        assert (exact.value, exact.witness) == (r.value, r.witness)
        with pytest.raises(BudgetExceededError, match=f"{r.nodes_explored - 1} nodes"):
            inv_order_backend(qn(7), SearchOptions(budget=r.nodes_explored - 1))

    def test_search_options_fields(self):
        # the fields in their positional construction order
        names = list(inspect.signature(SearchOptions).parameters)
        assert names == ["max_k", "budget"]

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"max_k": 13}, "max_k must be in 0..12, got 13"),
            ({"max_k": -1}, "max_k must be in 0..12, got -1"),
            ({"budget": 0}, "budget must be at least 1, got 0"),
            # not an int: refused here, before a search could trip on it
            ({"max_k": 2.5}, "max_k must be an int, got 2.5"),
            ({"max_k": 2.0}, "max_k must be an int, got 2.0"),
            ({"max_k": "3"}, "max_k must be an int, got '3'"),
            ({"max_k": True}, "max_k must be an int, got True"),
            ({"budget": 1.5}, "budget must be an int, got 1.5"),
            ({"budget": 100.0}, "budget must be an int, got 100.0"),
            ({"budget": True}, "budget must be an int, got True"),
        ],
    )
    def test_search_options_refuse_out_of_range(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SearchOptions(**fields)


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


def agree_with_reference(D, ks, even_weight_only=False):
    """Existence matches the search before forward checking at each width;
    no level grows, and every witness decycles D."""
    opts = SearchOptions()
    for k in ks:
        found, nodes = solver._search_assignment(
            D, k, opts, even_weight_only=even_weight_only
        )
        ref, ref_nodes = helpers.reference_search(
            D, k, opts, complement=True, even_weight_only=even_weight_only
        )
        assert (found is None) == (ref is None), (encode_digraph(D), k)
        assert nodes <= ref_nodes, (encode_digraph(D), k)
        if found is not None:
            assert is_acyclic(apply_family(D, found)) is not None


class TestSymmetryBreakingCompleteness:
    def test_pruned_search_matches_naive_enumeration(self):
        # the symmetries broken are permutation of family positions and, at
        # even k, complementing every odd-weight vector (an isometry of the
        # dot product, see the next test); a raw product enumeration must
        # agree on existence
        from itertools import product as iproduct

        def naive(D, k, even_only):
            for combo in iproduct(range(1 << k), repeat=D.n):
                if even_only and any(w.bit_count() % 2 for w in combo):
                    continue
                if is_acyclic(apply_assignment(D, combo)) is not None:
                    return True
            return False

        rng = random.Random(99)
        for _ in range(150):
            D = random_oriented(rng, rng.randint(1, 5))
            k = rng.randint(0, 3)
            even_only = rng.random() < 0.4
            found = exists_family(D, k, even_weight_only=even_only)
            assert (found is not None) == naive(D, k, even_only)

    def test_complementing_odd_vectors_keeps_every_flip(self):
        # for even k the all-ones j has j.j = 0, so x -> x + (x.j) j keeps
        # every dot product: it fixes even-weight vectors and complements
        # odd-weight ones
        rng = random.Random(41)
        for _ in range(200):
            D = random_oriented(rng, rng.randint(1, 9))
            k = rng.choice([2, 4, 6, 8])
            ones = (1 << k) - 1
            vecs = [rng.getrandbits(k) for _ in range(D.n)]
            flipped = [w ^ ones if w.bit_count() & 1 else w for w in vecs]
            assert apply_assignment(D, vecs) == apply_assignment(D, flipped)

    def test_agrees_with_reference_on_small_tournaments(self):
        # every labelled tournament up to 5 vertices and every class of 6
        tournaments = [T for n in range(6) for T in enumerate_tournaments(n)]
        for T in tournaments + nonisomorphic_tournaments(6):
            agree_with_reference(T, range(5))

    def test_agrees_with_reference_on_triangle_dijoins(self):
        # each class up to 6 with a triangle dijoined on either side
        for n in range(1, 7):
            for T in nonisomorphic_tournaments(n):
                agree_with_reference(dijoin(c3(), T), range(5))
                agree_with_reference(dijoin(T, c3()), range(5))

    def test_agrees_with_reference_on_random_oriented_graphs(self):
        # missing arcs: no bench workload has one, and a non-adjacent pair
        # must stay out of every cycle the masks test
        rng = random.Random(57)
        for _ in range(150):
            D = random_oriented(rng, rng.randint(2, 8))
            while D.is_tournament():
                D = random_oriented(rng, D.n)
            for even_only in (False, True):
                agree_with_reference(D, range(5), even_only)

    @pytest.mark.parametrize(
        "expr,value",
        [
            ("qn(9)", 4),
            ("qn(10)", 4),
            ("qn(11)", 5),
            ("join(c3,c3,c3,c3)", 4),
            ("blowup_uniform(c3;c3,3)", 4),
        ],
    )
    def test_agrees_with_reference_around_the_value(self, expr, value):
        agree_with_reference(graph_from_expr(expr), (value - 1, value))


# kjoin's tightness question: the graphs the criterion was first checked on
CRITERION_GRAPHS = [
    graph_from_expr(expr) for expr in ("c3", "tt(3)", "dijoin(c3, c3)", "join(c3, c3, c3)")
] + [T for n in range(1, 5) for T in nonisomorphic_tournaments(n)]


class TestEvenWeightCriterion:
    """exists_family(D, k, even_weight_only=True) against inv(c3 => D) = k."""

    @pytest.mark.parametrize("D", CRITERION_GRAPHS, ids=encode_digraph)
    def test_agrees_with_the_triangle_dijoin(self, D):
        k = inv_exact(D).value
        tight = inv_exact(dijoin(c3(), D)).value == k
        assert not tight  # no graph here is tight
        criterion = exists_family(D, k, even_weight_only=True) is not None
        if k >= 1:
            assert criterion == tight
        else:  # the empty family is vacuously even, so the criterion has no say
            assert criterion

    def test_odd_value_criterion_agrees_nonvacuously(self):
        # a value-3 instance where the even-weight route must agree with
        # the directly solved 12-vertex dijoin
        D = k_join([c3(), c3(), c3()])
        assert inv_exact(D).value == 3
        assert exists_family(D, 3, even_weight_only=True) is None
        assert inv_exact(dijoin(c3(), D)).value == 4

    def test_no_odd_value_three_tournaments_up_to_six(self):
        # the criterion's odd branch is vacuous on tournament sweeps here
        for n in range(1, 7):
            for T in nonisomorphic_tournaments(n):
                assert inv_exact(T).value <= 2


class TestRankLaw:
    def test_minimal_witness_even_value_has_exact_rank(self):
        D = dijoin(c3(), c3())
        r = inv_exact(D)
        rep = rank_lower_bound_check(D, family_vectors(r.witness), r.value)
        assert rep.ok and rep.inversion_number == 2 and rep.rank == 2

    def test_padded_witness_still_passes(self):
        D = dijoin(c3(), c3())
        r = inv_exact(D)
        padded = InversionFamily(D.n, r.witness.sets + r.witness.sets[:1] * 2)
        assert is_acyclic(apply_family(D, padded)) is not None
        rep = rank_lower_bound_check(D, family_vectors(padded), r.value)
        assert rep.ok

    def test_rejects_non_decycling_assignment(self):
        with pytest.raises(ValueError):
            rank_lower_bound_check(
                c3(), family_vectors(InversionFamily(3, (0,))), 1
            )

    def test_random_tournament_witnesses(self):
        rng = random.Random(15)
        for _ in range(30):
            T = random_tournament(rng, rng.randint(1, 6))
            r = inv_exact(T)
            rep = rank_lower_bound_check(T, family_vectors(r.witness), r.value)
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


# node counts per k level and the witness of the reference search (the
# search before the odd-weight complement rule, whose tree the shape memo
# and the column-mask flip did not change)
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
# the same graphs under the search before forward checking (isometry_search
# below), which at even k drops the first odd-weight vector heavier than
# k/2; the witnesses are those above
ISOMETRY_TREES = {
    "qn(9)": [5, 56, 785, 25342, 362],
    "qn(10)": [5, 56, 785, 26374, 395],
    "join(c3,c3,c3,c3)": [3, 32, 601, 22686, 66],
    "blowup_uniform(c3;c3,3)": [3, 32, 529, 17718, 250],
    "dijoin(c3,c3)": [3, 32, 18],
}
# even-weight vectors only: the rule never applies, so both searches agree
PINNED_EVEN_QN9 = [5, 5, 62, 244, 2588, 235]
PINNED_EVEN_QN9_WITNESS = "1 2 6\n1 6\n3 5 6 8\n5 8\n2 3 6\n"
# the same graphs under _search_assignment, which forward-checks each
# vertex's viable vectors and assigns the vertex with the fewest next
FORWARD_TREES = {
    "qn(9)": ([2, 22, 220, 6918, 29], "1 2\n5 6 8\n3 4\n4 5\n"),
    "qn(10)": ([2, 22, 220, 6918, 30], "1 2\n6 7 9\n3 4\n5 6\n"),
    "join(c3,c3,c3,c3)": ([2, 24, 370, 14012, 26], "1 2\n10 11\n4 5\n7 8\n"),
    "blowup_uniform(c3;c3,3)": (
        [2, 18, 226, 8690, 38],
        "1 2\n3 4 5 6 7 8\n4 5\n7 8\n",
    ),
    "dijoin(c3,c3)": ([2, 24, 11], "1 2\n4 5\n"),
}
FORWARD_EVEN_QN9 = (
    [2, 2, 6, 62, 300, 50],
    "1 2 4\n1 4\n3 4 6 8\n2 5 8\n3 4 5 6\n",
)

# non-tournaments, where a vertex's neighbours are not every other vertex:
# random_oriented(random.Random(seed), n) by (n, seed), under
# _search_assignment, recorded before its tables were built in one pass
# over the arcs
FORWARD_ORIENTED = {
    (8, 11): ([3, 36, 17], "3 4 6\n0 5 6 7\n"),
    (9, 33): ([2, 30, 178], "0 2 3 4 5 6 7\n6 7\n"),
    (10, 33): ([2, 18, 315, 39], "1 2 3 4 5\n2 4 6 8 9\n2 4 7\n"),
}

# the search before forward checking: reference_search with the complement rule
isometry_search = functools.partial(helpers.reference_search, complement=True)


def level_counts(D, opts, search=None, even_weight_only=False):
    search = search or solver._search_assignment
    counts = []
    for k in range(solver.MAX_K + 1):
        found, nodes = search(D, k, opts, even_weight_only=even_weight_only)
        counts.append(nodes)
        if found is not None:
            return counts, dump_family(found)
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
        opts = SearchOptions()
        assert level_counts(D, opts, helpers.reference_search) == (counts, witness)
        assert level_counts(D, opts, isometry_search) == (ISOMETRY_TREES[expr], witness)
        forward, forward_witness = FORWARD_TREES[expr]
        assert all(f <= i for f, i in zip(forward, ISOMETRY_TREES[expr]))
        assert level_counts(D, opts) == (forward, forward_witness)
        r = inv_exact(D)
        assert r.nodes_explored == sum(forward)
        assert dump_family(r.witness) == forward_witness

    def test_even_weight_levels_and_witness(self, memo_cap):
        opts = SearchOptions()
        want = (PINNED_EVEN_QN9, PINNED_EVEN_QN9_WITNESS)
        assert level_counts(qn(9), opts, helpers.reference_search, True) == want
        assert level_counts(qn(9), opts, isometry_search, True) == want
        assert all(f <= p for f, p in zip(FORWARD_EVEN_QN9[0], PINNED_EVEN_QN9))
        assert level_counts(qn(9), opts, None, True) == FORWARD_EVEN_QN9

    @pytest.mark.parametrize("n,seed", list(FORWARD_ORIENTED))
    def test_oriented_levels_and_witness(self, memo_cap, n, seed):
        D = random_oriented(random.Random(seed), n)
        assert not D.is_tournament()
        counts, witness = FORWARD_ORIENTED[n, seed]
        assert level_counts(D, SearchOptions()) == (counts, witness)
        r = inv_exact(D)
        assert r.nodes_explored == sum(counts)
        assert dump_family(r.witness) == witness

    def test_memo_is_per_call_and_capped(self, monkeypatch):
        # at even k a shape has two lists, with and without the odd-weight
        # rule, and both come from one _candidates call
        built = []
        candidates = solver._candidates

        def spy(shape, even_only):
            built.append(shape)
            return candidates(shape, even_only)

        monkeypatch.setattr(solver, "_candidates", spy)
        D = qn(10)
        for k in (3, 4):
            built.clear()
            solver._search_assignment(D, k, SearchOptions())
            once = list(built)
            assert len(once) == len(set(once))  # each shape built once per call
            solver._search_assignment(D, k, SearchOptions())
            assert built == once + once  # nothing kept between calls
        built.clear()
        monkeypatch.setattr(solver, "_MEMO_CAP", 1)
        solver._search_assignment(D, 4, SearchOptions())
        assert len(built) > len(once)  # shapes past the cap are rebuilt


# reference order-walk trees (helpers.reference_order_search), recorded
# from the exhaustive-loop bound: the bound's value, not how it is
# computed, decides which prefixes are cut
PINNED_ORDER_TREES = [
    ("qn(7)", "enc:7:7c.79.72.64.48.10.20", 3, 5121),
    ("qn(8)", "enc:8:fc.f9.f2.e4.c8.90.20.40", 3, 21731),
    ("random 0", "enc:8:24.4d.18.1.4b.9e.ad.1f", 3, 16402),
    ("random 1", "enc:8:f4.99.62.85.4c.da.8a.14", 2, 6373),
    ("random 2", "enc:8:38.59.cb.20.6c.6.29.7b", 3, 18408),
]
# inv_order_backend trees on the same graphs: each prefix is bounded by
# its whole row block, so the trees are cut sooner
PINNED_LOOKAHEAD_NODES = [496, 1230, 666, 260, 747]


def order_pin_graphs():
    rng = random.Random(7)
    return [qn(7), qn(8)] + [random_tournament(rng, 8) for _ in range(3)]


order_pins = pytest.mark.parametrize(
    "idx", range(len(PINNED_ORDER_TREES)), ids=[p[0] for p in PINNED_ORDER_TREES]
)


class TestOrderTreePinned:
    @order_pins
    def test_value_and_nodes(self, idx):
        _, enc, value, nodes = PINNED_ORDER_TREES[idx]
        T = order_pin_graphs()[idx]
        assert encode_digraph(T) == enc
        assert helpers.reference_order_search(T, SearchOptions()) == (value, nodes)

    @order_pins
    def test_value_and_nodes_uncached(self, monkeypatch, idx):
        # with the memo full at once, the bounds are recomputed: same tree
        monkeypatch.setattr(solver, "_MEMO_CAP", 1)
        self.test_value_and_nodes(idx)

    @order_pins
    def test_lookahead_value_and_nodes(self, idx):
        _, enc, value, reference_nodes = PINNED_ORDER_TREES[idx]
        nodes = PINNED_LOOKAHEAD_NODES[idx]
        assert nodes <= reference_nodes
        T = order_pin_graphs()[idx]
        r = inv_order_backend(T)
        assert (r.value, r.nodes_explored) == (value, nodes)

    def test_order_search_keeps_nothing_between_calls(self, bound_calls):
        # a prefix's block fixes its order, which the walk visits once, so
        # a memo could never hit: every node computes its bound
        D = qn(7)
        first = inv_order_backend(D)
        assert len(bound_calls) == first.nodes_explored
        second = inv_order_backend(D)
        assert len(bound_calls) == 2 * first.nodes_explored
        assert (second.value, second.nodes_explored) == (first.value, first.nodes_explored)

    @pytest.mark.parametrize("seed", [None, 1, 2], ids=["qn6", "random1", "random2"])
    def test_walk_bounds_the_flip_matrix_of_each_prefix(self, bound_calls, seed):
        # the walk adds one row per step and never edits the rows before
        # it; a plain walk reading each prefix's rows, over all columns,
        # off flip_matrix, with the loop oracle's widths, must bound the
        # same blocks under the same caps
        D = qn(6) if seed is None else random_tournament(random.Random(seed), 6)
        r = inv_order_backend(D)

        expected = []
        best_k = solver.MAX_K + 1

        def walk(seq):
            nonlocal best_k
            rest = [v for v in range(D.n) if v not in seq]
            flips = flip_matrix(D, list(seq) + rest)
            rows = tuple(flips[u] for u in seq)
            expected.append((rows, seq, D.n, best_k))
            k = helpers.free_diag_by_loop(rows, seq, D.n)[0]
            if k >= best_k:
                return
            if len(seq) == D.n:
                best_k = k
                return
            for v in rest:
                walk(seq + (v,))

        walk(())
        assert bound_calls == expected
        assert r.value == best_k


@pytest.fixture
def reference_solver(monkeypatch):
    helpers.use_reference_search(monkeypatch)


@pytest.mark.usefixtures("reference_solver")
class TestBudgetPerSolve:
    # qn(10) explores 5 + 56 + 785 + 26374 + 395 = 27615 nodes in all
    def test_budget_caps_the_whole_solve(self):
        with pytest.raises(BudgetExceededError, match="27000 nodes"):
            inv_exact(qn(10), SearchOptions(budget=27_000))
        r = inv_exact(qn(10), SearchOptions(budget=27_615))
        assert r.value == 4 and r.nodes_explored == 27_615

    def test_budget_spent_before_the_last_level(self):
        spent = 5 + 56 + 785 + 26374
        with pytest.raises(BudgetExceededError, match=f"{spent} nodes"):
            inv_exact(qn(10), SearchOptions(budget=spent))
        r = inv_exact(qn(10), SearchOptions(budget=spent, max_k=3))
        assert not r.resolved and r.nodes_explored == spent


class TestBudgetOnForwardTree:
    # the forward-checked qn(10) explores 2 + 22 + 220 + 6918 + 30 nodes
    LEVELS = FORWARD_TREES["qn(10)"][0]

    def test_budget_caps_the_whole_solve(self):
        # a budget one short of the whole tree fails at the node past it
        total = sum(self.LEVELS)
        with pytest.raises(BudgetExceededError, match=f"{total - 1} nodes"):
            inv_exact(qn(10), SearchOptions(budget=total - 1))
        r = inv_exact(qn(10), SearchOptions(budget=total))
        assert r.value == 4 and r.nodes_explored == total

    def test_budget_spent_at_each_level(self):
        spent = 0
        for k, nodes in enumerate(self.LEVELS[:-1]):
            spent += nodes
            with pytest.raises(BudgetExceededError, match=f"{spent - 1} nodes"):
                inv_exact(qn(10), SearchOptions(budget=spent - 1, max_k=k))
            for budget in (spent, spent + 1):
                r = inv_exact(qn(10), SearchOptions(budget=budget, max_k=k))
                assert not r.resolved and r.nodes_explored == spent <= budget

    def test_nothing_outlives_a_call(self):
        # masks, the parity table and the candidate memo live in the call
        D = qn(10)
        for k in (3, 4):
            first = solver._search_assignment(D, k, SearchOptions())
            assert solver._search_assignment(D, k, SearchOptions()) == first
        a, b = inv_exact(D), inv_exact(D)
        assert (a.nodes_explored, a.witness) == (b.nodes_explored, b.witness)
        assert a.nodes_explored == sum(self.LEVELS)
