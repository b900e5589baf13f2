"""Solver backends, the even-weight tightness criterion, and rank law checks."""

import contextlib
import functools
import inspect
import io
import itertools
import random
import re

import pytest

from invlab import cli, f2, solver
from invlab.construct import (
    c3,
    dijoin,
    graph_from_expr,
    join_parts,
    k_join,
    qn,
    qn_family,
    transitive,
)
from invlab.digraph import (
    Digraph,
    InversionFamily,
    _acyclic,
    _flipped_rows,
    _symmetries,
    apply_family,
    decode_digraph,
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
    random_family,
    random_oriented,
    random_tournament,
    rank_lower_bound_check,
)


@pytest.fixture
def triangle_reference(monkeypatch):
    # the search before root bans, whose trees the older pins record
    helpers.use_triangle_reference(monkeypatch)


@pytest.fixture
def root_ban_reference(monkeypatch):
    # the search with bans at the root alone, whose trees the root-ban pins record
    helpers.use_root_ban_reference(monkeypatch)


@pytest.fixture
def bound_reference(monkeypatch):
    # the order walk bounding each prefix by its rows' rank alone, whose
    # trees the older order pins record
    helpers.use_reference_bound(monkeypatch)


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


def has_cycle(D: Digraph) -> bool:
    """Whether some vertex reaches itself, by Warshall's closure on the
    rows: an oracle apart from the library's peel."""
    reach = list(D.out_rows)
    for w in range(D.n):
        for v in range(D.n):
            if reach[v] >> w & 1:
                reach[v] |= reach[w]
    return any(reach[v] >> v & 1 for v in range(D.n))


class TestLevelZeroByPeel:
    """``inv_exact`` decides level 0 by one acyclicity peel, at no node."""

    @staticmethod
    def _graphs():
        yield from (T for n in range(6) for T in enumerate_tournaments(n))
        rng = random.Random(30)
        for _ in range(150):
            yield random_oriented(rng, rng.randint(0, 9))

    def test_never_searches_level_zero(self, monkeypatch):
        # in the plain order every level but 0 is searched as the reference
        # searches it, so the value and witness are the same and only level
        # 0's nodes go; inv_exact, in the triangle order, skips level 0 too
        levels = []

        def spy(search):
            def level(D, k, *args, **kwargs):
                levels.append(k)
                return search(D, k, *args, **kwargs)

            return level

        forward = helpers.reference_forward_search
        monkeypatch.setattr(solver, "_search_assignment", spy(solver._search_assignment))
        monkeypatch.setattr(helpers, "reference_forward_search", spy(forward))
        acyclic = 0
        for D in self._graphs():
            ref = helpers.reference_inv_exact(D)
            level0 = forward(D, 0, SearchOptions())[1]
            for solve in (inv_exact, helpers.reference_plain_order_inv_exact):
                levels.clear()
                r = solve(D)
                assert 0 not in levels and levels == list(range(1, r.value + 1))
                assert r.value == ref.value
            assert r.witness == ref.witness
            assert r.nodes_explored == ref.nodes_explored - level0
            acyclic += r.value == 0
        assert acyclic > 6  # more than the transitive tournament of each order

    def test_acyclic_graph_costs_no_node(self):
        rng = random.Random(31)
        for n in range(10):
            # a random oriented graph with every arc from low to high
            rows = [rng.getrandbits(n) & ~((2 << v) - 1) for v in range(n)]
            D = Digraph(n, rows)
            r = inv_exact(D)
            assert r.witness == InversionFamily(n, ())
            assert r.report(deterministic=True) == "inv=0 k_proof=none backend=assign nodes=0"

    @pytest.mark.parametrize("budget", [None, 1])
    def test_cyclic_graph_at_max_k_zero_is_unresolved_with_no_node(self, budget):
        rng = random.Random(32)
        for D in [c3(), qn(9)] + [random_tournament(rng, n) for n in range(3, 10)]:
            if is_acyclic(D) is not None:
                continue
            r = inv_exact(D, SearchOptions(max_k=0, budget=budget))
            assert (r.value, r.witness, r.nodes_explored, r.max_k_exhausted) == (
                None, None, 0, 0)
            assert r.report(deterministic=True) == (
                "inv=unknown k_exhausted=0 backend=assign nodes=0")

    def test_row_decycling_check_agrees_with_the_graphs(self):
        rng = random.Random(33)
        seen = {True: 0, False: 0}
        for trial in range(400):
            n = rng.randint(0, 9)
            D = random_tournament(rng, n) if trial % 2 else random_oriented(rng, n)
            F = random_family(rng, n, rng.randint(0, 4))
            if trial % 5 == 0:
                F = inv_exact(D).witness  # a family that decycles D
            decycles = solver._decycles(D, F.sets)
            assert decycles == (is_acyclic(apply_family(D, F)) is not None)
            assert decycles != has_cycle(apply_assignment(D, family_vectors(F)))
            seen[decycles] += 1
        assert min(seen.values()) > 50, seen

    def test_checks_build_no_graph(self, monkeypatch):
        # the certificates and every witness are checked on rows
        parts = [c3(), qn(5)]
        D = k_join(parts)
        solves = [(D, bounded(D, parts)), (D, None), (qn(7), None), (transitive(5), None)]
        built = []
        init = Digraph.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Digraph, "__init__", spy)
        for G, opts in solves:
            inv_exact(G, opts)
            assert exists_family(G, 3) is not None
        assert built == []
        transitive(3)  # the spy sees a graph built
        assert len(built) == 1


def bounded(D, parts, **limits) -> SearchOptions:
    """The certificates a sweep gives D, the k-join of ``parts``: the first
    part of largest value below, the parts' witnesses composed above."""
    results = {cli._key(p): inv_exact(p) for p in parts}
    assert D == k_join(parts)
    ask = cli.BlowUp(transitive(len(parts)), parts)
    return cli._blowup_options(ask, results, SearchOptions(**limits))


def forged_value(opts: SearchOptions, value) -> solver.Sub:
    """``opts.lower`` with its part's result claiming ``value``."""
    claim = solver.InvResult(value, None, "assign", 0, 0.0, 0)
    return solver.Sub(opts.lower.vertices, opts.lower.part, claim)


# the least tight tournament: it and its triangle dijoin both have value 3
TIGHT = decode_digraph("enc:8:56.fc.50.75.e0.45.80.2d")


def swept_joins(monkeypatch):
    """Every join the thm13 and direction (--n-max 6), conj-direction 5x5,
    kjoin and abnormal sweeps solve, with the options they solve it by."""
    asked = {}

    def spy(D, opts=None):
        if opts.upper is not None:
            asked[encode_digraph(D)] = (D, opts)
        return inv_exact(D, opts)

    monkeypatch.setattr(solver, "inv_exact", spy)
    for argv in (["thm13", "--n-max", "6"], ["direction", "--n-max", "6"],
                 ["conj-direction", "--left-n", "5", "--right-n", "5"],
                 ["kjoin"], ["abnormal"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["experiment", *argv, "--deterministic"]) == 0
    return list(asked.values())


class TestCertifiedBounds:
    def test_bounded_values_match_plain_on_every_swept_join(self, monkeypatch):
        # the joins as the sweeps solved them before cores bounded them
        helpers.use_one_vertex_blowups(monkeypatch)
        joins = swept_joins(monkeypatch)
        assert len(joins) == 301  # distinct joins; thm13 asks a subset of direction's
        sources = set()
        for D, opts in joins:
            r = inv_exact(D, opts)
            assert r.value == inv_exact(D).value
            assert opts.lower.result.value <= r.value <= opts.upper.k
            assert is_acyclic(apply_family(D, r.witness)) is not None
            sources.add(r.source)
        # no part up to order 6 is tight, so every join has its part sum
        assert sources == {"composed"}

    def test_only_the_levels_between_are_searched(self):
        # c3 => qn(5): inv(qn(5)) = 2 below, 1 + 2 sets above, so level 2
        # alone is searched, and it is empty
        parts = [c3(), qn(5)]
        D = k_join(parts)
        r = helpers.reference_plain_order_inv_exact(D, bounded(D, parts))
        level = helpers.reference_forward_search(D, 2, SearchOptions())
        assert level == (None, 334) and r.nodes_explored == 334
        assert (r.value, r.max_k_exhausted, r.proof, r.source) == (3, 2, "exhausted", "composed")
        assert helpers.reference_inv_exact(D).nodes_explored == 379
        # unbounded, level 0 is one peel: its 2 nodes leave the total
        assert helpers.reference_forward_search(D, 0, SearchOptions()) == (None, 2)
        assert helpers.reference_plain_order_inv_exact(D).nodes_explored == 377

    def test_report_forms(self):
        inv_exact = helpers.reference_plain_order_inv_exact
        # a sub proof, with the witness from the search
        parts = [c3(), TIGHT]
        D = k_join(parts)
        r = inv_exact(D, bounded(D, parts))
        assert r.report(deterministic=True).splitlines()[0] == (
            "inv=3 k_proof=sub:7f8 backend=assign nodes=1058")
        # a sub proof and a composed witness: nothing lies between 1 and 1
        parts = [transitive(2), c3()]
        D = k_join(parts)
        r = inv_exact(D, bounded(D, parts))
        assert r.report(deterministic=True) == (
            "inv=1 k_proof=sub:1c backend=assign nodes=0 witness=composed\n3 4")
        # an exhausted level and a composed witness
        parts = [c3(), qn(5)]
        D = k_join(parts)
        head = inv_exact(D, bounded(D, parts)).report(deterministic=True).splitlines()[0]
        assert head == "inv=3 k_proof=2_exhausted backend=assign nodes=334 witness=composed"

    def test_lower_value_above_max_k_is_unresolved_with_no_search(self):
        inv_exact = helpers.reference_plain_order_inv_exact
        parts = [c3(), qn(5)]
        D = k_join(parts)
        r = inv_exact(D, bounded(D, parts, max_k=1))
        assert (r.value, r.nodes_explored, r.max_k_exhausted) == (None, 0, 1)
        assert r.proof == "sub:f8"
        # an upper width above max_k leaves the search's verdict unresolved
        r = inv_exact(D, bounded(D, parts, max_k=2))
        assert (r.value, r.nodes_explored, r.max_k_exhausted) == (None, 334, 2)

    @pytest.fixture
    def certificates(self):
        parts = [c3(), qn(5)]
        D = k_join(parts)
        return D, bounded(D, parts)

    @pytest.mark.parametrize(
        "forge,message",
        [
            (lambda o: {"lower": solver.Sub((3, 4, 5, 6, 8), o.lower.part, o.lower.result)},
             "lower bound vertex must be in range(8), got 8"),
            (lambda o: {"lower": solver.Sub((0, 1, 2, 3, 4), o.lower.part, o.lower.result)},
             "lower bound part is not the subgraph induced by vertices (0, 1, 2, 3, 4)"),
            (lambda o: {"lower": solver.Sub(o.lower.vertices, reverse(qn(5)), o.lower.result)},
             "lower bound part is not the subgraph induced by vertices (3, 4, 5, 6, 7)"),
            (lambda o: {"lower": solver.Sub(o.lower.vertices, o.lower.part.out_rows,
                                            o.lower.result)},
             "lower bound part must be a Digraph, got (28, 25, 18, 4, 8)"),
            (lambda o: {"lower": solver.Sub(o.lower.vertices, o.lower.part,
                                            inv_exact(qn(5), SearchOptions(max_k=1)))},
             "lower bound result is unresolved"),
            (lambda o: {"upper": InversionFamily(8, o.upper.sets[:2])},
             "upper family does not decycle the graph"),
            (lambda o: {"upper": InversionFamily(9, o.upper.sets)},
             "upper family is on 9 vertices, not 8"),
            (lambda o: {"lower": solver.Sub((0, 1, 2), c3(), "x")},
             "lower bound result must be an InvResult, got 'x'"),
            (lambda o: {"lower": forged_value(o, -3)},
             "lower bound value must be in 0..12, got -3"),
            (lambda o: {"lower": forged_value(o, 13)},
             "lower bound value must be in 0..12, got 13"),
            (lambda o: {"lower": forged_value(o, 2.5)},
             "lower bound value must be an int, got 2.5"),
            (lambda o: {"lower": forged_value(o, True)},
             "lower bound value must be an int, got True"),
        ],
        ids=["mask-past-width", "mask-of-other-vertices", "wrong-part", "part-not-a-graph",
             "unresolved-part",
             "upper-cycle", "upper-width", "result-not-a-result", "negative-value",
             "value-past-max", "float-value", "bool-value"],
    )
    def test_forged_certificate_refused(self, certificates, forge, message):
        D, opts = certificates
        fields = {"max_k": opts.max_k, "budget": opts.budget,
                  "lower": opts.lower, "upper": opts.upper}
        fields.update(forge(opts))
        with pytest.raises(ValueError) as err:
            inv_exact(D, SearchOptions(**fields))
        assert str(err.value) == message

    def test_lower_above_upper_refused(self):
        # a forged part value above the composed width
        parts = [c3(), qn(5)]
        D = k_join(parts)
        opts = bounded(D, parts)
        high = solver.InvResult(4, None, "assign", 0, 0.0, 3)
        forged = solver.Sub(opts.lower.vertices, opts.lower.part, high)
        with pytest.raises(ValueError) as err:
            inv_exact(D, SearchOptions(lower=forged, upper=opts.upper))
        assert str(err.value) == "lower bound 4 is above the upper family's 3 sets"

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"lower": 3}, "lower must be a Sub, got 3"),
            ({"upper": (0b011,)}, "upper must be an InversionFamily, got (3,)"),
        ],
    )
    def test_certificate_types_refused(self, fields, message):
        with pytest.raises(ValueError) as err:
            SearchOptions(**fields)
        assert str(err.value) == message

    def test_overrun_exactly_below_the_levels_searched(self):
        # the budget counts level 2 of c3 => qn(5) alone, 334 nodes
        inv_exact = helpers.reference_plain_order_inv_exact
        parts = [c3(), qn(5)]
        D = k_join(parts)
        opts = bounded(D, parts)
        for budget in range(1, 334):
            with pytest.raises(BudgetExceededError) as err:
                inv_exact(D, SearchOptions(opts.max_k, budget, opts.lower, opts.upper))
            assert str(err.value) == f"assignment search exceeded {budget} nodes"
        r = inv_exact(D, SearchOptions(opts.max_k, 334, opts.lower, opts.upper))
        assert r.nodes_explored == 334 and r.witness == opts.upper


class TestSubEmbedding:
    """A ``Sub`` names its part by an embedding: part vertex i is the
    graph's vertex ``vertices[i]``, in any order."""

    @pytest.fixture
    def certificates(self):
        parts = [c3(), qn(5)]
        D = k_join(parts)
        return D, bounded(D, parts)

    @pytest.mark.usefixtures("triangle_reference")
    def test_a_relabelled_part_bounds_the_same_levels(self, certificates):
        D, opts = certificates
        rng = random.Random(36)
        for _ in range(10):
            perm = list(range(5))
            rng.shuffle(perm)
            # part vertex perm[i] is qn(5)'s vertex i, at D's vertex 3 + i
            part = helpers.relabel(qn(5), perm)
            vertices = [0] * 5
            for i, p in enumerate(perm):
                vertices[p] = 3 + i
            lower = solver.Sub(tuple(vertices), part, opts.lower.result)
            r = inv_exact(D, SearchOptions(lower=lower, upper=opts.upper))
            assert (r.value, r.nodes_explored, r.source) == (3, 209, "composed")
            assert r.proof == "exhausted"
            r = inv_exact(D, SearchOptions(max_k=1, lower=lower))
            assert (r.value, r.nodes_explored, r.proof) == (None, 0, "sub:f8")

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ((3, 4, 5, 6, 6), "lower bound names vertex 6 twice"),
            ((3, 4, 5, 6, 9), "lower bound vertex must be in range(8), got 9"),
            ((3, 4, 5, 6, -1), "lower bound vertex must be in range(8), got -1"),
            ((3, 4, 5, 6), "lower bound names 4 vertices for a part of 5"),
            ((3, 4, 5, 6, 7, 0), "lower bound names 6 vertices for a part of 5"),
            ((4, 3, 5, 6, 7),
             "lower bound part is not the subgraph induced by vertices (4, 3, 5, 6, 7)"),
            ([3, 4, 5, 6, 7], "lower bound vertices must be a tuple, got [3, 4, 5, 6, 7]"),
            (0b11111000, "lower bound vertices must be a tuple, got 248"),
        ],
        ids=["repeated-vertex", "vertex-past-the-graph", "negative-vertex", "too-short",
             "too-long", "not-an-isomorphism", "a-list", "a-mask"],
    )
    def test_refused_before_any_search(self, monkeypatch, certificates, vertices, message):
        D, opts = certificates
        calls = []
        monkeypatch.setattr(solver, "_search_assignment", lambda *a, **kw: calls.append(a))
        lower = solver.Sub(vertices, qn(5), opts.lower.result)
        with pytest.raises(ValueError) as err:
            inv_exact(D, SearchOptions(lower=lower, upper=opts.upper))
        assert str(err.value) == message and calls == []


class TestTriangleTies:
    """Every assignment search breaks a tie on the fewest vectors by
    cyclic triangles: each level ``inv_exact`` searches, ``exists_family``
    and a direct search alike.  The plain-order counts of the same solves
    are in ``TestCertifiedBounds``."""

    @pytest.mark.usefixtures("triangle_reference")
    def test_only_the_levels_between_are_searched(self):
        # c3 => qn(5): level 2 alone, empty, in 209 nodes against 334
        parts = [c3(), qn(5)]
        D = k_join(parts)
        opts = bounded(D, parts)
        assert solver._search_assignment(D, 2, opts) == (None, 209)
        r = inv_exact(D, opts)
        assert r.report(deterministic=True).splitlines()[0] == (
            "inv=3 k_proof=2_exhausted backend=assign nodes=209 witness=composed")
        r = inv_exact(D, bounded(D, parts, max_k=2))
        assert (r.value, r.nodes_explored, r.max_k_exhausted) == (None, 209, 2)
        # unbounded, levels 1 and 2 are empty and level 3 holds a family:
        # 16 + 209 + 26 nodes against 377 in the plain order
        r = inv_exact(D)
        assert (r.value, r.nodes_explored, r.source) == (3, 16 + 209 + 26, "search")

    @pytest.mark.usefixtures("triangle_reference")
    def test_overrun_exactly_below_the_levels_searched(self):
        parts = [c3(), qn(5)]
        D = k_join(parts)
        opts = bounded(D, parts)
        for budget in range(1, 209):
            with pytest.raises(BudgetExceededError) as err:
                inv_exact(D, SearchOptions(opts.max_k, budget, opts.lower, opts.upper))
            assert str(err.value) == f"assignment search exceeded {budget} nodes"
        r = inv_exact(D, SearchOptions(opts.max_k, 209, opts.lower, opts.upper))
        assert r.nodes_explored == 209 and r.witness == opts.upper

    def test_tight_dijoin(self):
        # the witness level of c3 => TIGHT is searched under the tie-break
        parts = [c3(), TIGHT]
        D = k_join(parts)
        r = inv_exact(D, bounded(D, parts))
        assert r.report(deterministic=True).splitlines()[0] == (
            "inv=3 k_proof=sub:7f8 backend=assign nodes=845")
        assert r.source == "search" and is_acyclic(apply_family(D, r.witness)) is not None

    @pytest.mark.usefixtures("triangle_reference")
    def test_certified_qn11(self):
        # qn(10) below, the pair family above: level 4 alone, empty
        lower = solver.Sub(tuple(range(10)), qn(10), inv_exact(qn(10)))
        opts = SearchOptions(lower=lower, upper=qn_family(11))
        r = inv_exact(qn(11), opts)
        assert (r.value, r.nodes_explored, r.proof, r.source) == (
            5, 101_689, "exhausted", "composed")
        assert helpers.reference_plain_order_inv_exact(qn(11), opts).nodes_explored == 205_840

    @pytest.mark.usefixtures("triangle_reference")
    def test_plain_qn11(self):
        # with no certificate: the empty levels 1..4 and the witness level
        # 5, in half the plain order's 213,041 nodes
        r = inv_exact(qn(11))
        assert (r.value, r.nodes_explored, r.source) == (5, 105_420, "search")
        assert is_acyclic(apply_family(qn(11), r.witness)) is not None
        assert helpers.reference_plain_order_inv_exact(qn(11)).nodes_explored == 213_041

    def test_exists_family_walks_inv_exact_levels(self, monkeypatch):
        # one tie-break for every search: exists_family(D, k) returns the
        # family of inv_exact's level k, None below the value, after the
        # same nodes
        levels = []
        search = solver._search_assignment

        def spy(D, k, *args, **kwargs):
            found, nodes = search(D, k, *args, **kwargs)
            levels.append((k, found, nodes))
            return found, nodes

        monkeypatch.setattr(solver, "_search_assignment", spy)
        for G in (qn(9), qn(10), TIGHT, k_join([c3(), qn(5)])):
            levels.clear()
            r = inv_exact(G)
            solved = list(levels)
            assert [k for k, _, _ in solved] == list(range(1, r.value + 1))
            assert solved[-1][1] == r.witness
            for k, found, nodes in solved:
                levels.clear()
                assert exists_family(G, k) == found
                assert levels == [(k, found, nodes)]

    def test_plain_solves_count_triangles_once_per_level(self, monkeypatch):
        parts = [c3(), qn(5)]
        D = k_join(parts)
        opts = bounded(D, parts)
        counted = []
        count = solver._cyclic_triangles

        def spy(*args):
            counted.append(tuple(map(tuple, args)))
            return count(*args)

        monkeypatch.setattr(solver, "_cyclic_triangles", spy)
        for G in (D, qn(9), TIGHT, k_join([c3(), TIGHT])):
            counted.clear()
            r = inv_exact(G)  # levels 1 up to the value, one count each
            assert counted == [(G.out_rows, G.in_rows())] * r.value
            counted.clear()
            # every other search counts them once per call too
            exists_family(G, 3)
            exists_family(G, 3, even_weight_only=True)
            solver._search_assignment(G, 2, SearchOptions())
            assert counted == [(G.out_rows, G.in_rows())] * 3
            counted.clear()
        inv_exact(D, SearchOptions(lower=opts.lower))  # levels 2 and 3
        assert counted == [(D.out_rows, D.in_rows())] * 2
        counted.clear()
        inv_exact(D, opts)  # one level searched, one count
        assert counted == [(D.out_rows, D.in_rows())]


class TestDeepSearchInputs:
    @pytest.mark.usefixtures("triangle_reference")
    def test_seed_zero_nodes(self):
        # the bench's deep_search inputs at seed 0: each graph relabelled
        # by the permutation the bench draws, vertex v renamed perm[v]
        exprs = ["qn(11)", "qn(10)", "join(c3,c3,c3,c3)", "blowup_uniform(c3;c3,3)"]
        triangle_order = [94_271, 3_861, 7_618, 8_603]
        plain_order = [210_581, 7_121, 14_061, 7_435]
        for i, expr in enumerate(exprs):
            D = graph_from_expr(expr)
            perm = list(range(D.n))
            random.Random(f"deep_search:0:{i}").shuffle(perm)
            D = helpers.relabel(D, perm)
            assert inv_exact(D).nodes_explored == triangle_order[i]
            assert helpers.reference_plain_order_inv_exact(D).nodes_explored == plain_order[i]


def tie_break_graphs():
    """Every tournament class up to order 6 with its triangle dijoins on
    both sides, then 100 seeded random oriented graphs up to order 8."""
    for n in range(1, 7):
        for T in nonisomorphic_tournaments(n):
            yield from (T, dijoin(c3(), T), dijoin(T, c3()))
    rng = random.Random(31)
    for _ in range(100):
        yield random_oriented(rng, rng.randint(0, 8))


class TestTriangleTiesSound:
    @pytest.fixture
    def searched(self, monkeypatch):
        # (k, whether the level is empty) per level
        searched = []
        search = solver._search_assignment

        def spy(D, k, *args, **kwargs):
            found, nodes = search(D, k, *args, **kwargs)
            searched.append((k, found is None))
            return found, nodes

        monkeypatch.setattr(solver, "_search_assignment", spy)
        return searched

    @staticmethod
    def check_levels(D, searched, levels):
        # each level in the triangle order, empty exactly when the
        # reference search finds no family there
        assert [k for k, _ in searched] == list(levels)
        for k, empty in searched:
            ref, _ = helpers.reference_search(D, k, SearchOptions())
            assert empty == (ref is None)

    def test_values_witnesses_and_levels_match_the_plain_search(self, searched):
        # upper = the plain witness: every level searched is empty; one
        # empty set more: the value's level holds a family
        graphs = witness_levels = 0
        for D in tie_break_graphs():
            graphs += 1
            plain = helpers.reference_plain_order_inv_exact(D)
            padded = InversionFamily(D.n, plain.witness.sets + (0,))
            for upper in (plain.witness, padded):
                searched.clear()
                r = inv_exact(D, SearchOptions(upper=upper))
                assert r.value == plain.value
                assert is_acyclic(apply_family(D, r.witness)) is not None
                self.check_levels(D, searched, range(1, r.value + (upper is padded)))
                witness_levels += r.source == "search"
        assert graphs == 3 * 76 + 100
        assert witness_levels > 250

    def test_solves_without_certificates_match_the_plain_search(self, searched):
        # no upper family: every level from 1 up to the value, the last
        # one holding the witness
        graphs = acyclic = 0
        for D in tie_break_graphs():
            graphs += 1
            plain = helpers.reference_plain_order_inv_exact(D)
            searched.clear()
            r = inv_exact(D)
            assert r.value == plain.value and r.source == "search"
            assert is_acyclic(apply_family(D, r.witness)) is not None
            self.check_levels(D, searched, range(1, r.value + 1))
            acyclic += r.value == 0
        assert graphs == 3 * 76 + 100
        assert 6 < acyclic < graphs - 250


class TestJoinOptions:
    """The certificates a sweep gives each join, built from its parts'
    results alone, against the composition they reproduce."""

    @staticmethod
    def reference_upper(parts, results):
        m = len(parts)
        return helpers.compose_family(transitive(m), InversionFamily(m, ()), list(parts),
                                      [results[cli._key(p)].witness for p in parts])

    def test_two_part_joins_of_classes_up_to_order_5(self):
        classes = [T for n in range(1, 6) for T in nonisomorphic_tournaments(n)]
        results = {cli._key(T): inv_exact(T) for T in classes}
        pairs = [[L, R] for L in classes for R in classes]
        assert len(pairs) == 400
        for parts in pairs:
            ask = cli.BlowUp(transitive(len(parts)), parts)
            opts = cli._blowup_options(ask, results, SearchOptions())
            assert opts.upper == self.reference_upper(parts, results)

    def test_three_part_joins_of_kjoin_and_abnormal(self):
        joins = [join_parts(inst) for inst in cli._build_kjoin(None)]
        joins += [[c3(), c3(), graph_from_expr(inst)] for inst in cli._build_abnormal(None)]
        # join(c3, c3, c3), then [c3, c3, D] for D = tt(1), tt(3), c3
        triples = [parts for parts in joins if len(parts) == 3]
        assert len(triples) == 4
        results = {cli._key(p): inv_exact(p) for parts in triples for p in parts}
        for parts in triples:
            ask = cli.BlowUp(transitive(len(parts)), parts)
            opts = cli._blowup_options(ask, results, SearchOptions())
            assert opts.upper == self.reference_upper(parts, results)

    def test_builds_no_graph(self, monkeypatch):
        parts = [c3(), qn(5), transitive(2)]
        join = cli.BlowUp(transitive(3), parts)
        # a cyclic host's witness set is blown up too, with no graph built
        blowup = cli.BlowUp(c3(), parts)
        results = {cli._key(p): inv_exact(p) for p in parts}
        built = []
        init = Digraph.__init__

        def spy(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Digraph, "__init__", spy)
        opts = cli._blowup_options(join, results, SearchOptions())
        cyclic = cli._blowup_options(blowup, results, SearchOptions())
        assert built == []
        assert opts.lower.vertices == (3, 4, 5, 6, 7) and opts.upper.k == 1 + 2 + 0
        assert cyclic.lower == opts.lower and cyclic.upper.k == 1 + 1 + 2 + 0
        # the spy sees a graph the join's layout builds
        k_join(parts)
        assert len(built) > 0


class TestBlowUpOptions:
    """The certificates a sweep gives each blow-up it asks, whatever the
    host, against ``helpers.compose_family`` over the host's witness."""

    # the tournament classes of order 1..3, parts of every blow-up below
    PARTS = [T for n in range(1, 4) for T in nonisomorphic_tournaments(n)]

    @staticmethod
    def check(host, parts, results):
        ask = cli.BlowUp(host, parts)
        opts = cli._blowup_options(ask, results, SearchOptions())
        values = [results[cli._key(p)].value for p in parts]
        best = values.index(max(values))  # the first part of largest value
        start = sum(p.n for p in parts[:best])
        vertices = tuple(range(start, start + parts[best].n))
        found = results[cli._key(parts[best])]
        assert opts.lower == solver.Sub(vertices, parts[best], found)
        assert ask.graph.induced(sum(1 << v for v in vertices)) == parts[best]
        host_witness = inv_exact(host).witness
        part_witnesses = [results[cli._key(p)].witness for p in parts]
        assert opts.upper == helpers.compose_family(host, host_witness, list(parts),
                                                    part_witnesses)
        assert opts.upper.k == inv_exact(host).value + sum(values)

    def test_every_host_up_to_order_4_and_parts_up_to_order_3(self):
        hosts = [T for n in range(1, 5) for T in nonisomorphic_tournaments(n)]
        assert len(hosts) == 8 and len(self.PARTS) == 4
        results = {cli._key(T): inv_exact(T) for T in hosts + self.PARTS}
        count = 0
        for host in hosts:
            for parts in itertools.product(self.PARTS, repeat=host.n):
                self.check(host, parts, results)
                count += 1
        assert count == 4 + 16 + 2 * 64 + 4 * 256

    def test_thm15_base(self):
        host = decode_digraph("enc:3:4.1.2")
        results = {cli._key(G): inv_exact(G) for G in (host, c3())}
        assert results[cli._key(host)].value == 1
        self.check(host, [c3()] * 3, results)

    def test_acyclic_host_is_not_an_input(self):
        # an acyclic host has value 0 and the empty family, so only the
        # parts' results are read; a cyclic host follows its parts
        for host in (T for n in range(1, 5) for T in nonisomorphic_tournaments(n)):
            parts = [c3()] * host.n
            inputs = cli.BlowUp(host, parts).inputs()
            acyclic = is_acyclic(host) is not None
            assert inputs == parts + ([] if acyclic else [host])
        results = {cli._key(c3()): inv_exact(c3())}
        opts = cli._blowup_options(cli.BlowUp(transitive(4), [c3()] * 4), results,
                                   SearchOptions())
        assert opts.upper.k == 4 and cli._key(transitive(4)) not in results

    def test_unresolved_host_gives_no_certificate(self):
        results = {cli._key(c3()): inv_exact(c3())}
        ask = cli.BlowUp(qn(4), [c3()] * 4)
        assert cli._blowup_options(ask, results, SearchOptions()) == SearchOptions()


@pytest.mark.parametrize(
    "certificate",
    [
        lambda: {"upper": InversionFamily(3, ())},
        lambda: {"upper": inv_exact(c3()).witness},
        lambda: {"lower": solver.Sub((0, 1), transitive(2), inv_exact(transitive(2)))},
    ],
    ids=["forged-upper", "true-upper", "lower"],
)
class TestCertificatesOnlyForInvExact:
    # neither solver checks a certificate, so each refuses any before work
    MESSAGE = "only inv_exact takes lower and upper certificates"

    def test_exists_family(self, monkeypatch, certificate):
        opts = SearchOptions(**certificate())
        calls = []
        monkeypatch.setattr(solver, "_search_assignment", lambda *a, **kw: calls.append(a))
        with pytest.raises(ValueError) as err:
            exists_family(c3(), 1, opts)
        assert str(err.value) == self.MESSAGE and calls == []

    def test_order_backend(self, bound_calls, certificate):
        with pytest.raises(ValueError) as err:
            inv_order_backend(c3(), SearchOptions(**certificate()))
        assert str(err.value) == self.MESSAGE and bound_calls == []


def check_block(rows, cols, width):
    """What f2._free_diag_bound takes on trust: at most ``width`` rows of
    ``width`` bits, one distinct own column in range(width) per row, and
    an own square symmetric off its diagonal."""
    m = len(rows)
    assert len(cols) == m <= width and len(set(cols)) == m
    assert all(0 <= c < width for c in cols)
    assert all(0 <= r < 1 << width for r in rows)
    for i in range(m):
        for j in range(i):
            assert rows[i] >> cols[j] & 1 == rows[j] >> cols[i] & 1, (rows, cols)


@pytest.fixture
def bound_calls(monkeypatch):
    """The argument tuples of every order-backend call of _free_diag_bound,
    each block checked against that function's precondition."""
    calls = []
    free_diag = solver._free_diag_bound

    def spy(rows, cols, width, cap):
        check_block(rows, cols, width)
        calls.append((rows, cols, width, cap))
        return free_diag(rows, cols, width, cap)

    monkeypatch.setattr(solver, "_free_diag_bound", spy)
    return calls


def block_graphs():
    for n in range(7):
        yield from nonisomorphic_tournaments(n)
    for n in range(3, 11):
        yield qn(n)
    for n in range(7, 11):
        rng = random.Random(n)
        for _ in range(3):
            yield random_tournament(rng, n)


def test_order_blocks_meet_the_bound_precondition(bound_calls):
    # the bound checks no argument, so every block the walk passes must be
    # valid by construction: the spy checks each, and each block's columns
    # are its prefix, one vertex and one row appended to its parent's
    for D in block_graphs():
        bound_calls.clear()
        r = inv_order_backend(D)
        assert len(bound_calls) == r.nodes_explored
        blocks = {}
        for rows, cols, width, _ in bound_calls:
            assert width == D.n
            if cols:
                assert blocks[cols[:-1]] == rows[:-1]
            blocks[cols] = rows


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

    @pytest.mark.parametrize("n", [9, 10])
    def test_completion_bound_matches_inv_exact(self, n):
        # fresh seeds, beside the four-triangle join in COMPLETION_TREES
        rng = random.Random(f"completion-values:{n}")
        for _ in range(3):
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
        assert names == ["max_k", "budget", "lower", "upper"]

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
    """Existence matches the search before forward checking at each width,
    and every witness decycles D.  The plain-order forward search
    (``helpers.reference_forward_search``) grows no level against it; the
    triangle tie-break may, so it is gated by its totals instead.
    Returns (the search's nodes, the plain order's) over ``ks``."""
    opts = SearchOptions()
    totals = [0, 0]
    for k in ks:
        found, nodes = solver._search_assignment(
            D, k, opts, even_weight_only=even_weight_only
        )
        plain, plain_nodes = helpers.reference_forward_search(
            D, k, opts, even_weight_only=even_weight_only
        )
        ref, ref_nodes = helpers.reference_search(
            D, k, opts, complement=True, even_weight_only=even_weight_only
        )
        assert (found is None) == (plain is None) == (ref is None), (encode_digraph(D), k)
        assert plain_nodes <= ref_nodes, (encode_digraph(D), k)
        if found is not None:
            assert is_acyclic(apply_family(D, found)) is not None
        totals[0] += nodes
        totals[1] += plain_nodes
    return tuple(totals)


def agree_in_total(cases):
    """``agree_with_reference`` over ``(D, ks, even_weight_only)`` cases,
    summed."""
    totals = [agree_with_reference(*case) for case in cases]
    return tuple(map(sum, zip(*totals)))


# agree_with_reference's totals around each graph's value, (triangle
# tie-break, plain order): together 125,350 against 242,542
AROUND_THE_VALUE = {
    "qn(9)": (4_070, 6_947),
    "qn(10)": (3_689, 6_948),
    "qn(11)": (101_730, 205_881),
    "join(c3,c3,c3,c3)": (7_397, 14_038),
    "blowup_uniform(c3;c3,3)": (8_464, 8_728),
}


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

    @pytest.mark.usefixtures("triangle_reference")
    def test_agrees_with_reference_on_small_tournaments(self):
        # every labelled tournament up to 5 vertices and every class of 6;
        # the only group whose total the triangle tie-break raises
        tournaments = [T for n in range(6) for T in enumerate_tournaments(n)]
        cases = [(T, range(5)) for T in tournaments + nonisomorphic_tournaments(6)]
        assert agree_in_total(cases) == (53_186, 52_193)

    @pytest.mark.usefixtures("triangle_reference")
    def test_agrees_with_reference_on_triangle_dijoins(self):
        # each class up to 6 with a triangle dijoined on either side
        cases = [
            (D, range(5))
            for n in range(1, 7)
            for T in nonisomorphic_tournaments(n)
            for D in (dijoin(c3(), T), dijoin(T, c3()))
        ]
        assert agree_in_total(cases) == (30_059, 35_296)

    @pytest.mark.usefixtures("triangle_reference")
    def test_agrees_with_reference_on_random_oriented_graphs(self):
        # missing arcs: no bench workload has one, and a non-adjacent pair
        # must stay out of every cycle the masks test
        rng = random.Random(57)
        cases = []
        for _ in range(150):
            D = random_oriented(rng, rng.randint(2, 8))
            while D.is_tournament():
                D = random_oriented(rng, D.n)
            cases += [(D, range(5), even_only) for even_only in (False, True)]
        assert agree_in_total(cases) == (9_585, 11_074)

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
    @pytest.mark.usefixtures("triangle_reference")
    def test_agrees_with_reference_around_the_value(self, expr, value):
        totals = agree_with_reference(graph_from_expr(expr), (value - 1, value))
        assert totals == AROUND_THE_VALUE[expr]

    @pytest.mark.usefixtures("root_ban_reference")
    def test_root_ban_totals(self):
        # the groups above on the shipped search, against the triangle
        # order's 53,186, 30,059, 9,585 and 125,350
        tournaments = [T for n in range(6) for T in enumerate_tournaments(n)]
        small = [(T, range(5)) for T in tournaments + nonisomorphic_tournaments(6)]
        dijoins = [(D, range(5)) for n in range(1, 7) for T in nonisomorphic_tournaments(n)
                   for D in (dijoin(c3(), T), dijoin(T, c3()))]
        rng = random.Random(57)
        oriented = []
        for _ in range(150):
            D = random_oriented(rng, rng.randint(2, 8))
            while D.is_tournament():
                D = random_oriented(rng, D.n)
            oriented += [(D, range(5), even_only) for even_only in (False, True)]
        around = [(graph_from_expr(expr), (value - 1, value)) for expr, value in (
            ("qn(9)", 4), ("qn(10)", 4), ("qn(11)", 5), ("join(c3,c3,c3,c3)", 4),
            ("blowup_uniform(c3;c3,3)", 4))]
        got = [agree_in_total(cases)[0] for cases in (small, dijoins, oriented, around)]
        assert got == [52_414, 27_326, 9_583, 61_750]

    def test_deep_ban_totals(self):
        # the groups above on the shipped search, against 52,414, 27,326,
        # 9,583 and 61,750 with bans at the root alone: the dijoins and
        # the larger graphs shrink, the other two keep their totals
        got = [agree_in_total(cases)[0] for cases in ban_groups()]
        assert got == [52_414, 27_180, 9_583, 60_204]


AROUND_VALUES = [("qn(9)", 4), ("qn(10)", 4), ("qn(11)", 5), ("join(c3,c3,c3,c3)", 4),
                 ("blowup_uniform(c3;c3,3)", 4)]


def ban_groups():
    """``agree_in_total``'s four groups of cases: the small tournaments,
    the triangle dijoins, the random oriented graphs and the levels
    around the value of the larger graphs."""
    tournaments = [T for n in range(6) for T in enumerate_tournaments(n)]
    small = [(T, range(5)) for T in tournaments + nonisomorphic_tournaments(6)]
    dijoins = [(D, range(5)) for n in range(1, 7) for T in nonisomorphic_tournaments(n)
               for D in (dijoin(c3(), T), dijoin(T, c3()))]
    rng = random.Random(57)
    oriented = []
    for _ in range(150):
        D = random_oriented(rng, rng.randint(2, 8))
        while D.is_tournament():
            D = random_oriented(rng, D.n)
        oriented += [(D, range(5), even_only) for even_only in (False, True)]
    around = [(graph_from_expr(expr), (value - 1, value)) for expr, value in AROUND_VALUES]
    return small, dijoins, oriented, around


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


def tops_of(shape):
    # the heads of shape's blocks, coordinate c relabelled k-1-c
    k, tops, start = sum(shape), 0, 0
    for m in shape:
        tops |= 1 << k - 1 - start
        start += m
    return tops


class TestCandidateLists:
    def test_matches_product_oracle(self):
        for k in range(8):
            for shape in compositions(k):
                for even_only in (False, True):
                    got = [
                        (w, coords, blocks_of(nxt))
                        for w, coords, nxt in helpers._candidates(shape, even_only)
                    ]
                    want = [
                        (w, tuple(c for c in range(k) if w >> c & 1), nb)
                        for w, nb in candidates_by_product(blocks_of(shape))
                        if not (even_only and w.bit_count() & 1)
                    ]
                    assert got == want, (shape, even_only)

    def test_masks_match_the_lists(self):
        # the search's candidate mask for a shape's tops holds the list's
        # vectors, relabelled c -> k-1-c, in ascending order, each with the
        # child shape of the list entry
        for k in range(9):
            weights = [w.bit_count() for w in range(1 << k)]
            even = sum(1 << w for w, c in enumerate(weights) if not c & 1)
            light = sum(1 << w for w, c in enumerate(weights) if not c & 1 or c <= k // 2)
            for shape in compositions(k):
                tops = tops_of(shape)
                prefixes = solver._block_prefixes(tops)
                for even_only, first in itertools.product((False, True), repeat=2):
                    want = [
                        (sum(1 << k - 1 - c for c in coords), tops_of(nxt))
                        for _, coords, nxt in helpers._candidates(shape, even_only)
                        if not first or not len(coords) & 1 or len(coords) <= k // 2
                    ]
                    mask = prefixes & (even if even_only else -1) & (light if first else -1)
                    got = [
                        (w, tops | ~w & w >> 1) for w in range(1 << k) if mask >> w & 1
                    ]
                    assert got == want, (shape, even_only, first)


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
# the same graphs under helpers.reference_forward_search, which
# forward-checks each vertex's viable vectors and assigns the vertex with
# the fewest next, ties going to _vertex_order
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
# helpers.reference_forward_search, recorded before its tables were built
# in one pass over the arcs
FORWARD_ORIENTED = {
    (8, 11): ([3, 36, 17], "3 4 6\n0 5 6 7\n"),
    (9, 33): ([2, 30, 178], "0 2 3 4 5 6 7\n6 7\n"),
    (10, 33): ([2, 18, 315, 39], "1 2 3 4 5\n2 4 6 8 9\n2 4 7\n"),
}

# inv_exact's trees, from k=1, where every level breaks mask-size ties by
# cyclic triangles (_search_assignment, and exists_family at each level)
TRIANGLE_TREES = {
    "qn(7)": ([14, 156, 16], "1 2\n3 4\n5 6\n"),
    "qn(9)": ([18, 158, 4038, 32], "1 2\n4 5 7 8\n3 4\n4 8\n"),
    "qn(10)": ([18, 162, 3494, 195], "1 2\n6 8 9\n5 6\n3 4\n"),
    "join(c3,c3,c3,c3)": ([22, 264, 7370, 27], "1 2\n10 11\n4 5\n7 8\n"),
    "blowup_uniform(c3;c3,3)": (
        [14, 140, 8422, 42],
        "1 2\n3 4 5 6\n3 4 5 7 8\n4 5\n",
    ),
    "dijoin(c3,c3)": ([22, 11], "1 2\n4 5\n"),
}
TRIANGLE_ORIENTED = {
    (8, 11): ([18, 18], "3 4 6 7\n0 3 5\n"),
    (9, 33): ([20, 98], "0 2 3 4 5 6 7\n6 7\n"),
    (10, 33): ([16, 208, 38], "2 6 8 9\n2 3 5 7 8\n1 4 5 7 8 9\n"),
}
# exists_family's even-weight qn(9) tree, from k=0: the exhausted levels
# shrink on FORWARD_EVEN_QN9 (372 -> 346 nodes), the witness level grows
TRIANGLE_EVEN_QN9 = (
    [2, 2, 6, 56, 280, 388],
    "1 2 4 7\n2 3 4 7 8\n1 4 7\n3 4 5 6\n5 6 7 8\n",
)

# inv_exact's trees once a root vector searched to the end is banned at the
# root's images (qn(n) onto its reverse, the joins and the blow-up by
# their rotations): every exhausted level shrinks on TRIANGLE_TREES, and
# every witness level and witness stays; the roots of TRIANGLE_ORIENTED's
# graphs have no image, so those trees stand as pinned
ROOT_BAN_TREES = {
    "qn(7)": ([12, 102, 16], "1 2\n3 4\n5 6\n"),
    "qn(9)": ([14, 114, 2230, 32], "1 2\n4 5 7 8\n3 4\n4 8\n"),
    "qn(10)": ([14, 118, 2060, 195], "1 2\n6 8 9\n5 6\n3 4\n"),
    "join(c3,c3,c3,c3)": ([12, 120, 2706, 27], "1 2\n10 11\n4 5\n7 8\n"),
    "blowup_uniform(c3;c3,3)": (
        [8, 63, 2314, 42],
        "1 2\n3 4 5 6\n3 4 5 7 8\n4 5\n",
    ),
    "dijoin(c3,c3)": ([12, 11], "1 2\n4 5\n"),
}
# the trees once a vector searched to the end under a placed set P is banned
# too at its vertex's images under the maps that fix P: each level searched
# by itself, the finder run at its own first failed root vector, then
# inv_exact's levels, which share one finder run.  The joins and the
# blow-up shrink on ROOT_BAN_TREES with the same witness; qn(n) and the
# dijoin, whose roots no map but the identity fixes, stand as pinned there
DEEP_BAN_TREES = {
    "join(c3,c3,c3,c3)": ([12, 120, 2318, 27], [12, 96, 1564, 27]),
    "blowup_uniform(c3;c3,3)": ([8, 51, 1156, 42], [8, 45, 858, 42]),
}
# even weights only, where the bans only cut: level 3 shrinks, 56 -> 52
ROOT_BAN_EVEN_QN9 = ([2, 2, 6, 52, 280, 388], TRIANGLE_EVEN_QN9[1])

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


def spy_block_prefixes(monkeypatch):
    """The block tops whose candidate mask the search builds, in order."""
    built = []
    prefixes = solver._block_prefixes

    def spy(tops):
        built.append(tops)
        return prefixes(tops)

    monkeypatch.setattr(solver, "_block_prefixes", spy)
    return built


class TestSearchTreePinned:
    @pytest.fixture(params=["memo"])
    def memo_bound(self, monkeypatch):
        # along every pinned tree, each search call builds the mask of a
        # block tops once, for at most 2^(k-1) tops, each heading coordinate
        # k-1, and starts from an empty memo
        built = spy_block_prefixes(monkeypatch)

        def bounded(search):
            def level(D, k, *args, **kwargs):
                built.clear()
                found = search(D, k, *args, **kwargs)
                assert len(built) == len(set(built)) <= max(1, 1 << k >> 1)
                assert all(tops >> k - 1 == 1 for tops in built) if k else built == [0]
                return found

            return level

        monkeypatch.setattr(solver, "_search_assignment", bounded(solver._search_assignment))
        monkeypatch.setattr(
            helpers, "reference_forward_search", bounded(helpers.reference_forward_search)
        )

    @pytest.mark.parametrize(
        "expr,counts,witness", PINNED_TREES, ids=[e for e, _, _ in PINNED_TREES]
    )
    def test_levels_and_witness(self, memo_bound, expr, counts, witness):
        D = graph_from_expr(expr)
        opts = SearchOptions()
        assert level_counts(D, opts, helpers.reference_search) == (counts, witness)
        assert level_counts(D, opts, isometry_search) == (ISOMETRY_TREES[expr], witness)
        forward, forward_witness = FORWARD_TREES[expr]
        assert all(f <= i for f, i in zip(forward, ISOMETRY_TREES[expr]))
        assert level_counts(D, opts, helpers.reference_forward_search) == (
            forward, forward_witness)
        r = helpers.reference_inv_exact(D)
        assert r.nodes_explored == sum(forward)
        assert dump_family(r.witness) == forward_witness
        # level 0 by the peel: every level the same but 0, which costs none
        r = helpers.reference_plain_order_inv_exact(D)
        assert r.nodes_explored == sum(forward[1:])
        assert dump_family(r.witness) == forward_witness

    def test_even_weight_levels_and_witness(self, memo_bound):
        opts = SearchOptions()
        want = (PINNED_EVEN_QN9, PINNED_EVEN_QN9_WITNESS)
        assert level_counts(qn(9), opts, helpers.reference_search, True) == want
        assert level_counts(qn(9), opts, isometry_search, True) == want
        assert all(f <= p for f, p in zip(FORWARD_EVEN_QN9[0], PINNED_EVEN_QN9))
        forward = helpers.reference_forward_search
        assert level_counts(qn(9), opts, forward, True) == FORWARD_EVEN_QN9

    @pytest.mark.usefixtures("triangle_reference")
    def test_even_weight_triangle_levels_and_witness(self, memo_bound):
        # the tree kjoin's criterion walks, the witness exists_family's own
        counts, witness = TRIANGLE_EVEN_QN9
        assert level_counts(qn(9), SearchOptions(), None, True) == TRIANGLE_EVEN_QN9
        assert sum(counts[:5]) < sum(FORWARD_EVEN_QN9[0][:5])
        assert exists_family(qn(9), 4, even_weight_only=True) is None
        assert dump_family(exists_family(qn(9), 5, even_weight_only=True)) == witness

    @pytest.mark.parametrize("n,seed", list(FORWARD_ORIENTED))
    def test_oriented_levels_and_witness(self, memo_bound, n, seed):
        D = random_oriented(random.Random(seed), n)
        assert not D.is_tournament()
        counts, witness = FORWARD_ORIENTED[n, seed]
        assert level_counts(D, SearchOptions(), helpers.reference_forward_search) == (
            counts, witness)
        r = helpers.reference_inv_exact(D)
        assert r.nodes_explored == sum(counts)
        assert dump_family(r.witness) == witness
        r = helpers.reference_plain_order_inv_exact(D)
        assert r.nodes_explored == sum(counts[1:])
        assert dump_family(r.witness) == witness

    @staticmethod
    def check_triangle_tree(D, counts, witness):
        # level by level, then as inv_exact's whole solve
        for k, nodes in enumerate(counts, 1):
            found, got = solver._search_assignment(D, k, SearchOptions())
            assert got == nodes
            assert (found is None) == (k < len(counts))
        assert dump_family(found) == witness
        r = inv_exact(D)
        assert (r.nodes_explored, dump_family(r.witness)) == (sum(counts), witness)

    @pytest.mark.parametrize("expr", list(TRIANGLE_TREES))
    @pytest.mark.usefixtures("triangle_reference")
    def test_triangle_levels_and_witness(self, memo_bound, expr):
        self.check_triangle_tree(graph_from_expr(expr), *TRIANGLE_TREES[expr])

    @pytest.mark.usefixtures("root_ban_reference")
    @pytest.mark.parametrize("expr", list(ROOT_BAN_TREES))
    def test_root_ban_levels_and_witness(self, memo_bound, expr):
        counts, witness = ROOT_BAN_TREES[expr]
        old, old_witness = TRIANGLE_TREES[expr]
        assert witness == old_witness and counts[-1] == old[-1]
        assert all(c < o for c, o in zip(counts[:-1], old))
        self.check_triangle_tree(graph_from_expr(expr), counts, witness)

    @pytest.mark.parametrize("expr", list(ROOT_BAN_TREES))
    def test_deep_ban_levels_and_witness(self, monkeypatch, memo_bound, expr):
        counts, witness = ROOT_BAN_TREES[expr]
        alone, solved = DEEP_BAN_TREES.get(expr, (counts, counts))
        assert all(s <= a <= c for s, a, c in zip(solved, alone, counts))
        assert alone[-1] == solved[-1] == counts[-1]
        D = graph_from_expr(expr)
        for k, nodes in enumerate(alone, 1):
            found, got = solver._search_assignment(D, k, SearchOptions())
            assert got == nodes
            assert (found is None) == (k < len(alone))
        assert dump_family(found) == witness
        levels = []
        search = solver._search_assignment

        def spy(*args, **kwargs):
            found = search(*args, **kwargs)
            levels.append(found[1])
            return found

        monkeypatch.setattr(solver, "_search_assignment", spy)
        r = inv_exact(D)
        assert (levels, dump_family(r.witness)) == (solved, witness)
        assert r.nodes_explored == sum(solved)

    def test_even_weight_root_ban_levels_and_witness(self, memo_bound):
        assert level_counts(qn(9), SearchOptions(), None, True) == ROOT_BAN_EVEN_QN9
        assert all(c <= o for c, o in zip(ROOT_BAN_EVEN_QN9[0], TRIANGLE_EVEN_QN9[0]))

    @pytest.mark.parametrize("n,seed", list(TRIANGLE_ORIENTED))
    def test_triangle_oriented_levels_and_witness(self, memo_bound, n, seed):
        D = random_oriented(random.Random(seed), n)
        self.check_triangle_tree(D, *TRIANGLE_ORIENTED[n, seed])

    def test_memo_is_per_call_and_bounded(self, monkeypatch):
        # at even k the odd-weight rule is one more mask on the same entry,
        # so a shape is built once, with or without it
        built = spy_block_prefixes(monkeypatch)
        cases = [(qn(10), 3), (qn(10), 4), (qn(11), 4), (qn(11), 5)]
        for search in (solver._search_assignment, helpers.reference_forward_search):
            for D, k in cases:
                built.clear()
                search(D, k, SearchOptions())
                once = list(built)
                assert len(once) == len(set(once)) <= 1 << k - 1  # built once each
                assert len(once) > 1
                search(D, k, SearchOptions())
                assert built == once + once  # nothing kept between calls


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
# and with each row block bounded by the least rank of any symmetric
# matrix holding it (the shipped bound), each tree no larger
PINNED_COMPLETION_NODES = [407, 911, 606, 246, 687]
# (value, nodes with the rows' rank alone, nodes shipped) on larger graphs
COMPLETION_TREES = {
    "qn(9)": (4, 7_203, 5_951),
    "blowup_uniform(c3;c3,3)": (4, 8_257, 7_258),
    "join(c3,c3,c3,c3)": (4, 30_223, 27_352),
}


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
        monkeypatch.setattr(helpers, "ORDER_MEMO_CAP", 1)
        self.test_value_and_nodes(idx)

    @pytest.mark.usefixtures("bound_reference")
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

    @pytest.mark.usefixtures("bound_reference")
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

    @order_pins
    def test_completion_value_and_nodes(self, idx):
        _, _, value, _ = PINNED_ORDER_TREES[idx]
        nodes = PINNED_COMPLETION_NODES[idx]
        assert nodes <= PINNED_LOOKAHEAD_NODES[idx]
        r = inv_order_backend(order_pin_graphs()[idx])
        assert (r.value, r.nodes_explored) == (value, nodes)

    @pytest.mark.parametrize("expr", list(COMPLETION_TREES))
    def test_completion_keeps_value_and_witness(self, monkeypatch, expr):
        # the bound rises at every prefix and leaves keep their exact width,
        # so the walk meets the same first best order in fewer nodes
        value, reference_nodes, nodes = COMPLETION_TREES[expr]
        assert nodes <= reference_nodes
        D = graph_from_expr(expr)
        r = inv_order_backend(D)
        helpers.use_reference_bound(monkeypatch)
        old = inv_order_backend(D)
        assert (old.value, old.nodes_explored) == (value, reference_nodes)
        assert (r.value, r.nodes_explored, r.witness) == (value, nodes, old.witness)
        assert is_acyclic(apply_family(D, r.witness)) is not None
        assert r.value == inv_exact(D).value


@pytest.fixture
def reference_solver(monkeypatch):
    helpers.use_reference_search(monkeypatch)


@pytest.mark.usefixtures("reference_solver")
class TestBudgetPerSolve:
    # with every level from k=0 searched by the reference search,
    # qn(10) explores 5 + 56 + 785 + 26374 + 395 = 27615 nodes in all
    def test_budget_caps_the_whole_solve(self):
        with pytest.raises(BudgetExceededError, match="27000 nodes"):
            solver.inv_exact(qn(10), SearchOptions(budget=27_000))
        r = solver.inv_exact(qn(10), SearchOptions(budget=27_615))
        assert r.value == 4 and r.nodes_explored == 27_615

    def test_budget_spent_before_the_last_level(self):
        spent = 5 + 56 + 785 + 26374
        with pytest.raises(BudgetExceededError, match=f"{spent} nodes"):
            solver.inv_exact(qn(10), SearchOptions(budget=spent))
        r = solver.inv_exact(qn(10), SearchOptions(budget=spent, max_k=3))
        assert not r.resolved and r.nodes_explored == spent


class TestBudgetOnForwardTree:
    # the forward-checked qn(10) explores 2 + 22 + 220 + 6918 + 30 nodes
    # when level 0 is searched too (helpers.reference_inv_exact)
    LEVELS = FORWARD_TREES["qn(10)"][0]

    def test_budget_caps_the_whole_solve(self):
        # a budget one short of the whole tree fails at the node past it
        total = sum(self.LEVELS)
        with pytest.raises(BudgetExceededError, match=f"{total - 1} nodes"):
            helpers.reference_inv_exact(qn(10), SearchOptions(budget=total - 1))
        r = helpers.reference_inv_exact(qn(10), SearchOptions(budget=total))
        assert r.value == 4 and r.nodes_explored == total

    def test_budget_spent_at_each_level(self):
        spent = 0
        for k, nodes in enumerate(self.LEVELS[:-1]):
            spent += nodes
            with pytest.raises(BudgetExceededError, match=f"{spent - 1} nodes"):
                helpers.reference_inv_exact(qn(10), SearchOptions(budget=spent - 1, max_k=k))
            for budget in (spent, spent + 1):
                r = helpers.reference_inv_exact(qn(10), SearchOptions(budget=budget, max_k=k))
                assert not r.resolved and r.nodes_explored == spent <= budget

    def test_nothing_outlives_a_call(self):
        # masks, the parity table and the candidate memo live in the call
        D = qn(10)
        for k in (3, 4):
            first = solver._search_assignment(D, k, SearchOptions())
            assert solver._search_assignment(D, k, SearchOptions()) == first
        a, b = helpers.reference_inv_exact(D), helpers.reference_inv_exact(D)
        assert (a.nodes_explored, a.witness) == (b.nodes_explored, b.witness)
        assert a.nodes_explored == sum(self.LEVELS)


class TestBudgetWithLevelZeroByPeel:
    # the plain-order level loop decides level 0 by one peel, at no node,
    # so qn(10) explores 22 + 220 + 6918 + 30 nodes: the forward-checked
    # tree from k=1
    LEVELS = FORWARD_TREES["qn(10)"][0][1:]
    solve = staticmethod(helpers.reference_plain_order_inv_exact)

    def test_budget_caps_the_whole_solve(self):
        total = sum(self.LEVELS)
        with pytest.raises(BudgetExceededError, match=f"{total - 1} nodes"):
            self.solve(qn(10), SearchOptions(budget=total - 1))
        r = self.solve(qn(10), SearchOptions(budget=total))
        assert r.value == 4 and r.nodes_explored == total

    def test_budget_spent_at_each_level(self):
        r = self.solve(qn(10), SearchOptions(budget=1, max_k=0))
        assert not r.resolved and r.nodes_explored == 0
        spent = 0
        for k, nodes in enumerate(self.LEVELS[:-1], 1):
            spent += nodes
            with pytest.raises(BudgetExceededError, match=f"{spent - 1} nodes"):
                self.solve(qn(10), SearchOptions(budget=spent - 1, max_k=k))
            for budget in (spent, spent + 1):
                r = self.solve(qn(10), SearchOptions(budget=budget, max_k=k))
                assert not r.resolved and r.nodes_explored == spent <= budget

    def test_nothing_outlives_a_call(self):
        a, b = self.solve(qn(10)), self.solve(qn(10))
        assert (a.nodes_explored, a.witness) == (b.nodes_explored, b.witness)
        assert a.nodes_explored == sum(self.LEVELS)


@pytest.mark.usefixtures("triangle_reference")
class TestBudgetWithTriangleTies(TestBudgetWithLevelZeroByPeel):
    # inv_exact breaks ties by cyclic triangles at every level, so qn(10)
    # explores 18 + 162 + 3494 + 195 nodes
    LEVELS = TRIANGLE_TREES["qn(10)"][0]
    solve = staticmethod(inv_exact)


def budget_boundary_cases():
    """(id, solve, nodes, witness): ``solve(opts)`` returns a family, or
    None once its level is exhausted, after exactly ``nodes`` nodes;
    ``witness`` is that family's dump.  Each graph is solved whole, from
    k=0 as ``helpers.reference_inv_exact`` searches it, with level 0 by
    the peel as ``helpers.reference_plain_order_inv_exact`` does, and in
    the triangle tie-break as ``inv_exact`` does, and at the exhausted
    level below its value in the plain order, in the triangle order and
    by ``exists_family``, where an overrun may fall among the last
    candidates a level examines; and qn(9)'s even-weight levels 3 to 5
    in either order."""

    def by_reference(D):
        return lambda opts: helpers.reference_inv_exact(D, opts).witness

    def by_plain_order(D):
        return lambda opts: helpers.reference_plain_order_inv_exact(D, opts).witness

    def by_inv_exact(D):
        return lambda opts: inv_exact(D, opts).witness

    def by_plain_level(D, k, even_weight_only=False):
        return lambda opts: helpers.reference_forward_search(
            D, k, opts, even_weight_only=even_weight_only)[0]

    def by_triangle_level(D, k):
        return lambda opts: solver._search_assignment(D, k, opts)[0]

    def by_level(D, k, even_weight_only=False):
        return lambda opts: exists_family(D, k, opts, even_weight_only=even_weight_only)

    searches = [("qn(7)", qn(7), [2, 22, 200, 19], "1 2\n3 4 6\n2 3\n", TRIANGLE_TREES["qn(7)"])]
    for expr in ("qn(9)", "dijoin(c3,c3)"):
        searches.append((expr, graph_from_expr(expr), *FORWARD_TREES[expr], TRIANGLE_TREES[expr]))
    for n, seed in FORWARD_ORIENTED:
        D = random_oriented(random.Random(seed), n)
        searches.append((f"oriented-{n}-{seed}", D, *FORWARD_ORIENTED[n, seed],
                         TRIANGLE_ORIENTED[n, seed]))
    cases = []
    for name, D, counts, witness, (tri_counts, tri_witness) in searches:
        k = len(counts) - 2
        cases.append((name, by_reference(D), sum(counts), witness))
        # level 0 by the peel, at no node
        cases.append((f"{name}-peeled", by_plain_order(D), sum(counts[1:]), witness))
        cases.append((f"{name}-k{k}", by_plain_level(D, k), counts[k], None))
        # the triangle order, from k=1
        cases.append((f"{name}-triangles", by_inv_exact(D), sum(tri_counts), tri_witness))
        cases.append((f"{name}-triangles-k{k}", by_triangle_level(D, k), tri_counts[k - 1], None))
        cases.append((f"{name}-exists-k{k}", by_level(D, k), tri_counts[k - 1], None))
    for prefix, by, (counts, witness) in (
        ("even-qn(9)", by_plain_level, FORWARD_EVEN_QN9),
        ("even-qn(9)-exists", by_level, TRIANGLE_EVEN_QN9),
    ):
        for k in (3, 4, 5):
            found = witness if k == 5 else None
            cases.append((f"{prefix}-k{k}", by(qn(9), k, True), counts[k], found))
    return cases


BUDGET_BOUNDARY = budget_boundary_cases()


def root_ban_boundary_cases():
    """``budget_boundary_cases`` on the shipped trees (``ROOT_BAN_TREES``):
    each graph's whole solve, and its exhausted level below the value by a
    direct search and by ``exists_family``, where a budget may run out
    after the root's first bans; and qn(9)'s even-weight levels 3 to 5."""
    cases = []
    for expr in ("qn(7)", "qn(9)", "dijoin(c3,c3)"):
        D = graph_from_expr(expr)
        counts, witness = ROOT_BAN_TREES[expr]
        k = len(counts) - 1
        cases += [
            (expr, lambda opts, D=D: inv_exact(D, opts).witness, sum(counts), witness),
            (f"{expr}-k{k}", lambda opts, D=D, k=k: solver._search_assignment(D, k, opts)[0],
             counts[k - 1], None),
            (f"{expr}-exists-k{k}", lambda opts, D=D, k=k: exists_family(D, k, opts),
             counts[k - 1], None),
        ]
    counts, witness = ROOT_BAN_EVEN_QN9
    for k in (3, 4, 5):
        cases.append((f"even-qn(9)-exists-k{k}",
                      lambda opts, k=k: exists_family(qn(9), k, opts, even_weight_only=True),
                      counts[k], witness if k == 5 else None))
    return cases


ROOT_BAN_BOUNDARY = root_ban_boundary_cases()


class TestBudgetBoundary:
    @pytest.mark.parametrize(
        "solve,nodes,witness",
        [case[1:] for case in BUDGET_BOUNDARY],
        ids=[case[0] for case in BUDGET_BOUNDARY],
    )
    @pytest.mark.usefixtures("triangle_reference")
    def test_overrun_exactly_below_the_node_count(self, solve, nodes, witness):
        # every budget short of the solve's nodes overruns and names the
        # budget, and the node count itself returns the pinned answer; in
        # the middle of qn(9)'s 6,918-node and 4,038-node k=3 levels every
        # 17th budget, which keeps the test to seconds
        for budget in range(1, nodes):
            if 300 <= budget < nodes - 100 and budget % 17:
                continue
            with pytest.raises(BudgetExceededError) as err:
                solve(SearchOptions(budget=budget))
            assert str(err.value) == f"assignment search exceeded {budget} nodes"
        found = solve(SearchOptions(budget=nodes))
        assert (found if found is None else dump_family(found)) == witness

    @pytest.mark.parametrize(
        "solve,nodes,witness",
        [case[1:] for case in ROOT_BAN_BOUNDARY],
        ids=[case[0] for case in ROOT_BAN_BOUNDARY],
    )
    def test_overrun_exactly_below_the_root_ban_count(self, solve, nodes, witness):
        # the same boundaries on the shipped trees
        self.test_overrun_exactly_below_the_node_count(solve, nodes, witness)


def gate_graphs():
    """Every tournament class up to order 6 with its triangle dijoins on
    both sides, qn(3..12), and the four-triangle join and blow-up."""
    classes = [T for n in range(1, 7) for T in nonisomorphic_tournaments(n)]
    exprs = ("join(c3,c3,c3,c3)", "blowup_uniform(c3;c3,3)")
    return (classes + [dijoin(c3(), T) for T in classes] + [dijoin(T, c3()) for T in classes]
            + [qn(n) for n in range(3, 13)] + [graph_from_expr(e) for e in exprs])


def naive_exists(D, k):
    """Whether some assignment of k-bit vectors to D's vertices decycles
    D, trying every assignment."""
    for vecs in itertools.product(range(1 << k), repeat=D.n):
        sets = [sum(1 << v for v, w in enumerate(vecs) if w >> c & 1) for c in range(k)]
        if _acyclic(_flipped_rows(D.out_rows, sets)):
            return True
    return False


@pytest.fixture(scope="module")
def root_fails_first():
    """(T, value) for each order-7 class whose witness level fails a root
    vector before it finds a family: the levels where a ban is made
    before a family is found, so a wrong one can lose it."""
    found = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_symmetries", lambda *args: found.append(args) or _symmetries(*args))
        cases = []
        for T in nonisomorphic_tournaments(7):
            value = inv_exact(T).value
            found.clear()
            if value and exists_family(T, value) is not None and found:
                cases.append((T, value))
    return cases


class TestRootBans:
    """A root vector searched to the end is banned, for the later root
    vectors, at every image of the root under the graph's automorphisms
    and isomorphisms onto its reverse (``digraph._symmetries``)."""

    def test_only_the_levels_between_are_searched(self):
        # c3 => qn(5): level 2 alone, empty, in 133 nodes against 209
        parts = [c3(), qn(5)]
        D = k_join(parts)
        opts = bounded(D, parts)
        assert solver._search_assignment(D, 2, opts) == (None, 133)
        r = inv_exact(D, opts)
        assert r.report(deterministic=True).splitlines()[0] == (
            "inv=3 k_proof=2_exhausted backend=assign nodes=133 witness=composed")
        r = inv_exact(D)
        assert (r.value, r.nodes_explored, r.source) == (3, 12 + 133 + 26, "search")

    def test_qn11(self):
        # about half the triangle order's 105,420 and 101,689 nodes, and
        # the triangle order's witness
        r = inv_exact(qn(11))
        assert (r.value, r.nodes_explored, r.source) == (5, 54_360, "search")
        assert r.witness == helpers.reference_triangle_search(qn(11), 5, SearchOptions())[0]
        lower = solver.Sub(tuple(range(10)), qn(10), inv_exact(qn(10)))
        r = inv_exact(qn(11), SearchOptions(lower=lower, upper=qn_family(11)))
        assert (r.value, r.nodes_explored, r.proof, r.source) == (
            5, 52_103, "exhausted", "composed")

    @pytest.mark.usefixtures("root_ban_reference")
    def test_deep_search_inputs_at_seed_zero(self):
        # TestDeepSearchInputs' graphs: 60,113 nodes against 114,353
        exprs = ["qn(11)", "qn(10)", "join(c3,c3,c3,c3)", "blowup_uniform(c3;c3,3)"]
        for i, (expr, want) in enumerate(zip(exprs, [52_986, 2_453, 2_331, 2_343])):
            D = graph_from_expr(expr)
            perm = list(range(D.n))
            random.Random(f"deep_search:0:{i}").shuffle(perm)
            assert inv_exact(helpers.relabel(D, perm)).nodes_explored == want

    @pytest.mark.usefixtures("root_ban_reference")
    def test_no_level_grows(self):
        # each level from 1 to the value, plain and with even weights only:
        # a family exactly where the reference finds one, in no more nodes
        opts = SearchOptions()
        totals = {}
        for D in gate_graphs():
            value = inv_exact(D).value
            for even in (False, True):
                for k in range(1, value + 1):
                    found, nodes = solver._search_assignment(D, k, opts, even_weight_only=even)
                    ref, ref_nodes = helpers.reference_triangle_search(
                        D, k, opts, even_weight_only=even)
                    assert (found is None) == (ref is None), (encode_digraph(D), k, even)
                    assert nodes <= ref_nodes, (encode_digraph(D), k, even)
                    if found is not None:
                        assert is_acyclic(apply_family(D, found)) is not None
                    old, new = totals.get(even, (0, 0))
                    totals[even] = (old + ref_nodes, new + nodes)
        # (reference, shipped) nodes over every level
        assert totals == {False: (251_183, 139_713), True: (80_776, 58_754)}

    def test_a_finder_with_no_step_gives_the_reference_trees(self, monkeypatch):
        # with no image found nothing is banned, and each tree is the
        # reference's, witness and nodes
        monkeypatch.setattr(solver, "_symmetries", functools.partial(_symmetries, steps=0))
        opts = SearchOptions()
        for D in tie_break_graphs():
            for even in (False, True):
                for k in range(1, 4):
                    assert solver._search_assignment(D, k, opts, even_weight_only=even) == (
                        helpers.reference_triangle_search(D, k, opts, even_weight_only=even))

    def test_a_capped_finder_keeps_every_value(self, monkeypatch):
        graphs = list(tie_break_graphs()) + gate_graphs()[-12:]
        values = [inv_exact(D).value for D in graphs]
        for steps in (1, 2, 3, 30):
            monkeypatch.setattr(solver, "_symmetries", functools.partial(_symmetries, steps=steps))
            for D, value in zip(graphs, values):
                r = inv_exact(D)
                assert r.value == value
                assert is_acyclic(apply_family(D, r.witness)) is not None

    def test_naive_enumeration_agrees_where_a_root_vector_fails_first(self, root_fails_first):
        # the witness levels where a ban is made before the family is
        # found, and the exhausted levels below them: 15 classes, at k=2
        assert [value for _, value in root_fails_first] == [2] * 15
        for T, value in root_fails_first:
            for k in (value - 1, value):
                assert (exists_family(T, k) is not None) == naive_exists(T, k)

    def test_a_partner_outside_the_orbit_is_caught(self, monkeypatch, root_fails_first):
        # a mutant finder that adds the least vertex outside the root's
        # orbit bans a class no exhausted branch ruled out, and loses a
        # family that naive enumeration finds
        def mutant(outs, ins, v, *args):
            orbit, stabilizer = _symmetries(outs, ins, v, *args)
            outside = ~orbit & (1 << len(outs)) - 1
            return orbit | outside & -outside, stabilizer

        monkeypatch.setattr(solver, "_symmetries", mutant)
        lost = [encode_digraph(T) for T, value in root_fails_first
                if exists_family(T, value) is None and naive_exists(T, value)]
        assert lost == ["enc:7:58.11.3.6.c.1f.3e", "enc:7:66.48.2.5.f.1e.3c"]


# order-7 classes of root_fails_first, each with a transposition that is
# no symmetry of it and whose ban, made once the root fails, loses the
# witness level's every family
NO_SYMMETRY = [("enc:7:46.28.2.5.f.1d.3e", 0, 4), ("enc:7:60.4d.11.5.b.1e.3c", 1, 5)]


class TestDeepBans:
    """A vector searched to the end at vertex v under a placed set P is
    banned, for the rest of the node's subtree, at v's images under the
    maps of the root's stabilizer that fix P, which ``digraph._symmetries``
    finds once per ``inv_exact`` solve."""

    def test_deep_search_inputs_at_seed_zero(self):
        # 57,642 nodes against 60,113 with bans at the root alone: the
        # join and the blow-up shrink, qn(n)'s root has a trivial stabilizer
        exprs = ["qn(11)", "qn(10)", "join(c3,c3,c3,c3)", "blowup_uniform(c3;c3,3)"]
        for i, (expr, want) in enumerate(zip(exprs, [52_986, 2_453, 1_292, 911])):
            D = graph_from_expr(expr)
            perm = list(range(D.n))
            random.Random(f"deep_search:0:{i}").shuffle(perm)
            assert inv_exact(helpers.relabel(D, perm)).nodes_explored == want

    def test_no_level_grows(self):
        # each level from 1 to the value, plain and with even weights only:
        # a family exactly where the search with bans at the root alone
        # finds one, in no more nodes; even weights ban at the root alone
        opts = SearchOptions()
        totals = {}
        for D in gate_graphs():
            value = inv_exact(D).value
            for even in (False, True):
                for k in range(1, value + 1):
                    found, nodes = solver._search_assignment(D, k, opts, even_weight_only=even)
                    ref, ref_nodes = helpers.root_ban_search(D, k, opts, even_weight_only=even)
                    assert (found is None) == (ref is None), (encode_digraph(D), k, even)
                    assert nodes <= ref_nodes, (encode_digraph(D), k, even)
                    if found is not None:
                        assert is_acyclic(apply_family(D, found)) is not None
                    old, new = totals.get(even, (0, 0))
                    totals[even] = (old + ref_nodes, new + nodes)
        # (reference, shipped) nodes over every level
        assert totals == {False: (139_713, 138_009), True: (58_754, 58_754)}

    def test_the_finder_runs_once_per_solve(self, monkeypatch):
        # inv_exact shares one finder run among its levels; exists_family
        # runs its own, at its first failed root vector, if one fails
        calls = []
        monkeypatch.setattr(solver, "_symmetries",
                            lambda *args: calls.append(args) or _symmetries(*args))
        for expr in ("join(c3,c3,c3,c3)", "blowup_uniform(c3;c3,3)", "qn(9)"):
            D = graph_from_expr(expr)
            calls.clear()
            r = inv_exact(D)
            assert r.value == 4 and len(calls) == 1
            runs = []
            for k in range(1, 5):
                calls.clear()
                exists_family(D, k)
                runs.append(len(calls))
            assert runs == [1, 1, 1, 0]  # the first root vector at 4 finds the witness
        calls.clear()
        assert inv_exact(transitive(6)).value == 0 and inv_exact(c3()).value == 1
        assert calls == []

    @pytest.mark.parametrize("enc, a, b", NO_SYMMETRY)
    def test_a_map_that_is_no_symmetry_is_caught(self, monkeypatch, root_fails_first, enc, a, b):
        # a mutant finder that adds the transposition of a and b to the
        # root's stabilizer bans a class no exhausted branch ruled out, and
        # loses every family that naive enumeration finds
        T = decode_digraph(enc)
        value = dict((encode_digraph(G), v) for G, v in root_fails_first)[enc]
        swap = list(range(T.n))
        swap[a], swap[b] = b, a
        pairs = [(x, y) for x in range(T.n) for y in range(T.n)]
        rows = T.out_rows
        assert any(rows[x] >> y & 1 != rows[swap[x]] >> swap[y] & 1 for x, y in pairs)
        assert any(rows[x] >> y & 1 != rows[swap[y]] >> swap[x] & 1 for x, y in pairs)

        def mutant(outs, ins, v, *args):
            orbit, stabilizer = _symmetries(outs, ins, v, *args)
            assert v not in (a, b)
            return orbit, stabilizer + [(swap, (1 << T.n) - 1 ^ 1 << a ^ 1 << b)]

        assert exists_family(T, value) is not None
        monkeypatch.setattr(solver, "_symmetries", mutant)
        assert exists_family(T, value) is None
        assert naive_exists(T, value)
