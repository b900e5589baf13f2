"""Digraph values, inversions, families, assignments, and text formats."""

import itertools
import random
import re
from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.construct import c3, dijoin, graph_from_expr, qn, qn_family, transitive
from invlab.digraph import (
    MAX_VERTICES,
    MAX_ENUM_VERTICES,
    Digraph,
    InversionFamily,
    TournamentClasses,
    _acyclic,
    _images,
    apply_family,
    decode_digraph,
    dump_digraph,
    dump_family,
    encode_digraph,
    invert,
    is_acyclic,
    nonisomorphic_tournaments,
    parse_digraph,
    parse_family,
    residual_cycle,
    reverse,
)
from invlab.errors import ResourceLimitError
from invlab.f2 import dump_rows, load_matrix, parse_rows

from helpers import (
    all_oriented,
    apply_assignment,
    canonical_by_relabelling,
    canonical_key,
    enumerate_tournaments,
    family_rank,
    family_vectors,
    flip_matrix,
    nonisomorphic_by_key,
    random_family,
    random_oriented,
    random_tournament,
    reference_class_walk,
    relabel,
    tournament_code,
)


class TestDigraphValue:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Digraph(2, (0b01, 0b00))

    def test_two_cycle_rejected(self):
        with pytest.raises(ValueError):
            Digraph(2, (0b10, 0b01))

    @pytest.mark.parametrize("rows", [(0,), (0, 0, 0)])
    def test_row_count_must_match_the_vertex_count(self, rows):
        with pytest.raises(ValueError) as err:
            Digraph(2, rows)
        assert str(err.value) == "adjacency row count does not match vertex count"

    def test_induced_subgraph(self):
        D = c3()
        sub = D.induced(0b101)  # vertices 0 and 2, arc 2->0
        assert sub.n == 2 and sub.out_rows == (0, 0b01)

    @pytest.mark.parametrize(
        "n,rows", [(True, (0,)), (False, ()), (2.0, (0b10, 0)), ("2", (0b10, 0))]
    )
    def test_vertex_count_must_be_an_int(self, n, rows):
        # a bool would be kept as the count and then written out as one
        with pytest.raises(ValueError, match=f"vertex count must be an int, got {n!r}"):
            Digraph(n, rows)
        # from_arcs once failed first, with a TypeError from [0] * n
        with pytest.raises(ValueError, match=f"vertex count must be an int, got {n!r}"):
            Digraph.from_arcs(n, [])

    @pytest.mark.parametrize("mask", [-1, 0b1101, True, 1.5, 2.0])
    def test_induced_refuses_vertices_outside_the_graph(self, mask):
        # a mask that is no int (a bool included) once failed with a TypeError
        # from >>, or was read as a set; invert refuses X as its one-set family
        refusal = f"must be an int, got {mask!r}"
        if type(mask) is int:
            refusal = f"must be in range(2**3), got {mask}"
        with pytest.raises(ValueError) as err:
            c3().induced(mask)
        assert str(err.value) == "vertex set " + refusal
        with pytest.raises(ValueError) as err:
            invert(c3(), mask)
        assert str(err.value) == "set 0 " + refusal

    @pytest.mark.parametrize("arc", [(-1, 0), (3, 0)])
    def test_from_arcs_refuses_endpoints_outside_the_graph(self, arc):
        with pytest.raises(ValueError) as err:
            Digraph.from_arcs(3, [arc])
        assert str(err.value) == f"arc endpoint must be in range(3), got {arc[0]}"


class TestFamilyValue:
    @pytest.mark.parametrize("n", [-1, MAX_VERTICES + 1])
    def test_host_size_outside_the_vertex_range_refused(self, n):
        with pytest.raises(ValueError, match=rf"host size must be in 0\.\.{MAX_VERTICES}"):
            InversionFamily(n, ())

    @pytest.mark.parametrize("n", [True, False, 1.0])
    def test_host_size_must_be_an_int(self, n):
        with pytest.raises(ValueError, match=f"host size must be an int, got {n!r}"):
            InversionFamily(n, ())

    def test_empty_host_keeps_empty_sets(self):
        # the solvers' witnesses on the empty graph
        assert InversionFamily(0, (0, 0)).k == 2

    @pytest.mark.parametrize("mask", [-1, 0b1000, True, 2.0])
    def test_sets_outside_the_host_refused(self, mask):
        message = rf"^set 1 must be in range\(2\*\*3\), got {mask}$"
        if type(mask) is not int:
            message = f"^set 1 must be an int, got {re.escape(repr(mask))}$"
        with pytest.raises(ValueError, match=message):
            InversionFamily(3, (0b011, mask))

    @pytest.mark.parametrize("lists", [[[-1]], [[0], [2, -3]], [[3]]])
    def test_vertex_lists_outside_the_host_refused(self, lists):
        i, v = next((i, v) for i, vs in enumerate(lists) for v in vs if not 0 <= v < 3)
        with pytest.raises(ValueError) as err:
            InversionFamily.from_vertex_lists(3, lists)
        assert str(err.value) == f"vertex in set {i} must be in range(3), got {v}"


class TestEmptyHostRefusals:
    """With no vertices there is no range 0..n-1 to name: the refusal names
    the empty range(0), or range(2**0) for a set, never 0..-1."""

    @pytest.mark.parametrize(
        "refuse,message",
        [
            (lambda: InversionFamily(0, (1,)), "set 0 must be in range(2**0), got 1"),
            (lambda: InversionFamily.from_vertex_lists(0, [[-1]]),
             "vertex in set 0 must be in range(0), got -1"),
            (lambda: parse_family("0\n", 0), "vertex in set 0 must be in range(0), got 0"),
            (lambda: Digraph.from_arcs(0, [(0, 1)]),
             "arc endpoint must be in range(0), got 0"),
        ],
        ids=["family", "vertex_lists", "parse_family", "from_arcs"],
    )
    def test_names_the_empty_graph_not_a_range(self, refuse, message):
        with pytest.raises(ValueError) as err:
            refuse()
        assert str(err.value) == message
        assert "0..-1" not in str(err.value)

    def test_one_vertex_still_names_its_range(self):
        with pytest.raises(ValueError, match=r"^vertex in set 0 must be in range\(1\), got 1$"):
            parse_family("1\n", 1)
        with pytest.raises(ValueError, match=r"^set 0 must be in range\(2\*\*1\), got 2$"):
            InversionFamily(1, (0b10,))


class TestInvert:
    def test_empty_set_is_identity(self):
        assert invert(c3(), 0) == c3()

    def test_whole_set_reverses_every_arc(self):
        assert invert(c3(), 0b111) == reverse(c3())
        assert residual_cycle(invert(c3(), 0b111)) is not None

    def test_two_subset_decycles_triangle(self):
        assert is_acyclic(invert(c3(), 0b011)) is not None

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(50):
            D = random_oriented(rng, rng.randint(1, 8))
            X = rng.getrandbits(D.n)
            assert invert(invert(D, X), X) == D

    def test_matches_one_coordinate_assignment(self):
        # X as a family of one set: vertex v's vector is the bit v of X
        rng = random.Random(174)
        for trial in range(400):
            D = random_oriented(rng, trial % 14)
            X = rng.getrandbits(D.n)
            vecs = [X >> v & 1 for v in range(D.n)]
            assert invert(D, X) == apply_assignment(D, vecs), (trial, X)


class TestApplyFamily:
    def test_empty_family(self):
        F = InversionFamily(3, ())
        assert apply_family(c3(), F) == c3()

    def test_family_twice_is_identity(self):
        rng = random.Random(9)
        for _ in range(30):
            D = random_oriented(rng, rng.randint(1, 7))
            F = random_family(rng, D.n, rng.randint(0, 3))
            twice = InversionFamily(D.n, F.sets + F.sets)
            assert apply_family(D, twice) == D

    def test_order_independence(self):
        rng = random.Random(13)
        for _ in range(30):
            D = random_oriented(rng, rng.randint(1, 7))
            F = random_family(rng, D.n, rng.randint(0, 4))
            perm = list(F.sets)
            rng.shuffle(perm)
            assert apply_family(D, F) == apply_family(
                D, InversionFamily(D.n, tuple(perm))
            )

    def test_matches_fold_of_invert(self):
        # one pass over the vertices against inverting the sets one by one
        rng = random.Random(31)
        for trial in range(120):
            D = random_oriented(rng, trial % 13)
            sets = list(random_family(rng, D.n, rng.randint(0, 6)).sets)
            if sets and trial % 3 == 0:
                sets[rng.randrange(len(sets))] = 0  # an empty set
            if len(sets) > 1 and trial % 4 == 0:
                sets[-1] = rng.choice(sets[:-1])  # a repeated set
            F = InversionFamily(D.n, sets)
            assert apply_family(D, F) == reduce(invert, F.sets, D), (trial, F)

    def test_host_size_mismatch_refused(self):
        with pytest.raises(ValueError, match="host size"):
            apply_family(c3(), InversionFamily(4, (0b11,)))

    def test_qn_pair_family_decycles(self):
        Q = qn(7)
        assert is_acyclic(apply_family(Q, qn_family(7))) is not None


class TestIsAcyclic:
    def test_transitive_order(self):
        assert is_acyclic(transitive(4)) == [0, 1, 2, 3]

    def test_triangle_has_none(self):
        assert is_acyclic(c3()) is None
        assert residual_cycle(c3()) == [0, 1, 2]

    def test_decycled_q5(self):
        out = apply_family(qn(5), qn_family(5))
        assert is_acyclic(out) is not None

    @staticmethod
    def _graphs():
        yield from (D for n in range(5) for D in all_oriented(n))
        rng = random.Random(21)
        for _ in range(400):
            yield random_oriented(rng, rng.randint(0, 12))

    def test_residual_cycle_exactly_when_no_order(self):
        seen = {True: 0, False: 0}
        for D in self._graphs():
            order = is_acyclic(D)
            cycle = residual_cycle(D)
            seen[order is None] += 1
            # the row-level check peels sinks, not sources, to the same verdict
            assert _acyclic(D.out_rows) == (order is not None)
            if order is not None:
                assert cycle is None
                assert sorted(order) == list(range(D.n))
                place = {v: i for i, v in enumerate(order)}
                assert all(place[u] < place[v] for u, v in D.arcs())
                continue
            assert cycle is not None and len(set(cycle)) == len(cycle) >= 3
            assert all(0 <= v < D.n for v in cycle)
            for u, v in zip(cycle, cycle[1:] + cycle[:1]):
                assert D.has_arc(u, v), (D, cycle)
        assert seen[True] and seen[False], seen


class TestAssignments:
    def test_empty_family_round_trip(self):
        assert family_vectors(InversionFamily(3, ())) == (0, 0, 0)

    def test_single_set(self):
        assert family_vectors(InversionFamily(3, (0b011,))) == (1, 1, 0)

    def test_all_zero_assignment_is_identity(self):
        D = c3()
        assert apply_assignment(D, (0, 0, 0)) == D

    def test_matches_family_application_on_randoms(self):
        rng = random.Random(21)
        for _ in range(200):
            D = random_oriented(rng, rng.randint(1, 8))
            F = random_family(rng, D.n, rng.randint(0, 4))
            assert apply_assignment(D, family_vectors(F)) == apply_family(D, F)


class TestFlipMatrix:
    def test_transitive_against_its_order_is_zero(self):
        D = transitive(4)
        assert flip_matrix(D, [0, 1, 2, 3]) == (0, 0, 0, 0)

    def test_transitive_reversed_order_is_all_pairs(self):
        D = transitive(3)
        M = flip_matrix(D, [2, 1, 0])
        assert M == (0b110, 0b101, 0b011)

    def test_triangle_back_arc_counts(self):
        # hand enumeration: rotations of the cycle order disagree in one
        # arc, the three reversed orders in two; never zero
        import itertools

        counts = sorted(
            sum(r.bit_count() for r in flip_matrix(c3(), list(order))) // 2
            for order in itertools.permutations(range(3))
        )
        assert counts == [1, 1, 1, 2, 2, 2]

    def test_zero_iff_topological(self):
        rng = random.Random(2)
        for _ in range(40):
            D = random_oriented(rng, rng.randint(1, 6))
            order = list(range(D.n))
            rng.shuffle(order)
            M = flip_matrix(D, order)
            pos = {v: i for i, v in enumerate(order)}
            sorts = all(pos[u] < pos[v] for u, v in D.arcs())
            assert (not any(M)) == sorts


class TestReverse:
    def test_reverses_topological_order(self):
        out = is_acyclic(reverse(transitive(5)))
        assert out == [4, 3, 2, 1, 0]

    def test_involution(self):
        rng = random.Random(8)
        for _ in range(30):
            D = random_oriented(rng, rng.randint(0, 8))
            assert reverse(reverse(D)) == D

    def test_reversed_triangle_isomorphic(self):
        assert canonical_key(reverse(c3())) == canonical_key(c3())


def image_graphs():
    """Every tournament class up to order 7, the triangle dijoins of those
    up to order 6 on both sides, qn(3..12), and the four-triangle join and
    blow-up."""
    classes = [T for n in range(1, 8) for T in nonisomorphic_tournaments(n)]
    small = [T for T in classes if T.n <= 6]
    exprs = ("join(c3,c3,c3,c3)", "blowup_uniform(c3;c3,3)")
    return (classes + [dijoin(c3(), T) for T in small] + [dijoin(T, c3()) for T in small]
            + [qn(n) for n in range(3, 13)] + [graph_from_expr(e) for e in exprs])


def networkx_orbits(nx, D):
    """Per vertex v, the mask of the vertices that networkx's isomorphisms
    of D onto D and onto its reverse map v to."""
    def nx_graph(G):
        H = nx.DiGraph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.arcs())
        return H

    G = nx_graph(D)
    orbits = [0] * D.n
    for image in (G, nx_graph(reverse(D))):
        for mapping in nx.algorithms.isomorphism.DiGraphMatcher(G, image).isomorphisms_iter():
            for v, u in mapping.items():
                orbits[v] |= 1 << u
    return orbits


class TestSymmetricImages:
    """``_images``: a vertex's orbit under the automorphisms and the
    isomorphisms onto the reverse, which the assignment search bans a
    failed root vector at."""

    def test_orbits_match_networkx_on_the_graph_and_its_reverse(self):
        nx = pytest.importorskip("networkx")
        graphs = image_graphs()
        assert len(graphs) == 532 + 2 * 76 + 10 + 2
        symmetric = 0
        for D in graphs:
            for G in (D, reverse(D)):
                ins = G.in_rows()
                got = [_images(G.out_rows, ins, v) for v in range(G.n)]
                assert got == networkx_orbits(nx, G), encode_digraph(G)
                symmetric += any(orbit != 1 << v for v, orbit in enumerate(got))
        assert symmetric == 666

    def test_orbits_match_networkx_on_oriented_graphs(self):
        # the search bans at these images on graphs that are not
        # tournaments too: every labelled oriented graph of orders 1 to 4,
        # a set closed under reversal, and seeded random ones of orders 5 to 9
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        graphs = [D for n in range(1, 5) for D in all_oriented(n)]
        graphs += [random_oriented(rng, n) for n in range(5, 10) for _ in range(60)]
        assert len(graphs) == 1 + 3 + 27 + 729 + 300
        symmetric = 0
        for G in graphs:
            ins = G.in_rows()
            got = [_images(G.out_rows, ins, v) for v in range(G.n)]
            assert got == networkx_orbits(nx, G), encode_digraph(G)
            symmetric += any(orbit != 1 << v for v, orbit in enumerate(got))
        assert symmetric == 454

    def test_a_capped_finder_returns_a_subset(self):
        for D in image_graphs()[::7]:
            ins = D.in_rows()
            for v in range(D.n):
                orbit = _images(D.out_rows, ins, v)
                assert _images(D.out_rows, ins, v, steps=0) == 1 << v
                for steps in (1, 2, 3, 5):
                    part = _images(D.out_rows, ins, v, steps=steps)
                    assert part >> v & 1 and part & ~orbit == 0

    def test_qn_maps_onto_its_reverse_by_the_mirror(self):
        # and qn(3), the triangle, rotates
        assert [_images(qn(3).out_rows, qn(3).in_rows(), v) for v in range(3)] == [7] * 3
        for n in range(4, 13):
            G = qn(n)
            ins = G.in_rows()
            assert [_images(G.out_rows, ins, v) for v in range(n)] == [
                1 << v | 1 << n - 1 - v for v in range(n)]


class TestCanonicalKey:
    def test_path_and_triangle_differ(self):
        path = Digraph.from_arcs(3, [(0, 2), (2, 1)])
        assert canonical_key(path) != canonical_key(c3())

    @pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 7), (4, 42)])
    def test_exact_on_oriented_graphs(self, n, classes):
        # A001174: oriented graphs on n unlabelled vertices
        nx = pytest.importorskip("networkx")

        def as_nx(D):
            G = nx.DiGraph()
            G.add_nodes_from(range(D.n))
            G.add_edges_from(D.arcs())
            return G

        groups: dict = {}
        for D in all_oriented(n):
            groups.setdefault(canonical_key(D), []).append(as_nx(D))
        assert len(groups) == classes
        for first, *rest in groups.values():
            assert all(nx.is_isomorphic(first, G) for G in rest)

    def test_invariant_under_relabelling(self):
        rng = random.Random(12)
        for _ in range(40):
            D = random_oriented(rng, rng.randint(1, 6))
            perm = list(range(D.n))
            rng.shuffle(perm)
            assert canonical_key(relabel(D, perm)) == canonical_key(D)


class TestFamilyRank:
    def test_all_zero(self):
        F = InversionFamily(3, (0, 0))
        assert family_rank(family_vectors(F)) == 0

    def test_duplicates_do_not_change_rank(self):
        F = InversionFamily(3, (0b011, 0b001))
        G = InversionFamily(3, F.sets + F.sets)
        assert family_rank(family_vectors(F)) >= 1
        # duplicated positions double vector width but not the span of rows
        a, b = family_vectors(F), family_vectors(G)
        assert family_rank(b) == family_rank(a)


def odd_weight_vertices(F: InversionFamily) -> int:
    """The mask of vertices whose characteristic vectors have odd weight."""
    return sum((w.bit_count() & 1) << v for v, w in enumerate(family_vectors(F)))


class TestEvenWeight:
    # the even-weight test construct applies: the XOR of the family's sets
    def test_all_zero_true(self):
        F = InversionFamily(3, (0, 0))
        assert reduce(xor, F.sets, 0) == odd_weight_vertices(F) == 0

    def test_odd_vector_false(self):
        F = InversionFamily(2, (0b01,))
        assert reduce(xor, F.sets, 0) == odd_weight_vertices(F) == 0b01

    def test_triangle_lift_vectors_are_odd(self):
        # vertex 0 joins no set, vertices 1 and 2 all three: (000, 111, 111)
        F = InversionFamily(3, (0b110,) * 3)
        assert reduce(xor, F.sets, 0) == odd_weight_vertices(F) == 0b110

    @given(
        st.integers(1, 7),
        st.integers(0, 5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_xor_of_sets_marks_odd_weight_vectors(self, n, k, rnd):
        F = random_family(random.Random(rnd.getrandbits(32)), n, k)
        assert reduce(xor, F.sets, 0) == odd_weight_vertices(F)


class TestEnumeration:
    def test_counts(self):
        assert len(list(enumerate_tournaments(1))) == 1
        assert len(list(enumerate_tournaments(3))) == 8
        assert len(list(enumerate_tournaments(5))) == 1024

    def test_iso_classes(self):
        assert len(nonisomorphic_tournaments(3)) == 2
        assert len(nonisomorphic_tournaments(4)) == 4
        assert len(nonisomorphic_tournaments(5)) == 12

    def test_too_large_rejected(self):
        with pytest.raises(ResourceLimitError):
            next(enumerate_tournaments(8))

    def test_negative_order_refused(self):
        # refused before any table is built
        with pytest.raises(ValueError, match="^vertex count must be at least 0, got -1$"):
            nonisomorphic_tournaments(-1)
        with pytest.raises(ValueError, match="^vertex count must be at least 0, got -3$"):
            next(enumerate_tournaments(-3))


class TestNonisomorphicTournaments:
    @pytest.mark.parametrize("n", range(7))
    def test_equals_key_dedup(self, n):
        assert nonisomorphic_tournaments(n) == nonisomorphic_by_key(n)

    def test_class_counts(self):
        # A000568: tournaments on n unlabelled vertices
        counts = [len(nonisomorphic_tournaments(n)) for n in range(1, 8)]
        assert counts == [1, 1, 2, 4, 12, 56, 456]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_representatives_are_orbit_minima(self, n):
        perms = list(itertools.permutations(range(n)))
        codes = [tournament_code(T) for T in nonisomorphic_tournaments(n)]
        assert codes == sorted(codes)
        for T, code in zip(nonisomorphic_tournaments(n), codes):
            assert code == min(tournament_code(relabel(T, p)) for p in perms)

    @pytest.mark.parametrize("n", range(8))
    def test_equals_reference_walk(self, n):
        # the packed tables mark the same orbits as the per-relabelling lists
        assert nonisomorphic_tournaments(n) == reference_class_walk(n)

    def test_order_eight_refused(self):
        with pytest.raises(ResourceLimitError):
            nonisomorphic_tournaments(8)


def embeds(T, R, at):
    """Whether R's vertex i sits at T's vertex at[i], checked arc by arc."""
    return all(R.has_arc(i, j) == T.has_arc(at[i], at[j])
               for i in range(R.n) for j in range(R.n) if i != j)


class TestCanonicalForm:
    """``TournamentClasses.canonical``: each tournament's class
    representative, the least code of its orbit, and where it lies."""

    @pytest.mark.parametrize("n", range(MAX_ENUM_VERTICES + 1))
    def test_representatives_are_their_own_forms(self, n):
        # the class list is the walk, which test_equals_reference_walk checks
        # against the per-relabelling lists; the form reads no walk, only
        # each representative's own orbit, whose least field is its own code
        # under the identity, relabelling number 0
        form = TournamentClasses(n)
        reps = form.representatives()
        assert reps == nonisomorphic_tournaments(n)
        assert len(reps) == [1, 1, 1, 2, 4, 12, 56, 456][n]
        for R in reps[:60]:
            assert form.canonical(R) == (R, tuple(range(n)))

    @pytest.mark.parametrize("n", range(6))
    def test_agrees_with_the_key_on_every_labelled_tournament(self, n):
        form = TournamentClasses(n)
        by_key = {}
        for T in enumerate_tournaments(n):
            R, at = form.canonical(T)
            assert embeds(T, R, at) and sorted(at) == list(range(n))
            # the relabelling too: the first, in permutation order, that
            # reaches the least code
            assert (R, at) == canonical_by_relabelling(T, range(n))
            assert by_key.setdefault(canonical_key(T), R) == R
        # one representative per key, so equal forms hold for equal keys only
        assert len(set(by_key.values())) == len(by_key) == len(form.representatives())

    @pytest.mark.parametrize("n", [6, 7])
    def test_agrees_with_networkx(self, n):
        nx = pytest.importorskip("networkx")

        def as_nx(D):
            G = nx.DiGraph()
            G.add_nodes_from(range(D.n))
            G.add_edges_from(D.arcs())
            return G

        rng = random.Random(36 + n)
        form = TournamentClasses(n)
        groups = {}
        for _ in range(30):
            T = random_tournament(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            for G in (T, relabel(T, perm)):
                R, at = form.canonical(G)
                assert embeds(G, R, at)
                groups.setdefault(R, []).append(G)
        assert len(groups) > 10
        for members in groups.values():
            assert all(nx.is_isomorphic(as_nx(members[0]), as_nx(G)) for G in members[1:])
        firsts = [as_nx(members[0]) for members in groups.values()]
        for i, G in enumerate(firsts):
            assert not any(nx.is_isomorphic(G, H) for H in firsts[i + 1:])

    def test_sampled_tournaments_match_the_relabelling_oracle(self):
        rng = random.Random(39)
        form = TournamentClasses(6)
        for _ in range(30):
            T = random_tournament(rng, 6)
            assert form.canonical(T) == canonical_by_relabelling(T, range(6))
        form = TournamentClasses(7)
        for _ in range(2):
            T = random_tournament(rng, 8)
            for v in range(8):
                vertices = [u for u in range(8) if u != v]
                assert form.canonical(T, vertices) == canonical_by_relabelling(T, vertices)

    def test_no_class_walk(self, monkeypatch):
        # every one-vertex deletion of qn(8) is read off its own orbit
        def refuse(self):
            raise AssertionError(f"order {self.n} walked")

        monkeypatch.setattr(TournamentClasses, "_walk", refuse)
        form = TournamentClasses(7)
        T = qn(8)
        for v in range(8):
            R, at = form.canonical(T, [u for u in range(8) if u != v])
            assert embeds(T, R, at) and v not in at
            assert form.canonical(R) == (R, tuple(range(7)))

    def test_subgraph_on_given_vertices(self):
        # the class of T's subgraph on the vertices, in their order, with
        # its map into T itself
        rng = random.Random(5)
        form = TournamentClasses(4)
        for _ in range(40):
            T = random_tournament(rng, 7)
            vertices = rng.sample(range(7), 4)
            R, at = form.canonical(T, vertices)
            assert embeds(T, R, at) and set(at) == set(vertices)
            assert R == form.canonical(T.induced(sum(1 << v for v in vertices)))[0]

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda f: f.canonical(transitive(4)), "canonical form needs 3 distinct vertices, "
                                                   "got (0, 1, 2, 3)"),
            (lambda f: f.canonical(c3(), (0, 1, 1)), "canonical form needs 3 distinct vertices, "
                                                     "got (0, 1, 1)"),
            (lambda f: f.canonical(c3(), (0, 1, 3)), "vertex must be in range(3), got 3"),
            (lambda f: f.canonical(Digraph(3, (0b010, 0, 0))),
             "canonical form needs a tournament: no arc between 0 and 2"),
        ],
        ids=["wrong-order", "repeated-vertex", "vertex-out-of-range", "not-a-tournament"],
    )
    def test_refusals(self, call, message):
        with pytest.raises(ValueError) as err:
            call(TournamentClasses(3))
        assert str(err.value) == message


class TestTextFormats:
    def test_digraph_round_trip(self):
        D = qn(6)
        assert parse_digraph(dump_digraph(D)) == D

    @pytest.mark.parametrize("n", [0, 64])
    def test_digraph_round_trip_at_the_extreme_orders(self, n):
        D = random_oriented(random.Random(n), n)
        text = dump_digraph(D)
        assert text == dump_rows(D.out_rows) and parse_rows(text) == D.out_rows
        assert parse_digraph(text) == D

    def test_digraph_rejects_two_cycle(self):
        with pytest.raises(ValueError):
            parse_digraph("2\n01\n10\n")

    def test_digraph_rejects_loop(self):
        with pytest.raises(ValueError):
            parse_digraph("1\n1\n")

    def test_family_round_trip(self):
        F = InversionFamily.from_vertex_lists(5, [[0, 2], [], [1, 3, 4]])
        assert parse_family(dump_family(F), 5) == F

    @given(st.integers(0, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.one_of(st.just(0), st.integers(0, (1 << n) - 1)), max_size=6))))
    @settings(max_examples=200, deadline=None)
    def test_family_round_trip_keeps_empty_sets(self, case):
        # one line per set, each ended by a newline: an empty set is a
        # blank line wherever it stands, the empty family no line at all
        n, sets = case
        F = InversionFamily(n, sets)
        text = dump_family(F)
        assert text.count("\n") == len(sets)
        assert parse_family(text, n) == F

    def test_family_text_of_empty_sets(self):
        assert dump_family(InversionFamily(2, ())) == ""
        assert dump_family(InversionFamily(2, (0, 0))) == "\n\n"
        assert parse_family("0 1\n\n", 2) == InversionFamily(2, (3, 0))

    def test_family_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            parse_family("0 7\n", 3)

    def test_encoding_round_trip(self):
        D = qn(5)
        assert decode_digraph(encode_digraph(D)) == D

    def test_empty_encoding_round_trip(self):
        assert encode_digraph(Digraph(0, ())) == "enc:0:"
        assert decode_digraph("enc:0:") == Digraph(0, ())

    @pytest.mark.parametrize(
        "parse,text",
        [
            (decode_digraph, "enc:3:0x2.4.1"),
            (decode_digraph, "enc:3:0_2.4.1"),
            (decode_digraph, "enc:3:2.4. 1"),
            (decode_digraph, "enc:+3:2.4.1"),
            (decode_digraph, "enc: 3:2.4.1"),
            (decode_digraph, "enc:３:2.4.1"),
            (decode_digraph, "3:02.4.1"),
            (decode_digraph, "enc:3:2.4.1\n"),
            (parse_digraph, "٢\n01\n00\n"),
            (parse_digraph, "0_2\n01\n00\n"),
            (parse_digraph, "+2\n01\n00\n"),
            (load_matrix, "٢\n01\n10\n"),
            (load_matrix, "0_2\n01\n10\n"),
            (load_matrix, "+2\n01\n10\n"),
            (lambda text: parse_family(text, 3), "0_1 +2"),
            (lambda text: parse_family(text, 3), "٢"),
            (lambda text: parse_family(text, 3), "-0"),
        ],
    )
    def test_numeric_fields_take_ascii_digits_only(self, parse, text):
        # each of these would parse by int(); the fields take what the
        # writers write, so a mangled line is refused, not read as another
        with pytest.raises(ValueError):
            parse(text)

    def test_unmangled_fields_parse(self):
        D = Digraph(3, (2, 4, 1))
        assert decode_digraph("enc:3:2.4.1") == decode_digraph("3:2.4.1") == D
        assert parse_digraph("2\n01\n00\n") == Digraph(2, (2, 0))
        assert load_matrix("02\n01\n10\n") == (2, 1)
        assert parse_family("1 2", 3) == InversionFamily(3, (0b110,))

    @pytest.mark.parametrize("text", ["enc:0:zz", "enc:0:0", "enc:00:not.hex.at.all"])
    def test_empty_encoding_rejects_trailing_text(self, text):
        with pytest.raises(ValueError):
            decode_digraph(text)
