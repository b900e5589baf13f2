"""Constructions, the expression grammar, and explicit family builders."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import cli
from invlab.construct import (
    MAX_EXPR_DEPTH,
    blow_up,
    c3,
    dijoin,
    extend_family_to_c3_dijoin,
    graph_from_expr,
    join_parts,
    k_join,
    qn,
    qn_family,
    transitive,
)
from invlab.digraph import (
    MAX_VERTICES,
    Digraph,
    InversionFamily,
    apply_family,
    encode_digraph,
    invert,
    is_acyclic,
    nonisomorphic_tournaments,
    reverse,
)
from invlab.errors import ParseError, VerificationError
from invlab.solver import inv_exact

from helpers import canonical_key, compose_family, random_oriented


class TestBasicGraphs:
    def test_c3_is_a_cycle(self):
        assert c3().arc_count() == 3
        assert is_acyclic(c3()) is None

    def test_c3_vertex_transitive_two_subsets(self):
        for X in (0b011, 0b101, 0b110):
            assert is_acyclic(invert(c3(), X)) is not None

    def test_transitive_is_acyclic(self):
        for n in range(7):
            assert is_acyclic(transitive(n)) is not None

    def test_qn_structure(self):
        Q = qn(4)
        # consecutive arcs run backwards, the rest forwards
        assert Q.has_arc(1, 0) and Q.has_arc(2, 1) and Q.has_arc(3, 2)
        assert Q.has_arc(0, 2) and Q.has_arc(0, 3) and Q.has_arc(1, 3)

    def test_qn_matches_its_definition(self):
        # i+1 -> i for each consecutive pair, i -> j for j >= i+2
        for n in range(1, MAX_VERTICES + 1):
            arcs = [(i + 1, i) for i in range(n - 1)]
            arcs += [(i, j) for i in range(n) for j in range(i + 2, n)]
            assert qn(n) == Digraph.from_arcs(n, arcs), n

    def test_qn_family_size_and_effect(self):
        for n in range(1, 16):
            F = qn_family(n)
            assert F.k == (n - 1) // 2
            assert is_acyclic(apply_family(qn(n), F)) is not None


class TestSizeLimits:
    @pytest.fixture
    def no_construction(self, monkeypatch):
        import invlab.construct as construct

        def refuse(n, rows):
            raise AssertionError("graph built before its size was checked")

        monkeypatch.setattr(construct, "Digraph", refuse)

    @pytest.mark.parametrize("build", [transitive, qn])
    def test_above_vertex_limit_refused_before_building(self, no_construction, build):
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            build(MAX_VERTICES + 1)

    @pytest.mark.parametrize("text", ["tt(1000000000)", "qn(1000000000)"])
    def test_huge_expression_refused(self, text):
        with pytest.raises(ValueError, match=str(MAX_VERTICES)):
            graph_from_expr(text)

    def test_largest_sizes_still_build(self):
        assert transitive(MAX_VERTICES).n == qn(MAX_VERTICES).n == MAX_VERTICES
        assert qn_family(MAX_VERTICES).n == MAX_VERTICES

    @pytest.mark.parametrize("build", [transitive, qn, qn_family])
    def test_bool_vertex_count_refused(self, build):
        # True once built a one-vertex graph whose encoding read 'enc:True:0'
        with pytest.raises(ValueError, match="must be an int, got True"):
            build(True)

    @pytest.mark.parametrize("n", [2.0, "3"], ids=["float", "str"])
    @pytest.mark.parametrize("build", [transitive, qn, qn_family])
    def test_non_int_vertex_count_refused(self, no_construction, build, n):
        # once a TypeError from 1 << n or range(n), past the range check
        with pytest.raises(ValueError, match=f"must be an int, got {n!r}"):
            build(n)

    @pytest.mark.parametrize("n", [-5, 0, MAX_VERTICES + 1, 100])
    def test_qn_family_takes_the_orders_qn_takes(self, n):
        # a family for a graph qn refuses to build is refused too
        for build in (qn, qn_family):
            with pytest.raises(ValueError, match=rf"1\.\.{MAX_VERTICES}"):
                build(n)


class TestDijoinAndJoin:
    def test_two_points_make_tt2(self):
        assert dijoin(transitive(1), transitive(1)) == transitive(2)

    def test_blowup_of_tt2_is_dijoin(self):
        A, B = c3(), transitive(2)
        assert blow_up(transitive(2), [A, B]) == dijoin(A, B)

    def test_kjoin_is_tt_blowup(self):
        parts = [c3(), transitive(2), c3()]
        assert k_join(parts) == blow_up(transitive(3), parts)

    def test_reverse_of_dijoin(self):
        rng = random.Random(4)
        for _ in range(20):
            L = random_oriented(rng, rng.randint(1, 4))
            R = random_oriented(rng, rng.randint(1, 4))
            lhs = reverse(dijoin(L, R))
            rhs = dijoin(reverse(R), reverse(L))
            assert canonical_key(lhs) == canonical_key(rhs)


def two_part_pairs():
    """Every ordered pair of tournament classes of order 1..5, then 200
    seeded pairs of random oriented graphs of 0..6 vertices each."""
    classes = [T for n in range(1, 6) for T in nonisomorphic_tournaments(n)]
    pairs = [(L, R) for L in classes for R in classes]
    assert len(pairs) == 400
    rng = random.Random(28)
    pairs += [(random_oriented(rng, rng.randint(0, 6)), random_oriented(rng, rng.randint(0, 6)))
              for _ in range(200)]
    return pairs


class TestDijoinIsTwoPartJoin:
    def test_the_one_construction(self):
        # dijoin builds through k_join; the disjoint union with every arc
        # from left to right, written out, is the independent check
        for L, R in two_part_pairs():
            off = L.n
            rmask = (1 << R.n) - 1 << off
            expect = Digraph(L.n + R.n, [row | rmask for row in L.out_rows]
                             + [row << off for row in R.out_rows])
            D = dijoin(L, R)
            assert D == k_join([L, R]) == expect
            # each part is the subgraph on its own vertex range
            assert D.induced((1 << L.n) - 1) == L and D.induced(rmask) == R


class TestBlowUp:
    def test_arity_checked(self):
        with pytest.raises(ValueError):
            blow_up(c3(), [c3(), c3()])

    def test_sizes_and_arc_count(self):
        H = c3()
        parts = [c3(), transitive(2), transitive(1)]
        G = blow_up(H, parts)
        assert G.n == sum(p.n for p in parts)
        bundles = sum(
            parts[i].n * parts[j].n for i, j in H.arcs()
        )
        assert G.arc_count() == bundles + sum(p.arc_count() for p in parts)

    def test_single_vertex_parts_reproduce_host(self):
        H = qn(4)
        assert blow_up(H, [transitive(1)] * 4) == H


# whitespace the grammar allows before, between and after tokens
SPACES = st.sampled_from(["", " ", "  ", "\t", "\n"])


def spaced(*tokens):
    """The tokens' text with whitespace drawn before each and at the end."""
    return st.lists(SPACES, min_size=len(tokens) + 1, max_size=len(tokens) + 1).map(
        lambda gaps: "".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1]
    )


def call(name, *args, build):
    """(text, graph) of ``name(args)``: args are (text, graph) pairs or
    plain tokens, and build gets the graphs among them."""
    tokens = [name, "("] + [a if isinstance(a, str) else a[0] for a in args] + [")"]
    graphs = [a[1] for a in args if not isinstance(a, str)]
    return spaced(*tokens).map(lambda text: (text, build(*graphs)))


def listed(parts):
    """Part texts and graphs interleaved with commas, as call takes them."""
    out = []
    for i, part in enumerate(parts):
        out.extend([","] * (i > 0) + [part])
    return out


def exprs(max_leaves=5):
    """(expression text, graph built by calling the constructors directly),
    over every constructor, with whitespace drawn around every token."""
    leaf = st.one_of(
        spaced("c3").map(lambda t: (t, c3())),
        spaced("c3", "(", ")").map(lambda t: (t, c3())),
        st.integers(0, 4).flatmap(lambda n: call("tt", str(n), build=lambda: transitive(n))),
        st.integers(1, 4).flatmap(lambda n: call("qn", str(n), build=lambda: qn(n))),
    )

    def extend(children):
        # parts of at most 8 vertices keep every result within the vertex limit
        small = children.filter(lambda e: e[1].n <= 8)
        base = small.filter(lambda e: 1 <= e[1].n <= 3)
        return st.one_of(
            small.flatmap(lambda e: call("rev", e, build=reverse)),
            st.tuples(small, small).flatmap(
                lambda t: call("dijoin", t[0], ",", t[1], build=dijoin)
            ),
            st.lists(small, min_size=1, max_size=3).flatmap(
                lambda ps: call("join", *listed(ps), build=lambda *gs: k_join(list(gs)))
            ),
            st.tuples(base, small).flatmap(
                lambda t: call(
                    "blowup_uniform", t[0], ";", t[1], ",", str(t[0][1].n),
                    build=lambda H, part: blow_up(H, [part] * H.n),
                )
            ),
            base.flatmap(
                lambda h: st.lists(small, min_size=h[1].n, max_size=h[1].n).flatmap(
                    lambda ps: call(
                        "blowup", h, ";", *listed(ps),
                        build=lambda H, *gs: blow_up(H, list(gs)),
                    )
                )
            ),
        )

    return st.recursive(leaf, extend, max_leaves=max_leaves)


class TestGrammar:
    def test_dijoin_expression(self):
        G = graph_from_expr("dijoin(c3, tt(3))")
        assert G.n == 6
        assert G == dijoin(c3(), transitive(3))

    def test_join_equals_blowup_of_tt(self):
        assert graph_from_expr("join(c3, c3, c3)") == graph_from_expr(
            "blowup(tt(3); c3, c3, c3)"
        )

    def test_uniform_blowup(self):
        assert graph_from_expr("blowup_uniform(c3; c3, 3)") == blow_up(
            c3(), [c3()] * 3
        )

    def test_whitespace_insensitive(self):
        assert graph_from_expr(" dijoin( c3 ,tt( 2) ) ") == dijoin(
            c3(), transitive(2)
        )

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            graph_from_expr("qn(")
        assert err.value.offset == 3

    @pytest.mark.parametrize("text", ["qn(٣)", "tt(３)"])
    def test_sizes_take_ascii_digits_only(self, text):
        with pytest.raises(ParseError) as err:
            graph_from_expr(text)
        assert err.value.offset == 3

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            graph_from_expr("c4")

    def test_arity_error_on_blowup(self):
        with pytest.raises(ValueError):
            graph_from_expr("blowup(tt(3); c3, c3)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            graph_from_expr("c3 c3")

    def test_nesting_depth_bounded(self):
        def nested(depth):
            return "rev(" * depth + "c3" + ")" * depth

        assert graph_from_expr(nested(MAX_EXPR_DEPTH)).n == 3
        for depth in (MAX_EXPR_DEPTH + 1, 3000):
            with pytest.raises(ParseError, match="nested deeper"):
                graph_from_expr(nested(depth))

    @given(exprs())
    @settings(max_examples=150, deadline=None)
    def test_text_builds_the_direct_construction(self, case):
        text, graph = case
        assert graph_from_expr(text) == graph


class TestConstructionRefusals:
    @pytest.mark.parametrize(
        "text,offset",
        [
            ("dijoin(c3, tt(65))", 11),
            ("join(c3, qn(0))", 9),
            ("blowup(tt(3); c3, c3)", 0),
            ("rev( blowup_uniform(tt(0); c3, 0))", 5),
            ("blowup_uniform(c3; c3, 2)", 0),
            # refused before a part list of that length is built
            ("blowup_uniform(c3; c3, 99999999999999999999)", 0),
            ("join(qn(40), qn(40))", 0),
        ],
    )
    def test_refusal_is_a_parse_error_at_the_constructor(self, text, offset):
        with pytest.raises(ParseError) as err:
            graph_from_expr(text)
        assert err.value.offset == offset

    def test_join_parts_of_the_kjoin_instances(self):
        pair = dijoin(c3(), c3())
        want = [[c3(), c3()], [c3(), c3(), c3()], [c3(), pair], [pair, c3()]]
        assert [join_parts(inst) for inst in cli._build_kjoin(None)] == want

    @pytest.mark.parametrize(
        "text,offset",
        [("c3", 0), (" dijoin(c3, c3)", 1), ("join(c3, c3) c3", 13), ("join(c3,", 8)],
    )
    def test_join_parts_refuses_other_text(self, text, offset):
        with pytest.raises(ParseError) as err:
            join_parts(text)
        assert err.value.offset == offset


def _refusal(parse, text) -> tuple[str, int]:
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value), err.value.offset


class TestExpressionErrorsPinned:
    """Every kind of expression error, with its whole message and offset."""

    @pytest.mark.parametrize(
        "text,message,offset",
        [
            ("", "expected a constructor name", 0),
            ("C3", "unexpected character 'C'", 0),
            ("c4", "unknown constructor 'c4'", 0),
            ("tt 3", "expected '('", 3),
            ("tt(x)", "expected an integer", 3),
            ("tt(3", "expected ')'", 4),
            ("dijoin(c3 c3)", "expected ','", 10),
            ("blowup(c3, c3)", "expected ';'", 9),
            ("c3()x", "trailing input 'x'", 4),
            ("tt(65", f"vertex count must be in 0..{MAX_VERTICES}, got 65", 0),
            # a constructor's refusal comes before a later syntax error
            ("join(tt(65), c3 c3", f"vertex count must be in 0..{MAX_VERTICES}, got 65", 5),
            ("c3(", "expected ')'", 3),
            ("blowup_uniform(c3; c3, 0)", "blowup count must be at least 1, got 0", 0),
            ("blowup_uniform(c3; c3, 2)", "blowup base has 3 vertices but count is 2", 0),
        ],
    )
    def test_graph_from_expr(self, text, message, offset):
        assert _refusal(graph_from_expr, text) == (f"{message} at offset {offset}", offset)

    @pytest.mark.parametrize(
        "text,message,offset",
        [
            (" joinx(c3)", "expected a join expression", 1),
            ("join c3", "expected '('", 5),
            ("join(c3)x", "trailing input 'x'", 8),
            ("join(tt(65), c3 c3", f"vertex count must be in 0..{MAX_VERTICES}, got 65", 5),
        ],
    )
    def test_join_parts(self, text, message, offset):
        assert _refusal(join_parts, text) == (f"{message} at offset {offset}", offset)

    def test_a_size_too_long_to_read_is_refused_at_its_constructor(self):
        # the message depends on the Python version's integer-string limit
        _, offset = _refusal(graph_from_expr, "tt(" + "7" * 5000)
        assert offset == 0

    def test_c3_does_not_count_toward_the_depth(self):
        deep = MAX_EXPR_DEPTH - 1  # a join's parts nest inside the join
        for leaf in ("c3", "c3()", "c3( )"):
            nested = "rev(" * MAX_EXPR_DEPTH + leaf + ")" * MAX_EXPR_DEPTH
            assert graph_from_expr(nested).n == 3
            inner = "rev(" * deep + leaf + ")" * deep
            assert [p.n for p in join_parts(f"join({inner}, {leaf})")] == [3, 3]
            too_deep = _refusal(join_parts, f"join(rev({inner}))")
            assert too_deep == (
                f"expression nested deeper than {MAX_EXPR_DEPTH} at offset {5 + 4 * deep}",
                5 + 4 * deep,
            )


def even_weight_triangle_family() -> InversionFamily:
    # vectors 110, 101, 000: all even weight, flips only the first arc
    return InversionFamily(3, (0b011, 0b001, 0b010))


class TestTriangleDijoinFamily:
    def test_valid_input_produces_verified_family(self):
        F = even_weight_triangle_family()
        out = extend_family_to_c3_dijoin(c3(), F)
        assert out.k == 3
        joined = dijoin(c3(), c3())
        assert is_acyclic(apply_family(joined, out)) is not None

    def test_even_length_rejected(self):
        F = InversionFamily(3, (0b011, 0b011))
        with pytest.raises(ValueError):
            extend_family_to_c3_dijoin(c3(), F)

    def test_odd_weight_vector_rejected(self):
        F = InversionFamily(3, (0b011, 0b001, 0b001))
        with pytest.raises(ValueError):
            extend_family_to_c3_dijoin(c3(), F)

    def test_non_decycling_rejected(self):
        # even-weight vectors that flip every arc keep the triangle cyclic
        F = InversionFamily(3, (0b011, 0b101, 0b110))
        with pytest.raises(ValueError):
            extend_family_to_c3_dijoin(c3(), F)


def solved_family(D: Digraph) -> InversionFamily:
    return inv_exact(D).witness


def assert_decycles(G: Digraph, F: InversionFamily) -> None:
    assert is_acyclic(apply_family(G, F)) is not None


# value-1 tournaments that the old dominant-vertex composition refused
NOT_DOMINANT = {"enc:5:12.0.3.7.e", "enc:5:18.1.3.6.e", "enc:5:12.8.3.5.e"}


class TestComposeBlowupFamily:
    # compose_family: the host's sets blown up to whole parts, then each
    # part's own family in place, for any host shape
    def dominating_base(self):
        D = dijoin(transitive(1), c3())
        shifted = tuple(s << 1 for s in even_weight_triangle_family().sets)
        return D, InversionFamily(4, shifted)

    def test_acyclic_parts_reduce_to_blown_base_family(self):
        T, FT = self.dominating_base()
        parts = [transitive(2)] * 4
        fam = compose_family(T, FT, parts, [InversionFamily(2, ())] * 4)
        assert fam.k == FT.k  # the parts add no set
        assert fam.sets == tuple(sum(3 << 2 * j for j in range(4) if s >> j & 1)
                                 for s in FT.sets)
        assert_decycles(blow_up(T, parts), fam)

    def test_triangle_blowups_of_value_one_tournaments(self):
        # width m + 1, the value thm15 states, on every value-1 base of
        # order 3..5, the three the old composition refused among them
        part = solved_family(c3())
        seen = set()
        for m in range(3, 6):
            for T in nonisomorphic_tournaments(m):
                FT = solved_family(T)
                if FT.k != 1:
                    continue
                seen.add(encode_digraph(T))
                fam = compose_family(T, FT, [c3()] * m, [part] * m)
                assert fam.k == m + 1
                assert_decycles(blow_up(T, [c3()] * m), fam)
        assert len(seen) == 1 + 3 + 8 and NOT_DOMINANT <= seen

    def test_mixed_parts_give_the_part_sum(self):
        # blowup(c3; tt(2), dijoin(c3, c3), c3): 1 + 0 + 2 + 1 = 4
        parts = [transitive(2), dijoin(c3(), c3()), c3()]
        fam = compose_family(c3(), solved_family(c3()), parts, [solved_family(p) for p in parts])
        G = graph_from_expr("blowup(c3; tt(2), dijoin(c3, c3), c3)")
        assert G == blow_up(c3(), parts) and fam.k == 4
        assert_decycles(G, fam)

    def test_bad_part_witness_rejected(self):
        # an empty family leaves each triangle part whole
        T, FT = self.dominating_base()
        with pytest.raises(VerificationError) as err:
            compose_family(T, FT, [c3()] * 4, [InversionFamily(3, ())] * 4)
        assert len(err.value.cycle) == 3

    def test_verification_failure_carries_cycle(self):
        # a host family that leaves the host's triangle whole
        parts = [c3()] * 3
        with pytest.raises(VerificationError) as err:
            compose_family(c3(), InversionFamily(3, ()), parts, [solved_family(c3())] * 3)
        assert err.value.cycle

    @pytest.mark.parametrize(
        "args,message",
        [
            ((c3(), InversionFamily(3, ()), [c3()] * 2, [InversionFamily(3, ())] * 2),
             "blow-up needs exactly 3 parts and part families"),
            ((c3(), InversionFamily(2, ()), [c3()] * 3, [InversionFamily(3, ())] * 3),
             "host family is on 2 vertices, not 3"),
            ((transitive(2), InversionFamily(2, ()), [c3(), c3()],
              [InversionFamily(3, ()), InversionFamily(2, ())]),
             "family of part 1 is on 2 vertices, not 3"),
        ],
    )
    def test_mismatched_sizes_refused(self, args, message):
        with pytest.raises(ValueError) as err:
            compose_family(*args)
        assert str(err.value) == message


class TestQnExamples:
    def test_q3_is_a_triangle(self):
        assert canonical_key(qn(3)) == canonical_key(c3())

    def test_q2_single_arc(self):
        assert qn(2).arc_count() == 1


class TestBlowUpValueSandwich:
    def test_three_vertex_hosts_with_triangle_parts(self):
        # with every part of value 1 the blow-up value sits between the
        # host order and host order plus the host's own value
        from invlab.solver import inv_exact
        from invlab.digraph import nonisomorphic_tournaments

        for T in nonisomorphic_tournaments(3):
            host_value = inv_exact(T).value
            blown = blow_up(T, [c3()] * 3)
            value = inv_exact(blown).value
            assert 3 <= value <= 3 + host_value
