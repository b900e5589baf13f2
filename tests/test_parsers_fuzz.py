"""Seeded fuzzing of every text parser: each input parses or raises ValueError.

The strategies are built from each format's own alphabet (plus a few
characters it must refuse), so a share of the inputs is well formed; every
test also asserts that both outcomes occurred.  ``ParseError`` is a
``ValueError``, so a refused expression counts as refused.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.construct import graph_from_expr, parse_expr
from invlab.digraph import decode_digraph, parse_digraph, parse_family
from invlab.f2 import load_matrix

FUZZ = settings(max_examples=100, derandomize=True, database=None, deadline=None)

# characters outside every grammar, and ones int() or splitlines() treat specially
_ODD = ["x", "-", "+", "_", "\t", "\r", " ", "٣", "\x00"]


def _total(parser, strategy) -> Counter:
    outcomes = Counter()

    @FUZZ
    @given(strategy)
    def fuzz(arg):
        try:
            parser(arg)
        except ValueError:
            outcomes["refused"] += 1
        else:
            outcomes["parsed"] += 1

    fuzz()
    return outcomes


def _check(parser, strategy) -> None:
    outcomes = _total(parser, strategy)
    assert outcomes["parsed"] and outcomes["refused"], outcomes


_EXPR_TOKENS = [
    "c3", "tt", "qn", "rev", "dijoin", "join", "blowup", "blowup_uniform",
    "(", ")", ",", ";", " ", "0", "1", "2", "3", "4", "64", "65", "c",
] + _ODD


def _expr_text():
    # well-formed-looking calls, then the same tokens in any order
    small = st.integers(0, 5).map(str)
    leaf = st.one_of(
        st.just("c3"),
        st.builds("tt({})".format, small),
        st.builds("qn({})".format, small),
    )
    calls = st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds("rev({})".format, inner),
            st.builds("dijoin({}, {})".format, inner, inner),
            st.builds(lambda ps: "join(" + ", ".join(ps) + ")",
                      st.lists(inner, min_size=1, max_size=3)),
            st.builds("blowup_uniform({}; {}, {})".format, inner, inner, small),
        ),
        max_leaves=6,
    )
    noise = st.lists(st.sampled_from(_EXPR_TOKENS), max_size=12).map("".join)
    return st.one_of(calls, noise)


def _bit_rows(max_n: int = 4):
    """An order line and 0/1 rows, sometimes with a row damaged."""

    def text(n, bits, damage, junk):
        lines = [str(n)] + [
            "".join("1" if bits >> (i * n + j) & 1 else "0" for j in range(n))
            for i in range(n)
        ]
        if damage is not None:
            where = damage % len(lines)
            lines[where] = lines[where][: damage % 3] + junk
        return "\n".join(lines) + "\n"

    return st.builds(
        text,
        st.integers(0, max_n),
        st.integers(0, (1 << (max_n * max_n)) - 1),
        st.one_of(st.none(), st.integers(0, 20)),
        st.text(alphabet=["0", "1", " ", "\n"] + _ODD, max_size=4),
    )


def _matrix_text():
    noise = st.text(alphabet=["0", "1", "2", "\n", " "] + _ODD, max_size=30)
    return st.one_of(_bit_rows(), noise)


def _encoding():
    hex_rows = st.lists(st.integers(0, 15).map("{:x}".format), max_size=5)
    shaped = st.builds(
        lambda head, n, rows: f"{head}{n}:" + ".".join(rows),
        st.sampled_from(["enc:", ""]),
        st.integers(-1, 5),
        hex_rows,
    )
    noise = st.text(alphabet=list("enc:0123456789abcdefg.") + _ODD, max_size=20)
    return st.one_of(shaped, noise)


def _family():
    lines = st.lists(
        st.lists(st.sampled_from(["0", "1", "2", "3", "4", "9", "-1"] + _ODD),
                 max_size=4).map(" ".join),
        max_size=4,
    ).map("\n".join)
    return st.tuples(lines, st.integers(0, 5))


class TestParsersTotal:
    def test_parse_expr(self):
        _check(parse_expr, _expr_text())

    def test_graph_from_expr(self):
        _check(graph_from_expr, _expr_text())

    def test_parse_digraph(self):
        _check(parse_digraph, _matrix_text())

    def test_load_matrix(self):
        _check(load_matrix, _matrix_text())

    def test_decode_digraph(self):
        _check(decode_digraph, _encoding())

    def test_parse_family(self):
        _check(lambda args: parse_family(*args), _family())
