"""GF(2) vector/matrix operations and the Gram factorization machinery."""

import functools
import itertools
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import f2
from invlab.errors import ResourceLimitError
from invlab.f2 import (
    _free_diag_bound,
    dump_matrix,
    dump_rows,
    gram_factor,
    gram_of,
    load_matrix,
    min_gram_dim,
    parse_rows,
)

from helpers import (
    all_symmetric,
    completion_rank_by_loop,
    diagonal,
    dot,
    flip_matrix,
    free_diag_by_loop,
    random_symmetric,
    random_tournament,
    rank_of_rows,
    realize_oracle,
    reference_free_diag_bound,
    use_reference_bound,
    with_diagonal,
)


def bv(s: str) -> int:
    """The vector whose coordinates, coordinate 0 first, are the digits of s."""
    return sum(1 << i for i, ch in enumerate(s) if ch == "1")


def zeros(n: int) -> tuple[int, ...]:
    return (0,) * n


def identity(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


# the 2x2 matrix with ones off the diagonal, and the 3x3 one
PAIR = (0b10, 0b01)
TRIANGLE = (0b110, 0b101, 0b011)


class TestDot:
    def test_single_shared_coordinate(self):
        assert dot(bv("101"), bv("110")) == 1

    def test_zero_vector(self):
        assert dot(bv("101"), bv("000")) == 0

    def test_odd_self_weight(self):
        assert dot(bv("111"), bv("111")) == 1


class TestRank:
    def test_zero_matrix(self):
        assert rank_of_rows(zeros(3)) == 0

    def test_identity(self):
        assert rank_of_rows(identity(4)) == 4

    def test_dependent_rows(self):
        # row 0 + row 1 = row 2 over GF(2)
        assert rank_of_rows(TRIANGLE) == 2

    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_simultaneous_permutation(self, n, rnd):
        rng = random.Random(rnd.getrandbits(32))
        M = random_symmetric(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = tuple(
            sum((M[perm[i]] >> perm[j] & 1) << j for j in range(n)) for i in range(n)
        )
        assert rank_of_rows(M) == rank_of_rows(permuted)


class TestSymMatrix:
    """A symmetric matrix is a tuple of row ints; what takes one checks it."""

    def test_asymmetric_rejected(self):
        for f in (gram_factor, min_gram_dim, dump_matrix):
            with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
                f((0b10, 0b00))

    @pytest.mark.parametrize(
        "rows,message,text,text_message",
        [
            ((0b10, 0b00), r"not symmetric at \(0,1\)",
             "2\n01\n00\n", r"not symmetric at \(0,1\)"),
            # in text, bits past the order make a row too long
            ((0b001, 0b000, 0b1000), r"row 2 must be in range\(2\*\*3\), got 8",
             "3\n100\n000\n0001\n", "row 2 must be 3 characters"),
            ((0,) * 65, "order must be in 0..64, got 65",
             "65\n" + ("0" * 65 + "\n") * 65, "order must be in 0..64, got 65"),
        ],
        ids=["asymmetric", "bits-past-order", "order-65"],
    )
    def test_refuses_what_is_not_a_matrix(self, rows, message, text, text_message):
        for f in (gram_factor, min_gram_dim):
            with pytest.raises(ValueError, match=message):
                f(rows)
        with pytest.raises(ValueError, match=text_message):
            load_matrix(text)

    def test_text_round_trip(self):
        M = (0b101, 0b100, 0b111)
        assert dump_matrix(M) == "3\n101\n001\n111\n"
        assert load_matrix(dump_matrix(M)) == M

    @pytest.mark.parametrize("n", [0, 64])
    def test_text_round_trip_at_the_extreme_orders(self, n):
        M = random_symmetric(random.Random(n), n)
        text = dump_matrix(M)
        assert text == dump_rows(M) and parse_rows(text) == M
        assert load_matrix(text) == M

    def test_load_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            load_matrix("2\n01\n00\n")

    def test_load_rejects_bad_row(self):
        with pytest.raises(ValueError):
            load_matrix("2\n01\n1\n")


class TestGramFactor:
    def test_order_one(self):
        assert gram_factor((1,)) == (1,)

    def test_alternating_two_by_two_infeasible(self):
        assert gram_factor(PAIR) is None

    def test_random_odd_orders_always_verify(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.choice([1, 3, 5, 7, 9])
            M = random_symmetric(rng, n)
            f = gram_factor(M)
            assert f is not None and gram_of(f) == M

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_exhaustive_odd(self, n):
        for M in all_symmetric(n):
            f = gram_factor(M)
            assert f is not None
            assert gram_of(f) == M

    @pytest.mark.parametrize("n", [2, 4])
    def test_exhaustive_even_criterion(self, n):
        for M in all_symmetric(n):
            f = gram_factor(M)
            feasible = bool(diagonal(M)) or rank_of_rows(M) < n
            assert (f is not None) == feasible
            if f is not None:
                assert gram_of(f) == M

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_width_is_min_gram_dim_exhaustive(self, n):
        # the witness fills exactly the first min_gram_dim(M) coordinates
        for M in all_symmetric(n):
            f = gram_factor(M)
            if f is not None:
                used = functools.reduce(operator.or_, f, 0)
                assert used == (1 << min_gram_dim(M)) - 1

    def test_random_none_exactly_on_even_nonsingular_zero_diagonal(self):
        rng = random.Random(2026)
        outcomes = set()
        for _ in range(400):
            n = rng.randint(1, 30)
            M = random_symmetric(rng, n)
            if rng.getrandbits(1):
                M = with_diagonal(M, 0)
            f = gram_factor(M)
            infeasible = n % 2 == 0 and not diagonal(M) and rank_of_rows(M) == n
            assert (f is None) == infeasible
            assert f is None or gram_of(f) == M
            outcomes.add(infeasible)
        assert outcomes == {False, True}


class TestGramOf:
    def test_empty(self):
        assert gram_of([]) == zeros(0)

    def test_orthonormal_pair(self):
        assert gram_of([bv("100"), bv("010")]) == identity(2)

    def test_refuses_more_vectors_than_the_largest_order(self):
        assert gram_of([0] * 64) == zeros(64)
        with pytest.raises(ValueError, match="order must be in 0..64, got 65"):
            gram_of([0] * 65)

    @pytest.mark.parametrize("vectors", [[-1, 3], [0, -4]])
    def test_refuses_a_negative_vector(self, vectors):
        # a negative int has no finite bitmask, so it is no GF(2) vector
        i, u = next((i, u) for i, u in enumerate(vectors) if u < 0)
        with pytest.raises(ValueError) as err:
            gram_of(vectors)
        assert str(err.value) == f"vector {i} must be in range(2**64), got {u}"

    def test_round_trips_factorization(self):
        rng = random.Random(3)
        M = random_symmetric(rng, 6)
        if not diagonal(M) and rank_of_rows(M) == 6:
            M = with_diagonal(M, 1)
        f = gram_factor(M)
        assert gram_of(f) == M


def rank_rule(M: tuple[int, ...]) -> int:
    """Lempel's width from the rank: rank(M), plus one when M is nonzero
    with zero diagonal."""
    r = rank_of_rows(M)
    return r + 1 if r and not diagonal(M) else r


class TestMinGramDim:
    def test_zero(self):
        assert min_gram_dim(zeros(3)) == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_rank_rule_exhaustive(self, n):
        for M in all_symmetric(n):
            assert min_gram_dim(M) == rank_rule(M), M

    def test_rank_rule_random_up_to_order_64(self):
        rng = random.Random(1975)
        for trial in range(400):
            M = random_symmetric(rng, rng.randint(0, 64))
            if trial % 2:
                M = with_diagonal(M, 0)
            assert min_gram_dim(M) == rank_rule(M), M

    def test_asymmetric_refused_before_the_peel(self, monkeypatch):
        # the peel of an asymmetric matrix never ends
        def peel(rows):
            raise AssertionError("peeled an asymmetric matrix")

        monkeypatch.setattr(f2, "_peel", peel)
        with pytest.raises(ValueError, match="not symmetric"):
            min_gram_dim((0b10, 0b00))

    def test_alternating_pair(self):
        assert min_gram_dim(PAIR) == 3

    def test_all_ones_pair(self):
        assert min_gram_dim((0b11, 0b11)) == 1

    def test_matches_oracle_exhaustively_small(self):
        for n in (1, 2, 3):
            for M in all_symmetric(n):
                lo = min_gram_dim(M)
                for k in range(5):
                    assert (realize_oracle(M, k) is not None) == (k >= lo)


class TestRealizeOracle:
    def test_zero_matrix_dimension_zero(self):
        out = realize_oracle(zeros(2), 0)
        assert out == (0, 0)

    def test_alternating_pair_needs_three(self):
        assert realize_oracle(PAIR, 2) is None
        found = realize_oracle(PAIR, 3)
        assert found is not None
        assert gram_of(found) == PAIR

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            realize_oracle(zeros(8), 8, node_budget=1 << 10)


def free_diag(M: tuple[int, ...]) -> tuple[int, int]:
    """The least Gram dimension of M over its free diagonal: the square
    _free_diag_bound, capped above every width, with the smallest
    minimizing diagonal."""
    return _free_diag_bound(M, range(len(M)), len(M), len(M) + 2)


class TestMinGramDimFreeDiag:
    def test_all_zero(self):
        assert free_diag(zeros(2)) == (0, 0)

    def test_all_ones_off_diagonal(self):
        assert free_diag(TRIANGLE) == (1, 0b111)

    def test_single_pair(self):
        assert free_diag(PAIR) == (1, 0b11)

    @pytest.mark.parametrize("n", range(6))
    def test_matches_loop_oracle_exhaustively(self, n):
        # the oracle ignores M's diagonal, so it runs once per off-diagonal pattern
        expected = {}
        for M in all_symmetric(n):
            off = with_diagonal(M, 0)
            if off not in expected:
                expected[off] = free_diag_by_loop(off)
            assert free_diag(M) == expected[off]

    @pytest.mark.parametrize("n", range(6, 13))
    def test_matches_loop_oracle_random(self, n):
        rng = random.Random(n)
        for _ in range(10):
            M = random_symmetric(rng, n)
            assert free_diag(M) == free_diag_by_loop(M)

    def test_agrees_with_direct_oracle_minimization(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 4)
            M = random_symmetric(rng, n)
            k, d = free_diag(M)
            best = None
            for diag in range(1 << n):
                cand = with_diagonal(M, diag)
                for kk in range(6):
                    if realize_oracle(cand, kk) is not None:
                        best = kk if best is None else min(best, kk)
                        break
            assert k == best
            assert realize_oracle(with_diagonal(M, d), k) is not None


def capped(expected, cap):
    """What _free_diag_bound owes under ``cap``, given the uncapped answer."""
    return expected if expected[0] < cap else (cap, 0)


@pytest.fixture
def reference_bound(monkeypatch):
    """This module's _free_diag_bound is the bound before the completion
    bound, whose values the older oracle cases pin."""
    use_reference_bound(monkeypatch, sys.modules[__name__])


class TestFreeDiagBound:
    @pytest.mark.usefixtures("reference_bound")
    def test_zero_diagonal_costs_one_only_when_square(self):
        # one row, one column of R: rank 1 with either bit, no +1
        assert _free_diag_bound([0b10], [0], 2, 4) == (1, 0)
        # the same pair as a whole matrix: a zero diagonal needs two
        assert _free_diag_bound([0b10, 0b01], [0, 1], 2, 4) == (1, 0b11)
        assert _free_diag_bound([0b10, 0b01], [0, 1], 2, cap=1) == (1, 0)

    def test_free_bits_follow_their_columns(self):
        # row 0 is free at column 2 and row 1 at column 0: only setting
        # both makes the rows equal
        assert _free_diag_bound([0b011, 0b110], [2, 0], 3, 5) == (1, 0b101)
        assert _free_diag_bound([0b011, 0b110], [1, 0], 3, 5) == (2, 0)

    @pytest.mark.usefixtures("reference_bound")
    @pytest.mark.parametrize("width", range(5))
    def test_matches_loop_oracle_exhaustively(self, width):
        # every block of up to 12 bits, free columns ascending from 0 or
        # descending from the last, every cap up to width + 1
        for m in range(width + 1):
            if m * width > 12:
                continue
            for cols in (list(range(m)), list(range(width - 1, width - 1 - m, -1))):
                for bits in range(1 << (m * width)):
                    rows = [bits >> (i * width) & ((1 << width) - 1) for i in range(m)]
                    want = free_diag_by_loop(rows, cols, width)
                    assert _free_diag_bound(rows, cols, width, width + 2) == want
                    for cap in range(width + 2):
                        assert _free_diag_bound(rows, cols, width, cap) == capped(want, cap)

    @pytest.mark.usefixtures("reference_bound")
    @pytest.mark.parametrize("width", range(5, 13))
    def test_matches_loop_oracle_random(self, width):
        rng = random.Random(width)
        for _ in range(20):
            m = rng.randint(1, min(width, 10))
            cols = rng.sample(range(width), m)
            rows = [rng.getrandbits(width) for _ in range(m)]
            want = free_diag_by_loop(rows, cols, width)
            assert _free_diag_bound(rows, cols, width, width + 2) == want
            cap = rng.randint(0, width + 1)
            assert _free_diag_bound(rows, cols, width, cap) == capped(want, cap)

    def test_square_case_is_min_gram_dim_free_diag(self):
        rng = random.Random(3)
        for n in range(8):
            M = random_symmetric(rng, n)
            k, d = free_diag_by_loop(M)
            assert _free_diag_bound(M, range(n), n, n + 2) == (k, d)
            # rows listed in another order, each with its own free column:
            # the same width, though another setting may come first
            perm = rng.sample(range(n), n)
            assert _free_diag_bound([M[i] for i in perm], perm, n, n + 2)[0] == k


def own_symmetric_blocks(width: int, cols: tuple[int, ...]):
    """Every block of len(cols) rows of ``width`` bits whose square on
    ``cols`` is symmetric off its diagonal: the bits on and above that
    square's diagonal and off it are free, those below mirror them."""
    m = len(cols)
    cells = [(i, c) for i in range(m) for c in range(width)
             if c not in cols[:i]]
    for bits in range(1 << len(cells)):
        rows = [0] * m
        for t, (i, c) in enumerate(cells):
            rows[i] |= (bits >> t & 1) << c
        for i in range(m):
            for j in range(i):
                rows[i] |= (rows[j] >> cols[i] & 1) << cols[j]
        yield rows


def random_own_symmetric_block(rng: random.Random, width: int, m: int):
    cols = tuple(rng.sample(range(width), m))
    rows = [rng.getrandbits(width) for _ in range(m)]
    for i in range(m):
        for j in range(i):
            rows[i] = rows[i] & ~(1 << cols[j]) | (rows[j] >> cols[i] & 1) << cols[j]
    return rows, cols


class TestCompletionBound:
    """_free_diag_bound against the least rank of every symmetric matrix
    holding the rows, by brute force over diagonals and completions."""

    def test_a_row_bounds_every_matrix_holding_it(self):
        # a symmetric matrix with row (0, 1) has rank 2; with row (1, 1),
        # the all-ones matrix has rank 1, though the row's own rank is 1 either way
        assert _free_diag_bound([0b10], [0], 2, 4) == (1, 0b1)
        assert reference_free_diag_bound([0b10], [0], 2) == (1, 0)
        # a square block is still the matrix itself, with Lempel's +1
        assert _free_diag_bound([0b10, 0b01], [0, 1], 2, 4) == (1, 0b11)
        # a zero row needs nothing; row (0, x, 1) needs x = 1, and then
        # the matrix v v^t with v = (0, 1, 1) holds it
        assert _free_diag_bound([0b00], [0], 2, 4) == (0, 0)
        assert _free_diag_bound([0b100], [1], 3, 5) == (1, 0b10)

    @pytest.mark.parametrize("width", range(5))
    def test_matches_completion_oracle_exhaustively(self, width):
        # every block with a symmetric own square, at every order of its
        # own columns up to width 3 and ascending or descending at width 4,
        # at every cap up to width + 1
        for m in range(width + 1):
            if width <= 3:
                orders = list(itertools.permutations(range(width), m))
            else:
                orders = [tuple(range(m)), tuple(range(width - 1, width - 1 - m, -1))]
            for cols in orders:
                for rows in own_symmetric_blocks(width, cols):
                    want = completion_rank_by_loop(rows, cols, width)
                    assert _free_diag_bound(rows, cols, width, width + 2) == want
                    for cap in range(width + 2):
                        assert _free_diag_bound(rows, cols, width, cap) == capped(want, cap)

    def test_matches_completion_oracle_random(self):
        rng = random.Random(5)
        for _ in range(150):
            rows, cols = random_own_symmetric_block(rng, 5, rng.randint(1, 5))
            want = completion_rank_by_loop(rows, cols, 5)
            assert _free_diag_bound(rows, cols, 5, 7) == want
            cap = rng.randint(0, 6)
            assert _free_diag_bound(rows, cols, 5, cap) == capped(want, cap)

    def test_never_below_the_rank_of_the_rows(self):
        rng = random.Random(9)
        for _ in range(300):
            width = rng.randint(1, 12)
            rows, cols = random_own_symmetric_block(rng, width, rng.randint(0, width))
            k = _free_diag_bound(rows, cols, width, width + 2)[0]
            assert reference_free_diag_bound(rows, cols, width)[0] <= k
            assert k <= 2 * reference_free_diag_bound(rows, cols, width)[0]

    def test_no_prefix_bound_exceeds_its_order_width(self):
        # a prefix's rows of a flip matrix, each free at its own column,
        # bound every order that starts with it: the bound never falls as
        # the prefix grows and ends at the whole order's least width
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(0, 7)
            D = random_tournament(rng, n)
            order = rng.sample(range(n), n)
            flips = flip_matrix(D, order)
            width = free_diag_by_loop(flips)[0]
            bounds = [
                _free_diag_bound([flips[u] for u in order[:t]], order[:t], n, n + 2)[0]
                for t in range(n + 1)
            ]
            assert bounds == sorted(bounds) and bounds[-1] == width

    def test_a_square_block_is_the_matrix_itself(self):
        # its own columns are every column, so the bound is its rank, with
        # Lempel's +1, symmetric or not
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(0, 6)
            rows = [rng.getrandbits(n) for _ in range(n)]
            cols = rng.sample(range(n), n)
            assert _free_diag_bound(rows, cols, n, n + 2) == free_diag_by_loop(rows, cols, n)

    def test_a_symmetric_square_block_is_its_least_gram_dimension(self):
        # the domain the docstring states: a symmetric matrix's rows, its
        # own columns in their order or shuffled, bounded by its least Gram
        # dimension over every diagonal, which the returned diagonal reaches
        rng = random.Random(45)
        for _ in range(200):
            n = rng.randint(0, 6)
            M = random_symmetric(rng, n)
            dims = [min_gram_dim(with_diagonal(M, d)) for d in range(1 << n)]
            least = min(dims)
            assert _free_diag_bound(M, range(n), n, n + 2) == (least, dims.index(least))
            cols = rng.sample(range(n), n)
            k, d = _free_diag_bound([M[c] for c in cols], cols, n, n + 2)
            assert k == least == min_gram_dim(with_diagonal(M, d))
