"""Linear algebra over GF(2) with bit-packed vectors and symmetric matrices.

A vector is a plain int read as a little-endian bitmask (bit i =
coordinate i), its width given by context; a symmetric matrix is a tuple
of row ints, row i holding bit j = entry (i,j).  Width is capped at 64 so
every vector fits a machine word; desk-scale work never needs more than a
dozen coordinates.  The functions that take a matrix refuse, with a
ValueError, rows that are not symmetric or not inside that order.

The centrepiece is :func:`gram_factor`, which writes a symmetric matrix M
as U^t U with U square.  It peels rank-one terms u u^t off M in one
elimination loop, one row per diagonal pivot and two per off-diagonal
pivot, so the witness uses exactly :func:`min_gram_dim` coordinates: rank(M)
with a nonzero diagonal, rank(M)+1 without (Lempel, "Matrix factorization
over GF(2) and trace-orthogonal bases", SIAM J. Comput. 1975).  Odd order
therefore always factors; even order factors exactly when M has a nonzero
diagonal entry or is singular, and returns ``None`` otherwise.
The one peel, :func:`_peel`, serves :func:`gram_factor`,
:func:`min_gram_dim` and the solver's order backend, which peels the flip
matrix of its best vertex order into its witness family.  The width rule
is validated against an independent brute-force realization search, a
test oracle in ``tests/helpers.py``.

:func:`parse_rows` and :func:`dump_rows` read and write the one text form
of n rows of n bits that matrices and digraphs share.

Everything here is a pure function on immutable values and safe to call
from any number of threads.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ResourceLimitError, check_int

MAX_WIDTH = 64

# free_diag_bound's branch and bound may still visit all 2^m diagonals.
FREE_DIAG_LIMIT = 20


def _check_symmetric(rows: Sequence[int]) -> None:
    """Refuse rows that are not a symmetric matrix of order at most MAX_WIDTH."""
    n = check_int(len(rows), "order", 0, MAX_WIDTH)
    for i, r in enumerate(rows):
        if r < 0 or r >> n:
            raise ValueError(f"row {i} has bits beyond column {n - 1}")
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                raise ValueError(f"not symmetric at ({i},{j})")


def gram_of(vectors: Sequence[int]) -> tuple[int, ...]:
    """Matrix of pairwise scalar products of ``vectors``."""
    check_int(len(vectors), "order", 0, MAX_WIDTH)
    if any(u < 0 for u in vectors):
        raise ValueError("a vector is a non-negative int, got a negative one")
    rows = []
    for u in vectors:
        r = 0
        for j, v in enumerate(vectors):
            if (u & v).bit_count() & 1:
                r |= 1 << j
        rows.append(r)
    return tuple(rows)


def _diag_mask(rows: Sequence[int]) -> int:
    d = 0
    for i, r in enumerate(rows):
        if r >> i & 1:
            d |= 1 << i
    return d


def _peel(rows: Sequence[int]) -> list[int]:
    """Rows u_1..u_r with M = u_1 u_1^t + ... + u_r u_r^t, r as small as can be.

    A diagonal step (m_ii = 1) adds u u^t with u = row i to M, clearing
    row and column i: rank -1, one row.  Otherwise some m_ij = 1; with
    a = row i and b = row j, adding a b^t + b a^t clears rows i and j:
    rank -2.  That term and the last row u emitted (0 if none) become the
    three rows u+a, u+b, u+a+b, whose squares sum to u u^t + a b^t + b a^t:
    two rows more, or three when M has a zero diagonal to begin with.  An
    off-diagonal step keeps the diagonal, so r = rank(M), plus one for a
    nonzero M with zero diagonal: Lempel's least width.
    """
    m = list(rows)
    out: list[int] = []
    while any(m):
        diag = _diag_mask(m)
        if diag:
            u = m[(diag & -diag).bit_length() - 1]
            m = [r ^ u if u >> t & 1 else r for t, r in enumerate(m)]
            out.append(u)
            continue
        a = next(r for r in m if r)
        b = m[(a & -a).bit_length() - 1]
        m = [
            r ^ (b if a >> t & 1 else 0) ^ (a if b >> t & 1 else 0)
            for t, r in enumerate(m)
        ]
        u = out.pop() if out else 0
        out += [u ^ a, u ^ b, u ^ a ^ b]
    return out


def gram_factor(M: Sequence[int]) -> tuple[int, ...] | None:
    """Factor M = U^t U over GF(2) with U square and fewest nonzero rows.

    Returns the columns of U, the witness vectors, whose Gram matrix
    :func:`gram_of` is M.  Exactly their first ``min_gram_dim(M)``
    coordinates are used (:func:`_peel`); the rest are zero padding up to
    width n, the order.  So odd order always factors, and even order
    factors exactly when M has a nonzero diagonal entry or is singular;
    otherwise the return is None (a value, not a fault).
    """
    _check_symmetric(M)
    n = len(M)
    peeled = _peel(M)
    if len(peeled) > n:
        return None
    cols = [0] * n
    for t, u in enumerate(peeled):
        for j in range(n):
            if u >> j & 1:
                cols[j] |= 1 << t
    return tuple(cols)


def min_gram_dim(M: Sequence[int]) -> int:
    """Least k such that vectors in GF(2)^k realize M as their Gram matrix.

    The number of rows :func:`_peel` emits, after the symmetry check
    without which the peel never ends: 0 for the zero matrix, rank(M) with
    a nonzero diagonal, rank(M)+1 without.  Checked against a rank oracle
    and a brute-force realization search in the test suite.
    """
    _check_symmetric(M)
    return len(_peel(M))


def free_diag_bound(
    rows: Sequence[int], cols: Sequence[int], width: int, cap: int | None = None
) -> tuple[int, int]:
    """Least rank of a row block whose bit (i, cols[i]) is free in each row i.

    Rows have ``width`` columns, and ``cols`` names distinct columns.  The
    rank is minimized over the 2^m settings of the free bits, written as a
    column mask d (bit cols[i] = the bit chosen in row i).  When the block
    is square, the rows are a whole matrix and d its diagonal, so a zero
    diagonal on a nonzero matrix costs one more (Lempel's rule): for a
    symmetric matrix that is its least Gram dimension.  A block of fewer
    rows gets no +1, and then bounds the least Gram dimension of every
    symmetric matrix holding those rows, whatever its other rows and its
    other diagonal bits.  Returns ``(k, d)`` with d the first setting
    reaching k, settings counted as binary numbers with row i's bit as bit
    i (for a matrix, the smallest diagonal), or ``(cap, 0)`` when no
    setting gets below ``cap``.

    Depth-first branch and bound over the free bits: rows are placed from
    m-1 down to 0, bit 0 before bit 1, so leaves arrive in that counting
    order and the first strict improvement is the first setting reaching
    the minimum.  Each placed row is reduced against low-bit pivots
    shared along the path; the rank so far bounds every completion from
    below, and a subtree whose rank reaches the best width found (at
    first ``cap``) is pruned.
    """
    m = len(rows)
    if m > FREE_DIAG_LIMIT:
        raise ResourceLimitError(
            f"{m} rows exceed the free-diagonal limit {FREE_DIAG_LIMIT}"
        )
    check_int(width, "width", 0, MAX_WIDTH)
    if cap is not None:
        check_int(cap, "cap", 0)
    if len(cols) != m:
        raise ValueError("need one free column per row")
    seen = 0
    for c in cols:
        if not 0 <= c < width or seen >> c & 1:
            raise ValueError("free columns must be distinct and inside the width")
        seen |= 1 << c
    if any(r < 0 or r >> width for r in rows):
        raise ValueError("row has bits beyond the width")
    base = [r & ~(1 << c) for r, c in zip(rows, cols)]
    free = [1 << c for c in cols]
    square = m == width
    pivots: dict[int, int] = {}
    # without a cap, above every width, so the first leaf is taken
    best_k, best_d = width + 2 if cap is None else cap, 0

    def place(i: int, d: int, r: int) -> None:
        nonlocal best_k, best_d
        if i < 0:  # r < best_k here, so this leaf improves on the best
            # a zero diagonal costs one coordinate more, unless M is zero
            best_k, best_d = (r + 1 if square and r and not d else r), d
            return
        for bit in (0, free[i]):
            v = base[i] | bit
            while v:
                low = v & -v
                p = pivots.get(low)
                if p is None:
                    if r + 1 < best_k:
                        pivots[low] = v
                        place(i - 1, d | bit, r + 1)
                        del pivots[low]
                    break
                v ^= p
            else:
                if r < best_k:
                    place(i - 1, d | bit, r)

    place(m - 1, 0, 0)
    return best_k, best_d


def dump_rows(rows: Sequence[int]) -> str:
    """Text form of n rows of n bits: first line n, then one line per row,
    character j of a row's line its bit j, written 0 or 1."""
    n = len(rows)
    lines = [str(n)] + [f"{r:0{n}b}"[::-1] for r in rows]
    return "\n".join(lines) + "\n"


def parse_rows(text: str) -> tuple[int, ...]:
    """Inverse of :func:`dump_rows`; blank lines and surrounding spaces are ignored."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty file")
    if not (lines[0].isascii() and lines[0].isdigit()):
        raise ValueError(f"first line must be the order, got {lines[0]!r}")
    n = int(lines[0])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"row {i} must be {n} characters of 0/1, got {ln!r}")
        rows.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
    return tuple(rows)


def dump_matrix(M: Sequence[int]) -> str:
    """Text form of a symmetric matrix (:func:`dump_rows`)."""
    _check_symmetric(M)
    return dump_rows(M)


def load_matrix(text: str) -> tuple[int, ...]:
    """Parse the matrix text format (:func:`parse_rows`); symmetry is validated."""
    M = parse_rows(text)
    _check_symmetric(M)
    return M
