"""Shared generators for randomized tests (seeded, reproducible)."""

from __future__ import annotations

import itertools
import random

from invlab.digraph import (
    Digraph,
    InversionFamily,
    canonical_key,
    enumerate_tournaments,
)
from invlab.f2 import SymMatrix


def random_symmetric(rng: random.Random, n: int) -> SymMatrix:
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SymMatrix(n, tuple(rows))


def random_tournament(rng: random.Random, n: int) -> Digraph:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return Digraph(n, tuple(rows))


def random_oriented(rng: random.Random, n: int) -> Digraph:
    """Each pair independently absent, forward, or backward."""
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            roll = rng.randrange(3)
            if roll == 1:
                rows[i] |= 1 << j
            elif roll == 2:
                rows[j] |= 1 << i
    return Digraph(n, tuple(rows))


def random_family(rng: random.Random, n: int, k: int) -> InversionFamily:
    return InversionFamily(n, tuple(rng.getrandbits(n) for _ in range(k)))


def all_symmetric(n: int):
    """Every symmetric matrix of order n (2^(n(n+1)/2) of them)."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for bits in range(1 << len(cells)):
        rows = [0] * n
        for idx, (i, j) in enumerate(cells):
            if bits >> idx & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield SymMatrix(n, tuple(rows))


def all_oriented(n: int):
    """Every labelled oriented graph of order n (3^(n(n-1)/2) of them)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for states in itertools.product(range(3), repeat=len(pairs)):
        rows = [0] * n
        for (i, j), state in zip(pairs, states):
            if state == 1:
                rows[i] |= 1 << j
            elif state == 2:
                rows[j] |= 1 << i
        yield Digraph(n, tuple(rows))


def tournament_code(T: Digraph) -> int:
    """The ``enumerate_tournaments`` code of T: bit idx of pair (i, j) is i->j."""
    pairs = [(i, j) for i in range(T.n) for j in range(i + 1, T.n)]
    return sum(1 << idx for idx, (i, j) in enumerate(pairs) if T.has_arc(i, j))


def relabel(D: Digraph, perm) -> Digraph:
    """The copy of D in which vertex v is renamed perm[v]."""
    return Digraph.from_arcs(D.n, [(perm[u], perm[v]) for u, v in D.arcs()])


def nonisomorphic_by_key(n: int) -> list[Digraph]:
    """Reference class list: the first labelled tournament of each canonical key."""
    seen = set()
    reps = []
    for T in enumerate_tournaments(n):
        key = canonical_key(T)
        if key not in seen:
            seen.add(key)
            reps.append(T)
    return reps


def candidates_by_product(blocks: list[tuple[int, ...]]):
    """Reference candidate generator of the assignment search.

    ``blocks`` are groups of interchangeable coordinates; each candidate
    sets a prefix of every block, and yields ``(w, blocks after w)``.
    """
    for counts in itertools.product(*(range(len(b) + 1) for b in blocks)):
        w = 0
        nb = []
        for b, c in zip(blocks, counts):
            for idx in b[:c]:
                w |= 1 << idx
            if 0 < c:
                nb.append(b[:c])
            if c < len(b):
                nb.append(b[c:])
        yield w, nb
