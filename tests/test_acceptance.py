"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints one line, ``ACCEPTANCE <id> <label>: PASS|FAIL (<elapsed>)``,
and then asserts.  Run with ``pytest tests/test_acceptance.py -v`` (add -s to
see the lines on passing runs).
"""

import random
import time

from invlab.construct import (
    blow_up,
    c3,
    dijoin,
    k_join,
    qn,
    qn_family,
    transitive,
)
from invlab.digraph import (
    InversionFamily,
    apply_family,
    invert,
    is_acyclic,
    nonisomorphic_tournaments,
    reverse,
)
from invlab.f2 import gram_factor, gram_of, min_gram_dim
from invlab.solver import inv_exact, inv_order_backend

from helpers import (
    all_symmetric,
    apply_assignment,
    diagonal,
    enumerate_tournaments,
    family_vectors,
    inv_subset_oracle,
    random_family,
    random_oriented,
    random_symmetric,
    rank_lower_bound_check,
    rank_of_rows,
    realize_oracle,
)


def report(crit: str, violations: list, started: float) -> None:
    status = "PASS" if not violations else "FAIL"
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {crit}: {status} ({elapsed:.2f}s)")
    assert not violations, f"{crit}: {violations[:5]}"


def test_criterion_01_gram_factorization_random_odd():
    started = time.perf_counter()
    rng = random.Random(20240601)
    bad = []
    for _ in range(500):
        n = rng.choice([1, 3, 5, 7, 9, 11, 13, 15])
        M = random_symmetric(rng, n)
        f = gram_factor(M)
        if f is None or gram_of(f) != M:
            bad.append(M)
    report("01 odd-order factorization on 500 random matrices", bad, started)


def test_criterion_02_even_order_criterion_exhaustive():
    started = time.perf_counter()
    bad = []
    for n in (2, 4):
        for M in all_symmetric(n):
            f = gram_factor(M)
            feasible = bool(diagonal(M)) or rank_of_rows(M) < n
            if (f is not None) != feasible:
                bad.append(("criterion", M))
            elif f is not None:
                if gram_of(f) != M:
                    bad.append(("witness", M))
            elif realize_oracle(M, n) is not None:
                bad.append(("oracle disagrees", M))
    report("02 even-order criterion, all matrices n=2 and n=4", bad, started)


def test_criterion_03_min_gram_dim_rule_vs_oracle():
    started = time.perf_counter()
    bad = []
    for n in (0, 1, 2, 3, 4):
        for M in all_symmetric(n):
            lo = min_gram_dim(M)
            for k in range(6):
                if (realize_oracle(M, k) is not None) != (k >= lo):
                    bad.append((M, k, lo))
    report("03 closed minimum-dimension rule vs oracle, n<=4 k<=5", bad, started)


def test_criterion_04_backend_cross_validation_n5():
    started = time.perf_counter()
    bad = []
    for T in enumerate_tournaments(5):
        a = inv_exact(T).value
        b = inv_order_backend(T).value
        if a != b:
            bad.append((T.out_rows, a, b))
        s = inv_subset_oracle(T, 2)
        if s is not None and s != a:
            bad.append((T.out_rows, a, s))
    report("04 three backends agree on all 1024 labelled 5-tournaments", bad, started)


def test_criterion_05_triangle_dijoin_on_even_value_tournaments():
    started = time.perf_counter()
    bad = []
    for n in range(1, 7):
        for T in nonisomorphic_tournaments(n):
            if inv_exact(T).value != 2:
                continue
            got = inv_exact(dijoin(c3(), T)).value
            if got != 3:
                bad.append((T.out_rows, got))
    report("05 dijoin onto every value-2 tournament up to n=6 gives 3", bad, started)


def test_criterion_06_dijoin_direction_symmetry():
    started = time.perf_counter()
    bad = []
    for n in range(1, 6):
        for T in nonisomorphic_tournaments(n):
            ahead = inv_exact(dijoin(c3(), T)).value
            behind = inv_exact(dijoin(T, c3())).value
            if ahead != behind:
                bad.append((T.out_rows, ahead, behind))
    report("06 triangle dijoin value is direction independent, n<=5", bad, started)


def test_criterion_07_triangle_blowup_of_value_one_tournaments():
    started = time.perf_counter()
    bad = []
    for T in nonisomorphic_tournaments(3):
        if inv_exact(T).value != 1:
            continue
        got = inv_exact(blow_up(T, [c3()] * 3)).value
        if got != 4:
            bad.append((T.out_rows, got))
    report("07 triangle blow-up of every value-1 3-tournament gives 4", bad, started)


def test_criterion_08_double_triangle_join():
    started = time.perf_counter()
    bad = []
    for D in (transitive(1), transitive(3), c3()):
        left = inv_exact(k_join([c3(), c3(), D])).value
        right = inv_exact(dijoin(c3(), D)).value
        if left != right + 1:
            bad.append((D.out_rows, left, right))
    report("08 [triangle, triangle, D] exceeds the dijoin by one", bad, started)


def test_criterion_09_reversed_path_tournaments():
    started = time.perf_counter()
    bad = []
    for n in range(1, 16):
        F = qn_family(n)
        if F.k != (n - 1) // 2:
            bad.append(("size", n))
        if is_acyclic(apply_family(qn(n), F)) is None:
            bad.append(("family", n))
    values = {}
    for n in range(1, 8):
        v = inv_exact(qn(n)).value
        values[n] = v
        if v > (n - 1) // 2:
            bad.append(("bound", n, v))
    print(f"  reversed-path exact values: {values}")
    report("09 pair family decycles up to n=15; exact values within bound", bad, started)


def test_criterion_10_rank_laws_for_minimal_witnesses():
    started = time.perf_counter()
    bad = []
    ranks_seen = {}
    for n in range(1, 6):
        for T in enumerate_tournaments(n):
            res = inv_exact(T)
            rep = rank_lower_bound_check(T, family_vectors(res.witness), res.value)
            if not rep.ok:
                bad.append((T.out_rows, rep))
            if res.value % 2 == 0 and rep.rank != res.value:
                bad.append((T.out_rows, "even rank mismatch", rep))
            ranks_seen.setdefault((res.value, rep.rank), 0)
            ranks_seen[(res.value, rep.rank)] += 1
    print(f"  (value, rank) histogram: {ranks_seen}")
    report("10 rank laws hold for every minimal witness, n<=5", bad, started)


def test_criterion_11_property_suite():
    started = time.perf_counter()
    rng = random.Random(987654321)
    bad = []

    for _ in range(300):
        D = random_oriented(rng, rng.randint(1, 8))
        X = rng.getrandbits(D.n)
        if invert(invert(D, X), X) != D:
            bad.append(("involution", D.out_rows, X))

    for _ in range(300):
        D = random_oriented(rng, rng.randint(1, 7))
        F = random_family(rng, D.n, rng.randint(0, 4))
        perm = list(F.sets)
        rng.shuffle(perm)
        if apply_family(D, F) != apply_family(D, InversionFamily(D.n, tuple(perm))):
            bad.append(("order", D.out_rows, F.sets))

    for _ in range(1000):
        D = random_oriented(rng, rng.randint(1, 8))
        F = random_family(rng, D.n, rng.randint(0, 4))
        if apply_assignment(D, family_vectors(F)) != apply_family(D, F):
            bad.append(("paths", D.out_rows, F.sets))

    for _ in range(500):
        D = random_oriented(rng, rng.randint(2, 6))
        mask = rng.getrandbits(D.n) or 1
        if inv_exact(D.induced(mask)).value > inv_exact(D).value:
            bad.append(("monotone", D.out_rows, mask))

    for n in range(1, 6):
        for T in enumerate_tournaments(n):
            if inv_exact(reverse(T)).value != inv_exact(T).value:
                bad.append(("reverse", T.out_rows))

    report("11 property suite (involution, order, paths, monotone, reverse)",
           bad, started)
