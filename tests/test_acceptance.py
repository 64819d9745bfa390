"""Acceptance suite: one test per criterion, printed pass lines, exact everywhere.

All arithmetic is exact so every comparison is equality (zero tolerance).
Each criterion body is timed; single computations must stay under one
second.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion pass lines.
"""

import random
import time
from fractions import Fraction
from math import gcd

from orbhilb import (
    CurveStratum,
    LaurentPoly,
    OrbifoldType,
    RationalFn,
    binom_decompose,
    binom_reassemble,
    cy3_ice_parts,
    cy3_rr_parts,
    degree_from_decomposition,
    delta,
    expand,
    hilbert_ci,
    is_palindromic,
    k3_series,
    p_orb,
    parse_main,
    porb_minus_dedekind,
    reduce_to_window,
    sigma,
    build_modulus,
)
from orbhilb.cli import run
from conftest import random_effective_type, random_isolated_type

LP = LaurentPoly
F = Fraction


def _report(num: int, text: str, t0: float) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text} ({time.perf_counter() - t0:.3f}s)")


def test_criterion_1_fun_calculation():
    t0 = time.perf_counter()
    f = RationalFn(LP({3: 1, 5: 1, 7: 1}), (1, 7))
    w = expand(f, 20)
    assert [c for _, c in w] == [3 * i // 7 for i in range(21)]
    F7 = LP.geometric(7)
    assert reduce_to_window(LP({3: 1, 5: 1, 7: 1}), F7, -4) == LP({-4: 1, -2: 1, 0: 1})
    assert reduce_to_window(LP({3: 1, 5: 1, 7: 1}), F7, 1) == LP(
        {1: -1, 2: -1, 4: -1, 6: -1}
    )
    assert time.perf_counter() - t0 < 1.0
    _report(1, "step function expansion and both foldings exact", t0)


def test_criterion_2_x10():
    t0 = time.perf_counter()
    P, k, n = hilbert_ci((1, 1, 2, 2, 3), (10,))
    dec = parse_main(
        P, n, k, [(OrbifoldType(2, (1, 1, 1)), 5), (OrbifoldType(3, (1, 2, 2)), 1)]
    )
    assert dec.initial_numerator == LP({0: 1, 1: -2, 2: 3, 3: 3, 4: -2, 5: 1})
    half, third = (part for part, _ in dec.orbifold_parts)
    assert half.fn == RationalFn(LP({3: -1}), (1, 1, 1, 2))
    assert third.fn == RationalFn(LP({3: -1, 4: -1}), (1, 1, 1, 3))
    assert dec.total() == P
    assert degree_from_decomposition(dec) == F(5, 6)
    assert time.perf_counter() - t0 < 1.0
    _report(2, "X10 parse verbatim, exact sum, degree 5/6", t0)


def test_criterion_3_p57():
    t0 = time.perf_counter()
    P, k, n = hilbert_ci((5, 7))
    assert k == -12
    dec = parse_main(P, n, k, [(OrbifoldType(7, (5,)), 1), (OrbifoldType(5, (2,)), 1)])
    assert dec.initial.is_zero
    assert dec.orbifold_parts[0][0].numerator == LP({-4: 1, -2: 1, 0: 1})
    assert dec.orbifold_parts[1][0].numerator == LP({-4: -1, -2: -1})
    assert dec.total() == P
    assert time.perf_counter() - t0 < 1.0
    _report(3, "P(5,7) zero initial part and both Laurent numerators", t0)


def test_criterion_4_dedekind():
    t0 = time.perf_counter()
    got14 = sigma(OrbifoldType(14, (1, 2, 5, 7)))
    assert list(got14.values) == [
        F(-2, 14), F(-2, 14), F(-1, 14), F(1, 28), F(0), F(-1, 28), F(1, 14),
        F(2, 14), F(2, 14), F(1, 14), F(-1, 28), F(0), F(1, 28), F(-1, 14),
    ]
    ninth = F(1, 9)
    assert delta(OrbifoldType(15, (2, 5, 8))) == LP(
        {1: ninth, 2: 2 * ninth, 4: ninth, 5: -ninth, 7: -2 * ninth,
         8: 2 * ninth, 10: ninth, 11: -ninth, 13: -2 * ninth, 14: -ninth}
    )
    rng = random.Random(0xDEDE)
    for _ in range(200):
        q = random_effective_type(rng, 40)
        md = build_modulus(q.r, q.a_list)
        d = delta(q)
        if md.d == 0:
            assert d.is_zero
            continue
        assert reduce_to_window(md.A * d, md.F, 0) == LP.term(1), q
    assert time.perf_counter() - t0 < 60.0
    _report(4, "sigma/Delta reference values and 200 random defining congruences", t0)


def test_criterion_5_k3_suite():
    t0 = time.perf_counter()
    # S5 in P(1,1,1,2), genus 2
    s5, _, dec5 = k3_series(2, [(2, 1)])
    assert s5 == RationalFn(LP.one_minus(5), (1, 1, 1, 2))                    # (1)
    assert dec5.initial == RationalFn(LP({0: 1, 3: 1}), (1, 1, 1))            # (2)
    assert [p.fn for p, _ in dec5.orbifold_parts] == [
        RationalFn(LP({2: 1}), (1, 1, 2))
    ]
    # S7 in P(1,1,2,3), genus 1
    s7, _, dec7 = k3_series(1, [(2, 1), (3, 1)])
    assert s7 == RationalFn(LP.one_minus(7), (1, 1, 2, 3))                    # (3)
    assert dec7.initial == RationalFn(LP({0: 1, 1: -1, 2: -1, 3: 1}), (1, 1, 1))  # (4)
    assert [p.fn for p, _ in dec7.orbifold_parts] == [
        RationalFn(LP({2: 1}), (1, 1, 2)),
        RationalFn(LP({2: 1, 3: 1}), (1, 1, 3)),
    ]
    # S11 in P(1,2,3,5), genus 0
    s11, _, dec11 = k3_series(0, [(2, 1), (3, 1), (5, 2)])
    assert s11 == RationalFn(LP.one_minus(11), (1, 2, 3, 5))                  # (5)
    assert dec11.initial == RationalFn(LP({0: 1, 1: -2, 2: -2, 3: 1}), (1, 1, 1))  # (6)
    assert [p.fn for p, _ in dec11.orbifold_parts] == [
        RationalFn(LP({2: 1}), (1, 1, 2)),
        RationalFn(LP({2: 1, 3: 1}), (1, 1, 3)),
        RationalFn(LP({2: 2, 3: 1, 4: 1, 5: 2}), (1, 1, 5)),
    ]
    for g, series in ((2, s5), (1, s7), (0, s11)):
        assert expand(series, 1).coeff(1) == g + 1
    assert time.perf_counter() - t0 < 1.0
    _report(5, "S5/S7/S11 all six displayed identities and P1 = g+1", t0)


def test_criterion_6_x40_both_decompositions():
    t0 = time.perf_counter()
    P, k, n = hilbert_ci((2, 5, 8, 10, 15), (40,))
    points = [(OrbifoldType(15, (2, 5, 8)), 1)]

    # Riemann-Roch parts; the scalar inputs are the unique values for which
    # the four part families sum to P (cy3_rr_fit recovers them)
    parts = cy3_rr_parts(
        F(4), F(1, 300), points,
        [CurveStratum(2, 1, F(1, 2)), CurveStratum(5, 2, F(4, 15), F(4, 5))],
    )
    assert parts.d3 / 6 == F(1, 1800)
    assert parts.part_ii[0][2] == RationalFn(delta(OrbifoldType(15, (2, 5, 8))), (15,))
    assert parts.part_iii[0][1] == RationalFn(LP({1: F(-1, 8), 3: F(-1, 8)}), (2, 2))
    assert parts.part_iv[0][1].is_zero  # IV_2 = 0
    assert parts.total() == P

    # integral ice cream parts: every displayed value
    ice = cy3_ice_parts(P, points, [(2, 1), (5, 2)])
    assert ice.initial == RationalFn(LP({0: 1, 1: -4, 2: 7, 3: -4, 4: 1}), (1, 1, 1, 1))
    assert ice.point_parts[0][0].fn == RationalFn(
        LP({8: 1, 9: -1, 10: 1, 11: -1, 12: 1, 13: -1, 14: 1}), (1, 1, 5, 15)
    )
    gamma2, c5 = ice.curve_parts
    assert gamma2.a_part == RationalFn(LP({3: -1}), (1, 1, 2, 2))
    assert gamma2.b_numerator.is_zero
    assert c5.a_part == RationalFn(LP({5: 1, 6: -1, 7: 1}), (1, 1, 5, 5))
    assert c5.b_part == RationalFn(LP({3: -3, 4: 2, 5: -3}), (1, 1, 1, 5))
    assert ice.total() == P
    assert time.perf_counter() - t0 < 1.0
    _report(6, "X40 Riemann-Roch and ice cream decompositions, both sums exact", t0)


def test_criterion_7_randomized_properties():
    t0 = time.perf_counter()
    rng = random.Random(0x1CE)
    for _ in range(500):
        q = random_isolated_type(rng, 40)
        n = q.n
        k = rng.randrange(-2, 3) * q.r - sum(q.a_list)
        c = k + n + 1
        part = p_orb(q, k)
        B = part.numerator

        assert B.is_integral, (q, k)
        assert is_palindromic(B, k + n + q.r), (q, k)
        lo, hi = c // 2 + 1, (c - 1) // 2 + q.r - 1
        if not B.is_zero:
            assert lo <= B.valuation and B.degree <= hi, (q, k)
        if c >= 0:
            assert all(v == 0 for _, v in expand(part.fn, c // 2)), (q, k)
        porb_minus_dedekind(q, k)  # exact division or it raises

        sg = sigma(q)
        s = sum(q.a_list)
        sign = (-1) ** n
        assert all(sg[s - i] == sign * sg[i] for i in range(q.r)), q

        if c >= 0:
            half = c // 2
            data = {i: rng.randint(-4, 5) for i in range(half + 1)}
            A = LP({**data, **{c - e: v for e, v in data.items()}})
            if not A.is_zero:
                coeffs = binom_decompose(A, k, n)
                assert all(isinstance(b, int) for _, b in coeffs)
                assert binom_reassemble(coeffs, k, n) == RationalFn(A, (1,) * (n + 1))
    assert time.perf_counter() - t0 < 60.0
    _report(7, "500 random ice cream parts: integral, palindromic, windowed, "
               "flat through c/2, Dedekind-periodic; sigma duality; binomial "
               "round trips", t0)


def test_criterion_8_x80():
    t0 = time.perf_counter()
    P, k, n = hilbert_ci((3, 4, 15, 20, 38), (80,))
    assert (k, n) == (0, 3)
    points = [
        (OrbifoldType(4, (3, 3, 2)), 4),
        (OrbifoldType(38, (3, 15, 20)), 1),
        (OrbifoldType(15, (3, 4, 8)), 1),
        (OrbifoldType(5, (3, 4, 3)), 1),
    ]
    ice = cy3_ice_parts(P, points, [(2, 1), (3, 1)])
    assert ice.total() == P
    assert ice.initial.num.is_integral and is_palindromic(ice.initial.num, 4)
    for part, _ in ice.point_parts:
        B = part.numerator
        assert B.is_integral
        assert is_palindromic(B, part.numerator_degree)
    for cp in ice.curve_parts:
        assert isinstance(cp.delta_c, int)
        b = cp.b_numerator
        if not b.is_zero:
            assert b.is_integral
            assert 3 <= b.valuation and b.degree <= cp.stratum.s
            assert is_palindromic(b, cp.stratum.s + 3)
    assert time.perf_counter() - t0 < 1.0
    _report(8, "X80 ice cream decomposition: all checks pass, exact reassembly", t0)


def test_criterion_9_pfaffian_verify():
    t0 = time.perf_counter()
    code = run([
        "verify", "--weights", "1,2,3,5,7",
        "--numerator", "1-t^6-t^7-t^8-t^9-t^10+t^10+t^11+t^12+t^13+t^14-t^20",
        "--k", "2", "--n", "1", "--basket", "1/7(5)",
    ])
    assert code == 0
    assert time.perf_counter() - t0 < 1.0
    _report(9, "Pfaffian curve verify: Gorenstein symmetry and parse pass", t0)
