"""Ice cream functions: reference values, integrality, palindromy, periodicity."""

import random
from fractions import Fraction

import pytest

from orbhilb import (
    LaurentPoly,
    OrbifoldType,
    RationalFn,
    divides,
    expand,
    is_gorenstein_symmetric,
    is_palindromic,
    p_orb,
    p_orb_general,
    porb_minus_dedekind,
    sigma,
)
from conftest import compatible_weight, random_isolated_type

LP = LaurentPoly
F = Fraction


class TestPOrbExamples:
    def test_x10_half_point(self):
        part = p_orb(OrbifoldType(2, (1, 1, 1)), 1)
        assert part.fn == RationalFn(LP({3: -1}), (1, 1, 1, 2))
        assert part.numerator_degree == 1 + 3 + 2

    def test_x10_third_point(self):
        part = p_orb(OrbifoldType(3, (1, 2, 2)), 1)
        assert part.fn == RationalFn(LP({3: -1, 4: -1}), (1, 1, 1, 3))

    def test_p57_seventh(self):
        part = p_orb(OrbifoldType(7, (5,)), -12)
        assert part.fn == RationalFn(LP({-4: 1, -2: 1, 0: 1}), (1, 7))

    def test_k3_half_point(self):
        part = p_orb(OrbifoldType(2, (1, 1)), 0)
        assert part.fn == RationalFn(LP({2: 1}), (1, 1, 2))

    def test_trivial_point(self):
        part = p_orb(OrbifoldType(1, ()), 5, n=3)
        assert part.fn.is_zero

    def test_weight_congruence_enforced(self):
        # isolated, and on the 1/5 and 1/3 curve strata
        for q, k in [(OrbifoldType(7, (5,)), 1), (OrbifoldType(15, (2, 5, 9)), 0)]:
            with pytest.raises(ValueError, match="weight congruence violated"):
                p_orb(q, k)

    def test_noncoprime_takes_general_form(self):
        # the dissident point of X40, on its 1/5 curve stratum
        q = OrbifoldType(15, (2, 5, 8))
        part, general = p_orb(q, 0), p_orb_general(q, 0)
        assert part.fn == general.fn
        assert part.numerator_degree == general.numerator_degree == 22


class TestPOrbGeneral:
    def test_x40_dissident_point(self):
        part = p_orb_general(OrbifoldType(15, (2, 5, 8)), 0)
        expect = LP({8: 1, 9: -1, 10: 1, 11: -1, 12: 1, 13: -1, 14: 1})
        assert part.numerator == expect
        assert part.fn.den.factors == (1, 1, 5, 15)
        assert part.numerator_degree == 0 + 15 + (1 + 5 + 1)

    def test_x40_palindromy_on_support(self):
        part = p_orb_general(OrbifoldType(15, (2, 5, 8)), 0)
        assert part.numerator_degree == 22
        assert is_palindromic(part.numerator, 22)
        assert part.numerator.valuation == 8 and part.numerator.degree == 14

    def test_isolated_specialization(self):
        rng = random.Random(99)
        for _ in range(25):
            q = random_isolated_type(rng, 30)
            k = compatible_weight(rng, q)
            assert p_orb_general(q, k).fn == p_orb(q, k).fn

    def test_noncoprime_pairwise_check(self):
        # s_i = (3, 3) are not pairwise coprime
        with pytest.raises(ValueError):
            p_orb_general(OrbifoldType(9, (3, 6, 1)), 8)


class TestPorbMinusDedekind:
    def test_exact_division_examples(self):
        fn = porb_minus_dedekind(OrbifoldType(7, (5,)), -12)
        assert fn.den.factors == (1, 1)
        fn2 = porb_minus_dedekind(OrbifoldType(2, (1, 1, 1)), 1)
        assert fn2.den.factors == (1, 1, 1, 1)

    def test_trivial(self):
        assert porb_minus_dedekind(OrbifoldType(1, ()), 0, n=2).is_zero

    def test_isolated_only(self):
        # p_orb takes the type; the Dedekind term has no curve-stratum form
        with pytest.raises(ValueError, match="not isolated"):
            porb_minus_dedekind(OrbifoldType(15, (2, 5, 8)), 0)

    def test_difference_identity(self):
        # p_orb - C/(1-t)^(n+1) equals the periodic Dedekind term exactly
        q = OrbifoldType(7, (3, 5, 6))
        k = 7 - sum(q.a_list)
        part = p_orb(q, k)
        C = porb_minus_dedekind(q, k)
        sg = sigma(q)
        periodic = RationalFn(
            LP({i: sg[q.r - i] - sg[0] for i in range(1, q.r)}), (q.r,)
        )
        assert part.fn - C == periodic


class TestRandomizedPropertySuite:
    """Randomized isolated types: the Main Theorem's numerator claims."""

    def test_properties_sample(self):
        rng = random.Random(2718)
        for _ in range(80):
            q = random_isolated_type(rng, 40)
            k = compatible_weight(rng, q)
            n = q.n
            part = p_orb(q, k)
            B = part.numerator
            c = k + n + 1
            assert B.is_integral, (q, k)
            assert is_palindromic(B, k + n + q.r), (q, k)
            lo = c // 2 + 1
            hi = (c - 1) // 2 + q.r - 1
            if not B.is_zero:
                assert lo <= B.valuation and B.degree <= hi, (q, k)
            if c >= 0:
                w = expand(part.fn, c // 2)
                assert all(v == 0 for _, v in w), (q, k)
            assert is_gorenstein_symmetric(part.fn, k, n), (q, k)
            porb_minus_dedekind(q, k)  # raises if the division is not exact

    def test_periodicity_polynomial_interpolation(self):
        # the m-th coefficient of p_orb minus (sigma_(r-m) - sigma_0) is a
        # polynomial in m of degree n: check by finite differences
        rng = random.Random(314)
        for _ in range(20):
            q = random_isolated_type(rng, 20)
            n = q.n
            # force c = k+n+1 >= 0 so the part is an honest power series
            j = -((-(sum(q.a_list) - n - 1)) // q.r) + rng.randint(1, 2)
            k = j * q.r - sum(q.a_list)
            part = p_orb(q, k)
            sg = sigma(q)
            up_to = max(3 * q.r, (n + 3) * q.r) + abs(k) + n + 2
            start = max(0, k + n + 2)
            w = expand(part.fn, up_to + start)
            vals = [
                w.coeff(m) - (sg[q.r - (m % q.r)] - sg[0])
                for m in range(start, start + 2 * (n + 2))
            ]
            # (n+1)-st finite difference of a degree-n polynomial vanishes
            diffs = vals
            for _ in range(n + 1):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            assert all(d == 0 for d in diffs), (q, k)
