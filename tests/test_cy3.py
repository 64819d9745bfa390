"""Calabi-Yau 3-fold decompositions: X40 both ways, X80, invariants."""

from fractions import Fraction
from math import gcd

import pytest

from orbhilb import (
    CurveStratum,
    DecompositionError,
    LaurentPoly,
    OrbifoldType,
    RationalFn,
    cy3_ice_parts,
    cy3_rr_fit,
    cy3_rr_parts,
    delta,
    hilbert_ci,
    iv_numerator,
    parse_main,
    reduce_to_window,
    sigma,
)

LP = LaurentPoly
F = Fraction

X40_POINTS = [(OrbifoldType(15, (2, 5, 8)), 1)]
X40_CURVES_RR = [
    CurveStratum(2, 1, F(1, 2)),
    CurveStratum(5, 2, F(4, 15), F(4, 5)),
]


def x40_series():
    P, k, n = hilbert_ci((2, 5, 8, 10, 15), (40,))
    assert (k, n) == (0, 3)
    return P


class TestDeltaDerivative:
    def test_monomial(self):
        d = delta(OrbifoldType(2, (1, 1)))
        assert d == LP({1: F(-1, 8), 2: F(1, 8)})
        assert d.derivative() == LP({0: F(-1, 8), 1: F(1, 4)})
        assert LP({2: 1}).derivative() == LP({1: 2})

    def test_x40_delta(self):
        d = delta(OrbifoldType(15, (2, 5, 8)))
        got = d.derivative()
        # termwise differentiation oracle
        expect = LP({e - 1: c * e for e, c in d.items()})
        assert got == expect

    def test_constant(self):
        assert LP.term(F(3, 7)).derivative().is_zero


class TestIVNumerator:
    def test_s2_vanishes(self):
        assert iv_numerator(2, 1).is_zero

    def test_defining_congruence(self):
        for s in range(2, 14):
            for a in range(1, s):
                if gcd(a, s) != 1:
                    continue
                B = iv_numerator(s, a)
                lhs = LP.one_minus(a) ** 2 * LP.one_minus(s - a) ** 2 * B
                rhs = LP({a: 1}) - LP({s - a: 1})
                Fs = LP.geometric(s)
                if Fs.degree == 0:
                    continue
                assert reduce_to_window(lhs - rhs, Fs, 0).is_zero, (s, a)
                if not B.is_zero:
                    assert 1 <= B.valuation and B.degree <= s - 1

    def test_antisymmetry(self):
        for s, a in ((5, 2), (7, 3), (9, 2), (11, 4)):
            assert iv_numerator(s, a) == -iv_numerator(s, s - a)


class TestCY3PointSigma:
    def test_sigma_antisymmetric_for_cy3_types(self):
        # a1+a2+a3 == 0 mod r forces sigma_0 = 0 and sigma_i = -sigma_(r-i)
        for q in (
            OrbifoldType(15, (2, 5, 8)),
            OrbifoldType(4, (3, 3, 2)),
            OrbifoldType(38, (3, 15, 20)),
            OrbifoldType(5, (1, 1, 3)),
            OrbifoldType(7, (1, 2, 4)),
        ):
            assert sum(q.a_list) % q.r == 0
            sg = sigma(q)
            assert sg[0] == 0
            assert all(sg[i] == -sg[q.r - i] for i in range(q.r))


class TestX40RiemannRoch:
    def test_total_is_hilbert_series(self):
        P = x40_series()
        parts = cy3_rr_parts(F(4), F(1, 300), X40_POINTS, X40_CURVES_RR)
        assert parts.total() == P

    def test_part_ii_is_delta_over_period(self):
        parts = cy3_rr_parts(F(4), F(1, 300), X40_POINTS, X40_CURVES_RR)
        q, mult, fn = parts.part_ii[0]
        assert mult == 1
        assert fn == RationalFn(delta(OrbifoldType(15, (2, 5, 8))), (15,))

    def test_part_iii_half_curve_display(self):
        parts = cy3_rr_parts(F(4), F(1, 300), X40_POINTS, X40_CURVES_RR)
        third2 = parts.part_iii[0][1]
        assert third2 == RationalFn(LP({1: F(-1, 8), 3: F(-1, 8)}), (2, 2))

    def test_part_iv_half_curve_vanishes(self):
        parts = cy3_rr_parts(F(4), F(1, 300), X40_POINTS, X40_CURVES_RR)
        assert parts.part_iv[0][1].is_zero

    def test_part_iv_five_curve(self):
        parts = cy3_rr_parts(F(4), F(1, 300), X40_POINTS, X40_CURVES_RR)
        iv5 = parts.part_iv[1][1]
        assert iv5 == RationalFn(
            LP({1: F(-4, 25), 2: F(8, 25), 3: F(-8, 25), 4: F(4, 25)}), (5,)
        )

    def test_fit_recovers_scalars(self):
        P = x40_series()
        fit = cy3_rr_fit(
            P, X40_POINTS, [CurveStratum(2, 1, F(1, 2)), CurveStratum(5, 2, F(4, 15))]
        )
        assert fit.dc2 == 4
        assert fit.d3 == F(1, 300)
        assert fit.part_iv[1][0].iv_prefactor == F(4, 5)
        assert fit.total() == P
        # the prefactor N/(72 s tau) corresponds to an integer N (tau = 3)
        assert (F(4, 5) * 72 * 5 * 3).denominator == 1

    def test_scalar_inputs_pinned_by_sum_identity(self):
        # D.c2 is forced: shifting it moves the total by a t/(1-t)^2 multiple
        # that no periodic IV-shaped part can absorb, so the fit is unique.
        # With D.c2 = 113/20 instead of 4 the gap is exactly (33/240 = 11/80)
        # times t/(1-t)^2.
        P = x40_series()
        parts = cy3_rr_parts(F(113, 20), F(1, 300), X40_POINTS, X40_CURVES_RR)
        gap = P - parts.total()
        extra = RationalFn(LP.term(F(11, 80), 1), (1, 1))
        assert gap + extra == RationalFn(LP(), ())


class TestX40IceCream:
    def test_every_displayed_value(self):
        P = x40_series()
        ice = cy3_ice_parts(P, X40_POINTS, [(2, 1), (5, 2)])
        assert ice.initial == RationalFn(
            LP({0: 1, 1: -4, 2: 7, 3: -4, 4: 1}), (1, 1, 1, 1)
        )
        porb15 = ice.point_parts[0][0]
        assert porb15.numerator == LP({8: 1, 9: -1, 10: 1, 11: -1, 12: 1, 13: -1, 14: 1})
        assert porb15.fn.den.factors == (1, 1, 5, 15)
        gamma2, c5 = ice.curve_parts
        assert gamma2.delta_c == 1 and c5.delta_c == 1
        # A parts: P_orb((1/2)(1,1), 2)/(1-t^2) and P_orb((1/5)(2,3), 5)/(1-t^5)
        assert gamma2.a_part == RationalFn(LP({3: -1}), (1, 1, 2, 2))
        assert c5.a_part == RationalFn(LP({5: 1, 6: -1, 7: 1}), (1, 1, 5, 5))
        assert gamma2.b_numerator.is_zero
        assert c5.b_numerator == LP({3: -3, 4: 2, 5: -3})
        assert c5.b_part == RationalFn(LP({3: -3, 4: 2, 5: -3}), (1, 1, 1, 5))
        assert ice.total() == P

    def test_wrong_strata_rejected(self):
        P = x40_series()
        with pytest.raises(DecompositionError):
            cy3_ice_parts(P, X40_POINTS, [(2, 1)])

    def test_duplicate_periods_rejected(self):
        P = x40_series()
        with pytest.raises(DecompositionError) as err:
            cy3_ice_parts(P, X40_POINTS, [(5, 2), (5, 1)])
        assert err.value.check == "duplicate_period"


class TestNoCurves:
    def test_reduces_to_parse_main(self):
        # X8 in P(1,1,1,2,3): one 1/3(1,1,1) point, no curve strata
        P, k, n = hilbert_ci((1, 1, 1, 2, 3), (8,))
        assert (k, n) == (0, 3)
        basket = [(OrbifoldType(3, (1, 1, 1)), 1)]
        ice = cy3_ice_parts(P, basket, [])
        dec = parse_main(P, n, k, basket)
        assert ice.initial == dec.initial
        assert [p.fn for p, _ in ice.point_parts] == [p.fn for p, _ in dec.orbifold_parts]
        assert ice.total() == P


class TestX80:
    POINTS = [
        (OrbifoldType(4, (3, 3, 2)), 4),
        (OrbifoldType(38, (3, 15, 20)), 1),
        (OrbifoldType(15, (3, 4, 8)), 1),
        (OrbifoldType(5, (3, 4, 3)), 1),
    ]
    CURVES = [(2, 1), (3, 1)]

    def test_decomposition_passes_all_checks(self):
        P, k, n = hilbert_ci((3, 4, 15, 20, 38), (80,))
        assert (k, n) == (0, 3)
        ice = cy3_ice_parts(P, self.POINTS, self.CURVES)
        # integrality and reassembly are enforced inside; double-check here
        assert ice.total() == P
        assert ice.initial.num.is_integral
        for part, _ in ice.point_parts:
            assert part.numerator.is_integral
        for cp in ice.curve_parts:
            s = cp.stratum.s
            b = cp.b_numerator
            if not b.is_zero:
                assert b.is_integral
                assert 3 <= b.valuation and b.degree <= s
                assert b.mirror().shift(s + 3) == b
            assert isinstance(cp.delta_c, int)

    def test_point_part_supports(self):
        P, _, _ = hilbert_ci((3, 4, 15, 20, 38), (80,))
        ice = cy3_ice_parts(P, self.POINTS, self.CURVES)
        for part, _ in ice.point_parts:
            B = part.numerator
            assert B.mirror().shift(part.numerator_degree) == B
