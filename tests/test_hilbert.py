"""Main Theorem parse, plurigenera reconstruction, K3 and Fano closed forms."""

import dataclasses
import random
from fractions import Fraction

import pytest

from orbhilb import (
    Decomposition,
    DecompositionError,
    LaurentPoly,
    MathCheckError,
    OrbifoldType,
    RationalFn,
    SeriesWindow,
    binom_decompose,
    binom_reassemble,
    cy3_ice_parts,
    degree_from_decomposition,
    expand,
    fano3_series,
    hilbert_ci,
    initial_from_plurigenera,
    is_gorenstein_symmetric,
    k3_series,
    p_orb,
    parse_main,
)
from orbhilb import hilbert
from conftest import compatible_weight, random_isolated_type

LP = LaurentPoly
F = Fraction

X10_BASKET = [(OrbifoldType(2, (1, 1, 1)), 5), (OrbifoldType(3, (1, 2, 2)), 1)]


class TestHilbertCI:
    def test_x10(self):
        P, k, n = hilbert_ci((1, 1, 2, 2, 3), (10,))
        assert P == RationalFn(LP.one_minus(10), (1, 1, 2, 2, 3))
        assert (k, n) == (1, 3)

    def test_p57(self):
        P, k, n = hilbert_ci((5, 7))
        assert P == RationalFn(LP.term(1), (5, 7))
        assert (k, n) == (-12, 1)

    def test_x40(self):
        P, k, n = hilbert_ci((2, 5, 8, 10, 15), (40,))
        assert P == RationalFn(LP.one_minus(40), (2, 5, 8, 10, 15))
        assert (k, n) == (0, 3)


class TestParseMain:
    def test_x10(self):
        P, k, n = hilbert_ci((1, 1, 2, 2, 3), (10,))
        dec = parse_main(P, n, k, X10_BASKET)
        assert dec.initial_numerator == LP({0: 1, 1: -2, 2: 3, 3: 3, 4: -2, 5: 1})
        assert dec.total() == P

    def test_p57_zero_initial(self):
        P, k, n = hilbert_ci((5, 7))
        dec = parse_main(P, n, k, [(OrbifoldType(7, (5,)), 1), (OrbifoldType(5, (2,)), 1)])
        assert dec.initial.is_zero
        nums = [part.numerator for part, _ in dec.orbifold_parts]
        assert nums == [LP({-4: 1, -2: 1, 0: 1}), LP({-4: -1, -2: -1})]

    def test_s5(self):
        P, k, n = hilbert_ci((1, 1, 1, 2), (5,))
        dec = parse_main(P, n, k, [(OrbifoldType(2, (1, 1)), 1)])
        assert dec.initial_numerator == LP({0: 1, 3: 1})
        part = dec.orbifold_parts[0][0]
        assert part.fn == RationalFn(LP({2: 1}), (1, 1, 2))

    def test_wrong_basket_diagnosed(self):
        P, k, n = hilbert_ci((1, 1, 2, 2, 3), (10,))
        with pytest.raises(DecompositionError) as err:
            parse_main(P, n, k, [(OrbifoldType(2, (1, 1, 1)), 4)])
        assert err.value.check == "residual_denominator"
        residual = err.value.residual
        assert residual.num == LP({0: 1, 1: 1, 2: 1, 3: 5, 4: 9, 5: 9, 6: 5, 7: 1, 8: 1, 9: 1})
        assert residual.den.factors == (1, 2, 2, 3)

    def test_strata_column_solved_and_summed(self):
        # the 1/2 points of X10 given as a column: its coefficient is their
        # multiplicity, and total() includes the solved part
        P, k, n = hilbert_ci((1, 1, 2, 2, 3), (10,))
        half = p_orb(OrbifoldType(2, (1, 1, 1)), k, n).fn
        dec = parse_main(P, n, k, X10_BASKET[1:], columns=[half])
        assert dec.strata_parts == ((half, 5),)
        assert dec.initial == parse_main(P, n, k, X10_BASKET).initial
        assert dec.total() == P

    def test_non_isolated_entry_diagnosed(self):
        # 1/15(2,5,8) of X40 lies on two curves; with no curve columns the
        # curve poles are left over
        P, k, n = hilbert_ci((2, 5, 8, 10, 15), (40,))
        with pytest.raises(DecompositionError) as err:
            parse_main(P, n, k, [(OrbifoldType(15, (2, 5, 8)), 1)])
        assert err.value.check == "residual_denominator"

    def test_non_gorenstein_rejected(self):
        bad = RationalFn(LP({0: 1, 1: 1}), (1, 2))
        with pytest.raises(DecompositionError) as err:
            parse_main(bad, 1, 0, [])
        assert err.value.check == "gorenstein_symmetry"

    def test_irregularity_subtracted(self):
        # an abelian surface flavour: P = J + P_I with empty basket; the
        # degree bound deg J <= k is violated here and must only warn
        P, k, n = hilbert_ci((1, 1, 1), ())
        J = LP({0: -2})
        shifted = P + RationalFn(J, ())
        with pytest.warns(UserWarning, match="irregularity"):
            dec = parse_main(shifted, n, k, [], irregularity=J)
        assert dec.total() == shifted
        assert dec.irregularity == J

    def test_roundtrip_random_baskets(self):
        rng = random.Random(77)
        for _ in range(20):
            qs = [random_isolated_type(rng, 15) for _ in range(rng.randint(1, 3))]
            n = max(q.n for q in qs)
            # rebuild each type at dimension n by padding weights with 1
            qs = [OrbifoldType(q.r, q.a_list + (1,) * (n - q.n)) for q in qs]
            r0 = qs[0].r
            k = r0 - sum(qs[0].a_list)
            basket = []
            parts_sum = None
            # only keep types compatible with k
            for q in qs:
                if (k + sum(q.a_list)) % q.r == 0:
                    basket.append((q, rng.randint(1, 3)))
            if not basket:
                continue
            c = k + n + 1
            if c < 0:
                continue
            # build a synthetic series: arbitrary palindromic initial + parts
            half = c // 2
            initial_coeffs = {0: 1}
            for i in range(1, half + 1):
                initial_coeffs[i] = rng.randint(-3, 5)
            A = LP({**initial_coeffs, **{c - e: v for e, v in initial_coeffs.items()}})
            total = RationalFn(A, (1,) * (n + 1))
            for q, mult in basket:
                total = total + p_orb(q, k, n).fn * mult
            dec = parse_main(total, n, k, basket)
            assert dec.initial_numerator == A
            assert dec.total() == total


class TestInitialFromPlurigenera:
    def test_x10_window(self):
        got = initial_from_plurigenera(SeriesWindow(0, [1, 2, 5]), 1, 3)
        assert got.num == LP({0: 1, 1: -2, 2: 3, 3: 3, 4: -2, 5: 1})

    def test_k3_genus_formula(self):
        for g in range(-1, 6):
            got = initial_from_plurigenera(SeriesWindow(0, [1, g + 1]), 0, 2)
            assert got.num == LP({0: 1, 1: g - 2, 2: g - 2, 3: 1})

    def test_coindex_zero(self):
        got = initial_from_plurigenera(SeriesWindow(0, [1]), -3, 2)
        assert got.num == LP.term(1)

    def test_negative_coindex_zero_window(self):
        got = initial_from_plurigenera(SeriesWindow(0, [0, 0]), -12, 1)
        assert got.is_zero

    def test_negative_coindex_nonzero_rejected(self):
        with pytest.raises(DecompositionError):
            initial_from_plurigenera(SeriesWindow(0, [1]), -12, 1)

    def test_matches_parse(self):
        P, k, n = hilbert_ci((1, 1, 2, 2, 3), (10,))
        dec = parse_main(P, n, k, X10_BASKET)
        c = k + n + 1
        rebuilt = initial_from_plurigenera(expand(P, c // 2), k, n)
        assert rebuilt == dec.initial


class TestBinomDecompose:
    def test_x10_initial(self):
        A = LP({0: 1, 1: -2, 2: 3, 3: 3, 4: -2, 5: 1})
        coeffs = binom_decompose(A, 1, 3)
        assert coeffs == ((3, 2), (1, 1), (-1, 1))
        assert binom_reassemble(coeffs, 1, 3) == RationalFn(A, (1, 1, 1, 1))

    def test_k3_genus(self):
        for g in (0, 3, 7):
            A = LP({0: 1, 1: g - 2, 2: g - 2, 3: 1})
            coeffs = binom_decompose(A, 0, 2)
            assert coeffs == ((2, g - 1), (0, 1))
            assert binom_reassemble(coeffs, 0, 2) == RationalFn(A, (1, 1, 1))

    def test_zero(self):
        assert binom_decompose(LP(), 4, 2) == ()

    def test_rejects_nonpalindromic(self):
        with pytest.raises(DecompositionError):
            binom_decompose(LP({0: 1, 1: 2}), 0, 2)

    def test_roundtrip_random(self):
        rng = random.Random(123)
        for _ in range(40):
            n = rng.randint(1, 4)
            k = rng.randint(-1, 4)
            c = k + n + 1
            if c < 0:
                continue
            half = c // 2
            data = {i: rng.randint(-4, 6) for i in range(half + 1)}
            A = LP({**data, **{c - e: v for e, v in data.items()}})
            if A.is_zero:
                continue
            coeffs = binom_decompose(A, k, n)
            assert all(isinstance(b, int) for _, b in coeffs)
            assert binom_reassemble(coeffs, k, n) == RationalFn(A, (1,) * (n + 1))


class TestK3Series:
    def test_s5(self):
        series, dsq, dec = k3_series(2, [(2, 1)])
        assert series == RationalFn(LP.one_minus(5), (1, 1, 1, 2))
        assert dsq == F(5, 2)
        assert dec.initial == RationalFn(LP({0: 1, 3: 1}), (1, 1, 1))
        assert dec.orbifold_parts[0][0].fn == RationalFn(LP({2: 1}), (1, 1, 2))

    def test_s7(self):
        series, dsq, dec = k3_series(1, [(2, 1), (3, 1)])
        assert series == RationalFn(LP.one_minus(7), (1, 1, 2, 3))
        assert dec.initial_numerator == LP({0: 1, 1: -1, 2: -1, 3: 1})
        parts = [p.fn for p, _ in dec.orbifold_parts]
        assert parts == [
            RationalFn(LP({2: 1}), (1, 1, 2)),
            RationalFn(LP({2: 1, 3: 1}), (1, 1, 3)),
        ]

    def test_s11(self):
        series, dsq, dec = k3_series(0, [(2, 1), (3, 1), (5, 2)])
        assert series == RationalFn(LP.one_minus(11), (1, 2, 3, 5))
        assert dec.initial_numerator == LP({0: 1, 1: -2, 2: -2, 3: 1})
        assert dec.orbifold_parts[2][0].numerator == LP({2: 2, 3: 1, 4: 1, 5: 2})

    def test_quartic_no_basket(self):
        series, dsq, dec = k3_series(3, [])
        assert dsq == 4
        assert not dec.orbifold_parts
        assert series == RationalFn(LP.one_minus(4), (1, 1, 1, 1))

    def test_p1_is_genus_plus_one(self):
        for g, basket in ((2, [(2, 1)]), (1, [(2, 1), (3, 1)]), (0, [(2, 1), (3, 1), (5, 2)])):
            series, _, _ = k3_series(g, basket)
            assert expand(series, 1).coeff(1) == g + 1


class TestFano3Series:
    def test_no_basket(self):
        for g in (2, 5, 9):
            series, mk3, dec = fano3_series(g, [])
            assert mk3 == 2 * g - 2
            assert series == RationalFn(LP({0: 1, 1: g - 2, 2: g - 2, 3: 1}), (1, 1, 1, 1))

    def test_half_point_matches_p_orb(self):
        series, mk3, dec = fano3_series(5, [(2, 1)])
        part = dec.orbifold_parts[0][0]
        assert part.fn == p_orb(OrbifoldType(2, (1, 1, 1)), -1).fn

    def test_k3_fano_invmod_numerators_coincide(self):
        # coindex-3 twins: the K3 part at (r, a) and the Fano part at
        # (1/r)(1, a, r-a) have the same InvMod numerator
        for r, a in ((2, 1), (3, 1), (5, 2), (7, 3)):
            k3_part = p_orb(OrbifoldType(r, (a, r - a)), 0)
            fano_part = p_orb(OrbifoldType(r, (1, a, r - a)), -1)
            assert k3_part.numerator == fano_part.numerator

    def test_h0_minus_k(self):
        series, _, _ = fano3_series(4, [(3, 1), (2, 1)])
        assert expand(series, 1).coeff(1) == 6


class TestK3FanoChecks:
    def test_genus_guard_is_k3_only(self):
        with pytest.raises(ValueError, match="genus must be >= -1"):
            k3_series(-2)
        _, mk3, _ = fano3_series(-2)
        assert mk3 == -6

    @pytest.mark.parametrize("series_fn,check", [(k3_series, "k3_initial"),
                                                  (fano3_series, "fano_initial")])
    def test_initial_check_name(self, monkeypatch, series_fn, check):
        real = hilbert.parse_main

        def doubled_initial(*args, **kwargs):
            dec = real(*args, **kwargs)
            return dataclasses.replace(dec, initial=dec.initial * 2)

        monkeypatch.setattr(hilbert, "parse_main", doubled_initial)
        with pytest.raises(MathCheckError) as info:
            series_fn(2, [(2, 1)])
        assert info.value.check == check


class TestDegree:
    def test_x10(self):
        P, k, n = hilbert_ci((1, 1, 2, 2, 3), (10,))
        dec = parse_main(P, n, k, X10_BASKET)
        assert degree_from_decomposition(dec) == F(5, 6)

    def test_no_orbifold_parts(self):
        series, _, dec = k3_series(3, [])
        assert degree_from_decomposition(dec) == dec.initial_numerator.at_one()

    def test_p57(self):
        P, k, n = hilbert_ci((5, 7))
        dec = parse_main(P, n, k, [(OrbifoldType(7, (5,)), 1), (OrbifoldType(5, (2,)), 1)])
        assert degree_from_decomposition(dec) == F(1, 35)

    def test_point_on_curve_stratum(self):
        # 1/15(2,5,8) lies on the 1/5 curve stratum: its part has the four
        # factors (1-t)^2 (1-t^5)(1-t^15), so its numerator adds N(1)/75
        q = OrbifoldType(15, (2, 5, 8))
        part = p_orb(q, 0, 3)
        assert part.numerator.at_one() == 1
        P = RationalFn(LP({i: 1 for i in range(5)}), (1, 1, 1, 1)) + part.fn
        dec = parse_main(P, 3, 0, [(q, 1)])
        assert degree_from_decomposition(dec) == F(376, 75)

    def test_x40_with_curve_strata(self):
        # D^3 = 40/(2*5*8*10*15) = 1/300, the curve parts counted as strata
        P, k, n = hilbert_ci((2, 5, 8, 10, 15), (40,))
        ice = cy3_ice_parts(P, [(OrbifoldType(15, (2, 5, 8)), 1)], [(2, 1), (5, 2)])
        strata = tuple((fn, F(1)) for cp in ice.curve_parts for fn in (cp.a_part, cp.b_part))
        dec = Decomposition(initial=ice.initial, orbifold_parts=ice.point_parts,
                            k=k, n=n, c=k + n + 1, strata_parts=strata)
        assert degree_from_decomposition(dec) == F(1, 300)

    def test_zero_decomposition(self):
        dec = Decomposition(
            initial=RationalFn(LP(), (1, 1)), orbifold_parts=(), k=-2, n=1, c=0
        )
        assert degree_from_decomposition(dec) == 0


class TestGorensteinOfAssembled:
    def test_every_assembled_series_is_symmetric(self):
        series, _, _ = k3_series(2, [(2, 1)])
        assert is_gorenstein_symmetric(series, 0, 2)
        series, _, _ = fano3_series(6, [(2, 1), (5, 2)])
        assert is_gorenstein_symmetric(series, -1, 3)
        P, k, n = hilbert_ci((1, 2, 3, 5, 7), ())
        assert is_gorenstein_symmetric(P, k, n)
