"""Exact kernel: Laurent arithmetic, gcd, folding, expansion, symmetry."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbhilb import (
    ExactDivisionError,
    LaurentPoly,
    RationalFn,
    SeriesExpansionError,
    divides,
    exact_div,
    expand,
    is_gorenstein_symmetric,
    is_palindromic,
    poly_divmod,
    poly_ext_gcd,
    poly_gcd,
    reduce_to_window,
)
from conftest import small_laurent, small_poly

LP = LaurentPoly


class TestAddMul:
    def test_add_cancellation(self):
        assert LP({3: 1, 5: 1}) + LP({3: -1}) == LP({5: 1})

    def test_add_identity(self):
        p = LP({-2: Fraction(1, 3), 4: 7})
        assert LP() + p == p

    def test_add_constants(self):
        assert LP({0: 1, 1: 1}) + LP({0: 1, 1: -1}) == LP({0: 2})

    def test_mul_long_multiplication(self):
        # (1+t+t^2+t^3+t^4)(t^3+t^5+t^7)
        lhs = LP.geometric(5) * LP({3: 1, 5: 1, 7: 1})
        assert lhs == LP({3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 2, 9: 2, 10: 1, 11: 1})

    def test_mul_identity(self):
        p = LP({-1: 2, 3: Fraction(1, 2)})
        assert p * LP.term(1) == p

    def test_mul_telescoping(self):
        assert LP.one_minus(1) * LP.geometric(3) == LP.one_minus(3)

    @given(small_laurent, small_laurent, small_laurent)
    @settings(deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LP() == a
        assert a * LP.term(1) == a
        assert a - a == LP()


class TestDivisionGcd:
    def test_divmod_roundtrip(self):
        a = LP({0: 1, 3: -2, 7: 5})
        b = LP({0: 1, 2: 3})
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    def test_gcd_cyclotomic_pair(self):
        # gcd(1-t^m, 1-t^n) is associated to 1-t^gcd(m,n); monic output
        g = poly_gcd(LP.one_minus(7), LP.one_minus(5))
        assert g == LP({0: -1, 1: 1})
        assert divides(g, LP.one_minus(7)) and divides(g, LP.one_minus(5))

    def test_gcd_division_oracle(self):
        a = LP.one_minus(15)
        b = LP.one_minus(2) * LP.one_minus(5) * LP.one_minus(8)
        g = poly_gcd(a, b)
        assert divides(g, a) and divides(g, b)
        # t = 1 is a simple root of 1-t^15, so the gcd is 1-t^5 up to a unit
        assert g == LP.one_minus(5) * Fraction(-1)
        # and (1-t)(1-t^5) does NOT divide 1-t^15
        assert not divides(LP.one_minus(1) * LP.one_minus(5), a)

    def test_gcd_with_zero(self):
        p = LP({0: 2, 3: -4})
        g = poly_gcd(p, LP())
        assert g == p.monic()

    def test_gcd_both_zero(self):
        with pytest.raises(ValueError):
            poly_gcd(LP(), LP())

    def test_ext_gcd_bezout(self):
        a = LP.geometric(5)
        b = LP.geometric(7)
        g, u, v = poly_ext_gcd(a, b)
        assert u * a + v * b == g
        assert g == LP.term(1)

    def test_exact_div_laurent(self):
        # (t^-1 - 1) / (1 - t) = -t^-1
        q = exact_div(LP({-1: 1, 0: -1}), LP.one_minus(1))
        assert q == LP({-1: 1})

    def test_exact_div_failure(self):
        with pytest.raises(ExactDivisionError):
            exact_div(LP({0: 1, 1: 1}), LP.one_minus(2))


class TestExpand:
    def test_fun_calculation(self):
        f = RationalFn(LP({3: 1, 5: 1, 7: 1}), (1, 7))
        w = expand(f, 7)
        assert [c for _, c in w] == [0, 0, 0, 1, 1, 2, 2, 3]

    def test_geometric_series(self):
        w = expand(RationalFn(LP.term(1), (1,)), 3)
        assert [c for _, c in w] == [1, 1, 1, 1]

    def test_x10_low_plurigenera(self):
        f = RationalFn(LP.one_minus(10), (1, 1, 2, 2, 3))
        w = expand(f, 2)
        assert [c for _, c in w] == [1, 2, 5]

    def test_removable_singularity(self):
        # (t^-4+t^-2+1)/((1-t)(1-t^7)) + (-t^-4-t^-2)/((1-t)(1-t^5))
        # is the power series of 1/((1-t^5)(1-t^7))
        f = RationalFn(LP({-4: 1, -2: 1, 0: 1}), (1, 7)) + RationalFn(
            LP({-4: -1, -2: -1}), (1, 5)
        )
        assert [c for _, c in expand(f, 12)] == [
            c for _, c in expand(RationalFn(LP.term(1), (5, 7)), 12)
        ]

    def test_pole_raises(self):
        with pytest.raises(SeriesExpansionError):
            expand(RationalFn(LP({-1: 1}), (1,)), 3)

    @given(small_poly)
    @settings(deadline=None, max_examples=40)
    def test_expand_times_denominator_is_numerator(self, num):
        den = (1, 2, 3)
        f = RationalFn(num, den)
        up_to = 14
        w = expand(f, up_to)
        denpoly = LP.one_minus(1) * LP.one_minus(2) * LP.one_minus(3)
        # truncated series times expanded denominator reproduces numerator
        prod = {}
        for m, c in w:
            for e, d in denpoly.items():
                prod[m + e] = prod.get(m + e, Fraction(0)) + c * d
        for e in range(up_to - denpoly.degree + 1):
            assert prod.get(e, Fraction(0)) == num.coeff(e)


class TestFolding:
    F7 = LP.geometric(7)

    def test_bounty_before_term(self):
        got = reduce_to_window(LP({3: 1, 5: 1, 7: 1}), self.F7, -4)
        assert got == LP({-4: 1, -2: 1, 0: 1})

    def test_famine(self):
        got = reduce_to_window(LP({3: 1, 5: 1, 7: 1}), self.F7, 1)
        assert got == LP({1: -1, 2: -1, 4: -1, 6: -1})

    def test_zero(self):
        assert reduce_to_window(LP(), self.F7, -3) == LP()

    @given(small_laurent, st.integers(min_value=-8, max_value=8))
    @settings(deadline=None)
    def test_fold_properties(self, p, gamma):
        F = self.F7
        d = F.degree
        folded = reduce_to_window(p, F, gamma)
        if not folded.is_zero:
            assert gamma <= folded.valuation and folded.degree <= gamma + d - 1
        # congruence: p - folded is divisible by F after clearing t powers
        diff = p - folded
        if not diff.is_zero:
            assert divides(F, diff.shift(-diff.valuation) if diff.valuation < 0 else diff)
        # idempotence
        assert reduce_to_window(folded, F, gamma) == folded


class TestSymmetry:
    def test_gorenstein_x10(self):
        f = RationalFn(LP.one_minus(10), (1, 1, 2, 2, 3))
        assert is_gorenstein_symmetric(f, 1, 3)

    def test_gorenstein_p57(self):
        f = RationalFn(LP.term(1), (5, 7))
        assert is_gorenstein_symmetric(f, -12, 1)

    def test_gorenstein_negative(self):
        assert not is_gorenstein_symmetric(RationalFn(LP.term(1), (1,)), 0, 1)

    @given(small_poly, st.integers(min_value=0, max_value=3))
    @settings(deadline=None, max_examples=30)
    def test_gorenstein_agrees_with_series(self, num, n):
        # one-sided check: when the cross-multiplied identity holds, the
        # truncated series satisfies the coefficientwise functional equation
        den = tuple([1] * (n + 1))
        f = RationalFn(num, den)
        k = 3
        if not is_gorenstein_symmetric(f, k, n):
            return
        up_to = 10
        w = expand(f, up_to)
        sign = (-1) ** (n + 1)
        # t^k f(1/t) = sign f(t): matching coefficients of t^m with m < 0 on
        # the left means coefficient of t^(k-m), m > k, on the right side
        g = f.num.mirror().shift(k + sum(den)) * ((-1) ** len(den))
        h = f.num * sign
        assert g == h

    def test_palindromic_laurent(self):
        assert is_palindromic(LP({-1: 1, 0: 1, 2: 1, 3: 1}), 2)

    def test_palindromic_x10_numerator(self):
        assert is_palindromic(LP({0: 1, 1: -2, 2: 3, 3: 3, 4: -2, 5: 1}), 5)

    def test_not_palindromic(self):
        assert not is_palindromic(LP({0: 1, 2: 1}), 1)


class TestTextFormats:
    def test_str_zero(self):
        assert str(LP()) == "0"

    def test_str_laurent(self):
        assert str(LP({-4: 1, -2: 1, 0: 1})) == "t^-4 + t^-2 + 1"

    def test_str_rationalfn(self):
        f = RationalFn(LP({3: 1, 5: 1, 7: 1}), (1, 7))
        assert str(f) == "(t^3 + t^5 + t^7) / (1-t) (1-t^7)"

    @given(small_laurent)
    @settings(deadline=None)
    def test_parse_roundtrip(self, p):
        assert LP.parse(str(p)) == p

    def test_parse_repeated_monomials(self):
        got = LP.parse("1-t^6-t^10+t^10+t^11")
        assert got == LP({0: 1, 6: -1, 11: 1})

    def test_parse_fraction_coeff(self):
        assert LP.parse("3/7t^2 - 1/2") == LP({2: Fraction(3, 7), 0: Fraction(-1, 2)})
