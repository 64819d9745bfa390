"""The integer kernel against the Fraction algorithms it replaced.

`build_modulus`, the ice cream numerator of `p_orb_general` and the
binomial path of `exact_div` work on integer coefficient lists.  The
reference implementations below are the earlier ones: h from a polynomial
gcd, the numerator folded through `reduce_to_window` after every product,
and every quotient from `poly_divmod`.  Results must agree exactly.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbhilb import (
    ExactDivisionError,
    LaurentPoly,
    MathCheckError,
    OrbifoldType,
    build_modulus,
    exact_div,
    integer_inverse,
    is_palindromic,
    p_orb_general,
    poly_divmod,
    poly_gcd,
    reduce_to_window,
)
from conftest import small_fractions

LP = LaurentPoly


def ref_build_modulus(r, a_list):
    A = LP.term(1)
    for a in a_list:
        A = A * LP.one_minus(a)
    one_minus_tr = LP.one_minus(r)
    h = -poly_gcd(one_minus_tr, A)
    F = ref_exact_div(one_minus_tr, h)
    return A, h, F, F.degree


def ref_numerator(Q, k):
    """The ice cream numerator of p_orb_general by repeated folding."""
    A, h, F, d = ref_build_modulus(Q.r, Q.a_list)
    gamma = -((d - 1 - k - Q.r - sum(Q.s_list)) // 2)
    inv = LP.term(1)
    for a, s in zip(Q.a_list, Q.s_list):
        b = integer_inverse(a // s, Q.r // s)
        inv = reduce_to_window(inv * LP({a * j: 1 for j in range(b)}), F, 0, period=Q.r)
    return reduce_to_window(inv, F, gamma, period=Q.r)


def ref_exact_div(a, b):
    if a.is_zero:
        return a
    va, vb = a.valuation, b.valuation
    q, rem = poly_divmod(a.shift(-va), b.shift(-vb))
    if not rem.is_zero:
        raise ExactDivisionError(f"({b}) does not divide ({a})")
    return q.shift(va - vb)


@st.composite
def curve_strata_types(draw):
    """Effective types 1/r(a) with pairwise coprime gcd(a_i, r); weights may exceed r."""
    r = draw(st.integers(min_value=2, max_value=60))
    a = draw(st.lists(st.integers(min_value=1, max_value=3 * r), min_size=1, max_size=4))
    assume(all(x % r for x in a))
    s = [gcd(x, r) for x in a]
    assume(all(gcd(s[i], s[j]) == 1 for i in range(len(s)) for j in range(i)))
    assume(gcd(r, *a) == 1)
    return OrbifoldType(r, a)


@st.composite
def types_and_weights(draw):
    """A curve-strata type and a canonical weight, half of them with k + sum(a) = 0 mod r."""
    q = draw(curve_strata_types())
    k = draw(st.integers(min_value=-60, max_value=60))
    if draw(st.booleans()):
        k -= (k + sum(q.a_list)) % q.r
    return q, k


class TestBuildModulusDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.lists(st.integers(min_value=1, max_value=180), min_size=1, max_size=4),
    )
    @example(1, [1])
    @example(1, [3, 4])
    @example(6, [6])
    @example(12, [4, 6, 9])
    @example(60, [12, 20, 30, 45])
    @example(7, [19, 5])
    def test_matches_gcd_construction(self, r, a):
        md = build_modulus(r, a)
        assert (md.A, md.h, md.F, md.d) == ref_build_modulus(r, a)
        assert md.r == r


class TestNumeratorDifferential:
    @settings(max_examples=200, deadline=None)
    @given(types_and_weights())
    @example((OrbifoldType(15, (2, 5, 8)), 0))
    @example((OrbifoldType(7, (12, 5)), -3))
    @example((OrbifoldType(6, (2, 3, 1)), 4))
    def test_matches_folded_inverse(self, case):
        q, k = case
        B = ref_numerator(q, k)
        sym_deg = k + q.r + sum(q.s_list)
        if is_palindromic(B, sym_deg):
            assert p_orb_general(q, k).numerator == B
        else:
            with pytest.raises(MathCheckError) as info:
                p_orb_general(q, k)
            assert info.value.check == "palindromy"
            assert info.value.residual == B

    def test_trivial_period(self):
        assert p_orb_general(OrbifoldType(1, ()), 3, n=2).numerator.is_zero


laurent_factors = st.builds(
    LP, st.dictionaries(st.integers(min_value=-6, max_value=6), small_fractions, max_size=6)
)
nonzero_fractions = small_fractions.filter(bool)


class TestBinomialExactDiv:
    @settings(max_examples=200, deadline=None)
    @given(
        laurent_factors,
        nonzero_fractions,
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=1, max_value=9),
    )
    def test_multiples_divide_back(self, p, c, v, e):
        b = LP({v: c, v + e: -c})
        a = p * b
        assert exact_div(a, b) == ref_exact_div(a, b) == p

    @settings(max_examples=200, deadline=None)
    @given(
        laurent_factors.filter(bool),
        nonzero_fractions,
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=1, max_value=20),
    )
    def test_agrees_with_divmod(self, a, c, v, e):
        b = LP({v: c, v + e: -c})
        try:
            expected = ref_exact_div(a, b)
        except ExactDivisionError as exc:
            with pytest.raises(ExactDivisionError) as info:
                exact_div(a, b)
            assert str(info.value) == str(exc)
        else:
            assert exact_div(a, b) == expected

    def test_negative_valuations(self):
        a = LP({-5: 2, -3: Fraction(-1, 3), 1: 4}) * LP({-2: 1, 1: -1})
        assert exact_div(a, LP({-2: 1, 1: -1})) == LP({-5: 2, -3: Fraction(-1, 3), 1: 4})

    def test_scalar_multiple(self):
        b = LP.one_minus(4) * Fraction(-3, 2)
        a = LP.geometric(3) * LP.one_minus(4)
        assert exact_div(a, b) == LP.geometric(3) * Fraction(-2, 3)

    def test_exponent_beyond_span(self):
        a = LP({0: 1, 2: 5})
        b = LP.one_minus(7)
        with pytest.raises(ExactDivisionError) as info:
            exact_div(a, b)
        assert str(info.value) == "(1 - t^7) does not divide (1 + 5t^2)"

    def test_not_divisible(self):
        a = LP.one_minus(6) + LP.term(1, 2)
        with pytest.raises(ExactDivisionError) as info:
            exact_div(a, LP.one_minus(2))
        assert str(info.value) == "(1 - t^2) does not divide (1 + t^2 - t^6)"
