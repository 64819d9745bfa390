"""The integer kernel against the Fraction algorithms it replaced.

`build_modulus`, the ice cream numerator of `p_orb_general`, the folds of
`inv_mod`, and every product, quotient and sum over binomial denominators
(`times_binomials`, `fn_sum`) work on integer coefficient lists.  The
reference implementations below are the earlier ones: h from a polynomial
gcd, the numerator folded after every product (multiply by h, reduce the
exponents modulo r, divide by h), `inv_mod` by generic remaindering around
extended Euclid, every quotient from `poly_divmod`, `RationalFn.over` as
p - t^a p per factor on Fraction dicts, and the binomial running sum that
`exact_div` used to take for a divisor c t^v (1 - t^e).  Results and error
messages must agree exactly.
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
    NotCoprimeError,
    OrbifoldType,
    RationalFn,
    build_modulus,
    divides,
    exact_div,
    fn_sum,
    integer_inverse,
    inv_mod,
    is_palindromic,
    p_orb_general,
    poly_divmod,
    poly_ext_gcd,
    poly_gcd,
    reduce_to_window,
    times_binomials,
)
from orbhilb.exactpoly import _from_ints, _to_ints
from orbhilb.invmod import _cofactor, _fold_to_window
from conftest import small_fractions, small_poly

LP = LaurentPoly


def ref_build_modulus(r, a_list):
    A = LP.term(1)
    for a in a_list:
        A = A * LP.one_minus(a)
    one_minus_tr = LP.one_minus(r)
    h = -poly_gcd(one_minus_tr, A)
    F = ref_exact_div(one_minus_tr, h)
    return A, h, F, F.degree


def ref_fold(p, h, gamma, r):
    """Fold p into [gamma, gamma + r - deg h - 1] modulo F = (1 - t^r)/h.

    h*p is reduced modulo 1 - t^r into [gamma, gamma + r - 1], which is
    h times a class of p modulo F, and divided by h exactly.
    """
    acc = {}
    for e, c in (h * p).items():
        ee = gamma + (e - gamma) % r
        acc[ee] = acc.get(ee, 0) + c
    return ref_exact_div(LP(acc), h)


def ref_numerator(Q, k):
    """The ice cream numerator of p_orb_general by repeated folding."""
    A, h, F, d = ref_build_modulus(Q.r, Q.a_list)
    gamma = -((d - 1 - k - Q.r - sum(Q.s_list)) // 2)
    inv = LP.term(1)
    for a, s in zip(Q.a_list, Q.s_list):
        b = integer_inverse(a // s, Q.r // s)
        inv = ref_fold(inv * LP({a * j: 1 for j in range(b)}), h, 0, Q.r)
    return ref_fold(inv, h, gamma, Q.r)


def ref_exact_div(a, b):
    if a.is_zero:
        return a
    va, vb = a.valuation, b.valuation
    q, rem = poly_divmod(a.shift(-va), b.shift(-vb))
    if not rem.is_zero:
        raise ExactDivisionError(f"({b}) does not divide ({a})")
    return q.shift(va - vb)


def ref_inv_mod(A, F, gamma, r):
    """InverseMod with the shift trick: t^(m*r) == 1 modulo F makes gamma >= 0."""
    if not A.is_polynomial or A.is_zero:
        raise ValueError("A must be a nonzero polynomial")
    if F.is_zero or not F.is_polynomial:
        raise ValueError("F must be a nonzero polynomial")
    if F.degree == 0:
        return LP()
    if F.coeff(F.degree) != 1 or F.coeff(0) == 0:
        raise ValueError("F must be monic with nonzero constant term")
    if r < 1 or not divides(F, LP.one_minus(r)):
        raise ValueError("t^r must be congruent to 1 modulo F")
    m = 0 if gamma >= 0 else -(gamma // r)
    shifted = reduce_to_window(A.shift(gamma + m * r), F, 0)
    if shifted.is_zero:
        raise NotCoprimeError("A is congruent to 0 modulo F")
    g, u, _ = poly_ext_gcd(shifted, F)
    if g.degree > 0:
        raise NotCoprimeError(
            f"gcd(A, F) = {g} is not a unit; build the modulus with build_modulus first"
        )
    return reduce_to_window(u, F, 0).shift(gamma)


def outcome(f, *args):
    """The value of f(*args), or the class and message of what it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


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


@st.composite
def inverse_cases(draw):
    """(A, F, gamma, r) from build_modulus data: r <= 40, weights up to 3r.

    A is the modulus's own A (coprime to F), delta's h t A, or A times a
    polynomial or by 1 - t^b for a proper divisor b of r (so that it may
    share a factor with F), or a multiple of F.  One case in four has a period other than r, which F
    may not divide.
    """
    r = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        q = draw(curve_strata_types().filter(lambda q: q.r <= 40))
        r, a = q.r, q.a_list
    else:
        a = draw(st.lists(st.integers(min_value=1, max_value=3 * r), min_size=1, max_size=4))
    md = build_modulus(r, a)
    kind = draw(st.sampled_from(["A", "htA", "times", "binomial", "zero"]))
    if kind == "A":
        A = md.A
    elif kind == "htA":
        A = md.h.shift(1) * md.A
    elif kind == "times":
        A = md.A * draw(small_poly)
    elif kind == "binomial":
        b = draw(st.sampled_from([e for e in range(2, r) if r % e == 0] or [r]))
        A = md.A * LP.one_minus(b) * draw(small_poly.filter(bool))
    else:
        A = md.F * draw(small_poly.filter(bool))
    gamma = draw(st.integers(min_value=-3 * r, max_value=3 * r))
    period = r
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        period = draw(st.sampled_from([0, -r, 2 * r]) | st.integers(min_value=1, max_value=40))
    return A, md.F, gamma, period


class TestInvModDifferential:
    @settings(max_examples=400, deadline=None)
    @given(inverse_cases())
    @example((LP.geometric(5), LP.geometric(7), 3, 7))
    @example((LP.geometric(2), LP.geometric(5), -4, 5))
    @example((LP.one_minus(5), LP.geometric(5), 0, 5))
    @example((LP.geometric(5), LP.geometric(7), 0, 6))
    @example((LP.geometric(5), LP.geometric(7), 0, 0))
    @example((LP.one_minus(5) * LP({0: 1, 1: 1}), LP({0: 1, 1: 1, 2: 1}), -7, 6))
    @example((LP.term(1), LP.term(1), -3, 1))
    @example((LP.one_minus(2), build_modulus(12, (5,)).F, -30, 12))
    @example((build_modulus(12, (4, 6, 9)).A, build_modulus(12, (4, 6, 9)).F, -5, 0))
    def test_matches_shift_trick(self, case):
        assert outcome(inv_mod, *case) == outcome(ref_inv_mod, *case)


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


# -- products, quotients and sums over binomial denominators ----------------


def ref_over(p, factors):
    """p times prod (1 - t^a), one factor at a time as p - t^a p."""
    for a in factors:
        p = p - p.shift(a)
    return p


def ref_div_one_minus(p, e):
    """p / (1 - t^e) on a coefficient list, or None when it does not divide."""
    n = max(len(p) - e, 0)
    q = p[:n]
    for k in range(e, n):
        q[k] += q[k - e]
    for k in range(n, len(p)):
        if p[k] + (q[k - e] if k >= e else 0):
            return None
    return q


def ref_binomial_div(a, b):
    """a / b for b = c t^vb (1 - t^e): a running sum on integers scaled by
    the common denominator of a."""
    if a.is_zero:
        return a
    va, vb = a.valuation, b.valuation
    e = b.degree - vb
    c = b.coeff(vb)
    den = 1
    for _, x in a.items():
        den = den * x.denominator // gcd(den, x.denominator)
    p = [0] * (a.degree - va + 1)
    for k, x in a.items():
        p[k - va] = x.numerator * (den // x.denominator)
    q = ref_div_one_minus(p, e)
    if q is None:
        raise ExactDivisionError(f"({b}) does not divide ({a})")
    scale = c * den
    return LP({va - vb + i: Fraction(x) / scale for i, x in enumerate(q) if x})


def ref_times_binomials(p, up, down):
    p = ref_over(p, up)
    for b in down:
        p = ref_binomial_div(p, LP.one_minus(b))
    return p


def ref_fn_sum(fns):
    """The pairwise fold: each sum puts both numerators over the lcm."""
    total = RationalFn(LP(), ())
    for f in fns:
        den = total.den.lcm(f.den)
        total = RationalFn(
            ref_over(total.num, den.sub(total.den)) + ref_over(f.num, den.sub(f.den)), den
        )
    return total


def division_outcome(f, *args):
    try:
        return f(*args)
    except ExactDivisionError as exc:
        return ExactDivisionError, str(exc)


exponents = st.lists(st.integers(min_value=1, max_value=9), max_size=4)


class TestTimesBinomials:
    @settings(max_examples=300, deadline=None)
    @given(laurent_factors, exponents, exponents, st.booleans(), st.booleans())
    @example(LP({-3: Fraction(1, 2), 2: 5}), [], [2], False, False)
    @example(LP({-3: Fraction(1, 2), 2: 5}), [2, 2], [2, 2, 1], True, False)
    @example(LP(), [3], [4], False, False)
    def test_matches_reference(self, p, up, down, divisible, mixed):
        # a divisible case multiplies p by the divisors first; a mixed one
        # also lets the same binomials appear among the multipliers
        quotient = ref_over(p, up)
        if divisible:
            p = ref_over(p, down)
        if mixed:
            up = up + down[:1]
            quotient = ref_over(quotient, down[:1])
        got = division_outcome(times_binomials, p, up, down)
        assert got == division_outcome(ref_times_binomials, p, up, down)
        if divisible:
            assert got == quotient

    @settings(max_examples=100, deadline=None)
    @given(laurent_factors)
    def test_int_form_round_trip(self, p):
        x, v, den = _to_ints(p)
        assert all(type(c) is int for c in x) and (not x or (x[0] and x[-1]))
        assert _from_ints(x, v, den) == p

    def test_negative_valuation_quotient(self):
        p = LP({-5: 2, -3: Fraction(-1, 3), 1: 4})
        assert times_binomials(ref_over(p, [3, 1]), [], [1, 3]) == p

    @pytest.mark.parametrize("up,down", [((0,), ()), ((-2,), ()), ((), (0,)), ((3,), (-1,))])
    def test_exponents_must_be_positive(self, up, down):
        with pytest.raises(ValueError):
            times_binomials(LP({0: 1, 1: 2}), up, down)

    def test_not_divisible_names_the_binomial(self):
        with pytest.raises(ExactDivisionError) as info:
            times_binomials(LP({0: 1, 2: 5}), [], [7])
        assert str(info.value) == "(1 - t^7) does not divide (1 + 5t^2)"


rational_fns = st.builds(
    RationalFn, laurent_factors, st.lists(st.integers(min_value=1, max_value=9), max_size=4)
)


class TestFnSum:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(rational_fns, max_size=5))
    @example([])
    @example([RationalFn(LP({0: 1}), (1, 2)), RationalFn(LP({0: -1}), (2, 1))])
    def test_matches_pairwise_fold(self, fns):
        got = fn_sum(fns)
        want = ref_fn_sum(fns)
        assert (got.num, got.den) == (want.num, want.den)

    @settings(max_examples=100, deadline=None)
    @given(rational_fns, rational_fns)
    def test_add_is_a_two_term_sum(self, f, g):
        got, want = f + g, ref_fn_sum([f, g])
        assert (got.num, got.den) == (want.num, want.den)


class TestFoldOnIntegers:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40).flatmap(
            lambda r: st.tuples(
                st.just(r),
                st.lists(st.integers(min_value=1, max_value=3 * r), min_size=1, max_size=4),
                st.lists(st.integers(min_value=-20, max_value=20), min_size=r, max_size=r),
                st.integers(min_value=-3 * r, max_value=3 * r),
            )
        )
    )
    def test_matches_reference_fold(self, case):
        r, a, x, gamma = case
        h = _cofactor(r, a)
        got = _fold_to_window(x, h, gamma)
        assert all(type(c) is int for c in got)
        assert len(got) == r - (len(h) - 1)
        want = ref_fold(LP(dict(enumerate(x))), _from_ints(h), gamma, r)
        assert _from_ints(got, gamma) == want
