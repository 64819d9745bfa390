"""Factored-denominator arithmetic against a reference that expands them.

`RationalFn` never expands a denominator: sums, differences and equality
put both numerators over the lcm, one binomial 1 - t^a at a time, and
`parse_main` and `expand` divide by one binomial at a time.  The reference here works
on plain {exponent: Fraction} dicts, multiplies out every denominator by
dict convolution and cross-multiplies; it calls nothing from `exactpoly`.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from orbhilb import (
    DecompositionError,
    LaurentPoly,
    OrbifoldType,
    RationalFn,
    expand,
    fano3_series,
    k3_series,
    p_orb,
    parse_main,
)

# -- reference: dicts, expanded denominators ------------------------------


def ref_clean(p):
    return {e: c for e, c in p.items() if c}


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return ref_clean(out)


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_den(factors):
    out = {0: Fraction(1)}
    for a in factors:
        out = ref_mul(out, {0: Fraction(1), a: Fraction(-1)})
    return out


def ref_same(num1, den1, num2, den2):
    """num1/den1 == num2/den2 by cross-multiplying expanded denominators."""
    return ref_mul(num1, ref_den(den2)) == ref_mul(num2, ref_den(den1))


def ref_div(num, den):
    """num / den for a polynomial den with den(0) != 0, or None if it does
    not divide num in the Laurent ring (long division from the top)."""
    if not num:
        return {}
    v = min(num)
    rem = {e - v: c for e, c in num.items()}
    d = max(den)
    quo = {}
    while rem and max(rem) >= d:
        e = max(rem)
        f = rem[e] / den[d]
        quo[e - d] = f
        rem = ref_add(rem, {e - d + k: f * c for k, c in den.items()}, -1)
    if rem:
        return None
    return {e + v: c for e, c in quo.items()}


def as_dict(p):
    return dict(p.items())


# -- strategies -------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
numerators = st.dictionaries(st.integers(-6, 8), fractions, max_size=6)
denominators = st.lists(st.integers(1, 12), max_size=5)
fns = st.tuples(numerators, denominators)


def lib(fn):
    num, den = fn
    return RationalFn(LaurentPoly(num), den)


def lcm_multiset(d1, d2):
    return tuple(sorted((Counter(d1) | Counter(d2)).elements()))


# -- arithmetic ---------------------------------------------------------------


class TestAgainstExpandedDenominators:
    @given(fns, fns)
    @settings(deadline=None, max_examples=150)
    def test_add_and_sub(self, f, g):
        (nf, df), (ng, dg) = f, g
        for sign, got in ((1, lib(f) + lib(g)), (-1, lib(f) - lib(g))):
            assert got.den.factors == lcm_multiset(df, dg)
            want = ref_add(ref_mul(nf, ref_den(dg)), ref_mul(ng, ref_den(df)), sign)
            assert ref_same(as_dict(got.num), got.den.factors, want, df + dg)

    @given(fns, fns)
    @settings(deadline=None, max_examples=150)
    def test_eq(self, f, g):
        (nf, df), (ng, dg) = f, g
        assert (lib(f) == lib(g)) == ref_same(nf, df, ng, dg)

    @given(fns, st.integers(1, 12), numerators)
    @settings(deadline=None, max_examples=150)
    def test_eq_written_differently(self, f, c, extra):
        # num (1 - t^c) over den + (c) is the same function as num over den;
        # adding anything nonzero to that numerator makes it a different one
        num, den = f
        wider = (ref_mul(num, {0: Fraction(1), c: Fraction(-1)}), den + [c])
        assert ref_same(*f, *wider)
        assert lib(f) == lib(wider) and lib(wider) == lib(f)
        assert (lib(wider) - lib(f)).is_zero
        other = (ref_add(wider[0], extra), wider[1])
        assert (lib(f) == lib(other)) == (not ref_clean(extra)) == ref_same(*f, *other)

    @given(st.dictionaries(st.integers(0, 8), fractions, max_size=6), denominators)
    @settings(deadline=None, max_examples=100)
    def test_expand(self, num, den):
        # the series times the expanded denominator is the numerator, up to t^20
        series = dict(expand(lib((num, den)), 20))
        prod = ref_mul(series, ref_den(den))
        assert all(prod.get(e, 0) == num.get(e, 0) for e in range(21))


# -- the parse ----------------------------------------------------------------


def ref_parse(P, n, k, basket):
    """parse_main's verdict computed on dicts: ("ok", A) or (check, residual),
    the residual a (num, den) pair for residual_denominator and A otherwise."""
    num, den = as_dict(P.num), list(P.den.factors)
    for q, mult in basket:
        part = p_orb(q, k, n).fn
        pnum = {e: c * mult for e, c in as_dict(part.num).items()}
        num = ref_add(ref_mul(num, ref_den(part.den)), ref_mul(pnum, ref_den(den)), -1)
        den = den + list(part.den.factors)
    A = ref_div(ref_mul(num, ref_den([1] * (n + 1))), ref_den(den))
    if A is None:
        return "residual_denominator", (num, den)
    c = k + n + 1
    if c < 0:
        return ("initial_vanishing", A) if A else ("ok", A)
    if any(v.denominator != 1 for v in A.values()):
        return "integrality", A
    palindromic = all(0 <= e <= c and A.get(c - e) == v for e, v in A.items())
    return ("ok", A) if palindromic else ("palindromy", A)


def units(r):
    return [a for a in range(1, r) if gcd(a, r) == 1]


points = st.integers(2, 12).flatmap(lambda r: st.tuples(st.just(r), st.sampled_from(units(r))))


class TestParseAgainstReference:
    @given(
        st.sampled_from([2, 3]),
        st.integers(-1, 6),
        st.lists(points, max_size=3),
        st.sampled_from(["true", "drop", "add", "move"]),
        points,
    )
    @settings(deadline=None, max_examples=60)
    def test_k3_fano_baskets(self, n, g, basket, how, extra):
        series_fn = k3_series if n == 2 else fano3_series
        P, _, _ = series_fn(g, basket)
        k = 2 - n
        claimed = list(basket)
        if how == "drop" and claimed:
            claimed.pop()
        elif how == "add":
            claimed.append(extra)
        elif how == "move" and claimed:
            claimed[-1] = extra
        types = [(OrbifoldType(r, (1,) * (n - 2) + (a, r - a)), 1) for r, a in claimed]
        verdict, value = ref_parse(P, n, k, types)
        try:
            dec = parse_main(P, n, k, types)
        except DecompositionError as exc:
            assert exc.check == verdict
            if verdict == "residual_denominator":
                got = exc.residual
                assert ref_same(as_dict(got.num), got.den.factors, *value)
            else:
                assert as_dict(exc.residual) == value
            return
        assert verdict == "ok"
        assert as_dict(dec.initial.num) == value
        assert dec.initial.den.factors == (1,) * (n + 1)
        assert [(part.source, m) for part, m in dec.orbifold_parts] == types
