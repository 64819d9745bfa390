"""Inverses modulo cyclotomic-type moduli with prescribed support window.

Given a period r and weights a_1..a_n, set

    A = prod(1 - t^(a_j)),   h = hcf(1 - t^r, A),   F = (1 - t^r) / h.

F is monic with simple roots exactly at the r-th roots of unity where A
does not vanish, so A is invertible modulo F.  Because any d = deg F
consecutive Laurent monomials form a basis of Q[t]/(F), the inverse has a
unique representative supported in [gamma, gamma + d - 1] for every
integer gamma.

`build_modulus` needs no gcd.  With g_j = gcd(a_j, r), h is (up to sign)
lcm_j(1 - t^(g_j)), the product of the cyclotomic factors Phi_e of
1 - t^r with e dividing some g_j.  Inclusion-exclusion over the gcds of
the g_j writes it as prod_e (1 - t^e)^(c_e), so A, h and F are products
and exact quotients of binomials, computed by `exactpoly.times_binomials`
and its integer pass.

Every class modulo 1 - t^r is put into its window of deg F exponents by
one routine, `_fold_to_window`, on integers only: multiply by h, reduce
exponents modulo r, divide exactly by h.  `inv_mod` inverts an arbitrary
A modulo F by the extended Euclidean algorithm between two such folds
(A into [0, d - 1] before, the inverse into [gamma, gamma + d - 1] after,
for any integer gamma); `dedekind.delta` and the CLI's `invmod` command
use it.  The ice cream numerators of `icecream.p_orb_general` need no
Euclid: they take only h (`_cofactor`), multiply closed-form inverses as
integer vectors modulo 1 - t^r (`_times_geometric`) and fold the product
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .exactpoly import (
    ExactDivisionError,
    LaurentPoly,
    _binomial_pass,
    _from_ints,
    _to_ints,
    exact_div,
    poly_ext_gcd,
    times_binomials,
)

__all__ = ["ModulusData", "NotCoprimeError", "build_modulus", "inv_mod", "integer_inverse"]


class NotCoprimeError(ValueError):
    """The polynomial to invert shares a factor with the modulus."""


@dataclass(frozen=True)
class ModulusData:
    """The (A, h, F) data attached to a period r and weights a_1..a_n.

    Invariants: h * F == 1 - t^r exactly, F is monic with nonzero constant
    term, and gcd(A, F) is a unit.
    """

    r: int
    A: LaurentPoly
    h: LaurentPoly
    F: LaurentPoly
    d: int


def _binomial_exponents(r: int, a_list: Sequence[int]) -> dict[int, int]:
    """The c_e with lcm_j(1 - t^(g_j)) = +-prod_e (1 - t^e)^(c_e), g_j = gcd(a_j, r).

    The cyclotomic factors of 1 - t^r are indexed by the divisors of r, and
    those of 1 - t^g by the divisors of g.  Adding one g to the union U of
    divisor sets counts U + D(g) - (U meet D(g)), and a signed sum of D(e)
    meets D(g) in the same sum of D(gcd(e, g)).
    """
    c: dict[int, int] = {}
    for g in sorted({gcd(a, r) for a in a_list}):
        step = {g: 1}
        for e, m in c.items():
            eg = gcd(e, g)
            step[eg] = step.get(eg, 0) - m
        for e, m in step.items():
            c[e] = c.get(e, 0) + m
    return {e: m for e, m in c.items() if m}


def _signed_product(exponents: dict[int, int], top: tuple[int, ...] = ()) -> list[int]:
    """(-1)^(1 + sum c_e) prod_(a in top) (1 - t^a) prod_e (1 - t^e)^(c_e) as a
    coefficient list, every division exact.  The sign gives h = prod (1 - t^e)^(c_e)
    leading coefficient -1 and F = (1 - t^r) prod (1 - t^e)^(-c_e) leading 1."""
    up = [e for e, m in exponents.items() for _ in range(m)]
    down = [e for e, m in exponents.items() for _ in range(-m)]
    x = _binomial_pass([1], [*top, *up], down)
    return [-c for c in x] if sum(exponents.values()) % 2 == 0 else x


def _cofactor(r: int, a_list: Sequence[int]) -> list[int]:
    """h = hcf(1 - t^r, prod(1 - t^a)) with leading coefficient -1."""
    return _signed_product(_binomial_exponents(r, a_list))


def build_modulus(r: int, a_list: Sequence[int]) -> ModulusData:
    """Compute A = prod(1-t^a), h = hcf(1-t^r, A) and F = (1-t^r)/h.

    h is normalized so that F comes out monic (h gets leading coefficient
    -1, matching the 1 - t^a shape of its factors).
    """
    if r < 1:
        raise ValueError("period r must be >= 1")
    if not a_list:
        raise ValueError("a_list must be nonempty")
    if any(a < 1 for a in a_list):
        raise ValueError("weights must be positive")
    c = _binomial_exponents(r, a_list)
    A = times_binomials(LaurentPoly.term(1), a_list)
    F = _signed_product({e: -m for e, m in c.items()}, (r,))
    return ModulusData(r=r, A=A, h=_from_ints(_signed_product(c)), F=_from_ints(F), d=len(F) - 1)


def _times_geometric(x: list[int], a: int, b: int) -> list[int]:
    """x * sum_{j<b} t^(a*j) modulo 1 - t^r, with r = len(x).

    A sliding sum along each stride-a cycle of Z/r:
    y[k + a] = y[k] + x[k + a] - x[k + a - a*b], so O(r) in all.
    """
    r = len(x)
    y = [0] * r
    if b == 0:
        return y
    g = gcd(a, r)
    for start in range(g):
        acc = sum(x[(start - a * j) % r] for j in range(b))
        k = start
        for _ in range(r // g):
            y[k] = acc
            k = (k + a) % r
            acc += x[k] - x[(k - a * b) % r]
    return y


def _fold_to_window(x: list[int], h: list[int], gamma: int) -> list[int]:
    """The representative of x modulo F = (1 - t^r)/h in [gamma, gamma + deg F - 1],
    as its coefficient list from t^gamma.

    x is a class modulo 1 - t^r as a length-r list (entry i the
    coefficient of the exponents i mod r) and h a coefficient list with
    h[0] = +-1; every entry is an int, and gamma is any integer.  h*x is
    reduced modulo 1 - t^r into the exponents [gamma, gamma + r - 1]; that
    is h times a class of x modulo F, and dividing by h exactly leaves it
    in a window of r - deg h exponents.
    """
    r = len(x)
    h_terms = [(e, c) for e, c in enumerate(h) if c]
    z = [0] * r
    for e, c in h_terms:
        s = r - e % r
        z = [zi + c * xi for zi, xi in zip(z, x[s:] + x[:s])]
    g = gamma % r
    w = z[g:] + z[:g]
    d = r - (len(h) - 1)
    unit = h[0]
    tail = h_terms[1:]
    # long division from the constant term; w[:d] becomes the quotient
    for k in range(d):
        q = w[k]
        if q:
            q *= unit
            w[k] = q
            for e, c in tail:
                w[k + e] -= q * c
    if any(w[d:]):
        raise ExactDivisionError(f"({_from_ints(h)}) does not divide the folded class")
    return w[:d]


def integer_inverse(a: int, r: int) -> int:
    """Least nonnegative inverse of a modulo r (0 when r == 1)."""
    if r < 1:
        raise ValueError("modulus must be >= 1")
    return pow(a % r, -1, r)


def _fold(p: LaurentPoly, h: list[int], gamma: int, r: int) -> LaurentPoly:
    """`_fold_to_window` of p: its integer numerators over their common
    denominator, summed by exponent modulo r, are folded and divided back."""
    y, v, den = _to_ints(p)
    x = [0] * r
    for i, c in enumerate(y):
        x[(v + i) % r] += c
    return _from_ints(_fold_to_window(x, h, gamma), gamma, den)


def inv_mod(A: LaurentPoly, F: LaurentPoly, gamma: int, r: int) -> LaurentPoly:
    """Inverse of A modulo F supported in [gamma, gamma + deg F - 1].

    Preconditions: A is a polynomial coprime to F; F is monic with nonzero
    constant term; t^r == 1 modulo F (true for every F produced by
    `build_modulus`).  F == 1 is the degenerate period-1 case and returns 0.

    h = (1 - t^r)/F is integral with h[0] = +-1: a monic divisor of the
    squarefree 1 - t^r is a product of cyclotomic polynomials, and so is h
    up to sign.  So its coefficient list from t^0 is an int list, as
    `_fold_to_window` needs.
    """
    if not A.is_polynomial or A.is_zero:
        raise ValueError("A must be a nonzero polynomial")
    if F.is_zero or not F.is_polynomial:
        raise ValueError("F must be a nonzero polynomial")
    if F.degree == 0:
        return LaurentPoly()
    if F.coeff(F.degree) != 1 or F.coeff(0) == 0:
        raise ValueError("F must be monic with nonzero constant term")
    if r < 1:
        raise ValueError("t^r must be congruent to 1 modulo F")
    try:
        h = exact_div(LaurentPoly.one_minus(r), F)
    except ExactDivisionError:
        raise ValueError("t^r must be congruent to 1 modulo F") from None
    hl, _, _ = _to_ints(h)
    # fold A into [0, d - 1] first so the Euclidean step runs on degree
    # < deg F; the inverse is then folded straight into its window
    low = _fold(A, hl, 0, r)
    if low.is_zero:
        raise NotCoprimeError("A is congruent to 0 modulo F")
    g, u, _ = poly_ext_gcd(low, F)
    if g.degree > 0:
        raise NotCoprimeError(
            f"gcd(A, F) = {g} is not a unit; build the modulus with build_modulus first"
        )
    return _fold(u, hl, gamma, r)
