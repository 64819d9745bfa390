"""Orbifold contributions to Hilbert series: the ice cream functions.

For an isolated point Q = (1/r)(a_1,...,a_n) on a variety of canonical
weight k the contribution is

    P_orb(Q, k) = B(t) / ((1-t)^n (1-t^r)),
    B = InvMod( prod (1-t^(a_i))/(1-t), (1-t^r)/(1-t), floor(c/2)+1 ),

with c = k + n + 1.  B always has integer coefficients and is palindromic
of degree k + n + r, making the whole part Gorenstein symmetric of degree
k; its support lies in the symmetric interval centred at (k+n+r)/2.

For points on curve strata (some gcd(a_i, r) = s_i > 1, the s_i pairwise
coprime) the generalized form divides each factor by 1 - t^(s_i) instead
of 1 - t and puts 1 - t^(s_i) factors into the denominator; the support
window is centred so that the numerator is palindromic of degree
k + r + sum(s_i).  `p_orb` is the entry for every type: it checks the
weight congruence k + sum(a_i) == 0 mod r, without which no part is
Gorenstein symmetric of weight k, and `p_orb_general` builds the part.

The numerator is computed over the integers modulo 1 - t^r: the inverse
of each factor (1-t^a)/(1-t^s) is a geometric sum in t^a, multiplied in
by a sliding sum in O(r), and the product is folded once into its window
modulo F = (1-t^r)/h by multiplying by h, reducing exponents modulo r and
dividing exactly by h.  No Euclidean algorithm and no Fraction arithmetic
is involved; only the integrality, palindromy and support checks see a
LaurentPoly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .dedekind import OrbifoldType, sigma
from .exactpoly import (
    DenomSpec,
    LaurentPoly,
    MathCheckError,
    RationalFn,
    _from_ints,
    is_palindromic,
    times_binomials,
)
from .invmod import _cofactor, _fold_to_window, _times_geometric, integer_inverse

__all__ = ["OrbifoldPart", "p_orb", "p_orb_general", "porb_minus_dedekind"]


@dataclass(frozen=True)
class OrbifoldPart:
    """One orbifold contribution: an integral Gorenstein-symmetric part.

    `fn.num` is the InvMod numerator; `numerator_degree` is its palindromy
    degree (k+n+r for isolated points, k+r+sum(s_i) in general).
    """

    source: OrbifoldType
    k: int
    fn: RationalFn
    numerator_degree: int

    @property
    def numerator(self) -> LaurentPoly:
        return self.fn.num


def _zero_part(Q: OrbifoldType, k: int, n: int) -> OrbifoldPart:
    return OrbifoldPart(Q, k, RationalFn(LaurentPoly(), (1,) * (n + 1)), k + n + 1)


def _ceil_half(x: int) -> int:
    return -((-x) // 2)


def p_orb(Q: OrbifoldType, k: int, n: int | None = None) -> OrbifoldPart:
    """Ice cream function of an orbifold point of any type.

    Checks the weight congruence k + sum(a_i) == 0 mod r, which holds
    exactly when the part is integral and Gorenstein symmetric of weight k,
    isolated or not; violating it means the input is not the basket of a
    projectively Gorenstein variety of weight k.  The part itself is
    `p_orb_general`'s; an isolated point's numerator must also lie in the
    tighter support window below.
    """
    if (k + sum(Q.a_list)) % Q.r != 0:
        raise ValueError(
            f"weight congruence violated: k + sum(a) = {k + sum(Q.a_list)} "
            f"is not divisible by r = {Q.r}"
        )
    part = p_orb_general(Q, k, n)
    B = part.numerator
    if not Q.is_isolated or B.is_zero:
        return part
    # the window loses its top point when the coindex c = k + n + 1 is even
    c = part.numerator_degree - Q.r + 1  # every s_i is 1
    gamma = c // 2 + 1
    hi = gamma + Q.r - 2 - (1 if c % 2 == 0 else 0)
    if not (gamma <= B.valuation and B.degree <= hi):
        raise MathCheckError(
            f"numerator support of {Q} escapes [{gamma}, {hi}]",
            check="support",
            residual=B,
        )
    return part


def p_orb_general(Q: OrbifoldType, k: int, n: int | None = None) -> OrbifoldPart:
    """Generalized ice cream function, allowing weights not coprime to r.

    The s_i = gcd(a_i, r) must be pairwise coprime (points sitting on
    distinct curve strata).  The denominator is
    (1-t^(s_1))...(1-t^(s_n))(1-t^r) and the numerator window is centred
    to make it palindromic of degree k + r + sum(s_i).
    """
    if n is None:
        n = Q.n
    if Q.r == 1:
        return _zero_part(Q, k, n)
    if n != Q.n:
        raise ValueError(f"dimension mismatch: n={n} but {Q} has {Q.n} weights")
    s_list = Q.s_list
    for i in range(len(s_list)):
        for j in range(i + 1, len(s_list)):
            if gcd(s_list[i], s_list[j]) != 1:
                raise ValueError(
                    f"{Q}: transverse periods {s_list} are not pairwise coprime"
                )
    h = _cofactor(Q.r, Q.a_list)
    d = Q.r - (len(h) - 1)
    sym_deg = k + Q.r + sum(s_list)
    gamma = _ceil_half(sym_deg - d + 1)
    # the inverse of prod (1-t^a)/(1-t^s) modulo F in closed form: each
    # factor inverts to the geometric sum (1-t^(a*b'))/(1-t^a) where b' is
    # the integer inverse of a/s modulo r/s.  The sums are multiplied as
    # integer vectors modulo 1 - t^r, which F divides, and the product is
    # folded into [gamma, gamma + d - 1] once, at the end
    inv = [1] + [0] * (Q.r - 1)
    for a, s in zip(Q.a_list, s_list):
        inv = _times_geometric(inv, a, integer_inverse(a // s, Q.r // s))
    B = _from_ints(_fold_to_window(inv, h, gamma), gamma)
    if not B.is_integral:
        raise MathCheckError(
            f"ice cream numerator of {Q} is not integral", check="integrality", residual=B
        )
    if not is_palindromic(B, sym_deg):
        raise MathCheckError(
            f"ice cream numerator of {Q} is not palindromic of degree {sym_deg}",
            check="palindromy",
            residual=B,
        )
    fn = RationalFn(B, DenomSpec(tuple(s_list) + (Q.r,)))
    return OrbifoldPart(Q, k, fn, sym_deg)


def porb_minus_dedekind(Q: OrbifoldType, k: int, n: int | None = None) -> RationalFn:
    """Difference between the ice cream part of an isolated point and the
    periodic Dedekind term.

    Returns C(t)/(1-t)^(n+1) where

        C = [ B - (1-t)^n * sum_{i=1..r-1} (sigma_(r-i) - sigma_0) t^i ]
            / ((1-t^r)/(1-t)),

    the division being exact.  Failure of exactness would contradict the
    periodicity identity and signals an implementation bug.
    """
    if not Q.is_isolated:
        raise ValueError(f"{Q} is not isolated; the Dedekind term needs coprime weights")
    part = p_orb(Q, k, n)
    if Q.r == 1:
        return part.fn  # zero over (1-t)^(n+1)
    sg = sigma(Q)
    r, n = Q.r, Q.n  # p_orb has checked n
    periodic = LaurentPoly({i: sg[r - i] - sg[0] for i in range(1, r)})
    # dividing by (1-t^r)/(1-t) is a product with 1-t and a quotient by 1-t^r
    C = times_binomials(part.numerator - times_binomials(periodic, (1,) * n), (1,), (r,))
    return RationalFn(C, (1,) * (n + 1))
