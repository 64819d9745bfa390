"""Generalized Dedekind sums via exact InverseMod arithmetic.

For an orbifold point of type (1/r)(a_1,...,a_n) the Dedekind sums
sigma_0..sigma_(r-1) are packaged into the polynomial

    Delta = sum_{i=1..r} sigma_(r-i) t^i      (support in [1, r]),

which is computed without any root-of-unity arithmetic as

    Delta = h t * InvMod(h t A, F, 0),

where A, h, F come from `build_modulus`.  The defining property, checked
in the tests, is the exact congruence A * Delta == 1 mod F; the values are
rational numbers with denominator dividing r (times small factors).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

from .exactpoly import InputError, LaurentPoly
from .invmod import build_modulus, integer_inverse, inv_mod

__all__ = [
    "OrbifoldType",
    "SigmaVector",
    "delta",
    "sigma",
    "sigma_surface_closed",
]

_TYPE_RE = re.compile(r"1\s*/\s*(\d+)\s*\(\s*([0-9,\s]*)\)\s*$")


@dataclass(frozen=True)
class OrbifoldType:
    """Cyclic orbifold point type (1/r)(a_1,...,a_n).

    Weights are stored reduced modulo r; each must be nonzero mod r, and
    no factor of r may divide all of them (the action must be effective).
    The trivial type r=1 is allowed only with an empty weight list.
    """

    r: int
    a_list: tuple[int, ...]

    def __init__(self, r: int, a_list: Sequence[int] = ()):
        r = int(r)
        if r < 1:
            raise ValueError("r must be >= 1")
        reduced = tuple(int(a) % r for a in a_list)
        if r == 1:
            if reduced:
                raise ValueError("type 1/1 must have an empty weight list")
        else:
            if not reduced:
                raise InputError("at least one weight is required when r > 1")
            if any(a == 0 for a in reduced):
                raise ValueError(f"weights must be nonzero modulo r={r}")
            if gcd(r, *reduced) != 1:
                raise ValueError(
                    f"non-effective action: a factor of r={r} divides all weights"
                )
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a_list", reduced)

    @property
    def n(self) -> int:
        return len(self.a_list)

    @property
    def s_list(self) -> tuple[int, ...]:
        """gcd(a_i, r) for each weight; all 1 iff the point is isolated."""
        return tuple(gcd(a, self.r) for a in self.a_list)

    @property
    def is_isolated(self) -> bool:
        return all(s == 1 for s in self.s_list)

    def label(self) -> str:
        return f"1/{self.r}({','.join(str(a) for a in self.a_list)})"

    def __str__(self) -> str:
        return self.label()

    @classmethod
    def parse(cls, text: str) -> "OrbifoldType":
        """Parse a type written as ``1/r(a1,...,an)``, e.g. ``1/3(1,2,2)``."""
        m = _TYPE_RE.match(text.strip())
        if not m:
            raise InputError(f"cannot parse orbifold type: {text!r}")
        r = int(m.group(1))
        if r < 1:
            raise InputError(f"orbifold type {text!r} needs r >= 1")
        body = m.group(2).strip()
        a_list = tuple(int(x) for x in body.split(",")) if body else ()
        return cls(r, a_list)


@dataclass(frozen=True)
class SigmaVector:
    """The r Dedekind sums sigma_0..sigma_(r-1), extended r-periodically."""

    r: int
    values: tuple[Fraction, ...]

    def __init__(self, r: int, values: Sequence[Fraction]):
        values = tuple(Fraction(v) for v in values)
        if len(values) != r:
            raise ValueError("need exactly r values")
        if sum(values, Fraction(0)) != 0:
            raise ValueError("Dedekind sums must sum to zero")
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "values", values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i % self.r]

    def __iter__(self):
        return iter(self.values)


@lru_cache(maxsize=32)  # types recur close together: sigma, then porb_minus_dedekind
def delta(Q: OrbifoldType) -> LaurentPoly:
    """Dedekind sum polynomial Delta = h t * InvMod(h t A, F, 0), support in [1, r]."""
    if Q.r == 1:
        return LaurentPoly()
    md = build_modulus(Q.r, Q.a_list)
    ht = md.h.shift(1)
    inner = inv_mod(ht * md.A, md.F, 0, Q.r)
    return ht * inner


def sigma(Q: OrbifoldType) -> SigmaVector:
    """Dedekind sums read off from Delta: sigma_(r-i) is the coeff of t^i."""
    d = delta(Q)
    r = Q.r
    values = [d.coeff(r - i if i else r) for i in range(r)]
    return SigmaVector(r, values)


def sigma_surface_closed(r: int, a: int) -> SigmaVector:
    """Closed form for the surface type (1/r)(a, r-a) with gcd(a, r) = 1:

        sigma_i = (r^2 - 1)/(12 r) - bi_bar (r - bi_bar) / (2 r),

    where b is the inverse of a modulo r and bi_bar the least nonnegative
    residue of b*i modulo r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if gcd(a, r) != 1:
        raise ValueError(f"a={a} must be coprime to r={r}")
    b = integer_inverse(a, r)
    base = Fraction(r * r - 1, 12 * r)
    values = []
    for i in range(r):
        bi = (b * i) % r
        values.append(base - Fraction(bi * (r - bi), 2 * r))
    return SigmaVector(r, values)
