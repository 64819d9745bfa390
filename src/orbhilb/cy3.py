"""Calabi-Yau 3-fold decompositions with curve orbifold locus.

Two alternative splittings of the Hilbert series of a polarized CY3
(canonical weight 0, dimension 3) whose orbifold locus consists of curves
C of transverse type (1/s)(a, s-a) and points Q = (1/r)(a1,a2,a3) with
a1+a2+a3 == 0 mod r:

* `cy3_rr_parts` takes the Riemann-Roch route: rational parts with small
  denominators, driven by the geometric inputs D.c2, D^3, the curve
  degrees D.C and one rational prefactor per curve.  The parts are

      I   = 1 + (D.c2/12) t/(1-t)^2 + (D^3/6)(t+4t^2+t^3)/(1-t)^4
      II  = Delta(Q)/(1-t^r)                          per point
      III = DC * ( s t^s Delta/(1-t^s)^2 + t Delta'/(1-t^s)
                   - sigma_0 t/(1-t)^2 )              per curve
      IV  = prefactor * B/(1-t^s)                     per curve

  with Delta, sigma_0 the Dedekind data of the transverse type and B the
  unique polynomial supported in [1, s-1] with
  (1-t^a)^2 (1-t^(s-a))^2 B == t^a - t^(s-a) mod (1-t^s)/(1-t).
  `cy3_rr_fit` recovers the scalar inputs from the series instead, by
  exact linear solve on the low-degree coefficients.  `check_reassembly`
  is the one test that parts sum to the series: `cy3_rr_fit` applies it
  to its fit, and a caller with explicit scalars applies it to the parts.

* `cy3_ice_parts` produces the integral Gorenstein-symmetric splitting
  P = P_I + sum P_orb(Q, 0) + sum A_C + sum B_C, where A_C is
  delta_C * P_orb((1/s)(a,s-a), s)/(1-t^s) with an integer delta_C, and
  Num B_C is integral palindromic of degree s+3 supported in [3, s].
  The split is `hilbert.parse_main` with the A_C and B_C basis as its
  strata columns: it solves the unknowns (delta_C and the Num B_C
  coefficients) exactly over Q and checks that the rest is an integral
  palindromic initial part; the integrality of each curve's unknowns is
  verified here afterwards.  Dissident points are absorbed by the
  generalized ice cream at the point strata.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .dedekind import OrbifoldType, delta, sigma
from .exactpoly import InputError, LaurentPoly, RationalFn, fn_sum, times_binomials
from .hilbert import (
    Basket,
    DecompositionError,
    _solve_exact,
    normalize_basket,
    parse_main,
)
from .icecream import OrbifoldPart, p_orb
from .invmod import inv_mod

__all__ = [
    "CurveStratum",
    "CY3Parts",
    "CY3IceParts",
    "CurveIcePart",
    "cy3_rr_parts",
    "cy3_rr_fit",
    "check_reassembly",
    "cy3_ice_parts",
    "iv_numerator",
]


@dataclass(frozen=True)
class CurveStratum:
    """A curve of the orbifold locus, with its Riemann-Roch scalars.

    `dc` is the degree of the polarization on the curve; `iv_prefactor`
    is the single rational N_C/(72 s tau_C) multiplying part IV (it
    flips sign under a <-> s-a, and is irrelevant when s = 2, where
    B = 0 identically).
    """

    s: int
    a: int
    dc: Fraction = Fraction(0)
    iv_prefactor: Fraction = Fraction(0)

    def __post_init__(self):
        if self.s < 2:
            raise InputError("curve transverse period s must be >= 2")
        a = self.a % self.s
        if a == 0 or gcd(a, self.s) != 1:
            raise ValueError(f"transverse type 1/{self.s}({self.a},..) must have gcd(a,s)=1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "dc", Fraction(self.dc))
        object.__setattr__(self, "iv_prefactor", Fraction(self.iv_prefactor))

    @property
    def transverse_type(self) -> OrbifoldType:
        return OrbifoldType(self.s, (self.a, self.s - self.a))


@dataclass(frozen=True)
class CY3Parts:
    """Riemann-Roch parts; their sum is the Hilbert series."""

    part_i: RationalFn
    part_ii: tuple[tuple[OrbifoldType, int, RationalFn], ...]
    part_iii: tuple[tuple[CurveStratum, RationalFn], ...]
    part_iv: tuple[tuple[CurveStratum, RationalFn], ...]
    dc2: Fraction
    d3: Fraction

    def total(self) -> RationalFn:
        return fn_sum((
            self.part_i,
            *(fn * mult for _, mult, fn in self.part_ii),
            *(fn for _, fn in self.part_iii),
            *(fn for _, fn in self.part_iv),
        ))


def iv_numerator(s: int, a: int) -> LaurentPoly:
    """The part-IV numerator B, supported in [1, s-1], determined by

        (1-t^a)^2 (1-t^(s-a))^2 B == t^a - t^(s-a)  mod (1-t^s)/(1-t).

    Computed as the difference of two InverseMods in the window [1, s-1];
    B == 0 when s = 2 and B flips sign under a <-> s-a.
    """
    Fs = LaurentPoly.geometric(s)
    a1 = times_binomials(LaurentPoly.term(1), (a, a, s - a))
    a2 = times_binomials(LaurentPoly.term(1), (a, s - a, s - a))
    return inv_mod(a1, Fs, 1, s) - inv_mod(a2, Fs, 1, s)


def _part_i(dc2: Fraction, d3: Fraction) -> RationalFn:
    return fn_sum((
        RationalFn(LaurentPoly.term(1), ()),
        RationalFn(LaurentPoly.term(1, 1), (1, 1)) * (Fraction(dc2) / 12),
        RationalFn(LaurentPoly({1: 1, 2: 4, 3: 1}), (1, 1, 1, 1)) * (Fraction(d3) / 6),
    ))


def _part_iii(curve: CurveStratum) -> RationalFn:
    q = curve.transverse_type
    d = delta(q)
    s = curve.s
    s0 = sigma(q)[0]
    growth = RationalFn(d.shift(s) * s, (s, s)) + RationalFn(d.derivative().shift(1), (s,))
    return (growth - RationalFn(LaurentPoly.term(s0, 1), (1, 1))) * curve.dc


def _check_points(points: Basket) -> tuple[tuple[OrbifoldType, int], ...]:
    entries = normalize_basket(points)
    for q, _ in entries:
        if q.n != 3:
            raise InputError(f"CY3 point {q} must have three weights")
        if sum(q.a_list) % q.r != 0:
            raise ValueError(f"CY3 point {q} must satisfy a1+a2+a3 == 0 mod r")
    return entries


def cy3_rr_parts(
    dc2: Fraction,
    d3: Fraction,
    points: Basket = (),
    curves: Sequence[CurveStratum] = (),
) -> CY3Parts:
    """Assemble the four Riemann-Roch part families from geometric inputs.

    The caller supplies D.c2, D^3, and per curve the degree and the part-IV
    prefactor; use `cy3_rr_fit` to recover the scalars from the series when
    only the strata are known.  Nothing is checked against a series here;
    `check_reassembly` does that.
    """
    entries = _check_points(points)
    part_ii = tuple(
        (q, mult, RationalFn(delta(q), (q.r,))) for q, mult in entries
    )
    part_iii = tuple((c, _part_iii(c)) for c in curves)
    part_iv = tuple(
        (c, RationalFn(iv_numerator(c.s, c.a) * c.iv_prefactor, (c.s,))) for c in curves
    )
    return CY3Parts(
        part_i=_part_i(dc2, d3),
        part_ii=part_ii,
        part_iii=part_iii,
        part_iv=part_iv,
        dc2=Fraction(dc2),
        d3=Fraction(d3),
    )


def cy3_rr_fit(
    P: RationalFn,
    points: Basket = (),
    curves: Sequence[CurveStratum] = (),
) -> CY3Parts:
    """Recover D.c2, D^3 and the part-IV prefactors from the series.

    Curve degrees must be supplied on the strata; the scalars are the
    unique solution making I + II + III + IV equal P, found by exact
    linear solve and then verified by exact identity.
    """
    # every piece is computed once: with D.c2 = D^3 = 0 and unit prefactors,
    # part I is 1 and the part-IV functions are the prefactors' columns
    unit = cy3_rr_parts(0, 0, points, [CurveStratum(c.s, c.a, c.dc, 1) for c in curves])
    residual = fn_sum((
        P,
        -unit.part_i,
        *(fn * -mult for _, mult, fn in unit.part_ii),
        *(-fn for _, fn in unit.part_iii),
    ))
    ivs = [fn for _, fn in unit.part_iv]
    columns = [
        RationalFn(LaurentPoly.term(1, 1), (1, 1)),
        RationalFn(LaurentPoly({1: 1, 2: 4, 3: 1}), (1, 1, 1, 1)),
        *(fn for fn in ivs if fn.num),
    ]
    sol = _solve_exact(columns, residual, "cy3_rr_fit")
    dc2, d3 = sol[0] * 12, sol[1] * 6
    prefs = iter(sol[2:])
    fitted = [
        CurveStratum(c.s, c.a, c.dc, next(prefs) if fn.num else Fraction(0))
        for c, fn in zip(curves, ivs)
    ]
    return check_reassembly(P, CY3Parts(
        part_i=_part_i(dc2, d3),
        part_ii=unit.part_ii,
        part_iii=tuple((c, fn) for c, (_, fn) in zip(fitted, unit.part_iii)),
        part_iv=tuple((c, fn * c.iv_prefactor) for c, fn in zip(fitted, ivs)),
        dc2=dc2,
        d3=d3,
    ))


def check_reassembly(P: RationalFn, parts: CY3Parts) -> CY3Parts:
    """Return `parts` if they sum to P exactly, else raise DecompositionError
    (check "reassembly") with the difference as residual."""
    mismatch = P - parts.total()
    if not mismatch.is_zero:
        raise DecompositionError(
            "Riemann-Roch parts do not reassemble the series; the strata data or "
            "the scalars are wrong",
            check="reassembly",
            residual=mismatch.simplify(),
        )
    return parts


@dataclass(frozen=True)
class CurveIcePart:
    """Integral curve contribution: A_C = delta_c * P_orb/(1-t^s), plus B_C."""

    stratum: CurveStratum
    delta_c: int
    a_part: RationalFn
    b_numerator: LaurentPoly
    b_part: RationalFn


@dataclass(frozen=True)
class CY3IceParts:
    """Integral Gorenstein-symmetric splitting of a CY3 Hilbert series."""

    initial: RationalFn
    point_parts: tuple[tuple[OrbifoldPart, int], ...]
    curve_parts: tuple[CurveIcePart, ...]

    def total(self) -> RationalFn:
        curves = (fn for cp in self.curve_parts for fn in (cp.a_part, cp.b_part))
        return fn_sum((self.initial, *(p.fn * m for p, m in self.point_parts), *curves))


def _b_support(s: int) -> list[tuple[int, LaurentPoly]]:
    # palindromic basis monomials of degree s+3 with support in [3, s]
    out = []
    for e in range(3, (s + 3) // 2 + 1):
        m = s + 3 - e
        out.append((e, LaurentPoly({e: 1}) if m == e else LaurentPoly({e: 1, m: 1})))
    return out


def cy3_ice_parts(
    P: RationalFn,
    points: Basket = (),
    curves: Sequence[tuple[int, int] | CurveStratum] = (),
) -> CY3IceParts:
    """Split a CY3 Hilbert series into integral Gorenstein-symmetric parts.

    `parse_main` with k = 0, n = 3 does the split: point parts are
    generalized ice cream (dissident points included), and per curve (s, a)
    the A_C column and the palindromic Num B_C basis (symmetric degree
    s+3, support [3, s]) are its strata columns, whose coefficients it
    solves exactly.  Non-integral delta_C or Num B_C coefficients raise
    DecompositionError: the strata data are wrong.
    """
    strata = [c if isinstance(c, CurveStratum) else CurveStratum(c[0], c[1]) for c in curves]
    seen: set[int] = set()
    for c in strata:
        if c.s in seen:
            raise DecompositionError(
                f"two curve strata share the transverse period s = {c.s}; "
                "the recombination solve is not well posed",
                check="duplicate_period",
            )
        seen.add(c.s)
    entries = _check_points(points)

    columns: list[RationalFn] = []
    for c in strata:
        pb = p_orb(c.transverse_type, c.s, 2)
        columns.append(RationalFn(pb.numerator, pb.fn.den.plus((c.s,))))
        columns.extend(RationalFn(mono, (1, 1, 1, c.s)) for _, mono in _b_support(c.s))
    dec = parse_main(P, 3, 0, entries, columns=columns)

    solved = iter(dec.strata_parts)
    curve_parts: list[CurveIcePart] = []
    for c in strata:
        a_column, dc = next(solved)
        if dc.denominator != 1:
            raise DecompositionError(
                f"delta for the 1/{c.s} curve is not an integer: {dc}",
                check="integrality",
            )
        b_num = LaurentPoly()
        for e, mono in _b_support(c.s):
            _, v = next(solved)
            if v.denominator != 1:
                raise DecompositionError(
                    f"Num B coefficient t^{e} for the 1/{c.s} curve is not an "
                    f"integer: {v}",
                    check="integrality",
                )
            b_num = b_num + mono * v
        b_part = RationalFn(b_num, (1, 1, 1, c.s))
        curve_parts.append(CurveIcePart(c, int(dc), a_column * dc, b_num, b_part))
    return CY3IceParts(
        initial=dec.initial, point_parts=dec.orbifold_parts, curve_parts=tuple(curve_parts)
    )
