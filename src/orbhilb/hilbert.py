"""Hilbert series construction and the orbifold Riemann-Roch parse.

The central operation is `parse_main`: given a Gorenstein-symmetric
Hilbert series P of a polarized n-fold of canonical weight k and a basket
of orbifold points, split

    P = P_I + sum of multiplicities * P_orb(Q, k) + sum x_j * columns[j],

where the initial part P_I = A(t)/(1-t)^(n+1) has A integral and
palindromic of degree c = k+n+1 (P_I = 0 when c < 0).  Points on curve
strata take the generalized ice cream form; the parts of the
positive-dimensional strata themselves are given as columns whose
coefficients x_j are found by exact linear solve (see `cy3` for the
curve columns of a Calabi-Yau 3-fold).  The parse is a verification
tool: a wrong basket, a non-Gorenstein input or a stratum with no column
shows up as a named check failure with the offending residual attached.

Also here: the unique initial part from the first floor(c/2)+1 plurigenera,
the decomposition of A/(1-t)^(n+1) into integral combinations of standard
binomial terms, and the classical closed forms for K3 surfaces and Q-Fano
3-folds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Iterable, Sequence

from .dedekind import OrbifoldType, sigma_surface_closed
from .exactpoly import (
    ExactDivisionError,
    InputError,
    LaurentPoly,
    MathCheckError,
    RationalFn,
    SeriesWindow,
    expand,
    fn_sum,
    is_gorenstein_symmetric,
    is_palindromic,
    times_binomials,
)
from .icecream import OrbifoldPart, p_orb

__all__ = [
    "DecompositionError",
    "Decomposition",
    "Basket",
    "normalize_basket",
    "hilbert_ci",
    "parse_main",
    "initial_from_plurigenera",
    "binom_decompose",
    "binom_reassemble",
    "k3_series",
    "fano3_series",
    "degree_from_decomposition",
]

# basket = multiset of orbifold point types, as (type, multiplicity) pairs
Basket = Sequence[tuple[OrbifoldType, int]]


class DecompositionError(MathCheckError):
    """A decomposition check failed (wrong basket or bad input)."""


def normalize_basket(
    basket: Iterable[OrbifoldType | tuple[OrbifoldType, int]],
) -> tuple[tuple[OrbifoldType, int], ...]:
    out: list[tuple[OrbifoldType, int]] = []
    for entry in basket:
        if isinstance(entry, OrbifoldType):
            q, mult = entry, 1
        else:
            q, mult = entry
        if mult < 0:
            raise ValueError("basket multiplicities must be nonnegative")
        out.append((q, int(mult)))
    return tuple(out)


@dataclass(frozen=True)
class Decomposition:
    """Named parts whose sum equals the input Hilbert series exactly."""

    initial: RationalFn
    orbifold_parts: tuple[tuple[OrbifoldPart, int], ...]
    k: int
    n: int
    c: int
    irregularity: LaurentPoly | None = None
    # (column, solved coefficient) per column of a positive-dimensional stratum
    strata_parts: tuple[tuple[RationalFn, Fraction], ...] = ()

    @property
    def initial_numerator(self) -> LaurentPoly:
        return self.initial.num

    def total(self) -> RationalFn:
        extra = () if self.irregularity is None else (RationalFn(self.irregularity, ()),)
        return fn_sum((
            self.initial,
            *extra,
            *(p.fn * m for p, m in self.orbifold_parts),
            *(col * x for col, x in self.strata_parts),
        ))


def hilbert_ci(
    weights: Sequence[int], degrees: Sequence[int] = ()
) -> tuple[RationalFn, int, int]:
    """Hilbert series of a weighted complete intersection.

    Returns (P, k, n) with P = prod(1-t^d) / prod(1-t^a), canonical weight
    k = sum(d) - sum(a), and dimension n = #weights - 1 - #degrees.
    """
    weights = tuple(int(a) for a in weights)
    degrees = tuple(int(d) for d in degrees)
    if not weights or any(a < 1 for a in weights):
        raise InputError("weights must be a nonempty list of positive integers")
    if any(d < 1 for d in degrees):
        raise InputError("degrees must be positive integers")
    n = len(weights) - 1 - len(degrees)
    if n < 1:
        raise InputError(f"dimension n = {n} must be >= 1")
    k = sum(degrees) - sum(weights)
    return RationalFn(times_binomials(LaurentPoly.term(1), degrees), weights), k, n


def parse_main(
    P: RationalFn,
    n: int,
    k: int,
    basket: Basket,
    irregularity: LaurentPoly | None = None,
    columns: Sequence[RationalFn] = (),
) -> Decomposition:
    """Split P into initial part plus ice cream, verifying every claim.

    Every basket point, isolated or on a curve stratum, takes its part
    from `p_orb`, which checks the weight congruence first.
    `columns` are the parts of positive-dimensional strata, vanishing
    through t^floor(c/2); their coefficients are solved exactly once the
    initial part is read off the plurigenera.  Raises DecompositionError
    naming the failed check (gorenstein_symmetry, linear_solve,
    residual_denominator, initial_vanishing, integrality, palindromy) and
    carrying the offending residual.
    """
    working = P
    if irregularity is not None and not irregularity.is_zero:
        if irregularity.degree > k:
            warnings.warn(
                f"irregularity polynomial has degree {irregularity.degree} > k = {k}",
                stacklevel=2,
            )
        working = working - RationalFn(irregularity, ())
    # the irregularity breaks the symmetry of P itself; P - J must have it
    if not is_gorenstein_symmetric(working, k, n):
        raise DecompositionError(
            f"input series is not Gorenstein symmetric of degree {k} in dimension {n}",
            check="gorenstein_symmetry",
            residual=working,
        )
    entries = normalize_basket(basket)
    parts = tuple((p_orb(q, k, n), mult) for q, mult in entries)
    residual = fn_sum((working, *(part.fn * -mult for part, mult in parts)))
    c = k + n + 1
    strata: tuple[tuple[RationalFn, Fraction], ...] = ()
    if columns:
        initial = RationalFn(LaurentPoly(), ())  # P_I = 0 when c < 0
        if c >= 0:
            initial = initial_from_plurigenera(expand(working, c // 2), k, n)
        sol = _solve_exact(columns, residual - initial, "parse_main")
        strata = tuple(zip(columns, sol))
        residual = fn_sum((residual, *(col * -x for col, x in strata)))
    try:
        A = times_binomials(residual.num, (1,) * (n + 1), residual.den)
    except ExactDivisionError:
        raise DecompositionError(
            "residual is not of the form A(t)/(1-t)^(n+1); wrong basket, or the "
            "variety has positive-dimensional orbifold strata",
            check="residual_denominator",
            residual=residual.simplify(),
        ) from None
    if c < 0:
        if not A.is_zero:
            raise DecompositionError(
                f"coindex c = {c} < 0 forces a zero initial part, got {A}",
                check="initial_vanishing",
                residual=A,
            )
    else:
        if not A.is_integral:
            raise DecompositionError(
                f"initial numerator is not integral: {A}",
                check="integrality",
                residual=A,
            )
        in_range = A.is_zero or (A.valuation >= 0 and A.degree <= c)
        if not (in_range and is_palindromic(A, c)):
            raise DecompositionError(
                f"initial numerator is not palindromic of degree c = {c}: {A}",
                check="palindromy",
                residual=A,
            )
    return Decomposition(
        initial=RationalFn(A, (1,) * (n + 1)),
        orbifold_parts=parts,
        k=k,
        n=n,
        c=c,
        irregularity=irregularity,
        strata_parts=strata,
    )


def _solve_exact(
    columns: Sequence[RationalFn], target: RationalFn, what: str
) -> list[Fraction]:
    """Solve sum x_j columns[j] == target exactly over one common denominator;
    unique solution required."""
    den = target.den.lcm(*[fn.den for fn in columns])
    nums = [fn.over(den) for fn in columns]
    rhs = target.over(den)
    exps: set[int] = set(rhs._terms)
    for c in nums:
        exps |= set(c._terms)
    rows = [[c.coeff(e) for c in nums] + [rhs.coeff(e)] for e in sorted(exps)]
    ncols = len(columns)
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    if r < ncols:
        raise DecompositionError(
            f"{what}: linear system is underdetermined (rank {r} < {ncols} unknowns)",
            check="linear_solve",
        )
    if any(all(x == 0 for x in row[:ncols]) and row[ncols] != 0 for row in rows):
        raise DecompositionError(
            f"{what}: linear system is inconsistent; the strata data do not "
            "match the series",
            check="linear_solve",
        )
    sol = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        sol[col] = rows[i][ncols]
    return sol


def initial_from_plurigenera(window: SeriesWindow, k: int, n: int) -> RationalFn:
    """The unique A(t)/(1-t)^(n+1) with A integral palindromic of degree
    c = k+n+1 whose series matches the given plurigenera through floor(c/2).

    The window must supply integer coefficients for degrees 0..floor(c/2);
    matching coefficients of (1-t)^(n+1) * P_I gives a triangular system
    for the lower half of A, and palindromy supplies the rest.
    """
    c = k + n + 1
    if c < 0:
        if any(v != 0 for _, v in window):
            raise DecompositionError(
                f"coindex c = {c} < 0 but plurigenera are not all zero",
                check="initial_vanishing",
            )
        return RationalFn(LaurentPoly(), (1,) * (n + 1))
    half = c // 2
    if window.start > 0 or window.start + len(window.coeffs) - 1 < half:
        raise ValueError(f"window must cover degrees 0..{half}")
    values = []
    for m in range(half + 1):
        v = window.coeff(m)
        if v.denominator != 1:
            raise DecompositionError(
                f"plurigenus P_{m} = {v} is not an integer", check="integrality"
            )
        values.append(v)
    lower: list[Fraction] = []
    for m in range(half + 1):
        acc = values[m]
        for i in range(m):
            acc -= lower[i] * comb(m - i + n, n)
        lower.append(acc)
    terms = {}
    for i, v in enumerate(lower):
        terms[i] = v
        terms[c - i] = v
    return RationalFn(LaurentPoly(terms), (1,) * (n + 1))


def _standard_numerator(nu: int, k: int, n: int) -> LaurentPoly:
    # t^((nu+k+1)/2) when n and k have opposite parity, else (1+t) t^((nu+k)/2)
    if (n - k) % 2 == 1:
        e, rem = divmod(nu + k + 1, 2)
        assert rem == 0
        return LaurentPoly.term(1, e)
    e, rem = divmod(nu + k, 2)
    assert rem == 0
    return LaurentPoly({e: 1, e + 1: 1})


def binom_decompose(A: LaurentPoly, k: int, n: int) -> tuple[tuple[int, int], ...]:
    """Integer coefficients b_nu expressing A/(1-t)^(n+1) as an integral
    combination of standard Gorenstein-symmetric terms.

    The terms run over nu == n mod 2, from n down to the last value whose
    numerator exponent stays nonnegative (-k for odd coindex, -k-1 for
    even); the term of index nu is t^((nu+k+1)/2)/(1-t)^(nu+1) when
    n != k mod 2 and (1+t)t^((nu+k)/2)/(1-t)^(nu+1) when n == k mod 2.
    Returns (nu, b_nu) pairs; the zero polynomial gives an empty tuple.
    """
    if A.is_zero:
        return ()
    c = k + n + 1
    in_range = A.valuation >= 0 and A.degree <= c
    if not (A.is_integral and in_range and is_palindromic(A, c)):
        raise DecompositionError(
            f"numerator is not integral palindromic of degree c = {c}: {A}",
            check="palindromy",
            residual=A,
        )
    nu_min = -k if (-k - n) % 2 == 0 else -k - 1
    out: list[tuple[int, int]] = []
    R = A
    for nu in range(n, nu_min - 1, -2):
        numer = _standard_numerator(nu, k, n)
        b = R.at_one() / numer.at_one()
        if b.denominator != 1:
            raise DecompositionError(
                f"coefficient b_{nu} = {b} is not an integer",
                check="integrality",
                residual=R,
            )
        out.append((nu, int(b)))
        R = R - numer * b
        if nu > nu_min:
            try:
                R = times_binomials(R, (), (1, 1))
            except ExactDivisionError:
                raise DecompositionError(
                    "peeling failed: residual not divisible by (1-t)^2",
                    check="binomial_peel",
                    residual=R,
                ) from None
    if not R.is_zero:
        raise DecompositionError(
            f"binomial decomposition left a nonzero remainder {R}",
            check="binomial_peel",
            residual=R,
        )
    return tuple(out)


def binom_reassemble(
    coeffs: Iterable[tuple[int, int]], k: int, n: int
) -> RationalFn:
    """Sum the standard terms back into a rational function."""
    terms = [RationalFn(LaurentPoly(), (1,))]
    for nu, b in coeffs:
        numer = _standard_numerator(nu, k, n) * b
        if nu + 1 >= 0:
            terms.append(RationalFn(numer, (1,) * (nu + 1)))
        else:
            terms.append(RationalFn(times_binomials(numer, (1,) * (-(nu + 1))), ()))
    return fn_sum(terms)


def _periodic_loss(r: int, a: int) -> RationalFn:
    # sum_{i=1..r-1} (sigma_0 - sigma_i) t^i over 1 - t^r
    sg = sigma_surface_closed(r, a)
    return RationalFn(LaurentPoly({i: sg[0] - sg[i] for i in range(1, r)}), (r,))


def _transverse_series(
    g: int, basket: Sequence[tuple[int, int]], n: int, check: str
) -> tuple[RationalFn, Fraction, Decomposition]:
    """Riemann-Roch series of genus g, canonical weight k = 2 - n, with
    points (r, a) of type (1/r)(1,...,1, a, r-a) (n weights):

        P = (1+t)/(1-t)^(n-1) + (D^n/2)(t+t^2)/(1-t)^(n+1)
            - sum of periodic loss terms / (1-t)^(n-2),

    D^n = 2g - 2 + sum b(r-b)/r (b the inverse of a mod r).  Returns P,
    D^n and the ice cream parse, whose initial numerator must be the genus
    formula 1 + (g-2)(t + t^2) + t^3 (else the named check fails).  The
    genus must be at least 1 - n, as h^0 = g + n - 1 counts sections.
    """
    if g < 1 - n:
        raise InputError(f"genus must be >= {1 - n}")
    for r, a in basket:
        if r < 2 or not 0 < a % r or gcd(a, r) != 1:
            raise ValueError(f"basket entry ({r},{a}) must have 0 < a and gcd(a,r) = 1")
    losses = [_periodic_loss(r, a) for r, a in basket]
    # b(r-b)/r is twice the loss coefficient of t, sigma_0 - sigma_1
    degree = 2 * g - 2 + sum((2 * loss.num.coeff(1) for loss in losses), Fraction(0))
    series = fn_sum((
        RationalFn(LaurentPoly({0: 1, 1: 1}), (1,) * (n - 1)),
        RationalFn(LaurentPoly({1: 1, 2: 1}), (1,) * (n + 1)) * (degree / 2),
        *(RationalFn(-loss.num, loss.den.plus((1,) * (n - 2))) for loss in losses),
    ))
    types = [(OrbifoldType(r, (1,) * (n - 2) + (a, r - a)), 1) for r, a in basket]
    dec = parse_main(series, n=n, k=2 - n, basket=types)
    expected = LaurentPoly({0: 1, 1: g - 2, 2: g - 2, 3: 1})
    if dec.initial_numerator != expected:
        kind = "K3" if n == 2 else "Fano"
        raise MathCheckError(
            f"{kind} initial part {dec.initial_numerator} does not match genus formula",
            check=check,
            residual=dec.initial_numerator,
        )
    return series, degree, dec


def k3_series(
    g: int, basket: Sequence[tuple[int, int]] = ()
) -> tuple[RationalFn, Fraction, Decomposition]:
    """Hilbert series of a polarized K3 surface (n = 2, k = 0) with basket
    of (r, a) points of type (1/r)(a, r-a): returns P, D^2 and the verified
    ice cream parse (see `_transverse_series`)."""
    return _transverse_series(g, basket, 2, "k3_initial")


def fano3_series(
    g: int, basket: Sequence[tuple[int, int]] = ()
) -> tuple[RationalFn, Fraction, Decomposition]:
    """Anticanonical Hilbert series of a Q-Fano 3-fold (n = 3, k = -1) with
    terminal basket of points (1/r)(1, a, r-a): returns P, -K^3 and the
    verified parse; h^0(-K) = g + 2 is checked on the t coefficient."""
    series, minus_k3, dec = _transverse_series(g, basket, 3, "fano_initial")
    p1 = expand(series, 1).coeff(1)
    if p1 != g + 2:
        raise MathCheckError(
            f"h^0(-K) = {p1} does not equal g + 2 = {g + 2}", check="fano_h0"
        )
    return series, minus_k3, dec


def degree_from_decomposition(dec: Decomposition) -> Fraction:
    """Recover the degree D^n = A(1) + sum mult * B_Q(1)/r_Q.

    The orbifold numerators contribute to the leading growth of the
    plurigenera; summing coefficients of the initial numerator alone gives
    the wrong degree whenever the basket is nonempty.
    """
    total = dec.initial_numerator.at_one()
    for part, mult in dec.orbifold_parts:
        total += mult * Fraction(part.numerator.at_one(), part.source.r)
    return total
