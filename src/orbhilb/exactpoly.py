"""Exact arithmetic kernel: sparse Laurent polynomials over Q and rational
functions whose denominators are products of binomials 1 - t^a.

Everything here is exact.  Coefficients are `fractions.Fraction`, no
floating point is used anywhere, and equality of rational functions is
decided by comparing both numerators over a common denominator.  All
values are immutable after construction and safe to share between threads.

Conventions:

* A Laurent polynomial is a finite map {exponent: coefficient} with
  integer exponents of either sign.  Zero coefficients are never stored;
  the empty map is the zero polynomial.
* A denominator (`DenomSpec`) is a multiset of positive integers, an entry
  ``a`` standing for the factor ``1 - t^a``.  Denominators stay factored
  and are never expanded.  Every product, quotient and sum over them is
  computed here, on (int list, valuation, common denominator) triples:
  `times_binomials` multiplies by binomials (stride-a differences) and
  divides exactly by others (stride-b running sums), and `fn_sum` adds
  numerators over the lcm of their denominators in one pass.  `exact_div`
  is long division, for divisors of any shape.
* ``RationalFn(num, den)`` need not be in lowest terms.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Mapping, Union

Rational = Fraction
Coeff = Union[int, Fraction]

__all__ = [
    "Rational",
    "LaurentPoly",
    "DenomSpec",
    "RationalFn",
    "SeriesWindow",
    "ExactDivisionError",
    "MathCheckError",
    "SeriesExpansionError",
    "InputError",
    "poly_divmod",
    "exact_div",
    "times_binomials",
    "fn_sum",
    "divides",
    "poly_gcd",
    "poly_ext_gcd",
    "reduce_to_window",
    "expand",
    "is_palindromic",
    "is_gorenstein_symmetric",
]


class ExactDivisionError(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


class MathCheckError(ArithmeticError):
    """An exact mathematical invariant check failed.

    `check` names the failed invariant; `residual` carries the offending
    value (usually a LaurentPoly or RationalFn) when there is one.
    """

    def __init__(self, message: str, *, check: str | None = None, residual=None):
        super().__init__(message)
        self.check = check
        self.residual = residual


class SeriesExpansionError(ValueError):
    """The rational function has no power-series expansion at t = 0."""


class InputError(ValueError):
    """Malformed textual input (polynomial or basket grammar)."""


def _as_fraction(c: Coeff) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


class LaurentPoly:
    """Sparse Laurent polynomial with Fraction coefficients.

    Immutable; arithmetic returns new instances.  The zero polynomial has
    an empty term map and no degree/valuation.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Coeff] | Iterable[tuple[int, Coeff]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for e, c in items:
            c = _as_fraction(c)
            if c:
                s = acc.get(e)
                if s is None:
                    acc[e] = c
                else:
                    s = s + c
                    if s:
                        acc[e] = s
                    else:
                        del acc[e]
        object.__setattr__(self, "_terms", acc)

    # -- constructors ------------------------------------------------

    @classmethod
    def term(cls, coeff: Coeff, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def one_minus(cls, a: int) -> "LaurentPoly":
        """The binomial 1 - t^a."""
        if a == 0:
            return cls()
        return cls({0: 1, a: -1})

    @classmethod
    def geometric(cls, a: int) -> "LaurentPoly":
        """1 + t + ... + t^(a-1), i.e. (1 - t^a)/(1 - t)."""
        return cls({e: 1 for e in range(a)})

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def degree(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(self._terms)

    @property
    def valuation(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no valuation")
        return min(self._terms)

    def coeff(self, exp: int) -> Fraction:
        return self._terms.get(exp, Fraction(0))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._terms.items()))

    @property
    def is_polynomial(self) -> bool:
        """True if no exponent is negative."""
        return all(e >= 0 for e in self._terms)

    @property
    def is_integral(self) -> bool:
        """True if every coefficient is an integer."""
        return all(c.denominator == 1 for c in self._terms.values())

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "LaurentPoly | Coeff") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.term(other)
        acc = dict(self._terms)
        for e, c in other._terms.items():
            s = acc.get(e, Fraction(0)) + c
            if s:
                acc[e] = s
            else:
                acc.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_terms", acc)
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_terms", {e: -c for e, c in self._terms.items()})
        return out

    def __sub__(self, other: "LaurentPoly | Coeff") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.term(other)
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "LaurentPoly":
        return LaurentPoly.term(other) - self

    def __mul__(self, other: "LaurentPoly | Coeff") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            c = _as_fraction(other)
            if not c:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            object.__setattr__(out, "_terms", {e: v * c for e, v in self._terms.items()})
            return out
        acc: dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = acc.get(e, Fraction(0)) + c1 * c2
                if s:
                    acc[e] = s
                else:
                    acc.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_terms", acc)
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = LaurentPoly.term(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- structural operations ---------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k (shift all exponents by k)."""
        if k == 0:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_terms", {e + k: c for e, c in self._terms.items()})
        return out

    def mirror(self) -> "LaurentPoly":
        """Substitute t -> 1/t (negate all exponents)."""
        out = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(out, "_terms", {-e: c for e, c in self._terms.items()})
        return out

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly({e - 1: c * e for e, c in self._terms.items() if e != 0})

    def monic(self) -> "LaurentPoly":
        if not self._terms:
            return self
        return self * (1 / self._terms[self.degree])

    def at_one(self) -> Fraction:
        """Sum of coefficients, i.e. the value at t = 1."""
        return sum(self._terms.values(), Fraction(0))

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            neg = c < 0
            a = -c if neg else c
            if e == 0:
                body = str(a)
            else:
                tpart = "t" if e == 1 else f"t^{e}"
                body = tpart if a == 1 else f"{a}{tpart}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"

    _TERM_RE = re.compile(
        r"\s*([+-])?\s*(?:(\d+(?:\s*/\s*\d+)?)\s*\*?\s*)?(t(?:\s*\^\s*(-?\d+))?)?"
    )

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse a signed monomial sum such as ``1 - 2t + 3/7t^2 + t^-4``."""
        terms: list[tuple[int, Fraction]] = []
        pos, n = 0, len(text)
        first = True
        while pos < n:
            m = cls._TERM_RE.match(text, pos)
            if not m or m.end() == pos:
                raise InputError(f"cannot parse polynomial at: {text[pos:]!r}")
            sign, coeff, tpart, exp = m.groups()
            if coeff is None and tpart is None:
                if text[pos:].strip() == "":
                    break
                raise InputError(f"cannot parse polynomial at: {text[pos:]!r}")
            if sign is None and not first:
                raise InputError(f"missing sign between terms in: {text!r}")
            try:
                c = Fraction(coeff.replace(" ", "")) if coeff else Fraction(1)
            except ZeroDivisionError:
                raise InputError(f"zero denominator in coefficient: {coeff!r}") from None
            if sign == "-":
                c = -c
            if tpart is None:
                e = 0
            else:
                e = int(exp) if exp is not None else 1
            terms.append((e, c))
            pos = m.end()
            first = False
        if first:
            raise InputError(f"empty polynomial: {text!r}")
        return cls(terms)


_ZERO = LaurentPoly()
_ONE = LaurentPoly.term(1)


def _to_ints(p: LaurentPoly) -> tuple[list[int], int, int]:
    """(x, v, den) with p = sum x[i]/den t^(v+i): the coefficients from the
    valuation to the degree over their least common denominator."""
    terms = p._terms
    if not terms:
        return [], 0, 1
    v = min(terms)
    # star-arguments from lists: a generator's argument tuple is resized, and
    # resized tuples pile up on CPython's tuple free lists (peak RSS grows)
    den = lcm(*[c.denominator for c in terms.values()])
    x = [0] * (max(terms) - v + 1)
    for e, c in terms.items():
        x[e - v] = c.numerator * (den // c.denominator)
    return x, v, den


def _from_ints(x: list[int], v: int = 0, den: int = 1) -> LaurentPoly:
    """The Laurent polynomial sum x[i]/den t^(v+i)."""
    if den == 1:
        terms = {v + i: Fraction(c) for i, c in enumerate(x) if c}
    else:
        terms = {v + i: Fraction(c, den) for i, c in enumerate(x) if c}
    out = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(out, "_terms", terms)
    return out


def _div_one_minus(x: list[int], b: int) -> list[int] | None:
    """x / (1 - t^b) by a stride-b running sum, or None when the sum's top b
    terms, its remainder, are not all zero."""
    q = list(x)
    for k in range(b, len(q)):
        q[k] += q[k - b]
    n = max(len(x) - b, 0)
    return None if any(q[n:]) else q[:n]


def _binomial_pass(
    x: list[int], up: Iterable[int], down: Iterable[int] = (), v: int = 0, den: int = 1
) -> list[int]:
    """x * prod_(a in up) (1 - t^a) / prod_(b in down) (1 - t^b) on a coefficient
    list, every a and b positive; (v, den) place x as in `_from_ints` for the
    message of the ExactDivisionError raised when a quotient is not exact."""
    for a in up:
        if a < 1:
            raise ValueError(f"binomial exponent {a} must be positive")
        y = x + [0] * a
        y[a:] = [c - d for c, d in zip(y[a:], x)]
        x = y
    for b in down:
        if b < 1:
            raise ValueError(f"binomial exponent {b} must be positive")
        q = _div_one_minus(x, b)
        if q is None:
            raise ExactDivisionError(
                f"({LaurentPoly.one_minus(b)}) does not divide ({_from_ints(x, v, den)})"
            )
        x = q
    return x


def times_binomials(
    p: LaurentPoly, up: Iterable[int] = (), down: Iterable[int] = ()
) -> LaurentPoly:
    """p * prod_(a in up) (1 - t^a) / prod_(b in down) (1 - t^b), in one pass on
    integers: the products first, then the quotients in the order given, each
    of which raises ExactDivisionError when it leaves a remainder."""
    x, v, den = _to_ints(p)
    return _from_ints(_binomial_pass(x, up, down, v, den), v, den)


def poly_divmod(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Long division a = q*b + r with deg r < deg b, for polynomials."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if not (a.is_polynomial and b.is_polynomial):
        raise ValueError("poly_divmod expects polynomials (no negative exponents)")
    db = b.degree
    lead = b.coeff(db)
    r = dict(a._terms)
    q: dict[int, Fraction] = {}
    while r and max(r) >= db:
        e = max(r)
        f = r[e] / lead
        k = e - db
        q[k] = q.get(k, Fraction(0)) + f
        for eb, cb in b._terms.items():
            s = r.get(k + eb, Fraction(0)) - f * cb
            if s:
                r[k + eb] = s
            else:
                r.pop(k + eb, None)
    return LaurentPoly(q), LaurentPoly(r)


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials; raises if b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return a
    va, vb = a.valuation, b.valuation
    q, r = poly_divmod(a.shift(-va), b.shift(-vb))
    if not r.is_zero:
        raise ExactDivisionError(f"({b}) does not divide ({a})")
    return q.shift(va - vb)


def divides(b: LaurentPoly, a: LaurentPoly) -> bool:
    """True if b divides a exactly (in the Laurent ring)."""
    try:
        exact_div(a, b)
    except ExactDivisionError:
        return False
    return True


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic greatest common divisor of two polynomials (not both zero)."""
    if not (a.is_zero or a.is_polynomial) or not (b.is_zero or b.is_polynomial):
        raise ValueError("poly_gcd expects polynomials (no negative exponents)")
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic()


def poly_ext_gcd(
    a: LaurentPoly, b: LaurentPoly
) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = _ONE, _ZERO
    t0, t1 = _ZERO, _ONE
    while not r1.is_zero:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        raise ValueError("ext_gcd(0, 0) is undefined")
    lead = r0.coeff(r0.degree)
    inv = 1 / lead
    return r0 * inv, s0 * inv, t0 * inv


def reduce_to_window(p: LaurentPoly, F: LaurentPoly, gamma: int) -> LaurentPoly:
    """Fold p into the window [gamma, gamma + deg F - 1] modulo F.

    F must be monic with nonzero constant term.  The result is the unique
    Laurent polynomial congruent to p modulo F (in the Laurent ring, where
    t is invertible) supported in the given window of deg F consecutive
    exponents.  Folding an already-folded value is the identity.

    This is generic remaindering, for any such F; it is the reference the
    tests fold with.  The library's moduli all divide some 1 - t^r, and
    `invmod._fold_to_window` folds those on integer lists instead.
    """
    if F.is_zero or not F.is_polynomial:
        raise ValueError("modulus must be a nonzero polynomial")
    d = F.degree
    if d < 1 or F.coeff(d) != 1 or F.coeff(0) == 0:
        raise ValueError("modulus must be monic of degree >= 1 with nonzero constant term")
    f0 = F.coeff(0)
    r = dict(p._terms)

    def _sub_multiple(f: Fraction, k: int) -> None:
        # subtract f * t^k * F from r
        for eb, cb in F._terms.items():
            e = k + eb
            s = r.get(e, Fraction(0)) - f * cb
            if s:
                r[e] = s
            else:
                r.pop(e, None)

    # raise the valuation up to gamma, using the constant term of F
    while r and min(r) < gamma:
        e = min(r)
        _sub_multiple(r[e] / f0, e)
    # push the degree down to gamma + d - 1, using the leading term
    while r and max(r) > gamma + d - 1:
        e = max(r)
        _sub_multiple(r[e], e - d)
    return LaurentPoly(r)


def is_palindromic(p: LaurentPoly, deg: int) -> bool:
    """True if coeff(t^i) == coeff(t^(deg-i)) for all i."""
    return p.mirror().shift(deg) == p


@dataclass(frozen=True)
class DenomSpec:
    """Multiset of positive integers; entry a means a factor 1 - t^a."""

    factors: tuple[int, ...]

    def __init__(self, factors: Iterable[int] = ()):
        fs = tuple(sorted(int(a) for a in factors))
        if any(a < 1 for a in fs):
            raise ValueError("denominator factors must be positive integers")
        object.__setattr__(self, "factors", fs)

    def lcm(self, *others: "DenomSpec") -> "DenomSpec":
        c = Counter(self.factors)
        for other in others:
            c |= Counter(other.factors)
        return DenomSpec(c.elements())

    def sub(self, other: "DenomSpec") -> "DenomSpec":
        c = Counter(self.factors)
        c.subtract(Counter(other.factors))
        if any(v < 0 for v in c.values()):
            raise ValueError(f"{other} is not a sub-multiset of {self}")
        return DenomSpec(c.elements())

    def plus(self, extra: Iterable[int]) -> "DenomSpec":
        return DenomSpec(self.factors + tuple(extra))

    def __iter__(self) -> Iterator[int]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        c = Counter(self.factors)
        pieces = []
        for a in sorted(c):
            base = "(1-t)" if a == 1 else f"(1-t^{a})"
            pieces.append(base if c[a] == 1 else f"{base}^{c[a]}")
        return " ".join(pieces)


@dataclass(frozen=True)
class SeriesWindow:
    """Coefficients of t^start .. t^(start+len-1) of a series."""

    start: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, start: int, coeffs: Iterable[Coeff]):
        object.__setattr__(self, "start", int(start))
        object.__setattr__(self, "coeffs", tuple(_as_fraction(c) for c in coeffs))

    def coeff(self, m: int) -> Fraction:
        i = m - self.start
        if not 0 <= i < len(self.coeffs):
            raise IndexError(f"degree {m} outside window")
        return self.coeffs[i]

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        return ((self.start + i, c) for i, c in enumerate(self.coeffs))


@dataclass(frozen=True)
class RationalFn:
    """Laurent numerator over a product of (1 - t^a) factors.

    Not required to be in lowest terms; equality compares both numerators
    over the lcm of the two denominators.
    """

    num: LaurentPoly
    den: DenomSpec

    def __init__(self, num: LaurentPoly | Coeff, den: DenomSpec | Iterable[int] = ()):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.term(num)
        if not isinstance(den, DenomSpec):
            den = DenomSpec(den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RationalFn") -> "RationalFn":
        if not isinstance(other, RationalFn):
            return NotImplemented
        return fn_sum((self, other))

    def __sub__(self, other: "RationalFn") -> "RationalFn":
        return self + (-other)

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __mul__(self, other: "LaurentPoly | Coeff") -> "RationalFn":
        return RationalFn(self.num * other, self.den)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        return (self - other).is_zero

    # equality ignores the representation, so no consistent hash exists
    __hash__ = None

    def over(self, den: DenomSpec) -> LaurentPoly:
        """The numerator of self written over `den`, a multiple of self.den."""
        return times_binomials(self.num, den.sub(self.den))

    def simplify(self) -> "RationalFn":
        """Cancel denominator factors 1 - t^a that divide the numerator."""
        x, v, scale = _to_ints(self.num)
        kept: list[int] = []
        for a in self.den:  # a zero numerator keeps no factor
            q = _div_one_minus(x, a)
            if q is None:
                kept.append(a)
            else:
                x = q
        return RationalFn(_from_ints(x, v, scale), kept)

    def __str__(self) -> str:
        if self.num.is_zero:
            return "0"
        num = str(self.num)
        if not self.den.factors:
            return num
        if len(self.num._terms) > 1:
            num = f"({num})"
        return f"{num} / {self.den}"


def fn_sum(fns: Iterable[RationalFn]) -> RationalFn:
    """The sum of rational functions over the lcm of their denominators: each
    numerator is multiplied by the binomials its denominator lacks, scaled to
    one common denominator and added, on integers.  The empty sum is 0."""
    fns = list(fns)
    den = DenomSpec().lcm(*[f.den for f in fns])
    whole = Counter(den.factors)
    parts = []
    scale = 1
    for f in fns:
        x, v, d = _to_ints(f.num)
        if x:
            extra = (whole - Counter(f.den.factors)).elements()
            parts.append((_binomial_pass(x, extra), v, d))
            scale = lcm(scale, d)
    low = min((v for _, v, _ in parts), default=0)
    acc = [0] * (max((v + len(x) for x, v, _ in parts), default=0) - low)
    for x, v, d in parts:
        m = scale // d
        i = v - low
        acc[i : i + len(x)] = [s + m * c for s, c in zip(acc[i : i + len(x)], x)]
    return RationalFn(_from_ints(acc, low, scale), den)


def expand(f: RationalFn, up_to: int) -> SeriesWindow:
    """Exact Taylor coefficients of t^0 .. t^up_to of f at t = 0.

    Each 1 - t^a is a unit of the power series ring, so the series exists
    exactly when the numerator has no negative exponent (a factor shared
    with the numerator needs no cancelling first); otherwise
    SeriesExpansionError names the order of the pole at t = 0.
    """
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    x, v, scale = _to_ints(f.num)
    if v < 0:
        raise SeriesExpansionError(f"no power series at t=0: pole of order {-v} remains")
    # the numerator's coefficients through t^up_to, divided by one 1 - t^a
    # at a time as a running sum with stride a
    out = [0] * (up_to + 1)
    head = x[: max(up_to + 1 - v, 0)]
    out[v : v + len(head)] = head
    for a in f.den:
        for i in range(a, up_to + 1):
            out[i] += out[i - a]
    return SeriesWindow(0, [Fraction(c, scale) for c in out])


def is_gorenstein_symmetric(f: RationalFn, k: int, n: int) -> bool:
    """Check the functional equation t^k f(1/t) = (-1)^(n+1) f(t) exactly.

    Both sides lie over the same denominator, since 1 - t^-a = -t^-a (1 - t^a),
    so this is an identity of their numerators, never of truncated series.
    """
    shift = k + sum(f.den.factors)
    sign_lhs = -1 if len(f.den.factors) % 2 else 1
    lhs = f.num.mirror().shift(shift) * sign_lhs
    sign_rhs = -1 if n % 2 == 0 else 1
    rhs = f.num * sign_rhs
    return lhs == rhs
