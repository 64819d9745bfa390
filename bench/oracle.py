"""Independent output checker for the benchmark.

Decides correctness with plain Python integers, Fractions, lists and dicts.
It reads values out of the program's results but never calls exactpoly,
invmod or dedekind to decide anything:

* Delta: h * (A * Delta - 1) == 0 modulo 1 - t^r by cyclic convolution,
  with h = prod Phi_d over the d | r dividing some a_i built from
  cyclotomic polynomials; h divides Delta; sigma duality
  sigma_(sum a - i) = (-1)^n sigma_i.
* Ice cream numerator B: integral, palindromic of degree k + r + sum s_i,
  spanning fewer than deg F = r - deg h exponents, and
  h * (B * G - 1) == 0 modulo 1 - t^r with G = prod (1-t^a_i)/(1-t^s_i).
  Together these determine B uniquely.
* Rational-function identities by cross-multiplication after cancelling
  the common (1 - t^a) factors.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class Mismatch(Exception):
    """A program output failed an independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# -- dense integer polynomials (index = exponent) ------------------------


def pmul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pdivmod_monic(a: list, b: list) -> tuple[list, list]:
    """Long division by a polynomial with leading coefficient +-1."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [0] * max(len(a) - db, 1)
    for k in range(len(a) - 1 - db, -1, -1):
        f = a[k + db] * lead  # lead is +-1, so this divides exactly
        q[k] = f
        if f:
            for i, y in enumerate(b):
                a[k + i] -= f * y
    return q, a[:db]


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n as a dense integer coefficient tuple."""
    num = [-1] + [0] * (n - 1) + [1]  # t^n - 1
    for d in range(1, n):
        if n % d == 0:
            num, rem = pdivmod_monic(num, list(cyclotomic(d)))
            assert not any(rem)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return tuple(num)


def modulus_cofactor(r: int, a_list) -> list:
    """h = product of Phi_d over the d | r that divide some a_i."""
    h = [1]
    for d in range(1, r + 1):
        if r % d == 0 and any(a % d == 0 for a in a_list):
            h = pmul(h, list(cyclotomic(d)))
    return h


def cyclic(terms: dict, r: int) -> list:
    """Reduce a Laurent polynomial {exponent: coeff} modulo 1 - t^r."""
    out = [0] * r
    for e, c in terms.items():
        out[e % r] += c
    return out


def cyc_mul(x: list, y: list, r: int) -> list:
    out = [0] * r
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    out[(i + j) % r] += a * b
    return out


def _dense(p: list) -> dict:
    return {e: c for e, c in enumerate(p) if c}


def _scaled(terms: dict) -> tuple[dict, int]:
    """Multiply a rational-coefficient polynomial by the lcm of its denominators."""
    den = lcm(*(Fraction(c).denominator for c in terms.values())) if terms else 1
    return {e: int(Fraction(c) * den) for e, c in terms.items()}, den


# -- sparse Laurent polynomials {exponent: coeff} ---------------------------


def lmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ladd(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def one_minus(a: int) -> dict:
    return {0: 1, a: -1}


def denominator_poly(factors) -> dict:
    out = {0: 1}
    for a in factors:
        out = lmul(out, one_minus(a))
    return out


def fn_sum(fns) -> tuple[dict, list]:
    """Sum of numerator / prod(1-t^den) terms over the lcm of their denominators."""
    common: Counter = Counter()
    for _, den in fns:
        common |= Counter(den)
    total: dict = {}
    for num, den in fns:
        total = ladd(total, lmul(num, denominator_poly((common - Counter(den)).elements())))
    return total, list(common.elements())


def same_fn(num1: dict, den1, num2: dict, den2) -> bool:
    """num1 / prod(1-t^den1) == num2 / prod(1-t^den2), cross-multiplied."""
    c1, c2 = Counter(den1), Counter(den2)
    common = c1 & c2
    left = lmul(num1, denominator_poly((c2 - common).elements()))
    right = lmul(num2, denominator_poly((c1 - common).elements()))
    return ladd(left, right, -1) == {}


# -- the identities ---------------------------------------------------------


def check_sigma(r: int, a_list, values) -> None:
    """Dedekind sums sigma_0..sigma_(r-1) of the type 1/r(a_list)."""
    values = [Fraction(v) for v in values]
    n = len(a_list)
    require(len(values) == r, f"expected {r} Dedekind sums, got {len(values)}")
    require(sum(values) == 0, "Dedekind sums do not sum to zero")
    s, sign = sum(a_list), (-1) ** n
    for i in range(r):
        require(values[(s - i) % r] == sign * values[i], f"sigma duality fails at i={i}")
    # Delta = sum_{i=1..r} sigma_(r-i) t^i, coefficients scaled to integers
    delta, den = _scaled({i: values[(r - i) % r] for i in range(1, r + 1)})
    h = modulus_cofactor(r, a_list)
    dense = [0] * (r + 1)
    for e, c in delta.items():
        dense[e] = c
    _, rem = pdivmod_monic(dense, h)
    require(not any(rem), "h does not divide Delta")
    A = {0: 1}
    for a in a_list:
        A = lmul(A, one_minus(a))
    hA = cyc_mul(cyclic(_dense(h), r), cyclic(A, r), r)
    lhs = cyc_mul(hA, cyclic(delta, r), r)
    rhs = [den * c for c in cyclic(_dense(h), r)]
    require(lhs == rhs, "A * Delta is not 1 modulo F")


def check_icecream(r: int, a_list, k: int, numerator: dict, degree: int, den) -> None:
    """Ice cream numerator B of 1/r(a_list) at canonical weight k."""
    s_list = [gcd(a, r) for a in a_list]
    sym = k + r + sum(s_list)
    require(degree == sym, f"numerator degree {degree} != k + r + sum(s) = {sym}")
    require(sorted(den) == sorted(s_list + [r]), f"denominator {sorted(den)} is wrong")
    require(bool(numerator), "ice cream numerator is zero")
    require(all(Fraction(c).denominator == 1 for c in numerator.values()), "B is not integral")
    B = {e: int(c) for e, c in numerator.items()}
    require(all(B.get(sym - e) == c for e, c in B.items()), f"B is not palindromic of degree {sym}")
    h = modulus_cofactor(r, a_list)
    d = r - (len(h) - 1)
    require(max(B) - min(B) <= d - 1, f"B spans more than deg F = {d} exponents")
    G = {0: 1}
    for a, s in zip(a_list, s_list):
        G = lmul(G, {s * j: 1 for j in range(a // s)})
    hc = cyclic(_dense(h), r)
    lhs = cyc_mul(hc, cyc_mul(cyclic(B, r), cyclic(G, r), r), r)
    require(lhs == hc, "B * prod (1-t^a)/(1-t^s) is not 1 modulo F")


def check_porb_minus_dedekind(r, n, numerator: dict, values, C: dict, den) -> None:
    """C/(1-t)^(n+1) with C (1-t^r)/(1-t) = B - (1-t)^n sum (sigma_(r-i) - sigma_0) t^i."""
    require(list(den) == [1] * (n + 1), f"denominator {list(den)} is not (1-t)^{n + 1}")
    values = [Fraction(v) for v in values]
    periodic = {i: values[r - i] - values[0] for i in range(1, r)}
    one_minus_t_n = {0: 1}
    for _ in range(n):
        one_minus_t_n = lmul(one_minus_t_n, one_minus(1))
    rhs = ladd(numerator, lmul(one_minus_t_n, periodic), -1)
    lhs = lmul(C, {i: 1 for i in range(r)})
    require(ladd(lhs, rhs, -1) == {}, "porb_minus_dedekind identity fails")


def genus_degree(genus: int, basket) -> Fraction:
    """2g - 2 + sum b(r-b)/r, b the inverse of a modulo r: D^2 for K3, -K^3 for Fano."""
    total = Fraction(2 * genus - 2)
    for r, a in basket:
        b = pow(a, -1, r)
        total += Fraction(b * (r - b), r)
    return total


def genus_initial(genus: int) -> dict:
    """Initial numerator 1 + (g-2)t + (g-2)t^2 + t^3 of both closed forms."""
    return {e: c for e, c in {0: 1, 1: genus - 2, 2: genus - 2, 3: 1}.items() if c}


def check_golden(got_stdout: str, got_exit: int, golden: dict) -> None:
    require(got_exit == golden["exit"], f"exit {got_exit}, expected {golden['exit']}")
    require(got_stdout == golden["stdout"], "stdout differs from the golden")
