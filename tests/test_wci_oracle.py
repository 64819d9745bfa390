"""Plurigenera of weighted complete intersections by counting monomials.

The coordinate ring of X_(d_1..d_c) in P(a_0..a_N) is k[x_0..x_N]/(f_1..f_c)
with f_1..f_c a regular sequence, so by the Koszul complex its degree-m part
has dimension sum over subsets S of the degrees of (-1)^|S| times the number
of monomials of weighted degree m - sum(S).  The monomials are enumerated one
by one in plain integers; nothing here uses exactpoly, so the comparison
checks `hilbert_ci` and `expand` from outside the kernel.
"""

from itertools import combinations

import pytest

from orbhilb import expand, hilbert_ci

TOP = 40


def monomial_counts(weights: tuple[int, ...], top: int) -> list[int]:
    """counts[m] = number of monomials of weighted degree m, for m <= top."""
    counts = [0] * (top + 1)

    def walk(i: int, deg: int) -> None:
        if i == len(weights):
            counts[deg] += 1
            return
        while deg <= top:
            walk(i + 1, deg)
            deg += weights[i]

    walk(0, 0)
    return counts


def plurigenera(weights: tuple[int, ...], degrees: tuple[int, ...], top: int) -> list[int]:
    counts = monomial_counts(weights, top)
    out = [0] * (top + 1)
    for size in range(len(degrees) + 1):
        for subset in combinations(degrees, size):
            shift = sum(subset)
            for m in range(shift, top + 1):
                out[m] += (-1) ** size * counts[m - shift]
    return out


@pytest.mark.parametrize("weights,degrees", [
    ((1, 1, 2, 2, 3), (10,)),
    ((2, 5, 8, 10, 15), (40,)),
    ((3, 4, 15, 20, 38), (80,)),
    ((1, 1, 2, 2, 2), (6,)),
], ids=["X10", "X40", "X80", "X6"])
def test_expanded_series_counts_monomials(weights, degrees):
    P, _, _ = hilbert_ci(weights, degrees)
    window = expand(P, TOP)
    assert [window.coeff(m) for m in range(TOP + 1)] == plurigenera(weights, degrees, TOP)


def test_counts_by_hand():
    # P(1,2): x^i y^j with i + 2j = m, so floor(m/2) + 1 monomials
    assert monomial_counts((1, 2), 6) == [1, 1, 2, 2, 3, 3, 4]
    # a quadric in P(1,1,1): 2m + 1 sections, the conic's O(m)
    assert plurigenera((1, 1, 1), (2,), 5) == [1, 3, 5, 7, 9, 11]
