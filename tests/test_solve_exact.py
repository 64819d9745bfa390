"""The strata solve on integer rows against the dense Fraction solve it replaced.

`hilbert._solve_exact` solves the curve-stratum columns of `cy3` ice mode
and the scalars of `cy3_rr_fit`.  The reference below is the earlier
algorithm: every column and the target over the lcm of all their
denominators, one dense Fraction row per exponent, and a Gauss-Jordan
elimination over every row.  On small random systems, full rank, rank
deficient and inconsistent, the two must give the same solution, or the
same `linear_solve` failure with the same message.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbhilb import DecompositionError, LaurentPoly, RationalFn, fn_sum
from orbhilb.cli import run
from orbhilb.hilbert import _solve_exact

F = Fraction


def reference_solve(columns, target, what):
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


def outcome(solve, columns, target):
    try:
        return ("solved", solve(columns, target, "parse_main"))
    except DecompositionError as exc:
        return (exc.check, str(exc))


DENS = [(), (1,), (2,), (1, 1), (1, 3)]
entries = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3]))


@st.composite
def columns_and_target(draw):
    """Random columns (numerators with up to five terms, small denominators)
    and a target that is a combination of them, the same with one column a
    combination of the others, or an unrelated function, possibly with a pole
    no column has."""
    n = draw(st.integers(1, 4))
    columns = []
    for _ in range(n):
        v = draw(st.integers(-1, 2))
        num = LaurentPoly({v + i: draw(entries) for i in range(draw(st.integers(1, 5)))})
        columns.append(RationalFn(num, draw(st.sampled_from(DENS))))
    kind = draw(st.sampled_from(["combination", "dependent", "unrelated"]))
    if kind == "dependent" and n > 1:
        columns[-1] = fn_sum(col * draw(entries) for col in columns[:-1])
    if kind == "unrelated":
        num = LaurentPoly({i: draw(entries) for i in range(draw(st.integers(0, 6)))})
        target = RationalFn(num, draw(st.sampled_from(DENS + [(5,), (2, 2)])))
    else:
        target = fn_sum(col * draw(entries) for col in columns)
    return columns, target


class TestAgainstDenseReference:
    @settings(max_examples=200, deadline=None)
    @given(columns_and_target())
    # a pole of the target that no column has: inconsistent
    @example(([RationalFn(LaurentPoly({0: 1}), (1,))], RationalFn(LaurentPoly({0: 1}), (5,))))
    # the same pole cancelled by the target's numerator: solvable
    @example(([RationalFn(LaurentPoly({0: 1}), (1,))], RationalFn(LaurentPoly({0: 1, 5: -1}), (5,))))
    def test_same_solution_or_failure(self, case):
        columns, target = case
        assert outcome(_solve_exact, columns, target) == outcome(reference_solve, columns, target)

    def test_each_verdict_occurs(self):
        one = RationalFn(LaurentPoly({0: 1}), (1,))
        t = RationalFn(LaurentPoly({1: 1}), (1,))
        assert _solve_exact([one, t], one * 3 + t * F(1, 2), "x") == [3, F(1, 2)]
        assert outcome(_solve_exact, [one], t)[0] == "linear_solve"
        assert outcome(_solve_exact, [one, one * 2], one)[0] == "linear_solve"


class TestLinearSolveCheck:
    """Both failures of the `linear_solve` check, named and worded exactly."""

    def test_underdetermined_names_the_rank(self):
        one = RationalFn(LaurentPoly({0: 1}), (1,))
        t2 = RationalFn(LaurentPoly({2: 1}), (1, 2))
        # the third column is the sum of the first two
        columns = [one, t2, one + t2]
        with pytest.raises(DecompositionError) as info:
            _solve_exact(columns, one, "parse_main")
        assert info.value.check == "linear_solve"
        assert str(info.value) == (
            "parse_main: linear system is underdetermined (rank 2 < 3 unknowns)"
        )

    def test_inconsistent_cy3_curve_exits_1(self, capsys):
        argv = ["cy3", "--weights", "1,1,3,4,8", "--degrees", "17",
                "--points", "1/3(1,1,1);1/8(1,3,4)", "--curves", "4,1", "--json"]
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        diag = json.loads(err)
        assert diag["check"] == "linear_solve"
        assert diag["error"] == (
            "parse_main: linear system is inconsistent; the strata data do not "
            "match the series"
        )
