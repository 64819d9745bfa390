"""Dedekind sums: reference values, defining congruence, coset and duality laws."""

import random
from fractions import Fraction
from math import gcd

import pytest

from orbhilb import (
    InputError,
    LaurentPoly,
    OrbifoldType,
    build_modulus,
    delta,
    divides,
    reduce_to_window,
    sigma,
    sigma_surface_closed,
)
from conftest import compatible_weight, random_effective_type

LP = LaurentPoly
F = Fraction


class TestOrbifoldType:
    def test_reduction_mod_r(self):
        q = OrbifoldType(7, (12, 5))
        assert q.a_list == (5, 5)

    def test_trivial_type(self):
        q = OrbifoldType(1, ())
        assert q.n == 0 and q.is_isolated

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            OrbifoldType(6, (3, 6))

    def test_rejects_noneffective(self):
        with pytest.raises(ValueError):
            OrbifoldType(6, (2, 4))

    def test_isolated_flag(self):
        assert OrbifoldType(7, (5,)).is_isolated
        assert not OrbifoldType(15, (2, 5, 8)).is_isolated

    def test_parse(self):
        q = OrbifoldType.parse("1/15(2,5,8)")
        assert (q.r, q.a_list) == (15, (2, 5, 8))

    def test_parse_rejects_r_zero_as_malformed(self):
        with pytest.raises(InputError):
            OrbifoldType.parse("1/0(1)")
        # a well-formed type with a zero weight is a semantic error, not malformed
        with pytest.raises(ValueError) as info:
            OrbifoldType.parse("1/7(7)")
        assert not isinstance(info.value, InputError)

    def test_empty_weights_need_r_one(self):
        assert OrbifoldType.parse("1/1()") == OrbifoldType(1, ())
        with pytest.raises(InputError):
            OrbifoldType(5, ())


class TestDelta:
    def test_x40_value(self):
        got = delta(OrbifoldType(15, (2, 5, 8)))
        ninth = F(1, 9)
        expect = LP(
            {1: ninth, 2: 2 * ninth, 4: ninth, 5: -ninth, 7: -2 * ninth,
             8: 2 * ninth, 10: ninth, 11: -ninth, 13: -2 * ninth, 14: -ninth}
        )
        assert got == expect

    def test_one_seventh_five(self):
        # support-[1,7] refold of (1/7)(3 - 3t^2 + t^3 - 2t^4 + 2t^5 - t^6)
        got = delta(OrbifoldType(7, (5,)))
        s = F(1, 7)
        expect = LP({2: -3 * s, 3: s, 4: -2 * s, 5: 2 * s, 6: -s, 7: 3 * s})
        assert got == expect

    def test_trivial(self):
        assert delta(OrbifoldType(1, ())).is_zero

    def test_support_in_1_r(self):
        rng = random.Random(5)
        for _ in range(30):
            q = random_effective_type(rng, 25)
            d = delta(q)
            if not d.is_zero:
                assert 1 <= d.valuation and d.degree <= q.r


class TestSigma:
    def test_fourteen_vector(self):
        got = sigma(OrbifoldType(14, (1, 2, 5, 7)))
        expect = [
            F(-2, 14), F(-2, 14), F(-1, 14), F(1, 28), F(0), F(-1, 28), F(1, 14),
            F(2, 14), F(2, 14), F(1, 14), F(-1, 28), F(0), F(1, 28), F(-1, 14),
        ]
        assert list(got.values) == expect

    def test_one_seventh_five(self):
        got = sigma(OrbifoldType(7, (5,)))
        assert list(got.values) == [F(3, 7), F(-1, 7), F(2, 7), F(-2, 7), F(1, 7), F(-3, 7), F(0)]

    def test_sum_zero_random(self):
        rng = random.Random(11)
        for _ in range(50):
            q = random_effective_type(rng, 30)
            assert sum(sigma(q).values, F(0)) == 0


class TestDefiningCongruence:
    def test_randomized_200(self):
        rng = random.Random(42)
        for _ in range(200):
            q = random_effective_type(rng, 40)
            md = build_modulus(q.r, q.a_list)
            d = delta(q)
            if md.d == 0:
                assert d.is_zero
                continue
            assert reduce_to_window(md.A * d, md.F, 0) == LP.term(1)

    def test_delta_divisible_by_h(self):
        rng = random.Random(43)
        for _ in range(60):
            q = random_effective_type(rng, 30)
            md = build_modulus(q.r, q.a_list)
            d = delta(q)
            if not d.is_zero:
                assert divides(md.h, d)

    def test_coset_sums_vanish(self):
        rng = random.Random(44)
        for _ in range(40):
            q = random_effective_type(rng, 30)
            sg = sigma(q)
            for a in q.a_list:
                beta = gcd(a, q.r)
                if beta == 1:
                    continue
                for dres in range(beta):
                    total = sum(
                        (sg.values[i] for i in range(q.r) if i % beta == dres), F(0)
                    )
                    assert total == 0, (q, beta, dres)


class TestSerreDuality:
    def test_sign_symmetry(self):
        rng = random.Random(45)
        for _ in range(60):
            q = random_effective_type(rng, 30)
            k = compatible_weight(rng, q)
            assert (k + sum(q.a_list)) % q.r == 0
            sg = sigma(q)
            sign = (-1) ** q.n
            s = sum(q.a_list)
            for i in range(q.r):
                assert sg[s - i] == sign * sg[i], (q, i)


class TestSurfaceClosedForm:
    def test_r2(self):
        got = sigma_surface_closed(2, 1)
        assert list(got.values) == [F(1, 8), F(-1, 8)]

    def test_r3_matches_delta_path(self):
        got = sigma_surface_closed(3, 1)
        via_delta = sigma(OrbifoldType(3, (1, 2)))
        assert list(got.values) == list(via_delta.values)

    def test_all_coprime_pairs_up_to_25(self):
        for r in range(2, 26):
            for a in range(1, r):
                if gcd(a, r) != 1:
                    continue
                closed = sigma_surface_closed(r, a)
                assert sum(closed.values, F(0)) == 0
                via_delta = sigma(OrbifoldType(r, (a, r - a)))
                assert list(closed.values) == list(via_delta.values), (r, a)

    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            sigma_surface_closed(6, 3)
