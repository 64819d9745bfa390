"""CLI surface: exit codes, JSON round trips, rendering contract."""

import json

import pytest

from orbhilb import LaurentPoly, RationalFn
from orbhilb.cli import (
    MAX_PERIOD,
    MAX_POINTS,
    MAX_SERIES,
    MAX_SPAN,
    MAX_WEIGHTS,
    fn_from_json,
    fn_to_json,
    parse_basket,
    poly_from_json,
    poly_to_json,
    render,
    run,
)

LP = LaurentPoly


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBasketGrammar:
    def test_multiplicities(self):
        basket = parse_basket("5x1/2(1,1,1);1/3(1,2,2)")
        assert [(q.r, q.a_list, m) for q, m in basket] == [
            (2, (1, 1, 1), 5),
            (3, (1, 2, 2), 1),
        ]

    def test_bad_entry(self):
        from orbhilb import InputError

        with pytest.raises(InputError):
            parse_basket("five halves")


class TestJsonRoundTrip:
    def test_poly(self):
        p = LP.parse("t^-4 + t^-2 + 1 - 2/3t^5")
        assert poly_from_json(poly_to_json(p)) == p

    def test_fn(self):
        f = RationalFn(LP.parse("1 - t^10"), (1, 1, 2, 2, 3))
        assert fn_from_json(fn_to_json(f)) == f

    def test_emitted_output_parses_back(self, capsys):
        code, payload = run_json(capsys, ["hilbert", "--weights", "1,1,2,2,3", "--degrees", "10"])
        assert code == 0
        fn = fn_from_json(payload["fn"])
        assert fn == RationalFn(LP.one_minus(10), (1, 1, 2, 2, 3))


class TestRenderContract:
    def test_zero(self):
        assert render(LP()) == "0"

    def test_laurent_ascending(self):
        assert render(LP({-4: 1, -2: 1, 0: 1})) == "t^-4 + t^-2 + 1"

    def test_rational_fn_style(self):
        f = RationalFn(LP({3: 1, 5: 1, 7: 1}), (1, 7))
        assert render(f) == "(t^3 + t^5 + t^7) / (1-t) (1-t^7)"


class TestParseCommand:
    def test_x10_json(self, capsys):
        code, payload = run_json(
            capsys,
            ["parse", "--weights", "1,1,2,2,3", "--degrees", "10",
             "--basket", "5x1/2(1,1,1);1/3(1,2,2)"],
        )
        assert code == 0
        assert payload["initial_numerator_coeffs"] == [1, -2, 3, 3, -2, 1]
        assert len(payload["parts"]) == 2
        assert payload["degree"] == "5/6"
        assert payload["sum_matches_input"] is True

    def test_wrong_basket_exit_1(self, capsys):
        code = run(
            ["parse", "--weights", "1,1,2,2,3", "--degrees", "10",
             "--basket", "4x1/2(1,1,1)"]
        )
        assert code == 1
        diag = json.loads(capsys.readouterr().err)
        assert "check" in diag

    def test_non_isolated_entry_exit_1(self, capsys):
        code = run(["parse", "--weights", "2,5,8,10,15", "--degrees", "40",
                    "--basket", "1/15(2,5,8)"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["check"] == "residual_denominator"

    def test_malformed_basket_exit_2(self, capsys):
        code = run(
            ["parse", "--weights", "1,1,2,2,3", "--degrees", "10", "--basket", "wat"]
        )
        assert code == 2

    def test_series_flag(self, capsys):
        code, payload = run_json(
            capsys,
            ["parse", "--weights", "5,7", "--basket", "1/7(5);1/5(2)", "--series", "8"],
        )
        assert code == 0
        assert payload["series"] == ["1", "0", "0", "0", "0", "1", "0", "1"]

    def test_k_override(self, capsys):
        code, payload = run_json(
            capsys, ["parse", "--weights", "5,7", "--k", "-12", "--basket", "1/7(5);1/5(2)"]
        )
        assert code == 0
        assert (payload["k"], payload["n"]) == (-12, 1)


class TestDedekindCommand:
    def test_fourteen(self, capsys):
        code, payload = run_json(capsys, ["dedekind", "--r", "14", "--a", "1,2,5,7"])
        assert code == 0
        assert payload["sigma"] == [
            "-1/7", "-1/7", "-1/14", "1/28", "0", "-1/28", "1/14",
            "1/7", "1/7", "1/14", "-1/28", "0", "1/28", "-1/14",
        ]

    def test_trivial_type(self, capsys):
        code, payload = run_json(capsys, ["dedekind", "--r", "1", "--a", ""])
        assert code == 0
        assert payload == {"type": "1/1()", "sigma": ["0"], "delta": {}}
        assert run(["dedekind", "--r", "1", "--a", ""]) == 0
        assert capsys.readouterr().out == "sigma(1/1()) = (0)\nDelta = 0\n"


class TestPorbCommand:
    def test_isolated(self, capsys):
        code, payload = run_json(capsys, ["porb", "--r", "7", "--a", "5", "--k", "-12"])
        assert code == 0
        assert poly_from_json(payload["numerator"]) == LP({-4: 1, -2: 1, 0: 1})

    def test_general_autodetected(self, capsys):
        code, payload = run_json(capsys, ["porb", "--r", "15", "--a", "2,5,8", "--k", "0"])
        assert code == 0
        assert payload["fn"]["den"] == [1, 1, 5, 15]

    def test_bad_weight_congruence_exit_1(self, capsys):
        assert run(["porb", "--r", "7", "--a", "5", "--k", "1"]) == 1

    def test_no_general_flag(self, capsys):
        # the form follows the type; forcing it is an unknown flag
        assert run(["porb", "--r", "7", "--a", "5", "--k", "1", "--general"]) == 2
        assert capsys.readouterr().out == ""

    def test_trivial_type(self, capsys):
        code, payload = run_json(capsys, ["porb", "--r", "1", "--a", "", "--k", "0"])
        assert code == 0
        assert payload["type"] == "1/1()"
        assert poly_from_json(payload["numerator"]).is_zero
        assert payload["fn"] == {"num": {}, "den": [1]}


class TestInvmodCommand:
    def test_from_weights(self, capsys):
        code, payload = run_json(
            capsys, ["invmod", "--r", "7", "--a", "5", "--gamma", "3"]
        )
        assert code == 0
        assert payload["d"] == 6
        # InvMod(1-t^5, F, 3): h*t*that = Delta-style; the A here is the full
        # product, so the inverse differs from the geometric-quotient one
        B = poly_from_json(payload["inverse"])
        from orbhilb import build_modulus, reduce_to_window

        md = build_modulus(7, (5,))
        assert reduce_to_window(md.A * B, md.F, 0) == LP.term(1)

    def test_explicit_polynomials(self, capsys):
        code, payload = run_json(
            capsys,
            ["invmod", "--a-poly", "1+t+t^2+t^3+t^4", "--f-poly",
             "1+t+t^2+t^3+t^4+t^5+t^6", "--gamma", "3", "--period", "7"],
        )
        assert code == 0
        assert poly_from_json(payload["inverse"]) == LP({3: 1, 5: 1, 7: 1})


class TestK3Fano:
    def test_k3_s5(self, capsys):
        code, payload = run_json(capsys, ["k3", "--genus", "2", "--basket", "1/2(1,1)"])
        assert code == 0
        assert payload["D2"] == "5/2"
        assert payload["initial_numerator_coeffs"] == [1, 0, 0, 1]

    def test_fano3(self, capsys):
        code, payload = run_json(capsys, ["fano3", "--genus", "5", "--basket", "1/2(1,1,1)"])
        assert code == 0
        assert payload["minus_K3"] == "17/2"


class TestCY3Command:
    def test_ice_mode(self, capsys):
        code, payload = run_json(
            capsys,
            ["cy3", "--weights", "2,5,8,10,15", "--degrees", "40",
             "--points", "1/15(2,5,8)", "--curves", "2,1;5,2"],
        )
        assert code == 0
        assert payload["sum_matches_input"] is True
        assert [c["delta"] for c in payload["curves"]] == [1, 1]
        assert poly_from_json(payload["curves"][1]["B_numerator"]) == LP({3: -3, 4: 2, 5: -3})

    def test_rr_mode_fitted(self, capsys):
        code, payload = run_json(
            capsys,
            ["cy3", "--weights", "2,5,8,10,15", "--degrees", "40",
             "--points", "1/15(2,5,8)", "--curves", "2,1,1/2;5,2,4/15",
             "--mode", "rr"],
        )
        assert code == 0
        assert payload["Dc2"] == "4"
        assert payload["D3"] == "1/300"
        assert payload["IV"][1]["prefactor"] == "4/5"

    def test_wrong_strata_exit_1(self, capsys):
        code = run(
            ["cy3", "--weights", "2,5,8,10,15", "--degrees", "40",
             "--points", "1/15(2,5,8)", "--curves", "2,1"]
        )
        assert code == 1

    def test_no_curves_wrong_points_exit_1(self, capsys):
        # X8 in P(1,1,1,2,3) has one 1/3(1,1,1) point; without it the pole
        # at the cube roots of unity is left over
        assert run(["cy3", "--weights", "1,1,1,2,3", "--degrees", "8", "--json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["check"] == "residual_denominator"

    def test_rr_mode_explicit_scalars_checked(self, capsys):
        # D^3 = 1/300 reassembles X40; 1/301 leaves a residual
        argv = ["cy3", "--weights", "2,5,8,10,15", "--degrees", "40",
                "--points", "1/15(2,5,8)", "--curves", "2,1,1/2;5,2,4/15,4/5",
                "--mode", "rr", "--dc2", "4", "--d3"]
        assert run(argv + ["1/300"]) == 0
        capsys.readouterr()
        assert run(argv + ["1/301"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        diag = json.loads(err)
        assert (diag["type"], diag["check"]) == ("DecompositionError", "reassembly")

    def test_rr_mode_requires_both_scalars(self, capsys):
        code = run(
            ["cy3", "--weights", "2,5,8,10,15", "--degrees", "40",
             "--points", "1/15(2,5,8)", "--curves", "2,1,1/2;5,2,4/15",
             "--mode", "rr", "--dc2", "4"]
        )
        assert code == 2


class TestVerifyCommand:
    ARGS = [
        "verify", "--weights", "1,2,3,5,7",
        "--numerator", "1-t^6-t^7-t^8-t^9-t^10+t^10+t^11+t^12+t^13+t^14-t^20",
        "--k", "2", "--n", "1", "--basket", "1/7(5)",
    ]

    def test_pfaffian_passes(self, capsys):
        code, payload = run_json(capsys, self.ARGS)
        assert code == 0
        assert all(c["ok"] for c in payload["checks"])

    def test_irregularity_checked_on_p_minus_j(self, capsys):
        # X10's series plus J = 1: P - J is Gorenstein symmetric, P is not
        code, payload = run_json(capsys, [
            "verify", *X10_ARGS, "--k", "1", "--numerator",
            "2-2t-t^2+3t^3+t^4-t^5-3t^6+t^7+2t^8-t^9-t^10",
            "--basket", "1/3(1,2,2);5x1/2(1,1,1)", "--irregularity", "1",
        ])
        assert code == 0
        assert payload["checks"] == [{"name": "gorenstein_symmetry", "ok": True},
                                     {"name": "parse", "ok": True}]

    def test_wrong_weight_fails(self, capsys):
        args = list(self.ARGS)
        args[args.index("--k") + 1] = "3"
        assert run(args) == 1


class TestBatch:
    def test_batch_runs_jobs(self, tmp_path, capsys):
        jobs = [
            {"command": "dedekind", "payload": {"r": 7, "a": [5]}},
            {"command": "hilbert", "payload": {"weights": [5, 7]}, "output_format": "json"},
        ]
        f = tmp_path / "jobs.json"
        f.write_text(json.dumps(jobs))
        code = run(["batch", str(f)])
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert [j["exit"] for j in summary["jobs"]] == [0, 0]

    def test_batch_propagates_failure(self, tmp_path, capsys):
        jobs = [{"command": "porb", "payload": {"r": 7, "a": [5], "k": 1}}]
        f = tmp_path / "jobs.json"
        f.write_text(json.dumps(jobs))
        assert run(["batch", str(f)]) == 1

    def test_batch_propagates_input_error(self, tmp_path, capsys):
        jobs = [{"command": "parse", "payload": {"weights": [5, 7], "basket": "wat"}}]
        f = tmp_path / "jobs.json"
        f.write_text(json.dumps(jobs))
        assert run(["batch", str(f)]) == 2

    def test_batch_missing_file(self, capsys):
        assert run(["batch", "/nonexistent/jobs.json"]) == 2


X10_ARGS = ["--weights", "1,1,2,2,3", "--degrees", "10"]
X40_ARGS = ["--weights", "2,5,8,10,15", "--degrees", "40", "--curves", "2,1;5,2"]


def _entries(true_basket: list[str], m: int) -> str:
    """A true basket spelled as m entries; the padding has multiplicity 0."""
    return ";".join(true_basket + ["0x" + true_basket[0]] * (m - len(true_basket)))


X10_BASKET = ["1/3(1,2,2)"] + ["1/2(1,1,1)"] * 5

# bound: (argv with the bounded quantity equal to m, the limit, exit code at the limit)
BOUND_EDGES = {
    "parse_entries": (lambda m: ["parse", *X10_ARGS, "--basket", _entries(X10_BASKET, m)],
                      MAX_POINTS, 0),
    "verify_entries": (lambda m: ["verify", *X10_ARGS, "--basket", _entries(X10_BASKET, m)],
                       MAX_POINTS, 0),
    "cy3_point_entries": (lambda m: ["cy3", *X40_ARGS, "--points", _entries(["1/15(2,5,8)"], m)],
                          MAX_POINTS, 0),
    "dedekind_weights": (lambda m: ["dedekind", "--r", "7", "--a", ",".join(["1"] * m)],
                         MAX_WEIGHTS, 0),
    "porb_weights": (lambda m: ["porb", "--r", "7", "--a", ",".join(["1"] * m), "--k", str(-m)],
                     MAX_WEIGHTS, 0),
    "invmod_weights": (lambda m: ["invmod", "--r", "7", "--a", ",".join(["1"] * m)],
                       MAX_WEIGHTS, 0),
    "hilbert_weights": (lambda m: ["hilbert", "--weights", f"1,1,{m - 2}"], MAX_SPAN, 0),
    "hilbert_degrees": (lambda m: ["hilbert", "--weights", "1,1,1", "--degrees", str(m)],
                        MAX_SPAN, 0),
    "parse_degrees": (lambda m: ["parse", "--weights", "1,1,1,1", "--degrees", str(m)],
                      MAX_SPAN, 0),
    # P(1,1,1,m-3) has a 1/(m-3) point: a check fails, the input is accepted
    "verify_weights": (lambda m: ["verify", "--weights", f"1,1,1,{m - 3}"], MAX_SPAN, 1),
    "numerator_span": (lambda m: ["parse", "--weights", "1,1,1", "--numerator", f"1+t^{m}",
                                  "--k", str(m - 3)], MAX_SPAN, 0),
    # t^-m breaks the symmetry of P - J: a check fails, the input is accepted
    "irregularity_span": (lambda m: ["parse", *X10_ARGS, "--irregularity", f"t^-{m}"],
                          MAX_SPAN, 1),
    "a_poly_span": (lambda m: ["invmod", "--a-poly", f"t^{m}", "--f-poly", "1+t+t^2",
                               "--period", "3"], MAX_SPAN, 0),
    # 1 + t^m does not divide 1 - t^3: a check fails, the input is accepted
    "f_poly_span": (lambda m: ["invmod", "--a-poly", "1+t", "--f-poly", f"1+t^{m}",
                               "--period", "3"], MAX_SPAN, 1),
}


@pytest.mark.parametrize("name", BOUND_EDGES)
def test_input_bound_edge(capsys, name):
    build, limit, code = BOUND_EDGES[name]
    assert run(build(limit)) == code
    capsys.readouterr()
    assert run(build(limit + 1)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"above the limit {limit}" in json.loads(err)["error"]


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required(self, capsys):
        assert run(["dedekind", "--r", "7"]) == 2

    def test_math_failure_never_exit_2(self, capsys):
        # a well-formed request whose mathematics fails must exit 1
        code = run(["parse", "--weights", "5,7", "--basket", "1/7(5)"])
        assert code == 1
        diag = json.loads(capsys.readouterr().err)
        assert diag["type"] != "InputError"


class TestMalformedInputExit2:
    """Malformed input exits 2 with nothing on stdout; semantic type
    violations in well-formed input stay mathematical failures (exit 1)."""

    X40 = ["cy3", "--weights", "2,5,8,10,15", "--degrees", "40", "--points", "1/15(2,5,8)"]
    X10 = ["--weights", "1,1,2,2,3", "--degrees", "10"]

    def assert_malformed(self, capsys, argv):
        assert run(argv) == 2
        assert capsys.readouterr().out == ""

    def test_curves_non_integer_s(self, capsys):
        self.assert_malformed(capsys, self.X40 + ["--curves", "x,1;5,2"])

    def test_curves_non_integer_a(self, capsys):
        self.assert_malformed(capsys, self.X40 + ["--curves", "2,1;5,x"])

    def test_curves_non_integer_rr_mode(self, capsys):
        self.assert_malformed(capsys, self.X40 + ["--curves", "2,1.5,1/2", "--mode", "rr"])

    def test_r_below_one(self, capsys):
        self.assert_malformed(capsys, ["dedekind", "--r", "0", "--a", "1,2"])
        self.assert_malformed(capsys, ["porb", "--r", "-3", "--a", "1", "--k", "0"])
        self.assert_malformed(capsys, ["invmod", "--r", "0", "--a", "1"])

    @pytest.mark.parametrize("argv", [
        ["dedekind", "--r", "5", "--a", ""],
        ["porb", "--r", "5", "--a", "", "--k", "0"],
        ["invmod", "--r", "1", "--a", ""],
    ], ids=["dedekind", "porb", "invmod_r1"])
    def test_empty_weights(self, capsys, argv):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["type"] == "InputError"

    def test_period_below_one(self, capsys):
        self.assert_malformed(capsys, ["invmod", "--a-poly", "1+t", "--f-poly", "1+t+t^2",
                                       "--period", "0"])

    def test_basket_entry_r_below_one(self, capsys):
        self.assert_malformed(capsys, ["parse", *self.X10, "--basket", "1/0(1)"])
        self.assert_malformed(capsys, ["k3", "--genus", "2", "--basket", "1/0(1,1)"])
        self.assert_malformed(capsys, self.X40[:-1] + ["1/0(1)"])

    @pytest.mark.parametrize("argv", [
        ["hilbert", "--weights", "0,1"],
        ["hilbert", "--weights", "1"],
        ["hilbert", "--weights", "1,1,1", "--degrees", "0"],
    ], ids=["weight_zero", "dimension_zero", "degree_zero"])
    def test_hilbert_ci_out_of_range(self, capsys, argv):
        self.assert_malformed(capsys, argv)

    @pytest.mark.parametrize("n", ["0", "-3", "x"])
    @pytest.mark.parametrize("argv", [
        ["hilbert", "--weights", "1,1,2,2,3", "--degrees", "10"],
        ["k3", "--genus", "2", "--basket", "1/2(1,1)"],
        ["dedekind", "--r", "7", "--a", "5"],
        ["invmod", "--r", "7", "--a", "5"],
    ], ids=["hilbert", "k3", "dedekind", "invmod"])
    def test_series_must_be_positive(self, capsys, argv, n):
        self.assert_malformed(capsys, argv + ["--series", n])

    @pytest.mark.parametrize("argv,limit", [
        (["dedekind", "--r", "100000", "--a", "1,2"], MAX_PERIOD),
        (["dedekind", "--r", str(MAX_PERIOD + 1), "--a", "1,2"], MAX_PERIOD),
        (["porb", "--r", str(MAX_PERIOD + 1), "--a", "1,2", "--k", "-3"], MAX_PERIOD),
        (["invmod", "--r", str(MAX_PERIOD + 1), "--a", "1"], MAX_PERIOD),
        (["invmod", "--a-poly", "1+t", "--f-poly", "1+t+t^2", "--period", str(MAX_PERIOD + 1)],
         MAX_PERIOD),
        (["parse", *X10, "--basket", f"1/{MAX_PERIOD + 1}(1,1,{MAX_PERIOD - 1})"], MAX_PERIOD),
        (["k3", "--genus", "2", "--basket", f"1/2(1,1);1/{MAX_PERIOD + 1}(1,{MAX_PERIOD})"],
         MAX_PERIOD),
        (["fano3", "--genus", "2", "--basket", f"1/3(1,1,2);{MAX_POINTS}x1/2(1,1,1)"],
         MAX_POINTS),
        (X40[:-1] + [f"1/{MAX_PERIOD + 1}(2,5,{MAX_PERIOD - 6})"], MAX_PERIOD),
        (X40 + ["--curves", f"2,1;{MAX_PERIOD + 1},2"], MAX_PERIOD),
        (X40 + ["--curves", f"{MAX_PERIOD + 1},2,1/2", "--mode", "rr"], MAX_PERIOD),
        (["hilbert", *X10, "--series", str(MAX_SERIES + 1)], MAX_SERIES),
    ], ids=["dedekind_r100000", "dedekind", "porb", "invmod", "invmod_period", "parse_basket",
            "k3_basket", "fano3_points", "cy3_points", "cy3_curves", "cy3_curves_rr", "series"])
    def test_above_input_bound(self, capsys, argv, limit):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        diag = json.loads(err)
        assert diag["type"] == "InputError"
        assert f"above the limit {limit}" in diag["error"]

    def test_at_input_bound(self, capsys):
        assert run(["porb", "--r", str(MAX_PERIOD), "--a", "1,2", "--k", "-3"]) == 0
        assert run(["k3", "--genus", "2", "--basket", f"{MAX_POINTS}x1/2(1,1)"]) == 0
        capsys.readouterr()
        code, payload = run_json(capsys, ["hilbert", *self.X10, "--series", str(MAX_SERIES)])
        assert code == 0
        assert len(payload["series"]) == MAX_SERIES

    def test_series_one_prints_one_coefficient(self, capsys):
        code, payload = run_json(capsys, ["hilbert", *self.X10, "--series", "1"])
        assert code == 0
        assert payload["series"] == ["1"]

    def test_weight_zero_mod_r_exit_1(self, capsys):
        assert run(["dedekind", "--r", "7", "--a", "7"]) == 1
        assert json.loads(capsys.readouterr().err)["type"] == "ValueError"

    def test_non_effective_action_exit_1(self, capsys):
        assert run(["dedekind", "--r", "4", "--a", "2"]) == 1
        assert json.loads(capsys.readouterr().err)["type"] == "ValueError"

    def test_broken_weight_congruence_exit_1(self, capsys):
        assert run(["porb", "--r", "7", "--a", "5", "--k", "1"]) == 1
        assert "congruence" in json.loads(capsys.readouterr().err)["error"]
        # on the 1/5 and 1/3 curve strata the same check applies
        assert run(["porb", "--r", "15", "--a", "2,5,9", "--k", "0"]) == 1
        assert "weight congruence violated" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("argv", [
        ["k3", "--genus", "-2"],
        ["k3", "--genus", "-5"],
        ["fano3", "--genus", "-3"],
        X40[:-1] + ["1/15(2,5)"],
        X40 + ["--curves", "1,1"],
        X40 + ["--curves", "0,1,1/2", "--mode", "rr"],
    ], ids=["k3_genus", "k3_genus_far", "fano3_genus", "cy3_point_shape", "cy3_curve_s1",
            "cy3_curve_s0_rr"])
    def test_genus_and_shape_out_of_range(self, capsys, argv):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["type"] == "InputError"

    def test_lowest_genus_accepted(self, capsys):
        # h^0 = g + n - 1 is 0 at the lowest genus
        assert run(["k3", "--genus", "-1"]) == 0
        assert run(["fano3", "--genus", "-2"]) == 0
