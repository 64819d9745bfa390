"""Command-line surface: compute, decompose and verify Hilbert series.

Subcommands: hilbert, parse, porb, dedekind, invmod, k3, fano3, cy3,
verify, batch.  Every command takes --json for machine-readable output and
--series N (a positive integer) to print the first N expanded coefficients
of its main series.

Exit codes: 0 success; 1 a mathematical check failed (a structured JSON
diagnostic naming the check and the offending residual is printed; this
includes a weight of 0 mod r, a non-effective action and a broken weight
congruence, of any point type); 2 malformed input: an unknown command or
flag, a missing or non-integer value (--curves included), --r, --period or
--series below 1, a type 1/r(...) with r < 1, a genus below 1 - n (k3,
fano3), a cy3 point without three weights or a curve with s < 2, a period
above MAX_PERIOD (--r, --period, a basket or point type's r, a curve's s),
--series above MAX_SERIES, a basket or point list of more than MAX_POINTS
entries (for k3 and fano3, points with multiplicities counted), more than
MAX_WEIGHTS weights in --a, a polynomial flag whose exponents span more
than MAX_SPAN or --weights or --degrees summing to more than MAX_SPAN, or
an unparseable basket, curve, polynomial or batch file.

JSON wire format: a Laurent polynomial is a map {"exponent": "num/den"};
a rational function is {"num": <poly>, "den": [a1, a2, ...]} with the
denominator the multiset of (1 - t^a) factors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Any, Sequence

from .cy3 import CurveStratum, check_reassembly, cy3_ice_parts, cy3_rr_fit, cy3_rr_parts
from .dedekind import OrbifoldType, delta, sigma
from .exactpoly import (
    DenomSpec,
    InputError,
    LaurentPoly,
    MathCheckError,
    RationalFn,
    expand,
)
from .hilbert import (
    degree_from_decomposition,
    fano3_series,
    hilbert_ci,
    k3_series,
    parse_main,
)
from .icecream import p_orb
from .invmod import build_modulus, inv_mod

__all__ = ["run", "main", "render", "parse_basket", "poly_to_json", "poly_from_json",
           "fn_to_json", "fn_from_json"]

_BASKET_ENTRY_RE = re.compile(r"^\s*(?:(\d+)\s*[xX*]\s*)?(1\s*/\s*\d+\s*\([^)]*\))\s*$")

# Input bounds, checked before any work: the largest period (--r, --period,
# the r of every basket or point type, the s of every curve), the largest
# --series N, the most entries of a basket or point list (for k3 and fano3,
# the most points, multiplicities counted), the most weights in --a, and the
# widest exponent span, from t^0, of --numerator, --irregularity, --a-poly
# and --f-poly (and the sums of --weights and of --degrees).  Near each
# bound the slowest command takes about 1 s.
MAX_PERIOD = 100
MAX_SERIES = 100_000
MAX_POINTS = 40
MAX_WEIGHTS = 4
MAX_SPAN = 30_000


def _at_most(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise InputError(f"{what} = {value} is above the limit {limit}")


def parse_basket(text: str) -> tuple[tuple[OrbifoldType, int], ...]:
    """Parse ``[<mult>x]1/<r>(<a1>,...,<an>)`` entries separated by ``;``."""
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        m = _BASKET_ENTRY_RE.match(chunk)
        if not m:
            raise InputError(f"cannot parse basket entry: {chunk!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        q = OrbifoldType.parse(m.group(2))
        _at_most(q.r, MAX_PERIOD, f"r of {q.label()}")
        out.append((q, mult))
    if not out:
        raise InputError(f"empty basket: {text!r}")
    _at_most(len(out), MAX_POINTS, "number of basket entries")
    return tuple(out)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"expected a comma-separated integer list, got {text!r}") from None


def _weights(text: str) -> tuple[int, ...]:
    """The --a weights of dedekind, porb and invmod ("" is the empty list)."""
    weights = _int_list(text) if text else ()
    _at_most(len(weights), MAX_WEIGHTS, "number of --a weights")
    return weights


def _poly(text: str, flag: str) -> LaurentPoly:
    """A polynomial flag, its exponents within MAX_SPAN of each other and t^0."""
    p = LaurentPoly.parse(text)
    if not p.is_zero:
        span = max(p.degree, 0) - min(p.valuation, 0)
        _at_most(span, MAX_SPAN, f"exponent span of {flag}")
    return p


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"expected a rational p/q, got {text!r}") from None


def positive_int(text: str) -> int:
    """argparse type of --r, --period and --series (argparse prints its name)."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


# -- JSON wire format ---------------------------------------------------


def poly_to_json(p: LaurentPoly) -> dict[str, str]:
    return {str(e): str(c) for e, c in p.items()}


def poly_from_json(d: dict[str, str]) -> LaurentPoly:
    try:
        return LaurentPoly({int(e): Fraction(c) for e, c in d.items()})
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad polynomial JSON: {exc}") from None


def fn_to_json(f: RationalFn) -> dict[str, Any]:
    return {"num": poly_to_json(f.num), "den": list(f.den.factors)}


def fn_from_json(d: dict[str, Any]) -> RationalFn:
    try:
        return RationalFn(poly_from_json(d["num"]), DenomSpec(d["den"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad rational-function JSON: {exc}") from None


def render(result: Any, fmt: str = "text") -> str:
    """Deterministic rendering: polynomials ascending, rationals as p/q."""
    if fmt == "json":
        return json.dumps(result, indent=2, default=str)
    if isinstance(result, (LaurentPoly, RationalFn)):
        return str(result)
    if isinstance(result, dict):
        return "\n".join(f"{k} = {v}" for k, v in result.items())
    return str(result)


# -- subcommand implementations ----------------------------------------


@dataclass
class _Result:
    """One command's output, printed once by `run`: the --json `payload`
    (None when the text `lines` are JSON already), the function that
    --series expands, and a `failure` to report after printing."""

    payload: dict[str, Any] | None
    lines: list[str]
    series: RationalFn | None = None
    failure: Exception | None = None


class BatchFailure(Exception):
    """Some batch jobs failed; `code` is the worst job's exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _porb_lines(parts, k: int) -> list[str]:
    return [f"P_orb({part.source.label()}, {k}) x{mult} = {part.fn}" for part, mult in parts]


def _ci_lists(args) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """--weights and --degrees, each summing to at most MAX_SPAN."""
    weights = _int_list(args.weights)
    degrees = _int_list(args.degrees) if args.degrees else ()
    _at_most(sum(weights), MAX_SPAN, "sum of --weights")
    _at_most(sum(degrees), MAX_SPAN, "sum of --degrees")
    return weights, degrees


def _cmd_hilbert(args) -> _Result:
    P, k, n = hilbert_ci(*_ci_lists(args))
    payload = {"fn": fn_to_json(P), "k": k, "n": n}
    lines = [f"P = {P}", f"k = {k}", f"n = {n}"]
    return _Result(payload, lines, P)


def _variety_series(args) -> tuple[RationalFn, int, int]:
    weights, degrees = _ci_lists(args)
    if args.numerator:
        P = RationalFn(_poly(args.numerator, "--numerator"), weights)
        if args.k is None:
            raise InputError("--k is required with an explicit --numerator")
        k, n = args.k, len(weights) - 1 - len(degrees)
    else:
        P, k, n = hilbert_ci(weights, degrees)
        if args.k is not None:
            k = args.k
    return P, k, (n if args.n is None else args.n)


def _decomposition_payload(dec) -> dict:
    c = dec.c
    init = dec.initial_numerator
    coeffs = [] if init.is_zero else [int(init.coeff(i)) for i in range(c + 1)]
    return {
        "k": dec.k,
        "n": dec.n,
        "c": c,
        "initial": fn_to_json(dec.initial),
        "initial_numerator_coeffs": coeffs,
        "parts": [
            {
                "type": part.source.label(),
                "multiplicity": mult,
                "numerator": poly_to_json(part.numerator),
                "fn": fn_to_json(part.fn),
                "numerator_degree": part.numerator_degree,
            }
            for part, mult in dec.orbifold_parts
        ],
        "degree": str(degree_from_decomposition(dec)),
        "sum_matches_input": True,  # parse_main's exact checks imply it
    }


def _cmd_parse(args) -> _Result:
    P, k, n = _variety_series(args)
    basket = parse_basket(args.basket) if args.basket else ()
    irregularity = _poly(args.irregularity, "--irregularity") if args.irregularity else None
    dec = parse_main(P, n, k, basket, irregularity)
    payload = _decomposition_payload(dec)
    lines = [
        f"P = {P}",
        f"k = {k}, n = {n}, c = {dec.c}",
        f"initial = {dec.initial}",
        *_porb_lines(dec.orbifold_parts, k),
        f"degree D^n = {payload['degree']}",
    ]
    return _Result(payload, lines, P)


def _cmd_porb(args) -> _Result:
    q = OrbifoldType(args.r, _weights(args.a))  # --a "": 1/1()
    part = p_orb(q, args.k, args.n)
    payload = {
        "type": q.label(),
        "k": args.k,
        "numerator": poly_to_json(part.numerator),
        "fn": fn_to_json(part.fn),
        "numerator_degree": part.numerator_degree,
    }
    lines = [f"P_orb({q.label()}, {args.k}) = {part.fn}",
             f"numerator degree = {part.numerator_degree}"]
    return _Result(payload, lines, part.fn)


def _cmd_dedekind(args) -> _Result:
    q = OrbifoldType(args.r, _weights(args.a))  # --a "": 1/1()
    sg = sigma(q)
    d = delta(q)
    payload = {
        "type": q.label(),
        "sigma": [str(v) for v in sg.values],
        "delta": poly_to_json(d),
    }
    lines = [
        f"sigma({q.label()}) = ({', '.join(str(v) for v in sg.values)})",
        f"Delta = {d}",
    ]
    return _Result(payload, lines, RationalFn(d, (q.r,)))


def _cmd_invmod(args) -> _Result:
    if args.a_poly or args.f_poly:
        if not (args.a_poly and args.f_poly and args.period):
            raise InputError("--a-poly, --f-poly and --period must be given together")
        A = _poly(args.a_poly, "--a-poly")
        F = _poly(args.f_poly, "--f-poly")
        B = inv_mod(A, F, args.gamma, args.period)
        payload = {"A": poly_to_json(A), "F": poly_to_json(F), "gamma": args.gamma,
                   "inverse": poly_to_json(B)}
        lines = [f"InvMod({A}, {F}, {args.gamma}) = {B}"]
    else:
        if not (args.r and args.a):
            raise InputError("give either --r/--a or --a-poly/--f-poly/--period")
        md = build_modulus(args.r, _weights(args.a))
        B = inv_mod(md.A, md.F, args.gamma, md.r)
        payload = {
            "r": md.r,
            "A": poly_to_json(md.A),
            "h": poly_to_json(md.h),
            "F": poly_to_json(md.F),
            "d": md.d,
            "gamma": args.gamma,
            "inverse": poly_to_json(B),
        }
        lines = [f"A = {md.A}", f"h = {md.h}", f"F = {md.F}", f"d = {md.d}",
                 f"InvMod(A, F, {args.gamma}) = {B}"]
    if args.series is not None and not B.is_zero:
        # window coefficients of the inverse, lowest exponent first
        coeffs = [str(B.coeff(e)) for e in range(B.valuation, B.valuation + args.series)]
        payload["window_start"] = B.valuation
        payload["series"] = coeffs
        lines.append(f"coeffs from t^{B.valuation}: " + ", ".join(coeffs))
    return _Result(payload, lines)


# k3 and fano3, by command: payload key and text label of the degree, the
# canonical weight k = 2 - n, and the shape 1/r(1,...,1,a,r-a) of a point
_TRANSVERSE = {
    "k3": ("D2", "D^2", 0, "K3", "1/r(a,r-a)"),
    "fano3": ("minus_K3", "-K^3", -1, "Fano", "1/r(1,a,r-a)"),
}


def _cmd_transverse(args) -> _Result:
    key, label, k, kind, shape = _TRANSVERSE[args.command]
    n = 2 - k
    entries = parse_basket(args.basket) if args.basket else ()
    _at_most(sum(mult for _, mult in entries), MAX_POINTS, "number of basket points")
    pairs = []
    for q, mult in entries:
        if q.n != n or q.a_list[:n - 2] != (1,) * (n - 2) or sum(q.a_list[-2:]) % q.r != 0:
            raise InputError(f"{kind} basket entry {q.label()} must be of shape {shape}")
        pairs.extend([(q.r, q.a_list[-2])] * mult)
    series_fn = k3_series if args.command == "k3" else fano3_series
    series, degree, dec = series_fn(args.genus, pairs)
    payload = {"genus": args.genus, key: str(degree), "fn": fn_to_json(series),
               **_decomposition_payload(dec)}
    lines = [f"P = {series}", f"{label} = {degree}", f"initial = {dec.initial}",
             *_porb_lines(dec.orbifold_parts, k)]
    return _Result(payload, lines, series)


def _parse_curves(text: str, with_data: bool) -> list[CurveStratum]:
    shape = "s,a,DC[,prefactor] in rr mode" if with_data else "s,a"
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        fields = [f.strip() for f in chunk.split(",")]
        if len(fields) not in ((3, 4) if with_data else (2,)):
            raise InputError(f"curve entry {chunk!r} must be {shape}")
        try:
            s, a = int(fields[0]), int(fields[1])
        except ValueError:
            raise InputError(f"curve entry {chunk!r} needs integers s and a") from None
        _at_most(s, MAX_PERIOD, f"s of curve {chunk.strip()!r}")
        # rr mode: DC and the optional prefactor (the stratum defaults both to 0)
        out.append(CurveStratum(s, a, *(_fraction(f) for f in fields[2:])))
    return out


def _cmd_cy3(args) -> _Result:
    P, k, n = _variety_series(args)
    if (k, n) != (0, 3):
        raise InputError(f"cy3 expects a Calabi-Yau 3-fold (k=0, n=3), got k={k}, n={n}")
    points = parse_basket(args.points) if args.points else ()
    if args.mode == "ice":
        curves = _parse_curves(args.curves, with_data=False) if args.curves else []
        ice = cy3_ice_parts(P, points, curves)
        payload = {
            "mode": "ice",
            "initial": fn_to_json(ice.initial),
            "points": [
                {"type": part.source.label(), "multiplicity": mult,
                 "fn": fn_to_json(part.fn)}
                for part, mult in ice.point_parts
            ],
            "curves": [
                {"s": cp.stratum.s, "a": cp.stratum.a, "delta": cp.delta_c,
                 "A": fn_to_json(cp.a_part), "B_numerator": poly_to_json(cp.b_numerator)}
                for cp in ice.curve_parts
            ],
            "sum_matches_input": True,  # parse_main's exact checks imply it
        }
        lines = [f"P = {P}", f"P_I = {ice.initial}", *_porb_lines(ice.point_parts, 0)]
        for cp in ice.curve_parts:
            lines.append(f"curve 1/{cp.stratum.s}({cp.stratum.a},{cp.stratum.s - cp.stratum.a}): "
                         f"delta = {cp.delta_c}, A = {cp.a_part}, B = {cp.b_part}")
    else:
        curves = _parse_curves(args.curves, with_data=True) if args.curves else []
        if (args.dc2 is None) != (args.d3 is None):
            raise InputError("--dc2 and --d3 must be given together (or both omitted)")
        if args.dc2 is not None:
            parts = check_reassembly(P, cy3_rr_parts(_fraction(args.dc2), _fraction(args.d3),
                                                     points, curves))
        else:
            parts = cy3_rr_fit(P, points, curves)
        payload = {
            "mode": "rr",
            "Dc2": str(parts.dc2),
            "D3": str(parts.d3),
            "I": fn_to_json(parts.part_i),
            "II": [{"type": q.label(), "multiplicity": m, "fn": fn_to_json(fn)}
                   for q, m, fn in parts.part_ii],
            "III": [{"s": c.s, "a": c.a, "DC": str(c.dc), "fn": fn_to_json(fn)}
                    for c, fn in parts.part_iii],
            "IV": [{"s": c.s, "a": c.a, "prefactor": str(c.iv_prefactor),
                    "fn": fn_to_json(fn)} for c, fn in parts.part_iv],
            "sum_matches_input": True,
        }
        lines = [f"P = {P}", f"Dc2 = {parts.dc2}, D3 = {parts.d3}",
                 f"I = {parts.part_i}"]
        for q, m, fn in parts.part_ii:
            lines.append(f"II({q.label()}) x{m} = {fn}")
        for c, fn in parts.part_iii:
            lines.append(f"III(1/{c.s}) = {fn}")
        for c, fn in parts.part_iv:
            lines.append(f"IV(1/{c.s}) = {fn}")
    return _Result(payload, lines, P)


def _cmd_verify(args) -> _Result:
    P, k, n = _variety_series(args)
    basket = parse_basket(args.basket) if args.basket else ()
    irregularity = _poly(args.irregularity, "--irregularity") if args.irregularity else None
    # one parse: its symmetry check (of P - J) is the first entry
    checks: list[dict[str, Any]] = [{"name": "gorenstein_symmetry", "ok": True}]
    dec = None
    try:
        dec = parse_main(P, n, k, basket, irregularity)
        checks.append({"name": "parse", "ok": True})
    except MathCheckError as exc:
        if exc.check == "gorenstein_symmetry":
            checks[0]["ok"] = False
        else:
            checks.append({"name": "parse", "ok": False, "check": exc.check,
                           "detail": str(exc)})
    payload: dict[str, Any] = {"k": k, "n": n, "checks": checks}
    lines = [f"{ch['name']}: {'ok' if ch['ok'] else 'FAILED'}"
             + (f" ({ch['detail']})" if ch.get("detail") else "") for ch in checks]
    if dec is not None:
        payload.update(_decomposition_payload(dec))
        lines.append(f"initial = {dec.initial}")
        lines.append(f"degree D^n = {payload['degree']}")
    failure = None
    if not all(ch["ok"] for ch in checks):
        failure = MathCheckError("verification failed", check="verify")
    return _Result(payload, lines, P, failure)


def _cmd_batch(args) -> _Result:
    try:
        with open(args.file, encoding="utf-8") as fh:
            jobs = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read batch file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"batch file is not valid JSON: {exc}") from None
    if not isinstance(jobs, list):
        raise InputError("batch file must contain a JSON array of job specs")
    results = []
    worst = 0
    for i, job in enumerate(jobs):
        if not isinstance(job, dict) or "command" not in job:
            raise InputError(f"job {i} must be an object with a 'command' field")
        argv = [str(job["command"])]
        payload = job.get("payload", {})
        if not isinstance(payload, dict):
            raise InputError(f"job {i}: payload must be an object")
        for key, value in payload.items():
            flag = "--" + str(key).replace("_", "-")
            if isinstance(value, bool):
                if value:
                    argv.append(flag)
            elif isinstance(value, list):
                argv.extend([flag, ",".join(str(v) for v in value)])
            else:
                argv.extend([flag, str(value)])
        if job.get("output_format", "json") == "json" and "--json" not in argv:
            argv.append("--json")
        code = run(argv)
        worst = max(worst, code)
        results.append({"job": i, "command": job["command"], "exit": code})
    failed = sum(1 for r in results if r["exit"])
    failure = BatchFailure(f"{failed} batch job(s) failed", worst) if worst else None
    return _Result(None, [json.dumps({"jobs": results, "exit": worst})], failure=failure)


@cache
def _build_parser() -> argparse.ArgumentParser:
    # building the parser costs more than most commands take to run, so it is
    # built on first use (not at import) and shared by later calls and batch jobs
    parser = argparse.ArgumentParser(
        prog="orbhilb",
        description="Exact Hilbert series of polarized orbifolds: compute, "
        "decompose into ice cream parts, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def variety(p: argparse.ArgumentParser) -> None:
        p.add_argument("--weights", required=True, help="ambient weights a0,a1,...")
        p.add_argument("--degrees", help="equation degrees d1,...")
        p.add_argument("--numerator", help="explicit Hilbert numerator over prod(1-t^a)")
        p.add_argument("--k", type=int, help="canonical weight (required with --numerator)")
        p.add_argument("--n", type=int, help="dimension override")

    p = sub.add_parser("hilbert", help="Hilbert series of a weighted complete intersection")
    p.add_argument("--weights", required=True)
    p.add_argument("--degrees")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("parse", help="split a Hilbert series into initial + ice cream parts")
    variety(p)
    p.add_argument("--basket", help='e.g. "5x1/2(1,1,1);1/3(1,2,2)"')
    p.add_argument("--irregularity", help="irregularity polynomial J(t)")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("porb", help="single orbifold contribution")
    p.add_argument("--r", type=positive_int, required=True)
    p.add_argument("--a", required=True, help="weights a1,...,an")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_porb)

    p = sub.add_parser("dedekind", help="Dedekind sums sigma_i and Delta")
    p.add_argument("--r", type=positive_int, required=True)
    p.add_argument("--a", required=True)
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("invmod", help="inverse of A modulo F in a support window")
    p.add_argument("--r", type=positive_int, help="period (builds A, h, F from weights)")
    p.add_argument("--a", help="weights a1,...,an")
    p.add_argument("--gamma", type=int, default=0, help="window start (default 0)")
    p.add_argument("--a-poly", help="explicit A polynomial")
    p.add_argument("--f-poly", help="explicit F polynomial")
    p.add_argument("--period", type=positive_int,
                   help="r with t^r == 1 mod F (explicit mode)")
    p.set_defaults(func=_cmd_invmod)

    p = sub.add_parser("k3", help="polarized K3 surface series from genus and basket")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--basket", help='e.g. "1/2(1,1);1/3(1,2)"')
    p.set_defaults(func=_cmd_transverse)

    p = sub.add_parser("fano3", help="Q-Fano 3-fold anticanonical series")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--basket", help='e.g. "1/2(1,1,1);1/3(1,1,2)"')
    p.set_defaults(func=_cmd_transverse)

    p = sub.add_parser("cy3", help="Calabi-Yau 3-fold decompositions with curve strata")
    variety(p)
    p.add_argument("--points", help="point basket, same grammar as --basket")
    p.add_argument("--curves", help='"s,a;..." (ice mode) or "s,a,DC[,pref];..." (rr mode)')
    p.add_argument("--mode", choices=("ice", "rr"), default="ice")
    p.add_argument("--dc2", help="D.c2 (rr mode; fitted from the series if omitted)")
    p.add_argument("--d3", help="D^3 (rr mode; fitted from the series if omitted)")
    p.set_defaults(func=_cmd_cy3)

    p = sub.add_parser("verify", help="check Gorenstein symmetry and basket consistency")
    variety(p)
    p.add_argument("--basket")
    p.add_argument("--irregularity")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("batch", help="run a JSON file of job specs")
    p.add_argument("file")
    p.set_defaults(func=_cmd_batch)

    for p in sub.choices.values():  # after each command's own flags, as in its usage line
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--series", type=positive_int, metavar="N",
                       help="print the first N expanded coefficients")
    return parser


def _report(exc: Exception) -> int:
    """Print the JSON diagnostic of a failure on stderr; return its exit code."""
    d: dict[str, Any] = {"error": str(exc), "type": type(exc).__name__}
    check = getattr(exc, "check", None)
    if check:
        d["check"] = check
    residual = getattr(exc, "residual", None)
    if isinstance(residual, LaurentPoly):
        d["residual"] = poly_to_json(residual)
    elif isinstance(residual, RationalFn):
        d["residual"] = fn_to_json(residual)
    print(json.dumps(d), file=sys.stderr)
    if isinstance(exc, BatchFailure):
        return exc.code
    return 2 if isinstance(exc, InputError) else 1


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch a command line; returns the exit status (0/1/2)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for flag, limit in (("r", MAX_PERIOD), ("period", MAX_PERIOD), ("series", MAX_SERIES)):
            _at_most(getattr(args, flag, None) or 0, limit, f"--{flag}")
        res = args.func(args)
        if args.series is not None and res.series is not None:
            coeffs = [str(c) for _, c in expand(res.series, args.series - 1)]
            res.payload["series"] = coeffs
            res.lines.append("series: " + ", ".join(coeffs))
    # ValueError covers InputError, NotCoprimeError, SeriesExpansionError and
    # the semantic violations (bad weight congruence, invalid type data)
    except (MathCheckError, ValueError, ZeroDivisionError) as exc:
        return _report(exc)
    json_doc = args.json and res.payload is not None
    print(render(res.payload, "json") if json_doc else "\n".join(res.lines))
    return _report(res.failure) if res.failure else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
