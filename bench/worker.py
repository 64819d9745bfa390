"""Run one workload in this (fresh) interpreter and print a JSON record.

Started by run.py as
    python3 bench/worker.py --workload W --seed N (--seconds S | --items M)
                            [--trace FILE] --workdir DIR
One single-threaded client drives the library in a closed loop: the next
item starts only when the previous one has returned.  Only the library
calls are timed; every output is then checked by oracle.py outside the
timed region.  After each input block the host speed gauge of calib.py is
read, and timings are reported both as measured ("raw") and scaled to the
gauge's reference speed.  The first statements time
`import orbhilb, orbhilb.cli`.
"""

import sys
import time

_t0 = time.perf_counter()
import orbhilb  # noqa: E402
import orbhilb.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402
import clijobs  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from orbhilb import dedekind, hilbert, icecream  # noqa: E402
from orbhilb.dedekind import OrbifoldType  # noqa: E402
from orbhilb.hilbert import DecompositionError  # noqa: E402

ITEM_TIME_LIMIT_S = 60.0

# Library functions are looked up on their modules at call time, so that the
# traced run's wrappers see the calls made from here.


def _terms(p) -> dict:
    return dict(p.items())


# -- sweep ---------------------------------------------------------------


def run_sweep(item):
    Q = OrbifoldType(item["r"], item["a"])
    k = item["k"]
    sg = dedekind.sigma(Q)
    if item["isolated"]:
        return sg, icecream.p_orb(Q, k), icecream.porb_minus_dedekind(Q, k)
    return sg, icecream.p_orb_general(Q, k), None


def check_sweep(item, out) -> None:
    r, a, k = item["r"], item["a"], item["k"]
    sg, part, pmd = out
    oracle.check_sigma(r, a, sg.values)
    B = _terms(part.numerator)
    oracle.check_icecream(r, a, k, B, part.numerator_degree, part.fn.den.factors)
    if item["isolated"]:
        oracle.check_porb_minus_dedekind(r, len(a), B, sg.values, _terms(pmd.num),
                                         pmd.den.factors)


def describe_sweep(item) -> dict:
    return {"r": item["r"], "n": len(item["a"]), "isolated": item["isolated"],
            "k": item["k"], "a": item["a"]}


# -- baskets -------------------------------------------------------------

SHAPES = {
    # shape: (series function in hilbert, n, k, weights of the point given (r, a))
    "k3": ("k3_series", 2, 0, lambda r, a: (a, r - a)),
    "fano3": ("fano3_series", 3, -1, lambda r, a: (1, a, r - a)),
}


def run_baskets(item):
    fn_name, n, k, weights = SHAPES[item["shape"]]
    series_fn = getattr(hilbert, fn_name)
    series, degree, _ = series_fn(item["genus"], [tuple(p) for p in item["basket"]])
    claim = [(OrbifoldType(r, weights(r, a)), 1) for r, a in item["claim"]]
    try:
        dec = hilbert.parse_main(series, n, k, claim)
    except DecompositionError as exc:
        return series, degree, ("reject", exc.check)
    return series, degree, ("pass", dec, dec.total(), hilbert.degree_from_decomposition(dec))


def check_baskets(item, out) -> None:
    _, n, k, weights = SHAPES[item["shape"]]
    series, degree, verdict = out
    expected_degree = oracle.genus_degree(item["genus"], item["basket"])
    oracle.require(degree == expected_degree, f"degree {degree} != {expected_degree}")
    if item["expect"] != "pass":
        oracle.require(verdict == ("reject", item["expect"]),
                       f"verdict {verdict[:2]} != ('reject', {item['expect']!r})")
        return
    oracle.require(verdict[0] == "pass", f"true basket rejected: {verdict[1]}")
    _, dec, total, recovered = verdict
    P = (_terms(series.num), series.den.factors)
    oracle.require(oracle.same_fn(_terms(total.num), total.den.factors, *P), "total() != P")
    oracle.require(recovered == expected_degree, f"recovered degree {recovered}")
    init = _terms(dec.initial.num)
    oracle.require(init == oracle.genus_initial(item["genus"]), f"initial numerator {init}")
    oracle.require(list(dec.initial.den.factors) == [1] * (n + 1), "initial denominator")
    oracle.require(len(dec.orbifold_parts) == len(item["claim"]), "number of parts")
    # reassemble P from the checked parts without the library's arithmetic
    fns = [(init, [1] * (n + 1))]
    for (part, mult), (r, a) in zip(dec.orbifold_parts, item["claim"]):
        w = list(weights(r, a))
        oracle.require((part.source.r, list(part.source.a_list)) == (r, w), "part type")
        B = _terms(part.numerator)
        oracle.check_icecream(r, w, k, B, part.numerator_degree, part.fn.den.factors)
        fns.append(({e: c * mult for e, c in B.items()}, part.fn.den.factors))
    oracle.require(oracle.same_fn(*oracle.fn_sum(fns), *P), "parts do not sum to P")


def describe_baskets(item) -> dict:
    return {"shape": item["shape"], "genus": item["genus"], "points": len(item["basket"]),
            "max_r": max(r for r, _ in item["basket"]), "expect": item["expect"]}


# -- cli -----------------------------------------------------------------


def cli_stream(seed: int, batch_file: str):
    rng = random.Random(f"cli:{seed}")
    block = 0
    while True:
        items = clijobs.pass_items()
        rng.shuffle(items)
        for name, argv in items:
            yield block, {"job": name,
                          "argv": [a.replace("{batch_file}", batch_file) for a in argv]}
        block += 1


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = orbhilb.cli.run(argv)
    return out.getvalue(), code


def check_cli(goldens: dict, item, out) -> None:
    stdout, code = out
    oracle.check_golden(stdout, code, goldens[item["job"]])


def describe_cli(item) -> dict:
    return {"job": item["job"]}


def contract_probes() -> list[dict]:
    """Run the in-process malformed-input probes against the README contract."""
    results = []
    for name, argv in clijobs.MALFORMED:
        try:
            _, code = call_cli(argv)
        except Exception as exc:  # a crash is reported like any other wrong exit
            code = f"raised {type(exc).__name__}"
        results.append({"job": name, "exit": code, "expected": clijobs.CONTRACT_EXIT,
                        "ok": code == clijobs.CONTRACT_EXIT})
    return results


# -- main loop ---------------------------------------------------------------


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _block_rate(blocks: dict) -> float:
    """Median over the complete input blocks of checked items per timed second.

    Each block is a stratified sample of the workload's inputs, so the
    median of block rates is steady against a few slow items.  A block is
    complete when the next one has started; with fewer than three complete
    blocks the rate is taken over the whole run.
    """
    complete = [n / t for b, (n, t) in blocks.items() if b + 1 in blocks and t > 0]
    if len(complete) >= 3:
        return statistics.median(complete)
    total = sum(t for _, t in blocks.values())
    return sum(n for n, _ in blocks.values()) / total if total > 0 else 0.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("sweep", "baskets", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--items", type=int)
    ap.add_argument("--trace")
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    loaded_from = Path(orbhilb.__file__).resolve().parent.parent
    if loaded_from != Path(args.src).resolve():
        print(f"orbhilb was imported from {loaded_from}, not {args.src}", file=sys.stderr)
        return 3

    workdir = Path(args.workdir)
    if args.workload == "sweep":
        stream, runner, checker, describe = (
            gen.sweep_stream(args.seed), run_sweep, check_sweep, describe_sweep)
    elif args.workload == "baskets":
        stream, runner, checker, describe = (
            gen.baskets_stream(args.seed), run_baskets, check_baskets, describe_baskets)
    else:
        batch_file = workdir / "batch_jobs.json"
        batch_file.write_text(json.dumps(clijobs.batch_jobs(), indent=1), encoding="utf-8")
        stream = cli_stream(args.seed, str(batch_file))
        runner = lambda item: call_cli(item["argv"])  # noqa: E731
        checker = functools.partial(check_cli, clijobs.load_goldens())
        describe = describe_cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    inputs = gen.Digest()
    passed, failures, records = [], [], []  # passed: (block, seconds)
    blocks: dict[int, list] = {}  # block -> [passed items, timed seconds]
    speed: dict[int, float] = {}  # block -> host speed factor sampled after it
    timed = 0.0
    stdout_bytes = 0
    clock = time.perf_counter
    gauge = calib.SpeedGauge()
    try:
        first_speed = gauge.sample()
        current = None
        for i, (block, item) in enumerate(stream):
            if i >= args.items if args.items is not None else timed >= args.seconds:
                break
            if block != current:
                if current is not None:
                    speed[current] = gauge.sample()
                current = block
            inputs.add(item)
            if tracer is not None:
                tracer.item = i
            start = clock()
            try:
                out, error = runner(item), None
            except Exception as exc:  # an unexpected exception fails the item
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - start
            timed += dt
            if error is None and dt > ITEM_TIME_LIMIT_S:
                error = f"exceeded the {ITEM_TIME_LIMIT_S} s item time limit"
            if error is None:
                try:
                    checker(item, out)
                except oracle.Mismatch as exc:
                    error = f"wrong output: {exc}"
            acc = blocks.setdefault(block, [0, 0.0])
            acc[1] += dt
            if error is None:
                passed.append((block, dt))
                acc[0] += 1
            else:
                failures.append({"item": i, **describe(item), "error": error[:300]})
            if args.workload == "cli" and out is not None:
                stdout_bytes += len(out[0].encode())
            if tracer is not None:
                records.append({"item": i, "workload": args.workload, **describe(item),
                                "ok": error is None, "s": dt})
        if current is not None and current not in speed:
            speed[current] = gauge.sample()
    finally:
        gauge.close()
        if tracer is not None:
            tracer.restore()

    # a block's speed factor is the mean of the gauge readings around it
    factor, before = {}, first_speed
    for b in sorted(speed):
        factor[b] = (before + speed[b]) / 2
        before = speed[b]
    scaled = sorted(dt / factor[b] for b, dt in passed)
    raw = sorted(dt for _, dt in passed)
    probes = contract_probes() if args.workload == "cli" and not args.trace else []
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": SETUP_S / first_speed,
        "attempted": len(passed) + len(failures),
        "failed": len(failures),
        "failures": failures[:20],
        "timed_s": sum(t / factor[b] for b, (_, t) in blocks.items()),
        "items_per_s": _block_rate({b: (n, t / factor[b]) for b, (n, t) in blocks.items()}),
        "item_ms_p50": 1000 * _quantile(scaled, 0.5) if scaled else None,
        "item_ms_p90": 1000 * _quantile(scaled, 0.9) if scaled else None,
        "samples": len(scaled),
        "blocks": len(blocks),
        "speed_factor": statistics.median(factor.values()),
        "raw": {
            "setup_s": SETUP_S,
            "timed_s": timed,
            "items_per_s": _block_rate(blocks),
            "item_ms_p50": 1000 * _quantile(raw, 0.5) if raw else None,
            "item_ms_p90": 1000 * _quantile(raw, 0.9) if raw else None,
        },
        "inputs_digest": inputs.hexdigest(),
        "probes": probes,
    }
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] = stdout_bytes
        result["layers"] = tracer.layer_metrics()
        _write_trace(args.trace, tracer, records)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def _write_trace(path: str, tracer, records) -> None:
    """Per-item records, then the spans, one JSON value per line.

    A record holds the item's inputs, its wall time, the duration of each
    top-level public call ("calls"), and per wrapped function the summed
    inclusive ("incl_s") and self ("self_s") time.
    """
    per_item: dict = {}
    for sid, item, idx, dur, own in tracer.self_times():
        rec = per_item.setdefault(item, {"incl_s": {}, "self_s": {}})
        name = tracer.names[idx]
        rec["incl_s"][name] = rec["incl_s"].get(name, 0.0) + dur
        rec["self_s"][name] = rec["self_s"].get(name, 0.0) + own
    top: dict = {}
    for sid, parent, item, idx, start, end in tracer.spans:
        if parent == -1:
            top.setdefault(item, {}).setdefault(tracer.names[idx], []).append(end - start)
    header = {"names": tracer.names,
              "span_fields": ["id", "parent", "item", "name", "start", "end"]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in records:
            times = per_item.get(rec["item"], {"incl_s": {}, "self_s": {}})
            full = {**rec, "calls": top.get(rec["item"], {}), **times}
            fh.write(json.dumps({"record": full}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
