"""orbhilb benchmark: seeded workloads, checked outputs, per-layer tracing.

    python3 bench/run.py --workload {sweep,baskets,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the library is imported from ./src.

Workloads (each in a fresh interpreter, one single-threaded client in a
closed loop, so the next item starts when the previous one returns):

* sweep   - distinct cyclic types 1/r(a_1..a_n), r log-uniform in [5, 64],
            n in {2, 3, 4}, a quarter on curve strata: sigma, p_orb (or
            p_orb_general) and porb_minus_dedekind.  Exercises InverseMod:
            build_modulus, inv_mod, poly_ext_gcd, reduce_to_window.
* baskets - K3 surfaces and Q-Fano 3-folds from genus plus a basket with
            r <= 25, parsed against the true basket (must pass) or one with
            a point dropped or added (must fail residual_denominator).
            Exercises hilbert's parse and RationalFn arithmetic; never
            calls inv_mod or delta.
* cli     - every README CLI example plus X80 and the Pfaffian verify,
            through orbhilb.cli.run in text and --json form and once per
            pass through `batch`; stdout and exit codes are compared with
            goldens/cli.json byte for byte.  Four malformed inputs probe
            the README exit-2 contract once per run and are reported by
            name; they are not part of the timed loop.

--trace 0 measures for --seconds of timed work and prints the end-to-end
metrics: items_per_s (median over input blocks), item_ms_p50 and
item_ms_p90 (over checked items), setup_s (median import time of
`orbhilb, orbhilb.cli` over several fresh interpreters) and peak_rss_mb
(ru_maxrss of the workload interpreter).  Failed items are counted in
"failed" against "attempted".  The timings are scaled to a reference host
speed by the gauge of calib.py, read after every input block and every
import probe, because a shared host drifts by more than the differences
worth detecting; the raw wall-clock values are printed beside them and kept
in the result file.  run.py pins itself and its children to one CPU.

--trace 1 runs a fixed number of items twice, untraced and traced, each in
a fresh interpreter, so that counts repeat exactly for a seed.  It prints
the per-layer metrics of spans.py (self times as measured) and
trace.overhead_frac, the traced run's extra scaled timed work as a share of
the untraced run's.  Spans and per-item records go to
bench/out/trace-<workload>-seed<N>.jsonl; summary.py reads them.

Every run writes bench/out/result-<workload>-seed<N>-trace<T>.json with the
seed, the Python implementation and version, nproc, and the sha256 of the
generated inputs.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import clijobs  # noqa: E402
from spans import metric_units  # noqa: E402

WORKLOADS = ("sweep", "baskets", "cli")
SETUP_PROBES = 9
TRACE_ITEMS = {"sweep": 192, "baskets": 96, "cli": 100}
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import orbhilb, orbhilb.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    pass


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(argv, env, timeout) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def setup_times(src: Path) -> tuple[list[float], list[float]]:
    """Import time in fresh interpreters, as measured and scaled by the gauge.

    The first probe, which may compile the sources, is dropped.
    """
    env = _env(src)
    raw, scaled = [], []
    with calib.SpeedGauge() as gauge:
        for i in range(SETUP_PROBES + 1):
            proc = _child([sys.executable, "-c", IMPORT_PROBE], env, 60)
            factor = gauge.sample()
            if i:
                raw.append(float(proc.stdout.strip()))
                scaled.append(raw[-1] / factor)
    return raw, scaled


def worker(src: Path, workdir: Path, workload: str, seed: int, *, seconds=None,
           items=None, trace_file=None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--src", str(src), "--workdir", str(workdir)]
    argv += ["--seconds", str(seconds)] if items is None else ["--items", str(items)]
    if trace_file is not None:
        argv += ["--trace", str(trace_file)]
    proc = _child(argv, _env(src), WORKER_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def oversized_probe(src: Path) -> dict:
    """The one malformed input that hangs today, run under a time limit."""
    name, argv = clijobs.OVERSIZED
    try:
        proc = subprocess.run([sys.executable, "-m", "orbhilb.cli", *argv], env=_env(src),
                              capture_output=True, text=True,
                              timeout=clijobs.PROBE_TIME_LIMIT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = f"timeout after {clijobs.PROBE_TIME_LIMIT_S} s"
    return {"job": name, "exit": code, "expected": clijobs.CONTRACT_EXIT,
            "ok": code == clijobs.CONTRACT_EXIT}


def inputs_record(res: dict, seed: int, nproc: int) -> dict:
    return {
        "seed": seed,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": nproc,
        "attempted": res["attempted"],
        "inputs_sha256": res["inputs_digest"],
    }


def _fmt(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<14} {value:>12.6g} {unit:<8} {note}"


def end_to_end(src, workdir, workload, seed, seconds) -> tuple[dict, dict, list[str]]:
    setup_raw, setup_scaled = setup_times(src)
    res = worker(src, workdir, workload, seed, seconds=seconds)
    if res["samples"] == 0:
        raise BenchError(f"no item of {workload} passed its check: {res['failures'][:3]}")
    probes = res["probes"] + ([oversized_probe(src)] if workload == "cli" else [])
    setup_raw.append(res["raw"]["setup_s"])
    setup_scaled.append(res["setup_s"])
    values = {
        "items_per_s": res["items_per_s"],
        "item_ms_p50": res["item_ms_p50"],
        "item_ms_p90": res["item_ms_p90"],
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = dict(res["raw"], setup_s=statistics.median(setup_raw))
    n = res["samples"]
    lines = [
        f"  timings scaled to the reference host speed (calib.py); raw wall-clock in brackets;"
        f" median host speed factor {res['speed_factor']:.3f}",
        _fmt("items_per_s", values["items_per_s"], "items/s",
             f"[{raw['items_per_s']:.6g}] median over {res['blocks']} input blocks;"
             f" {n} checked items in {raw['timed_s']:.3f} s of timed work"),
        _fmt("item_ms_p50", values["item_ms_p50"], "ms", f"[{raw['item_ms_p50']:.6g}] n={n}"),
        _fmt("item_ms_p90", values["item_ms_p90"], "ms",
             f"[{raw['item_ms_p90']:.6g}] n={n}, {n - int(0.9 * n)} beyond"),
        _fmt("setup_s", values["setup_s"], "s",
             f"[{raw['setup_s']:.6g}] median of {len(setup_scaled)} fresh interpreters"),
        _fmt("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss of the workload interpreter"),
        f"  failed_frac    {res['failed']}/{res['attempted']}",
    ]
    for f in res["failures"]:
        lines.append(f"  FAILED {json.dumps(f)}")
    bad = [p for p in probes if not p["ok"]]
    if probes:
        lines.append(f"  README exit-2 contract probes (outside the timed loop, not counted "
                     f"in failed): {len(probes) - len(bad)}/{len(probes)} pass")
        for p in bad:
            lines.append(f"    known defect {p['job']}: exit {p['exit']}, expected {p['expected']}")
    extra = {"raw": raw, "speed_factor": res["speed_factor"], "setup_samples_s": setup_raw,
             "setup_scaled_s": setup_scaled, "probes": probes, "failures": res["failures"],
             "samples": n}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return res, {"metrics": metrics, **extra}, lines


def traced(src, workdir, workload, seed) -> tuple[dict, dict, list[str]]:
    items = TRACE_ITEMS[workload]
    plain = worker(src, workdir, workload, seed, items=items)
    trace_file = workdir / f"trace-{workload}-seed{seed}.jsonl"
    res = worker(src, workdir, workload, seed, items=items, trace_file=trace_file)
    if res["inputs_digest"] != plain["inputs_digest"]:
        raise BenchError("traced and untraced runs saw different inputs")
    units = metric_units()
    values = dict(res["layers"])
    values["trace.overhead_frac"] = res["timed_s"] / plain["timed_s"] - 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    lines = [_fmt(k, v["value"], v["unit"]) for k, v in metrics.items()]
    lines.append(f"  spans and per-item records: {trace_file.relative_to(Path.cwd())}")
    return res, {"metrics": metrics, "untraced_scaled_timed_s": plain["timed_s"],
                 "traced_scaled_timed_s": res["timed_s"], "failures": res["failures"]}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "orbhilb" / "__init__.py").is_file():
        print(f"no orbhilb package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    calib.pin_to_current_cpu()
    try:
        if args.trace:
            res, detail, lines = traced(src, workdir, args.workload, args.seed)
        else:
            res, detail, lines = end_to_end(src, workdir, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    record = inputs_record(res, args.seed, nproc)
    out_file = workdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"workload": args.workload, "inputs": record, **detail},
                                   indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload}: seed {record['seed']}, {record['python']}, nproc "
          f"{record['nproc']}, {record['attempted']} items, inputs sha256 "
          f"{record['inputs_sha256'][:16]}")
    print("\n".join(lines))
    print(f"  full record: {out_file.relative_to(root)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
