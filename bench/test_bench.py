"""Self-tests of the benchmark: inputs, oracle, goldens and tracing.

    python3 -m pytest bench/test_bench.py -q
"""

import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import calib  # noqa: E402
import clijobs  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import (  # noqa: E402
    call_cli,
    check_baskets,
    check_sweep,
    cli_stream,
    run_baskets,
    run_sweep,
)


def take(stream, n):
    return [item for _, item in itertools.islice(stream, n)]


@pytest.mark.parametrize("stream", [gen.sweep_stream, gen.baskets_stream,
                                    lambda s: cli_stream(s, "jobs.json")])
def test_same_seed_same_digest(stream):
    assert gen.digest(take(stream(7), 60)) == gen.digest(take(stream(7), 60))


@pytest.mark.parametrize("stream", [gen.sweep_stream, gen.baskets_stream])
def test_other_seed_other_digest(stream):
    assert gen.digest(take(stream(7), 60)) != gen.digest(take(stream(8), 60))


def test_sweep_types_are_distinct():
    items = take(gen.sweep_stream(3), 500)
    assert len({(it["r"], tuple(sorted(it["a"]))) for it in items}) == 500


def _isolated_item():
    return next(it for it in take(gen.sweep_stream(1), 48)
                if it["isolated"] and len(it["a"]) == 3 and it["r"] > 10)


def _strata_item():
    return next(it for it in take(gen.sweep_stream(1), 48) if not it["isolated"])


@pytest.mark.parametrize("make", [_isolated_item, _strata_item])
def test_oracle_accepts_library_output(make):
    item = make()
    check_sweep(item, run_sweep(item))


def test_oracle_rejects_corrupted_delta():
    item = _isolated_item()
    r, a = item["r"], item["a"]
    sg, _, _ = run_sweep(item)
    good = list(sg.values)
    oracle.check_sigma(r, a, good)
    # keep the sum at zero so only the identities can catch it
    bad = list(good)
    bad[1] += Fraction(1, r)
    bad[2] -= Fraction(1, r)
    with pytest.raises(oracle.Mismatch):
        oracle.check_sigma(r, a, bad)


def test_oracle_rejects_corrupted_numerator():
    item = _isolated_item()
    r, a, k = item["r"], item["a"], item["k"]
    _, part, _ = run_sweep(item)
    B = dict(part.numerator.items())
    oracle.check_icecream(r, a, k, B, part.numerator_degree, part.fn.den.factors)
    # a palindromic, integral corruption: only the congruence can catch it
    e = min(B)
    bad = dict(B)
    bad[e] += 1
    bad[part.numerator_degree - e] = bad[e] if e * 2 == part.numerator_degree else B[e] + 1
    with pytest.raises(oracle.Mismatch, match="modulo F"):
        oracle.check_icecream(r, a, k, bad, part.numerator_degree, part.fn.den.factors)


def test_oracle_rejects_wrong_verdict():
    item = next(it for it in take(gen.baskets_stream(2), 16) if it["expect"] == "pass")
    out = run_baskets(item)
    check_baskets(item, out)
    with pytest.raises(oracle.Mismatch):
        check_baskets({**item, "expect": "residual_denominator"}, out)


def test_golden_mismatch_is_rejected():
    goldens = clijobs.load_goldens()
    name, argv, _ = clijobs.JOBS[0]
    stdout, code = call_cli(argv)
    oracle.check_golden(stdout, code, goldens[f"{name}.text"])
    with pytest.raises(oracle.Mismatch):
        oracle.check_golden(stdout + " ", code, goldens[f"{name}.text"])
    with pytest.raises(oracle.Mismatch):
        oracle.check_golden(stdout, 1, goldens[f"{name}.text"])


def test_every_job_has_a_golden():
    goldens = clijobs.load_goldens()
    names = [n for n, _ in clijobs.pass_items()] + [n for n, _ in clijobs.MALFORMED]
    assert set(names) | {clijobs.OVERSIZED[0]} == set(goldens)


def test_tracer_restores_every_name():
    import orbhilb.cli
    import orbhilb.dedekind
    import orbhilb.exactpoly

    mul = vars(orbhilb.exactpoly.LaurentPoly)["__mul__"]
    delta = orbhilb.dedekind.delta
    tracer = Tracer()
    tracer.install()
    try:
        assert Tracer.leftover_wrappers()
        assert orbhilb.cli.delta is orbhilb.dedekind.delta is not delta
        tracer.item = 0
        run_sweep(_isolated_item())
    finally:
        tracer.restore()
    assert Tracer.leftover_wrappers() == []
    assert vars(orbhilb.exactpoly.LaurentPoly)["__mul__"] is mul
    assert vars(orbhilb.exactpoly.LaurentPoly)["__rmul__"] is mul
    assert orbhilb.dedekind.delta is delta and orbhilb.cli.delta is delta
    layers = tracer.layer_metrics()
    assert layers["dedekind.sigma.self_s"] > 0
    assert layers["exactpoly.mul.calls"] > 0 and layers["cli.run.calls"] == 0


def _traced_counts(workload, tmp_path, tag):
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
         "--items", "12", "--src", str(SRC), "--workdir", str(tmp_path),
         "--trace", str(tmp_path / f"{tag}.jsonl")],
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"},
        capture_output=True, text=True, timeout=120, check=True,
    )
    layers = json.loads(out.stdout.strip().splitlines()[-1])["layers"]
    return {k: v for k, v in layers.items() if not k.endswith("self_s")}


def test_traced_counts_repeat(tmp_path):
    first = _traced_counts("baskets", tmp_path, "a")
    assert first == _traced_counts("baskets", tmp_path, "b")
    assert first["invmod.inv_mod.calls"] == first["dedekind.delta.calls"] == 0
    assert first["cli.run.calls"] == 0 and first["hilbert.parse_main.calls"] > 0


def test_speed_gauge_reads_and_exits():
    gauge = calib.SpeedGauge()
    try:
        readings = [gauge.sample() for _ in range(3)]
    finally:
        gauge.close()
    assert all(r > 0 for r in readings)
    assert gauge._proc.returncode == 0
