"""Summarize traced sweep runs: how p_orb and delta scale with r and n.

    python3 bench/summary.py [bench/out/trace-sweep-seed*.jsonl ...]

Reads the per-item records that `run.py --trace 1` writes and rebuilds the
baseline scaling table from sweep data: p_orb time for the family
1/r(1,2,r-3) with the fitted exponent of r, and the delta tail per n.
"""

from __future__ import annotations

import glob
import json
import math
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def load_records(paths) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith('{"record"'):
                    records.append(json.loads(line)["record"])
    return [r for r in records if r.get("workload") == "sweep" and r["ok"]]


def slope(points) -> float | None:
    """Least-squares exponent b in t ~ r^b."""
    if len(points) < 2 or len({r for r, _ in points}) < 2:
        return None
    xs = [math.log(r) for r, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def summarize(records) -> list[str]:
    lines = [f"{len(records)} checked sweep items"]
    family = sorted(
        (rec["r"], rec["incl_s"]["icecream.p_orb"], rec["incl_s"].get("dedekind.delta", 0.0))
        for rec in records
        if rec["a"] == [1, 2, rec["r"] - 3] and "icecream.p_orb" in rec["incl_s"]
    )
    lines.append("p_orb and delta on 1/r(1,2,r-3):")
    for r, t_porb, t_delta in family:
        lines.append(f"  r={r:<4} p_orb {1000 * t_porb:9.3f} ms   delta {1000 * t_delta:9.3f} ms")
    b = slope([(r, t) for r, t, _ in family])
    lines.append(f"  p_orb ~ r^{b:.2f}" if b is not None else "  too few points for a fit")
    lines.append("delta per call, by n (ms): median / p90 / max, slowest type")
    for n in sorted({rec["n"] for rec in records}):
        rows = [(rec["incl_s"].get("dedekind.delta", 0.0), rec) for rec in records if rec["n"] == n]
        times = sorted(t for t, _ in rows)
        p90 = times[min(len(times) - 1, int(0.9 * len(times)))]
        worst_t, worst = max(rows, key=lambda row: row[0])
        lines.append(
            f"  n={n}: {1000 * statistics.median(times):8.2f} / {1000 * p90:8.2f} / "
            f"{1000 * worst_t:8.2f}   1/{worst['r']}({','.join(map(str, worst['a']))})"
            f"  ({len(times)} items)"
        )
    return lines


def main(argv) -> int:
    paths = argv or sorted(glob.glob(str(OUT / "trace-sweep-seed*.jsonl")))
    if not paths:
        print("no traced sweep output; run: python3 bench/run.py --workload sweep "
              "--seed 1 --seconds 20 --trace 1", file=sys.stderr)
        return 2
    records = load_records(paths)
    if not records:
        print("no sweep records in the given files", file=sys.stderr)
        return 2
    print("\n".join(summarize(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
