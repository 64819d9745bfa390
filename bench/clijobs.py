"""The cli workload's job list and its malformed-input probes.

Every README CLI example plus X80 and the Pfaffian verify, each run in
text and --json form, and once per pass through `batch`.  The goldens in
goldens/cli.json hold the expected stdout and exit code of every job.
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens" / "cli.json"

X40 = ["--weights", "2,5,8,10,15", "--degrees", "40", "--points", "1/15(2,5,8)"]
X80 = ["--weights", "3,4,15,20,38", "--degrees", "80",
       "--points", "4x1/4(3,3,2);1/38(3,15,20);1/15(3,4,8);1/5(3,4,3)"]
PFAFFIAN = ["--weights", "1,2,3,5,7",
            "--numerator", "1-t^6-t^7-t^8-t^9-t^10+t^10+t^11+t^12+t^13+t^14-t^20",
            "--k", "2", "--n", "1", "--basket", "1/7(5)"]

# (name, argv, batch payload); the payload spells the same job for `batch`
JOBS = [
    ("hilbert", ["hilbert", "--weights", "1,1,2,2,3", "--degrees", "10", "--series", "8"],
     {"weights": [1, 1, 2, 2, 3], "degrees": [10], "series": 8}),
    ("parse_x10", ["parse", "--weights", "1,1,2,2,3", "--degrees", "10",
                   "--basket", "5x1/2(1,1,1);1/3(1,2,2)"],
     {"weights": [1, 1, 2, 2, 3], "degrees": [10], "basket": "5x1/2(1,1,1);1/3(1,2,2)"}),
    ("dedekind_r14", ["dedekind", "--r", "14", "--a", "1,2,5,7"],
     {"r": 14, "a": [1, 2, 5, 7]}),
    ("porb", ["porb", "--r", "15", "--a", "2,5,8", "--k", "0"],
     {"r": 15, "a": [2, 5, 8], "k": 0}),
    ("invmod_weights", ["invmod", "--r", "7", "--a", "5", "--gamma", "3"],
     {"r": 7, "a": [5], "gamma": 3}),
    ("invmod_polys", ["invmod", "--a-poly", "1+t+t^2+t^3+t^4",
                      "--f-poly", "1+t+t^2+t^3+t^4+t^5+t^6", "--gamma", "3", "--period", "7"],
     {"a_poly": "1+t+t^2+t^3+t^4", "f_poly": "1+t+t^2+t^3+t^4+t^5+t^6",
      "gamma": 3, "period": 7}),
    ("k3", ["k3", "--genus", "2", "--basket", "1/2(1,1)"],
     {"genus": 2, "basket": "1/2(1,1)"}),
    ("fano3", ["fano3", "--genus", "5", "--basket", "1/2(1,1,1)"],
     {"genus": 5, "basket": "1/2(1,1,1)"}),
    ("cy3_x40_ice", ["cy3", *X40, "--curves", "2,1;5,2"],
     {"weights": [2, 5, 8, 10, 15], "degrees": [40], "points": "1/15(2,5,8)",
      "curves": "2,1;5,2"}),
    ("cy3_x40_rr", ["cy3", *X40, "--curves", "2,1,1/2;5,2,4/15", "--mode", "rr"],
     {"weights": [2, 5, 8, 10, 15], "degrees": [40], "points": "1/15(2,5,8)",
      "curves": "2,1,1/2;5,2,4/15", "mode": "rr"}),
    ("cy3_x80_ice", ["cy3", *X80, "--curves", "2,1;3,1"],
     {"weights": [3, 4, 15, 20, 38], "degrees": [80],
      "points": "4x1/4(3,3,2);1/38(3,15,20);1/15(3,4,8);1/5(3,4,3)", "curves": "2,1;3,1"}),
    ("verify_pfaffian", ["verify", *PFAFFIAN],
     {"weights": [1, 2, 3, 5, 7],
      "numerator": "1-t^6-t^7-t^8-t^9-t^10+t^10+t^11+t^12+t^13+t^14-t^20",
      "k": 2, "n": 1, "basket": "1/7(5)"}),
]

# Malformed inputs the README says must exit 2.  They are probes of that
# contract: run once per cli run, outside the timed loop, and reported by
# name.  The last one is run as a child process under PROBE_TIME_LIMIT_S.
MALFORMED = [
    ("malformed_curves_non_integer", ["cy3", *X40, "--curves", "2,x"]),
    ("malformed_type_r0", ["dedekind", "--r", "0", "--a", "1,2"]),
    ("malformed_series_negative", ["hilbert", "--weights", "1,1,2,2,3", "--degrees", "10",
                                   "--series", "-3"]),
]
OVERSIZED = ("oversized_dedekind_r100000", ["dedekind", "--r", "100000", "--a", "1,2"])
PROBE_TIME_LIMIT_S = 3.0
CONTRACT_EXIT = 2


def batch_jobs() -> list[dict]:
    return [{"command": argv[0], "payload": payload, "output_format": "json"}
            for _, argv, payload in JOBS]


def pass_items() -> list[tuple[str, list[str]]]:
    """One pass: every job in text and --json form, then the batch run."""
    items = []
    for name, argv, _ in JOBS:
        items.append((f"{name}.text", argv))
        items.append((f"{name}.json", argv + ["--json"]))
    items.append(("batch", ["batch", "{batch_file}"]))
    return items


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))
