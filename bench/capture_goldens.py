"""Write goldens/cli.json: stdout and exit code of every cli workload job.

    PYTHONPATH=src python3 bench/capture_goldens.py

Run it on the commit whose output is the reference.  The malformed-input
probes are not captured: their golden is the README contract (exit 2,
nothing on stdout), whatever the program does today.
"""

import json
import sys
import tempfile
from pathlib import Path

import clijobs
from worker import call_cli


def capture(argv) -> dict:
    stdout, code = call_cli(argv)
    return {"exit": code, "stdout": stdout}


def main() -> int:
    goldens = {}
    with tempfile.TemporaryDirectory() as tmp:
        batch_file = Path(tmp) / "batch_jobs.json"
        batch_file.write_text(json.dumps(clijobs.batch_jobs(), indent=1), encoding="utf-8")
        for name, argv in clijobs.pass_items():
            goldens[name] = capture([a.replace("{batch_file}", str(batch_file)) for a in argv])
    for name, _ in clijobs.MALFORMED + [clijobs.OVERSIZED]:
        goldens[name] = {"exit": clijobs.CONTRACT_EXIT, "stdout": ""}
    clijobs.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    print(f"wrote {len(goldens)} goldens to {clijobs.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
