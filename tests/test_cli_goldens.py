"""CLI output against the recorded goldens in bench/goldens/cli.json.

Every job of the cli benchmark workload (text, --json and batch) must
reproduce its golden stdout and exit code byte for byte, and each
malformed-input probe must exit 2 with nothing on stdout.  The files under
bench/ are read, never written.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from orbhilb.cli import run

_CLIJOBS = Path(__file__).resolve().parent.parent / "bench" / "clijobs.py"
_spec = importlib.util.spec_from_file_location("clijobs", _CLIJOBS)
clijobs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(clijobs)

GOLDENS = clijobs.load_goldens()


def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return out.getvalue(), code


@pytest.fixture(scope="module")
def batch_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_goldens") / "batch_jobs.json"
    path.write_text(json.dumps(clijobs.batch_jobs(), indent=1), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name,argv", clijobs.pass_items(),
                         ids=[n for n, _ in clijobs.pass_items()])
def test_job_matches_golden(name, argv, batch_file):
    stdout, code = call([a.replace("{batch_file}", batch_file) for a in argv])
    assert (code, stdout) == (GOLDENS[name]["exit"], GOLDENS[name]["stdout"])


@pytest.mark.parametrize("name,argv", clijobs.MALFORMED, ids=[n for n, _ in clijobs.MALFORMED])
def test_malformed_probe_matches_golden(name, argv):
    stdout, code = call(argv)
    assert (code, stdout) == (GOLDENS[name]["exit"], GOLDENS[name]["stdout"]) == (2, "")
