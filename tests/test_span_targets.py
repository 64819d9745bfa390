"""Every name the benchmark's traced run wraps must exist in orbhilb.

bench/spans.py patches its TARGETS at run time, so renaming or deleting a
traced function would otherwise only show up in a traced benchmark run.
The file is loaded by path and nothing under bench/ is written.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module,attr,name", spans.TARGETS, ids=[t[2] for t in spans.TARGETS])
def test_target_resolves(module, attr, name):
    mod = importlib.import_module(f"orbhilb.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        # spans.py patches the method found in the class's own namespace
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, attr))
