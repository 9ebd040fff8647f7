"""The benchmark's tracer wraps program entry points by name; they must exist."""

import importlib.util
import sys
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parent.parent / "eigbench" / "spans.py"


def test_every_traced_name_is_where_the_tracer_looks(monkeypatch):
    # eigbench/run.py --trace 1 and eigbench/selftest.py look each target
    # up with vars(owner)[attr]; a deleted or moved name breaks them.  The
    # module is read without writing a bytecode cache next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("eigbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [target for _, targets, _ in spans.SPANS for target in targets]
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in vars(owner)]
    assert missing == []
