"""The benchmark's tracer finds every function it wraps.

`bench/tracing.py::TRACED` names (span, module, attribute) triples, and
`Tracer.install` looks each one up with `getattr` on its `qnodes` module.
Deleting or renaming one of those functions would break
`bench/run.py --trace 1`, so each name must resolve to a callable.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    traced = importlib.import_module("tracing").TRACED
    assert len(traced) >= 20
    missing = [
        f"qnodes.{module}.{attr}"
        for _, module, attr in traced
        if not callable(getattr(importlib.import_module(f"qnodes.{module}"), attr, None))
    ]
    assert missing == []
