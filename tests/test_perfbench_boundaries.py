"""perfbench's traced run wraps procfair functions by (module, attribute);
a rename in procfair must fail here, not only in `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves_in_procfair(monkeypatch):
    boundaries = _load_tracing(monkeypatch).BOUNDARIES
    assert boundaries
    missing = [f"{module}.{attr}" for module, attr, _ in boundaries
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
