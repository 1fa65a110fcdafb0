"""perfbench's traced run wraps procfair functions by (module, attribute)
and predicts which boundaries each workload crosses; a rename or a rerouted
call in procfair must fail here, not only in `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves_in_procfair(monkeypatch):
    boundaries = _load(monkeypatch, "tracing").BOUNDARIES
    assert boundaries
    missing = [f"{module}.{attr}" for module, attr, _ in boundaries
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_sweep_grid_crosses_exactly_the_audit_grid_boundaries(monkeypatch, tmp_path):
    tracing = _load(monkeypatch, "tracing")
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its sibling adult_csv
    workloads = _load(monkeypatch, "workloads")
    from procfair import cli

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(["sweep", "grid", "--p", "0.5:0.65:2", "--ws", "-5:5:3", "--n", "400",
                         "--epochs", "5", "--perms", "100", "--out", str(tmp_path / "g.csv")])
    finally:
        restore()
    assert code == 0
    assert set(tracing.call_counts(tracer)) == workloads.WORKLOADS["audit_grid"].exercised
