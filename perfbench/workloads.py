"""Benchmark workloads: inputs made from the workload seed, a body that
drives procfair through its CLI in-process, and a check that reads the
written outputs back. BENCHMARK.json lists the ones the benchmark runs; the
two `synth_*` workloads are kept for runs by hand (see NOTES.md).

Every workload is seeded only through its inputs: the scenario master seed,
the sweep seed and the seed of the generated CSV. Call-count expectations
per workload (`exercised`) back the traced run's self-check: a boundary
listed there must see at least one call, every other boundary none.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from adult_csv import write_adult_like

# The layer boundaries that every scenario run crosses.
_SCENARIO = {
    "cli.main", "scenarios.run", "scenarios.repetition", "scenarios.prepare",
    "data.split", "pairing.eval_select", "model.adam_step", "train.evaluate",
    "explain.kernel_shap", "fairness.mmd_perm", "util.write",
}

# Sizes are cut from the presets' so that one run holds several iterations
# of each body; the layer that dominates each workload is kept. The CSV
# workload trains for 100 epochs so that training and pairing carry weight
# next to sampled KernelSHAP.
SYNTH_EPOCHS = 100
GRID_P = (0.5, 0.65, 4)
GRID_WS = (-5.0, 5.0, 51)
CSV_ROWS = 16000
CSV_EPOCHS = 100
CSV_EVAL_PAIRS = 20


@dataclass
class Outcome:
    """What one iteration produced and how much of it passed the checks."""

    attempted: int = 0
    failed: int = 0
    payloads: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.payloads += other.payloads
        self.values.update(other.values)
        self.problems += other.problems

    @property
    def sha(self) -> str:
        return hashlib.sha256("\n".join(self.payloads).encode()).hexdigest()


@dataclass
class Context:
    seed: int
    workdir: Path


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Context], None]
    body: Callable[[Context], Outcome]
    exercised: frozenset
    coalitions: int  # KernelSHAP coalitions per call: 2^d - 2, or 2048 when sampled


def _cli(argv: list[str]) -> int:
    """procfair.cli.main in-process, its progress lines kept off stdout."""
    from procfair import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _in_range(value, lo: float, hi: float, optional: bool = False) -> bool:
    if value is None:
        return optional
    return isinstance(value, (int, float)) and math.isfinite(value) and lo <= value <= hi


def _report_problems(r: dict, n_perm: int) -> list[str]:
    checks = {
        "accuracy": _in_range(r["accuracy"], 0.0, 1.0),
        "dp": _in_range(r["dp"], 0.0, 1.0),
        "di": _in_range(r["di"], 0.0, math.inf, optional=True),
        "eop": _in_range(r["eop"], 0.0, 1.0, optional=True),
        "eod": _in_range(r["eod"], 0.0, 1.0, optional=True),
        "gpf_fae": _in_range(r["gpf_fae"], 1.0 / (n_perm + 1), 1.0),
        "gpf_loss": _in_range(r["gpf_loss"], 0.0, math.inf),
    }
    return [f"{name}={r[name]!r} out of range" for name, ok in checks.items() if not ok]


def _scenario(ctx: Context, source: list[str], scenario_id: str, reps: int) -> Outcome:
    """One `procfair scenario run`, with its bundle read back and checked."""
    from procfair.scenarios import ResultBundle

    bundle_path = ctx.workdir / f"{scenario_id}.bundle.json"
    bundle_path.unlink(missing_ok=True)
    argv = ["scenario", "run", *source, "--reps", str(reps), "--seed", str(ctx.seed),
            "--out", str(ctx.workdir)]
    code = _cli(argv)
    if code != 0:
        return Outcome(reps, reps, problems=[f"{scenario_id}: exit code {code}"])
    bundle = ResultBundle.from_json(bundle_path)
    n_perm = bundle.scenario["mmd"].get("n_permutations", 1000)
    out = Outcome(attempted=reps)
    out.payloads.append(bundle.metric_payload())
    bad_reps = {e["repetition"] for e in bundle.errors}
    out.problems += [f"{scenario_id} rep {e['repetition']}: StageError at {e['stage']}"
                     for e in bundle.errors]
    for r in bundle.reports:
        problems = _report_problems(r, n_perm)
        if problems:
            bad_reps.add(r["repetition"])
            out.problems += [f"{scenario_id} rep {r['repetition']}: {p}" for p in problems]
        for name in ("accuracy", "dp", "gpf_fae", "gpf_loss"):
            out.values[f"{scenario_id}.rep{r['repetition']}.{name}"] = r[name]
    missing = reps - len(bundle.reports) - len(bundle.errors)
    out.failed = len(bad_reps) + max(missing, 0)
    return out


def _scenarios(*runs) -> Callable[[Context], Outcome]:
    def body(ctx: Context) -> Outcome:
        out = Outcome()
        for source, scenario_id, reps in runs:
            out.add(_scenario(ctx, source(ctx), scenario_id, reps))
        return out

    return body


def _config(scenario_id: str):
    return lambda ctx: ["--config", str(ctx.workdir / f"{scenario_id}.json")]


def _write_config(ctx: Context, preset: str, scenario_id: str, epochs: int, **fields) -> None:
    from procfair.scenarios import load_preset

    cfg = load_preset(preset)
    cfg.update(scenario_id=scenario_id, **fields)
    cfg["train"] = {**cfg["train"], "epochs": epochs}
    (ctx.workdir / f"{scenario_id}.json").write_text(json.dumps(cfg, indent=2))


def _synth_setup(*presets: str) -> Callable[[Context], None]:
    def setup(ctx: Context) -> None:
        for preset in presets:
            _write_config(ctx, preset, preset, SYNTH_EPOCHS)

    return setup


def _no_setup(ctx: Context) -> None:
    return None


def _csv_setup(ctx: Context) -> None:
    """Adult-shaped CSV, its schema, and a csv_template config pointing at them."""
    data, schema = ctx.workdir / "adult_like.csv", ctx.workdir / "adult_like.schema.json"
    write_adult_like(data, schema, ctx.seed, CSV_ROWS)
    _write_config(ctx, "csv_template", "audit_csv_wide", CSV_EPOCHS,
                  dataset={"kind": "csv", "path": str(data), "schema": str(schema)},
                  n_eval_pairs=CSV_EVAL_PAIRS)


def _grid(ctx: Context) -> Outcome:
    """`procfair sweep grid` on the logistic model; the CSV is read back."""
    import numpy as np

    path = ctx.workdir / "grid.csv"
    path.unlink(missing_ok=True)
    spec = lambda lo, hi, n: f"{lo}:{hi}:{n}"  # noqa: E731
    argv = ["sweep", "grid", "--p", spec(*GRID_P), "--ws", spec(*GRID_WS),
            "--seed", str(ctx.seed), "--out", str(path)]
    cells = GRID_P[2] * GRID_WS[2]
    code = _cli(argv)
    if code != 0:
        return Outcome(cells, cells, problems=[f"sweep grid: exit code {code}"])
    text = path.read_text()
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    out = Outcome(attempted=cells, payloads=[text])
    if len(rows) != cells:
        out.problems.append(f"sweep grid wrote {len(rows)} rows, expected {cells}")
    p_values = np.repeat(np.linspace(*GRID_P), GRID_WS[2])
    ws_values = np.tile(np.linspace(*GRID_WS), GRID_P[2])
    bad = set(range(len(rows), cells))
    for i, row in enumerate(rows[:cells]):
        cell = {k: float(v) for k, v in row.items()}
        ok = (
            cell["p"] == p_values[i]
            and cell["ws"] == ws_values[i]
            and _in_range(cell["ws_normalized"], -1.0, 1.0)
            and _in_range(cell["dp"], 0.0, 1.0)
            and _in_range(cell["acc"], 0.0, 1.0)
            and _in_range(cell["gpf_fae"], 1.0 / 1001, 1.0)
        )
        if not ok:
            bad.add(i)
            out.problems.append(f"sweep grid cell {i}: {row}")
    for j in range(GRID_P[2]):
        block = rows[j * GRID_WS[2]:(j + 1) * GRID_WS[2]]
        for name in ("dp", "gpf_fae", "acc"):
            out.values[f"p{j}.mean_{name}"] = float(np.mean([float(r[name]) for r in block]))
    out.failed = len(bad)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synth_procedural",
            _synth_setup("synth065_procedural"),
            _scenarios((_config("synth065_procedural"), "synth065_procedural", 2)),
            frozenset(_SCENARIO | {"data.generate", "pairing.train_pairs",
                                   "train.train[procedural]"}),
            coalitions=14,
        ),
        Workload(
            "synth_outcome",
            _synth_setup("synth065_baseline", "synth065_dp_regularized"),
            _scenarios((_config("synth065_baseline"), "synth065_baseline", 1),
                       (_config("synth065_dp_regularized"), "synth065_dp_regularized", 1)),
            frozenset(_SCENARIO | {"data.generate", "train.train[bce_only]",
                                   "train.train[dp_regularized]"}),
            coalitions=14,
        ),
        Workload(
            "audit_grid",
            _no_setup,
            _grid,
            frozenset({"cli.main", "sweeps.grid", "sweeps.slice", "data.generate",
                       "data.pearson", "data.split", "model.linear_train",
                       "pairing.eval_select", "train.evaluate", "explain.kernel_shap",
                       "fairness.mmd_perm", "util.write"}),
            coalitions=6,
        ),
        Workload(
            "audit_csv_wide",
            _csv_setup,
            _scenarios((_config("audit_csv_wide"), "audit_csv_wide", 1)),
            frozenset(_SCENARIO | {"data.load_csv", "data.preprocess", "data.resample",
                                   "pairing.train_pairs", "train.train[procedural]"}),
            coalitions=2048,
        ),
    )
}
