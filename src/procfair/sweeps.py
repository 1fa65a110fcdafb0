"""Bias-interaction sweeps on the linear model and the synthetic generator.

sweep_ws injects controlled decision-process bias by overriding the
sensitive weight of a fitted logistic model; sweep_p_ws crosses that with
controlled dataset bias; p_sweep tracks how regularized MLP training
responds to growing dataset bias. Every sweep returns long-format rows, one
dict per cell, ready for write_sweep_csv.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, SyntheticConfig, dataset_dp, generate_synthetic, pearson_select, split
from .fairness import MmdConfig
from .model import linear_train, override_sensitive_weight
from .pairing import select_eval_pairs
from .scenarios import ScenarioConfig, run_repetition, sample_background
from .train import TrainConfig, evaluate
from .train import train  # noqa: F401  (not called here; perfbench's tracer wraps this name)
from .util import atomic_write_csv, seed_for

# Stage tags for sweep_ws/sweep_p_ws seed derivation. Tag 3 is unused;
# renumbering the later tags would move every sweep's seeds.
_TAG_DATA, _TAG_SPLIT, _TAG_FIT = range(3)
_TAG_BG, _TAG_MMD = 4, 5
_SPLIT_RATIO = 0.8
_N_EVAL_PAIRS = 100


@dataclass(frozen=True)
class SweepSettings:
    """Shared knobs for sweep runs on synthetic data."""

    n_points: int = 20000
    pearson_threshold: float = 0.30
    epochs: int = 300
    background_size: int = 100
    n_permutations: int = 1000


def write_sweep_csv(rows: list[dict], path: str | Path, config_hash: str | None = None) -> None:
    if not rows:
        raise ValueError("no sweep rows to write")
    header = list(rows[0])
    atomic_write_csv(path, header, ([row[k] for k in header] for row in rows), config_hash)


def sweep_ws(
    data: Dataset,
    ws_range: tuple[float, float],
    count: int,
    seed: int,
    settings: SweepSettings | None = None,
    p: float | None = None,
) -> list[dict]:
    """Fit one logistic model, then report fairness for every overridden
    sensitive weight on a uniform grid over ws_range.

    Expects feature-selected data (sensitive column tracked). The test
    split, evaluation pairs, and permutation seed are fixed across cells so
    every cell is exactly reproducible. One row per w_s value; ws_normalized
    maps ws_range min-max onto [-1, 1].
    """
    lo, hi = ws_range
    if not lo < hi:
        raise ValueError("ws_range must satisfy lo < hi")
    if count < 2:
        raise ValueError("count must be >= 2")
    settings = settings or SweepSettings()

    train_ds, test_ds = split(data, _SPLIT_RATIO, seed_for(seed, _TAG_SPLIT))
    params = linear_train(train_ds, epochs=settings.epochs, seed=seed_for(seed, _TAG_FIT))
    pairs = select_eval_pairs(test_ds, _N_EVAL_PAIRS)
    background = sample_background(train_ds, settings.background_size, seed_for(seed, _TAG_BG))
    mmd_cfg = MmdConfig(n_permutations=settings.n_permutations, seed=seed_for(seed, _TAG_MMD))

    ws_values = np.linspace(lo, hi, count)
    ws_normalized = 2.0 * (ws_values - lo) / (hi - lo) - 1.0
    rows = []
    for ws, ws_norm in zip(ws_values, ws_normalized):
        model = override_sensitive_weight(params, float(ws))
        r = evaluate(model, test_ds, pairs, mmd_cfg, background)
        rows.append({"p": p, "ws": float(ws), "ws_normalized": float(ws_norm),
                     "dp": r.dp, "gpf_fae": r.gpf_fae, "acc": r.accuracy})
    return rows


def sweep_p_ws(
    p_range: tuple[float, float],
    ws_range: tuple[float, float],
    counts: tuple[int, int],
    seed: int,
    settings: SweepSettings | None = None,
) -> list[dict]:
    """Full dataset-bias x decision-bias grid on synthetic data.

    Each p gets a fresh synthetic dataset, feature selection, and one
    logistic fit before its w_s row is swept. Rows run p-major: every w_s
    of the first p, then of the next.
    """
    p_lo, p_hi = p_range
    if not p_lo < p_hi:
        raise ValueError("p_range must satisfy lo < hi")
    n_p, n_ws = counts
    if n_p < 2 or n_ws < 2:
        raise ValueError("grid counts must be >= 2")
    settings = settings or SweepSettings()

    rows: list[dict] = []
    for i, p in enumerate(np.linspace(p_lo, p_hi, n_p)):
        data = generate_synthetic(
            SyntheticConfig(p=float(p), n_points=settings.n_points, seed=seed_for(seed, _TAG_DATA, i))
        )
        data = pearson_select(data, settings.pearson_threshold)
        rows += sweep_ws(data, ws_range, n_ws, seed_for(seed, 100, i), settings, p=float(p))
    return rows


def p_sweep(
    p_range: tuple[float, float],
    count: int,
    train_cfg: TrainConfig | None = None,
    seed: int = 0,
    settings: SweepSettings | None = None,
) -> list[dict]:
    """Regularized MLP training across a grid of dataset-bias levels.

    Each p is repetition 0 of a one-repetition synthetic scenario with
    master seed `seed`, training train_cfg for settings.epochs. Returns one
    row per p: the training split's DP plus the trained model's accuracy,
    DP, and both procedural metrics on the test split. A failing p raises
    StageError naming its stage.
    """
    lo, hi = p_range
    if not lo < hi:
        raise ValueError("p_range must satisfy lo < hi")
    if count < 2:
        raise ValueError("count must be >= 2")
    settings = settings or SweepSettings()
    train_cfg = train_cfg or TrainConfig(mode="procedural", alpha=0.5)

    rows = []
    for p in np.linspace(lo, hi, count):
        cfg = ScenarioConfig(
            scenario_id="p_sweep", repetitions=1, master_seed=seed,
            dataset={"kind": "synthetic", "p": float(p), "n": settings.n_points},
            train={**asdict(train_cfg), "epochs": settings.epochs},
            background_size=settings.background_size,
            mmd={"n_permutations": settings.n_permutations},
        )
        result = run_repetition(cfg, 0)
        r = result.report
        rows.append({"p": float(p), "dataset_dp": dataset_dp(result.train_ds), "acc": r.accuracy,
                     "dp": r.dp, "gpf_fae": r.gpf_fae, "gpf_loss": r.gpf_loss})
    return rows
