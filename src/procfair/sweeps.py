"""Bias-interaction sweeps on the linear model and the synthetic generator.

sweep_ws injects controlled decision-process bias by overriding the
sensitive weight of a fitted logistic model; sweep_p_ws crosses that with
controlled dataset bias; p_sweep tracks how regularized MLP training
responds to growing dataset bias. Every sweep returns long-format rows, one
dict per cell, ready for write_sweep_csv.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import util
from .data import Dataset, SyntheticConfig, dataset_dp, generate_synthetic, pearson_select, split
from .fairness import EvalSet, MmdConfig
from .model import linear_train, override_sensitive_weight
from .pairing import select_eval_pairs
from .scenarios import ScenarioConfig, in_stage, run_repetition, sample_background
from .train import TrainConfig, evaluate
from .train import train  # noqa: F401  (not called here; perfbench's tracer wraps this name)
from .util import atomic_write_csv, seed_for

# Stage tags for sweep_ws/sweep_p_ws seed derivation. Tag 3 is unused;
# renumbering the later tags would move every sweep's seeds.
_TAG_DATA, _TAG_SPLIT, _TAG_FIT = range(3)
_TAG_BG, _TAG_MMD = 4, 5


def _grid(bounds: tuple[float, float], count: int) -> np.ndarray:
    """np.linspace over a sweep range; ValueError unless lo < hi are finite
    and count >= 2."""
    if not np.isfinite(bounds).all():
        raise ValueError(f"range bounds must be finite, got {bounds[0]!r}:{bounds[1]!r}")
    if not bounds[0] < bounds[1]:
        raise ValueError("range must satisfy lo < hi")
    if count < 2:
        raise ValueError("range count must be >= 2")
    return np.linspace(*bounds, count)


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
    *,
    epochs: int,
    n_permutations: int,
    p: float | None = None,
) -> list[dict]:
    """Fit one logistic model for `epochs`, then report fairness for every
    overridden sensitive weight on a uniform grid over ws_range; p only
    labels the rows.

    Expects feature-selected data (sensitive column tracked). The test
    split, evaluation pairs, and permutation seed are fixed across cells so
    every cell is exactly reproducible. One row per w_s value; ws_normalized
    maps ws_range min-max onto [-1, 1]. A failure after the range and
    permutation count are checked raises StageError naming its stage.
    """
    ws_values = _grid(ws_range, count)
    lo, hi = ws_range
    ws_normalized = 2.0 * (ws_values - lo) / (hi - lo) - 1.0
    mmd = MmdConfig(n_permutations=n_permutations, seed=seed_for(seed, _TAG_MMD))

    with in_stage("split"):
        train_ds, test_ds = split(data, ScenarioConfig.split_ratio, seed_for(seed, _TAG_SPLIT))
    with in_stage("train"):
        params = linear_train(train_ds, epochs=epochs, seed=seed_for(seed, _TAG_FIT))
    with in_stage("evaluate"):
        pairs = select_eval_pairs(test_ds, ScenarioConfig.n_eval_pairs)
        bg = sample_background(train_ds, ScenarioConfig.background_size, seed_for(seed, _TAG_BG))
        eval_set = EvalSet(test_ds, pairs, bg, mmd)
        rows = []
        for ws, ws_norm in zip(ws_values, ws_normalized):
            model = override_sensitive_weight(params, float(ws))
            r = evaluate(model, eval_set)
            rows.append({"p": p, "ws": float(ws), "ws_normalized": float(ws_norm),
                         "dp": r.dp, "gpf_fae": r.gpf_fae, "acc": r.accuracy})
    return rows


def _selected_synthetic(p: float, n_points: int, seed: int, pearson_threshold: float) -> Dataset:
    """A synthetic dataset after pearson_select, in stages dataset and pearson_select."""
    with in_stage("dataset"):
        data = generate_synthetic(SyntheticConfig(p=p, n_points=n_points, seed=seed))
    with in_stage("pearson_select"):
        return pearson_select(data, pearson_threshold)


def sweep_p_ws(
    p_range: tuple[float, float],
    ws_range: tuple[float, float],
    counts: tuple[int, int],
    seed: int,
    *,
    n_points: int,
    pearson_threshold: float,
    epochs: int,
    n_permutations: int,
) -> list[dict]:
    """Full dataset-bias x decision-bias grid on synthetic data.

    Each p gets a fresh synthetic dataset of n_points, feature selection at
    pearson_threshold, and one logistic fit before its w_s row is swept.
    The p rows share nothing and run on util.WORKERS threads through
    util.deal; the rows come back p-major, every w_s of the first p, then of
    the next, whatever the thread count. A failing row raises StageError
    naming its stage, the lowest failing row's when several fail.
    """
    n_p, n_ws = counts
    p_values = _grid(p_range, n_p)
    _grid(ws_range, n_ws)  # fail before the first dataset is made

    def p_row(i: int) -> list[dict]:
        p = float(p_values[i])
        data = _selected_synthetic(p, n_points, seed_for(seed, _TAG_DATA, i), pearson_threshold)
        return sweep_ws(data, ws_range, n_ws, seed_for(seed, 100, i), epochs=epochs,
                        n_permutations=n_permutations, p=p)

    return [row for rows in util.deal(p_row, n_p, util.WORKERS) for row in rows]


def p_sweep(
    p_range: tuple[float, float],
    count: int,
    train_cfg: TrainConfig,
    seed: int,
    *,
    n_points: int,
    n_permutations: int,
) -> list[dict]:
    """Regularized MLP training across a grid of dataset-bias levels.

    Each p is repetition 0 of a one-repetition synthetic scenario of
    n_points with master seed `seed`, training train_cfg with the seed
    the scenario derives. Returns one row per p: the training split's DP
    plus the trained model's accuracy, DP, and both procedural metrics on
    the test split. A point that fails raises StageError naming its stage;
    a p outside [0, 1] raises ValueError.
    """
    rows = []
    for p in _grid(p_range, count):
        cfg = ScenarioConfig(
            scenario_id="p_sweep", repetitions=1, master_seed=seed,
            dataset={"kind": "synthetic", "p": float(p), "n": n_points},
            train={k: v for k, v in asdict(train_cfg).items() if k != "seed"},
            mmd={"n_permutations": n_permutations},
        )
        result = run_repetition(cfg, 0)
        r = result.report
        rows.append({"p": float(p), "dataset_dp": dataset_dp(result.train_ds), "acc": r.accuracy,
                     "dp": r.dp, "gpf_fae": r.gpf_fae, "gpf_loss": r.gpf_loss})
    return rows
