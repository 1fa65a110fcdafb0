"""Bias-interaction sweeps on the linear model and the synthetic generator.

sweep_ws injects controlled decision-process bias by overriding the
sensitive weight of a fitted logistic model; sweep_p_ws crosses that with
controlled dataset bias; p_sweep tracks how regularized MLP training
responds to growing dataset bias.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, SyntheticConfig, dataset_dp, generate_synthetic, pearson_select, split
from .fairness import FairnessReport, MmdConfig
from .model import linear_train, override_sensitive_weight
from .pairing import select_eval_pairs
from .scenarios import sample_background
from .train import TrainConfig, evaluate, train
from .util import atomic_write_csv, seed_for

# Stage tags for per-sweep seed derivation. Tag 3 is unused; renumbering the
# later tags would move every sweep's seeds.
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


@dataclass
class SweepSlice:
    """One fixed-p row of the grid: reports for every swept w_s value."""

    p: float | None
    ws_values: np.ndarray
    ws_normalized: np.ndarray
    norm_record: dict
    reports: list[FairnessReport]

    def long_rows(self) -> list[dict]:
        return [
            {
                "p": self.p,
                "ws": float(ws),
                "ws_normalized": float(ws_norm),
                "dp": r.dp,
                "gpf_fae": r.gpf_fae,
                "acc": r.accuracy,
            }
            for ws, ws_norm, r in zip(self.ws_values, self.ws_normalized, self.reports)
        ]


@dataclass
class SweepGrid:
    """Complete p x w_s grid of fairness reports."""

    p_values: np.ndarray
    ws_values: np.ndarray
    ws_normalized: np.ndarray
    norm_record: dict
    reports: list[list[FairnessReport]]  # indexed [p][ws]

    def plane_at_p(self, p: float) -> SweepSlice:
        i = int(np.argmin(np.abs(self.p_values - p)))
        return SweepSlice(
            p=float(self.p_values[i]),
            ws_values=self.ws_values,
            ws_normalized=self.ws_normalized,
            norm_record=self.norm_record,
            reports=self.reports[i],
        )

    def plane_at_ws(self, ws: float) -> tuple[float, np.ndarray, list[FairnessReport]]:
        j = int(np.argmin(np.abs(self.ws_values - ws)))
        return float(self.ws_values[j]), self.p_values, [row[j] for row in self.reports]

    def to_csv(self, path: str | Path, config_hash: str | None = None) -> None:
        write_sweep_csv(self.long_rows(), path, config_hash)

    def long_rows(self) -> list[dict]:
        return [row for p in self.p_values for row in self.plane_at_p(p).long_rows()]


def write_sweep_csv(rows: list[dict], path: str | Path, config_hash: str | None = None) -> None:
    if not rows:
        raise ValueError("no sweep rows to write")
    header = list(rows[0])
    atomic_write_csv(path, header, ([row[k] for k in header] for row in rows), config_hash)


def _normalize_ws(ws_values: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, dict]:
    norm = 2.0 * (ws_values - lo) / (hi - lo) - 1.0
    record = {"method": "minmax_to_[-1,1]", "lo": lo, "hi": hi}
    return norm, record


def sweep_ws(
    data: Dataset,
    ws_range: tuple[float, float],
    count: int,
    seed: int,
    settings: SweepSettings | None = None,
    p: float | None = None,
) -> SweepSlice:
    """Fit one logistic model, then report fairness for every overridden
    sensitive weight on a uniform grid over ws_range.

    Expects feature-selected data (sensitive column tracked). The test
    split, evaluation pairs, and permutation seed are fixed across cells so
    every cell is exactly reproducible.
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
    ws_norm, record = _normalize_ws(ws_values, lo, hi)
    reports = [
        evaluate(override_sensitive_weight(params, float(ws)), test_ds, pairs, mmd_cfg, background)
        for ws in ws_values
    ]
    return SweepSlice(
        p=p, ws_values=ws_values, ws_normalized=ws_norm, norm_record=record, reports=reports
    )


def sweep_p_ws(
    p_range: tuple[float, float],
    ws_range: tuple[float, float],
    counts: tuple[int, int],
    seed: int,
    settings: SweepSettings | None = None,
) -> SweepGrid:
    """Full dataset-bias x decision-bias grid on synthetic data.

    Each p gets a fresh synthetic dataset, feature selection, and one
    logistic fit before its w_s row is swept.
    """
    p_lo, p_hi = p_range
    if not p_lo < p_hi:
        raise ValueError("p_range must satisfy lo < hi")
    n_p, n_ws = counts
    if n_p < 2 or n_ws < 2:
        raise ValueError("grid counts must be >= 2")
    settings = settings or SweepSettings()

    p_values = np.linspace(p_lo, p_hi, n_p)
    rows: list[list[FairnessReport]] = []
    ws_values = ws_norm = None
    record: dict = {}
    for i, p in enumerate(p_values):
        data = generate_synthetic(
            SyntheticConfig(p=float(p), n_points=settings.n_points, seed=seed_for(seed, _TAG_DATA, i))
        )
        data = pearson_select(data, settings.pearson_threshold)
        sl = sweep_ws(data, ws_range, n_ws, seed_for(seed, 100, i), settings, p=float(p))
        rows.append(sl.reports)
        ws_values, ws_norm, record = sl.ws_values, sl.ws_normalized, sl.norm_record
    return SweepGrid(
        p_values=p_values,
        ws_values=ws_values,
        ws_normalized=ws_norm,
        norm_record=record,
        reports=rows,
    )


def p_sweep(
    p_range: tuple[float, float],
    count: int,
    train_cfg: TrainConfig | None = None,
    seed: int = 0,
    settings: SweepSettings | None = None,
) -> list[dict]:
    """Regularized MLP training across a grid of dataset-bias levels.

    Every p trains train_cfg with settings.epochs and a derived seed.
    Returns one row per p: dataset DP plus the trained model's accuracy,
    DP, and both procedural metrics on the test split.
    """
    lo, hi = p_range
    if not lo < hi:
        raise ValueError("p_range must satisfy lo < hi")
    if count < 2:
        raise ValueError("count must be >= 2")
    settings = settings or SweepSettings()
    train_cfg = train_cfg or TrainConfig(mode="procedural", alpha=0.5)

    rows = []
    for i, p in enumerate(np.linspace(lo, hi, count)):
        data = generate_synthetic(
            SyntheticConfig(p=float(p), n_points=settings.n_points, seed=seed_for(seed, _TAG_DATA, i))
        )
        train_ds, test_ds = split(data, _SPLIT_RATIO, seed_for(seed, _TAG_SPLIT, i))
        cfg = replace(train_cfg, epochs=settings.epochs, seed=seed_for(seed, _TAG_FIT, i))
        params, history = train(train_ds, cfg)
        pairs = select_eval_pairs(test_ds, _N_EVAL_PAIRS)
        background = sample_background(
            train_ds, settings.background_size, seed_for(seed, _TAG_BG, i)
        )
        mmd_cfg = MmdConfig(n_permutations=settings.n_permutations, seed=seed_for(seed, _TAG_MMD, i))
        report = evaluate(
            params,
            test_ds,
            pairs,
            mmd_cfg,
            background=background,
            train_seconds=history.seconds,
        )
        rows.append(
            {
                "p": float(p),
                "dataset_dp": dataset_dp(data),
                "acc": report.accuracy,
                "dp": report.dp,
                "gpf_fae": report.gpf_fae,
                "gpf_loss": report.gpf_loss,
            }
        )
    return rows
