"""Training loops and model evaluation.

Modes: plain cross-entropy (bce_only), cross-entropy plus the
attribution-gap regularizer over matched pairs (procedural; a negative
alpha inverts the regularizer and produces a procedurally unfair model by
construction), and cross-entropy plus a differentiable demographic-parity
surrogate (dp_regularized).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .data import Dataset
from .fairness import (
    EvalSet,
    FairnessReport,
    demographic_parity,
    disparate_impact,
    equal_opportunity,
    equalized_odds,
    gpf_fae,
    gpf_loss,
)
from .model import MlpParams, _loss_grads, adam_init, adam_step, mlp_init
from .pairing import build_pairs
from .util import atomic_write_csv, check_number_fields

MODES = ("bce_only", "procedural", "dp_regularized")
_THRESHOLD = 0.5  # probability at which a prediction counts as positive


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "bce_only"
    alpha: float = 0.5  # attribution-gap weight; negative inverts the objective
    beta: float = 0.0  # demographic-parity surrogate weight
    epochs: int = 300
    lr: float = 0.01
    hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")


@dataclass
class TrainHistory:
    """Per-epoch loss traces plus wall-clock."""

    total: np.ndarray
    bce: np.ndarray
    gpf: np.ndarray
    dp_proxy: np.ndarray
    seconds: float

    def to_csv(self, path: str | Path, config_hash: str | None = None) -> None:
        rows = ([epoch] + [repr(float(v)) for v in values] for epoch, values
                in enumerate(zip(self.total, self.bce, self.gpf, self.dp_proxy), start=1))
        atomic_write_csv(path, ["epoch", "total", "bce", "gpf", "dp_proxy"], rows, config_hash)


def dp_proxy_grads(params: MlpParams, X: np.ndarray, group: np.ndarray):
    """Differentiable demographic-parity surrogate and its gradient.

    loss = |mean sigmoid(logit) over s1 - mean over s2|; soft predictions
    keep it differentiable, with subgradient 0 at the absolute-value kink.
    """
    (_, _, loss), grads = _loss_grads(params, np.asarray(X, dtype=np.float64), group=group)
    return loss, grads


def train(data: Dataset, cfg: TrainConfig) -> tuple[MlpParams, TrainHistory]:
    """Full-batch Adam training; pairs are built once before the loop.

    In procedural mode the attribution-gap loss runs over the
    probability-gradient explanations of every deduplicated training pair,
    so k is the pair count. Deterministic for fixed (data, cfg).
    """
    t0 = time.perf_counter()
    # build_pairs raises on single-group data
    pairs = build_pairs(data) if cfg.mode == "procedural" else None

    params = mlp_init(data.n_features, cfg.hidden, cfg.seed)
    state = adam_init(params)
    y = data.labels.astype(np.float64)
    group = data.group if cfg.mode == "dp_regularized" else None

    losses = np.empty((4, cfg.epochs))  # rows: TrainHistory's total, bce, gpf, dp_proxy
    for epoch in range(cfg.epochs):
        (bce, gpf, dp), grads = _loss_grads(
            params, data.features, y, group, pairs, cfg.alpha, cfg.beta)
        losses[:, epoch] = bce + cfg.alpha * gpf + cfg.beta * dp, bce, gpf, dp
        params, state = adam_step(state, params, grads, cfg.lr)

    return params, TrainHistory(*losses, seconds=time.perf_counter() - t0)


def evaluate(params, eval_set: EvalSet, train_seconds: float = 0.0) -> FairnessReport:
    """Accuracy and distributive metrics at the 0.5 probability threshold
    on the test split, and both procedural metrics over its pairs."""
    t0 = time.perf_counter()
    test, pairs = eval_set.test, eval_set.pairs
    probs = expit(params.logits(test.features))
    preds = (probs >= _THRESHOLD).astype(np.int64)

    accuracy = float((preds == test.labels).mean())
    dp = demographic_parity(preds, test.group)
    di = disparate_impact(preds, test.group)
    eop = equal_opportunity(preds, test.labels, test.group)
    eod = equalized_odds(preds, test.labels, test.group)

    e1 = params.prob_grads(test.features[pairs.idx1])
    e2 = params.prob_grads(test.features[pairs.idx2])
    loss = gpf_loss(e1, e2)
    pval = gpf_fae(params, eval_set)

    return FairnessReport(
        accuracy=accuracy,
        dp=dp,
        di=di,
        eop=eop,
        eod=eod,
        gpf_fae=pval,
        gpf_loss=loss,
        train_seconds=train_seconds,
        eval_seconds=time.perf_counter() - t0,
        di_reason=None if di is not None else "no positive predictions in disadvantaged group",
        eop_reason=None if eop is not None else "a group has no positive labels",
        eod_reason=None if eod is not None else "a group lacks a label value",
    )
