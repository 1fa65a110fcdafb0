"""Training loops and model evaluation.

Modes: plain cross-entropy (bce_only), cross-entropy plus the
attribution-gap regularizer over matched pairs (procedural; a negative
alpha inverts the regularizer and produces a procedurally unfair model by
construction), and cross-entropy plus a differentiable demographic-parity
surrogate (dp_regularized).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import expit

from .data import Dataset
from .fairness import (
    FairnessReport,
    MmdConfig,
    demographic_parity,
    disparate_impact,
    equal_opportunity,
    equalized_odds,
    gpf_fae,
    gpf_loss,
)
from .model import (
    MlpParams,
    _backprop_from_dz,
    _bce_term,
    _dp_term,
    _forward,
    _gap_term,
    adam_init,
    adam_step,
    mlp_init,
)
from .pairing import PairSet, build_pairs
from .util import atomic_write_csv, check_number_fields

MODES = ("bce_only", "procedural", "dp_regularized")


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
    c = _forward(params, np.asarray(X, dtype=np.float64))
    loss, dz = _dp_term(c.p, group)
    return loss, _backprop_from_dz(params, c, dz)


def _fused_epoch(params, X, y, group, idx1, idx2, alpha, beta, mode):
    """One epoch's (total, bce, gpf, dp_proxy) losses and combined gradient:
    the mode's loss terms over a single forward pass, backpropagated once."""
    c = _forward(params, X)
    bce, dz = _bce_term(c.p, y)
    gpf_val = dp_val = 0.0
    direct = None
    if mode == "dp_regularized":
        dp_val, dz_dp = _dp_term(c.p, group)
        dz = dz + beta * dz_dp
    if mode == "procedural":
        gpf_val, dz_gap, direct = _gap_term(params, c, idx1, idx2)
        dz = dz + alpha * dz_gap
    grads = _backprop_from_dz(params, c, dz, direct, alpha)
    total = bce + alpha * gpf_val + beta * dp_val
    return (total, bce, gpf_val, dp_val), grads


def train(data: Dataset, cfg: TrainConfig) -> tuple[MlpParams, TrainHistory]:
    """Full-batch Adam training; pairs are built once before the loop.

    In procedural mode the attribution-gap loss runs over the
    probability-gradient explanations of every deduplicated training pair,
    so k is the pair count. Deterministic for fixed (data, cfg).
    """
    t0 = time.perf_counter()
    idx1 = idx2 = np.empty(0, dtype=np.int64)
    if cfg.mode == "procedural":
        pairs = build_pairs(data)  # raises on single-group data
        idx1, idx2 = pairs.idx1, pairs.idx2

    params = mlp_init(data.n_features, cfg.hidden, cfg.seed)
    state = adam_init(params)
    y = data.labels.astype(np.float64)
    X = data.features

    losses = np.empty((4, cfg.epochs))  # rows: total, bce, gpf, dp_proxy
    for epoch in range(cfg.epochs):
        losses[:, epoch], grads = _fused_epoch(
            params, X, y, data.group, idx1, idx2, cfg.alpha, cfg.beta, cfg.mode
        )
        params, state = adam_step(state, params, grads, cfg.lr)

    total, bce, gpf, dp_proxy = losses
    history = TrainHistory(
        total=total,
        bce=bce,
        gpf=gpf,
        dp_proxy=dp_proxy,
        seconds=time.perf_counter() - t0,
    )
    return params, history


def train_inverse(data: Dataset, cfg: TrainConfig) -> tuple[MlpParams, TrainHistory]:
    """Procedural training with alpha < 0: maximizes the attribution gap to
    produce a procedurally unfair model. Rejects alpha >= 0 (including -0.0)."""
    if not cfg.alpha < 0:
        raise ValueError("train_inverse requires alpha strictly below 0")
    return train(data, replace(cfg, mode="procedural"))


def evaluate(
    params,
    test: Dataset,
    eval_pairs: PairSet,
    mmd_cfg: MmdConfig | None = None,
    background: np.ndarray | None = None,
    threshold: float = 0.5,
    train_seconds: float = 0.0,
) -> FairnessReport:
    """Accuracy, distributive metrics at the given probability threshold,
    and both procedural metrics over the evaluation pairs.

    background holds the rows KernelSHAP marginalizes over (typically a
    sample of the training split); it defaults to the test features.
    """
    mmd_cfg = mmd_cfg or MmdConfig()
    t0 = time.perf_counter()
    probs = expit(params.logits(test.features))
    preds = (probs >= threshold).astype(np.int64)

    accuracy = float((preds == test.labels).mean())
    dp = demographic_parity(preds, test.group)
    di = disparate_impact(preds, test.group)
    eop = equal_opportunity(preds, test.labels, test.group)
    eod = equalized_odds(preds, test.labels, test.group)

    e1 = params.prob_grads(test.features[eval_pairs.idx1])
    e2 = params.prob_grads(test.features[eval_pairs.idx2])
    loss = gpf_loss(e1, e2)
    pval = gpf_fae(params, test.features, eval_pairs, mmd_cfg, background=background)

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
