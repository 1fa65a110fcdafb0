"""Fairness metrics.

Distributive: demographic parity, disparate impact, equal opportunity,
equalized odds. Procedural: the attribution-gap loss, MMD between
explanation sets, and the permutation-test p-value over matched
cross-group explanation pairs (1.0 = fair decision process).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .explain import kernel_shap_batch
from .util import atomic_write_json, check_number_fields

# Statistics at or below this are treated as exactly zero so that identical
# explanation sets yield p = 1.0 despite float summation noise.
_STAT_SNAP = 1e-12


@dataclass(frozen=True)
class MmdConfig:
    """Kernel and permutation-test settings for the procedural metric."""

    kernel: str = "exponential"  # exp(-||a-b||/sigma); "gaussian" for exp(-r^2/(2 sigma^2))
    bandwidth: float | None = None  # None -> median heuristic on the pooled set
    n_permutations: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_number_fields(self)
        if self.kernel not in ("exponential", "gaussian"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive when given")
        if self.n_permutations < 100:
            raise ValueError("n_permutations must be >= 100")


@dataclass
class FairnessReport:
    """All metrics for one trained model; undefined metrics carry a reason."""

    accuracy: float
    dp: float
    di: float | None
    eop: float | None
    eod: float | None
    gpf_fae: float
    gpf_loss: float
    train_seconds: float = 0.0
    eval_seconds: float = 0.0
    di_reason: str | None = None
    eop_reason: str | None = None
    eod_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "dp": self.dp,
            "di": self.di,
            "di_reason": self.di_reason,
            "eop": self.eop,
            "eop_reason": self.eop_reason,
            "eod": self.eod,
            "eod_reason": self.eod_reason,
            "gpf_fae": self.gpf_fae,
            "gpf_loss": self.gpf_loss,
            "train_seconds": self.train_seconds,
            "eval_seconds": self.eval_seconds,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FairnessReport":
        return cls(
            accuracy=obj["accuracy"],
            dp=obj["dp"],
            di=obj["di"],
            eop=obj["eop"],
            eod=obj["eod"],
            gpf_fae=obj["gpf_fae"],
            gpf_loss=obj["gpf_loss"],
            train_seconds=obj.get("train_seconds", 0.0),
            eval_seconds=obj.get("eval_seconds", 0.0),
            di_reason=obj.get("di_reason"),
            eop_reason=obj.get("eop_reason"),
            eod_reason=obj.get("eod_reason"),
        )

    def to_json(self, path: str | Path, config_hash: str | None = None) -> None:
        """The report as JSON, led by a `config_hash` key when one is given."""
        head = {"config_hash": config_hash} if config_hash else {}
        atomic_write_json(path, {**head, **self.to_dict()}, indent=2)


def _rates(values: np.ndarray, group: np.ndarray) -> tuple[float, float]:
    adv = np.asarray(group) == 1
    if not adv.any() or adv.all():
        raise ValueError("both groups must be non-empty")
    values = np.asarray(values, dtype=np.float64)
    return float(values[adv].mean()), float(values[~adv].mean())


def demographic_parity(preds: np.ndarray, group: np.ndarray) -> float:
    """|P(yhat=1 | s1) - P(yhat=1 | s2)|."""
    r1, r2 = _rates(preds, group)
    return abs(r1 - r2)


def disparate_impact(preds: np.ndarray, group: np.ndarray) -> float | None:
    """P(yhat=1 | s1) / P(yhat=1 | s2); None when the denominator is zero."""
    r1, r2 = _rates(preds, group)
    if r2 == 0.0:
        return None
    return r1 / r2


def _tpr_fpr(preds, labels, mask) -> tuple[float | None, float | None]:
    p = np.asarray(preds)[mask]
    y = np.asarray(labels)[mask]
    pos = y == 1
    neg = ~pos
    tpr = float(p[pos].mean()) if pos.any() else None
    fpr = float(p[neg].mean()) if neg.any() else None
    return tpr, fpr


def equal_opportunity(preds, labels, group) -> float | None:
    """|TPR_s1 - TPR_s2|; None when a group has no positives."""
    adv = np.asarray(group) == 1
    if not adv.any() or adv.all():
        raise ValueError("both groups must be non-empty")
    t1, _ = _tpr_fpr(preds, labels, adv)
    t2, _ = _tpr_fpr(preds, labels, ~adv)
    if t1 is None or t2 is None:
        return None
    return abs(t1 - t2)


def equalized_odds(preds, labels, group) -> float | None:
    """max(|TPR gap|, |FPR gap|); None when any needed rate is undefined."""
    adv = np.asarray(group) == 1
    if not adv.any() or adv.all():
        raise ValueError("both groups must be non-empty")
    t1, f1 = _tpr_fpr(preds, labels, adv)
    t2, f2 = _tpr_fpr(preds, labels, ~adv)
    if None in (t1, f1, t2, f2):
        return None
    return max(abs(t1 - t2), abs(f1 - f2))


def _attr_matrix(e) -> np.ndarray:
    return np.atleast_2d(np.asarray(e, dtype=np.float64))


def gpf_loss(e1, e2) -> float:
    """Mean l1 distance between aligned explanation rows."""
    a1, a2 = _attr_matrix(e1), _attr_matrix(e2)
    if a1.shape != a2.shape:
        raise ValueError(f"explanation sets differ in shape: {a1.shape} vs {a2.shape}")
    return float(np.abs(a1 - a2).sum(axis=1).mean())


def _kernel_matrix(pooled: np.ndarray, cfg: MmdConfig) -> tuple[np.ndarray, float]:
    """(kernel matrix, bandwidth); bandwidth 0 means all points identical."""
    dists = pdist(pooled)
    if cfg.bandwidth is not None:
        sigma = cfg.bandwidth
    else:
        sigma = float(np.median(dists)) if dists.size else 0.0
    if sigma == 0.0:
        return np.ones((pooled.shape[0], pooled.shape[0])), 0.0
    D = squareform(dists)
    if cfg.kernel == "exponential":
        K = np.exp(-D / sigma)
    else:
        K = np.exp(-(D**2) / (2.0 * sigma**2))
    return K, sigma


def _mmd_from_indicator(K: np.ndarray, total: float, row_sums: np.ndarray, in_a: np.ndarray) -> float:
    """Biased MMD^2 of the split given membership indicator in_a."""
    n = int(in_a.sum())
    m = in_a.shape[0] - n
    q = float(in_a @ K @ in_a)
    r = float(row_sums @ in_a)
    stat = q / n**2 + (total - 2.0 * r + q) / m**2 - 2.0 * (r - q) / (n * m)
    return stat if stat > _STAT_SNAP else 0.0


def mmd(e1, e2, cfg: MmdConfig | None = None) -> float:
    """Biased-estimator squared MMD between two explanation sets.

    Exponential kernel k(a, b) = exp(-||a-b||_2 / sigma) by default, with
    the bandwidth from the median heuristic over the pooled set. Returns 0
    when every pooled point is identical.
    """
    cfg = cfg or MmdConfig()
    a1, a2 = _attr_matrix(e1), _attr_matrix(e2)
    if a1.shape[0] == 0 or a2.shape[0] == 0:
        raise ValueError("both explanation sets must be non-empty")
    pooled = np.vstack([a1, a2])
    K, sigma = _kernel_matrix(pooled, cfg)
    if sigma == 0.0:
        return 0.0
    in_a = np.zeros(pooled.shape[0])
    in_a[: a1.shape[0]] = 1.0
    return _mmd_from_indicator(K, float(K.sum()), K.sum(axis=1), in_a)


def mmd_permutation_pvalue(e1, e2, cfg: MmdConfig | None = None) -> tuple[float, float]:
    """Permutation-test p-value of the MMD between two explanation sets.

    The kernel matrix is computed once on the pooled rows; permutations
    re-split the pool into the original set sizes. Returns (p, observed)
    with the +1/+1 estimator, so p lies in [1/(n_perm+1), 1].
    """
    cfg = cfg or MmdConfig()
    a1, a2 = _attr_matrix(e1), _attr_matrix(e2)
    if a1.shape[0] == 0 or a2.shape[0] == 0:
        raise ValueError("both explanation sets must be non-empty")
    n, m = a1.shape[0], a2.shape[0]
    pooled = np.vstack([a1, a2])
    K, sigma = _kernel_matrix(pooled, cfg)
    if sigma == 0.0:
        return 1.0, 0.0
    total = float(K.sum())
    row_sums = K.sum(axis=1)

    in_a = np.zeros(n + m)
    in_a[:n] = 1.0
    observed = _mmd_from_indicator(K, total, row_sums, in_a)

    rng = np.random.default_rng(cfg.seed)
    count = 0
    chunk = 256
    for start in range(0, cfg.n_permutations, chunk):
        size = min(chunk, cfg.n_permutations - start)
        # random splits as 0/1 membership rows; argsort of uniforms = shuffle
        order = rng.random((size, n + m)).argsort(axis=1)
        U = np.zeros((size, n + m))
        np.put_along_axis(U, order[:, :n], 1.0, axis=1)
        q = ((U @ K) * U).sum(axis=1)
        r = U @ row_sums
        stats = q / n**2 + (total - 2.0 * r + q) / m**2 - 2.0 * (r - q) / (n * m)
        stats[stats <= _STAT_SNAP] = 0.0
        count += int((stats >= observed).sum())
    return (1 + count) / (1 + cfg.n_permutations), observed


def gpf_fae(
    params,
    features: np.ndarray,
    eval_pairs,
    cfg: MmdConfig | None = None,
    background: np.ndarray | None = None,
    budget: int | str | None = None,
) -> float:
    """Procedural-fairness p-value of a model over matched pairs.

    KernelSHAP explanations (at the logit) are computed for both sides of
    the pairs; the permutation test compares their distributions. Closer to
    1.0 means the decision process treats matched cross-group points alike.
    """
    cfg = cfg or MmdConfig()
    feats = np.asarray(features, dtype=np.float64)
    if background is None:
        background = feats
    predict = params.logits
    phi1, _ = kernel_shap_batch(predict, feats[eval_pairs.idx1], background, budget, cfg.seed)
    phi2, _ = kernel_shap_batch(predict, feats[eval_pairs.idx2], background, budget, cfg.seed)
    p, _ = mmd_permutation_pvalue(phi1, phi2, cfg)
    return p
