"""Fairness metrics.

Distributive: demographic parity, disparate impact, equal opportunity,
equalized odds. Procedural: the attribution-gap loss, MMD between
explanation sets, and the permutation-test p-value over matched
cross-group explanation pairs (1.0 = fair decision process).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .explain import _WORKERS, kernel_shap_batch
from .util import atomic_write_json, check_number_fields, euclidean

# Statistics at or below this are treated as exactly zero so that identical
# explanation sets yield p = 1.0 despite float summation noise.
_STAT_SNAP = 1e-12

# Permutations per GEMM of the permutation test.
_PERM_CHUNK = 256


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


@dataclass(kw_only=True)
class FairnessReport:
    """All metrics for one trained model; undefined metrics carry a reason.
    The field order is the key order of report files and bundle reports."""

    accuracy: float
    dp: float
    di: float | None
    di_reason: str | None = None
    eop: float | None
    eop_reason: str | None = None
    eod: float | None
    eod_reason: str | None = None
    gpf_fae: float
    gpf_loss: float
    train_seconds: float = 0.0
    eval_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path: str | Path, config_hash: str | None = None) -> None:
        """The report as JSON, led by a `config_hash` key when one is given."""
        head = {"config_hash": config_hash} if config_hash else {}
        atomic_write_json(path, {**head, **self.to_dict()}, indent=2)


def _advantaged(group: np.ndarray) -> np.ndarray:
    """Mask of the s1 rows; ValueError unless both groups have rows."""
    adv = np.asarray(group) == 1
    if not adv.any() or adv.all():
        raise ValueError("both groups must be non-empty")
    return adv


def _rates(values: np.ndarray, group: np.ndarray) -> tuple[float, float]:
    adv = _advantaged(group)
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


def _rate_gaps(preds, labels, group) -> tuple[float | None, float | None]:
    """(|TPR_s1 - TPR_s2|, |FPR_s1 - FPR_s2|); a gap is None when a group
    has no positives (TPR) or no negatives (FPR)."""
    adv = _advantaged(group)
    p = np.asarray(preds)
    pos = np.asarray(labels) == 1
    gaps = []
    for cls in (pos, ~pos):
        p1, p2 = p[adv & cls], p[~adv & cls]
        gaps.append(abs(float(p1.mean()) - float(p2.mean())) if p1.size and p2.size else None)
    return gaps[0], gaps[1]


def equal_opportunity(preds, labels, group) -> float | None:
    """|TPR_s1 - TPR_s2|; None when a group has no positives."""
    return _rate_gaps(preds, labels, group)[0]


def equalized_odds(preds, labels, group) -> float | None:
    """max(|TPR gap|, |FPR gap|); None when any needed rate is undefined."""
    tpr_gap, fpr_gap = _rate_gaps(preds, labels, group)
    if tpr_gap is None or fpr_gap is None:
        return None
    return max(tpr_gap, fpr_gap)


def _attr_matrix(e) -> np.ndarray:
    return np.atleast_2d(np.asarray(e, dtype=np.float64))


def gpf_loss(e1, e2) -> float:
    """Mean l1 distance between aligned explanation rows."""
    a1, a2 = _attr_matrix(e1), _attr_matrix(e2)
    if a1.shape != a2.shape:
        raise ValueError(f"explanation sets differ in shape: {a1.shape} vs {a2.shape}")
    return float(np.abs(a1 - a2).sum(axis=1).mean())


@lru_cache(maxsize=_WORKERS)
def _upper_triangle(size: int) -> tuple[np.ndarray, ...]:
    """(rows, cols, upper, lower): the pairs above the diagonal of a
    size x size matrix in pdist's condensed order, and their flat indices
    in the matrix and in its transpose. Read-only."""
    rows, cols = np.triu_indices(size, 1)
    out = (rows, cols, rows * size + cols, cols * size + rows)
    for arr in out:
        arr.flags.writeable = False
    return out


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-d float array, bit for bit, from one
    single-pivot partition: np.median partitions at both middle ranks and
    the last, which takes several times longer."""
    if np.isnan(x).any():
        return float("nan")
    h = x.shape[0] // 2
    part = np.partition(x, h)
    if x.shape[0] % 2:
        return float(part[h])
    return float((part[:h].max() + part[h]) / 2)


def _mmd_setup(e1, e2, cfg: MmdConfig):
    """Pool two explanation sets: (K, total, row_sums, n, observed MMD^2),
    with K the kernel matrix of the pooled rows and n the size of the first
    set, or None when every pooled point is identical. K and the median
    bandwidth equal a build from scipy's pdist and squareform and np.median
    bit for bit."""
    a1, a2 = _attr_matrix(e1), _attr_matrix(e2)
    if a1.shape[0] == 0 or a2.shape[0] == 0:
        raise ValueError("both explanation sets must be non-empty")
    n = a1.shape[0]
    pooled = np.vstack([a1, a2])
    size = pooled.shape[0]
    rows, cols, upper, lower = _upper_triangle(size)
    dists = euclidean(pooled, pooled, rows, cols)
    sigma = cfg.bandwidth if cfg.bandwidth is not None else _median(dists)
    if sigma == 0.0:
        return None
    # the kernel of each distinct pair once, and of the diagonal's distance 0
    r = np.append(dists, 0.0)
    if cfg.kernel == "exponential":
        k = np.exp(-r / sigma)
    else:
        k = np.exp(-(r**2) / (2.0 * sigma**2))
    K = np.empty(size * size)
    K[upper] = k[:-1]
    K[lower] = k[:-1]
    K[:: size + 1] = k[-1]
    K = K.reshape(size, size)
    total = float(K.sum())
    row_sums = K.sum(axis=1)
    identity = np.arange(K.shape[0])[None] < n
    return K, total, row_sums, n, float(_split_stats(identity, K, total, row_sums, n)[0])


def _split_stats(splits: np.ndarray, K: np.ndarray, total: float, row_sums: np.ndarray,
                 n: int) -> np.ndarray:
    """Biased MMD^2 of every bool split row, whose n True entries mark the
    first set; statistics at or below _STAT_SNAP read 0."""
    m = K.shape[0] - n
    U = splits.astype(np.float64)
    q = ((U @ K) * U).sum(axis=1)
    r = U @ row_sums
    stats = q / n**2 + (total - 2.0 * r + q) / m**2 - 2.0 * (r - q) / (n * m)
    stats[stats <= _STAT_SNAP] = 0.0
    return stats


@lru_cache(maxsize=_WORKERS)
def _permutation_splits(seed: int, n: int, m: int, n_permutations: int) -> tuple[np.ndarray, ...]:
    """Random re-splits of a pool of n + m rows into sizes n and m.

    Row i of the plan marks the n rows drawn for the first set. The plan
    comes in read-only bool chunks of at most _PERM_CHUNK rows, one per
    GEMM of the permutation test. Each row draws n + m uniforms and takes
    its n smallest, which is a uniformly random split. One plan per worker
    thread is cached: the cells of a sweep row share their seed and set
    sizes, so they share the plan, and sweep_p_ws runs up to _WORKERS rows
    at once, which would evict each other's plan from a smaller cache.
    """
    rng = np.random.default_rng(seed)
    chunks = []
    for start in range(0, n_permutations, _PERM_CHUNK):
        u = rng.random((min(_PERM_CHUNK, n_permutations - start), n + m))
        thr = np.partition(u, n - 1, axis=1)[:, n - 1 : n]
        U = u <= thr
        U.flags.writeable = False
        chunks.append(U)
    return tuple(chunks)


def mmd_permutation_pvalue(e1, e2, cfg: MmdConfig) -> tuple[float, float]:
    """Permutation-test p-value of the MMD between two explanation sets.

    The kernel matrix is computed once on the pooled rows; permutations
    re-split the pool into the original set sizes. The split plan is drawn
    once per (seed, n, m, n_permutations) and reused by the next call with
    the same four values. Returns (p, observed) with the +1/+1 estimator,
    so p lies in [1/(n_perm+1), 1].
    """
    setup = _mmd_setup(e1, e2, cfg)
    if setup is None:
        return 1.0, 0.0
    K, total, row_sums, n, observed = setup

    count = 0
    for chunk in _permutation_splits(cfg.seed, n, K.shape[0] - n, cfg.n_permutations):
        stats = _split_stats(chunk, K, total, row_sums, n)
        count += int((stats >= observed).sum())
    return (1 + count) / (1 + cfg.n_permutations), observed


def _pair_attributions(params, features, eval_pairs, background, seed: int) -> np.ndarray:
    """KernelSHAP explanations (at the logit) of X'1 then X'2 in one call;
    seed draws the coalitions when d is large enough to sample them."""
    rows = np.asarray(features)[np.concatenate([eval_pairs.idx1, eval_pairs.idx2])]
    return kernel_shap_batch(params.logits, rows, background, seed=seed)[0]


def gpf_fae(params, features: np.ndarray, eval_pairs, cfg: MmdConfig,
            background: np.ndarray) -> float:
    """Procedural-fairness p-value of a model over matched pairs.

    KernelSHAP explanations (at the logit) are computed for both sides of
    the pairs; the permutation test compares their distributions. Closer to
    1.0 means the decision process treats matched cross-group points alike.
    """
    phi = _pair_attributions(params, features, eval_pairs, background, cfg.seed)
    return mmd_permutation_pvalue(*np.split(phi, 2), cfg)[0]
