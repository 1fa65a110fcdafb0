"""Independent oracles shared across test modules.

Everything here deliberately avoids the library's analytic code paths:
finite differences for gradients, subset enumeration for rank-sum,
direct probability-gradient recomputation for explanation values, and a
one-row-at-a-time coalition evaluation for KernelSHAP.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from procfair.model import MlpParams


def finite_diff_grads(loss_fn, params: MlpParams, eps: float = 1e-5) -> dict:
    """Central-difference gradient of loss_fn(params) over every entry."""
    tree = params.tree()
    out: dict = {}
    for key, val in tree.items():
        if np.isscalar(val):
            hi = loss_fn(params.from_tree({**tree, key: val + eps}))
            lo = loss_fn(params.from_tree({**tree, key: val - eps}))
            out[key] = (hi - lo) / (2 * eps)
            continue
        g = np.zeros_like(val)
        for idx in np.ndindex(val.shape):
            bumped = val.copy()
            bumped[idx] = val[idx] + eps
            hi = loss_fn(params.from_tree({**tree, key: bumped}))
            bumped[idx] = val[idx] - eps
            lo = loss_fn(params.from_tree({**tree, key: bumped}))
            g[idx] = (hi - lo) / (2 * eps)
        out[key] = g
    return out


def max_rel_error(analytic: dict, oracle: dict) -> float:
    """Worst relative disagreement, floored against the gradient scale so
    exact zeros do not divide by zero."""
    scale = max(
        max(np.max(np.abs(np.asarray(v))) for v in analytic.values()),
        max(np.max(np.abs(np.asarray(v))) for v in oracle.values()),
        1e-8,
    )
    worst = 0.0
    for key in analytic:
        a = np.asarray(analytic[key], dtype=np.float64)
        o = np.asarray(oracle[key], dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(o)), 1e-3 * scale)
        worst = max(worst, float((np.abs(a - o) / denom).max()))
    return worst


def prob_grad_rows(params: MlpParams, X: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Probability-gradient explanations by finite differences on inputs."""
    from scipy.special import expit

    from procfair.model import mlp_logits

    X = np.asarray(X, dtype=np.float64)
    out = np.zeros_like(X)
    for j in range(X.shape[1]):
        hi = X.copy()
        hi[:, j] += eps
        lo = X.copy()
        lo[:, j] -= eps
        out[:, j] = (expit(mlp_logits(params, hi)) - expit(mlp_logits(params, lo))) / (2 * eps)
    return out


def exact_ranksum_pvalue(x, y) -> float:
    """Two-sided rank-sum p-value by full enumeration of group assignments.

    Only feasible for small samples; used to validate the production path.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pooled = np.concatenate([x, y])
    n, total = len(x), len(pooled)
    ranks = np.argsort(np.argsort(pooled)) + 1.0
    # midranks for ties
    order = np.argsort(pooled)
    sorted_vals = pooled[order]
    ranks_sorted = np.arange(1, total + 1, dtype=np.float64)
    i = 0
    while i < total:
        j = i
        while j + 1 < total and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks_sorted[i : j + 1] = ranks_sorted[i : j + 1].mean()
        i = j + 1
    ranks = np.empty(total)
    ranks[order] = ranks_sorted

    observed = ranks[:n].sum()
    mean_w = n * (total + 1) / 2.0
    obs_dev = abs(observed - mean_w)
    count = 0
    n_splits = 0
    for combo in combinations(range(total), n):
        w = ranks[list(combo)].sum()
        if abs(w - mean_w) >= obs_dev - 1e-12:
            count += 1
        n_splits += 1
    return count / n_splits


def random_mlp(rng: np.random.Generator, d: int, h: int) -> MlpParams:
    """A small random MLP with nonzero biases for gradient testing."""
    return MlpParams(
        W1=rng.normal(0.0, 0.6, (h, d)),
        b1=rng.normal(0.0, 0.4, h),
        w2=rng.normal(0.0, 0.8, h),
        b2=float(rng.normal(0.0, 0.3)),
    )


def config_away_from_kinks(rng, d_range=(2, 5), h_range=(2, 6), m_range=(5, 12), min_pre=1e-3):
    """Sample (params, X) with every pre-activation away from the ReLU kink."""
    while True:
        d = int(rng.integers(*d_range))
        h = int(rng.integers(*h_range))
        m = int(rng.integers(*m_range))
        params = random_mlp(rng, d, h)
        X = rng.normal(0.0, 1.5, (m, d))
        pre = X @ params.W1.T + params.b1
        if np.abs(pre).min() > min_pre:
            return params, X


def per_row_coalition_values(predict, X: np.ndarray, background: np.ndarray,
                             masks: np.ndarray) -> np.ndarray:
    """KernelSHAP coalition values v[r, c], one predict call per explained row
    with all C x B mixed inputs of that row."""
    n, d = X.shape
    c, b = masks.shape[0], background.shape[0]
    out = np.empty((n, c), dtype=np.float64)
    for r in range(n):
        mixed = np.where(masks[:, None, :], X[r][None, None, :], background[None, :, :])
        out[r] = predict(mixed.reshape(c * b, d)).reshape(c, b).mean(axis=1)
    return out
