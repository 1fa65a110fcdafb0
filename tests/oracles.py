"""Independent oracles shared across test modules.

Everything here deliberately avoids the library's analytic code paths:
finite differences for gradients, subset enumeration for rank-sum,
direct probability-gradient recomputation for explanation values, a
one-row-at-a-time coalition evaluation for KernelSHAP, and, on the
library's kernel set-up, an argsort split draw made afresh on every call
for the MMD permutation test, full cdist rows for nearest-neighbour
pairing, per-column np.bincount for the gap term's sign scatter, the
MLP logit written as one expression with fresh temporaries, and a training
epoch computed over all rows at once.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import expit

from procfair.model import MlpParams


def finite_diff_grads(loss_fn, params: MlpParams, eps: float = 1e-5) -> dict:
    """Central-difference gradient of loss_fn(params) over every entry."""
    tree = params.tree()
    out: dict = {}
    for key, val in tree.items():
        if np.isscalar(val):
            hi = loss_fn(replace(params, **{key: val + eps}))
            lo = loss_fn(replace(params, **{key: val - eps}))
            out[key] = (hi - lo) / (2 * eps)
            continue
        g = np.zeros_like(val)
        for idx in np.ndindex(val.shape):
            bumped = val.copy()
            bumped[idx] = val[idx] + eps
            hi = loss_fn(replace(params, **{key: bumped}))
            bumped[idx] = val[idx] - eps
            lo = loss_fn(replace(params, **{key: bumped}))
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


def mlp_logits_fresh(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """The MLP logit with a fresh array for every intermediate."""
    return np.maximum(X @ params.W1.T + params.b1, 0.0) @ params.w2 + params.b2


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


def argsort_splits(seed: int, n: int, m: int, n_permutations: int, chunk: int = 256) -> list:
    """Permutation-test split plan as 0/1 float rows in chunks of `chunk`:
    each row's n smallest uniforms, found by a full argsort."""
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, n_permutations, chunk):
        size = min(chunk, n_permutations - start)
        order = rng.random((size, n + m)).argsort(axis=1)
        U = np.zeros((size, n + m))
        np.put_along_axis(U, order[:, :n], 1.0, axis=1)
        out.append(U)
    return out


def per_call_pvalue(e1, e2, cfg) -> tuple[float, float]:
    """MMD permutation-test (p, observed), drawing its splits afresh with
    argsort_splits on every call."""
    from procfair.fairness import _STAT_SNAP, _mmd_setup

    setup = _mmd_setup(e1, e2, cfg)
    if setup is None:
        return 1.0, 0.0
    K, total, row_sums, n, observed = setup
    m = K.shape[0] - n
    count = 0
    for U in argsort_splits(cfg.seed, n, m, cfg.n_permutations):
        q = ((U @ K) * U).sum(axis=1)
        r = U @ row_sums
        stats = q / n**2 + (total - 2.0 * r + q) / m**2 - 2.0 * (r - q) / (n * m)
        stats[stats <= _STAT_SNAP] = 0.0
        count += int((stats >= observed).sum())
    return (1 + count) / (1 + cfg.n_permutations), observed


def nearest_cross_cdist(a: np.ndarray, b: np.ndarray, chunk: int = 1024):
    """Per row of a: index of its nearest row in b and the distance, as the
    argmin of full cdist rows in chunks of `chunk` rows (ties at the lowest
    index)."""
    nn = np.empty(a.shape[0], dtype=np.int64)
    dd = np.empty(a.shape[0], dtype=np.float64)
    for s in range(0, a.shape[0], chunk):
        d = cdist(a[s : s + chunk], b)
        j = d.argmin(axis=1)
        nn[s : s + chunk] = j
        dd[s : s + chunk] = d[np.arange(j.shape[0]), j]
    return nn, dd


def pair_sign_scatter_bincount(S: np.ndarray, idx1: np.ndarray, idx2: np.ndarray,
                               m: int) -> np.ndarray:
    """Per-row sums of S over the pairs naming each row in idx1, less those
    naming it in idx2, one np.bincount per column and side."""
    R = np.empty((m, S.shape[1]), dtype=np.float64)
    for g in range(S.shape[1]):
        R[:, g] = np.bincount(idx1, weights=S[:, g], minlength=m) - np.bincount(
            idx2, weights=S[:, g], minlength=m
        )
    return R


def fused_epoch_unblocked(params: MlpParams, X, y, group, pairs, alpha, beta, mode):
    """One training epoch's (total, bce, gpf, dp_proxy) losses and gradient,
    every n x h array formed whole: one forward pass, the mode's loss terms
    as d(loss)/d(logit), one backprop, and the attribution gap's direct
    W1 and w2 gradients through the 0/1 ReLU mask. `pairs` is a PairSet."""
    n = X.shape[0]
    pre = X @ params.W1.T + params.b1
    mask = (pre > 0.0).astype(np.float64)
    act = np.maximum(pre, 0.0)
    p = expit(act @ params.w2 + params.b2)
    s = p * (1.0 - p)
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    bce = float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean())
    dz = (p - y) / n
    gpf = dp = 0.0
    direct_W1 = direct_w2 = 0.0
    if mode == "dp_regularized":
        adv = group == 1
        diff = p[adv].mean() - p[~adv].mean()
        dp = float(abs(diff))
        sgn = np.sign(diff)
        dz = dz + beta * np.where(adv, sgn / adv.sum(), -sgn / (~adv).sum()) * p * (1.0 - p)
    if mode == "procedural":
        G = (mask * params.w2) @ params.W1
        E = s[:, None] * G
        U = E[pairs.idx1] - E[pairs.idx2]
        gpf = float(np.abs(U).sum(axis=1).mean())
        R = pair_sign_scatter_bincount(np.sign(U) / len(pairs), pairs.idx1, pairs.idx2, n)
        sR = s[:, None] * R
        dz = dz + alpha * (R * G).sum(axis=1) * s * (1.0 - 2.0 * p)
        direct_W1 = alpha * (mask.T @ sR) * params.w2[:, None]
        direct_w2 = alpha * ((sR @ params.W1.T) * mask).sum(axis=0)
    dpre = dz[:, None] * mask * params.w2
    grads = {"W1": dpre.T @ X + direct_W1, "b1": dpre.sum(axis=0),
             "w2": act.T @ dz + direct_w2, "b2": float(dz.sum())}
    return (bce + alpha * gpf + beta * dp, bce, gpf, dp), grads
