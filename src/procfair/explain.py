"""Post-hoc feature attributions of a predict callable by KernelSHAP.

The pipeline explains the pre-sigmoid logit (pass `params.logits`).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import util

# Exhaustive coalition enumeration stays cheap up to this many features;
# beyond it the solver samples this many coalitions.
_EXHAUSTIVE_MAX_D = 11
_DEFAULT_SAMPLE_BUDGET = 2048
# Model rows per predict call when evaluating coalitions: small enough that
# the mixed inputs and hidden activations of one block stay in cache.
_PREDICT_ROWS = 8192
# Calls of at least this many model rows (rows x coalitions x background)
# deal their blocks over util.WORKERS threads. Below it a thread costs
# about what it saves; with both sides of 100 eval pairs (200 explained rows)
# and 100 background rows, every exhaustive call at d <= 5 (200 x 30 x 100 =
# 600,000 rows), and so every sweep cell, stays on the calling thread.
_PARALLEL_MIN_ROWS = 2**20


def _exhaustive_masks(d: int) -> np.ndarray:
    """All coalitions of size 1..d-1 as a (2^d - 2, d) boolean matrix."""
    codes = np.arange(1, 2**d - 1, dtype=np.uint32)
    return (codes[:, None] >> np.arange(d)) & 1 == 1


def _kernel_weights(masks: np.ndarray) -> np.ndarray:
    """Shapley kernel pi(z) = (d-1) / (C(d,|z|) |z| (d-|z|))."""
    d = masks.shape[1]
    sizes = masks.sum(axis=1)
    return np.array(
        [(d - 1) / (math.comb(d, int(s)) * int(s) * (d - int(s))) for s in sizes],
        dtype=np.float64,
    )


def _sampled_masks(d: int, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo coalitions drawn from the Shapley kernel size law."""
    sizes = np.arange(1, d)
    probs = (d - 1) / (sizes * (d - sizes))
    probs = probs / probs.sum()
    draw = rng.choice(sizes, size=budget, p=probs)
    masks = np.zeros((budget, d), dtype=bool)
    for i, s in enumerate(draw):
        masks[i, rng.choice(d, size=int(s), replace=False)] = True
    return masks


def _coalition_values(
    predict: Callable[[np.ndarray], np.ndarray],
    X: np.ndarray,
    background: np.ndarray,
    masks: np.ndarray,
) -> np.ndarray:
    """v[r, c]: mean model output with row r's features on coalition c and
    background values elsewhere (marginal expectation over the background).

    The (row, coalition) grid of all rows is evaluated in blocks of at most
    _PREDICT_ROWS model rows (at least one pair per block). A pair's B model
    rows are laid out as one flat row of B * d values, so a block is one
    np.where over the masks tiled to (C, B * d) bools and the rows tiled to
    (n, B * d) floats, both built once per call: C * B * d bytes plus
    n * B * d floats (about 3.3 MB at C = 2048, B = 100, d = 14, n = 40).
    Each pair's B model rows stay consecutive and are averaged alone, so
    every v[r, c] is the mean of the same predictions whatever the block
    size.
    A BLAS matrix-vector kernel may round the rows past the last full
    unroll of a call (4 rows in OpenBLAS's Haswell kernel) differently in
    the last bit, so blocks of more than 8 pairs hold a multiple of 8. When
    B is a multiple of the unroll, or C * B is and B <= _PREDICT_ROWS // 8,
    no call has such rows, as with one call per explained row, and the
    values equal that evaluation's bit for bit.

    A call of at least _PARALLEL_MIN_ROWS model rows deals its blocks over
    threads with util.deal. Each block writes only its own slice of the
    output, so the values do not depend on the thread count. predict must
    be safe to call from several threads at once.
    """
    n, d = X.shape
    c, b = masks.shape[0], background.shape[0]
    out = np.empty(n * c, dtype=np.float64)
    step = max(1, _PREDICT_ROWS // b)
    if step > 8:
        step -= step % 8
    starts = range(0, n * c, step)
    masks_t = np.tile(masks, (1, b))  # (C, B*d)
    X_t = np.tile(X, (1, b))  # (n, B*d)
    background_flat = background.ravel()  # (B*d,)

    def evaluate(k: int) -> None:
        start = starts[k]
        rows, cols = np.divmod(np.arange(start, min(start + step, n * c)), c)
        # mixed[pair, b*d + j]: feature j of model row b, from x on the
        # coalition and from background row b elsewhere
        mixed = np.where(masks_t[cols], X_t[rows], background_flat)
        out[start:start + len(rows)] = predict(mixed.reshape(-1, d)).reshape(-1, b).mean(axis=1)

    util.deal(evaluate, len(starts), util.WORKERS if n * c * b >= _PARALLEL_MIN_ROWS else 1)
    return out.reshape(n, c)


def kernel_shap_batch(
    predict: Callable[[np.ndarray], np.ndarray],
    X: np.ndarray,
    background: np.ndarray,
    budget: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """KernelSHAP attributions for every row of X against one background.

    Solves the Shapley-kernel weighted least squares with the empty and full
    coalitions enforced exactly (base value and efficiency constraints).
    A budget >= 2^d - 2 enumerates every coalition; a smaller one (at
    least d + 2) samples that many. budget None enumerates for d <= 11
    and samples 2048 coalitions otherwise. Coalition values are evaluated in
    cache-sized blocks across all rows of X (see _coalition_values); the
    results depend neither on the block size nor on how many threads
    evaluate the blocks. A call of at least 2^20 model rows calls predict
    from up to 4 threads at once.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    if background.shape[0] == 0:
        raise ValueError("background must be non-empty")
    n, d = X.shape
    if background.shape[1] != d:
        raise ValueError(f"X has {d} columns but background has {background.shape[1]}")
    base = float(predict(background).mean())
    fx = predict(X)

    if budget is None:
        budget = 2**d - 2 if d <= _EXHAUSTIVE_MAX_D else _DEFAULT_SAMPLE_BUDGET
    if not isinstance(budget, (int, np.integer)) or budget < min(d + 2, 2**d - 2):
        raise ValueError(f"budget must be an integer >= min(d + 2, 2^d - 2), got {budget!r}")
    if budget >= 2**d - 2:
        masks = _exhaustive_masks(d)
        weights = _kernel_weights(masks)
    else:
        masks = _sampled_masks(d, int(budget), np.random.default_rng(seed))
        weights = np.ones(masks.shape[0], dtype=np.float64)

    v = _coalition_values(predict, X, background, masks)

    # Substitute phi_d = (f(x) - base) - sum(phi_j, j<d) so the two enforced
    # coalitions become hard constraints of the regression.
    zf = masks.astype(np.float64)
    A = zf[:, :-1] - zf[:, -1:]
    sw = np.sqrt(weights)[:, None]
    targets = v - base - zf[:, -1:].T * (fx - base)[:, None]  # (n, C)
    sol, *_ = np.linalg.lstsq(A * sw, (targets * sw.T).T, rcond=None)
    phi = np.empty((n, d), dtype=np.float64)
    phi[:, :-1] = sol.T
    phi[:, -1] = (fx - base) - phi[:, :-1].sum(axis=1)
    return phi, base

