"""Post-hoc feature attributions: batch input-gradient explanations, a
KernelSHAP solver, and a brute-force exact Shapley oracle for testing.

All explanations are computed on the pre-sigmoid logit so training-time and
evaluation-time attributions share one scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .model import as_model

EXHAUSTIVE = "exhaustive"
# Exhaustive coalition enumeration stays cheap up to this many features;
# beyond it the solver samples this many coalitions.
_EXHAUSTIVE_MAX_D = 11
_DEFAULT_SAMPLE_BUDGET = 2048
# Model rows per predict call when evaluating coalitions: small enough that
# the mixed inputs and hidden activations of one block stay in cache.
_PREDICT_ROWS = 8192


@dataclass(frozen=True)
class ExplanationSet:
    """n x d attribution matrix with its method tag and source row indices."""

    attributions: np.ndarray
    method: str
    row_refs: np.ndarray
    base_value: float = 0.0

    def __post_init__(self):
        att = np.asarray(self.attributions, dtype=np.float64)
        refs = np.asarray(self.row_refs, dtype=np.int64)
        if att.ndim != 2 or refs.shape != (att.shape[0],):
            raise ValueError("attributions must be (n, d) with matching row_refs")
        if not np.isfinite(att).all():
            raise ValueError("attributions must be finite")
        att.setflags(write=False)
        refs.setflags(write=False)
        object.__setattr__(self, "attributions", att)
        object.__setattr__(self, "row_refs", refs)


def grad_explanations(params, rows: np.ndarray, row_refs: np.ndarray | None = None) -> ExplanationSet:
    """Input gradients of the logit, one row per explained point."""
    rows = np.asarray(rows, dtype=np.float64)
    refs = np.arange(rows.shape[0]) if row_refs is None else row_refs
    return ExplanationSet(
        attributions=as_model(params).input_grads(rows),
        method="grad",
        row_refs=refs,
        base_value=0.0,
    )


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
    _PREDICT_ROWS model rows (at least one pair per block). Each pair's B
    background rows stay consecutive and are averaged alone, so every
    v[r, c] is the mean of the same predictions whatever the block size.
    A BLAS matrix-vector kernel may round the rows past the last full
    unroll of a call (4 rows in OpenBLAS's Haswell kernel) differently in
    the last bit, so blocks of more than 8 pairs hold a multiple of 8. When
    B is a multiple of the unroll, or C * B is and B <= _PREDICT_ROWS // 8,
    no call has such rows, as with one call per explained row, and the
    values equal that evaluation's bit for bit.
    """
    n, d = X.shape
    c, b = masks.shape[0], background.shape[0]
    out = np.empty(n * c, dtype=np.float64)
    step = max(1, _PREDICT_ROWS // b)
    if step > 8:
        step -= step % 8
    for start in range(0, n * c, step):
        rows, cols = np.divmod(np.arange(start, min(start + step, n * c)), c)
        # mixed[pair, b, d]: coalition features from x, the rest from the background
        mixed = np.where(masks[cols, None, :], X[rows, None, :], background[None, :, :])
        out[start:start + len(rows)] = predict(mixed.reshape(-1, d)).reshape(-1, b).mean(axis=1)
    return out.reshape(n, c)


def kernel_shap_batch(
    predict: Callable[[np.ndarray], np.ndarray],
    X: np.ndarray,
    background: np.ndarray,
    budget: int | str | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """KernelSHAP attributions for every row of X against one background.

    Solves the Shapley-kernel weighted least squares with the empty and full
    coalitions enforced exactly (base value and efficiency constraints).
    budget None picks exhaustive enumeration for d <= 11 and a sampled
    budget of 2048 coalitions otherwise; an integer >= 2^d - 2 also
    triggers exhaustive enumeration. Coalition values are evaluated in
    cache-sized blocks across all rows of X (see _coalition_values); the
    results do not depend on the block size.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    if background.shape[0] == 0:
        raise ValueError("background must be non-empty")
    n, d = X.shape
    base = float(predict(background).mean())
    fx = predict(X)

    if d == 1:
        return (fx - base)[:, None], base

    if budget is None:
        budget = EXHAUSTIVE if d <= _EXHAUSTIVE_MAX_D else _DEFAULT_SAMPLE_BUDGET
    if budget == EXHAUSTIVE or (isinstance(budget, (int, np.integer)) and budget >= 2**d - 2):
        masks = _exhaustive_masks(d)
        weights = _kernel_weights(masks)
    else:
        if not isinstance(budget, (int, np.integer)) or budget < d + 2:
            raise ValueError(f"budget must be 'exhaustive' or an integer >= d + 2, got {budget!r}")
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


def kernel_shap(
    predict: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    background: np.ndarray,
    budget: int | str | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Single-point KernelSHAP: returns (phi vector, base value)."""
    phi, base = kernel_shap_batch(predict, np.asarray(x)[None, :], background, budget, seed)
    return phi[0], base


def exact_shapley(
    predict: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    background: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Exact Shapley values by full subset enumeration (d <= 12).

    v(S) is the mean model output with x on S and background rows off S,
    matching the KernelSHAP value function, so exhaustive KernelSHAP and
    this oracle agree.
    """
    x = np.asarray(x, dtype=np.float64)
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    d = x.shape[0]
    if d > 12:
        raise ValueError("exact_shapley enumerates 2^d subsets; d must be <= 12")
    codes = np.arange(2**d, dtype=np.uint32)
    masks = (codes[:, None] >> np.arange(d)) & 1 == 1
    b = background.shape[0]
    mixed = np.where(masks[:, None, :], x[None, None, :], background[None, :, :])
    v = predict(mixed.reshape(-1, d)).reshape(2**d, b).mean(axis=1)

    sizes = masks.sum(axis=1)
    fact = [math.factorial(k) for k in range(d + 1)]
    weights_by_size = np.array(
        [fact[s] * fact[d - s - 1] / fact[d] for s in range(d)], dtype=np.float64
    )
    phi = np.empty(d, dtype=np.float64)
    for i in range(d):
        bit = np.uint32(1 << i)
        without = (codes & bit) == 0
        s_codes = codes[without]
        phi[i] = float(
            (weights_by_size[sizes[without]] * (v[s_codes | bit] - v[s_codes])).sum()
        )
    return phi, float(v[0])


def shap_explanations(
    params,
    rows: np.ndarray,
    background: np.ndarray,
    row_refs: np.ndarray | None = None,
    budget: int | str | None = None,
    seed: int = 0,
) -> ExplanationSet:
    """KernelSHAP attributions for model parameters, explained at the logit."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    phi, base = kernel_shap_batch(as_model(params).logits, rows, background, budget, seed)
    refs = np.arange(rows.shape[0]) if row_refs is None else row_refs
    return ExplanationSet(attributions=phi, method="kernel_shap", row_refs=refs, base_value=base)


def write_explanations_csv(
    es: ExplanationSet,
    group: np.ndarray,
    feature_names: tuple[str, ...],
    path: str | Path,
    config_hash: str | None = None,
) -> None:
    """CSV export: (row_ref, group, per-feature attributions, base, method)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["row_ref", "group"] + list(feature_names) + ["base_value", "method"])
        for r in range(es.attributions.shape[0]):
            writer.writerow(
                [int(es.row_refs[r]), int(group[r])]
                + [repr(float(v)) for v in es.attributions[r]]
                + [repr(float(es.base_value)), es.method]
            )
