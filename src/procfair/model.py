"""Differentiable models with hand-derived gradients.

One fixed architecture: a 2-layer ReLU MLP with a single sigmoid logit,
plus a logistic linear model whose sensitive-attribute weight can be
overridden. Each parameter class answers the two questions the pipeline
asks of a model: logits(X) and prob_grads(X). Includes the second-order
path through input gradients needed by the attribution-gap loss, and a
minimal Adam.

The MLP losses form one engine, _loss_grads, which walks the rows in
blocks of _BLOCK_ROWS in two passes. Pass 1 (_forward) writes each row's
probability and ReLU gates and, for the attribution gap, the input
gradient G of its logit, feature-major. Between the passes, one function
per loss term (BCE, attribution gap, DP surrogate) returns its value and
its gradient with respect to the logits (and to G) over all rows; the gap
term scatters its pair signs onto rows with np.bincount, so the engine
needs no scipy beyond expit. Pass 2 (_backprop) reads pass 1's gates and
adds one h x (d + 1) product per block, in block order, that yields every
parameter gradient. So the only n x h array held whole is the bool gates,
and no bit depends on the BLAS thread count. Training, bce_loss_grads,
gpf_loss_grads, train.dp_proxy_grads and MlpParams.prob_grads all run
this engine, so the gradient oracles check the code that trains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.special import expit

from .data import Dataset
from .fairness import _advantaged
from .pairing import PairSet
from .util import atomic_write_json, from_fields

_LOG_CLAMP = 1e-12
# Rows per block of the loss engine. Of 256, 512 and 1,024 rows, 512 gave
# the lowest epoch time in 4 of 6 (split, mode) cases and was within
# 0.35 ms of the lowest in the rest (BENCH_blocked_epoch.json). At hidden
# size 32 a block of float64 activations is 128 KiB.
_BLOCK_ROWS = 512
MODEL_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class MlpParams:
    """2-layer MLP parameters: logit(x) = w2 . relu(W1 x + b1) + b2."""

    W1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h,)
    b2: float

    def __post_init__(self):
        W1 = np.asarray(self.W1, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        h, d = W1.shape
        if b1.shape != (h,) or w2.shape != (h,):
            raise ValueError("inconsistent MLP parameter shapes")
        if not (np.isfinite(W1).all() and np.isfinite(b1).all() and np.isfinite(w2).all()):
            raise ValueError("MLP parameters must be finite")
        object.__setattr__(self, "W1", W1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", float(self.b2))

    @property
    def hidden_size(self) -> int:
        return self.W1.shape[0]

    @property
    def input_size(self) -> int:
        return self.W1.shape[1]

    def tree(self) -> dict[str, np.ndarray | float]:
        return {"W1": self.W1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def logits(self, X: np.ndarray) -> np.ndarray:
        """Pre-sigmoid logit of every row of X."""
        pre = _pre_activation(self, X)
        np.maximum(pre, 0.0, out=pre)
        return pre @ self.w2 + self.b2

    def prob_grads(self, X: np.ndarray) -> np.ndarray:
        """Gradient of the predicted probability w.r.t. the input.

        This is the training-time explanation: the sigmoid slope makes a
        model's reliance on any single feature visible as a within-pair
        explanation gap, which the plain logit gradient misses whenever that
        reliance is locally linear.
        """
        c = _forward(self, X, input_grads=True)
        return (c.G * (c.p * (1.0 - c.p))).T.copy()


@dataclass(frozen=True)
class LinearParams:
    """Logistic-regression parameters with a tracked sensitive column."""

    w: np.ndarray
    b: float
    sensitive_index: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        if not np.isfinite(w).all():
            raise ValueError("linear parameters must be finite")
        if not 0 <= self.sensitive_index < w.shape[0]:
            raise ValueError("sensitive_index out of range")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", float(self.b))

    @property
    def input_size(self) -> int:
        return self.w.shape[0]

    def tree(self) -> dict[str, np.ndarray | float]:
        return {"w": self.w, "b": self.b}

    def logits(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b

    def prob_grads(self, X: np.ndarray) -> np.ndarray:
        """Gradient of the predicted probability w.r.t. the input."""
        p = expit(self.logits(X))
        return (p * (1.0 - p))[:, None] * self.w


@dataclass
class AdamState:
    """First/second-moment accumulators keyed like the parameter tree."""

    m: dict[str, np.ndarray | float]
    v: dict[str, np.ndarray | float]
    step: int = 0


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def mlp_init(d: int, h: int, seed: int) -> MlpParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    if d < 1 or h < 1:
        raise ValueError("d and h must be >= 1")
    rng = np.random.default_rng(seed)
    lim1 = 1.0 / np.sqrt(d)
    lim2 = 1.0 / np.sqrt(h)
    return MlpParams(
        W1=rng.uniform(-lim1, lim1, size=(h, d)),
        b1=np.zeros(h),
        w2=rng.uniform(-lim2, lim2, size=h),
        b2=0.0,
    )


mlp_logits = MlpParams.logits  # function form, as perfbench's probes call it


def _pre_activation(params: MlpParams, X: np.ndarray) -> np.ndarray:
    pre = X @ params.W1.T
    pre += params.b1
    return pre


def _blocks(n: int):
    return (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, n, _BLOCK_ROWS))


class _Forward(NamedTuple):
    """Pass 1 of the loss engine over every row."""

    p: np.ndarray  # sigmoid(logit)
    gates: np.ndarray  # (n, h) bools, the ReLU gate 1[pre-activation > 0]
    G: np.ndarray | None  # (d, n) d(logit)/d(input) through the gates, when asked for


def _forward(params: MlpParams, X: np.ndarray, input_grads: bool = False) -> _Forward:
    """Each row's probability and ReLU gates and, if input_grads, the input
    gradient of its logit, (gate * w2) @ W1, stored transposed. A unit
    sitting exactly at zero is gated off: it contributes nothing."""
    z = np.empty(X.shape[0])
    gates = np.empty((X.shape[0], params.hidden_size), dtype=bool)
    G = np.empty(X.shape[::-1]) if input_grads else None
    for rows in _blocks(X.shape[0]):
        pre = _pre_activation(params, X[rows])
        gate = np.greater(pre, 0.0, out=gates[rows])
        z[rows] = np.maximum(pre, 0.0, out=pre) @ params.w2
        if input_grads:
            np.copyto(pre, gate)  # 0.0 or 1.0; a float copy and multiply beat a bool ufunc
            pre *= params.w2  # d(logit)/d(pre-activation)
            G[:, rows] = (pre @ params.W1).T
    z += params.b2
    return _Forward(expit(z), gates, G)


def _bce_term(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy of probabilities p and its d(loss)/d(logit)
    per row."""
    pc = np.clip(p, _LOG_CLAMP, 1.0 - _LOG_CLAMP)
    loss = float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean())
    return loss, (p - y) / p.shape[0]


def _dp_term(p: np.ndarray, group: np.ndarray) -> tuple[float, np.ndarray]:
    """|mean probability over s1 - mean over s2| and its d(loss)/d(logit);
    the absolute value's subgradient is 0 at the kink."""
    adv = _advantaged(group)
    diff = float(p[adv].mean() - p[~adv].mean())
    sgn = np.sign(diff)
    dz = np.where(adv, sgn / adv.sum(), -sgn / (~adv).sum()) * p * (1.0 - p)
    return abs(diff), dz


def _pair_sign_scatter(S: np.ndarray, pairs: PairSet, n: int) -> np.ndarray:
    """Accumulate per-pair l1 subgradient signs onto per-row vectors,
    feature-major: row i of feature j in the (d, n) result is the sum of
    S[j, p] over pairs with idx1[p] == i, less the sum over idx2[p] == i.

    np.bincount adds each row's weights to 0.0 in pair order, as the
    bincount oracle (tests/oracles.py) does, so the bits are equal. The two
    sums stay apart: one signed pass would interleave them.
    """
    R = np.empty((S.shape[0], n))
    for j, row in enumerate(S):
        R[j] = np.bincount(pairs.idx1, weights=row, minlength=n)
        R[j] -= np.bincount(pairs.idx2, weights=row, minlength=n)
    return R


def _pairwise_rows(A: np.ndarray) -> np.ndarray:
    """The sums over the rows of A, added in the order of numpy's pairwise
    summation of a contiguous run of A.shape[0] values: fewer than 8 in
    sequence; up to 128 in 8 strided accumulators that meet in a tree, the
    rest in sequence; more split in two at a multiple of 8. Works in place:
    the result is a row of A, and A's other rows are overwritten."""
    n = A.shape[0]
    if n > 128:
        half = n // 2 - n // 2 % 8
        acc = _pairwise_rows(A[:half])
        acc += _pairwise_rows(A[half:])
        return acc
    if n < 8:
        head, rest = A[:1], A[1:]
    else:
        head, rest = A[:8], A[n - n % 8 :]
        for lo in range(8, n - n % 8, 8):
            head += A[lo : lo + 8]
        for step in (1, 2, 4):  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
            head[:: 2 * step] += head[step :: 2 * step]
    acc = head[0]
    for row in rest:
        acc += row
    return acc


def _feature_sums(A: np.ndarray) -> np.ndarray:
    """A.T.sum(axis=1) of a feature-major (d, m) array, bit for bit, and
    A is overwritten: numpy adds the pairwise sum of each contiguous row of
    d values to 0.0 (which turns a sum of -0.0 into 0.0). Each add here runs
    over all m values."""
    acc = _pairwise_rows(A)
    acc += 0.0
    return acc


def _gap_term(c: _Forward, pairs: PairSet) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean l1 gap between probability-gradient explanations of paired rows.

    The explanation is e(x) = sigma'(z) * dz/dx = s * G. ReLU masks are held
    fixed while differentiating (their derivative is zero almost everywhere)
    and the l1 subgradient uses sign(0) = 0. Returns the loss, its gradient
    through the sigmoid slope as d(loss)/d(logit) (sigma'' = s(1-2p), which
    is where the bias gradients come from), and its (n, d) gradient with
    respect to G.

    E and the pair differences U are feature-major, (d, n) and (d, k), so
    every elementwise pass and every feature sum runs over rows or pairs;
    the sums equal numpy's (k, d).sum(axis=1) bit for bit. Each temporary
    is dropped, or its buffer reused, once it is dead: glibc hands a free
    heap top above its trim threshold back to the OS, and an epoch whose
    temporaries pile up past that threshold faults all their pages in
    again. On random 13,400-row data an epoch makes 1 to 30 minor faults
    up to d = 17, but about 1,700 at d = 18 and 3,150 at d = 32.
    """
    s = c.p * (1.0 - c.p)
    E = c.G * s
    U = np.take(E, pairs.idx1, axis=1)
    V = np.take(E, pairs.idx2, axis=1)
    del E
    U -= V
    loss = float(_feature_sums(np.abs(U, out=V)).mean())
    S = np.sign(U, out=V)
    del U, V
    S /= len(pairs)
    R = _pair_sign_scatter(S, pairs, c.G.shape[1])
    del S
    dz = _feature_sums(R * c.G) * s * (1.0 - 2.0 * c.p)
    R *= s
    return loss, dz, R.T


def _backprop(
    params: MlpParams, X: np.ndarray, gates: np.ndarray, dz: np.ndarray, dG: np.ndarray | float
) -> dict[str, np.ndarray | float]:
    """Pass 2 of the loss engine: the parameter gradient of a loss given
    pass 1's gates, its gradient with respect to each row's logit (dz) and,
    gates held fixed, to each row's logit input gradient G (dG, (n, d), or
    0.0 when no term reads G).

    With T = [dz * X + dG | dz] and P = gate.T @ T, an h x (d + 1) array,
    d/dW1 = w2 * P[:, :d] and d/db1 = w2 * P[:, d]; since a unit's
    activation is gate * ([x | 1] . [W1 | b1]), d/dw2 is
    (P * [W1 | b1]).sum(axis=1). Each block's part of P is added in block
    order, so the bits do not depend on how BLAS splits a product over
    threads.
    """
    d = X.shape[1]
    T = np.empty((X.shape[0], d + 1))
    np.multiply(dz[:, None], X, out=T[:, :d])
    T[:, :d] += dG
    T[:, d] = dz
    P = np.zeros((params.hidden_size, d + 1))
    for rows in _blocks(X.shape[0]):
        P += gates[rows].astype(np.float64).T @ T[rows]
    W1b1 = np.column_stack([params.W1, params.b1])
    return {"W1": params.w2[:, None] * P[:, :-1], "b1": params.w2 * P[:, -1],
            "w2": (P * W1b1).sum(axis=1), "b2": float(dz.sum())}


def _loss_grads(
    params: MlpParams, X: np.ndarray, y: np.ndarray | None = None, group: np.ndarray | None = None,
    pairs: PairSet | None = None, alpha: float = 1.0, beta: float = 1.0,
) -> tuple[tuple[float, float, float], dict[str, np.ndarray | float]]:
    """The loss engine: the (bce, gap, dp) term values and the gradient of
    bce + alpha * gap + beta * dp. A term runs when its input is given (y,
    pairs, group) and reads 0.0 otherwise."""
    c = _forward(params, X, input_grads=pairs is not None)
    bce = gpf = dp = 0.0
    dz = np.zeros(X.shape[0])
    dG = 0.0
    if y is not None:
        bce, dz = _bce_term(c.p, y)
    if group is not None:
        dp, dz_dp = _dp_term(c.p, group)
        dz = dz + beta * dz_dp
    if pairs is not None:
        gpf, dz_gap, dG = _gap_term(c, pairs)
        dz = dz + alpha * dz_gap
        dG *= alpha
    return (bce, gpf, dp), _backprop(params, X, c.gates, dz, dG)


def bce_loss_grads(
    params: MlpParams, X: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray | float]]:
    """Mean binary cross-entropy and its exact parameter gradient."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    (loss, _, _), grads = _loss_grads(params, X, y=np.asarray(y, dtype=np.float64))
    return loss, grads


def gpf_loss_grads(
    params: MlpParams, X: np.ndarray, pairs: PairSet
) -> tuple[float, dict[str, np.ndarray | float]]:
    """The attribution-gap loss over pairs (see _gap_term) with its exact
    parameter gradient."""
    if len(pairs) == 0:
        raise ValueError("pair set must be non-empty")
    X = np.asarray(X, dtype=np.float64)
    (_, loss, _), grads = _loss_grads(params, X, pairs=pairs)
    return loss, grads


def adam_init(params) -> AdamState:
    def zeros() -> dict:
        return {
            k: (0.0 if np.isscalar(v) else np.zeros_like(v)) for k, v in params.tree().items()
        }

    return AdamState(m=zeros(), v=zeros())


def adam_step(state: AdamState, params, grads: dict, lr: float):
    """One Adam update with bias correction; returns (params', state')."""
    tree = params.tree()
    if set(grads) != set(tree):
        raise ValueError(f"gradient keys {sorted(grads)} do not match parameters")
    t = state.step + 1
    new_m: dict = {}
    new_v: dict = {}
    new_tree: dict = {}
    for key, theta in tree.items():
        g = grads[key]
        if not np.isscalar(theta) and np.shape(g) != np.shape(theta):
            raise ValueError(f"gradient shape mismatch for {key!r}")
        m = _ADAM_BETA1 * state.m[key] + (1.0 - _ADAM_BETA1) * g
        v = _ADAM_BETA2 * state.v[key] + (1.0 - _ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - _ADAM_BETA1**t)
        v_hat = v / (1.0 - _ADAM_BETA2**t)
        new_tree[key] = theta - lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)
        new_m[key] = m
        new_v[key] = v
    return replace(params, **new_tree), AdamState(m=new_m, v=new_v, step=t)


def linear_init(d: int, sensitive_index: int, seed: int) -> LinearParams:
    rng = np.random.default_rng(seed)
    lim = 1.0 / np.sqrt(d)
    return LinearParams(w=rng.uniform(-lim, lim, size=d), b=0.0, sensitive_index=sensitive_index)


def linear_train(data: Dataset, epochs: int, seed: int, lr: float = 0.01) -> LinearParams:
    """Full-batch Adam fit of a logistic regression; deterministic per seed."""
    if data.sensitive_col is None:
        raise ValueError("dataset must track its sensitive column for a linear model")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    params = linear_init(data.n_features, data.sensitive_col, seed)
    state = adam_init(params)
    X, y = data.features, data.labels.astype(np.float64)
    for _ in range(epochs):
        dz = (expit(params.logits(X)) - y) / X.shape[0]  # d(mean BCE)/d(logit)
        params, state = adam_step(state, params, {"w": X.T @ dz, "b": float(dz.sum())}, lr)
    return params


def override_sensitive_weight(params: LinearParams, w_s: float) -> LinearParams:
    """Copy with the sensitive-attribute weight pinned to w_s."""
    w = params.w.copy()
    w[params.sensitive_index] = w_s
    return replace(params, w=w)


# Per kind: the parameter class, and the size keys a model file holds
# besides "format_version", "kind" and the class's fields. A file holds
# those keys in that order: the header, the sizes, then the fields.
_MODEL_KINDS = {
    "mlp": (MlpParams, ("input_size", "hidden_size")),
    "linear": (LinearParams, ("input_size",)),
}


def save_params(params, path: str | Path) -> None:
    """JSON serialization with explicit shapes and row-major weights."""
    kind = next((k for k, (cls, _) in _MODEL_KINDS.items() if type(params) is cls), None)
    if kind is None:
        raise TypeError(f"unsupported parameter type: {type(params)!r}")
    obj = {"format_version": MODEL_FORMAT_VERSION, "kind": kind}
    for key in (*_MODEL_KINDS[kind][1], *(f.name for f in fields(params))):
        value = getattr(params, key)
        obj[key] = value.tolist() if isinstance(value, np.ndarray) else value
    atomic_write_json(path, obj)


def load_params(path: str | Path):
    """Read a save_params file. A ValueError names an unknown or missing
    key, an unknown kind or format version, and a size that disagrees with
    the weights."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"model must be a JSON object, got {type(obj).__name__}")
    if obj.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {obj.get('format_version')!r}")
    if obj.get("kind") not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {obj.get('kind')!r}")
    cls, sizes = _MODEL_KINDS[obj["kind"]]
    missing = [k for k in sizes if k not in obj]
    if missing:
        raise ValueError(f"missing model key(s): {', '.join(missing)}")
    header = ("format_version", "kind", *sizes)
    params = from_fields(cls, {k: v for k, v in obj.items() if k not in header}, "model")
    for key in sizes:
        if obj[key] != getattr(params, key):
            raise ValueError(f"model {key} {obj[key]!r} does not match the weights "
                             f"({getattr(params, key)})")
    return params
