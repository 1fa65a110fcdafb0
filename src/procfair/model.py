"""Differentiable models with hand-derived gradients.

One fixed architecture: a 2-layer ReLU MLP with a single sigmoid logit,
plus a logistic linear model whose sensitive-attribute weight can be
overridden. Each parameter class answers the two questions the pipeline
asks of a model: logits(X) and prob_grads(X). Includes the second-order
path through input gradients needed by the attribution-gap loss, and a
minimal Adam.

The MLP losses form one engine: a single forward cache (_forward), one
function per loss term (BCE, attribution gap, DP surrogate) returning its
value and d(loss)/d(logit), and one backprop. Training sums the terms;
bce_loss_grads, gpf_loss_grads and train.dp_proxy_grads wrap one term each,
so the gradient oracles check the code that trains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array
from scipy.special import expit

from .data import Dataset
from .fairness import _advantaged
from .pairing import PairSet
from .util import atomic_write_json, from_fields

_LOG_CLAMP = 1e-12
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
        pre = X @ self.W1.T
        pre += self.b1
        np.maximum(pre, 0.0, out=pre)
        return pre @ self.w2 + self.b2

    def prob_grads(self, X: np.ndarray) -> np.ndarray:
        """Gradient of the predicted probability w.r.t. the input.

        This is the training-time explanation: the sigmoid slope makes a
        model's reliance on any single feature visible as a within-pair
        explanation gap, which the plain logit gradient misses whenever that
        reliance is locally linear.
        """
        c = _forward(self, X)
        return (c.p * (1.0 - c.p))[:, None] * _logit_input_grads(self, c)


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


def _logit_input_grads(params: MlpParams, c: _Forward) -> np.ndarray:
    """Gradient of the pre-sigmoid logit w.r.t. the input, through the
    forward pass's masked hidden weights. The gate is 1[pre-activation > 0],
    so a unit sitting exactly at zero contributes nothing."""
    return c.mw @ params.W1


class _Forward(NamedTuple):
    """One batch's forward pass, shared by every loss term and the backprop."""

    X: np.ndarray
    mask: np.ndarray  # ReLU gate, pre-activation > 0
    mw: np.ndarray  # mask * w2: d(logit)/d(pre-activation) per row
    act: np.ndarray
    p: np.ndarray  # sigmoid(logit)


def _out(scratch: dict | None, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """Output array for one n x h epoch temporary: a fresh one, or the one
    `scratch` keeps under `name` from the previous epoch.

    These arrays are MB-sized. Allocated afresh, glibc hands their pages
    back to the OS between epochs whenever the freed heap top exceeds its
    trim threshold, and every epoch pays the page faults again; training
    passes one scratch dict for the whole run so the pages stay mapped.
    """
    if scratch is None:
        return np.empty(shape, dtype)
    a = scratch.get(name)
    if a is None or a.shape != shape:
        a = scratch[name] = np.empty(shape, dtype)
    return a


def _forward(params: MlpParams, X: np.ndarray, scratch: dict | None = None) -> _Forward:
    nh = (X.shape[0], params.hidden_size)
    pre = np.matmul(X, params.W1.T, out=_out(scratch, "pre", nh))
    pre += params.b1
    act = np.maximum(pre, 0.0, out=_out(scratch, "act", nh))
    mask = np.greater(pre, 0.0, out=_out(scratch, "mask", nh, bool))
    mw = np.multiply(mask, params.w2, out=_out(scratch, "mw", nh))
    return _Forward(X, mask, mw, act, expit(act @ params.w2 + params.b2))


def _bce_term(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy of probabilities p and its d(loss)/d(logit)
    per row; the linear model shares it."""
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


class _GapPairs(NamedTuple):
    """The gap term's pairs with their m x k row-incidence matrices, built
    once per training run (or per gpf_loss_grads call) by _gap_pairs."""

    idx1: np.ndarray
    idx2: np.ndarray
    A1: csr_array
    A2: csr_array


def _incidence(idx: np.ndarray, m: int) -> csr_array:
    """m x k 0/1 matrix with a 1 at (idx[p], p): row i lists the pairs that
    reference row i, in pair order."""
    order = np.argsort(idx, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(idx, minlength=m))])
    return csr_array((np.ones(idx.shape[0]), order, indptr), shape=(m, idx.shape[0]))


def _gap_pairs(pairs: PairSet, m: int) -> _GapPairs:
    return _GapPairs(pairs.idx1, pairs.idx2, _incidence(pairs.idx1, m), _incidence(pairs.idx2, m))


def _pair_sign_scatter(S: np.ndarray, pairs: _GapPairs) -> np.ndarray:
    """Accumulate per-pair l1 subgradient signs onto per-row vectors:
    row i gets the sum of S[p] over pairs with idx1[p] == i, less the sum
    over pairs with idx2[p] == i.

    Each CSR product accumulates every output row from 0.0 over its pairs
    in pair order, the order np.bincount adds its weights in, so this
    equals the per-column bincount scatter (tests/oracles.py) bit for bit.
    The two sums stay two products: one +-1 matrix would interleave them.
    """
    return (pairs.A1 @ S) - (pairs.A2 @ S)


def _gap_term(
    params: MlpParams, c: _Forward, pairs: _GapPairs, scratch: dict | None = None
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Mean l1 gap between probability-gradient explanations of paired rows.

    The explanation is e(x) = sigma'(z) * dz/dx. ReLU masks are held fixed
    while differentiating (their derivative is zero almost everywhere) and
    the l1 subgradient uses sign(0) = 0. Returns the loss, the sigmoid-slope
    path as d(loss)/d(logit) (sigma'' = s(1-2p), which is where the bias
    gradients come from), and the mask path's direct W1/w2 gradient.
    """
    maskf = _out(scratch, "maskf", c.mask.shape)
    maskf[...] = c.mask
    s = c.p * (1.0 - c.p)
    G = _logit_input_grads(params, c)
    E = s[:, None] * G
    U = E[pairs.idx1] - E[pairs.idx2]
    loss = float(np.abs(U).sum(axis=1).mean())
    R = _pair_sign_scatter(np.sign(U) / pairs.idx1.shape[0], pairs)
    sR = s[:, None] * R
    dz = (R * G).sum(axis=1) * s * (1.0 - 2.0 * c.p)
    sRW = np.matmul(sR, params.W1.T, out=_out(scratch, "sRW", c.mask.shape))
    sRW *= maskf
    direct = {"W1": (maskf.T @ sR) * params.w2[:, None], "w2": sRW.sum(axis=0)}
    return loss, dz, direct


def _backprop_from_dz(
    params: MlpParams, c: _Forward, dz: np.ndarray, direct: dict | None = None, scale: float = 1.0,
    scratch: dict | None = None,
) -> dict[str, np.ndarray | float]:
    """Backprop through the MLP given d(loss)/d(logit) per row, then add
    scale times any direct parameter gradient."""
    # the mask is 0/1, so this is (dz * w2) * mask bit for bit
    dpre = np.multiply(dz[:, None], c.mw, out=_out(scratch, "dpre", c.mw.shape))
    grads = {
        "W1": dpre.T @ c.X,
        "b1": dpre.sum(axis=0),
        "w2": c.act.T @ dz,
        "b2": float(dz.sum()),
    }
    for key, g in (direct or {}).items():
        grads[key] = grads[key] + scale * g
    return grads


def bce_loss_grads(
    params: MlpParams, X: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray | float]]:
    """Mean binary cross-entropy and its exact parameter gradient."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    c = _forward(params, X)
    loss, dz = _bce_term(c.p, np.asarray(y, dtype=np.float64))
    return loss, _backprop_from_dz(params, c, dz)


def gpf_loss_grads(
    params: MlpParams, X: np.ndarray, pairs: PairSet
) -> tuple[float, dict[str, np.ndarray | float]]:
    """The attribution-gap loss over pairs (see _gap_term) with its exact
    parameter gradient."""
    if len(pairs) == 0:
        raise ValueError("pair set must be non-empty")
    c = _forward(params, np.asarray(X, dtype=np.float64))
    loss, dz, direct = _gap_term(params, c, _gap_pairs(pairs, c.X.shape[0]))
    return loss, _backprop_from_dz(params, c, dz, direct)


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


def linear_bce_grads(
    params: LinearParams, X: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray | float]]:
    loss, dz = _bce_term(expit(params.logits(X)), y)
    return loss, {"w": X.T @ dz, "b": float(dz.sum())}


def linear_train(data: Dataset, epochs: int, seed: int, lr: float = 0.01) -> LinearParams:
    """Full-batch Adam fit of a logistic regression; deterministic per seed."""
    if data.sensitive_col is None:
        raise ValueError("dataset must track its sensitive column for a linear model")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    params = linear_init(data.n_features, data.sensitive_col, seed)
    state = adam_init(params)
    y = data.labels.astype(np.float64)
    for _ in range(epochs):
        _, grads = linear_bce_grads(params, data.features, y)
        params, state = adam_step(state, params, grads, lr)
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
