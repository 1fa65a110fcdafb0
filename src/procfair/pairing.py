"""Cross-group nearest-neighbor pairing.

Pairs feed both the training-time attribution-gap loss (all rows, both
sweep directions, deduplicated) and the evaluation metric (the n closest
matches).

The neighbour search has one path for every dimension: a float32 GEMM
screen keeps each row's candidates within a proven rounding bound of its
screened minimum, and exact float64 distances of the kept (row, candidate)
pairs alone resolve them, so indices and distances equal the argmin of
full cdist rows, ties at the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .fairness import _advantaged
from .util import euclidean

_CHUNK = 128  # rows of a per screen block: one block is _CHUNK x len(b) x 4 B
_EPS32 = np.finfo(np.float32).eps  # 2u, twice float32's unit roundoff
_TINY32 = np.finfo(np.float32).tiny  # float32's smallest normal number


@dataclass(frozen=True)
class PairSet:
    """Aligned cross-group pairs referenced by global row index.

    idx1 rows carry group tag 1 (advantaged), idx2 rows tag 0. distances
    are Euclidean over the non-sensitive feature columns.
    """

    idx1: np.ndarray
    idx2: np.ndarray
    distances: np.ndarray
    exhausted: bool = False

    def __post_init__(self):
        i1 = np.asarray(self.idx1, dtype=np.int64)
        i2 = np.asarray(self.idx2, dtype=np.int64)
        d = np.asarray(self.distances, dtype=np.float64)
        if not (i1.shape == i2.shape == d.shape):
            raise ValueError("pair index/distance arrays must align")
        for arr in (i1, i2, d):
            arr.setflags(write=False)
        object.__setattr__(self, "idx1", i1)
        object.__setattr__(self, "idx2", i2)
        object.__setattr__(self, "distances", d)

    def __len__(self) -> int:
        return self.idx1.shape[0]


def pair_columns(data: Dataset) -> np.ndarray:
    """Feature columns used by the similarity metric (sensitive excluded)."""
    cols = np.arange(data.n_features)
    if data.sensitive_col is not None:
        cols = cols[cols != data.sensitive_col]
    return cols


def _nearest_cross(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a: index of nearest row in b and the distance.

    Equal to the argmin of full cdist rows, ties at the lowest index, bit
    for bit. Per block of _CHUNK rows, one float32 GEMM of [-2a, 1] against
    [b, |b|^2], both rounded to float32, screens q_ij = |b_j|^2 - 2 a_i.b_j,
    which is the squared distance less |a_i|^2. Every column with
    q_ij <= min_j q_ij + m_i is kept, and util.euclidean over the kept
    (row, column) pairs alone gives the exact float64 distances: each row
    takes its smallest, ties at the lowest column.

    The margin is a proven bound. Let u = 2^-24 be float32's unit roundoff,
    gamma_n = n u / (1 - n u), T = max_j |b_j| and S = |a_i| + T, and let
    each float32 rounding, of an input or of an operation, err by at most
    u relatively plus tiny, float32's smallest normal number, absolutely
    (which also covers subnormals flushed to zero). For any summation order
    and any use of FMA (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., secs. 2.1 and 3.1), and with (d + 3) u <= 1/4:
      - rounding -2a, b and the float64 |b|^2 to float32 and the
        length-(d + 1) dot product leave the screened q within
        gamma_{d+3} (2 |a| |b| + |b|^2) <= gamma_{d+3} S^2 of the exact q.
        An absolute input error is at most tiny times the other factor,
        2 sqrt(d) tiny S in all, and tiny S <= u S^2 + tiny; the d + 1
        products and d sums add (2 d + 1) tiny. So the error is at most
        E = (2 d + 4) (u S^2 + tiny) (1 + 2 gamma_{d+3}), as
        2 sqrt(d) <= d + 1;
      - the rounded distance c of util.euclidean (float64, unit roundoff
        v = 2^-53: d differences, squares and sums, one square root, as in
        cdist) has c^2 = D (1 + t), |t| <= gamma_{d+4}(v), D the exact
        squared distance and D <= S^2, so a column whose computed distance
        is at most that of the screened argmin has an exact q at most
        2 gamma_{d+4}(v) S^2 / (1 - gamma_{d+4}(v)) <= u S^2 above it;
    so that column's screened q exceeds the screened minimum by at most
    2 E + u S^2, and adding the margin in float32 rounds by at most
    u (S^2 + E + m) + tiny more: (4 d + 10) u S^2 + (4 d + 9) tiny, times
    1 + 2 gamma_{d+3} <= 1.9, plus u m, in all. m = (d + 4) eps
    (2 (|a| + T))^2 + 16 (d + 2) tiny, eps = 2u, is (8 d + 32) u S^2 +
    16 (d + 2) tiny and covers it with the rounding of m itself, under
    5u m. Since the bound holds for any order, the result does not depend
    on the BLAS thread count.

    If (2 (|a| + T))^2 overflows float32, the margin is infinite and the
    row keeps every column: the comparison keeps NaN screen values too.
    Otherwise every input of the screen is at most 2 S or S^2, and every
    product and partial sum at most 1.01 S^2, so no other row overflows.
    """
    nn = np.empty(a.shape[0], dtype=np.int64)
    dd = np.empty(a.shape[0], dtype=np.float64)
    d = a.shape[1]
    bn = np.einsum("ij,ij->i", b, b)
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    t = np.sqrt(bn.max())
    with np.errstate(over="ignore"):  # float32 inf: the row keeps every column
        bq = np.column_stack([b, bn]).T.astype(np.float32)  # (d + 1) x len(b)
        a2 = np.column_stack([-2.0 * a, np.ones(a.shape[0])]).astype(np.float32)
        scale = ((2.0 * (na + t)) ** 2).astype(np.float32)
    margin = (d + 4) * _EPS32 * scale + 16 * (d + 2) * _TINY32
    for s in range(0, a.shape[0], _CHUNK):
        with np.errstate(over="ignore", invalid="ignore"):  # only in rows that keep every column
            q = a2[s : s + _CHUNK] @ bq
            thr = q.min(axis=1) + margin[s : s + _CHUNK]
        drop = q > thr[:, None]  # False for NaN: NaN columns are kept
        del q
        # ~drop[:, cand] holds every kept pair; its flat indices run row-major,
        # so each row's kept columns come in index order, and every row keeps
        # at least its screened minimum
        cand = np.flatnonzero(~drop.all(axis=0))
        rows, pos = np.divmod(np.flatnonzero(~drop[:, cand]), cand.shape[0])
        cols = cand[pos]
        exact = euclidean(a, b, s + rows, cols)
        block = np.arange(thr.shape[0])
        low = np.minimum.reduceat(exact, np.searchsorted(rows, block))
        hit = np.flatnonzero(exact == low[rows])
        first = hit[np.searchsorted(rows[hit], block)]
        nn[s : s + _CHUNK] = cols[first]
        dd[s : s + _CHUNK] = exact[first]
    return nn, dd


def build_pairs(data: Dataset) -> PairSet:
    """Pair every row with its nearest cross-group neighbor, in both sweep
    directions, and deduplicate.

    The pair count k lands in [max(|X1|, |X2|), |X1| + |X2|].
    """
    _advantaged(data.group)  # both groups must have rows
    ia, ib = data.indices(1), data.indices(0)
    cols = pair_columns(data)
    xa = data.features[np.ix_(ia, cols)]
    xb = data.features[np.ix_(ib, cols)]
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise ValueError("pairing features must be finite")

    j_for_a, d_a = _nearest_cross(xa, xb)
    i_for_b, d_b = _nearest_cross(xb, xa)

    left = np.concatenate([ia, ia[i_for_b]])
    right = np.concatenate([ib[j_for_a], ib])
    dist = np.concatenate([d_a, d_b])

    pairs = np.column_stack([left, right])
    uniq, first = np.unique(pairs, axis=0, return_index=True)
    return PairSet(idx1=uniq[:, 0], idx2=uniq[:, 1], distances=dist[first])


def select_eval_pairs(data: Dataset, n: int) -> PairSet:
    """The n smallest-distance pairs among build_pairs' candidates: every
    row's nearest row of the other group, from both directions, deduplicated.

    Candidates are ranked by (distance, idx1, idx2), which makes the result
    deterministic. Fewer than n candidates returns all of them with the
    exhausted flag set.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = build_pairs(data)
    order = np.lexsort((base.idx2, base.idx1, base.distances))
    take = order[:n]
    return PairSet(
        idx1=base.idx1[take],
        idx2=base.idx2[take],
        distances=base.distances[take],
        exhausted=len(base) < n,
    )
