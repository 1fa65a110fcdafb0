"""Cross-group nearest-neighbor pairing.

Pairs feed both the training-time attribution-gap loss (all rows, both
sweep directions, deduplicated) and the evaluation metric (the n closest
matches).

The neighbour search has one path for every dimension: a GEMM screen keeps
each row's candidates within a proven rounding bound of its screened
minimum, and exact distances of the kept (row, candidate) pairs alone
resolve them, so indices and distances equal the argmin of full cdist
rows, ties at the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .fairness import _advantaged
from .util import euclidean

_CHUNK = 128  # rows of a per screen block: one block is _CHUNK x len(b) x 8 B
_EPS = np.finfo(np.float64).eps  # 2u, twice the unit roundoff
_TINY = np.finfo(np.float64).smallest_subnormal  # the spacing of subnormals


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
    for bit. Per block of _CHUNK rows, one GEMM of [-2a, 1] against
    [b, |b|^2] screens q_ij = |b_j|^2 - 2 a_i.b_j, which is the squared
    distance less |a_i|^2. Every column with q_ij <= min_j q_ij + m_i is
    kept, and util.euclidean over the kept (row, column) pairs alone gives
    the exact distances: each row takes its smallest, ties at the lowest
    column.

    The margin is a proven bound. With u the unit roundoff,
    gamma_n = n u / (1 - n u) and T = max_j |b_j|, for any summation order
    and any use of FMA (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 3.1):
      - the computed |b|^2 is within gamma_d |b|^2, and the screened
        q within gamma_{2d+1} (|a| + T)^2 of the exact q;
      - the rounded distance c of util.euclidean (d differences, squares
        and sums, one square root, as in cdist) has c^2 = D (1 + t),
        |t| <= gamma_{d+4}, D the exact squared distance, and
        D <= (|a| + T)^2;
    so a column whose computed distance is at most that of the screened
    argmin has q within (2 gamma_{2d+1} + 2 gamma_{d+4} / (1 - gamma_{d+4}))
    (|a| + T)^2 of the screened minimum, and adding the margin rounds by
    at most 2u (|a| + T)^2 more: 6 (d + 2) u (1 + O(d u)) (|a| + T)^2 in
    all. m = 2 (d + 2) eps (2 (|a| + T))^2, eps = 2u, is 16 (d + 2) u
    (|a| + T)^2 and covers it; 16 (d + 2) times the subnormal spacing
    covers the absolute error of underflowing products. Since the bound
    holds for any order, the result does not depend on the BLAS thread
    count. If (2 (|a| + T))^2 overflows, the margin is infinite and the
    row keeps every column: the comparison keeps NaN screen values too.
    """
    nn = np.empty(a.shape[0], dtype=np.int64)
    dd = np.empty(a.shape[0], dtype=np.float64)
    d = a.shape[1]
    bn = np.einsum("ij,ij->i", b, b)
    bq = np.column_stack([b, bn]).T  # (d + 1) x len(b)
    a2 = np.column_stack([-2.0 * a, np.ones(a.shape[0])])  # scaling by -2 is exact
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    t = np.sqrt(bn.max())
    margin = (2 * (d + 2) * _EPS) * (2.0 * (na + t)) ** 2 + 16 * (d + 2) * _TINY
    for s in range(0, a.shape[0], _CHUNK):
        q = a2[s : s + _CHUNK] @ bq
        thr = q.min(axis=1) + margin[s : s + _CHUNK]
        keep = ~(q > thr[:, None])
        del q
        # keep[:, cand] holds every kept pair; its flat indices run row-major,
        # so each row's kept columns come in index order, and every row keeps
        # at least its screened minimum
        cand = np.flatnonzero(keep.any(axis=0))
        rows, pos = np.divmod(np.flatnonzero(keep[:, cand]), cand.shape[0])
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
