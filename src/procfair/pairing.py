"""Cross-group nearest-neighbor pairing.

Pairs feed both the training-time attribution-gap loss (all rows, both
sweep directions, deduplicated) and the evaluation metric (the n closest
matches).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset

_CHUNK = 128  # rows of a per cdist block: one block is _CHUNK x len(b) x 8 B


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

    Brute force in chunks; argmin breaks ties at the lowest index.
    """
    nn = np.empty(a.shape[0], dtype=np.int64)
    dd = np.empty(a.shape[0], dtype=np.float64)
    for s in range(0, a.shape[0], _CHUNK):
        d = cdist(a[s : s + _CHUNK], b)
        j = d.argmin(axis=1)
        nn[s : s + _CHUNK] = j
        dd[s : s + _CHUNK] = d[np.arange(j.shape[0]), j]
    return nn, dd


def build_pairs(data: Dataset) -> PairSet:
    """Pair every row with its nearest cross-group neighbor, in both sweep
    directions, and deduplicate.

    The pair count k lands in [max(|X1|, |X2|), |X1| + |X2|].
    """
    ia = data.indices(1)
    ib = data.indices(0)
    if ia.size == 0 or ib.size == 0:
        raise ValueError("both groups must be non-empty to build pairs")
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
    """The n smallest-distance pairs among all mutual nearest matches.

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
