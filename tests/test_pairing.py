import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist, pdist

from oracles import nearest_cross_cdist
import procfair
from procfair import pairing
from procfair.data import Dataset
from procfair.pairing import PairSet, build_pairs, select_eval_pairs
from procfair.util import euclidean


def _pairs_as_set(ps: PairSet):
    return set(zip(ps.idx1.tolist(), ps.idx2.tolist()))


def test_build_pairs_hand_example(toy_pair_dataset):
    # group 1 rows {0: [0], 1: [10]}, group 0 rows {2: [1], 3: [9]}
    ps = build_pairs(toy_pair_dataset)
    assert _pairs_as_set(ps) == {(0, 2), (1, 3)}
    np.testing.assert_allclose(sorted(ps.distances), [1.0, 1.0])


def test_build_pairs_mirrored_groups_zero_distance():
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])
    ds = Dataset(
        features=feats,
        labels=np.array([0, 1, 0, 1]),
        group=np.array([1, 1, 0, 0]),
        feature_names=("a", "b"),
    )
    ps = build_pairs(ds)
    assert (ps.distances == 0.0).all()


def test_build_pairs_singleton_group():
    ds = Dataset(
        features=np.array([[0.0], [1.0], [2.0], [3.0]]),
        labels=np.zeros(4, dtype=int),
        group=np.array([1, 0, 0, 0]),
        feature_names=("f",),
    )
    ps = build_pairs(ds)
    # every group-0 row maps to the single group-1 row; forward sweep adds (0, 1)
    assert _pairs_as_set(ps) == {(0, 1), (0, 2), (0, 3)}


def test_build_pairs_count_bounds_and_dedup(synth65_small):
    ps = build_pairs(synth65_small)
    n1 = int((synth65_small.group == 1).sum())
    n2 = int((synth65_small.group == 0).sum())
    assert max(n1, n2) <= len(ps) <= n1 + n2
    assert len(_pairs_as_set(ps)) == len(ps)  # no duplicates
    # referenced rows carry the declared group tags
    assert (synth65_small.group[ps.idx1] == 1).all()
    assert (synth65_small.group[ps.idx2] == 0).all()


def test_build_pairs_excludes_sensitive_column_from_distance(synth65_small):
    ps = build_pairs(synth65_small)
    cols = [j for j in range(synth65_small.n_features) if j != synth65_small.sensitive_col]
    a = synth65_small.features[np.ix_(ps.idx1, cols)]
    b = synth65_small.features[np.ix_(ps.idx2, cols)]
    recomputed = np.sqrt(((a - b) ** 2).sum(axis=1))
    np.testing.assert_allclose(ps.distances, recomputed, atol=1e-12)


def test_build_pairs_empty_group_errors():
    ds = Dataset(
        features=np.zeros((3, 1)),
        labels=np.zeros(3, dtype=int),
        group=np.ones(3, dtype=np.int8),
        feature_names=("f",),
    )
    with pytest.raises(ValueError, match="both groups"):
        build_pairs(ds)


def test_build_pairs_row_order_invariance(synth65_small):
    ps = build_pairs(synth65_small)
    rng = np.random.default_rng(5)
    perm = rng.permutation(synth65_small.n_rows)
    shuffled = synth65_small.subset(perm)
    ps2 = build_pairs(shuffled)
    # map shuffled indices back to original row identities
    back = {(perm[i], perm[j]) for i, j in zip(ps2.idx1.tolist(), ps2.idx2.tolist())}
    assert back == _pairs_as_set(ps)


def test_select_eval_pairs_tie_break_by_index(toy_pair_dataset):
    ps = select_eval_pairs(toy_pair_dataset, 1)
    # (0, 2) and (1, 3) both sit at distance 1; the lower index wins
    assert _pairs_as_set(ps) == {(0, 2)}
    assert not ps.exhausted


def test_select_eval_pairs_exhaustive_equals_build(synth65_small):
    base = build_pairs(synth65_small)
    ps = select_eval_pairs(synth65_small, len(base))
    assert _pairs_as_set(ps) == _pairs_as_set(base)
    assert not ps.exhausted


def test_select_eval_pairs_exhausted_flag(toy_pair_dataset):
    ps = select_eval_pairs(toy_pair_dataset, 50)
    assert len(ps) == 2
    assert ps.exhausted


def test_select_eval_pairs_smallest_distances(synth65_small):
    base = build_pairs(synth65_small)
    ps = select_eval_pairs(synth65_small, 100)
    assert len(ps) == 100
    cutoff = np.sort(base.distances)[99]
    assert ps.distances.max() <= cutoff


def test_pairset_validation():
    with pytest.raises(ValueError, match="align"):
        PairSet(idx1=np.array([0, 1]), idx2=np.array([2]), distances=np.array([0.0]))


@st.composite
def _two_group_datasets(draw, tie_free=False):
    """Both groups non-empty; features drawn by hypothesis (ties likely) or,
    with tie_free, from a seeded normal (ties have probability zero)."""
    n1, n2 = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    if tie_free:
        feats = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n1 + n2, d))
    else:
        feats = draw(arrays(np.float64, (n1 + n2, d),
                            elements=st.floats(-10, 10, allow_nan=False, allow_subnormal=False)))
    sensitive = None if d == 1 else draw(st.one_of(st.none(), st.integers(0, d - 1)))
    return Dataset(
        features=feats,
        labels=np.zeros(n1 + n2, dtype=int),
        group=np.array(draw(st.permutations([1] * n1 + [0] * n2))),
        feature_names=tuple(f"f{j}" for j in range(d)),
        sensitive_col=sensitive,
    )


@settings(max_examples=60, deadline=None)
@given(_two_group_datasets())
def test_build_pairs_property_count_bounds_and_cross_group(ds):
    ps = build_pairs(ds)
    n1, n2 = int((ds.group == 1).sum()), int((ds.group == 0).sum())
    assert max(n1, n2) <= len(ps) <= n1 + n2
    assert (ds.group[ps.idx1] == 1).all() and (ds.group[ps.idx2] == 0).all()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_build_pairs_property_row_permutation_invariant(data):
    ds = data.draw(_two_group_datasets(tie_free=True))
    perm = np.array(data.draw(st.permutations(range(ds.n_rows))))
    ps = build_pairs(ds)
    pp = build_pairs(ds.subset(perm))  # permuted row r is original row perm[r]
    original = dict(zip(zip(ps.idx1.tolist(), ps.idx2.tolist()), ps.distances))
    mapped = dict(zip(zip(perm[pp.idx1].tolist(), perm[pp.idx2].tolist()), pp.distances))
    assert mapped.keys() == original.keys()
    for key, dist in original.items():
        assert mapped[key] == pytest.approx(dist, rel=1e-12, abs=1e-12)


def _two_groups(feats: np.ndarray, n1: int, sensitive_col=None) -> Dataset:
    n = feats.shape[0]
    return Dataset(
        features=feats,
        labels=np.zeros(n, dtype=int),
        group=np.r_[np.ones(n1, dtype=int), np.zeros(n - n1, dtype=int)],
        feature_names=tuple(f"f{j}" for j in range(feats.shape[1])),
        sensitive_col=sensitive_col,
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n1=st.integers(1, 300),
    n2=st.integers(1, 300),
    d=st.sampled_from([1, 2, 3, 8, 13, 20]),
    levels=st.integers(1, 6),
    scale=st.sampled_from([1.0, 0.1, 1e-3]),
    dup_share=st.floats(0.0, 0.9),
    offset=st.sampled_from([0.0, 1e3, -1e6]),
    last_bits=st.booleans(),
)
def test_nearest_search_matches_cdist_oracle(seed, n1, n2, d, levels, scale, dup_share,
                                             offset, last_bits):
    # Integer-valued features on a small grid make many equal distances and
    # equal rows; a scale of 0.1 makes equal distances round differently.
    # A common offset makes the screen's |b|^2 - 2a.b cancel, and rows one
    # or two ulps apart have distances that differ in their last bits only.
    rng = np.random.default_rng(seed)
    feats = rng.integers(-levels, levels + 1, size=(n1 + n2, d)) * scale + offset
    dup = rng.random(n1 + n2) < dup_share
    feats[dup] = feats[rng.integers(0, n1 + n2, size=int(dup.sum()))]
    if last_bits:
        feats += rng.integers(0, 3, size=feats.shape) * np.spacing(feats)
    a, b = feats[:n1], feats[n1:]
    for x, y in ((a, b), (b, a)):
        got, want = pairing._nearest_cross(x, y), nearest_cross_cdist(x, y)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    ds = _two_groups(feats, n1)
    with mock.patch.object(pairing, "_nearest_cross", nearest_cross_cdist):
        want = build_pairs(ds)
    got = build_pairs(ds)
    for field in ("idx1", "idx2", "distances"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("d", range(1, 21))
def test_euclidean_equals_cdist_and_pdist_bit_for_bit(d):
    # Duplicated rows, a large common offset and last-bit perturbations, as
    # in the search oracle above: scipy stays the reference.
    rng = np.random.default_rng(d)
    for offset in (0.0, 1e3, -1e6):
        x = rng.normal(size=(40, d)) + offset
        y = rng.normal(size=(30, d)) + offset
        y[:10] = x[rng.integers(0, 40, size=10)]
        y[10:20] = x[:10] + rng.integers(0, 3, size=(10, d)) * np.spacing(x[:10])
        ix, iy = np.indices((40, 30)).reshape(2, -1)
        assert np.array_equal(euclidean(x, y, ix, iy).reshape(40, 30), cdist(x, y))
        pooled = np.vstack([x, y])
        rows, cols = np.triu_indices(70, 1)
        assert np.array_equal(euclidean(pooled, pooled, rows, cols), pdist(pooled))


def test_build_pairs_with_no_pairing_columns_pairs_at_distance_zero():
    # The only feature is the sensitive column, so every cross-group distance
    # is 0 and each row pairs with the other group's lowest index.
    group = np.array([1, 0, 1, 1, 0, 0, 1])
    ds = Dataset(features=group[:, None], labels=np.zeros(7, dtype=int), group=group,
                 feature_names=("s",), sensitive_col=0)
    ps = build_pairs(ds)
    assert _pairs_as_set(ps) == {(0, 1), (2, 1), (3, 1), (6, 1), (0, 4), (0, 5)}
    assert (ps.distances == 0.0).all()
    nn, dd = pairing._nearest_cross(np.empty((300, 0)), np.empty((5, 0)))
    assert (nn == 0).all() and (dd == 0.0).all()


def _search_counting_exact_pairs(a, b):
    """_nearest_cross(a, b) and the number of (row, column) pairs whose
    exact distance it computed."""
    counted = []

    def counting(x, y, ix, iy):
        counted.append(len(ix))
        return euclidean(x, y, ix, iy)

    with mock.patch.object(pairing, "euclidean", counting):
        return pairing._nearest_cross(a, b), sum(counted)


def _assert_equals_cdist_oracle(got, a, b):
    want = nearest_cross_cdist(a, b)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


@pytest.mark.gate
@pytest.mark.parametrize("scale", [1e18, 1e19, 3e38, 1e39, 1e150])
def test_float32_screen_near_overflow(scale):
    # At 1e18 every float32 value of the screen is finite; from 1e19 on,
    # (2 (|a| + T))^2 overflows float32 (from 3e38 on -2a does too, and from
    # 1e39 the coordinates themselves), so every row keeps every column and
    # the float64 distances alone decide.
    rng = np.random.default_rng(int(np.log10(scale)))
    a = rng.uniform(-1.0, 1.0, size=(150, 3)) * scale
    b = rng.uniform(-1.0, 1.0, size=(90, 3)) * scale
    b[:5] = a[:5]
    for x, y in ((a, b), (b, a)):
        got, exact_pairs = _search_counting_exact_pairs(x, y)
        _assert_equals_cdist_oracle(got, x, y)
        if scale >= 1e19:
            assert exact_pairs == x.shape[0] * y.shape[0]
        else:
            assert exact_pairs < x.shape[0] * y.shape[0] / 10


@pytest.mark.gate
@pytest.mark.parametrize("scale", [1e-19, 1e-23, 1e-40, 1e-160, 1e-310])
def test_float32_screen_subnormal_distances(scale):
    # Squared distances subnormal in float32 (1e-19 and below), coordinates
    # that underflow float32 (1e-40 and below), and distances subnormal in
    # float64 (1e-310): the screen keeps what it cannot resolve, and the
    # result is still cdist's.
    rng = np.random.default_rng(7)
    a = rng.integers(-3, 4, size=(200, 4)) * scale
    b = rng.integers(-3, 4, size=(170, 4)) * scale
    b[::3] += rng.integers(0, 2, size=b[::3].shape) * np.spacing(b[::3])
    for x, y in ((a, b), (b, a)):
        _assert_equals_cdist_oracle(pairing._nearest_cross(x, y), x, y)


@pytest.mark.gate
@pytest.mark.parametrize("offset", [0.0, 1e3, -1e6])
def test_float32_screen_exact_ties_take_the_lowest_index(offset):
    # Each row of a sits at the centre of a diamond of b rows, all at
    # distance 1 (or equal after rounding at the offset), and b repeats
    # itself: the lowest index of the nearest rows wins.
    rng = np.random.default_rng(3)
    centres = rng.integers(-50, 50, size=(300, 2)) * 4.0 + offset
    steps = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    b = (centres[:, None, :] + steps[rng.permutation(4)]).reshape(-1, 2)
    b = np.vstack([b, b[::-1]])
    nn, dd = pairing._nearest_cross(centres, b)
    _assert_equals_cdist_oracle((nn, dd), centres, b)
    ties = cdist(centres, b) == dd[:, None]
    assert (ties.sum(axis=1) >= 2).all() and (nn == ties.argmax(axis=1)).all()


_SEARCH_BYTES = """
import hashlib, sys
import numpy as np
from procfair.pairing import _nearest_cross
rng = np.random.default_rng(11)
a = rng.normal(size=(3000, 13)) + 1e3
b = rng.normal(size=(5000, 13)) + 1e3
b[:500] = a[:500]
h = hashlib.sha256()
for x, y in ((a, b), (b, a)):
    nn, dd = _nearest_cross(x, y)
    h.update(nn.tobytes()); h.update(dd.tobytes())
print(h.hexdigest())
"""


@pytest.mark.gate
def test_nearest_cross_bytes_independent_of_blas_threads():
    # The float32 screen's values may round differently when BLAS splits the
    # GEMM over threads; its proven margin must keep the result the same.
    src = str(Path(procfair.__file__).resolve().parents[1])
    digests = set()
    for threads in (1, 2, 4):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _SEARCH_BYTES], env=env, check=True,
                              capture_output=True, text=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_build_pairs_memory_is_bounded_by_one_block():
    # The float32 screen block sets the working set: 128 rows x 3,000
    # columns x 4 B. The exact distances cover only the kept pairs, about
    # one per row.
    rng = np.random.default_rng(0)
    ds = _two_groups(rng.normal(size=(4500, 14)), 3000, sensitive_col=13)
    tracemalloc.start()
    try:
        build_pairs(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 128 * 3000 * 4 + 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_pairs_rejects_non_finite_features(bad):
    feats = np.random.default_rng(1).normal(size=(6, 3))
    feats[4, 1] = bad
    with pytest.raises(ValueError, match="pairing features must be finite"):
        build_pairs(_two_groups(feats, 3))
