import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import argsort_splits, mmd_kernel_pdist, per_call_pvalue, random_mlp
from procfair import fairness, util
from procfair.data import Dataset
from procfair.explain import kernel_shap_batch
from procfair.fairness import (
    EvalSet,
    FairnessReport,
    MmdConfig,
    _permutation_splits,
    demographic_parity,
    disparate_impact,
    equal_opportunity,
    equalized_odds,
    gpf_fae,
    gpf_loss,
    mmd_permutation_pvalue,
)
from procfair.model import LinearParams
from procfair.pairing import PairSet
from procfair.util import WORKERS, euclidean


def test_demographic_parity_hand_counts():
    assert demographic_parity([1, 1, 0, 0], [1, 1, 0, 0]) == 1.0
    assert demographic_parity([1, 0, 1, 0], [1, 1, 0, 0]) == 0.0
    # rates 0.65 / 0.35 over 20-row groups
    preds = [1] * 13 + [0] * 7 + [1] * 7 + [0] * 13
    groups = [1] * 20 + [0] * 20
    assert demographic_parity(preds, groups) == pytest.approx(0.30, abs=1e-12)
    with pytest.raises(ValueError):
        demographic_parity([1, 0], [1, 1])


def test_disparate_impact():
    # rates 0.4 / 0.5: the four-fifths boundary
    preds = [1, 1, 0, 0, 0] + [1, 1, 1, 0, 0, 0]
    groups = [1] * 5 + [0] * 6
    assert disparate_impact(preds, groups) == pytest.approx(0.8, abs=1e-12)
    assert disparate_impact([1, 0, 1, 0], [1, 1, 0, 0]) == 1.0
    assert disparate_impact([1, 1, 0, 0], [1, 1, 0, 0]) is None


def test_di_reciprocal_and_dp_symmetry():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 2, 50)
    groups = rng.integers(0, 2, 50)
    flipped = 1 - groups
    assert demographic_parity(preds, groups) == demographic_parity(preds, flipped)
    di = disparate_impact(preds, groups)
    di_flip = disparate_impact(preds, flipped)
    if di and di_flip:
        assert di == pytest.approx(1.0 / di_flip, rel=1e-12)


def test_metrics_invariant_under_joint_permutation():
    rng = np.random.default_rng(1)
    preds = rng.integers(0, 2, 60)
    labels = rng.integers(0, 2, 60)
    groups = np.array([1] * 30 + [0] * 30)
    perm = rng.permutation(60)
    assert demographic_parity(preds, groups) == demographic_parity(preds[perm], groups[perm])
    assert equal_opportunity(preds, labels, groups) == equal_opportunity(
        preds[perm], labels[perm], groups[perm]
    )
    assert equalized_odds(preds, labels, groups) == equalized_odds(
        preds[perm], labels[perm], groups[perm]
    )


def test_equal_opportunity_and_odds_hand_counts():
    labels = np.array([1, 1, 0, 0, 1, 1, 0, 0])
    groups = np.array([1, 1, 1, 1, 0, 0, 0, 0])
    perfect = labels.copy()
    assert equal_opportunity(perfect, labels, groups) == 0.0
    assert equalized_odds(perfect, labels, groups) == 0.0

    # TPRs 1.0 vs 0.5, FPRs equal (0)
    preds = np.array([1, 1, 0, 0, 1, 0, 0, 0])
    assert equal_opportunity(preds, labels, groups) == 0.5
    assert equalized_odds(preds, labels, groups) == 0.5

    # TPRs equal, FPRs 1.0 vs 0.0 -> EOP 0, EOD 1.0
    preds2 = np.array([1, 1, 1, 1, 1, 1, 0, 0])
    assert equal_opportunity(preds2, labels, groups) == 0.0
    assert equalized_odds(preds2, labels, groups) == 1.0

    # a group with no positives makes EOP undefined
    labels3 = np.array([0, 0, 0, 0, 1, 1, 0, 0])
    assert equal_opportunity(preds, labels3, groups) is None
    assert equalized_odds(preds, labels3, groups) is None

    # a group with positives but no negatives: EOP defined, EOD undefined
    labels4 = np.array([1, 1, 1, 1, 1, 0, 0, 0])
    assert equal_opportunity(preds, labels4, groups) == 0.5
    assert equalized_odds(preds, labels4, groups) is None


def test_gpf_loss_values():
    assert gpf_loss(np.ones((4, 3)), np.ones((4, 3))) == 0.0
    e1 = np.array([[1.0, 2.0], [0.0, 0.0]])
    e2 = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert gpf_loss(e1, e2) == pytest.approx(0.5, abs=1e-15)
    c = -3.7
    assert gpf_loss(c * e1, c * e2) == pytest.approx(abs(c) * 0.5, rel=1e-12)
    with pytest.raises(ValueError, match="shape"):
        gpf_loss(np.ones((2, 2)), np.ones((3, 2)))


def test_mmd_identical_multisets_is_zero():
    rng = np.random.default_rng(3)
    e = rng.normal(size=(20, 4))
    assert mmd_permutation_pvalue(e, e.copy(), MmdConfig())[1] <= 1e-12


def test_mmd_singleton_closed_form():
    a = np.array([[0.0, 0.0]])
    b = np.array([[3.0, 4.0]])  # distance 5
    cfg = MmdConfig(bandwidth=5.0, n_permutations=100)
    observed = mmd_permutation_pvalue(a, b, cfg)[1]
    assert observed == pytest.approx(2.0 - 2.0 * np.exp(-1.0), abs=1e-12)
    # gaussian kernel variant: exp(-r^2 / (2 sigma^2)) with r = sigma
    cfg_g = MmdConfig(kernel="gaussian", bandwidth=5.0, n_permutations=100)
    observed = mmd_permutation_pvalue(a, b, cfg_g)[1]
    assert observed == pytest.approx(2.0 - 2.0 * np.exp(-0.5), abs=1e-12)


def test_mmd_symmetry_and_within_set_permutation_invariance():
    rng = np.random.default_rng(4)
    e1 = rng.normal(size=(15, 3))
    e2 = rng.normal(size=(11, 3)) + 0.5
    cfg = MmdConfig(bandwidth=2.0)
    observed = mmd_permutation_pvalue(e1, e2, cfg)[1]
    assert observed == pytest.approx(mmd_permutation_pvalue(e2, e1, cfg)[1], abs=1e-15)
    perm = rng.permutation(15)
    assert mmd_permutation_pvalue(e1[perm], e2, cfg)[1] == pytest.approx(observed, abs=1e-12)


def test_mmd_shrinks_for_same_distribution_samples():
    rng = np.random.default_rng(5)
    vals = {}
    for n in (40, 400):
        e1 = rng.normal(size=(n, 3))
        e2 = rng.normal(size=(n, 3))
        vals[n] = mmd_permutation_pvalue(e1, e2, MmdConfig(bandwidth=2.0))[1]
    assert vals[400] < vals[40]


def test_mmd_all_identical_points():
    e = np.ones((6, 2))
    assert mmd_permutation_pvalue(e, np.ones((4, 2)), MmdConfig())[1] == 0.0


def test_permutation_pvalue_identical_sets_exactly_one():
    rng = np.random.default_rng(6)
    e = rng.normal(size=(30, 3))
    p, obs = mmd_permutation_pvalue(e, e.copy(), MmdConfig(n_permutations=200, seed=1))
    assert p == 1.0
    assert obs == 0.0


def test_permutation_pvalue_all_identical_points_early_return():
    cfg = MmdConfig(n_permutations=100, seed=4)
    assert mmd_permutation_pvalue(np.ones((7, 2)), np.ones((3, 2)), cfg) == (1.0, 0.0)


@pytest.mark.parametrize("n_perm", [1000, 300])
@pytest.mark.parametrize("n, m", [(100, 100), (20, 20), (37, 120), (150, 40), (1, 5)])
def test_permutation_splits_match_argsort_draw(n, m, n_perm):
    for seed in range(5):
        plan = _permutation_splits.__wrapped__(seed, n, m, n_perm)
        oracle = argsort_splits(seed, n, m, n_perm)
        assert len(plan) == len(oracle)
        for U, O in zip(plan, oracle):
            assert U.dtype == bool and U.shape == O.shape and U.shape[0] <= 256
            np.testing.assert_array_equal(U, O == 1.0)


@pytest.mark.parametrize("kernel", ["exponential", "gaussian"])
def test_permutation_pvalue_bit_identical_to_per_call_draw(kernel):
    rng = np.random.default_rng(11)
    for n, m, n_perm, shift in ((40, 25, 300, 0.0), (13, 50, 1000, 0.4), (60, 61, 257, 0.2)):
        e1 = rng.normal(size=(n, 3)) + shift
        e2 = rng.normal(size=(m, 3))
        cfg = MmdConfig(kernel=kernel, n_permutations=n_perm, seed=int(rng.integers(1000)))
        assert mmd_permutation_pvalue(e1, e2, cfg) == per_call_pvalue(e1, e2, cfg)


@pytest.mark.parametrize("kernel", ["exponential", "gaussian"])
def test_mmd_kernel_and_bandwidth_match_pdist_oracle(kernel):
    # Odd and even pair counts for the median, d up to 20, duplicated rows,
    # a large common offset and last-bit perturbations; scipy stays the
    # reference.
    rng = np.random.default_rng(13)
    for n, m, d, offset in ((100, 100, 3, 0.0), (100, 100, 14, 1e3), (1, 2, 1, 0.0),
                            (37, 12, 20, -1e6), (5, 4, 2, 0.0)):
        e1 = rng.normal(size=(n, d)) + offset
        e2 = rng.normal(size=(m, d)) + offset
        e2[: m // 2] = e1[rng.integers(0, n, size=m // 2)]
        e2[m // 2 :] += rng.integers(0, 3, size=e2[m // 2 :].shape) * np.spacing(e2[m // 2 :])
        for bandwidth in (1.5, None):
            cfg = MmdConfig(kernel=kernel, bandwidth=bandwidth)
            K, sigma = mmd_kernel_pdist(e1, e2, cfg)
            assert np.array_equal(fairness._mmd_setup(e1, e2, cfg)[0], K)
        pooled = np.vstack([e1, e2])
        rows, cols, _, _ = fairness._upper_triangle(n + m)
        assert fairness._median(euclidean(pooled, pooled, rows, cols)) == sigma
    assert mmd_kernel_pdist(np.ones((3, 2)), np.ones((2, 2)), cfg) is None
    assert fairness._mmd_setup(np.ones((3, 2)), np.ones((2, 2)), cfg) is None


def test_median_equals_numpy_median():
    rng = np.random.default_rng(14)
    for size in (1, 2, 3, 10, 19900, 19901):
        x = rng.normal(size=size)
        for v in (x, np.round(x, 1), np.abs(x)):
            assert fairness._median(v) == np.median(v)
    assert np.isnan(fairness._median(np.array([1.0, np.nan, 2.0])))


def test_permutation_plan_cached_per_seed_and_read_only():
    rng = np.random.default_rng(12)
    e1, e2 = rng.normal(size=(30, 2)), rng.normal(size=(45, 2)) + 0.3
    cfg = MmdConfig(n_permutations=300, seed=5)
    _permutation_splits.cache_clear()
    first = mmd_permutation_pvalue(e1, e2, cfg)
    plan = _permutation_splits(5, 30, 45, 300)
    assert mmd_permutation_pvalue(e1, e2, cfg) == first == per_call_pvalue(e1, e2, cfg)
    info = _permutation_splits.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert _permutation_splits(5, 30, 45, 300) is plan
    with pytest.raises(ValueError):
        plan[0][0, 0] = not plan[0][0, 0]
    other = MmdConfig(n_permutations=300, seed=6)
    cached_then_new = mmd_permutation_pvalue(e1, e2, other)
    for seed in range(7, 6 + WORKERS):  # WORKERS + 1 seeds drawn in all
        mmd_permutation_pvalue(e1, e2, MmdConfig(n_permutations=300, seed=seed))
    # one plan held per worker, not one per seed: seed 5's plan was evicted
    assert _permutation_splits.cache_info().currsize == WORKERS
    assert _permutation_splits(5, 30, 45, 300) is not plan
    _permutation_splits.cache_clear()
    assert cached_then_new == mmd_permutation_pvalue(e1, e2, other)
    assert cached_then_new == per_call_pvalue(e1, e2, other)


def test_permutation_pvalue_range_and_power():
    rng = np.random.default_rng(7)
    e1 = rng.normal(size=(40, 3))
    e2 = rng.normal(size=(40, 3)) + 4.0  # far-separated
    cfg = MmdConfig(n_permutations=400, seed=2)
    p, _ = mmd_permutation_pvalue(e1, e2, cfg)
    assert p == pytest.approx(1.0 / 401.0)
    p_null, _ = mmd_permutation_pvalue(e1, rng.normal(size=(40, 3)), cfg)
    assert 1.0 / 401.0 <= p_null <= 1.0


def test_permutation_pvalue_monotone_in_separation():
    rng = np.random.default_rng(8)
    base1 = rng.normal(size=(30, 3))
    base2 = rng.normal(size=(30, 3))
    cfg = MmdConfig(bandwidth=2.0, n_permutations=300, seed=3)
    ps = []
    for shift in (0.0, 0.8, 2.5):
        p, _ = mmd_permutation_pvalue(base1 + shift, base2, cfg)
        ps.append(p)
    assert ps[0] >= ps[1] >= ps[2]


def test_mmd_config_validation():
    with pytest.raises(ValueError, match="kernel"):
        MmdConfig(kernel="cubic")
    with pytest.raises(ValueError, match="bandwidth"):
        MmdConfig(bandwidth=0.0)
    with pytest.raises(ValueError, match="bandwidth must be finite"):
        MmdConfig(bandwidth=float("inf"))  # an all-ones kernel
    with pytest.raises(ValueError, match="n_permutations"):
        MmdConfig(n_permutations=10)


def test_fairness_report_round_trip(tmp_path):
    rep = FairnessReport(
        accuracy=0.9, dp=0.1, di=None, eop=0.05, eod=0.07,
        gpf_fae=0.5, gpf_loss=0.2, train_seconds=1.0, eval_seconds=0.5,
        di_reason="no positive predictions in disadvantaged group",
    )
    path = tmp_path / "r.json"
    rep.to_json(path, config_hash="h")
    import json

    obj = json.loads(path.read_text())
    assert obj["di"] is None and obj["di_reason"].startswith("no positive")
    assert obj == {"config_hash": "h", **rep.to_dict()}
    assert list(obj) == ["config_hash", *rep.to_dict()]


@st.composite
def _explanation_pair(draw):
    d = draw(st.integers(1, 4))
    cells = st.floats(-100, 100, allow_nan=False, allow_subnormal=False)
    return tuple(draw(arrays(np.float64, (draw(st.integers(1, 15)), d), elements=cells))
                 for _ in range(2))


@settings(max_examples=80, deadline=None)
@given(_explanation_pair())
def test_mmd_property_symmetric_and_zero_on_itself(pair):
    a, b = pair
    cfg = MmdConfig()
    observed = mmd_permutation_pvalue(a, b, cfg)[1]
    assert observed == pytest.approx(mmd_permutation_pvalue(b, a, cfg)[1], rel=1e-9, abs=1e-9)
    assert mmd_permutation_pvalue(a, a, cfg)[1] == 0.0
    assert observed >= 0.0


@pytest.mark.parametrize("model,d,n,rtol", [
    ("linear", 3, 100, 0.0),  # exhaustive coalitions
    ("mlp", 14, 20, 0.0),  # 2048 sampled coalitions, blocks on 3 threads
    ("mlp", 14, 37, 1e-14),  # 74 rows: the gemv remainder rows of explain._coalition_values
])
def test_gpf_fae_tests_the_attributions_of_one_call_per_side(monkeypatch, model, d, n, rtol):
    # gpf_fae explains X'1 and X'2 in one KernelSHAP call; the sets it tests
    # equal one call per side with the MMD seed
    monkeypatch.setattr(util, "WORKERS", 3)
    rng = np.random.default_rng(d + n)
    if model == "linear":
        params = LinearParams(w=rng.normal(size=d), b=0.3, sensitive_index=d - 1)
    else:
        params = random_mlp(rng, d, 8)
    features = rng.normal(size=(3 * n, d))
    pairs = PairSet(idx1=rng.permutation(3 * n)[:n], idx2=rng.integers(0, 3 * n, n),
                    distances=np.zeros(n))
    background = rng.normal(size=(100, d))
    cfg = MmdConfig(n_permutations=100, seed=20250)
    tested, calls = [], []

    def spy(e1, e2, c):
        tested.append((e1, e2))
        return mmd_permutation_pvalue(e1, e2, c)

    def counted(predict, X, *args, **kwargs):
        calls.append(len(X))
        return kernel_shap_batch(predict, X, *args, **kwargs)

    monkeypatch.setattr(fairness, "mmd_permutation_pvalue", spy)
    monkeypatch.setattr(fairness, "kernel_shap_batch", counted)
    test = Dataset(features, labels=np.zeros(3 * n), group=np.zeros(3 * n),
                   feature_names=tuple(f"x{i}" for i in range(d)))
    gpf_fae(params, EvalSet(test, pairs, background, cfg))
    assert calls == [2 * n] and len(tested) == 1
    for got, idx in zip(tested[0], (pairs.idx1, pairs.idx2)):
        want, _ = kernel_shap_batch(params.logits, features[idx], background, seed=cfg.seed)
        if rtol == 0.0:
            assert got.tobytes() == want.tobytes()
        else:  # relative to the largest attribution
            assert np.abs(got - want).max() <= rtol * np.abs(want).max()
