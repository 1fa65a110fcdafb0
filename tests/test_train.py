import numpy as np
import pytest
from scipy import stats

from oracles import config_away_from_kinks, finite_diff_grads, max_rel_error, random_mlp
from procfair.data import Dataset, SyntheticConfig, generate_synthetic, split
from procfair.fairness import MmdConfig
from procfair.model import MlpParams, bce_loss_grads, gpf_loss_grads, mlp_init
from procfair.pairing import PairSet, select_eval_pairs
from procfair.train import (
    MODES,
    TrainConfig,
    _fused_epoch,
    dp_proxy_grads,
    evaluate,
    train,
)


@pytest.fixture(scope="module")
def small_splits():
    data = generate_synthetic(SyntheticConfig(p=0.65, n_points=1600, seed=8))
    return split(data, 0.8, seed=2)


def test_train_config_validation():
    with pytest.raises(ValueError, match="mode"):
        TrainConfig(mode="magic")
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="lr must be finite"):
        TrainConfig(lr=float("inf"))
    with pytest.raises(ValueError, match="alpha must be finite"):
        TrainConfig(alpha=float("nan"))
    with pytest.raises(ValueError, match="hidden"):
        TrainConfig(hidden=0)


def test_alpha_zero_matches_bce_only(small_splits):
    train_ds, _ = small_splits
    p_bce, _ = train(train_ds, TrainConfig(mode="bce_only", epochs=40, seed=5))
    p_zero, _ = train(train_ds, TrainConfig(mode="procedural", alpha=0.0, epochs=40, seed=5))
    np.testing.assert_array_equal(p_bce.W1, p_zero.W1)
    np.testing.assert_array_equal(p_bce.b1, p_zero.b1)
    np.testing.assert_array_equal(p_bce.w2, p_zero.w2)
    assert p_bce.b2 == p_zero.b2


def test_training_is_deterministic(small_splits):
    train_ds, _ = small_splits
    cfg = TrainConfig(mode="procedural", alpha=0.5, epochs=30, seed=9)
    a, ha = train(train_ds, cfg)
    b, hb = train(train_ds, cfg)
    np.testing.assert_array_equal(a.W1, b.W1)
    np.testing.assert_array_equal(ha.total, hb.total)


def test_bce_loss_decreases(small_splits):
    train_ds, _ = small_splits
    for p in (0.5, 0.65):
        data = generate_synthetic(SyntheticConfig(p=p, n_points=1200, seed=3))
        tr, _ = split(data, 0.8, seed=1)
        _, hist = train(tr, TrainConfig(mode="bce_only", epochs=120, seed=2))
        assert hist.bce[-1] < hist.bce[0]


def test_history_records_all_epochs(small_splits):
    train_ds, _ = small_splits
    cfg = TrainConfig(mode="procedural", alpha=0.5, epochs=25, seed=1)
    params, hist = train(train_ds, cfg)
    assert len(hist.total) == len(hist.bce) == len(hist.gpf) == len(hist.dp_proxy) == 25
    assert hist.seconds > 0
    np.testing.assert_allclose(hist.total, hist.bce + 0.5 * hist.gpf, atol=1e-12)


def test_single_group_data_rejected_in_regularized_modes():
    ds = Dataset(
        features=np.random.default_rng(0).normal(size=(30, 2)),
        labels=np.tile([0, 1], 15),
        group=np.ones(30, dtype=np.int8),
        feature_names=("a", "b"),
    )
    with pytest.raises(ValueError):
        train(ds, TrainConfig(mode="procedural", alpha=0.5, epochs=2))
    with pytest.raises(ValueError):
        train(ds, TrainConfig(mode="dp_regularized", beta=0.5, epochs=2))
    train(ds, TrainConfig(mode="bce_only", epochs=2))  # fine without groups


def test_dp_proxy_constant_model_zero_loss():
    params = MlpParams(W1=np.zeros((4, 2)), b1=np.zeros(4), w2=np.zeros(4), b2=0.0)
    X = np.random.default_rng(1).normal(size=(20, 2))
    group = np.tile([1, 0], 10)
    loss, grads = dp_proxy_grads(params, X, group)
    assert loss == 0.0


def test_dp_proxy_saturated_group_gap_approaches_one():
    # one input feature carrying the group: saturate the logit by group
    params = MlpParams(W1=np.array([[40.0], [-40.0]]), b1=np.zeros(2),
                       w2=np.array([40.0, -40.0]), b2=0.0)
    X = np.array([[1.0]] * 10 + [[-1.0]] * 10)
    group = np.array([1] * 10 + [0] * 10)
    loss, _ = dp_proxy_grads(params, X, group)
    assert loss > 0.999


def test_dp_proxy_single_group_errors():
    params = mlp_init(2, 3, seed=0)
    with pytest.raises(ValueError):
        dp_proxy_grads(params, np.zeros((4, 2)), np.ones(4))


def test_dp_proxy_grads_match_finite_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    checked = 0
    while checked < 20:
        params, X = config_away_from_kinks(rng, m_range=(8, 14))
        group = rng.integers(0, 2, X.shape[0])
        if group.sum() in (0, X.shape[0]):
            continue
        loss, grads = dp_proxy_grads(params, X, group)
        if loss < 1e-3:  # too near the absolute-value kink
            continue
        fd = finite_diff_grads(lambda q: dp_proxy_grads(q, X, group)[0], params)
        worst = max(worst, max_rel_error(grads, fd))
        checked += 1
    assert worst < 1e-5


@pytest.mark.parametrize(
    "mode,alpha,beta",
    [("bce_only", 0.5, 0.0), ("procedural", 0.5, 0.0), ("procedural", -0.5, 0.0),
     ("dp_regularized", 0.0, 1.0)],
)
def test_fused_epoch_matches_finite_differences_and_standalone_terms(mode, alpha, beta):
    rng = np.random.default_rng(91)
    worst = 0.0
    checked = 0
    while checked < 10:
        params, X = config_away_from_kinks(rng, m_range=(8, 14))
        m = X.shape[0]
        y = rng.integers(0, 2, m).astype(np.float64)
        group = rng.integers(0, 2, m)
        pairs = PairSet(idx1=rng.integers(0, m, m // 2), idx2=rng.integers(0, m, m // 2),
                        distances=np.zeros(m // 2))
        if group.sum() in (0, m):
            continue
        e = params.prob_grads(X)
        gaps = np.abs(e[pairs.idx1] - e[pairs.idx2])
        if gaps[gaps > 0].size == 0 or gaps[gaps > 0].min() < 1e-4:
            continue  # too close to the l1 kink for finite differences
        if dp_proxy_grads(params, X, group)[0] < 1e-3:
            continue  # too close to the absolute-value kink

        def epoch(q):
            return _fused_epoch(q, X, y, group, pairs.idx1, pairs.idx2, alpha, beta, mode)

        (total, bce, gpf, dp), grads = epoch(params)
        assert bce == bce_loss_grads(params, X, y)[0]
        assert gpf == (gpf_loss_grads(params, X, pairs)[0] if mode == "procedural" else 0.0)
        assert dp == (dp_proxy_grads(params, X, group)[0] if mode == "dp_regularized" else 0.0)
        assert total == bce + alpha * gpf + beta * dp
        worst = max(worst, max_rel_error(grads, finite_diff_grads(lambda q: epoch(q)[0][0], params)))
        checked += 1
    assert worst < 1e-4


@pytest.mark.parametrize("mode", MODES)
def test_fused_epoch_scratch_reuse_is_bit_identical(mode):
    # train() passes one scratch dict to every epoch; each epoch overwrites
    # the arrays the previous one left there.
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, 40).astype(np.float64)
    group = np.arange(40) % 2
    idx1, idx2 = rng.integers(0, 40, 25), rng.integers(0, 40, 25)
    scratch: dict = {}
    for seed in range(3):
        params = random_mlp(np.random.default_rng(seed), 3, 5)
        fresh = _fused_epoch(params, X, y, group, idx1, idx2, 0.5, 0.5, mode)
        reused = _fused_epoch(params, X, y, group, idx1, idx2, 0.5, 0.5, mode, scratch)
        assert fresh[0] == reused[0]
        for key, g in fresh[1].items():
            assert np.array_equal(g, reused[1][key])
    assert scratch  # the arrays were kept


def test_evaluate_perfect_and_constant_classifiers(small_splits):
    _, test_ds = small_splits
    pairs = select_eval_pairs(test_ds, 30)
    bg = test_ds.features[:50]
    cfg = MmdConfig(n_permutations=150, seed=0)

    # a constant-0 classifier: all-zero first layer, very negative bias
    const0 = MlpParams(W1=np.zeros((4, 4)), b1=np.zeros(4), w2=np.zeros(4), b2=-50.0)
    rep = evaluate(const0, test_ds, pairs, cfg, background=bg)
    assert rep.dp == 0.0
    assert rep.di is None and rep.di_reason is not None
    assert rep.gpf_fae == 1.0  # constant model explains identically everywhere

    # a perfect classifier exists for labels derived from a feature threshold
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(200, 2))
    ds = Dataset(
        features=feats,
        labels=(feats[:, 0] > 0).astype(int),
        group=rng.integers(0, 2, 200),
        feature_names=("x", "s"),
        sensitive_col=1,
    )
    # logit = relu(60x) - relu(-60x) = 60x: sign tracks the labeling feature
    big = MlpParams(W1=np.array([[60.0, 0.0], [-60.0, 0.0]]), b1=np.zeros(2),
                    w2=np.array([1.0, -1.0]), b2=0.0)
    p2 = select_eval_pairs(ds, 20)
    rep2 = evaluate(big, ds, p2, cfg, background=ds.features[:40])
    assert rep2.accuracy == 1.0
    assert rep2.eop == 0.0


def test_alpha_monotonicity_rank_test():
    # median final attribution-gap loss falls as alpha grows
    finals = {a: [] for a in (0.0, 0.1, 0.5)}
    for seed in range(8):
        data = generate_synthetic(SyntheticConfig(p=0.65, n_points=1500, seed=100 + seed))
        tr, _ = split(data, 0.8, seed=seed)
        for a in finals:
            _, hist = train(tr, TrainConfig(mode="procedural", alpha=a, epochs=150, seed=seed))
            finals[a].append(hist.gpf[-1])
    med = {a: float(np.median(v)) for a, v in finals.items()}
    assert med[0.0] >= med[0.1] >= med[0.5]
    p = stats.mannwhitneyu(finals[0.0], finals[0.5], alternative="greater").pvalue
    assert p < 0.05
