import numpy as np
import pytest
from scipy import stats

from oracles import (
    config_away_from_kinks,
    finite_diff_grads,
    fused_epoch_unblocked,
    max_rel_error,
    random_mlp,
)
from procfair.data import Dataset, SyntheticConfig, generate_synthetic, split
from procfair.fairness import EvalSet, MmdConfig
from procfair.model import (
    _BLOCK_ROWS,
    MlpParams,
    _loss_grads,
    bce_loss_grads,
    gpf_loss_grads,
    mlp_init,
)
from procfair.pairing import PairSet, build_pairs, select_eval_pairs
from procfair.train import (
    MODES,
    TrainConfig,
    dp_proxy_grads,
    evaluate,
    train,
)


def _engine_epoch(params, X, y, group, pairs, alpha, beta, mode):
    """(total, bce, gpf, dp_proxy) and the gradient from one run of the loss
    engine given one training mode's inputs: labels always, the groups in
    dp_regularized mode, the pairs in procedural mode."""
    (bce, gpf, dp), grads = _loss_grads(
        params, X, y, group if mode == "dp_regularized" else None,
        pairs if mode == "procedural" else None, alpha, beta)
    return (bce + alpha * gpf + beta * dp, bce, gpf, dp), grads


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
            return _engine_epoch(q, X, y, group, pairs, alpha, beta, mode)

        (total, bce, gpf, dp), grads = epoch(params)
        assert bce == bce_loss_grads(params, X, y)[0]
        assert gpf == (gpf_loss_grads(params, X, pairs)[0] if mode == "procedural" else 0.0)
        assert dp == (dp_proxy_grads(params, X, group)[0] if mode == "dp_regularized" else 0.0)
        assert total == bce + alpha * gpf + beta * dp
        worst = max(worst, max_rel_error(grads, finite_diff_grads(lambda q: epoch(q)[0][0], params)))
        checked += 1
    assert worst < 1e-4


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [_BLOCK_ROWS // 2 + 3, 2 * _BLOCK_ROWS, 2 * _BLOCK_ROWS + 37])
def test_fused_epoch_matches_unblocked_oracle(mode, n):
    # below one block, an exact multiple of the block, and a ragged last block
    rng = np.random.default_rng(n)
    params = random_mlp(rng, 6, 32)
    X = rng.normal(size=(n, 6))
    y = rng.integers(0, 2, n).astype(np.float64)
    group = rng.integers(0, 2, n)
    pairs = PairSet(idx1=np.sort(rng.integers(0, n, n // 2)), idx2=rng.integers(0, n, n // 2),
                    distances=np.zeros(n // 2))
    got_losses, got = _engine_epoch(params, X, y, group, pairs, 0.5, 0.7, mode)
    want_losses, want = fused_epoch_unblocked(params, X, y, group, pairs, 0.5, 0.7, mode)
    np.testing.assert_allclose(got_losses, want_losses, rtol=1e-12, atol=0.0)
    assert max_rel_error(got, want) < 1e-12


@pytest.mark.parametrize("mode", MODES)
def test_train_first_history_row_is_the_engine_at_init(small_splits, mode):
    # train hands the engine each mode's inputs: the first epoch's losses are
    # the standalone terms at the initial parameters, the others reading 0
    data = small_splits[1]
    cfg = TrainConfig(mode=mode, alpha=0.5, beta=0.7, epochs=1, hidden=8, seed=4)
    _, hist = train(data, cfg)
    params = mlp_init(data.n_features, cfg.hidden, cfg.seed)
    X, y = data.features, data.labels.astype(np.float64)
    bce = bce_loss_grads(params, X, y)[0]
    gpf = gpf_loss_grads(params, X, build_pairs(data))[0] if mode == "procedural" else 0.0
    dp = dp_proxy_grads(params, X, data.group)[0] if mode == "dp_regularized" else 0.0
    row = [hist.total[0], hist.bce[0], hist.gpf[0], hist.dp_proxy[0]]
    assert row == [bce + 0.5 * gpf + 0.7 * dp, bce, gpf, dp]


def test_evaluate_perfect_and_constant_classifiers(small_splits):
    _, test_ds = small_splits
    pairs = select_eval_pairs(test_ds, 30)
    bg = test_ds.features[:50]
    cfg = MmdConfig(n_permutations=150, seed=0)

    # a constant-0 classifier: all-zero first layer, very negative bias
    const0 = MlpParams(W1=np.zeros((4, 4)), b1=np.zeros(4), w2=np.zeros(4), b2=-50.0)
    rep = evaluate(const0, EvalSet(test_ds, pairs, bg, cfg))
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
    rep2 = evaluate(big, EvalSet(ds, p2, ds.features[:40], cfg))
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
