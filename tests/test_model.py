import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from oracles import (
    config_away_from_kinks,
    finite_diff_grads,
    max_rel_error,
    mlp_logits_fresh,
    pair_sign_scatter_bincount,
    prob_grad_rows,
    random_mlp,
)
from procfair.data import Dataset, SyntheticConfig, generate_synthetic, pearson_select, split
from procfair.model import (
    LinearParams,
    MlpParams,
    _feature_sums,
    _forward,
    _pair_sign_scatter,
    adam_init,
    adam_step,
    bce_loss_grads,
    gpf_loss_grads,
    linear_train,
    load_params,
    _pre_activation,
    mlp_init,
    mlp_logits,
    override_sensitive_weight,
    save_params,
)
from procfair.pairing import PairSet


def test_mlp_init_bounds_and_shapes():
    p = mlp_init(4, 32, seed=0)
    assert p.W1.shape == (32, 4) and p.b1.shape == (32,) and p.w2.shape == (32,)
    assert np.abs(p.W1).max() <= 0.5  # 1/sqrt(4)
    assert (p.b1 == 0).all() and p.b2 == 0.0
    same = mlp_init(4, 32, seed=0)
    np.testing.assert_array_equal(p.W1, same.W1)
    big = mlp_init(36, 64, seed=1)
    assert big.W1.shape == (64, 36) and big.w2.shape == (64,)
    with pytest.raises(ValueError):
        mlp_init(0, 4, seed=0)


def test_mlp_forward_zero_params():
    p = MlpParams(W1=np.zeros((3, 2)), b1=np.zeros(3), w2=np.zeros(3), b2=0.0)
    x = np.array([[1.0, -2.0]])
    assert p.logits(x)[0] == 0.0 and _forward(p, x).p[0] == 0.5


def test_mlp_forward_hand_example():
    p = MlpParams(W1=np.array([[1.0, -1.0]]), b1=np.zeros(1), w2=np.array([2.0]), b2=0.0)
    x = np.array([[1.0, 0.0]])
    assert p.logits(x)[0] == pytest.approx(2.0, abs=1e-12)
    assert _forward(p, x).p[0] == pytest.approx(expit(2.0), abs=1e-12)


def test_mlp_forward_all_units_inactive_returns_bias():
    p = MlpParams(W1=np.array([[1.0], [2.0]]), b1=np.zeros(2), w2=np.array([3.0, 4.0]), b2=-1.5)
    assert p.logits(np.array([[-1.0]]))[0] == -1.5


def test_forward_determinism_bit_identical():
    p = mlp_init(5, 7, seed=3)
    x = np.random.default_rng(1).normal(size=(10, 5))
    z1 = mlp_logits(p, x)
    z2 = mlp_logits(p, x)
    assert (z1 == z2).all()


@pytest.mark.parametrize("n", [1, 7, 8192])
@pytest.mark.parametrize("h", [1, 32, 33])
def test_mlp_logits_match_fresh_temporaries_oracle(n, h):
    rng = np.random.default_rng(100 * n + h)
    params = random_mlp(rng, 14, h)
    X = rng.normal(size=(n, 14))
    assert params.logits(X).tobytes() == mlp_logits_fresh(params, X).tobytes()


@pytest.mark.gate
@pytest.mark.parametrize("d", range(1, 21))
def test_feature_sums_equal_numpy_row_sums_bit_for_bit(d):
    # The gap term sums feature-major (d, m) arrays with one add per feature;
    # the bits must be those of numpy's (m, d).sum(axis=1), signed zeros
    # (a row of -0.0 sums to 0.0) and subnormals included.
    rng = np.random.default_rng(d)
    M = rng.normal(size=(4000, d)) * rng.choice([1.0, 1e12, 1e-310, 5e-324], size=(4000, d))
    M[rng.random(M.shape) < 0.25] = 0.0
    M[rng.random(M.shape) < 0.25] = -0.0
    M[:40] = -0.0
    M[40:80] = rng.choice([0.0, -0.0], size=(40, d))
    want = M.sum(axis=1)
    assert _feature_sums(np.ascontiguousarray(M.T)).tobytes() == want.tobytes()


@pytest.mark.gate
def test_feature_sums_follow_pairwise_order_past_one_block():
    # Beyond 128 values numpy splits its pairwise sum; the same helper serves
    # every d.
    rng = np.random.default_rng(0)
    for d in (127, 128, 129, 136, 257, 1000):
        M = rng.normal(size=(50, d)) * 10.0 ** rng.integers(-8, 8, size=(50, d))
        assert _feature_sums(np.ascontiguousarray(M.T)).tobytes() == M.sum(axis=1).tobytes()


@pytest.mark.gate
def test_forward_gates_equal_a_fresh_comparison():
    # Pass 2 reads pass 1's stored gates in place of recomputing them: they
    # must equal 1[pre-activation > 0] over every row block, a unit sitting
    # exactly at zero gated off.
    rng = np.random.default_rng(4)
    params = random_mlp(rng, 6, 33)
    params = MlpParams(W1=params.W1, b1=np.where(np.arange(33) % 3 == 0, 0.0, params.b1),
                       w2=params.w2, b2=params.b2)
    X = rng.normal(size=(1300, 6))
    X[::7] = 0.0  # pre-activation exactly b1, which is 0 for every third unit
    for input_grads in (False, True):
        c = _forward(params, X, input_grads=input_grads)
        assert c.gates.dtype == bool and c.gates.shape == (1300, 33)
        assert np.array_equal(c.gates, _pre_activation(params, X) > 0.0)
    assert not c.gates[::7, ::3].any()


def _logit_grads(params, X):
    """Logit input gradients under the ReLU gate training uses, one row per
    row of X (_forward stores them feature-major)."""
    return _forward(params, X, input_grads=True).G.T


def test_input_gradient_linear_path():
    # identity first layer with all units active reduces to the weight vector
    w = np.array([0.7, -1.3, 2.1])
    p = MlpParams(W1=np.eye(3), b1=np.full(3, 10.0), w2=w, b2=0.0)
    g = _logit_grads(p, np.array([[0.1, 0.2, 0.3]]))
    np.testing.assert_array_equal(g, [w])


def test_input_gradient_hand_chain_rule():
    p = MlpParams(W1=np.array([[1.0, -1.0]]), b1=np.zeros(1), w2=np.array([2.0]), b2=0.0)
    g = _logit_grads(p, np.array([[1.0, 0.0]]))
    np.testing.assert_array_equal(g, [[2.0, -2.0]])


def test_input_gradient_zero_preactivation_convention():
    # pre-activation exactly 0: 1[z > 0] contributes nothing
    p = MlpParams(W1=np.array([[1.0]]), b1=np.array([0.0]), w2=np.array([5.0]), b2=0.0)
    g = _logit_grads(p, np.array([[0.0]]))
    assert g[0, 0] == 0.0


def test_prob_input_gradients_scale():
    p = MlpParams(W1=np.array([[1.0, -1.0]]), b1=np.zeros(1), w2=np.array([2.0]), b2=0.0)
    x = np.array([[1.0, 0.0]])
    s = expit(2.0) * (1 - expit(2.0))
    np.testing.assert_allclose(p.prob_grads(x), s * np.array([[2.0, -2.0]]), atol=1e-15)


def test_prob_input_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    params, X = config_away_from_kinks(rng)
    np.testing.assert_allclose(
        params.prob_grads(X), prob_grad_rows(params, X), atol=1e-8
    )


def test_piecewise_linearity_fixed_activation_pattern():
    rng = np.random.default_rng(11)
    params, X = config_away_from_kinks(rng, m_range=(3, 4))
    x = X[0]
    delta = rng.normal(size=x.shape) * 1e-4  # small enough to keep the pattern
    z0 = mlp_logits(params, x[None])[0]
    z1 = mlp_logits(params, (x + delta)[None])[0]
    z2 = mlp_logits(params, (x + 2 * delta)[None])[0]
    assert abs((z2 - z1) - (z1 - z0)) < 1e-12


def test_bce_loss_zero_params_is_log2():
    p = MlpParams(W1=np.zeros((4, 3)), b1=np.zeros(4), w2=np.zeros(4), b2=0.0)
    X = np.random.default_rng(0).normal(size=(8, 3))
    y = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    loss, _ = bce_loss_grads(p, X, y)
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_loss_single_positive_closed_form():
    # logit 2 for a y=1 example: loss = ln(1 + e^-2)
    p = MlpParams(W1=np.array([[1.0, -1.0]]), b1=np.zeros(1), w2=np.array([2.0]), b2=0.0)
    loss, _ = bce_loss_grads(p, np.array([[1.0, 0.0]]), np.array([1.0]))
    assert loss == pytest.approx(np.log1p(np.exp(-2.0)), abs=1e-12)


def test_bce_grads_match_finite_differences():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        params, X = config_away_from_kinks(rng)
        y = rng.integers(0, 2, X.shape[0]).astype(np.float64)
        _, grads = bce_loss_grads(params, X, y)
        fd = finite_diff_grads(lambda q: bce_loss_grads(q, X, y)[0], params)
        worst = max(worst, max_rel_error(grads, fd))
    assert worst < 1e-5


def _pairs_for(X, rng, k=None):
    m = X.shape[0]
    k = k or max(2, m // 2)
    return PairSet(
        idx1=rng.integers(0, m, k), idx2=rng.integers(0, m, k), distances=np.zeros(k)
    )


def test_gpf_loss_zero_when_first_layer_dead():
    p = MlpParams(W1=np.zeros((4, 3)), b1=np.zeros(4), w2=np.ones(4), b2=0.3)
    X = np.random.default_rng(0).normal(size=(6, 3))
    pairs = _pairs_for(X, np.random.default_rng(1))
    loss, grads = gpf_loss_grads(p, X, pairs)
    assert loss == 0.0


def test_gpf_loss_value_matches_independent_recomputation():
    rng = np.random.default_rng(33)
    params, X = config_away_from_kinks(rng)
    pairs = _pairs_for(X, rng)
    loss, _ = gpf_loss_grads(params, X, pairs)
    e = prob_grad_rows(params, X)  # finite-difference explanations
    expected = np.abs(e[pairs.idx1] - e[pairs.idx2]).sum(axis=1).mean()
    assert loss == pytest.approx(expected, abs=1e-7)


def test_gpf_grads_match_finite_differences():
    rng = np.random.default_rng(55)
    worst = 0.0
    checked = 0
    while checked < 20:
        params, X = config_away_from_kinks(rng)
        pairs = _pairs_for(X, rng)
        loss, grads = gpf_loss_grads(params, X, pairs)
        e = params.prob_grads(X)
        gaps = np.abs(e[pairs.idx1] - e[pairs.idx2])
        if loss == 0.0 or gaps[gaps > 0].size == 0 or gaps[gaps > 0].min() < 1e-4:
            continue  # too close to the l1 kink for finite differences
        fd = finite_diff_grads(lambda q: gpf_loss_grads(q, X, pairs)[0], params)
        worst = max(worst, max_rel_error(grads, fd))
        checked += 1
    assert worst < 1e-4


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), k=st.integers(1, 120),
       d=st.integers(1, 40), sort_idx1=st.booleans(), weighted=st.booleans())
def test_pair_sign_scatter_matches_bincount_oracle(seed, m, k, d, sort_idx1, weighted):
    # build_pairs returns idx1 sorted and idx2 unsorted; both repeat rows.
    # Signs over k (zeros of both signs included) as the gap term scatters
    # them, or arbitrary weights; the scatter must match the oracle's bits.
    rng = np.random.default_rng(seed)
    idx1, idx2 = rng.integers(0, m, k), rng.integers(0, m, k)
    if sort_idx1:
        idx1.sort()
    S = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(k, d)) / k
    if weighted:
        S *= rng.lognormal(0.0, 3.0, size=(k, d))
    pairs = PairSet(idx1=idx1, idx2=idx2, distances=np.zeros(k))
    got = _pair_sign_scatter(np.ascontiguousarray(S.T), pairs, m).T  # feature-major in and out
    want = pair_sign_scatter_bincount(S, idx1, idx2, m)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_gpf_loss_requires_pairs():
    p = mlp_init(3, 4, seed=0)
    empty = PairSet(idx1=np.empty(0, int), idx2=np.empty(0, int), distances=np.empty(0))
    with pytest.raises(ValueError):
        gpf_loss_grads(p, np.zeros((3, 3)), empty)


def test_adam_zero_gradient_keeps_parameters():
    p = mlp_init(3, 4, seed=2)
    state = adam_init(p)
    zeros = {"W1": np.zeros_like(p.W1), "b1": np.zeros_like(p.b1),
             "w2": np.zeros_like(p.w2), "b2": 0.0}
    p2, state2 = adam_step(state, p, zeros, lr=0.1)
    np.testing.assert_array_equal(p.W1, p2.W1)
    np.testing.assert_array_equal(p.w2, p2.w2)
    assert state2.step == 1


def test_adam_first_step_is_signed_lr():
    p = MlpParams(W1=np.array([[1.0]]), b1=np.zeros(1), w2=np.array([1.0]), b2=0.0)
    g = {"W1": np.array([[123.4]]), "b1": np.zeros(1), "w2": np.array([-0.001]), "b2": 0.0}
    p2, _ = adam_step(adam_init(p), p, g, lr=0.01)
    # bias-corrected first step is -lr * sign(g) up to eps
    assert p2.W1[0, 0] == pytest.approx(1.0 - 0.01, rel=1e-6)
    assert p2.w2[0] == pytest.approx(1.0 + 0.01, rel=1e-4)


def test_adam_decreases_scalar_quadratic():
    p = MlpParams(W1=np.array([[1.0]]), b1=np.zeros(1), w2=np.array([0.0]), b2=0.0)
    state = adam_init(p)
    values = [p.W1[0, 0]]
    for _ in range(10):
        g = {"W1": 2 * p.W1, "b1": np.zeros(1), "w2": np.zeros(1), "b2": 0.0}
        p, state = adam_step(state, p, g, lr=0.01)
        values.append(p.W1[0, 0])
    diffs = np.diff(np.abs(values))
    assert (diffs < 0).all()


def test_adam_shape_mismatch():
    p = mlp_init(3, 4, seed=2)
    bad = {"W1": np.zeros((2, 2)), "b1": np.zeros(4), "w2": np.zeros(4), "b2": 0.0}
    with pytest.raises(ValueError, match="shape"):
        adam_step(adam_init(p), p, bad, lr=0.1)


def test_linear_train_separable_and_zero_epochs():
    rng = np.random.default_rng(3)
    x = rng.normal(size=200)
    ds = Dataset(
        features=np.column_stack([x, rng.integers(0, 2, 200).astype(float)]),
        labels=(x > 0).astype(int),
        group=rng.integers(0, 2, 200),
        feature_names=("x", "s"),
        sensitive_col=1,
    )
    params = linear_train(ds, epochs=300, lr=0.05, seed=0)
    preds = (expit(ds.features @ params.w + params.b) >= 0.5).astype(int)
    assert (preds == ds.labels).mean() == 1.0

    init = linear_train(ds, epochs=0, lr=0.05, seed=0)
    again = linear_train(ds, epochs=0, lr=0.05, seed=0)
    np.testing.assert_array_equal(init.w, again.w)
    assert init.sensitive_index == 1


def test_linear_train_accuracy_on_selected_synthetic():
    data = generate_synthetic(SyntheticConfig(p=0.65, n_points=8000, seed=6))
    data = pearson_select(data, 0.30)
    train_ds, test_ds = split(data, 0.8, seed=1)
    params = linear_train(train_ds, epochs=300, lr=0.01, seed=0)
    preds = (expit(test_ds.features @ params.w + params.b) >= 0.5).astype(int)
    assert (preds == test_ds.labels).mean() >= 0.80


def test_override_sensitive_weight():
    p = LinearParams(w=np.array([1.0, 2.0, 3.0]), b=0.5, sensitive_index=2)
    z = override_sensitive_weight(p, 0.0)
    assert z.w[2] == 0.0 and z.w[0] == 1.0 and z.b == 0.5
    assert p.w[2] == 3.0  # original untouched
    same = override_sensitive_weight(p, 3.0)
    np.testing.assert_array_equal(same.w, p.w)
    assert override_sensitive_weight(p, 5.0).w[2] == 5.0


def test_params_json_round_trip(tmp_path):
    p = mlp_init(4, 8, seed=9)
    save_params(p, tmp_path / "m.json")
    back = load_params(tmp_path / "m.json")
    np.testing.assert_array_equal(p.W1, back.W1)
    np.testing.assert_array_equal(p.w2, back.w2)
    lin = LinearParams(w=np.array([1.0, -2.0]), b=0.25, sensitive_index=1)
    save_params(lin, tmp_path / "l.json")
    back_lin = load_params(tmp_path / "l.json")
    np.testing.assert_array_equal(lin.w, back_lin.w)
    assert back_lin.sensitive_index == 1


def _saved(tmp_path, params) -> dict:
    save_params(params, tmp_path / "m.json")
    return json.loads((tmp_path / "m.json").read_text())


def _load(tmp_path, obj):
    (tmp_path / "m.json").write_text(json.dumps(obj))
    return load_params(tmp_path / "m.json")


@pytest.mark.parametrize("params", [
    mlp_init(3, 4, seed=1),
    LinearParams(w=np.array([1.0, -2.0, 0.5]), b=0.25, sensitive_index=2),
], ids=["mlp", "linear"])
def test_load_params_rejects_unknown_and_missing_keys(tmp_path, params):
    obj = _saved(tmp_path, params)
    with pytest.raises(ValueError, match="unknown model key\\(s\\): extra"):
        _load(tmp_path, {**obj, "extra": 5})
    for key in obj:
        if key in ("format_version", "kind"):
            continue  # a missing version or kind is reported as unsupported
        with pytest.raises(ValueError, match=f"missing model key\\(s\\): {key}$"):
            _load(tmp_path, {k: v for k, v in obj.items() if k != key})
    with pytest.raises(ValueError, match="unsupported model format version None"):
        _load(tmp_path, {k: v for k, v in obj.items() if k != "format_version"})
    with pytest.raises(ValueError, match="unknown model kind None"):
        _load(tmp_path, {k: v for k, v in obj.items() if k != "kind"})


def test_load_params_rejects_keys_of_the_other_kind_and_wrong_sizes(tmp_path):
    obj = _saved(tmp_path, mlp_init(3, 4, seed=1))
    with pytest.raises(ValueError, match="unknown model key\\(s\\): sensitive_index"):
        _load(tmp_path, {**obj, "sensitive_index": 0})
    with pytest.raises(ValueError, match="model hidden_size 5 does not match"):
        _load(tmp_path, {**obj, "hidden_size": 5})
    with pytest.raises(ValueError, match="model input_size 2 does not match"):
        _load(tmp_path, {**obj, "input_size": 2})
    # a malformed scalar or a weight array of the wrong rank is named
    for key, value, named in (("b2", None, "b2 must be a number, got None"),
                              ("b2", "0", "b2 must be a number, got '0'"),
                              ("W1", 5, "W1 must be a matrix, got 0 dimension"),
                              ("W1", [1.0, 2.0, 3.0], "W1 must be a matrix, got 1 dimension"),
                              ("b1", [[0.0] * 4], "b1 must be a vector, got 2 dimension")):
        with pytest.raises(ValueError, match=named):
            _load(tmp_path, {**obj, key: value})
    lin = _saved(tmp_path, LinearParams(w=np.array([1.0, -2.0]), b=0.0, sensitive_index=1))
    with pytest.raises(ValueError, match="unknown model key\\(s\\): hidden_size"):
        _load(tmp_path, {**lin, "hidden_size": 4})
    for key, value, named in (
            ("sensitive_index", "1", "sensitive_index must be an integer, got '1'"),
            ("sensitive_index", 1.0, "sensitive_index must be an integer, got 1.0"),
            ("b", None, "b must be a number, got None"),
            ("w", 5, "w must be a vector, got 0 dimension")):
        with pytest.raises(ValueError, match=named):
            _load(tmp_path, {**lin, key: value})
    with pytest.raises(ValueError, match="must be a JSON object"):
        _load(tmp_path, [lin])
