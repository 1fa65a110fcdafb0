import sys
import threading

import numpy as np
import pytest
from scipy.special import expit

from oracles import per_row_coalition_values, random_mlp
from procfair import explain, util
from procfair.explain import exact_shapley, kernel_shap_batch
from procfair.model import LinearParams, MlpParams, mlp_init, mlp_logits


def _linear_predict(w, b=0.0):
    return lambda X: np.atleast_2d(X) @ w + b


def test_grad_explanations_zero_network():
    params = MlpParams(W1=np.zeros((4, 3)), b1=np.zeros(4), w2=np.zeros(4), b2=1.0)
    assert (params.prob_grads(np.ones((5, 3))) == 0).all()


def test_grad_explanations_linear_network():
    # every unit stays in its linear region, so the logit gradient is w
    # everywhere and the probability gradient is sigma'(logit) * w
    w = np.array([1.5, -2.5])
    params = MlpParams(W1=np.eye(2), b1=np.full(2, 100.0), w2=w, b2=100.0)  # logit = w . x
    X = np.random.default_rng(1).normal(size=(4, 2))
    p = expit(X @ w)
    np.testing.assert_allclose(params.prob_grads(X), (p * (1 - p))[:, None] * w, rtol=1e-12)


def test_kernel_shap_linear_closed_form():
    # single background row mu: phi_i = w_i (x_i - mu_i)
    w = np.array([2.0, -1.0, 0.5])
    mu = np.array([[0.3, -0.2, 1.0]])
    x = np.array([1.0, 1.0, -1.0])
    phi, base = kernel_shap_batch(_linear_predict(w, b=0.7), x[None], mu)
    np.testing.assert_allclose(phi[0], w * (x - mu[0]), atol=1e-10)
    assert base == pytest.approx(float(mu[0] @ w + 0.7), abs=1e-12)


@pytest.mark.parametrize("d", [14, 20])
@pytest.mark.parametrize("budget", [None, 64])
def test_kernel_shap_sampled_linear_closed_form(d, budget):
    # sampled path (d > 11), multi-row background: phi_j = w_j (x_j - mean(bg_j))
    rng = np.random.default_rng(d)
    w = rng.normal(size=d)
    X = rng.normal(size=(3, d))
    bg = rng.normal(size=(25, d))
    phi, base = kernel_shap_batch(_linear_predict(w, b=-0.4), X, bg, budget=budget, seed=5)
    np.testing.assert_allclose(phi, w * (X - bg.mean(axis=0)), rtol=0, atol=1e-9)
    assert base == pytest.approx(float((bg @ w).mean() - 0.4), abs=1e-12)


def _with_workers(cases):
    """Every case at 1 worker, under its plain id, and at 3 workers."""
    return [pytest.param(w, *case, id="-".join(map(str, case)) + ("" if w == 1 else f"-{w}workers"))
            for w in (1, 3) for case in cases]


@pytest.mark.gate
@pytest.mark.parametrize(
    "workers, model, d, n, b, masks",
    _with_workers([
        ("mlp", 14, 5, 100, "sampled"),  # the sampled scale
        ("linear", 3, 9, 100, "exhaustive"),
        ("mlp", 14, 3, 36, "sampled"),  # n * C not a multiple of the block size
        ("mlp", 14, 3, 37, "sampled"),  # B not a multiple of the 4-row unroll
        ("mlp", 3, 2, 600, "exhaustive"),  # 2 blocks, fewer than the workers
        ("mlp", 4, 3, explain._PREDICT_ROWS + 4, "exhaustive"),  # block is one pair
        # a row-wise predict has no BLAS remainder rows, so any B matches
        ("rowwise", 5, 4, 1, "exhaustive"),
        ("rowwise", 5, 4, 7, "exhaustive"),
        ("rowwise", 5, 4, 101, "exhaustive"),
        ("rowwise", 5, 4, explain._PREDICT_ROWS + 1, "exhaustive"),
        ("mlp", 1, 5, 100, "exhaustive"),  # no coalition at all
        ("mlp", 2, 7, 100, "exhaustive"),
        ("mlp", 14, 3, 1, "sampled"),  # B = 1: C * B is a multiple of the unroll
        ("linear", 14, 5, 100, "sampled"),
    ]),
)
def test_coalition_values_match_per_row_oracle(monkeypatch, workers, model, d, n, b, masks):
    # every call, however small, deals its blocks over `workers` threads
    monkeypatch.setattr(util, "WORKERS", workers)
    monkeypatch.setattr(explain, "_PARALLEL_MIN_ROWS", 0)
    rng = np.random.default_rng(d * 1000 + b)
    if model == "linear":
        params = LinearParams(w=rng.normal(size=d), b=0.3, sensitive_index=0)
        predict = params.logits
    elif model == "mlp":
        params = random_mlp(rng, d, 32)
        predict = lambda X: mlp_logits(params, X)
    else:
        w = rng.normal(size=d)
        predict = lambda X: (np.tanh(X) * w).sum(axis=1)
    M = (explain._exhaustive_masks(d) if masks == "exhaustive"
         else explain._sampled_masks(d, explain._DEFAULT_SAMPLE_BUDGET, rng))
    X = rng.normal(size=(n, d))
    bg = rng.normal(size=(b, d))
    np.testing.assert_array_equal(
        explain._coalition_values(predict, X, bg, M),
        per_row_coalition_values(predict, X, bg, M),
    )


@pytest.mark.gate
@pytest.mark.parametrize(
    "workers, d, n, b, masks",
    _with_workers([
        (3, 9, 100, "exhaustive"),
        (14, 5, 37, "sampled"),
        (2, 600, 7, "exhaustive"),  # several blocks
        (4, 3, 1, "exhaustive"),
    ]),
)
def test_coalition_values_predict_sees_per_row_oracle_rows(monkeypatch, workers, d, n, b, masks):
    # predict returns each model row's position in the recording, so v[r, c]
    # names where pair (r, c)'s B rows went; they must be the oracle's rows
    monkeypatch.setattr(util, "WORKERS", workers)
    monkeypatch.setattr(explain, "_PARALLEL_MIN_ROWS", 0)
    rng = np.random.default_rng(d * 100 + n)
    M = (explain._exhaustive_masks(d) if masks == "exhaustive"
         else explain._sampled_masks(d, explain._DEFAULT_SAMPLE_BUDGET, rng))
    X, bg = rng.normal(size=(n, d)), rng.normal(size=(b, d))
    recorded, lock = [], threading.Lock()

    def recording(Z):
        with lock:
            first = sum(map(len, recorded))
            recorded.append(Z.copy())
        return np.arange(first, first + len(Z), dtype=np.float64)

    v = explain._coalition_values(recording, X, bg, M)
    rows = np.concatenate(recorded)
    assert len(rows) == n * len(M) * b
    first = np.rint(v - (b - 1) / 2).astype(np.int64)
    recorded.clear()
    per_row_coalition_values(recording, X, bg, M)
    oracle = np.concatenate(recorded).reshape(n, len(M), b, d)
    assert rows[first[..., None] + np.arange(b)].tobytes() == oracle.tobytes()


class _WorkerFailure(Exception):
    pass


def test_worker_block_error_reraises_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(util, "WORKERS", 3)
    monkeypatch.setattr(explain, "_PARALLEL_MIN_ROWS", 0)
    rng = np.random.default_rng(5)
    w = rng.normal(size=14)
    calls = []

    def predict(Z):
        calls.append(threading.current_thread())
        if threading.current_thread() is not threading.main_thread():
            raise _WorkerFailure("block failed")
        return Z @ w

    before = threading.active_count()
    with pytest.raises(_WorkerFailure):
        kernel_shap_batch(predict, rng.normal(size=(4, 14)), rng.normal(size=(100, 14)))
    assert any(t is not threading.main_thread() for t in calls)
    assert threading.active_count() == before


def test_small_call_starts_no_thread(monkeypatch):
    # an audit_grid cell: d = 3, both sides of 100 eval pairs, 100 background rows
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(util.threading, "Thread", no_thread)
    monkeypatch.setattr(util, "WORKERS", 4)
    rng = np.random.default_rng(8)
    params = LinearParams(w=rng.normal(size=3), b=0.1, sensitive_index=0)
    X, bg = rng.normal(size=(200, 3)), rng.normal(size=(100, 3))
    kernel_shap_batch(params.logits, X, bg)
    monkeypatch.setattr(explain, "_PARALLEL_MIN_ROWS", 0)  # the same call, dealt over threads
    with pytest.raises(AssertionError, match="thread was started"):
        kernel_shap_batch(params.logits, X, bg)


def test_worker_count_stress_bit_identical(monkeypatch):
    # more workers than cores, switching threads every microsecond
    monkeypatch.setattr(explain, "_PARALLEL_MIN_ROWS", 0)
    rng = np.random.default_rng(11)
    params = random_mlp(rng, 14, 32)
    X, bg = rng.normal(size=(6, 14)), rng.normal(size=(40, 14))
    M = explain._sampled_masks(14, explain._DEFAULT_SAMPLE_BUDGET, rng)
    monkeypatch.setattr(util, "WORKERS", 1)
    alone = explain._coalition_values(params.logits, X, bg, M)
    monkeypatch.setattr(util, "WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            shared = explain._coalition_values(params.logits, X, bg, M)
            assert shared.tobytes() == alone.tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "workers, d, n, b",
    _with_workers([(14, 4, 100), (3, 50, 100), (5, 2, explain._PREDICT_ROWS + 1)]),
)
def test_kernel_shap_batch_model_rows(monkeypatch, workers, d, n, b):
    # every block is evaluated once, whichever thread takes it
    monkeypatch.setattr(util, "WORKERS", workers)
    monkeypatch.setattr(explain, "_PARALLEL_MIN_ROWS", 0)
    rng = np.random.default_rng(7)
    w = rng.normal(size=d)
    calls = []

    def counting(Z):
        calls.append(len(Z))
        return Z @ w

    kernel_shap_batch(counting, rng.normal(size=(n, d)), rng.normal(size=(b, d)))
    c = 2**d - 2 if d <= explain._EXHAUSTIVE_MAX_D else explain._DEFAULT_SAMPLE_BUDGET
    assert sum(calls) == n * c * b + n + b
    assert max(calls) <= max(explain._PREDICT_ROWS, b)


def test_kernel_shap_constant_model():
    phi, base = kernel_shap_batch(lambda X: np.full(np.atleast_2d(X).shape[0], 3.25),
                                  np.array([[1.0, 2.0]]), np.zeros((5, 2)))
    np.testing.assert_allclose(phi, 0.0, atol=1e-10)
    assert base == pytest.approx(3.25)


def test_kernel_shap_d1_analytic():
    phi, base = kernel_shap_batch(_linear_predict(np.array([2.0])), np.array([[3.0]]),
                                  np.array([[1.0]]))
    assert phi[0, 0] == pytest.approx(4.0, abs=1e-12)  # f(x) - f(mu)
    assert base == pytest.approx(2.0)
    # with no coalition between empty and full, phi is f(x) - base bit for bit
    rng = np.random.default_rng(3)
    X, bg = rng.normal(size=(6, 1)), rng.normal(size=(5, 1))
    predict = _linear_predict(np.array([0.7]), b=-0.1)
    phi, base = kernel_shap_batch(predict, X, bg)
    assert base == float(predict(bg).mean())
    np.testing.assert_array_equal(phi, (predict(X) - base)[:, None])


def test_kernel_shap_exhaustive_matches_exact_shapley():
    rng = np.random.default_rng(12)
    for d in (2, 3, 4, 5, 6):
        params = random_mlp(rng, d, 6)
        predict = lambda X: mlp_logits(params, X)
        x = rng.normal(size=d)
        background = rng.normal(size=(20, d))
        phi_k, base_k = kernel_shap_batch(predict, x[None], background, budget=2**d - 2)
        phi_e, base_e = exact_shapley(predict, x, background)
        np.testing.assert_allclose(phi_k[0], phi_e, atol=1e-6)
        assert base_k == pytest.approx(base_e, abs=1e-12)


def test_kernel_shap_efficiency_exhaustive():
    rng = np.random.default_rng(4)
    params = random_mlp(rng, 5, 7)
    predict = lambda X: mlp_logits(params, X)
    x = rng.normal(size=5)
    bg = rng.normal(size=(30, 5))
    phi, base = kernel_shap_batch(predict, x[None], bg)
    assert phi[0].sum() + base == pytest.approx(float(predict(x[None])[0]), abs=1e-6)


def test_kernel_shap_dummy_feature_zero():
    # feature 2 never influences the model: phi_2 = 0 under enumeration
    w = np.array([1.0, -2.0, 0.0])
    rng = np.random.default_rng(9)
    phi, _ = kernel_shap_batch(_linear_predict(w), rng.normal(size=(1, 3)),
                               rng.normal(size=(10, 3)))
    assert abs(phi[0, 2]) < 1e-10


def test_kernel_shap_budget_validation():
    with pytest.raises(ValueError, match="budget"):
        kernel_shap_batch(_linear_predict(np.ones(4)), np.ones((1, 4)), np.zeros((3, 4)), budget=3)
    with pytest.raises(ValueError, match="background"):
        kernel_shap_batch(_linear_predict(np.ones(2)), np.ones((1, 2)), np.zeros((0, 2)))


def test_kernel_shap_rejects_column_count_mismatch():
    def predict(Z):
        raise AssertionError("predict called before the shapes were checked")

    with pytest.raises(ValueError, match="X has 4 columns but background has 3"):
        kernel_shap_batch(predict, np.ones((2, 4)), np.zeros((5, 3)))


def test_kernel_shap_sampled_budget_consistency():
    rng = np.random.default_rng(31)
    d = 8
    params = random_mlp(rng, d, 8)
    predict = lambda X: mlp_logits(params, X)
    x = rng.normal(size=d)
    bg = rng.normal(size=(15, d))
    phi_exact, _ = exact_shapley(predict, x, bg)
    devs = {}
    for budget in (64, 256):
        errs = []
        for seed in range(6):
            phi, _ = kernel_shap_batch(predict, x[None], bg, budget=budget, seed=seed)
            errs.append(np.abs(phi[0] - phi_exact).mean())
        devs[budget] = np.mean(errs)
    assert devs[256] < devs[64]


@pytest.mark.parametrize("seed", range(4))
def test_kernel_shap_sampled_matches_exact_shapley_at_d12(seed):
    # d = 12 is the largest d exact_shapley enumerates and is already on the
    # sampled path under the default budget of 2048 coalitions
    d = 12
    assert d > explain._EXHAUSTIVE_MAX_D
    rng = np.random.default_rng(seed)
    params = random_mlp(rng, d, 16)
    predict = lambda X: mlp_logits(params, X)
    bg = rng.normal(size=(20, d))
    X = rng.normal(size=(5, d))
    exact = np.array([exact_shapley(predict, x, bg)[0] for x in X])
    phi, _ = kernel_shap_batch(predict, X, bg, seed=seed)
    assert np.abs(phi - exact).max() <= 0.10 * np.abs(exact).max()
    phi_all, _ = kernel_shap_batch(predict, X, bg, budget=2**d - 2)
    np.testing.assert_allclose(phi_all, exact, rtol=0, atol=1e-12)


def test_kernel_shap_deterministic_per_seed():
    rng = np.random.default_rng(2)
    d = 13  # forces the sampled path under the default budget
    params = random_mlp(rng, d, 5)
    predict = lambda X: mlp_logits(params, X)
    x = rng.normal(size=d)
    bg = rng.normal(size=(8, d))
    a, _ = kernel_shap_batch(predict, x[None], bg, budget=200, seed=7)
    b, _ = kernel_shap_batch(predict, x[None], bg, budget=200, seed=7)
    np.testing.assert_array_equal(a, b)
    c, _ = kernel_shap_batch(predict, x[None], bg, budget=200, seed=8)
    assert not np.array_equal(a, c)


def test_exact_shapley_d1_and_symmetry():
    phi, base = exact_shapley(_linear_predict(np.array([3.0])), np.array([2.0]),
                              np.array([[0.0], [1.0]]))
    # f(x) - mean f(background) = 6 - 1.5
    assert phi[0] == pytest.approx(4.5, abs=1e-12)
    assert base == pytest.approx(1.5)

    # symmetric model and inputs: phi_1 = phi_2
    predict = lambda X: np.atleast_2d(X).sum(axis=1)
    phi, _ = exact_shapley(predict, np.array([2.0, 2.0]), np.array([[0.0, 0.0]]))
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_exact_shapley_efficiency_axiom():
    rng = np.random.default_rng(17)
    for _ in range(5):
        d = int(rng.integers(2, 7))
        params = random_mlp(rng, d, 5)
        predict = lambda X: mlp_logits(params, X)
        x = rng.normal(size=d)
        bg = rng.normal(size=(12, d))
        phi, base = exact_shapley(predict, x, bg)
        assert phi.sum() + base == pytest.approx(float(predict(x[None])[0]), abs=1e-9)


def test_exact_shapley_dimension_limit():
    with pytest.raises(ValueError, match="<= 12"):
        exact_shapley(lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                      np.zeros(13), np.zeros((2, 13)))


def test_shap_explanations_batch():
    params = mlp_init(4, 6, seed=5)
    rows = np.random.default_rng(3).normal(size=(7, 4))
    bg = np.random.default_rng(4).normal(size=(10, 4))
    phi, base = kernel_shap_batch(params.logits, rows, bg)
    assert phi.shape == (7, 4)
    # batch output equals row-by-row calls
    for r in range(7):
        phi_r, base_r = kernel_shap_batch(params.logits, rows[r][None], bg)
        np.testing.assert_allclose(phi[r], phi_r[0], atol=1e-10)
        assert base_r == base
