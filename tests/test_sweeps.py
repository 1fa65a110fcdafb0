import numpy as np
import pytest

from procfair.data import SyntheticConfig, generate_synthetic, pearson_select
from procfair.explain import kernel_shap_batch
from procfair.model import LinearParams, override_sensitive_weight
from procfair.fairness import MmdConfig, mmd_permutation_pvalue
from procfair.sweeps import SweepSettings, p_sweep, sweep_p_ws, sweep_ws
from procfair.train import TrainConfig

FAST = SweepSettings(n_points=3000, epochs=200, n_permutations=300, background_size=60)


@pytest.fixture(scope="module")
def ws_slice():
    data = generate_synthetic(SyntheticConfig(p=0.65, n_points=3000, seed=4))
    data = pearson_select(data, 0.30)
    return sweep_ws(data, (-4.0, 4.0), 17, seed=6, settings=FAST, p=0.65)


def test_sweep_ws_zero_cell_is_procedurally_fair(ws_slice):
    i0 = int(np.argmin(np.abs(ws_slice.ws_values)))
    assert ws_slice.ws_values[i0] == 0.0  # odd count puts 0 on the grid
    assert ws_slice.reports[i0].gpf_fae >= 0.9
    # dataset bias persists even with a fair decision process
    assert ws_slice.reports[i0].dp > 0.05


def test_sweep_ws_superposition_and_cancellation(ws_slice):
    dp = np.array([r.dp for r in ws_slice.reports])
    ws = ws_slice.ws_values
    i0 = int(np.argmin(np.abs(ws)))
    # aligned decision bias exceeds the fair-process cell
    assert dp[-1] > dp[i0]
    # the DP minimizer sits at negative ws on advantaged-biased data
    assert ws[int(np.argmin(dp))] < 0.0


def test_sweep_ws_normalization_record(ws_slice):
    assert ws_slice.norm_record == {"method": "minmax_to_[-1,1]", "lo": -4.0, "hi": 4.0}
    np.testing.assert_allclose(ws_slice.ws_normalized[0], -1.0)
    np.testing.assert_allclose(ws_slice.ws_normalized[-1], 1.0)
    assert abs(ws_slice.ws_normalized[int(np.argmin(np.abs(ws_slice.ws_values)))]) < 1e-12


def test_sweep_ws_cell_reproducibility():
    data = generate_synthetic(SyntheticConfig(p=0.6, n_points=1500, seed=7))
    data = pearson_select(data, 0.30)
    small = SweepSettings(n_points=1500, epochs=120, n_permutations=150, background_size=40)
    a = sweep_ws(data, (-2.0, 2.0), 5, seed=3, settings=small)
    b = sweep_ws(data, (-2.0, 2.0), 5, seed=3, settings=small)
    for ra, rb in zip(a.reports, b.reports):
        assert ra.dp == rb.dp and ra.gpf_fae == rb.gpf_fae and ra.accuracy == rb.accuracy


def test_sweep_ws_validation(ws_slice):
    data = generate_synthetic(SyntheticConfig(p=0.6, n_points=200, seed=1))
    with pytest.raises(ValueError, match="lo < hi"):
        sweep_ws(data, (2.0, -2.0), 5, seed=0)
    with pytest.raises(ValueError, match="count"):
        sweep_ws(data, (-2.0, 2.0), 1, seed=0)


def test_sweep_p_ws_grid_and_planes():
    small = SweepSettings(n_points=2000, epochs=150, n_permutations=150, background_size=40)
    grid = sweep_p_ws((0.35, 0.65), (-3.0, 3.0), (3, 21), seed=11, settings=small)
    assert grid.p_values.shape == (3,) and grid.ws_values.shape == (21,)
    assert len(grid.reports) == 3 and all(len(row) == 21 for row in grid.reports)

    # plane extraction picks the nearest grid line
    sl = grid.plane_at_p(0.36)
    assert sl.p == pytest.approx(0.35)
    ws_val, ps, col = grid.plane_at_ws(0.1)
    assert len(col) == 3

    # decision bias opposing the dataset bias: argmin ws is signed like -bias
    dp_low = np.array([r.dp for r in grid.reports[0]])   # p = 0.35
    dp_high = np.array([r.dp for r in grid.reports[2]])  # p = 0.65
    assert grid.ws_values[int(np.argmin(dp_low))] > 0.0
    assert grid.ws_values[int(np.argmin(dp_high))] < 0.0

    rows = grid.long_rows()
    assert len(rows) == 63
    assert set(rows[0]) == {"p", "ws", "ws_normalized", "dp", "gpf_fae", "acc"}


def test_sweep_grid_csv(tmp_path):
    small = SweepSettings(n_points=1200, epochs=100, n_permutations=150, background_size=30)
    grid = sweep_p_ws((0.45, 0.55), (-1.0, 1.0), (2, 3), seed=2, settings=small)
    path = tmp_path / "grid.csv"
    grid.to_csv(path, config_hash="h")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# config_hash=h"
    assert lines[1] == "p,ws,ws_normalized,dp,gpf_fae,acc"
    assert len(lines) == 2 + 6


def test_p_sweep_trend_small_scale():
    rows = p_sweep((0.5, 0.65), 4, TrainConfig(mode="procedural", alpha=0.5),
                   seed=9, settings=FAST)
    assert [r["p"] for r in rows] == pytest.approx([0.5, 0.55, 0.6, 0.65])
    assert rows[-1]["dataset_dp"] > rows[0]["dataset_dp"]
    assert all(r["gpf_fae"] >= 0.8 for r in rows)


def test_linear_shap_sensitive_weight_axioms():
    # the legs of the linear-model explanation routing: with w_s = 0 the
    # sensitive attribute is a dummy feature and its SHAP value vanishes
    data = generate_synthetic(SyntheticConfig(p=0.6, n_points=1000, seed=13))
    data = pearson_select(data, 0.30)
    params = LinearParams(w=np.array([0.8, -0.4, 1.5]), b=0.1,
                          sensitive_index=data.sensitive_col)
    rng = np.random.default_rng(0)
    rows = data.features[rng.choice(data.n_rows, 40, replace=False)]
    bg = data.features[rng.choice(data.n_rows, 50, replace=False)]

    zeroed = override_sensitive_weight(params, 0.0)
    phi, _ = kernel_shap_batch(zeroed.logits, rows, bg)
    assert np.abs(phi[:, data.sensitive_col]).max() < 1e-10

    # positive w_s gives advantaged rows positive sensitive attributions
    pos = override_sensitive_weight(params, 2.0)
    phi_pos, _ = kernel_shap_batch(pos.logits, rows, bg)
    s_col = data.features[rng.choice(data.n_rows, 40, replace=False), data.sensitive_col]
    mu_s = bg[:, data.sensitive_col].mean()
    # closed form w_s (x_s - mu_s): check directly on the explained rows
    np.testing.assert_allclose(
        phi_pos[:, data.sensitive_col], 2.0 * (rows[:, data.sensitive_col] - mu_s), atol=1e-8
    )


def test_identical_explanations_give_pvalue_one():
    # mirrored feature rows across groups: explanation sets coincide
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(30, 2))
    both = np.vstack([feats, feats])
    params = LinearParams(w=np.array([1.0, -2.0]), b=0.0, sensitive_index=1)
    phi, _ = kernel_shap_batch(params.logits, both, feats)
    p, _ = mmd_permutation_pvalue(phi[:30], phi[30:], MmdConfig(n_permutations=150, seed=0))
    assert p == 1.0
