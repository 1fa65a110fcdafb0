import hashlib
import sys
import threading

import numpy as np
import pytest

from procfair import sweeps, util
from procfair.cli import main
from procfair.data import SyntheticConfig, dataset_dp, generate_synthetic, pearson_select
from procfair.explain import kernel_shap_batch
from procfair.model import LinearParams, override_sensitive_weight
from procfair.fairness import MmdConfig, mmd_permutation_pvalue
from procfair.scenarios import ScenarioConfig, StageError, run_repetition
from procfair.sweeps import p_sweep, sweep_p_ws, sweep_ws, write_sweep_csv
from procfair.train import TrainConfig
from procfair.util import seed_for

ROW_KEYS = ["p", "ws", "ws_normalized", "dp", "gpf_fae", "acc"]


@pytest.fixture(scope="module")
def ws_rows():
    data = generate_synthetic(SyntheticConfig(p=0.65, n_points=3000, seed=4))
    data = pearson_select(data, 0.30)
    return sweep_ws(data, (-4.0, 4.0), 17, seed=6, epochs=200, n_permutations=300, p=0.65)


def _column(rows, key):
    return np.array([r[key] for r in rows])


def test_sweep_ws_zero_cell_is_procedurally_fair(ws_rows):
    assert all(list(r) == ROW_KEYS and r["p"] == 0.65 for r in ws_rows)
    i0 = int(np.argmin(np.abs(_column(ws_rows, "ws"))))
    assert ws_rows[i0]["ws"] == 0.0  # odd count puts 0 on the grid
    assert ws_rows[i0]["gpf_fae"] >= 0.9
    # dataset bias persists even with a fair decision process
    assert ws_rows[i0]["dp"] > 0.05


def test_sweep_ws_superposition_and_cancellation(ws_rows):
    dp = _column(ws_rows, "dp")
    ws = _column(ws_rows, "ws")
    i0 = int(np.argmin(np.abs(ws)))
    # aligned decision bias exceeds the fair-process cell
    assert dp[-1] > dp[i0]
    # the DP minimizer sits at negative ws on advantaged-biased data
    assert ws[int(np.argmin(dp))] < 0.0


def test_sweep_ws_normalization_record(ws_rows):
    norm = _column(ws_rows, "ws_normalized")
    np.testing.assert_allclose(norm[0], -1.0)
    np.testing.assert_allclose(norm[-1], 1.0)
    assert abs(norm[int(np.argmin(np.abs(_column(ws_rows, "ws"))))]) < 1e-12


def test_sweep_ws_cell_reproducibility():
    data = generate_synthetic(SyntheticConfig(p=0.6, n_points=1500, seed=7))
    data = pearson_select(data, 0.30)
    a = sweep_ws(data, (-2.0, 2.0), 5, seed=3, epochs=120, n_permutations=150)
    b = sweep_ws(data, (-2.0, 2.0), 5, seed=3, epochs=120, n_permutations=150)
    assert a == b


def test_sweep_ws_validation(ws_rows, monkeypatch):
    # every bad range fails before the split and the fit; an infinite bound
    # would otherwise grid inf and nan weights and fail only at evaluate
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the range was checked")

    monkeypatch.setattr(sweeps, "split", no_stage)
    monkeypatch.setattr(sweeps, "linear_train", no_stage)
    data = generate_synthetic(SyntheticConfig(p=0.6, n_points=200, seed=1))
    with pytest.raises(ValueError, match="lo < hi"):
        sweep_ws(data, (2.0, -2.0), 5, seed=0, epochs=5, n_permutations=100)
    with pytest.raises(ValueError, match="count"):
        sweep_ws(data, (-2.0, 2.0), 1, seed=0, epochs=5, n_permutations=100)
    for bounds in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="range bounds must be finite"):
            sweep_ws(data, bounds, 3, seed=0, epochs=5, n_permutations=100)


def test_sweep_p_ws_grid_and_planes():
    rows = sweep_p_ws((0.35, 0.65), (-3.0, 3.0), (3, 21), seed=11, n_points=2000,
                      pearson_threshold=0.30, epochs=150, n_permutations=150)
    assert len(rows) == 63 and all(list(r) == ROW_KEYS for r in rows)
    # p-major: each fixed-p plane is 21 consecutive rows over the same w_s grid
    planes = [rows[i * 21:(i + 1) * 21] for i in range(3)]
    assert [plane[0]["p"] for plane in planes] == pytest.approx([0.35, 0.5, 0.65])
    assert all(len({r["p"] for r in plane}) == 1 for plane in planes)
    assert all(_column(plane, "ws").tolist() == np.linspace(-3.0, 3.0, 21).tolist()
               for plane in planes)

    # decision bias opposing the dataset bias: argmin ws is signed like -bias
    ws = _column(planes[0], "ws")
    assert ws[int(np.argmin(_column(planes[0], "dp")))] > 0.0  # p = 0.35
    assert ws[int(np.argmin(_column(planes[2], "dp")))] < 0.0  # p = 0.65


def _grid_rows_oracle(p_values, seed, n_points, threshold, ws_range, n_ws, **kw):
    """sweep_ws on each p's own dataset, one after another on this thread."""
    rows = []
    for i, p in enumerate(p_values):
        data = generate_synthetic(SyntheticConfig(p=float(p), n_points=n_points,
                                                  seed=seed_for(seed, 0, i)))
        rows += sweep_ws(pearson_select(data, threshold), ws_range, n_ws,
                         seed_for(seed, 100, i), p=float(p), **kw)
    return rows


def test_sweep_p_ws_rows_are_sweep_ws_rows_per_p():
    # oracle: the grid is sweep_ws on each p's own dataset, concatenated
    rows = sweep_p_ws((0.4, 0.6), (-2.0, 2.0), (3, 4), seed=5, n_points=800,
                      pearson_threshold=0.25, epochs=60, n_permutations=100)
    assert rows == _grid_rows_oracle(np.linspace(0.4, 0.6, 3), 5, 800, 0.25, (-2.0, 2.0), 4,
                                     epochs=60, n_permutations=100)


def test_sweep_grid_csv(tmp_path):
    rows = sweep_p_ws((0.45, 0.55), (-1.0, 1.0), (2, 3), seed=2, n_points=1200,
                      pearson_threshold=0.30, epochs=100, n_permutations=150)
    path = tmp_path / "grid.csv"
    write_sweep_csv(rows, path, config_hash="h")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# config_hash=h"
    assert lines[1] == "p,ws,ws_normalized,dp,gpf_fae,acc"
    assert len(lines) == 2 + 6


def test_p_sweep_trend_small_scale():
    rows = p_sweep((0.5, 0.65), 4, TrainConfig(mode="procedural", alpha=0.5, epochs=200),
                   seed=9, n_points=3000, n_permutations=300)
    assert [r["p"] for r in rows] == pytest.approx([0.5, 0.55, 0.6, 0.65])
    assert rows[-1]["dataset_dp"] > rows[0]["dataset_dp"]
    assert all(r["gpf_fae"] >= 0.8 for r in rows)


def test_p_sweep_row_is_the_scenario_repetition():
    # oracle: each p is repetition 0 of a one-repetition synthetic scenario
    rows = p_sweep((0.5, 0.6), 2, TrainConfig(mode="procedural", alpha=0.5, hidden=8, epochs=40),
                   seed=4, n_points=800, n_permutations=100)
    for row, p in zip(rows, np.linspace(0.5, 0.6, 2)):
        cfg = ScenarioConfig(
            scenario_id="oracle", dataset={"kind": "synthetic", "p": float(p), "n": 800},
            train={"mode": "procedural", "alpha": 0.5, "hidden": 8, "epochs": 40},
            mmd={"n_permutations": 100}, repetitions=1, master_seed=4,
        )
        result = run_repetition(cfg, 0)
        r = result.report
        assert row == {"p": float(p), "dataset_dp": dataset_dp(result.train_ds),
                       "acc": r.accuracy, "dp": r.dp, "gpf_fae": r.gpf_fae,
                       "gpf_loss": r.gpf_loss}


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


# sha256 of the whole CSV, hash line included, as each command below writes
# it. A change to sweeps, training or evaluation that is meant to keep every
# output bit-identical must keep these bytes.
GOLDEN_GRID_SHA256 = "57169a8418e3bfb2294a00acdfe1dbd915660ce11d320e0ec954bbb0f8e6d191"
GOLDEN_P_SHA256 = "c957bd38031ed8cb8c511326c7516f8588e4d2395804945021519c4c7d29db04"
GOLDEN_WS_SHA256 = "31da5df283560471f9b072855c89a9dd6ecb6350dd92479264d6d8abd2e4709e"


def _sweep_csv_sha256(tmp_path, argv: list[str]) -> str:
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--perms", "100", "--seed", "0", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.gate
def test_sweep_grid_csv_bytes_pinned(tmp_path):
    argv = ["grid", "--p", "0.5:0.65:2", "--ws", "-5:5:3", "--n", "800", "--epochs", "30"]
    assert _sweep_csv_sha256(tmp_path, argv) == GOLDEN_GRID_SHA256


@pytest.mark.gate
def test_sweep_p_csv_bytes_pinned(tmp_path):
    argv = ["p", "--p", "0.5:0.6:2", "--n", "600", "--epochs", "20"]
    assert _sweep_csv_sha256(tmp_path, argv) == GOLDEN_P_SHA256


@pytest.mark.gate
def test_sweep_ws_csv_bytes_pinned(tmp_path):
    argv = ["ws", "--p", "0.65", "--ws", "-5:5:3", "--n", "800", "--epochs", "30"]
    assert _sweep_csv_sha256(tmp_path, argv) == GOLDEN_WS_SHA256


@pytest.mark.gate
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sweep_grid_independent_of_row_threads(tmp_path, monkeypatch, workers):
    # the p rows run on min(util.WORKERS, rows) threads; neither the rows
    # nor the CSV bytes may depend on how many
    monkeypatch.setattr(util, "WORKERS", workers)
    kw = dict(epochs=30, n_permutations=100)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a shared-state race shows
    try:
        rows = sweep_p_ws((0.4, 0.6), (-2.0, 2.0), (3, 3), seed=8, n_points=600,
                          pearson_threshold=0.3, **kw)
    finally:
        sys.setswitchinterval(interval)
    assert rows == _grid_rows_oracle(np.linspace(0.4, 0.6, 3), 8, 600, 0.3, (-2.0, 2.0), 3, **kw)
    argv = ["grid", "--p", "0.5:0.65:2", "--ws", "-5:5:3", "--n", "800", "--epochs", "30"]
    assert _sweep_csv_sha256(tmp_path, argv) == GOLDEN_GRID_SHA256


@pytest.mark.gate
def test_sweep_p_ws_raises_lowest_failing_row(monkeypatch):
    # rows 1 and 2 both fail, row 2 first in time; the caller still gets
    # row 1's error, as from a loop over the rows
    monkeypatch.setattr(util, "WORKERS", 3)
    seed, n_points = 3, 200
    row_of = {}
    for i, p in enumerate(np.linspace(0.4, 0.6, 4)):
        data = generate_synthetic(SyntheticConfig(p=float(p), n_points=n_points,
                                                  seed=seed_for(seed, 0, i)))
        row_of[data.features.tobytes()] = i
    row_2_failed = threading.Event()

    def failing_select(data, threshold):
        i = row_of[data.features.tobytes()]
        if i == 2:
            row_2_failed.set()
            raise ValueError("row 2 failed")
        if i == 1:
            row_2_failed.wait(timeout=10)
            raise ValueError("row 1 failed")
        return pearson_select(data, threshold)

    monkeypatch.setattr(sweeps, "pearson_select", failing_select)
    with pytest.raises(StageError, match="pearson_select: row 1 failed"):
        sweep_p_ws((0.4, 0.6), (-1.0, 1.0), (4, 2), seed=seed, n_points=n_points,
                   pearson_threshold=0.3, epochs=5, n_permutations=100)
    assert row_2_failed.is_set()
