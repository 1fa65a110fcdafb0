"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

The multi-repetition bundles are expensive (minutes each); they are built
lazily and shared through a module-scoped cache.
"""

import time

import numpy as np
import pytest
from scipy import stats as sstats

from oracles import config_away_from_kinks, finite_diff_grads, max_rel_error, random_mlp
from procfair.data import SyntheticConfig, dataset_dp, generate_synthetic, pearson_select
from procfair.explain import exact_shapley, kernel_shap_batch
from procfair.fairness import MmdConfig, mmd_permutation_pvalue
from procfair.model import bce_loss_grads, gpf_loss_grads, mlp_logits
from procfair.pairing import PairSet
from procfair.scenarios import (
    ScenarioConfig,
    compare_scenarios,
    emit_sensitive_attributions,
    load_preset,
    run_repetition,
    run_scenario,
)
from procfair.sweeps import p_sweep, sweep_ws
from procfair.train import TrainConfig, dp_proxy_grads

pytestmark = pytest.mark.acceptance


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} [{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance criterion {num} ({name}): {detail}"


_CACHE: dict = {}


def _bundle(name: str):
    """(bundle, wall seconds) for a preset scenario, computed once."""
    if name not in _CACHE:
        cfg = ScenarioConfig.from_dict(load_preset(name))
        t0 = time.perf_counter()
        bundle = run_scenario(cfg)
        _CACHE[name] = (bundle, time.perf_counter() - t0)
    return _CACHE[name]


def _agg(bundle, metric):
    return bundle.aggregate[metric]["mean"]


def test_criterion_01_synthetic_dataset_statistics():
    t0 = time.perf_counter()
    dp65 = dataset_dp(generate_synthetic(SyntheticConfig(p=0.65, n_points=20000, seed=1)))
    dp50 = dataset_dp(generate_synthetic(SyntheticConfig(p=0.5, n_points=20000, seed=1)))
    dt = time.perf_counter() - t0
    ok = (0.275 <= dp65 <= 0.315) and (dp50 <= 0.02) and dt < 5.0
    _report(1, "synthetic-bias-statistics", ok,
            f"dp(p=0.65)={dp65:.4f} dp(p=0.5)={dp50:.4f} runtime={dt:.2f}s")


def test_criterion_02_baseline_vs_procedural_training():
    bce, t_bce = _bundle("synth065_baseline")
    proc, t_proc = _bundle("synth065_procedural")
    assert not bce.errors and not proc.errors
    acc_b, gpf_b, dp_b = _agg(bce, "accuracy"), _agg(bce, "gpf_fae"), _agg(bce, "dp")
    acc_p, gpf_p, dp_p = _agg(proc, "accuracy"), _agg(proc, "gpf_fae"), _agg(proc, "dp")
    total = t_bce + t_proc
    ok = (
        0.866 <= acc_b <= 0.906
        and gpf_b <= 0.15
        and 0.29 <= dp_b <= 0.39
        and gpf_p >= 0.90
        and dp_p <= 0.28
        and acc_p >= 0.85
        and total < 600.0
    )
    _report(2, "biased-data-reproduction", ok,
            f"baseline: acc={acc_b:.3f} gpf={gpf_b:.3f} dp={dp_b:.3f} | "
            f"regularized: acc={acc_p:.3f} gpf={gpf_p:.3f} dp={dp_p:.3f} | "
            f"runtime={total:.0f}s")


def test_criterion_03_unbiased_data_procedural_training():
    proc, _ = _bundle("synth05_procedural")
    assert not proc.errors
    gpf, dp = _agg(proc, "gpf_fae"), _agg(proc, "dp")
    ok = gpf >= 0.90 and dp <= 0.05
    _report(3, "unbiased-data-fair-model", ok, f"gpf={gpf:.3f} dp={dp:.4f}")


def test_criterion_04_inverse_training_and_significance():
    inv05, _ = _bundle("synth05_inverse")
    inv65, _ = _bundle("synth065_inverse")
    proc05, _ = _bundle("synth05_procedural")
    proc65, _ = _bundle("synth065_procedural")
    assert not inv05.errors and not inv65.errors
    gpf05, dp05 = _agg(inv05, "gpf_fae"), _agg(inv05, "dp")
    gpf65, dp65 = _agg(inv65, "gpf_fae"), _agg(inv65, "dp")
    cmp05 = compare_scenarios([inv05, proc05], metric="dp")[0]
    cmp65 = compare_scenarios([inv65, proc65], metric="dp")[0]
    ok = (
        gpf05 <= 0.10
        and gpf65 <= 0.10
        and dp05 >= 0.08
        and dp65 >= 0.30
        and cmp05["significant"]
        and cmp65["significant"]
    )
    _report(4, "inverse-training-unfairness", ok,
            f"p=0.5: gpf={gpf05:.3f} dp={dp05:.3f} p_cmp={cmp05['p_value']:.2e} | "
            f"p=0.65: gpf={gpf65:.3f} dp={dp65:.3f} p_cmp={cmp65['p_value']:.2e}")


def test_criterion_05_dataset_bias_sweep_trend():
    rows = p_sweep((0.5, 0.65), 20, TrainConfig(mode="procedural", alpha=0.5), seed=2,
                   n_points=SyntheticConfig.n_points, n_permutations=MmdConfig.n_permutations)
    ps = [r["p"] for r in rows]
    dps = [r["dp"] for r in rows]
    gpfs = [r["gpf_fae"] for r in rows]
    rho = float(sstats.spearmanr(ps, dps).statistic)
    ok = rho >= 0.9 and all(g >= 0.8 for g in gpfs)
    _report(5, "bias-sweep-monotone-dp", ok,
            f"spearman={rho:.3f} min_gpf={min(gpfs):.3f} max_dp={max(dps):.3f}")


def test_criterion_06_sensitive_weight_sweep_shapes():
    data = generate_synthetic(SyntheticConfig(p=0.65, n_points=20000, seed=1))
    data = pearson_select(data, 0.30)
    rows = sweep_ws(data, (-5.0, 5.0), 101, seed=5, epochs=TrainConfig.epochs,
                    n_permutations=MmdConfig.n_permutations, p=0.65)
    ws = np.array([r["ws"] for r in rows])
    dp = np.array([r["dp"] for r in rows])
    gpf = np.array([r["gpf_fae"] for r in rows])

    i0 = int(np.argmin(np.abs(ws)))
    argmax_at_zero = gpf[i0] == gpf.max()
    argmin_negative = ws[int(np.argmin(dp))] < 0.0
    nondecreasing_right = bool(np.all(np.diff(dp[ws >= 0]) >= -1e-12))
    left_desc = dp[ws <= 0][::-1]  # walking from 0 down to the most negative
    j = int(np.argmin(left_desc))
    u_shaped_left = bool(
        np.all(np.diff(left_desc[: j + 1]) <= 1e-12)
        and np.all(np.diff(left_desc[j:]) >= -1e-12)
    )
    ok = argmax_at_zero and argmin_negative and nondecreasing_right and u_shaped_left
    _report(6, "decision-bias-sweep-shapes", ok,
            f"gpf@0={gpf[i0]:.3f} argmin_ws={ws[int(np.argmin(dp))]:+.2f} "
            f"right_mono={nondecreasing_right} left_U={u_shaped_left}")


def test_criterion_07_outcome_regularizer_contrast(tmp_path):
    dpreg, _ = _bundle("synth065_dp_regularized")
    assert not dpreg.errors
    dp, gpf = _agg(dpreg, "dp"), _agg(dpreg, "gpf_fae")

    cfg = ScenarioConfig.from_dict(load_preset("synth065_dp_regularized"))
    result = run_repetition(cfg, 0)
    summary = emit_sensitive_attributions(
        result.params, result.eval_set, tmp_path / "dpreg_attr.csv")
    flip = summary["mean_s2"] > summary["mean_s1"]
    ok = dp <= 0.10 and gpf <= 0.15 and flip
    _report(7, "outcome-optimizer-flips-preference", ok,
            f"dp={dp:.3f} gpf={gpf:.3f} mean_s1={summary['mean_s1']:+.3f} "
            f"mean_s2={summary['mean_s2']:+.3f}")


def test_criterion_08_numerical_oracles():
    rng = np.random.default_rng(2024)

    worst_fd = 0.0
    checked = 0
    while checked < 20:
        params, X = config_away_from_kinks(rng)
        m = X.shape[0]
        y = rng.integers(0, 2, m).astype(np.float64)
        group = rng.integers(0, 2, m)
        k = max(2, m // 2)
        pairs = PairSet(idx1=rng.integers(0, m, k), idx2=rng.integers(0, m, k),
                        distances=np.zeros(k))
        gpf_val, gpf_g = gpf_loss_grads(params, X, pairs)
        if gpf_val < 1e-3 or group.sum() in (0, m):
            continue
        dp_val, dp_g = dp_proxy_grads(params, X, group)
        if dp_val < 1e-3:
            continue
        _, bce_g = bce_loss_grads(params, X, y)
        for loss_fn, grads in (
            (lambda q: bce_loss_grads(q, X, y)[0], bce_g),
            (lambda q: gpf_loss_grads(q, X, pairs)[0], gpf_g),
            (lambda q: dp_proxy_grads(q, X, group)[0], dp_g),
        ):
            worst_fd = max(worst_fd, max_rel_error(grads, finite_diff_grads(loss_fn, params)))
        checked += 1

    worst_shap = 0.0
    for d in (2, 3, 4, 5, 6):
        params = random_mlp(rng, d, 6)
        predict = lambda X: mlp_logits(params, X)
        x = rng.normal(size=d)
        bg = rng.normal(size=(15, d))
        phi_k, _ = kernel_shap_batch(predict, x[None], bg, budget=2**d - 2)
        phi_e, _ = exact_shapley(predict, x, bg)
        worst_shap = max(worst_shap, float(np.abs(phi_k[0] - phi_e).max()))

    worst_eff = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 8))
        params = random_mlp(rng, d, 5)
        predict = lambda X: mlp_logits(params, X)
        x = rng.normal(size=d)
        bg = rng.normal(size=(12, d))
        phi, base = exact_shapley(predict, x, bg)
        worst_eff = max(worst_eff, abs(phi.sum() + base - float(predict(x[None])[0])))

    ok = worst_fd < 1e-4 and worst_shap < 1e-6 and worst_eff < 1e-9
    _report(8, "gradient-and-shapley-oracles", ok,
            f"fd_rel={worst_fd:.2e} shap_diff={worst_shap:.2e} efficiency={worst_eff:.2e}")


def test_criterion_09_permutation_test_calibration():
    rng = np.random.default_rng(77)
    cfg = MmdConfig(n_permutations=200, seed=0)
    pvals = []
    for trial in range(200):
        e1 = rng.normal(size=(40, 3))
        e2 = rng.normal(size=(40, 3))
        trial_cfg = MmdConfig(n_permutations=200, seed=trial)
        p, _ = mmd_permutation_pvalue(e1, e2, trial_cfg)
        pvals.append(p)
    ks = float(sstats.kstest(pvals, "uniform").statistic)

    e = rng.normal(size=(50, 3))
    p_ident, _ = mmd_permutation_pvalue(e, e.copy(), cfg)
    ok = ks <= 0.1 and p_ident == 1.0
    _report(9, "null-calibration", ok, f"ks={ks:.4f} identical_sets_p={p_ident}")


def test_criterion_10_training_overhead():
    bce, _ = _bundle("synth065_baseline")
    proc, _ = _bundle("synth065_procedural")
    t_bce = _agg(bce, "train_seconds")
    t_proc = _agg(proc, "train_seconds")
    ratio = t_proc / t_bce
    ok = ratio <= 3.0
    _report(10, "regularizer-overhead", ok,
            f"bce={t_bce:.2f}s regularized={t_proc:.2f}s ratio={ratio:.2f}")


def test_criterion_11_scenario_determinism():
    cfg = ScenarioConfig.from_dict(
        {
            "scenario_id": "determinism_probe",
            "dataset": {"kind": "synthetic", "p": 0.65, "n": 1500},
            "steps": [{"op": "pearson_select", "threshold": 0.30}],
            "split_ratio": 0.8,
            "train": {"mode": "procedural", "alpha": 0.5, "epochs": 120,
                      "lr": 0.01, "hidden": 16},
            "n_eval_pairs": 50,
            "background_size": 60,
            "mmd": {"n_permutations": 300},
            "repetitions": 2,
            "master_seed": 14,
        }
    )
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    same = a.metric_payload() == b.metric_payload()
    ok = same and len(a.reports) == 2
    _report(11, "bitwise-determinism", ok,
            f"payload_bytes={len(a.metric_payload())} identical={same}")
