import json
import re

import numpy as np
import pytest

from oracles import exact_ranksum_pvalue
from procfair.scenarios import (
    ResultBundle,
    ScenarioConfig,
    StageError,
    compare_scenarios,
    emit_sensitive_attributions,
    list_presets,
    load_preset,
    prepare_repetition,
    ranksum_pvalue,
    run_repetition,
    run_scenario,
)


def small_scenario(**over) -> ScenarioConfig:
    base = {
        "scenario_id": "unit_small",
        "dataset": {"kind": "synthetic", "p": 0.65, "n": 1000},
        "steps": [],
        "split_ratio": 0.8,
        "train": {"mode": "bce_only", "epochs": 50, "lr": 0.01, "hidden": 8},
        "n_eval_pairs": 30,
        "background_size": 40,
        "mmd": {"n_permutations": 150},
        "repetitions": 2,
        "master_seed": 3,
    }
    base.update(over)
    return ScenarioConfig.from_dict(base)


def test_scenario_config_validation():
    with pytest.raises(ValueError, match="repetitions"):
        small_scenario(repetitions=0)
    with pytest.raises(ValueError, match="kind"):
        small_scenario(dataset={"kind": "parquet"})
    with pytest.raises(ValueError, match="'p'"):
        small_scenario(dataset={"kind": "synthetic"})
    with pytest.raises(ValueError, match="step"):
        small_scenario(steps=[{"op": "downsample"}])
    with pytest.raises(ValueError, match="mode"):
        small_scenario(train={"mode": "nope"})
    # out-of-range fields fail at load time, not in every repetition
    for field, bad in (("split_ratio", 0.0), ("split_ratio", 1.0), ("split_ratio", 1.5),
                       ("n_eval_pairs", 0), ("background_size", 0)):
        with pytest.raises(ValueError, match=field):
            small_scenario(**{field: bad})


def test_scenario_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="epoch"):
        small_scenario(train={"mode": "bce_only", "epoch": 5})
    with pytest.raises(ValueError, match="permutations"):
        small_scenario(mmd={"permutations": 200})
    with pytest.raises(ValueError, match="repetition"):
        small_scenario(repetition=2)
    for key in ("scenario_id", "dataset", "train"):
        obj = small_scenario().to_dict()
        del obj[key]
        with pytest.raises(ValueError, match=f"missing top-level config key.*{key}"):
            ScenarioConfig.from_dict(obj)
    with pytest.raises(ValueError, match="top-level config must be a JSON object, got list"):
        ScenarioConfig.from_dict([])
    # keys starting with an underscore are comments
    assert small_scenario(_note="free text").repetitions == 2


def test_scenario_config_rejects_unknown_and_missing_spec_keys():
    with pytest.raises(ValueError, match=r"key\(s\): N$"):
        small_scenario(dataset={"kind": "synthetic", "p": 0.65, "N": 500})
    with pytest.raises(ValueError, match="treshold"):
        small_scenario(steps=[{"op": "pearson_select", "threshold": 0.3, "treshold": 0.1}])
    with pytest.raises(ValueError, match="encoding"):
        small_scenario(dataset={"kind": "csv", "path": "/m.csv", "schema": "/m.json",
                                "encoding": "latin-1"})
    with pytest.raises(ValueError, match="seed"):
        small_scenario(steps=[{"op": "attach_fake_sensitive", "seed": 3}])
    # a missing required step key fails at load time, not mid-run
    with pytest.raises(ValueError, match="dp_threshold"):
        small_scenario(steps=[{"op": "resample_unfair", "threshold": 0.1}])
    with pytest.raises(ValueError, match="'threshold'"):
        small_scenario(steps=[{"op": "pearson_select"}])
    with pytest.raises(ValueError, match="'schema'"):
        small_scenario(dataset={"kind": "csv", "path": "/m.csv"})
    for name in list_presets():
        ScenarioConfig.from_dict(load_preset(name))


@pytest.mark.parametrize("field, over", [
    ("split_ratio", {"split_ratio": "0.8"}),
    ("repetitions", {"repetitions": 1.5}),
    ("n_eval_pairs", {"n_eval_pairs": True}),
    ("master_seed", {"master_seed": "3"}),
    ("epochs", {"train": {"mode": "bce_only", "epochs": "2"}}),
    ("hidden", {"train": {"mode": "bce_only", "hidden": 8.0}}),
    ("lr", {"train": {"mode": "bce_only", "lr": True}}),
    ("n_permutations", {"mmd": {"n_permutations": "200"}}),
    ("bandwidth", {"mmd": {"bandwidth": "1.0"}}),
    ("p", {"dataset": {"kind": "synthetic", "p": "0.65"}}),
    ("n", {"dataset": {"kind": "synthetic", "p": 0.65, "n": "300"}}),
    ("threshold", {"steps": [{"op": "pearson_select", "threshold": "0.3"}]}),
    ("dp_threshold", {"steps": [{"op": "resample_unfair", "dp_threshold": False}]}),
])
def test_scenario_config_rejects_wrong_typed_values(field, over):
    # a wrong type fails at load time, naming the field, instead of failing
    # every repetition or running a degenerate evaluation
    with pytest.raises(ValueError, match=rf"\b{field} must be (an integer|a number), got"):
        small_scenario(**over)


@pytest.mark.parametrize("message, over", [
    ("dataset must be a JSON object, got str", {"dataset": "synthetic"}),
    ("unknown dataset kind ['synthetic']", {"dataset": {"kind": ["synthetic"], "p": 0.65}}),
    ("unknown step op ['pearson_select']",
     {"steps": [{"op": ["pearson_select"], "threshold": 0.3}]}),
    ("steps must be a JSON list, got str", {"steps": "pearson_select"}),
    ("train config must be a JSON object, got int", {"train": 5}),
    ("mmd config must be a JSON object, got list", {"mmd": [1]}),
])
def test_scenario_config_rejects_wrong_shaped_sections(message, over):
    # a section of the wrong JSON shape is a validation error naming it,
    # not a TypeError from deep inside the loader
    with pytest.raises(ValueError, match=re.escape(message)):
        small_scenario(**over)


@pytest.mark.parametrize("field, over", [
    ("beta", {"train": {"mode": "dp_regularized", "beta": float("inf")}}),
    ("lr", {"train": {"mode": "bce_only", "lr": float("nan")}}),
    ("bandwidth", {"mmd": {"bandwidth": float("inf")}}),
    ("p", {"dataset": {"kind": "synthetic", "p": float("nan")}}),
    ("threshold", {"steps": [{"op": "pearson_select", "threshold": float("-inf")}]}),
])
def test_scenario_config_rejects_non_finite_numbers(tmp_path, field, over):
    # JSON's Infinity and NaN load as floats; each fails at load time, naming the field
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**small_scenario().to_dict(), **over}))
    with pytest.raises(ValueError, match=rf"\b{field} must be finite, got"):
        ScenarioConfig.from_json(path)


def test_scenario_config_float_fields_accept_ints():
    cfg = small_scenario(dataset={"kind": "synthetic", "p": 1, "n": 1000},
                         train={"mode": "bce_only", "lr": 1, "alpha": 0},
                         mmd={"n_permutations": 150, "bandwidth": None})
    assert cfg.dataset["p"] == 1 and cfg.train["lr"] == 1


def test_scenario_config_json_round_trip(tmp_path):
    cfg = small_scenario()
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    back = ScenarioConfig.from_json(path)
    assert back == cfg
    assert back.hash() == cfg.hash()


def test_run_scenario_aggregate_and_rerun_identical(tmp_path):
    cfg = small_scenario()
    bundle = run_scenario(cfg, out_dir=tmp_path)
    assert len(bundle.reports) == 2 and not bundle.errors
    # aggregate is recomputable from the per-repetition entries
    for name in ("accuracy", "dp", "gpf_fae"):
        values = [r[name] for r in bundle.reports]
        assert bundle.aggregate[name]["mean"] == pytest.approx(np.mean(values), abs=1e-12)
        assert bundle.aggregate[name]["std"] == pytest.approx(np.std(values), abs=1e-12)

    path = tmp_path / "unit_small.bundle.json"
    assert path.exists()
    loaded = ResultBundle.from_json(path)
    assert loaded.metric_payload() == bundle.metric_payload()

    again = run_scenario(cfg)
    assert again.metric_payload() == bundle.metric_payload()


def test_run_scenario_single_repetition_aggregate_equals_report():
    cfg = small_scenario(repetitions=1)
    bundle = run_scenario(cfg)
    rep = bundle.reports[0]
    assert bundle.aggregate["dp"]["mean"] == rep["dp"]
    assert bundle.aggregate["dp"]["std"] == 0.0


def test_run_scenario_records_stage_errors():
    cfg = small_scenario(
        dataset={"kind": "csv", "path": "/missing.csv", "schema": "/missing.json"},
        repetitions=2,
    )
    bundle = run_scenario(cfg)
    assert not bundle.reports
    assert len(bundle.errors) == 2
    assert all(e["stage"] == "dataset" for e in bundle.errors)


def test_run_repetition_stage_error_type():
    cfg = small_scenario(dataset={"kind": "csv", "path": "/m.csv", "schema": "/m.json"})
    with pytest.raises(StageError) as err:
        run_repetition(cfg, 0)
    assert err.value.stage == "dataset"


def test_non_finite_csv_cell_fails_at_dataset_stage(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["a,b,y,s"] + [f"{rng.normal()!r},{rng.normal()!r},{i % 2},{i // 2 % 2}"
                           for i in range(40)]
    lines[7] = "nan" + lines[7][lines[7].index(","):]  # data row 7, column a
    (tmp_path / "d.csv").write_text("\n".join(lines) + "\n")
    roles = {"a": "feature", "b": "feature", "y": "label", "s": "sensitive"}
    (tmp_path / "d.schema.json").write_text(json.dumps({"roles": roles, "advantaged": "1"}))
    cfg = small_scenario(dataset={"kind": "csv", "path": str(tmp_path / "d.csv"),
                                  "schema": str(tmp_path / "d.schema.json")})
    with pytest.raises(StageError, match="column 'a' row 7: non-finite value 'nan'") as err:
        prepare_repetition(cfg, 0)
    assert err.value.stage == "dataset"


def test_prepare_repetition_matches_run(tmp_path):
    cfg = small_scenario()
    train_ds, test_ds, pairs, background, mmd_cfg = prepare_repetition(cfg, 0)
    assert train_ds.n_rows == 800 and test_ds.n_rows == 200
    assert len(pairs) == 30
    assert background.shape == (40, 4)


def test_ranksum_exact_matches_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = rng.normal(size=int(rng.integers(3, 7)))
        y = rng.normal(size=int(rng.integers(3, 7))) + rng.normal() * 0.5
        assert ranksum_pvalue(x, y) == pytest.approx(exact_ranksum_pvalue(x, y), abs=1e-10)


def test_ranksum_separated_samples():
    p = ranksum_pvalue(np.arange(1, 11), np.arange(11, 21))
    assert p < 0.001
    # enumeration oracle: most extreme split has p = 2 / C(20, 10)
    assert p == pytest.approx(2.0 / 184756.0, rel=1e-9)


def test_ranksum_identical_samples():
    assert ranksum_pvalue([1.0, 1.0, 1.0], [1.0, 1.0]) == 1.0
    p = ranksum_pvalue([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert p > 0.9


def test_compare_scenarios():
    def fake_bundle(sid, dps):
        reports = [
            {"repetition": i, "accuracy": 0.9, "dp": dp, "di": 1.0, "eop": 0.1,
             "eod": 0.1, "gpf_fae": 0.5, "gpf_loss": 0.2,
             "train_seconds": 1.0, "eval_seconds": 0.1}
            for i, dp in enumerate(dps)
        ]
        return ResultBundle(
            scenario={"scenario_id": sid}, config_hash="x", version="0",
            timestamp="t", reports=reports, errors=[], aggregate={},
        )

    a = fake_bundle("a", [0.30, 0.31, 0.29, 0.32, 0.28])
    b = fake_bundle("b", [0.10, 0.11, 0.09, 0.12, 0.08])
    rows = compare_scenarios([a, b], metric="dp", alpha=0.05)
    assert len(rows) == 1
    assert rows[0]["significant"] is True
    assert rows[0]["p_value"] < 0.01

    same = compare_scenarios([a, fake_bundle("c", [0.30, 0.31, 0.29, 0.32, 0.28])],
                             metric="dp")
    assert same[0]["significant"] is False

    with pytest.raises(ValueError, match="at least two"):
        compare_scenarios([a])
    with pytest.raises(ValueError, match="mismatched"):
        compare_scenarios([a, fake_bundle("d", [0.1, 0.2])])
    with pytest.raises(ValueError, match=r"unknown metric 'foo'; expected one of \['accuracy'"):
        compare_scenarios([a, b], metric="foo")
    for alpha in (0.0, 1.0, 7.0, float("nan")):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            compare_scenarios([a, b], alpha=alpha)

    all_metrics = compare_scenarios([a, b])
    assert {r["metric"] for r in all_metrics} == {
        "accuracy", "dp", "di", "eop", "eod", "gpf_fae", "gpf_loss"
    }


def test_emit_sensitive_attributions(tmp_path):
    cfg = small_scenario()
    result = run_repetition(cfg, 0)
    pairs = result.pairs
    out = tmp_path / "attrs.csv"
    summary = emit_sensitive_attributions(result.params, result.test_ds, pairs, out,
                                          background=result.background, cfg_hash="h")
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# config_hash=h"
    assert lines[1] == "row_ref,group,shap_sensitive"
    assert len(lines) == 2 + 2 * len(pairs) + 2  # data rows plus two summary rows
    assert lines[-2].startswith("mean_s1,1,")
    assert lines[-1].startswith("mean_s2,0,")
    # summary means match a direct recomputation from the data rows
    vals = [(int(l.split(",")[1]), float(l.split(",")[2])) for l in lines[2:-2]]
    s1 = np.mean([v for g, v in vals if g == 1])
    s2 = np.mean([v for g, v in vals if g == 0])
    assert summary["mean_s1"] == pytest.approx(s1, abs=1e-12)
    assert summary["mean_s2"] == pytest.approx(s2, abs=1e-12)


def test_scenario_steps_run_in_order(tmp_path):
    # resample first (raises dataset DP), then swap in a random fake tag
    cfg = small_scenario(
        scenario_id="stepped",
        dataset={"kind": "synthetic", "p": 0.55, "n": 1200},
        steps=[{"op": "resample_unfair", "dp_threshold": 0.15},
               {"op": "attach_fake_sensitive"}],
    )
    result = run_repetition(cfg, 0)
    ds = result.test_ds
    # fake tag became the sensitive attribute and sits in the features
    assert ds.feature_names[-1] == "fake_sensitive"
    assert ds.sensitive_col == ds.n_features - 1
    # resampling grew the dataset before the 80/20 split
    assert ds.n_rows > 0.2 * 1200
    assert result.report.accuracy > 0.5


def test_fsa_inverse_scenario_is_process_unfair():
    # inverse optimization against a random group tag still breaks the
    # decision process even though the data carries no real group signal
    cfg = ScenarioConfig.from_dict(load_preset("synth05_fsa_inverse"))
    cfg = ScenarioConfig.from_dict({**cfg.to_dict(), "repetitions": 1,
                                    "dataset": {"kind": "synthetic", "p": 0.5, "n": 4000}})
    bundle = run_scenario(cfg)
    assert not bundle.errors
    assert bundle.reports[0]["gpf_fae"] <= 0.10


def test_presets_are_valid():
    names = list_presets()
    assert "synth065_baseline" in names and "synth065_procedural" in names
    for name in names:
        cfg = ScenarioConfig.from_dict(load_preset(name))
        assert cfg.repetitions >= 1
    with pytest.raises(ValueError, match="unknown preset"):
        load_preset("nope")
