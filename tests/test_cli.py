import json
from pathlib import Path

import numpy as np
import pytest

from procfair import cli, fairness
from procfair.cli import main
from procfair.data import ColumnSchema, load_csv, preprocess
from procfair.explain import _EXHAUSTIVE_MAX_D
from procfair.fairness import mmd_permutation_pvalue
from procfair.model import mlp_init, save_params
from procfair.scenarios import ScenarioConfig, prepare_repetition
from test_csv_gate import _write_config


def _write_small_scenario(tmp_path, **over):
    cfg = {
        "scenario_id": "cli_small",
        "dataset": {"kind": "synthetic", "p": 0.65, "n": 800},
        "steps": [],
        "split_ratio": 0.8,
        "train": {"mode": "bce_only", "epochs": 40, "lr": 0.01, "hidden": 8},
        "n_eval_pairs": 25,
        "background_size": 30,
        "mmd": {"n_permutations": 150},
        "repetitions": 2,
        "master_seed": 5,
    }
    cfg.update(over)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_generate_writes_csv_and_schema(tmp_path, capsys):
    out = tmp_path / "data.csv"
    rc = main(["generate", "--p", "0.65", "--n", "500", "--seed", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "x1,x2,xp,xs,label,group"
    assert len(lines) == 2 + 500
    schema_path = tmp_path / "data.csv.schema.json"
    assert schema_path.exists()
    schema = ColumnSchema.from_json(schema_path)
    back = preprocess(load_csv(out), schema)
    assert back.n_rows == 500 and back.n_features == 4


def test_generate_validation_error_exit_1(tmp_path):
    assert main(["generate", "--p", "1.5", "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("argv", [
    ["generate", "--p", "0.5", "--seed", "-1"],
    ["train", "--preset", "synth065_baseline", "--seed", "-1"],
    ["train", "--preset", "synth065_baseline", "--rep", "-3"],
    ["evaluate", "--model", "m.json", "--preset", "synth065_baseline", "--rep", "-3"],
    ["scenario", "run", "--preset", "synth065_baseline", "--seed", "-1"],
    ["sweep", "ws", "--seed", "-1"],
    ["sweep", "p", "--seed", "-1"],
    ["sweep", "grid", "--seed", "-1"],
    ["explain", "dump", "--preset", "synth065_baseline", "--rep", "-3"],
    ["explain", "dump", "--preset", "synth065_baseline", "--seed", "1.5"],
], ids=lambda argv: " ".join([w for w in argv if w.isalpha()] + argv[-2:]))
def test_negative_seed_or_rep_exit_1(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    flag, value = argv[-2:]
    assert f"argument {flag}: expected a non-negative integer, got '{value}'" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "grid", "--epochs", "0"], "argument --epochs: epochs must be >= 1"),
    (["sweep", "ws", "--epochs", "-2"], "argument --epochs: epochs must be >= 1"),
    (["sweep", "p", "--epochs", "0"], "argument --epochs: epochs must be >= 1"),
    (["sweep", "ws", "--perms", "50"], "argument --perms: n_permutations must be >= 100"),
    (["sweep", "grid", "--perms", "99"], "argument --perms: n_permutations must be >= 100"),
    (["sweep", "ws", "--n", "-5"], "argument --n: n_points must be >= 4"),
    (["sweep", "p", "--n", "3"], "argument --n: n_points must be >= 4"),
    (["sweep", "p", "--alpha", "nan"], "argument --alpha: alpha must be finite, got nan"),
    (["sweep", "ws", "--pearson", "2.0"], "argument --pearson: threshold must lie in (0, 1]"),
    (["sweep", "grid", "--pearson", "nan"], "argument --pearson: threshold must lie in (0, 1]"),
    (["sweep", "ws", "--ws", "1:-1:3"], "argument --ws: range must satisfy lo < hi"),
    (["sweep", "grid", "--p", "0.5:0.6:1"], "argument --p: range count must be >= 2"),
    (["sweep", "ws", "--ws", "0:inf:3"], "argument --ws: range bounds must be finite"),
    (["sweep", "grid", "--ws", "0:inf:3"], "argument --ws: range bounds must be finite"),
    (["sweep", "ws", "--ws", "nan:1:3"], "argument --ws: range bounds must be finite"),
    (["sweep", "ws", "--ws", "-inf:0:3"], "argument --ws: range bounds must be finite"),
    (["sweep", "grid", "--ws", "-1:inf:3"], "argument --ws: range bounds must be finite"),
    (["sweep", "p", "--p", "-0.5:nan:2"], "argument --p: range bounds must be finite"),
    (["sweep", "p", "--p", "nan:0.6:2"], "argument --p: range bounds must be finite"),
    (["sweep", "ws", "--p", "1.5"], "argument --p: p must lie in [0, 1]"),
    (["sweep", "p", "--p", "0.9:1.1:2"], "argument --p: p must lie in [0, 1], got 1.1"),
    (["sweep", "grid", "--p", "0.9:1.5:2"], "argument --p: p must lie in [0, 1], got 1.5"),
    (["generate", "--p", "1.5"], "argument --p: p must lie in [0, 1]"),
    (["generate", "--p", "0.5", "--n", "3"], "argument --n: n_points must be >= 4"),
    (["scenario", "run", "--preset", "synth065_baseline", "--reps", "0"],
     "argument --reps: repetitions must be >= 1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_out_of_range_flag_exit_1_naming_it(tmp_path, capsys, argv, message):
    # --out is a file for the sweeps and a directory for scenario run; either
    # way nothing is written, because the flag fails before any fit.
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("the work ran before --out was checked")


@pytest.mark.parametrize("argv, existing", [
    pytest.param(["generate", "--p", "0.5"], "dir", id="generate"),
    pytest.param(["sweep", "ws"], "dir", id="sweep ws"),
    pytest.param(["sweep", "p"], "dir", id="sweep p"),
    pytest.param(["sweep", "grid"], "dir", id="sweep grid"),
    pytest.param(["explain", "dump", "--preset", "synth065_baseline"], "dir", id="explain dump"),
    pytest.param(["scenario", "compare", "a.json", "b.json"], "dir", id="scenario compare"),
    pytest.param(["train", "--preset", "synth065_baseline"], "file", id="train"),
    pytest.param(["evaluate", "--preset", "synth065_baseline", "--model", "m.json"], "file",
                 id="evaluate"),
    pytest.param(["scenario", "run", "--preset", "synth065_baseline"], "file",
                 id="scenario run"),
    pytest.param(["sweep", "ws"], "under a file", id="sweep ws under a file"),
    pytest.param(["scenario", "compare", "a.json", "b.json"], "under a file",
                 id="scenario compare under a file"),
    pytest.param(["train", "--preset", "synth065_baseline"], "under a file",
                 id="train under a file"),
])
def test_out_of_the_wrong_kind_exit_1_before_the_work(tmp_path, monkeypatch, capsys, argv,
                                                      existing):
    # a file output given an existing directory, a directory output given an
    # existing file, and any output under an existing file are named before
    # any data is made or model fitted
    for name in ("generate_synthetic", "_selected_synthetic", "sweep_ws", "sweep_p_ws",
                 "p_sweep", "run_repetition", "prepare_repetition", "run_scenario"):
        monkeypatch.setattr(cli, name, _no_work)
    out = blocker = tmp_path / "out"
    if existing == "dir":
        out.mkdir()
    else:
        out.write_text("kept")
    if existing == "under a file":
        out = blocker / "sub" / "x.csv"
    assert main([*argv, "--out", str(out)]) == 1
    kind = "a directory" if existing == "dir" else "not a directory"
    assert f"argument --out: {blocker} exists and is {kind}" in capsys.readouterr().err
    assert out.is_dir() if existing == "dir" else blocker.read_text() == "kept"


def test_unknown_subcommand_and_flag_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["generate", "--p", "0.5", "--bogus", "x"]) == 1
    assert main([]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0


def test_scenario_run_and_compare(tmp_path, capsys):
    cfg_a = _write_small_scenario(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["scenario", "run", "--config", str(cfg_a), "--out", str(out_dir)]) == 0
    bundle_a = out_dir / "cli_small.bundle.json"
    assert bundle_a.exists()
    obj = json.loads(bundle_a.read_text())
    assert obj["config_hash"] and len(obj["reports"]) == 2

    cfg_b = _write_small_scenario(
        tmp_path, scenario_id="cli_small_b",
        train={"mode": "procedural", "alpha": 0.5, "epochs": 40, "lr": 0.01, "hidden": 8},
    )
    cfg_b.rename(tmp_path / "b.json")
    assert main(["scenario", "run", "--config", str(tmp_path / "b.json"),
                 "--out", str(out_dir)]) == 0
    cmp_out = tmp_path / "cmp.json"
    rc = main(["scenario", "compare", str(bundle_a),
               str(out_dir / "cli_small_b.bundle.json"),
               "--metric", "gpf_loss", "--out", str(cmp_out)])
    assert rc == 0
    rows = json.loads(cmp_out.read_text())
    assert rows[0]["metric"] == "gpf_loss" and rows[0]["p_value"] is not None


def test_scenario_run_reps_and_seed_override(tmp_path):
    cfg = _write_small_scenario(tmp_path)
    out_dir = tmp_path / "r"
    assert main(["scenario", "run", "--config", str(cfg), "--out", str(out_dir),
                 "--reps", "1", "--seed", "9"]) == 0
    obj = json.loads((out_dir / "cli_small.bundle.json").read_text())
    assert len(obj["reports"]) == 1
    assert obj["scenario"]["master_seed"] == 9


def test_train_then_evaluate(tmp_path):
    cfg = _write_small_scenario(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    model = out_dir / "model.json"
    assert model.exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert 0.5 <= report["accuracy"] <= 1.0

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--model", str(model), "--config", str(cfg),
                 "--out", str(eval_dir)]) == 0
    rep2 = json.loads((eval_dir / "report.json").read_text())
    # same split and pairs: evaluation reproduces the training-run metrics
    assert rep2["accuracy"] == report["accuracy"]
    assert rep2["gpf_fae"] == report["gpf_fae"]


def test_train_and_evaluate_check_out_before_the_work(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the repetition ran before --out was checked")

    monkeypatch.setattr(cli, "run_repetition", no_work)
    monkeypatch.setattr(cli, "prepare_repetition", no_work)
    monkeypatch.delenv("PROCFAIR_OUT", raising=False)
    cfg = _write_small_scenario(tmp_path)
    model = tmp_path / "model.json"
    save_params(mlp_init(4, 8, seed=0), model)
    for argv in (["train"], ["evaluate", "--model", str(model)]):
        assert main([*argv, "--config", str(cfg)]) == 1
        assert "provide --out DIR or set PROCFAIR_OUT" in capsys.readouterr().err


def test_evaluate_model_with_unknown_key_exit_1(tmp_path, capsys):
    cfg = _write_small_scenario(tmp_path)
    model = tmp_path / "model.json"
    save_params(mlp_init(4, 8, seed=0), model)
    model.write_text(json.dumps({**json.loads(model.read_text()), "hiden_size": 8}))
    assert main(["evaluate", "--model", str(model), "--config", str(cfg),
                 "--out", str(tmp_path / "eval")]) == 1
    assert "unknown model key(s): hiden_size" in capsys.readouterr().err


def test_model_input_size_must_match_scenario_features_exit_1(tmp_path, capsys):
    # a 4-input model against a 5-feature scenario is named as a mismatch,
    # not a matmul error, and neither command writes its output
    cfg = _write_small_scenario(tmp_path, steps=[{"op": "attach_fake_sensitive"}])
    model = tmp_path / "model.json"
    save_params(mlp_init(4, 8, seed=0), model)
    for argv in (["evaluate", "--out", str(tmp_path / "eval")],
                 ["explain", "dump", "--out", str(tmp_path / "attr.csv")]):
        assert main([*argv, "--model", str(model), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "has input_size 4, but scenario 'cli_small' has 5 features" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "scenario.json"]


def test_scenario_run_unknown_config_key_exit_1(tmp_path, capsys):
    out_dir = str(tmp_path / "r")
    for key, over in (("repetition", {"repetition": 1}),
                      ("hiden", {"train": {"mode": "bce_only", "epochs": 40, "hiden": 8}}),
                      ("n_permutation", {"mmd": {"n_permutation": 150}}),
                      # out of range: fails at load time, not in every repetition
                      ("split_ratio", {"split_ratio": 1.0}),
                      ("n_eval_pairs", {"n_eval_pairs": 0}),
                      ("background_size", {"background_size": 0}),
                      ("pearson_select step threshold must lie in (0, 1]",
                       {"steps": [{"op": "pearson_select", "threshold": 2.0}]}),
                      # wrong type: fails at load time, not as a runtime failure
                      ("split_ratio", {"split_ratio": "0.8"}),
                      ("epochs", {"train": {"mode": "bce_only", "epochs": "2"}}),
                      ("n_eval_pairs", {"n_eval_pairs": True}),
                      ("threshold", {"steps": [{"op": "pearson_select",
                                                "threshold": "0.3"}]}),
                      # wrong shape: fails at load time, naming the section
                      ("dataset must be", {"dataset": "synthetic"}),
                      ("dataset kind", {"dataset": {"kind": ["synthetic"], "p": 0.65}}),
                      ("step op", {"steps": [{"op": ["pearson_select"], "threshold": 0.3}]}),
                      ("steps must be", {"steps": "pearson_select"}),
                      ("train config must be", {"train": 5}),
                      ("mmd config must be", {"mmd": [1]}),
                      # a synthetic dataset out of range fails before any repetition runs
                      ("p must lie in [0, 1], got 1.5", {"dataset": {"kind": "synthetic",
                                                                     "p": 1.5}}),
                      ("n_points must be >= 4, got 2", {"dataset": {"kind": "synthetic",
                                                                    "p": 0.65, "n": 2}}),
                      # seeds are derived from master_seed, so a config cannot set one
                      ("train config may not set 'seed': seeds come from master_seed",
                       {"train": {"mode": "bce_only", "epochs": 40, "seed": 1}}),
                      ("mmd config may not set 'seed'", {"mmd": {"n_permutations": 150,
                                                                 "seed": 42}}),
                      # the bundle is named by scenario_id inside --out, and the
                      # csv paths and the resample target fail before any repetition
                      ("scenario_id", {"scenario_id": 5}),
                      ("scenario_id", {"scenario_id": None}),
                      ("scenario_id", {"scenario_id": "sub/../../escaped"}),
                      ("csv dataset path must be a string",
                       {"dataset": {"kind": "csv", "path": 5, "schema": "/m.json"}}),
                      ("dp_threshold must lie in [0, 1), got 10",
                       {"steps": [{"op": "resample_unfair", "dp_threshold": 10}]})):
        cfg = _write_small_scenario(tmp_path, **over)
        assert main(["scenario", "run", "--config", str(cfg), "--out", out_dir]) == 1
        assert key in capsys.readouterr().err
    assert not (tmp_path / "r").exists()  # no bundle, not even one of StageErrors
    assert not list(tmp_path.glob("*.bundle.json"))
    cfg = _write_small_scenario(tmp_path)
    cfg.write_text(json.dumps({k: v for k, v in json.loads(cfg.read_text()).items()
                               if k != "scenario_id"}))
    assert main(["scenario", "run", "--config", str(cfg), "--out", out_dir]) == 1
    assert "missing top-level config key(s): scenario_id" in capsys.readouterr().err


def _bundle_obj(scenario_id):
    report = {"repetition": 0, "accuracy": 0.9, "dp": 0.1, "di": 1.0, "eop": 0.1,
              "eod": 0.1, "gpf_fae": 0.5, "gpf_loss": 0.2}
    return {"scenario": {"scenario_id": scenario_id}, "config_hash": "h", "version": "0",
            "timestamp": "t", "reports": [report], "errors": [], "aggregate": {}}


def test_scenario_compare_malformed_bundle_exit_1(tmp_path, capsys):
    good = _bundle_obj("a")
    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(good))
    bad_path = tmp_path / "bad.json"
    for named, bad in (("missing bundle key(s): aggregate",
                        {k: v for k, v in good.items() if k != "aggregate"}),
                       ("bundle must be a JSON object, got list", [good]),
                       ("unknown bundle key(s): extra", {**good, "extra": 1}),
                       ("bundle reports must be a JSON list of objects", {**good, "reports": 5}),
                       ("bundle errors must be a JSON list of objects", {**good, "errors": [1]}),
                       ("bundle scenario must be a JSON object with a string scenario_id",
                        {**good, "scenario": 5}),
                       ("bundle scenario must be a JSON object with a string scenario_id",
                        {**good, "scenario": {"scenario_id": 7}}),
                       ("bundle scenario must be a JSON object with a string scenario_id",
                        {**good, "scenario": {}}),
                       ("bundle report 0 lacks metric key(s): accuracy, dp, di, eop, eod, "
                        "gpf_fae, gpf_loss", {**good, "reports": [{"repetition": 0}]}),
                       *((f"bundle report 0 accuracy must be {problem}",
                          {**good, "reports": [{**good["reports"][0], "accuracy": value}]})
                         for value, problem in (({"a": 1}, "a number, got {'a': 1}"),
                                                ("NaN", "a number, got 'NaN'"),
                                                (True, "a number, got True"),
                                                ("x", "a number, got 'x'"),
                                                ([1], "a number, got [1]"),
                                                (float("nan"), "finite, got nan")))):
        bad_path.write_text(json.dumps(bad))
        assert main(["scenario", "compare", str(good_path), str(bad_path)]) == 1
        assert named in capsys.readouterr().err


def test_scenario_compare_bad_metric_or_alpha_exit_1(tmp_path, capsys):
    paths = []
    for sid in ("a", "b"):
        paths.append(str(tmp_path / f"{sid}.json"))
        (tmp_path / f"{sid}.json").write_text(json.dumps(_bundle_obj(sid)))
    assert main(["scenario", "compare", *paths, "--metric", "foo"]) == 1
    assert "unknown metric 'foo'; expected one of ['accuracy'," in capsys.readouterr().err
    assert main(["scenario", "compare", *paths, "--alpha", "7"]) == 1
    assert "alpha must be in (0, 1), got 7.0" in capsys.readouterr().err


def test_scenario_run_unknown_or_missing_spec_key_exit_1(tmp_path, capsys):
    out_dir = str(tmp_path / "r")
    for key, over in (("N", {"dataset": {"kind": "synthetic", "p": 0.65, "N": 500}}),
                      ("treshold", {"steps": [{"op": "pearson_select", "threshold": 0.3,
                                               "treshold": 0.1}]}),
                      ("dp_threshold", {"steps": [{"op": "resample_unfair"}]})):
        cfg = _write_small_scenario(tmp_path, **over)
        assert main(["scenario", "run", "--config", str(cfg), "--out", out_dir]) == 1
        assert key in capsys.readouterr().err


def _write_schema(tmp_path, obj) -> str:
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_train_runtime_failure_exit_2(tmp_path):
    # the schema is valid, so the missing CSV fails inside the repetition
    schema = _write_schema(tmp_path, {"roles": {"x": "feature", "y": "label", "s": "sensitive"},
                                      "advantaged": "1"})
    cfg = _write_small_scenario(
        tmp_path, dataset={"kind": "csv", "path": "/missing.csv", "schema": schema}
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


BAD_SCHEMAS = (
    ("schema roles must be a JSON object, got list", {"roles": ["a"], "advantaged": "1"}),
    ("missing schema key(s): advantaged", {"roles": {"y": "label", "s": "sensitive"}}),
    ("No such file", None),
)


def _bad_schema_configs(tmp_path):
    """(expected message, config path) of a csv scenario per bad schema."""
    for message, obj in BAD_SCHEMAS:
        schema = _write_schema(tmp_path, obj) if obj else str(tmp_path / "missing.json")
        yield message, _write_small_scenario(
            tmp_path, dataset={"kind": "csv", "path": "/missing.csv", "schema": schema})


def test_train_bad_schema_exit_1(tmp_path, capsys):
    # the schema is read when the config loads, before any repetition runs
    for message, cfg in _bad_schema_configs(tmp_path):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "dataset.schema" in err and message in err
    assert not (tmp_path / "o").exists()


def test_scenario_run_bad_schema_exit_1(tmp_path, capsys):
    for message, cfg in _bad_schema_configs(tmp_path):
        assert main(["scenario", "run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "dataset.schema" in err and message in err
    assert not (tmp_path / "r").exists()  # no bundle of failed repetitions


def test_sweep_grid_csv(tmp_path):
    out = tmp_path / "grid.csv"
    rc = main(["sweep", "grid", "--p", "0.45:0.55:2", "--ws", "-1:1:3",
               "--n", "600", "--epochs", "60", "--perms", "150", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert len(lines) == 2 + 6


def test_sweep_ws_csv(tmp_path):
    out = tmp_path / "ws.csv"
    rc = main(["sweep", "ws", "--p", "0.6", "--ws", "-1:1:5", "--n", "800",
               "--epochs", "60", "--perms", "150", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 + 5
    header = lines[1].split(",")
    assert header == ["p", "ws", "ws_normalized", "dp", "gpf_fae", "acc"]


def test_sweep_p_csv(tmp_path):
    out = tmp_path / "p.csv"
    rc = main(["sweep", "p", "--p", "0.5:0.6:2", "--n", "600", "--epochs", "60",
               "--perms", "150", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 + 2
    assert lines[1].split(",") == ["p", "dataset_dp", "acc", "dp", "gpf_fae", "gpf_loss"]


_SWEEP_RANGES = {"ws": ["--p", "0.6", "--ws", "-1:1:2"], "p": ["--p", "0.5:0.6:2"],
                 "grid": ["--p", "0.5:0.6:2", "--ws", "-1:1:2"]}


def _sweep_hash_line(tmp_path, cmd, **flags):
    out = tmp_path / f"{cmd}.csv"
    argv = ["sweep", cmd, *_SWEEP_RANGES[cmd], "--n", "400", "--out", str(out)]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    assert main(argv) == 0
    return out.read_text().splitlines()[0]


def test_sweep_config_hash_covers_every_flag_read(tmp_path):
    base = {"epochs": 5, "perms": 100}
    changed = {"epochs": 6, "perms": 101, "pearson": 0.5}
    for cmd, read in (("ws", ("epochs", "perms", "pearson")), ("p", ("epochs", "perms")),
                      ("grid", ("epochs", "perms", "pearson"))):
        first = _sweep_hash_line(tmp_path, cmd, **base)
        assert _sweep_hash_line(tmp_path, cmd, **base) == first
        for flag in read:
            assert _sweep_hash_line(tmp_path, cmd, **{**base, flag: changed[flag]}) != first, \
                (cmd, flag)


def test_sweep_p_rejects_pearson_exit_1(tmp_path):
    # sweep p selects no features, so it offers no feature-selection threshold
    assert main(["sweep", "p", "--p", "0.5:0.6:2", "--n", "400", "--epochs", "5",
                 "--perms", "100", "--pearson", "0.3", "--out", str(tmp_path / "p.csv")]) == 1
    assert not (tmp_path / "p.csv").exists()


def test_sweep_p_failing_point_exit_2(tmp_path, capsys):
    # 4 or 6 rows leave a test split without a cross-group pair; every sweep
    # reports the stage as a runtime failure
    for argv in (["p", "--p", "0.5:0.6:2", "--n", "4"],
                 ["ws", "--ws", "-1:1:2", "--n", "6"],
                 ["grid", "--p", "0.5:0.6:2", "--ws", "-1:1:2", "--n", "6"]):
        assert main(["sweep", *argv, "--epochs", "5", "--perms", "100",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "runtime failure: evaluate:" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


def test_sweep_bad_range_exit_1(tmp_path):
    assert main(["sweep", "grid", "--p", "0.5", "--ws", "-1:1:3",
                 "--out", str(tmp_path / "g.csv")]) == 1


def test_explain_dump(tmp_path):
    cfg = _write_small_scenario(tmp_path)
    out = tmp_path / "attr.csv"
    assert main(["explain", "dump", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "row_ref,group,shap_sensitive"
    assert lines[-1].startswith("mean_s2,")


def test_explain_dump_writes_the_attributions_gpf_fae_tested(tmp_path, monkeypatch):
    # at d = 14 KernelSHAP samples its coalitions, so the dump agrees with
    # the metric only when both explain with the repetition's MMD seed
    monkeypatch.chdir(tmp_path)
    _write_config(n_rows=1500, epochs=5)
    tested = []

    def spy(e1, e2, cfg):
        tested.append(np.vstack([e1, e2]))
        return mmd_permutation_pvalue(e1, e2, cfg)

    monkeypatch.setattr(fairness, "mmd_permutation_pvalue", spy)
    assert main(["explain", "dump", "--config", "cfg.json", "--out", "attr.csv"]) == 0
    test_ds = prepare_repetition(ScenarioConfig.from_json("cfg.json"), 0)[1].test
    assert test_ds.n_features == 14 > _EXHAUSTIVE_MAX_D
    rows = Path("attr.csv").read_text().strip().splitlines()[2:-2]
    dumped = [float(line.split(",")[2]) for line in rows]
    assert len(tested) == 1 and dumped == tested[0][:, test_ds.sensitive_col].tolist()


def test_presets_cli(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    assert "synth065_procedural" in out
    assert main(["presets", "show", "synth065_procedural"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["train"]["alpha"] == 0.5
    assert main(["presets", "show"]) == 1
    assert main(["presets", "show", "bogus"]) == 1
