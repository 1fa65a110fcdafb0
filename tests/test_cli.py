import json

from procfair.cli import main
from procfair.data import ColumnSchema, load_csv, preprocess


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
    back = preprocess(load_csv(out, schema), schema)
    assert back.n_rows == 500 and back.n_features == 4


def test_generate_validation_error_exit_1(tmp_path):
    assert main(["generate", "--p", "1.5", "--out", str(tmp_path / "x.csv")]) == 1


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


def test_scenario_run_unknown_config_key_exit_1(tmp_path, capsys):
    out_dir = str(tmp_path / "r")
    for key, over in (("repetition", {"repetition": 1}),
                      ("hiden", {"train": {"mode": "bce_only", "epochs": 40, "hiden": 8}}),
                      ("n_permutation", {"mmd": {"n_permutation": 150}}),
                      # out of range: fails at load time, not in every repetition
                      ("split_ratio", {"split_ratio": 1.0}),
                      ("n_eval_pairs", {"n_eval_pairs": 0}),
                      ("background_size", {"background_size": 0}),
                      # wrong type: fails at load time, not as a runtime failure
                      ("split_ratio", {"split_ratio": "0.8"}),
                      ("epochs", {"train": {"mode": "bce_only", "epochs": "2"}}),
                      ("n_eval_pairs", {"n_eval_pairs": True}),
                      ("threshold", {"steps": [{"op": "pearson_select",
                                                "threshold": "0.3"}]})):
        cfg = _write_small_scenario(tmp_path, **over)
        assert main(["scenario", "run", "--config", str(cfg), "--out", out_dir]) == 1
        assert key in capsys.readouterr().err
    cfg = _write_small_scenario(tmp_path)
    cfg.write_text(json.dumps({k: v for k, v in json.loads(cfg.read_text()).items()
                               if k != "scenario_id"}))
    assert main(["scenario", "run", "--config", str(cfg), "--out", out_dir]) == 1
    assert "missing top-level config key(s): scenario_id" in capsys.readouterr().err


def test_scenario_run_unknown_or_missing_spec_key_exit_1(tmp_path, capsys):
    out_dir = str(tmp_path / "r")
    for key, over in (("N", {"dataset": {"kind": "synthetic", "p": 0.65, "N": 500}}),
                      ("treshold", {"steps": [{"op": "pearson_select", "threshold": 0.3,
                                               "treshold": 0.1}]}),
                      ("dp_threshold", {"steps": [{"op": "resample_unfair"}]})):
        cfg = _write_small_scenario(tmp_path, **over)
        assert main(["scenario", "run", "--config", str(cfg), "--out", out_dir]) == 1
        assert key in capsys.readouterr().err


def test_train_runtime_failure_exit_2(tmp_path):
    cfg = _write_small_scenario(
        tmp_path, dataset={"kind": "csv", "path": "/missing.csv", "schema": "/m.json"}
    )
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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
    assert main(["sweep", "p", "--p", "0.5:0.6:2", "--n", "3", "--epochs", "5",
                 "--perms", "100", "--out", str(tmp_path / "p.csv")]) == 2
    assert "runtime failure: dataset:" in capsys.readouterr().err


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


def test_presets_cli(capsys):
    assert main(["presets", "list"]) == 0
    out = capsys.readouterr().out
    assert "synth065_procedural" in out
    assert main(["presets", "show", "synth065_procedural"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["train"]["alpha"] == 0.5
    assert main(["presets", "show"]) == 1
    assert main(["presets", "show", "bogus"]) == 1
