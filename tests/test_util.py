"""Every file procfair writes goes through util's write-temp-rename, and
every parallel loop through util.deal."""

import ast
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import procfair
from procfair.cli import main
from procfair.data import SyntheticConfig, export_schema, generate_synthetic, write_csv
from procfair.fairness import EvalSet, FairnessReport, MmdConfig
from procfair.model import LinearParams, mlp_init, save_params
from procfair.pairing import select_eval_pairs
from procfair.scenarios import (ResultBundle, ScenarioConfig, emit_sensitive_attributions,
                                load_preset)
from procfair.sweeps import write_sweep_csv
from procfair.train import TrainHistory
from procfair import util
from procfair.util import atomic_write_csv, atomic_write_json, deal

PREVIOUS = "previous contents\n"
SMALL_SCENARIO = {
    "scenario_id": "util_small",
    "dataset": {"kind": "synthetic", "p": 0.65, "n": 300},
    "train": {"mode": "bce_only", "epochs": 5, "hidden": 4},
    "n_eval_pairs": 10,
    "background_size": 10,
    "mmd": {"n_permutations": 100},
    "repetitions": 1,
}


def _data():
    return generate_synthetic(SyntheticConfig(p=0.65, n_points=200, seed=0))


def _report():
    return FairnessReport(accuracy=0.9, dp=0.1, di=0.8, eop=0.05, eod=0.07,
                          gpf_fae=0.5, gpf_loss=0.2)


def _bundle(scenario_id):
    rows = [{"repetition": r, **_report().to_dict()} for r in range(2)]
    return ResultBundle(scenario={"scenario_id": scenario_id}, config_hash="h",
                        version="0", timestamp="t", reports=rows, errors=[], aggregate={})


def test_record_field_order_is_the_file_format(tmp_path):
    # records write their dataclass fields in declaration order, so
    # reordering a field changes every report, config, bundle and model file
    assert list(_report().to_dict()) == [
        "accuracy", "dp", "di", "di_reason", "eop", "eop_reason", "eod", "eod_reason",
        "gpf_fae", "gpf_loss", "train_seconds", "eval_seconds"]
    cfg = ScenarioConfig.from_dict(load_preset("synth065_baseline"))
    assert list(cfg.to_dict()) == [
        "scenario_id", "dataset", "steps", "split_ratio", "train", "n_eval_pairs",
        "background_size", "mmd", "repetitions", "master_seed"]
    _bundle("a").write(tmp_path / "a.bundle.json")
    assert list(json.loads((tmp_path / "a.bundle.json").read_text())) == [
        "scenario", "config_hash", "version", "timestamp", "reports", "errors", "aggregate"]
    save_params(mlp_init(3, 2, seed=0), tmp_path / "m.json")
    assert list(json.loads((tmp_path / "m.json").read_text())) == [
        "format_version", "kind", "input_size", "hidden_size", "W1", "b1", "w2", "b2"]
    save_params(LinearParams(w=np.ones(2), b=0.0, sensitive_index=1), tmp_path / "l.json")
    assert list(json.loads((tmp_path / "l.json").read_text())) == [
        "format_version", "kind", "input_size", "w", "b", "sensitive_index"]


# Each case writes its files into tmp_path and returns (paths, write).
def _write_csv(tmp):
    data = _data()
    return [tmp / "d.csv"], lambda: write_csv(data, tmp / "d.csv", config_hash="h")


def _schema_to_json(tmp):
    schema = export_schema(_data())
    return [tmp / "s.json"], lambda: schema.to_json(tmp / "s.json")


def _history_to_csv(tmp):
    z = np.zeros(3)
    hist = TrainHistory(total=z, bce=z, gpf=z, dp_proxy=z, seconds=0.0)
    return [tmp / "h.csv"], lambda: hist.to_csv(tmp / "h.csv", config_hash="h")


def _sweep_csv(tmp):
    rows = [{"p": 0.5, "ws": 1.0}, {"p": 0.6, "ws": 2.0}]
    return [tmp / "w.csv"], lambda: write_sweep_csv(rows, tmp / "w.csv", config_hash="h")


def _report_to_json(tmp):
    return [tmp / "r.json"], lambda: _report().to_json(tmp / "r.json", "h")


def _save_params(tmp):
    params = mlp_init(3, 2, seed=0)
    return [tmp / "m.json"], lambda: save_params(params, tmp / "m.json")


def _emit_attributions(tmp):
    data = _data()
    pairs = select_eval_pairs(data, 5)
    params = mlp_init(data.n_features, 3, seed=0)
    eval_set = EvalSet(data, pairs, data.features[:10], MmdConfig(seed=0))
    return [tmp / "a.csv"], lambda: emit_sensitive_attributions(
        params, eval_set, tmp / "a.csv", cfg_hash="h")


def _bundle_write(tmp):
    return [tmp / "b.json"], lambda: _bundle("b").write(tmp / "b.json")


WRITERS = [_write_csv, _schema_to_json, _history_to_csv, _sweep_csv, _report_to_json,
           _save_params, _emit_attributions, _bundle_write]


def _cli_compare(tmp):
    _bundle("a").write(tmp / "a.bundle.json")
    _bundle("b").write(tmp / "b.bundle.json")
    return [tmp / "cmp.json"], lambda: main([
        "scenario", "compare", str(tmp / "a.bundle.json"), str(tmp / "b.bundle.json"),
        "--metric", "accuracy", "--out", str(tmp / "cmp.json")])


def _cli_train(tmp):
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(SMALL_SCENARIO))
    out = tmp / "out"
    return ([out / "model.json", out / "history.csv", out / "report.json"],
            lambda: main(["train", "--config", str(cfg), "--out", str(out)]))


def _cli_evaluate(tmp):
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(SMALL_SCENARIO))
    assert main(["train", "--config", str(cfg), "--out", str(tmp / "t")]) == 0
    out = tmp / "out"
    return [out / "report.json"], lambda: main([
        "evaluate", "--model", str(tmp / "t" / "model.json"), "--config", str(cfg),
        "--out", str(out)])


CLI_WRITERS = [_cli_compare, _cli_train, _cli_evaluate]


def _fail_replace(monkeypatch):
    def replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", replace)


def _prepare(case, tmp_path):
    paths, write = case(tmp_path)
    for p in paths:
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(PREVIOUS)
    return paths, write, set(tmp_path.rglob("*"))


def _assert_untouched(paths, before, tmp_path):
    for p in paths:
        assert p.read_text() == PREVIOUS
    assert set(tmp_path.rglob("*")) == before  # no temp file left behind


@pytest.mark.parametrize("case", WRITERS, ids=lambda c: c.__name__.lstrip("_"))
def test_failed_write_keeps_previous_file(case, tmp_path, monkeypatch):
    paths, write, before = _prepare(case, tmp_path)
    _fail_replace(monkeypatch)
    with pytest.raises(OSError, match="replace failed"):
        write()
    _assert_untouched(paths, before, tmp_path)


@pytest.mark.parametrize("case", CLI_WRITERS, ids=lambda c: c.__name__.lstrip("_"))
def test_failed_cli_write_keeps_previous_files(case, tmp_path, monkeypatch, capsys):
    paths, write, before = _prepare(case, tmp_path)
    _fail_replace(monkeypatch)
    assert write() == 2
    assert "replace failed" in capsys.readouterr().err
    _assert_untouched(paths, before, tmp_path)


def test_atomic_writers_bytes_parents_and_mode(tmp_path):
    umask = os.umask(0)
    os.umask(umask)
    csv_path = tmp_path / "new" / "dir" / "t.csv"
    atomic_write_csv(csv_path, ["a", "b"], [[1, "é"], [2.5, "x,y"]], config_hash="h")
    assert csv_path.read_bytes() == '# config_hash=h\na,b\r\n1,é\r\n2.5,"x,y"\r\n'.encode()
    json_path = tmp_path / "other" / "t.json"
    atomic_write_json(json_path, {"k": [1, 2]}, indent=2)
    assert json.loads(json_path.read_text()) == {"k": [1, 2]}
    for p in (csv_path, json_path):
        assert p.stat().st_mode & 0o777 == 0o666 & ~umask
    atomic_write_csv(csv_path, ["a"], [])
    assert csv_path.read_bytes() == b"a\r\n"


def _write_calls(tree: ast.AST):
    """(line, call) of each open() not in a read mode, and of each
    Path.write_text / write_bytes."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            yield node.lineno, name
        elif name == "open":
            # builtin open(path, mode) or Path.open(mode)
            pos = 1 if isinstance(func, ast.Name) else 0
            mode = node.args[pos] if len(node.args) > pos else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            if not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt")):
                yield node.lineno, ast.unparse(node)


def test_only_util_opens_files_for_writing():
    src = Path(procfair.__file__).parent
    found = [f"{f.name}:{line}: {call}"
             for f in sorted(src.glob("*.py")) if f.name != "util.py"
             for line, call in _write_calls(ast.parse(f.read_text()))]
    assert found == []
    # the scan itself finds write-mode opens and skips read-mode ones
    probe = "open(p, 'w')\nopen(p)\nPath(p).open('a')\nopen(p, mode='rb')\np.write_text(s)"
    assert [line for line, _ in _write_calls(ast.parse(probe))] == [1, 3, 5]


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [0, 1, 7])
def test_deal_returns_results_in_index_order(count, workers):
    # index i runs in slot i % w, slot 0 on the calling thread, each slot
    # in index order
    w, ran = max(1, min(workers, count)), []

    def fn(i):
        ran.append((threading.current_thread(), i))
        return i * i

    assert deal(fn, count, workers) == [i * i for i in range(count)]
    slots = {}
    for thread, i in ran:
        slots.setdefault(thread, []).append(i)
    assert sorted(slots.values()) == [list(range(k, count, w)) for k in range(min(w, count))]
    if count:
        assert slots[threading.current_thread()] == list(range(0, count, w))


def test_deal_raises_the_lowest_failing_index_error():
    # index 2 fails first in time and index 1 after it; the caller still gets
    # index 1's error, as from a loop over the indices
    index_2_failed = threading.Event()

    def fn(i):
        if i == 2:
            index_2_failed.set()
            raise ValueError("index 2 failed")
        if i == 1:
            index_2_failed.wait(timeout=10)
            raise ValueError("index 1 failed")
        return i

    with pytest.raises(ValueError, match="index 1 failed"):
        deal(fn, 4, 3)
    assert index_2_failed.is_set()


def test_deal_starts_no_index_above_a_recorded_failure():
    # a slot stops at its own failure
    started = []

    def fail_at_2(i):
        started.append(i)
        if i == 2:
            raise ValueError("index 2 failed")

    with pytest.raises(ValueError, match="index 2 failed"):
        deal(fail_at_2, 6, 1)
    assert started == [0, 1, 2]

    # index 1 fails on the other slot's thread, and index 0 returns only once
    # that thread has ended, so the calling thread's slot starts no index 2
    started, helper, helper_started = [], [], threading.Event()

    def fail_at_1(i):
        started.append(i)
        if i == 1:
            helper.append(threading.current_thread())
            helper_started.set()
            raise ValueError("index 1 failed")
        if i == 0:
            assert helper_started.wait(timeout=10)
            helper[0].join(timeout=10)
            assert not helper[0].is_alive()

    with pytest.raises(ValueError, match="index 1 failed"):
        deal(fail_at_1, 9, 2)
    assert sorted(started) == [0, 1]


def test_deal_on_one_slot_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(util.threading, "Thread", no_thread)
    assert deal(lambda i: -i, 5, 1) == [0, -1, -2, -3, -4]
    assert deal(lambda i: -i, 1, 4) == [0]
    assert deal(lambda i: -i, 0, 4) == []
    with pytest.raises(AssertionError, match="thread was started"):
        deal(lambda i: -i, 2, 2)


def test_deal_leaves_no_thread_behind():
    before = threading.active_count()
    assert deal(lambda i: i, 8, 4) == list(range(8))
    assert threading.active_count() == before

    def fail_off_the_calling_thread(i):
        if threading.current_thread() is not threading.main_thread():
            raise ValueError("helper failed")

    with pytest.raises(ValueError, match="helper failed"):
        deal(fail_off_the_calling_thread, 8, 4)
    assert threading.active_count() == before
