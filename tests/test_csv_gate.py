"""A one-second byte gate for the CSV -> MLP -> sampled-SHAP path.

One `train` repetition of the csv_template preset on a small Adult-shaped
CSV crosses load_csv, preprocess, resample_unfair, 13-d training pairs, the
procedural gap epoch and, at d = 14, sampled KernelSHAP. A change meant to
keep every output bit-identical must keep these hashes. The paths in the
config are relative, so the config hash written into the files does not
depend on where the test runs.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from procfair.cli import main
from procfair.explain import _EXHAUSTIVE_MAX_D
from procfair.scenarios import load_preset

pytestmark = pytest.mark.gate

ADULT_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "adult_csv.py"

# sha256 at the commit that introduced this gate.
GOLDEN_REPORT_SHA256 = "7e905e33f7bb2df4c66f826ac5ffd25e027ae9bc996bd9b78758d8f99552261b"
GOLDEN_MODEL_SHA256 = "3a79988519069dcc1405718dc26afff0a5f0de59363ae139f66a63d280d942d6"
GOLDEN_HISTORY_SHA256 = "e3e1c06bb183d3ab458d7db9cb586d8ac0d9136a684f6bc48d112d12db98c7ae"


def _write_adult_like(csv_path: Path, schema_path: Path, seed: int, n_rows: int) -> None:
    spec = importlib.util.spec_from_file_location("perfbench_adult_csv", ADULT_CSV)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.write_adult_like(csv_path, schema_path, seed, n_rows)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_csv_train_outputs_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_adult_like(Path("adult.csv"), Path("adult.schema.json"), seed=0, n_rows=1500)
    cfg = load_preset("csv_template")
    cfg.update(dataset={"kind": "csv", "path": "adult.csv", "schema": "adult.schema.json"},
               n_eval_pairs=10, background_size=25, repetitions=1)
    cfg["train"] = {**cfg["train"], "epochs": 20}
    Path("cfg.json").write_text(json.dumps(cfg))

    assert main(["train", "--config", "cfg.json", "--out", "out"]) == 0

    report = json.loads(Path("out/report.json").read_text())
    assert len(report["config_hash"]) > 0
    assert report.pop("train_seconds") > 0 and report.pop("eval_seconds") > 0
    model = Path("out/model.json").read_bytes()
    assert json.loads(model)["input_size"] == 14 > _EXHAUSTIVE_MAX_D  # the sampled SHAP path
    assert {
        "report": _sha(json.dumps(report).encode()),
        "model": _sha(model),
        "history": _sha(Path("out/history.csv").read_bytes()),
    } == {
        "report": GOLDEN_REPORT_SHA256,
        "model": GOLDEN_MODEL_SHA256,
        "history": GOLDEN_HISTORY_SHA256,
    }
