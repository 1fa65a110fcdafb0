"""Byte gates for the CSV -> MLP -> sampled-SHAP path.

One `train` repetition of the csv_template preset on a small Adult-shaped
CSV crosses load_csv, preprocess, resample_unfair, 13-d training pairs, the
procedural gap epoch and, at d = 14, sampled KernelSHAP. A change meant to
keep every output bit-identical must keep the pinned hashes, and the
outputs must not depend on the BLAS thread count. The paths in the config
are relative, so the config hash written into the files does not depend on
where the test runs.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import procfair
from procfair.cli import main
from procfair.explain import _EXHAUSTIVE_MAX_D
from procfair.scenarios import load_preset

pytestmark = pytest.mark.gate

ADULT_CSV = Path(__file__).resolve().parents[1] / "perfbench" / "adult_csv.py"

# sha256 since the row-blocked loss engine, which moved the last bits of
# every trained MLP.
GOLDEN_REPORT_SHA256 = "1cbd9f0e7d3750a6f6b13cb2406205d5fc9f75fdb35be0453c0eac644fffc84e"
GOLDEN_MODEL_SHA256 = "13a56f36393afa03ed2c5e78c0ebefed75ca81a03f0ce9a3a085c3fe313cc5e0"
GOLDEN_HISTORY_SHA256 = "0993be72eb8fe55e21f68d566ee734b03adc09adef915a71a6871d064c729bfb"
# sha256 of `explain dump` of that model: the sensitive column's sampled
# KernelSHAP phi, the only pinned output that carries phi's bits.
GOLDEN_DUMP_SHA256 = "7bf974c3b7792e3711c8ea02b7dbeb9c058616b14fb0ccfc64c64615ecd70de5"


def _write_adult_like(csv_path: Path, schema_path: Path, seed: int, n_rows: int) -> None:
    spec = importlib.util.spec_from_file_location("perfbench_adult_csv", ADULT_CSV)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.write_adult_like(csv_path, schema_path, seed, n_rows)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_config(n_rows: int, epochs: int) -> None:
    """An Adult-shaped CSV of n_rows and a one-repetition csv_template
    config reading it, in the working directory."""
    _write_adult_like(Path("adult.csv"), Path("adult.schema.json"), seed=0, n_rows=n_rows)
    cfg = load_preset("csv_template")
    cfg.update(dataset={"kind": "csv", "path": "adult.csv", "schema": "adult.schema.json"},
               n_eval_pairs=10, background_size=25, repetitions=1)
    cfg["train"] = {**cfg["train"], "epochs": epochs}
    Path("cfg.json").write_text(json.dumps(cfg))


def _output_shas(out: Path) -> dict[str, str]:
    """sha256 of the model, the history and the report without its timings."""
    report = json.loads((out / "report.json").read_text())
    assert len(report["config_hash"]) > 0
    assert report.pop("train_seconds") > 0 and report.pop("eval_seconds") > 0
    model = (out / "model.json").read_bytes()
    assert json.loads(model)["input_size"] == 14 > _EXHAUSTIVE_MAX_D  # the sampled SHAP path
    return {
        "report": _sha(json.dumps(report).encode()),
        "model": _sha(model),
        "history": _sha((out / "history.csv").read_bytes()),
    }


def test_csv_train_outputs_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_config(n_rows=1500, epochs=20)

    assert main(["train", "--config", "cfg.json", "--out", "out"]) == 0

    assert _output_shas(Path("out")) == {
        "report": GOLDEN_REPORT_SHA256,
        "model": GOLDEN_MODEL_SHA256,
        "history": GOLDEN_HISTORY_SHA256,
    }

    assert main(["explain", "dump", "--config", "cfg.json", "--model", "out/model.json",
                 "--out", "dump.csv"]) == 0
    assert _sha(Path("dump.csv").read_bytes()) == GOLDEN_DUMP_SHA256


def test_csv_train_outputs_independent_of_blas_threads(tmp_path, monkeypatch):
    # From about 2,500 rows on, a product summed over every training row
    # rounds differently when BLAS splits it over more threads; the loss
    # engine's row blocks must keep each output byte the same.
    monkeypatch.chdir(tmp_path)
    _write_config(n_rows=3000, epochs=30)
    src = str(Path(procfair.__file__).resolve().parents[1])
    shas = {}
    for threads in (1, 2, 4):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "procfair.cli", "train", "--config", "cfg.json",
                        "--out", f"out{threads}"], env=env, check=True, capture_output=True)
        shas[threads] = _output_shas(Path(f"out{threads}"))
    assert shas[2] == shas[1] and shas[4] == shas[1]
