"""Experiment orchestration: seeded multi-repetition scenario runs, result
bundles on disk, rank-sum comparison between bundles, and sensitive-
attribution dumps."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np
from scipy import stats

from .data import (
    ColumnSchema,
    Dataset,
    SyntheticConfig,
    attach_fake_sensitive,
    generate_synthetic,
    load_csv,
    pearson_select,
    preprocess,
    resample_unfair,
    split,
)
from .fairness import FairnessReport, MmdConfig
from .explain import kernel_shap_batch
from .pairing import PairSet, select_eval_pairs
from .train import TrainConfig, evaluate, train
from .util import (VERSION, atomic_write_csv, atomic_write_text, check_number,
                   check_number_fields, config_hash, seed_for)

# Stage tags for per-repetition seed derivation.
_TAG_DATA = 0
_TAG_SPLIT = 1
_TAG_TRAIN = 2
_TAG_MMD = 3
_TAG_BG = 5  # 4 is unused; renumbering would move every repetition's seeds
_TAG_STEP_BASE = 10

_METRIC_FIELDS = ("accuracy", "dp", "di", "eop", "eod", "gpf_fae", "gpf_loss")
_TIMING_FIELDS = ("train_seconds", "eval_seconds")

# (required, optional) keys of each dataset kind and preprocessing step
_DATASET_KEYS = {
    "synthetic": (("kind", "p"), ("n",)),
    "csv": (("kind", "path", "schema"), ()),
}
_STEP_KEYS = {
    "resample_unfair": (("op", "dp_threshold"), ()),
    "pearson_select": (("op", "threshold"), ()),
    "attach_fake_sensitive": (("op",), ()),
}
_SPEC_NUMBERS = {"p": "float", "n": "int", "dp_threshold": "float", "threshold": "float"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one experiment exactly.

    dataset is either {"kind": "synthetic", "p": ..., "n": ...} or
    {"kind": "csv", "path": ..., "schema": ...}; steps is an ordered list
    of preprocessing transforms applied before the split.
    """

    scenario_id: str
    dataset: dict
    train: dict
    steps: tuple = ()
    split_ratio: float = 0.8
    n_eval_pairs: int = 100
    background_size: int = 100
    mmd: dict = field(default_factory=dict)
    repetitions: int = 10
    master_seed: int = 0

    def __post_init__(self):
        for name in ("dataset", "train", "mmd"):
            object.__setattr__(self, name, dict(getattr(self, name)))
        check_number_fields(self)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split_ratio must be in (0, 1), got {self.split_ratio!r}")
        for name in ("n_eval_pairs", "background_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        kind = self.dataset.get("kind")
        if kind not in _DATASET_KEYS:
            raise ValueError(f"dataset kind must be 'synthetic' or 'csv', got {kind!r}")
        _check_spec(f"{kind} dataset", self.dataset, *_DATASET_KEYS[kind])
        for step in self.steps:
            op = step.get("op")
            if op not in _STEP_KEYS:
                raise ValueError(f"unknown preprocessing step {op!r}")
            _check_spec(f"{op} step", step, *_STEP_KEYS[op])
        _reject_unknown_keys("train", self.train, _field_names(TrainConfig))
        _reject_unknown_keys("mmd", self.mmd, _field_names(MmdConfig))
        TrainConfig(**self.train)  # validate eagerly
        MmdConfig(**self.mmd)
        object.__setattr__(self, "steps", tuple(dict(s) for s in self.steps))

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "dataset": dict(self.dataset),
            "steps": [dict(s) for s in self.steps],
            "split_ratio": self.split_ratio,
            "train": dict(self.train),
            "n_eval_pairs": self.n_eval_pairs,
            "background_size": self.background_size,
            "mmd": dict(self.mmd),
            "repetitions": self.repetitions,
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        """Keys starting with '_' are comments; any other unknown key is an error."""
        keys = {k: v for k, v in obj.items() if not k.startswith("_")}
        _reject_unknown_keys("top-level", keys, _field_names(cls))
        missing = [f.name for f in fields(cls) if f.default is MISSING
                   and f.default_factory is MISSING and f.name not in keys]
        if missing:
            raise ValueError(f"missing top-level config key(s): {', '.join(missing)}")
        return cls(**keys)

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def hash(self) -> str:
        return config_hash(self.to_dict())


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _reject_unknown_keys(section: str, keys, allowed) -> None:
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {section} config key(s): {', '.join(unknown)}")


def _check_spec(section: str, spec: dict, required: tuple, optional: tuple) -> None:
    missing = [k for k in required if k not in spec]
    if missing:
        raise ValueError(f"{section} spec needs {', '.join(map(repr, missing))}")
    _reject_unknown_keys(section, spec, required + optional)
    for key in sorted(set(spec) & set(_SPEC_NUMBERS)):
        check_number(f"{section} {key}", spec[key], _SPEC_NUMBERS[key])


@dataclass
class ResultBundle:
    """Per-repetition reports plus aggregates and provenance."""

    scenario: dict
    config_hash: str
    version: str
    timestamp: str
    reports: list[dict]
    errors: list[dict]
    aggregate: dict

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config_hash": self.config_hash,
            "version": self.version,
            "timestamp": self.timestamp,
            "reports": self.reports,
            "errors": self.errors,
            "aggregate": self.aggregate,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ResultBundle":
        return cls(
            scenario=obj["scenario"],
            config_hash=obj["config_hash"],
            version=obj["version"],
            timestamp=obj["timestamp"],
            reports=obj["reports"],
            errors=obj["errors"],
            aggregate=obj["aggregate"],
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ResultBundle":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def write(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2))

    def metric_payload(self) -> str:
        """Canonical JSON of everything that must reproduce bit-for-bit
        across reruns (wall-clock timings and the timestamp excluded)."""
        reports = [
            {k: v for k, v in r.items() if k not in _TIMING_FIELDS} for r in self.reports
        ]
        aggregate = {k: v for k, v in self.aggregate.items() if k not in _TIMING_FIELDS}
        payload = {
            "config_hash": self.config_hash,
            "scenario": self.scenario,
            "reports": reports,
            "errors": self.errors,
            "aggregate": aggregate,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def metric_values(self, metric: str) -> list[float | None]:
        return [r[metric] for r in self.reports]


def _make_dataset(spec: dict, seed: int) -> Dataset:
    if spec["kind"] == "synthetic":
        return generate_synthetic(
            SyntheticConfig(p=spec["p"], n_points=spec.get("n", 20000), seed=seed)
        )
    schema = ColumnSchema.from_json(spec["schema"])
    return preprocess(load_csv(spec["path"], schema), schema)


def _apply_step(data: Dataset, step: dict, seed: int) -> Dataset:
    op = step["op"]
    if op == "resample_unfair":
        return resample_unfair(data, step["dp_threshold"], seed)
    if op == "pearson_select":
        return pearson_select(data, step["threshold"])
    return attach_fake_sensitive(data, seed)


def sample_background(train_ds: Dataset, size: int, seed: int) -> np.ndarray:
    """Rows KernelSHAP marginalizes over: a uniform seeded sample of the
    training split."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(train_ds.n_rows, size=min(size, train_ds.n_rows), replace=False)
    return train_ds.features[idx]


class StageError(RuntimeError):
    """Wraps a repetition failure with the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


def prepare_repetition(cfg: ScenarioConfig, rep: int):
    """Data pipeline for one repetition, up to (but excluding) training.

    Returns (train_ds, test_ds, eval_pairs, background, mmd_cfg). Failures
    raise StageError naming the pipeline stage.
    """
    rep_seed = cfg.master_seed + rep
    stage = "dataset"
    try:
        data = _make_dataset(cfg.dataset, seed_for(rep_seed, _TAG_DATA))
        for i, step in enumerate(cfg.steps):
            stage = step["op"]
            data = _apply_step(data, step, seed_for(rep_seed, _TAG_STEP_BASE + i))
        stage = "split"
        train_ds, test_ds = split(data, cfg.split_ratio, seed_for(rep_seed, _TAG_SPLIT))
        stage = "evaluate"
        pairs = select_eval_pairs(test_ds, cfg.n_eval_pairs)
        background = sample_background(
            train_ds, cfg.background_size, seed_for(rep_seed, _TAG_BG)
        )
        mmd_cfg = MmdConfig(**{**cfg.mmd, "seed": seed_for(rep_seed, _TAG_MMD)})
        return train_ds, test_ds, pairs, background, mmd_cfg
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


@dataclass
class RepetitionResult:
    report: "FairnessReport"
    params: object
    history: object
    train_ds: Dataset
    test_ds: Dataset
    pairs: PairSet
    background: np.ndarray


def run_repetition(cfg: ScenarioConfig, rep: int) -> RepetitionResult:
    """One seeded repetition: dataset -> steps -> split -> train -> evaluate.

    Failures raise StageError naming the pipeline stage.
    """
    rep_seed = cfg.master_seed + rep
    train_ds, test_ds, pairs, background, mmd_cfg = prepare_repetition(cfg, rep)
    stage = "train"
    try:
        tcfg = TrainConfig(**{**cfg.train, "seed": seed_for(rep_seed, _TAG_TRAIN)})
        params, history = train(train_ds, tcfg)
        stage = "evaluate"
        report = evaluate(
            params, test_ds, pairs, mmd_cfg, background=background,
            train_seconds=history.seconds,
        )
        return RepetitionResult(report, params, history, train_ds, test_ds, pairs, background)
    except Exception as exc:
        raise StageError(stage, exc) from exc


def _aggregate(reports: list[dict]) -> dict:
    agg: dict = {"n_repetitions": len(reports)}
    for name in _METRIC_FIELDS + _TIMING_FIELDS:
        values = [r[name] for r in reports if r.get(name) is not None]
        if values:
            arr = np.asarray(values, dtype=np.float64)
            agg[name] = {
                "mean": float(arr.mean()),
                "std": float(arr.std()),
                "n_defined": len(values),
            }
        else:
            agg[name] = {"mean": None, "std": None, "n_defined": 0}
    return agg


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> ResultBundle:
    """Execute every repetition with seeds master_seed + rep index.

    A failing stage aborts only its repetition and is recorded in the
    bundle. Rerunning an identical config reproduces every metric value.
    """
    reports: list[dict] = []
    errors: list[dict] = []
    for rep in range(cfg.repetitions):
        try:
            result = run_repetition(cfg, rep)
            reports.append({"repetition": rep, **result.report.to_dict()})
        except StageError as exc:  # recorded, not fatal to other repetitions
            errors.append({"repetition": rep, "stage": exc.stage, "error": str(exc.cause)})

    bundle = ResultBundle(
        scenario=cfg.to_dict(),
        config_hash=cfg.hash(),
        version=VERSION,
        timestamp=datetime.now(timezone.utc).isoformat(),
        reports=reports,
        errors=errors,
        aggregate=_aggregate(reports),
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        bundle.write(out_dir / f"{cfg.scenario_id}.bundle.json")
    return bundle


def ranksum_pvalue(x, y) -> float:
    """Two-sided Wilcoxon rank-sum p-value.

    Exact null distribution when both sides have <= 10 untied values,
    normal approximation otherwise. Identical pooled samples compare as
    p = 1.0 directly.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([x, y])
    if np.all(pooled == pooled[0]):
        return 1.0
    has_ties = np.unique(pooled).size < pooled.size
    method = "exact" if (x.size <= 10 and y.size <= 10 and not has_ties) else "asymptotic"
    return float(stats.mannwhitneyu(x, y, alternative="two-sided", method=method).pvalue)


def compare_scenarios(
    bundles: list[ResultBundle], metric: str | None = None, alpha: float = 0.05
) -> list[dict]:
    """Pairwise rank-sum comparison of per-repetition metrics.

    Every bundle must carry the same repetition count; metrics undefined in
    any repetition are reported with p = None.
    """
    if len(bundles) < 2:
        raise ValueError("need at least two bundles to compare")
    counts = {len(b.reports) for b in bundles}
    if len(counts) != 1:
        raise ValueError(f"bundles have mismatched repetition counts: {sorted(counts)}")
    metrics = [metric] if metric else list(_METRIC_FIELDS)
    rows = []
    for i in range(len(bundles)):
        for j in range(i + 1, len(bundles)):
            for name in metrics:
                xs = bundles[i].metric_values(name)
                ys = bundles[j].metric_values(name)
                row = {
                    "scenario_a": bundles[i].scenario["scenario_id"],
                    "scenario_b": bundles[j].scenario["scenario_id"],
                    "metric": name,
                    "alpha": alpha,
                }
                if any(v is None for v in xs + ys):
                    row.update({"p_value": None, "significant": None,
                                "note": "metric undefined in some repetitions"})
                else:
                    p = ranksum_pvalue(xs, ys)
                    row.update(
                        {
                            "p_value": p,
                            "significant": bool(p < alpha),
                            "median_a": float(np.median(xs)),
                            "median_b": float(np.median(ys)),
                        }
                    )
                rows.append(row)
    return rows


def emit_sensitive_attributions(
    params,
    data: Dataset,
    eval_pairs: PairSet,
    out: str | Path,
    background: np.ndarray | None = None,
    seed: int = 0,
    cfg_hash: str | None = None,
) -> dict:
    """Dump per-point sensitive-attribute SHAP values for the paired rows.

    Writes (row_ref, group, shap_sensitive) for X'1 union X'2 plus summary
    rows with each group's mean; returns the summary statistics.
    """
    if data.sensitive_col is None:
        raise ValueError("dataset has no sensitive column to explain")
    if background is None:
        background = sample_background(data, 100, seed)
    refs = np.concatenate([eval_pairs.idx1, eval_pairs.idx2])
    rows = data.features[refs]
    group = np.concatenate([np.ones(len(eval_pairs), dtype=np.int8),
                            np.zeros(len(eval_pairs), dtype=np.int8)])
    phi, _ = kernel_shap_batch(params.logits, rows, background)
    shap_s = phi[:, data.sensitive_col]
    mean_s1 = float(shap_s[group == 1].mean())
    mean_s2 = float(shap_s[group == 0].mean())
    summary = {
        "mean_s1": mean_s1,
        "mean_s2": mean_s2,
        "mean_abs_sensitive": float(np.abs(shap_s).mean()),
        "mean_abs_all_features": float(np.abs(phi).mean()),
    }
    lines = [[int(i), int(g), repr(float(v))] for i, g, v in zip(refs, group, shap_s)]
    lines += [["mean_s1", 1, repr(mean_s1)], ["mean_s2", 0, repr(mean_s2)]]
    atomic_write_csv(out, ["row_ref", "group", "shap_sensitive"], lines, cfg_hash)
    return summary


def list_presets() -> list[str]:
    root = resources.files("procfair") / "presets"
    return sorted(p.name.removesuffix(".json") for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    path = resources.files("procfair") / "presets" / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"unknown preset {name!r}; available: {list_presets()}")
    return json.loads(path.read_text())
