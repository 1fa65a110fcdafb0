"""Experiment orchestration: seeded multi-repetition scenario runs, result
bundles on disk, rank-sum comparison between bundles, and sensitive-
attribution dumps."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from .data import (
    ColumnSchema,
    Dataset,
    SyntheticConfig,
    _check_dp_threshold,
    _check_pearson_threshold,
    attach_fake_sensitive,
    generate_synthetic,
    load_csv,
    pearson_select,
    preprocess,
    resample_unfair,
    split,
)
from .fairness import EvalSet, FairnessReport, MmdConfig, _pair_attributions
from .pairing import select_eval_pairs
from .train import TrainConfig, evaluate, train
from .util import (VERSION, atomic_write_csv, atomic_write_text, check_number,
                   check_number_fields, config_hash, from_fields, reject_unknown_keys,
                   seed_for)

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
_SPEC_STRINGS = ("path", "schema")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Everything needed to reproduce one experiment exactly.

    dataset is either {"kind": "synthetic", "p": ..., "n": ...} or
    {"kind": "csv", "path": ..., "schema": ...}; steps is an ordered list
    of preprocessing transforms applied before the split. The field order
    is the key order of the config file.
    """

    scenario_id: str
    dataset: dict
    steps: tuple = ()
    split_ratio: float = 0.8
    train: dict
    n_eval_pairs: int = 100
    background_size: int = 100
    mmd: dict = field(default_factory=dict)
    repetitions: int = 10
    master_seed: int = 0

    def __post_init__(self):
        sid = self.scenario_id  # names the bundle file inside the output directory
        if not isinstance(sid, str) or sid in ("", ".", "..") or "/" in sid or "\\" in sid:
            raise ValueError("scenario_id must be a non-empty file name without '/' or '\\', "
                             f"and not '.' or '..', got {sid!r}")
        _check_spec("dataset", self.dataset, "kind", _DATASET_KEYS)
        if not isinstance(self.steps, (list, tuple)):
            raise ValueError(f"steps must be a JSON list, got {type(self.steps).__name__}")
        range_checks = {"pearson_select": ("threshold", _check_pearson_threshold),
                        "resample_unfair": ("dp_threshold", _check_dp_threshold)}
        for step in self.steps:
            _check_spec("step", step, "op", _STEP_KEYS)
            if step["op"] in range_checks:
                key, check = range_checks[step["op"]]
                try:
                    check(step[key])
                except ValueError as exc:
                    raise ValueError(f"{step['op']} step {exc}") from None
        if self.dataset["kind"] == "synthetic":  # validate eagerly, as train and mmd below
            SyntheticConfig(p=self.dataset["p"],
                            n_points=self.dataset.get("n", SyntheticConfig.n_points))
        for name, cls in (("train", TrainConfig), ("mmd", MmdConfig)):
            from_fields(cls, getattr(self, name), f"{name} config")
            if "seed" in getattr(self, name):
                raise ValueError(f"{name} config may not set 'seed': seeds come from master_seed")
        for name in ("dataset", "train", "mmd"):
            object.__setattr__(self, name, dict(getattr(self, name)))
        object.__setattr__(self, "steps", tuple(dict(s) for s in self.steps))
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

    def to_dict(self) -> dict:
        return {**asdict(self), "steps": [dict(s) for s in self.steps]}

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioConfig":
        """Keys starting with '_' are comments; any other unknown key is an error."""
        if isinstance(obj, dict):
            obj = {k: v for k, v in obj.items() if not k.startswith("_")}
        return from_fields(cls, obj, "top-level config")

    @classmethod
    def from_json(cls, path: str | Path) -> "ScenarioConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def hash(self) -> str:
        return config_hash(self.to_dict())


def _check_spec(section: str, spec, tag: str, table: dict) -> None:
    """A dataset or step spec is a dict whose `tag` names an entry of table,
    holding that entry's (required, optional) keys and no other."""
    if not isinstance(spec, dict):
        raise ValueError(f"{section} must be a JSON object, got {type(spec).__name__}")
    kind = spec.get(tag)
    if not isinstance(kind, str) or kind not in table:
        raise ValueError(f"unknown {section} {tag} {kind!r}; expected one of {sorted(table)}")
    required, optional = table[kind]
    missing = [k for k in required if k not in spec]
    if missing:
        raise ValueError(f"{kind} {section} spec needs {', '.join(map(repr, missing))}")
    reject_unknown_keys(f"{kind} {section} config", spec, required + optional)
    for key in sorted(set(spec) & set(_SPEC_NUMBERS)):
        check_number(f"{kind} {section} {key}", spec[key], _SPEC_NUMBERS[key])
    for key in sorted(set(spec) & set(_SPEC_STRINGS)):
        if not isinstance(spec[key], str):
            raise ValueError(f"{kind} {section} {key} must be a string, got {spec[key]!r}")


@dataclass
class ResultBundle:
    """Per-repetition reports plus aggregates and provenance. The field
    order is the key order of the bundle file."""

    scenario: dict
    config_hash: str
    version: str
    timestamp: str
    reports: list[dict]
    errors: list[dict]
    aggregate: dict

    @classmethod
    def from_json(cls, path: str | Path) -> "ResultBundle":
        with open(path) as fh:
            bundle = from_fields(cls, json.load(fh), "bundle")
        for key in ("reports", "errors"):
            rows = getattr(bundle, key)
            if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
                raise ValueError(f"bundle {key} must be a JSON list of objects")
        if not (isinstance(bundle.scenario, dict)
                and isinstance(bundle.scenario.get("scenario_id"), str)):
            raise ValueError("bundle scenario must be a JSON object with a string scenario_id")
        for i, report in enumerate(bundle.reports):
            missing = [k for k in _METRIC_FIELDS if k not in report]
            if missing:
                raise ValueError(f"bundle report {i} lacks metric key(s): {', '.join(missing)}")
            for key in _METRIC_FIELDS:
                if report[key] is not None:
                    check_number(f"bundle report {i} {key}", report[key], "float")
        return bundle

    def write(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(asdict(self), indent=2))

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
        n = spec.get("n", SyntheticConfig.n_points)
        return generate_synthetic(SyntheticConfig(p=spec["p"], n_points=n, seed=seed))
    schema = ColumnSchema.from_json(spec["schema"])
    return preprocess(load_csv(spec["path"]), schema)


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


@contextmanager
def in_stage(stage: str):
    """Re-raise an exception of the with block as a StageError naming `stage`."""
    try:
        yield
    except Exception as exc:
        raise StageError(stage, exc) from exc


def prepare_repetition(cfg: ScenarioConfig, rep: int):
    """Data pipeline for one repetition, up to (but excluding) training.

    Returns (train_ds, eval_set). Failures raise StageError naming the
    pipeline stage.
    """
    rep_seed = cfg.master_seed + rep
    with in_stage("dataset"):
        data = _make_dataset(cfg.dataset, seed_for(rep_seed, _TAG_DATA))
    for i, step in enumerate(cfg.steps):
        with in_stage(step["op"]):
            data = _apply_step(data, step, seed_for(rep_seed, _TAG_STEP_BASE + i))
    with in_stage("split"):
        train_ds, test_ds = split(data, cfg.split_ratio, seed_for(rep_seed, _TAG_SPLIT))
    with in_stage("evaluate"):
        pairs = select_eval_pairs(test_ds, cfg.n_eval_pairs)
        bg = sample_background(train_ds, cfg.background_size, seed_for(rep_seed, _TAG_BG))
        mmd = MmdConfig(**{**cfg.mmd, "seed": seed_for(rep_seed, _TAG_MMD)})
    return train_ds, EvalSet(test_ds, pairs, bg, mmd)


@dataclass
class RepetitionResult:
    report: FairnessReport
    params: object
    history: object
    train_ds: Dataset
    eval_set: EvalSet


def run_repetition(cfg: ScenarioConfig, rep: int) -> RepetitionResult:
    """One seeded repetition: dataset -> steps -> split -> train -> evaluate.

    Failures raise StageError naming the pipeline stage.
    """
    rep_seed = cfg.master_seed + rep
    train_ds, eval_set = prepare_repetition(cfg, rep)
    with in_stage("train"):
        tcfg = TrainConfig(**{**cfg.train, "seed": seed_for(rep_seed, _TAG_TRAIN)})
        params, history = train(train_ds, tcfg)
    with in_stage("evaluate"):
        report = evaluate(params, eval_set, train_seconds=history.seconds)
    return RepetitionResult(report, params, history, train_ds, eval_set)


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
    from scipy import stats  # on use: the package's slowest import, needed by `scenario compare` only

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
    if metric and metric not in _METRIC_FIELDS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {list(_METRIC_FIELDS)}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
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


def emit_sensitive_attributions(params, eval_set: EvalSet, out: str | Path,
                                cfg_hash: str | None = None) -> dict:
    """Dump per-point sensitive-attribute SHAP values for the paired rows:
    the attributions gpf_fae tests on the same eval_set.

    Writes (row_ref, group, shap_sensitive) for X'1 union X'2 plus summary
    rows with each group's mean; returns those means.
    """
    col, pairs = eval_set.test.sensitive_col, eval_set.pairs
    if col is None:
        raise ValueError("dataset has no sensitive column to explain")
    refs = np.concatenate([pairs.idx1, pairs.idx2])
    group = np.repeat([1, 0], len(pairs))
    shap_s = _pair_attributions(params, eval_set)[:, col]
    mean_s1 = float(shap_s[group == 1].mean())
    mean_s2 = float(shap_s[group == 0].mean())
    lines = [[int(i), int(g), repr(float(v))] for i, g, v in zip(refs, group, shap_s)]
    lines += [["mean_s1", 1, repr(mean_s1)], ["mean_s2", 0, repr(mean_s2)]]
    atomic_write_csv(out, ["row_ref", "group", "shap_sensitive"], lines, cfg_hash)
    return {"mean_s1": mean_s1, "mean_s2": mean_s2}


def list_presets() -> list[str]:
    root = resources.files("procfair") / "presets"
    return sorted(p.name.removesuffix(".json") for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> dict:
    path = resources.files("procfair") / "presets" / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"unknown preset {name!r}; available: {list_presets()}")
    return json.loads(path.read_text())
