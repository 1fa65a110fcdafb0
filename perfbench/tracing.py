"""Spans at procfair's layer boundaries, recorded from outside the package.

Each boundary is a public function wrapped under the name its caller looks
it up by (`procfair.train.build_pairs`, not `procfair.pairing.build_pairs`),
so a wrapper sees exactly the calls one layer makes into another. Spans
record name, start, end and parent and stay in memory; layer metrics are
derived from them after the traced iteration ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

# (module looked up in, attribute, span name). The attribute is the name the
# caller resolves at call time, so wrapping it there intercepts the call.
BOUNDARIES = (
    ("procfair.cli", "main", "cli.main"),
    ("procfair.cli", "run_scenario", "scenarios.run"),
    ("procfair.cli", "sweep_p_ws", "sweeps.grid"),
    ("procfair.scenarios", "run_repetition", "scenarios.repetition"),
    ("procfair.scenarios", "prepare_repetition", "scenarios.prepare"),
    ("procfair.scenarios", "generate_synthetic", "data.generate"),
    ("procfair.sweeps", "generate_synthetic", "data.generate"),
    ("procfair.scenarios", "load_csv", "data.load_csv"),
    ("procfair.scenarios", "preprocess", "data.preprocess"),
    ("procfair.scenarios", "resample_unfair", "data.resample"),
    ("procfair.scenarios", "pearson_select", "data.pearson"),
    ("procfair.sweeps", "pearson_select", "data.pearson"),
    ("procfair.scenarios", "split", "data.split"),
    ("procfair.sweeps", "split", "data.split"),
    ("procfair.train", "build_pairs", "pairing.train_pairs"),
    ("procfair.scenarios", "select_eval_pairs", "pairing.eval_select"),
    ("procfair.sweeps", "select_eval_pairs", "pairing.eval_select"),
    ("procfair.train", "adam_step", "model.adam_step"),
    ("procfair.sweeps", "linear_train", "model.linear_train"),
    ("procfair.scenarios", "train", "train.train"),
    ("procfair.sweeps", "train", "train.train"),
    ("procfair.scenarios", "evaluate", "train.evaluate"),
    ("procfair.sweeps", "evaluate", "train.evaluate"),
    ("procfair.fairness", "kernel_shap_batch", "explain.kernel_shap"),
    ("procfair.fairness", "mmd_permutation_pvalue", "fairness.mmd_perm"),
    ("procfair.sweeps", "sweep_ws", "sweeps.slice"),
    ("procfair.scenarios", "atomic_write_text", "util.write"),
    ("procfair.cli", "write_sweep_csv", "util.write"),
    ("procfair.sweeps", "write_sweep_csv", "util.write"),
)


@dataclass(eq=False)
class Span:
    name: str
    caller: str
    start: float
    parent: int | None
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with a stack for parent links."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, caller: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, caller, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def done(self, name: str) -> list[Span]:
        """Spans of `name` whose call returned, so their counts were noted."""
        return [s for s in self.spans if s.name == name and s.error is None]

    def self_seconds(self, name: str) -> float:
        """Total time of `name` spans minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return sum(s.seconds - child[i] for i, s in enumerate(self.spans) if s.name == name)


def _note(span: Span, args: tuple, kwargs: dict, out) -> None:
    """Counts recorded at the boundary, where the work happens."""
    if span.name == "data.resample":
        span.attrs["rows_added"] = out.n_rows - args[0].n_rows
    elif span.name == "data.split":
        span.attrs["train_split"] = out[0]
    elif span.name == "pairing.train_pairs":
        span.attrs.update(k=len(out), rows=args[0].n_rows, data=args[0], pairs=out)
    elif span.name == "pairing.eval_select":
        span.attrs["exhausted"] = bool(out.exhausted)
    elif span.name == "train.train":
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        span.attrs.update(mode=cfg.mode, epochs=cfg.epochs, rows=args[0].n_rows,
                          data=args[0], cfg=cfg)
    elif span.name == "fairness.mmd_perm":
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        span.attrs["permutations"] = cfg.n_permutations if cfg is not None else 1000


def _wrap(tracer: Tracer, fn, name: str, caller: str):
    if name == "explain.kernel_shap":
        return _wrap_shap(tracer, fn, caller)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name, caller)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(span, type(exc).__name__)
            raise
        tracer.close(span)
        _note(span, args, kwargs, out)
        return out

    return wrapper


def _wrap_shap(tracer: Tracer, fn, caller: str):
    """KernelSHAP wrapper that also counts the rows fed to the model."""

    @functools.wraps(fn)
    def wrapper(predict, X, background, *args, **kwargs):
        span = tracer.open("explain.kernel_shap", caller)
        span.attrs.update(rows=len(X), background=len(background), model_rows=0)

        def counted(Z):
            span.attrs["model_rows"] += len(Z)
            return predict(Z)

        try:
            out = fn(counted, X, background, *args, **kwargs)
        except BaseException as exc:
            tracer.close(span, type(exc).__name__)
            raise
        tracer.close(span)
        return out

    return wrapper


def install(tracer: Tracer, boundaries=BOUNDARIES):
    """Wrap every boundary; returns a function that restores the originals."""
    saved = []
    for module_name, attr, name in boundaries:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)  # AttributeError here means procfair renamed a boundary
        saved.append((module, attr, fn))
        setattr(module, attr, _wrap(tracer, fn, name, module_name.rsplit(".", 1)[-1]))

    def restore():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return restore


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from its spans."""
    t = tracer

    def total(name: str) -> float:
        return sum(s.seconds for s in t.named(name))

    m: dict[str, float] = {}

    m["data.generate_s"] = total("data.generate")
    m["data.load_csv_s"] = total("data.load_csv")
    m["data.preprocess_s"] = total("data.preprocess")
    m["data.resample_s"] = total("data.resample")
    m["data.resample_rows_added"] = sum(s.attrs["rows_added"] for s in t.done("data.resample"))
    m["data.pearson_s"] = total("data.pearson")
    m["data.split_s"] = total("data.split")

    tp = t.done("pairing.train_pairs")
    es = t.done("pairing.eval_select")
    m["pairing.train_pairs_s"] = total("pairing.train_pairs")
    m["pairing.eval_select_s"] = total("pairing.eval_select")
    m["pairing.eval_select_calls"] = len(t.named("pairing.eval_select"))
    m["pairing.train_pairs_k"] = _median([s.attrs["k"] for s in tp])
    m["pairing.dedup_ratio"] = _median([s.attrs["k"] / s.attrs["rows"] for s in tp])
    m["pairing.eval_exhausted"] = sum(s.attrs["exhausted"] for s in es)

    adam = t.named("model.adam_step")
    m["model.adam_step_ms"] = 1e3 * _median([s.seconds for s in adam])
    m["model.adam_calls"] = len(adam)
    m["model.linear_train_s"] = total("model.linear_train")

    trains = t.done("train.train")
    m["train.train_s"] = t.self_seconds("train.train")
    pair_s = {s.parent: s.seconds for s in tp}
    for mode in ("procedural", "bce_only", "dp_regularized"):
        per_epoch = [
            (s.seconds - pair_s.get(i, 0.0)) / s.attrs["epochs"]
            for i, s in enumerate(t.spans)
            if s.name == "train.train" and s.error is None and s.attrs["mode"] == mode
        ]
        m[f"train.epoch_ms.{mode}"] = 1e3 * _median(per_epoch)
    m["train.row_epochs"] = sum(s.attrs["rows"] * s.attrs["epochs"] for s in trains)
    m["train.evaluate_s"] = t.self_seconds("train.evaluate")
    m["train.evaluate_calls"] = len(t.named("train.evaluate"))

    shap = t.named("explain.kernel_shap")
    model_rows = sum(s.attrs["model_rows"] for s in shap)
    shap_s = total("explain.kernel_shap")
    m["explain.kernel_shap_s"] = shap_s
    m["explain.kernel_shap_calls"] = len(shap)
    m["explain.rows_explained"] = sum(s.attrs["rows"] for s in shap)
    # predict sees the background once, X once, and rows x coalitions x background
    m["explain.coalitions_per_call"] = max(
        ((s.attrs["model_rows"] - s.attrs["rows"] - s.attrs["background"])
         // (s.attrs["rows"] * s.attrs["background"]) for s in shap),
        default=0,
    )
    m["explain.model_rows"] = model_rows
    m["explain.model_rows_per_s"] = model_rows / shap_s if shap_s > 0 else 0.0

    mmd = t.named("fairness.mmd_perm")
    m["fairness.mmd_perm_s"] = total("fairness.mmd_perm")
    m["fairness.mmd_perm_calls"] = len(mmd)
    m["fairness.permutations"] = sum(s.attrs["permutations"] for s in t.done("fairness.mmd_perm"))
    m["fairness.mmd_perm_ms_p50"] = 1e3 * _median([s.seconds for s in mmd])

    reps = t.named("scenarios.repetition")
    m["scenarios.prepare_s"] = t.self_seconds("scenarios.prepare")
    m["scenarios.repetitions"] = len(reps)
    m["scenarios.stage_errors"] = sum(s.error == "StageError" for s in reps)

    cells = [s.seconds for s in t.named("train.evaluate") if s.caller == "sweeps"]
    m["sweeps.cells"] = len(cells)
    m["sweeps.cell_ms_p50"] = 1e3 * _median(cells)
    m["sweeps.cell_ms_p90"] = 1e3 * _p90(cells)
    m["sweeps.self_s"] = t.self_seconds("sweeps.grid") + t.self_seconds("sweeps.slice")

    m["cli.self_s"] = t.self_seconds("cli.main")
    m["util.write_s"] = total("util.write")
    return m


def call_counts(tracer: Tracer) -> dict[str, int]:
    """Calls per boundary, with training split out by mode."""
    counts: dict[str, int] = {}
    for s in tracer.spans:
        key = f"{s.name}[{s.attrs.get('mode')}]" if s.name == "train.train" else s.name
        counts[key] = counts.get(key, 0) + 1
    return counts
