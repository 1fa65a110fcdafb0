"""Command-line harness.

Subcommands: generate, train, evaluate, scenario run/compare,
sweep ws/p/grid, explain dump, presets list/show. Exit codes: 0 success,
1 validation error (bad flags, malformed config, missing file), 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

from .data import (ColumnSchema, SyntheticConfig, _check_pearson_threshold, dataset_dp,
                   export_schema, generate_synthetic, write_csv)
from .fairness import MmdConfig
from .model import load_params, save_params
from .scenarios import (
    ResultBundle,
    ScenarioConfig,
    compare_scenarios,
    emit_sensitive_attributions,
    list_presets,
    load_preset,
    prepare_repetition,
    run_repetition,
    run_scenario,
)
from .sweeps import _grid, _selected_synthetic, p_sweep, sweep_p_ws, sweep_ws, write_sweep_csv
from .train import TrainConfig, evaluate
from .util import atomic_write_json, config_hash


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1. The
    # negative-number matcher is widened so range values like -5:5:50 (and
    # -inf:0:3 or -1:nan:3, which the range check then rejects by name) pass
    # as arguments instead of being mistaken for flags.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+(\.\d+)?|inf)(:-?([\d.]+|inf|nan)){0,2}$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _non_negative_int(text: str) -> int:
    """argparse type of every --seed and --rep."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _flag_checked(flag: str, build):
    """build(), with the ValueError its config raises for a bad flag value
    re-raised under that flag's name."""
    try:
        return build()
    except ValueError as exc:
        raise ValueError(f"argument {flag}: {exc}") from None


def _parse_range(flag: str, text: str) -> tuple[tuple[float, float], int]:
    """((lo, hi), count) of a 'lo:hi:count' flag, checked as a sweep checks it."""
    def parse():
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range must look like lo:hi:count, got {text!r}")
        bounds, count = (float(parts[0]), float(parts[1])), int(parts[2])
        _grid(bounds, count)
        return bounds, count
    return _flag_checked(flag, parse)


def _load_scenario(args) -> ScenarioConfig:
    """The config of --preset or --config, with --seed as its master seed.
    A csv dataset's schema file is read and checked here."""
    if args.preset:
        cfg = ScenarioConfig.from_dict(load_preset(args.preset))
    elif args.config:
        cfg = ScenarioConfig.from_json(args.config)
    else:
        raise ValueError("provide --config FILE or --preset NAME")
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if cfg.dataset["kind"] == "csv":  # a bad schema fails here, not in every repetition
        try:
            ColumnSchema.from_json(cfg.dataset["schema"])
        except (OSError, ValueError) as exc:
            raise ValueError(f"dataset.schema {cfg.dataset['schema']!r}: {exc}") from None
    return cfg


def _check_synthetic_flags(args) -> None:
    """Check the --out and --n that generate and the sweeps share."""
    _check_out(args.out)
    _flag_checked("--n", lambda: SyntheticConfig(p=0.5, n_points=args.n))


def _cmd_generate(args) -> int:
    _check_synthetic_flags(args)
    cfg = _flag_checked("--p", lambda: SyntheticConfig(p=args.p, n_points=args.n, seed=args.seed))
    data = generate_synthetic(cfg)
    h = config_hash({"p": args.p, "n": args.n, "seed": args.seed})
    out = Path(args.out)
    write_csv(data, out, config_hash=h)
    schema_path = out.with_suffix(out.suffix + ".schema.json")
    export_schema(data).to_json(schema_path)
    print(f"wrote {data.n_rows} rows to {out} (dataset DP {dataset_dp(data):.3f})")
    print(f"wrote reload schema to {schema_path}")
    return 0


def _check_out(out: str, directory: bool = False) -> Path:
    """--out as a Path, checked before any work: it may not name an existing
    file where a directory is written, nor an existing directory where a
    file is written, nor lie under an existing path that is not a
    directory."""
    path = Path(out)
    if path.exists() and path.is_dir() != directory:
        raise ValueError(f"argument --out: {out} exists and is "
                         f"{'not a directory' if directory else 'a directory'}")
    blocked = next((p for p in path.parents if p.exists() and not p.is_dir()), None)
    if blocked is not None:
        raise ValueError(f"argument --out: {blocked} exists and is not a directory")
    return path


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("PROCFAIR_OUT")
    if not out:
        raise ValueError("provide --out DIR or set PROCFAIR_OUT")
    return _check_out(out, directory=True)


def _cmd_train(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    result = run_repetition(cfg, args.rep)
    save_params(result.params, out / "model.json")
    result.history.to_csv(out / "history.csv", config_hash=cfg.hash())
    report = result.report
    report.to_json(out / "report.json", cfg.hash())
    print(f"trained {cfg.scenario_id} (rep {args.rep}): "
          f"acc={report.accuracy:.3f} gpf_fae={report.gpf_fae:.3f} dp={report.dp:.3f}")
    print(f"model written to {out / 'model.json'}")
    return 0


def _model_and_inputs(cfg: ScenarioConfig, args):
    """(params, eval_set): the --model file, and repetition --rep's data
    pipeline rebuilt so the model sees the same test split. A model whose
    input size is not the split's feature count is rejected."""
    params = load_params(args.model)
    _, eval_set = prepare_repetition(cfg, args.rep)
    if params.input_size != eval_set.test.n_features:
        raise ValueError(f"model {args.model} has input_size {params.input_size}, but scenario "
                         f"{cfg.scenario_id!r} has {eval_set.test.n_features} features")
    return params, eval_set


def _cmd_evaluate(args) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    report = evaluate(*_model_and_inputs(cfg, args))
    report.to_json(out / "report.json", cfg.hash())
    print(f"evaluated {args.model}: acc={report.accuracy:.3f} "
          f"gpf_fae={report.gpf_fae:.3f} dp={report.dp:.3f}")
    return 0


def _cmd_scenario_run(args) -> int:
    cfg = _load_scenario(args)
    if args.reps is not None:
        cfg = _flag_checked("--reps", lambda: replace(cfg, repetitions=args.reps))
    out_dir = _out_dir(args)
    bundle_path = out_dir / f"{cfg.scenario_id}.bundle.json"
    if bundle_path.exists() and not args.force:
        raise ValueError(f"{bundle_path} exists; pass --force to overwrite")
    bundle = run_scenario(cfg, out_dir=out_dir)
    agg = bundle.aggregate
    def _fmt(name):
        entry = agg.get(name, {})
        return "n/a" if entry.get("mean") is None else f"{entry['mean']:.3f}"
    print(f"scenario {cfg.scenario_id}: {len(bundle.reports)}/{cfg.repetitions} repetitions ok")
    print(f"  acc={_fmt('accuracy')} gpf_fae={_fmt('gpf_fae')} dp={_fmt('dp')}")
    if bundle.errors:
        for err in bundle.errors:
            print(f"  rep {err['repetition']} failed at {err['stage']}: {err['error']}")
    print(f"bundle written to {bundle_path}")
    return 0


def _cmd_scenario_compare(args) -> int:
    if args.out:
        _check_out(args.out)
    bundles = [ResultBundle.from_json(p) for p in args.bundles]
    rows = compare_scenarios(bundles, metric=args.metric, alpha=args.alpha)
    for row in rows:
        if row.get("p_value") is None:
            print(f"{row['scenario_a']} vs {row['scenario_b']} [{row['metric']}]: undefined")
        else:
            mark = "significant" if row["significant"] else "not significant"
            print(
                f"{row['scenario_a']} vs {row['scenario_b']} [{row['metric']}]: "
                f"p={row['p_value']:.5f} ({mark} at {args.alpha})"
            )
    if args.out:
        atomic_write_json(args.out, rows, indent=2)
        print(f"comparison written to {args.out}")
    return 0


def _check_sweep_flags(args, p_values) -> None:
    """Check the common sweep flags, and each of p_values as a synthetic p,
    before any data is made or model fitted."""
    _check_synthetic_flags(args)
    for p in p_values:
        _flag_checked("--p", lambda: SyntheticConfig(p=p, n_points=args.n))
    _flag_checked("--epochs", lambda: TrainConfig(epochs=args.epochs))
    _flag_checked("--perms", lambda: MmdConfig(n_permutations=args.perms))
    if "pearson" in args:
        _flag_checked("--pearson", lambda: _check_pearson_threshold(args.pearson))


def _write_sweep(args, rows: list[dict], noun: str = "sweep") -> int:
    """Write rows to --out, headed by the hash of every other flag, and report."""
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "sweep_command", "func", "out")}
    h = config_hash({"cmd": f"sweep_{args.sweep_command}", **flags})
    write_sweep_csv(rows, args.out, config_hash=h)
    print(f"wrote {len(rows)} {noun} rows to {args.out}")
    return 0


def _cmd_sweep_ws(args) -> int:
    ws_range, count = _parse_range("--ws", args.ws)
    _check_sweep_flags(args, [args.p])
    data = _selected_synthetic(args.p, args.n, args.seed, args.pearson)
    rows = sweep_ws(data, ws_range, count, args.seed, epochs=args.epochs,
                    n_permutations=args.perms, p=args.p)
    return _write_sweep(args, rows)


def _cmd_sweep_p(args) -> int:
    p_range, count = _parse_range("--p", args.p)
    _check_sweep_flags(args, p_range)
    cfg = _flag_checked(
        "--alpha", lambda: TrainConfig(mode="procedural", alpha=args.alpha, epochs=args.epochs))
    rows = p_sweep(p_range, count, cfg, args.seed, n_points=args.n, n_permutations=args.perms)
    return _write_sweep(args, rows)


def _cmd_sweep_grid(args) -> int:
    p_range, p_count = _parse_range("--p", args.p)
    ws_range, ws_count = _parse_range("--ws", args.ws)
    _check_sweep_flags(args, p_range)
    rows = sweep_p_ws(p_range, ws_range, (p_count, ws_count), args.seed,
                      n_points=args.n, pearson_threshold=args.pearson, epochs=args.epochs,
                      n_permutations=args.perms)
    return _write_sweep(args, rows, "grid")


def _cmd_explain_dump(args) -> int:
    _check_out(args.out)
    cfg = _load_scenario(args)
    if args.model:
        params, eval_set = _model_and_inputs(cfg, args)
    else:
        result = run_repetition(cfg, args.rep)
        params, eval_set = result.params, result.eval_set
    summary = emit_sensitive_attributions(params, eval_set, args.out, cfg.hash())
    print(
        f"wrote sensitive attributions to {args.out} "
        f"(mean s1 {summary['mean_s1']:+.4f}, mean s2 {summary['mean_s2']:+.4f})"
    )
    return 0


def _cmd_presets(args) -> int:
    if args.action == "list":
        for name in list_presets():
            print(name)
    else:
        print(json.dumps(load_preset(args.name), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="procfair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups shared through parents=: the scenario to load, the repetition
    # to run, the output directory, synthetic data and its CSV, the sweep settings.
    scenario_flags = argparse.ArgumentParser(add_help=False)
    scenario_flags.add_argument("--config", help="scenario config JSON")
    scenario_flags.add_argument("--preset", help="built-in preset name")
    scenario_flags.add_argument("--seed", type=_non_negative_int,
                                help="override the config master seed")
    rep_flag = argparse.ArgumentParser(add_help=False)
    rep_flag.add_argument("--rep", type=_non_negative_int, default=0,
                          help="repetition index to run")
    out_dir_flag = argparse.ArgumentParser(add_help=False)
    out_dir_flag.add_argument("--out", help="output directory (default: $PROCFAIR_OUT)")
    synthetic_flags = argparse.ArgumentParser(add_help=False)  # generate and the sweeps
    synthetic_flags.add_argument("--n", type=int, default=SyntheticConfig.n_points,
                                 help="synthetic points per dataset")
    synthetic_flags.add_argument("--seed", type=_non_negative_int, default=0)
    synthetic_flags.add_argument("--out", required=True, help="output CSV path")
    sweep_flags = argparse.ArgumentParser(add_help=False)
    sweep_flags.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    sweep_flags.add_argument("--perms", type=int, default=MmdConfig.n_permutations,
                             help="permutation count")
    pearson_flag = argparse.ArgumentParser(add_help=False)  # the sweeps that select features
    pearson_flag.add_argument("--pearson", type=float, default=0.30,
                              help="feature-selection threshold")

    p = sub.add_parser("generate", parents=[synthetic_flags],
                       help="generate a synthetic dataset CSV")
    p.add_argument("--p", type=float, required=True, help="group-bias parameter in [0,1]")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", parents=[scenario_flags, rep_flag, out_dir_flag],
                       help="train one model from a scenario config")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", parents=[scenario_flags, rep_flag, out_dir_flag],
                       help="evaluate a saved model on a scenario's test split")
    p.add_argument("--model", required=True, help="model JSON path")
    p.set_defaults(func=_cmd_evaluate)

    scen = sub.add_parser("scenario", help="multi-repetition experiment bundles")
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    p = scen_sub.add_parser("run", parents=[scenario_flags, out_dir_flag],
                            help="run all repetitions and write a bundle")
    p.add_argument("--reps", type=int, help="override repetition count")
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing bundle in the output directory")
    p.set_defaults(func=_cmd_scenario_run)
    p = scen_sub.add_parser("compare", help="rank-sum comparison of bundles")
    p.add_argument("bundles", nargs="+", help="bundle JSON paths (>= 2)")
    p.add_argument("--metric", help="single metric to compare (default: all)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", help="optional JSON output path")
    p.set_defaults(func=_cmd_scenario_compare)

    sweep = sub.add_parser("sweep", help="bias-interaction sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)
    p = sweep_sub.add_parser("ws", parents=[synthetic_flags, sweep_flags, pearson_flag],
                             help="sensitive-weight sweep at fixed dataset bias")
    p.add_argument("--p", type=float, default=0.65)
    p.add_argument("--ws", default="-5:5:101", help="lo:hi:count grid")
    p.set_defaults(func=_cmd_sweep_ws)

    p = sweep_sub.add_parser("p", parents=[synthetic_flags, sweep_flags],
                             help="dataset-bias sweep with regularized training")
    p.add_argument("--p", default="0.5:0.65:20", help="lo:hi:count grid")
    p.add_argument("--alpha", type=float, default=0.5, help="regularizer weight")
    p.set_defaults(func=_cmd_sweep_p)

    p = sweep_sub.add_parser("grid", parents=[synthetic_flags, sweep_flags, pearson_flag],
                             help="full p x ws grid")
    p.add_argument("--p", default="0.3:0.7:50", help="lo:hi:count grid")
    p.add_argument("--ws", default="-5:5:50", help="lo:hi:count grid")
    p.set_defaults(func=_cmd_sweep_grid)

    expl = sub.add_parser("explain", help="attribution dumps")
    expl_sub = expl.add_subparsers(dest="explain_command", required=True)
    p = expl_sub.add_parser("dump", parents=[scenario_flags, rep_flag],
                            help="per-point sensitive-attribute SHAP values")
    p.add_argument("--model", help="saved model JSON (default: train per config)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_explain_dump)

    p = sub.add_parser("presets", help="built-in scenario presets")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="preset name for 'show'")
    p.set_defaults(func=_cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "action", None) == "show" and not getattr(args, "name", None):
            raise ValueError("presets show requires a preset name")
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything unexpected is a runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
