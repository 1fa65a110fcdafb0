"""procfair benchmark: run one workload against the checkout's src/ tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

With --trace 0 the body runs untraced and the end-to-end metrics are
reported; with --trace 1 untraced and traced iterations alternate and the
per-layer metrics are reported. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
Metric names and units come from BENCHMARK.json at the checkout root.
See perfbench/NOTES.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import os

# One BLAS thread on both sides of every comparison (no more than nproc);
# set before numpy is imported, here and in every child process.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 3
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Context, Outcome  # noqa: E402


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can be
    # compared with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_procfair():
    """Import procfair from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import procfair

    if Path(procfair.__file__).resolve().parent != SRC / "procfair":
        raise ImportError(f"procfair imported from {procfair.__file__}, not {SRC}")
    return procfair


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's outputs as the --seed reference values")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


@dataclass
class Iteration:
    wall_s: float
    outcome: Outcome
    tracer: tracing.Tracer


def run_iteration(workload, ctx, boundaries) -> Iteration:
    """One workload body with the given boundaries wrapped, timed to a
    checked result."""
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, boundaries)
    try:
        t0 = time.perf_counter()
        outcome = workload.body(ctx)
        wall = time.perf_counter() - t0
    finally:
        restore()
    return Iteration(wall, outcome, tracer)


def iterate(workload, ctx, seconds: float, plan) -> list[Iteration]:
    """Cycle through `plan` (boundary sets), at least MIN_ITERATIONS times,
    while the next iteration is expected to end within `seconds`."""
    done: list[Iteration] = []
    start = time.perf_counter()
    while True:
        done.append(run_iteration(workload, ctx, plan[len(done) % len(plan)]))
        typical = statistics.median(it.wall_s for it in done)
        if len(done) >= MIN_ITERATIONS and time.perf_counter() - start + typical > seconds:
            return done


def setup_seconds(args) -> float:
    """Process start to the first call into the body, in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = _clock()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


def _probe_ms(fn, repeats: int = 5) -> float:
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


PROBES = ("model.mlp_logits_ms", "model.bce_loss_grads_ms", "model.gpf_loss_grads_ms",
          "train.dp_proxy_grads_ms", "train.overhead_ratio")


def probe_metrics(tracer) -> dict[str, float]:
    """Standalone kernels timed on the workload's train split, and the
    criterion-10 overhead ratio (procedural / bce_only training time).

    The split is the one the first training call saw, else the first split
    made. The ratio pairs that training call with one untraced training of
    the other mode on the same split; it is 0 where no MLP is trained.
    """
    import importlib

    from procfair.model import bce_loss_grads, gpf_loss_grads, mlp_init, mlp_logits
    from procfair.pairing import build_pairs

    train_mod = importlib.import_module("procfair.train")
    trains = [s for s in tracer.done("train.train")
              if s.attrs["mode"] in ("procedural", "bce_only")]
    splits = tracer.done("data.split")
    if trains:
        data, cfg = trains[0].attrs["data"], trains[0].attrs["cfg"]
    elif splits:
        data, cfg = splits[0].attrs["train_split"], None
    else:  # the body failed before it split any data
        return dict.fromkeys(PROBES, 0.0)
    pairs = next((s.attrs["pairs"] for s in tracer.done("pairing.train_pairs")
                  if s.attrs["data"] is data), None)
    if pairs is None:
        pairs = build_pairs(data)
    params = mlp_init(data.n_features, cfg.hidden if cfg else 32, 0)
    X, y, group = data.features, data.labels.astype(float), data.group
    m = {
        "model.mlp_logits_ms": _probe_ms(lambda: mlp_logits(params, X)),
        "model.bce_loss_grads_ms": _probe_ms(lambda: bce_loss_grads(params, X, y)),
        "model.gpf_loss_grads_ms": _probe_ms(lambda: gpf_loss_grads(params, X, pairs)),
        "train.dp_proxy_grads_ms": _probe_ms(lambda: train_mod.dp_proxy_grads(params, X, group)),
        "train.overhead_ratio": 0.0,
    }
    if cfg is not None:
        other = "bce_only" if cfg.mode == "procedural" else "procedural"
        t0 = time.perf_counter()
        train_mod.train(data, replace(cfg, mode=other))
        t_other = time.perf_counter() - t0
        t_first = trains[0].seconds
        proc, bce = (t_first, t_other) if other == "bce_only" else (t_other, t_first)
        m["train.overhead_ratio"] = proc / bce
    return m


def boundary_problems(workload, tracer) -> list[str]:
    """Each boundary the workload is predicted to exercise saw a call, and
    every other boundary saw none; sampled KernelSHAP shows up only where
    predicted."""
    counts = tracing.call_counts(tracer)
    names = {b[2] for b in tracing.BOUNDARIES} - {"train.train"}
    names |= {f"train.train[{m}]" for m in ("procedural", "bce_only", "dp_regularized")}
    problems = [f"boundary {n}: {counts.get(n, 0)} calls, predicted "
                f"{'>= 1' if n in workload.exercised else '0'}"
                for n in sorted(names)
                if (counts.get(n, 0) > 0) != (n in workload.exercised)]
    got = tracing.layer_metrics(tracer)["explain.coalitions_per_call"]
    if got != workload.coalitions:
        problems.append(f"KernelSHAP used {got} coalitions per call, "
                        f"predicted {workload.coalitions}")
    return problems


def reference_problems(workload, seed: int, outcome) -> list[str]:
    """At the reference seed, outputs match the recorded values."""
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"] or workload.name not in ref["workloads"]:
        return []
    problems = []
    for name, want in ref["workloads"][workload.name]["values"].items():
        got = outcome.values.get(name)
        tol = ref["abs_tol_gpf_fae"] if "gpf_fae" in name else ref["abs_tol"]
        if got is None or abs(got - want) > tol:
            problems.append(f"reference {name}: got {got!r}, recorded {want!r}")
    return problems


def record_reference(workload, seed: int, outcome) -> None:
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"]:
        raise SystemExit(f"references are recorded at seed {ref['seed']}")
    ref["workloads"][workload.name] = {"payload_sha256": outcome.sha, "values": outcome.values}
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")


def provenance(args, payload_shas) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=ROOT) if shutil.which("git") else None
    source = hashlib.sha256()
    for path in sorted((SRC / "procfair").rglob("*")):
        if path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git.stdout.strip() if git is not None and git.returncode == 0 else None,
        "source_sha256": source.hexdigest(),
        "payload_sha256": sorted(set(payload_shas)),
    }


def _metrics(values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"benchmark computed no value for {sorted(missing)}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


@contextlib.contextmanager
def set_up(args):
    """The workload's inputs in a fresh scratch directory, removed on exit."""
    import_procfair()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        ctx = Context(seed=args.seed % 2**32, workdir=workdir)
        WORKLOADS[args.workload].setup(ctx)
        yield ctx
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    specs = _metric_specs()
    setups = [setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    with set_up(args) as ctx:
        if args.trace:
            runs = iterate(workload, ctx, args.seconds, [(), tracing.BOUNDARIES])
            traced = runs[1::2]
            problems = boundary_problems(workload, traced[0].tracer)
        else:
            runs = iterate(workload, ctx, args.seconds, [()])
            problems = []
        untraced = runs[0::2] if args.trace else runs
        outcomes = [it.outcome for it in runs]
        shas = [o.sha for o in outcomes]
        if len(set(shas)) != 1:
            problems.append(f"metric payloads differ across iterations of seed {args.seed}")
        problems += reference_problems(workload, ctx.seed, outcomes[0])
        if args.record_reference:
            record_reference(workload, ctx.seed, outcomes[0])

        wall = statistics.median(it.wall_s for it in untraced)
        if args.trace:
            per_iter = [tracing.layer_metrics(it.tracer) for it in traced]
            values = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
            values.update(probe_metrics(traced[0].tracer))
            traced_wall = statistics.median(it.wall_s for it in traced)
            values["trace.overhead_pct"] = 100.0 * (traced_wall / wall - 1.0)
            metrics = _metrics(values, specs["per_layer"])
        else:
            values = {
                "wall_s": wall,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = _metrics(values, specs["end_to_end"])

    # a failed boundary, determinism or reference check counts as one more
    # failed operation on top of the failures the outputs show
    attempted = sum(o.attempted for o in outcomes)
    failed = min(attempted, sum(o.failed for o in outcomes) + len(problems))
    problems += [p for o in outcomes for p in o.problems]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"# provenance {json.dumps(provenance(args, shas), sort_keys=True)}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# error_rate = {failed / attempted:.6g} fraction ({failed}/{attempted})")
    print(f"# iterations wall_s {[round(it.wall_s, 4) for it in runs]}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload of BENCHMARK.json in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(f"{name} {line}" for line in lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    return total


def setup_probe(args) -> None:
    """The set-up path of run_workload, ending where the body would start."""
    with set_up(args):
        print(f"ready {_clock()!r}", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (ImportError, OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
