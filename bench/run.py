#!/usr/bin/env python3
"""Benchmark of the lowrankmf solvers: time to a solution of stated accuracy.

Usage, from the root of a checkout::

    python3 bench/run.py --workload denoise --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

Workloads are defined in ``workloads.py``.  A run builds the workload's
fixed set of seeded instances, solves it in passes, each in an order drawn
from ``--seed``, until another pass would not fit in ``--seconds`` (at
least one pass), and checks every solve (``checks.py``).  ``--workload
all`` runs every workload in turn, each in a fresh process.

``--trace 0`` prints the end-to-end metrics.  The time of an instance
is its solve with outside interference taken out: the fastest pass of
each iteration plus the fastest pass of the rest (``instance_seconds``).
``setup_s`` is the median over several fresh processes that each import
the library and build the instance set; ``peak_rss_mb`` is the peak
resident memory of the process that solves.

``--trace 1`` prints the per-layer metrics instead.  It solves the set
once untraced, once with every function in ``TARGETS`` wrapped by the
tracer (``tracer.py``), and once more traced in a child process with
``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1`` (metrics with the suffix
``.blas1``).  Counts come from one pass, so they repeat exactly.
``unattributed_s`` is the solve time that no wrapped function covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The BLAS
environment of the measured runs is left as the caller set it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA_DIR = ROOT / ".bench_build" / "bench-data"
WORKLOAD_NAMES = ("denoise", "complete", "nmf", "complete-large")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 170

# The library under test is the checkout's source tree, never an installed
# copy: without it, importing this file fails and no result is printed.
sys.path.insert(0, str(SRC))
import checks  # noqa: E402
import lowrankmf  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import workloads  # noqa: E402
from lowrankmf import core  # noqa: E402
from tracer import Tracer  # noqa: E402

if Path(lowrankmf.__file__).resolve().parent != SRC / "lowrankmf":
    raise ImportError(f"lowrankmf was not imported from {SRC}")

# Public library functions the solvers call, as <module>.<function>.
TARGETS = (
    "denoise.solve_denoise",
    "completion.solve_mc",
    "nmf.solve_nmf",
    "denoise.update_factor_denoise",
    "denoise.finish_iteration",
    "nmf.armijo_search",
    "nmf.active_set_rows",
    "oracles.proximity_delta_a",
    "core.objective",
    "core.gradient",
    "core.weight_diag",
    "core.as_matrix",
    "common.safe_relative_change",
    "common.prune_columns",
    "common.init_factors",
    "data.gen_lowrank",
    "data.add_noise_snr",
    "data.sample_mask",
    "data.read_coordinate",
)
# The benchmark's own span around each solve; its self time is unattributed.
SOLVE_SPAN = "bench.solve"

E2E_UNITS = {
    "wall_s": "s",
    "solve_s_p50": "s",
    "ms_per_iter": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "nre_p50": "ratio",
    "target_hit_frac": "ratio",
}
# Printed with the others but not a gated metric: it is 0 on a healthy run.
FAIL_FRAC = "fail_frac"


@dataclass
class Outcome:
    seconds: float
    iterations: int = 0
    col_iters: int = 0
    prunes: int = 0
    nre: float = math.nan
    d: int = 0
    hit: bool = False
    # Wall time of each iteration, as the solver's trace records it.
    iter_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def count_armijo(result, counters) -> None:
    counters["nmf.backtracks"] += getattr(result, "m_k", 0)
    counters["nmf.accepted"] += bool(getattr(result, "accepted", False))


HOOKS = {"nmf.armijo_search": count_armijo}


def run_one(spec, inst, tracer=None) -> Outcome:
    """Time one solve, then check it with the tracer paused."""
    t0 = time.perf_counter()
    try:
        with tracer.span(SOLVE_SPAN) if tracer else nullcontext():
            fp, trace = workloads.solve(spec, inst)
    except Exception as exc:  # a failed solve is counted, and the run goes on
        return Outcome(time.perf_counter() - t0, problems=[f"raised {exc!r}"])
    seconds = time.perf_counter() - t0
    with tracer.paused() if tracer else nullcontext():
        nre = core.nre(inst.x0, fp)
        problems = checks.check_solve(spec.kind, inst, fp, trace, nre)
    return Outcome(
        seconds=seconds,
        iterations=trace.iterations,
        col_iters=sum(r.d for r in trace.records),
        prunes=len(trace.prunes),
        nre=nre,
        d=fp.d,
        hit=workloads.hits_target(spec, nre, fp.d),
        iter_ms=[getattr(r, "ms", math.nan) for r in trace.records],
        problems=problems,
    )


def warm_up(spec, inst) -> None:
    """Two iterations of one solve, so lazy set-up is not timed."""
    cfg = replace(inst.cfg, max_iter=2)
    workloads.solve(spec, replace(inst, cfg=cfg))


def solve_in_order(spec, instances, rng: random.Random, tracer=None) -> list[Outcome]:
    """One pass over the set in an order drawn from ``rng``; outcomes by index."""
    order = list(range(len(instances)))
    rng.shuffle(order)
    outcomes = [None] * len(instances)
    for i in order:
        outcomes[i] = run_one(spec, instances[i], tracer)
    return outcomes


def timed_passes(spec, instances, seconds: float, rng) -> list[list[Outcome]]:
    """Solve the set in passes while another pass fits in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(solve_in_order(spec, instances, rng))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def instance_seconds(runs: list[Outcome]) -> float:
    """One instance's solve time with outside interference taken out.

    Every pass of an instance does the same work, iteration by iteration,
    so the slower of two timings of the same piece measures the machine,
    not the code.  The estimate is the fastest pass of each iteration (the
    ``ms`` its trace record holds) plus the fastest pass of the time
    outside the records (start-up and per-iteration bookkeeping).  Pieces
    of a few milliseconds dodge the sub-second slowdowns of a shared host
    that a whole solve of a second or more cannot.  If the passes did not
    run the same iterations, it is the fastest whole solve.
    """
    per_pass = [o.iter_ms for o in runs]
    if len({len(ms) for ms in per_pass}) != 1 or not all(
        math.isfinite(t) for ms in per_pass for t in ms
    ):
        return min(o.seconds for o in runs)
    outside = min(o.seconds - 1e-3 * sum(o.iter_ms) for o in runs)
    inside = 1e-3 * sum(min(times) for times in zip(*per_pass))
    return outside + inside


def end_to_end(passes, setup_samples, peak_rss_mb) -> dict[str, float]:
    first = passes[0]
    per_instance = [instance_seconds([p[i] for p in passes]) for i in range(len(first))]
    wall = sum(per_instance)
    return {
        "wall_s": wall,
        "solve_s_p50": statistics.median(per_instance),
        "ms_per_iter": 1e3 * wall / max(sum(o.iterations for o in first), 1),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "nre_p50": statistics.median(o.nre for o in first),
        "target_hit_frac": sum(o.hit for o in first) / len(first),
    }


def tail_percentile(values):
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100)[p - 1]


def layer_metrics(summary, outcomes, counters, absent) -> dict[str, float]:
    out = {}
    for name in TARGETS:
        entry = summary.get(name, {"self_s": 0.0, "calls": 0})
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.calls"] = entry["calls"]
    out["unattributed_s"] = summary.get(SOLVE_SPAN, {"self_s": 0.0})["self_s"]
    armijo_calls = out["nmf.armijo_search.calls"]
    out["solver.iterations"] = sum(o.iterations for o in outcomes) / len(outcomes)
    out["solver.col_iters"] = sum(o.col_iters for o in outcomes)
    out["solver.prune_events"] = sum(o.prunes for o in outcomes)
    out["nmf.backtracks"] = counters.get("nmf.backtracks", 0)
    out["nmf.accept_ratio"] = (
        counters.get("nmf.accepted", 0) / armijo_calls if armijo_calls else 0.0
    )
    out["trace.absent_names"] = len(absent)
    return out


def traced_pass(spec, seed: int):
    """Build the set and solve it once with every target wrapped."""
    tracer = Tracer(TARGETS, on_return=HOOKS)
    with tracer:
        instances = workloads.build_instances(spec, DATA_DIR)
        outcomes = solve_in_order(spec, instances, random.Random(seed), tracer)
    metrics = layer_metrics(tracer.summary(), outcomes, tracer.counters, tracer.absent)
    return metrics, outcomes, tracer.absent


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    out = {}
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    def blas_version(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
    }


def self_command(args, workload: str, role: str = "main") -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--quick"] if args.quick else [])


def run_child(cmd, timeout: float, env=None) -> list[str]:
    """Run a fresh process to completion; returns its stdout lines."""
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def setup_seconds(args) -> float:
    """Wall time of a fresh process that imports the library and builds the set."""
    t0 = time.perf_counter()
    run_child(self_command(args, args.workload, "setup"), CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def result_line(outcomes, metrics, units) -> dict:
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if ".self_s" in name or name.startswith("unattributed_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def print_problems(outcomes) -> None:
    for i, o in enumerate(outcomes):
        for p in o.problems:
            print(f"  FAIL solve {i}: {p}")


def measure_end_to_end(args, spec) -> dict:
    setup = [setup_seconds(args) for _ in range(SETUP_PROBES)]
    instances = workloads.build_instances(spec, DATA_DIR)
    warm_up(spec, instances[0])
    passes = timed_passes(spec, instances, args.seconds, random.Random(args.seed))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(passes, setup, peak_mb)
    outcomes = [o for p in passes for o in p]
    print(f"env {json.dumps(environment())}")
    print(f"  {len(outcomes)} solves in {len(passes)} passes")
    for i, o in enumerate(passes[0]):
        times = " ".join(f"{p[i].seconds:.3f}" for p in passes)
        print(f"  instance {i}: {o.iterations} iterations, d={o.d}, nre={o.nre:.4f}, s: {times}")
    tail = tail_percentile([o.seconds for o in outcomes])
    for name, value in metrics.items():
        extra = ""
        if name == "solve_s_p50":
            extra = f"  (median of {len(instances)} instances" + (
                f"; p{tail[0]} of all solves {tail[1]:.4g} s)" if tail else ")"
            )
        print(f"  {name:<16} {value:.6g} {E2E_UNITS[name]}{extra}")
    failed = sum(1 for o in outcomes if o.problems)
    print(f"  {FAIL_FRAC:<16} {failed / len(outcomes):.6g} ratio ({failed}/{len(outcomes)})")
    print_problems(outcomes)
    return result_line(outcomes, metrics, E2E_UNITS)


def measure_layers(args, spec) -> dict:
    instances = workloads.build_instances(spec, DATA_DIR)
    warm_up(spec, instances[0])
    untraced = sum(run_one(spec, inst).seconds for inst in instances)
    metrics, outcomes, absent = traced_pass(spec, args.seed)
    metrics["trace.overhead_ratio"] = sum(o.seconds for o in outcomes) / untraced
    env1 = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    blas1 = json.loads(
        run_child(self_command(args, args.workload, "blas1"), CHILD_TIMEOUT_S, env1)[-1]
    )
    differ = []
    for name, value in blas1["metrics"].items():
        if layer_unit(name) == "s":
            metrics[f"{name}.blas1"] = value
        elif value != metrics[name]:
            differ.append(name)
    env = environment()
    env["blas_threads.blas1"] = blas1["blas_threads"]
    print(f"env {json.dumps(env)}")
    print(f"  {len(outcomes)} solves, one traced pass")
    if absent:
        print(f"  absent (no longer in the library): {', '.join(absent)}")
    print("  counts with 1 BLAS thread: " + (f"differ in {differ}" if differ else "identical"))
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {layer_unit(name)}")
    print_problems(outcomes)
    return result_line(outcomes, metrics, {k: layer_unit(k) for k in metrics})


def run_all(args) -> dict:
    """Each workload in turn, each in a fresh process of its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        lines = run_child(self_command(args, name), timeout=900)
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    return merged


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny instances, for tests")
    p.add_argument("--role", choices=("main", "setup", "blas1"), default="main",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    spec = (workloads.QUICK if args.quick else workloads.WORKLOADS)[args.workload]
    if args.role == "setup":
        workloads.build_instances(spec, DATA_DIR)
        return 0
    if args.role == "blas1":
        metrics, _, _ = traced_pass(spec, args.seed)
        print(json.dumps({"metrics": metrics, "blas_threads": blas_threads()}))
        return 0
    workloads.prepare_files(spec, DATA_DIR)
    print(f"workload {spec.name}  seed {args.seed}  instances {spec.instances}")
    result = (measure_layers if args.trace else measure_end_to_end)(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
