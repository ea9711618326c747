"""Command-line front end.

Subcommands: ``denoise``, ``complete``, ``nmf`` run the solvers on a file
or a freshly generated synthetic instance; ``synth`` writes instances to
disk; ``verify`` runs the numerical oracle checks on small instances;
``bench`` sweeps a lambda grid and reports the value with the lowest
reconstruction error.

Exit codes: 0 converged/iteration cap/stalled, 1 runtime error, 2 usage
error, 3 degenerate (all columns pruned).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import data as dio
from .common import STATUS_DEGENERATE, NmfOptions, SolverConfig
from .completion import solve_mc
from .core import FactorPair, InvalidParameterError, ObservedMask, ProblemKind, nmae, nre
from .denoise import solve_denoise
from .nmf import solve_nmf
from . import oracles

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGENERATE = 3


def _snr_float(text: str) -> float:
    val = float(text)  # argparse reports a ValueError as a usage error too
    if not val > -math.inf:  # NaN or -inf; +inf, the default, adds no noise
        raise argparse.ArgumentTypeError("must be a number or +inf")
    return val


def _int_from(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if val < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return val

    return parse


_positive_int = _int_from(1)
_seed = _int_from(0)  # numpy's generators take no negative seed


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]  # argparse reports a ValueError


def _add_solver_flags(p: argparse.ArgumentParser):
    # The config flags parse as plain numbers: SolverConfig and NmfOptions
    # decide their ranges when parse_args builds the run's configs.  --seed
    # also seeds the synthetic instance, as in synth and verify.
    p.add_argument("--eta", type=float, default=SolverConfig.eta)
    p.add_argument("--rank-init", type=int, default=None)
    p.add_argument("--tol", type=float, default=SolverConfig.tol)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    p.add_argument("--prune-tol", type=float, default=SolverConfig.prune_tol)
    p.add_argument("--seed", type=_seed, default=SolverConfig.seed)


def _add_synth_flags(p: argparse.ArgumentParser, mask_card: bool):
    p.add_argument("--rows", type=_positive_int)
    p.add_argument("--cols", type=_positive_int)
    p.add_argument("--rank", type=_positive_int)
    p.add_argument("--snr-db", type=_snr_float, default=math.inf)
    p.add_argument("--dist", choices=["gaussian", "uniform01"])
    if mask_card:  # only a completion instance is masked
        p.add_argument("--mask-card", type=_positive_int)


def _add_nmf_flags(p: argparse.ArgumentParser):
    p.add_argument("--beta-u", type=float, default=NmfOptions.beta_u)
    p.add_argument("--beta-v", type=float, default=NmfOptions.beta_v)
    p.add_argument("--sigma-armijo", type=float, default=NmfOptions.sigma)
    p.add_argument("--eps-active", type=float, default=NmfOptions.eps_active)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrankmf",
        description="Alternating reweighted low-rank matrix factorization solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviations: bench would read ``--lambda 7`` as ``--lambda-grid 7``.
    for name in ("denoise", "complete", "nmf"):
        p = sub.add_parser(name, allow_abbrev=False)
        _add_solver_flags(p)
        _add_synth_flags(p, mask_card=name == "complete")
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument("--input", help="input matrix file")
        p.add_argument("--format", choices=["mm", "csv", "movielens"], default="mm")
        p.add_argument("--output", help="factor output prefix (writes .u.mtx/.v.mtx)")
        p.add_argument("--trace", help="write the iteration trace as JSON")
        if name == "nmf":
            _add_nmf_flags(p)

    p = sub.add_parser("synth", allow_abbrev=False)
    _add_synth_flags(p, mask_card=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--format", choices=["mm", "csv"], default="mm")
    p.add_argument("--output", required=True)

    p = sub.add_parser("verify", allow_abbrev=False)
    p.add_argument("--seed", type=_seed, default=0)

    # bench needs the ground truth of a synthetic instance: no --input.
    p = sub.add_parser("bench", allow_abbrev=False)
    _add_solver_flags(p)
    _add_synth_flags(p, mask_card=True)
    _add_nmf_flags(p)
    p.add_argument(
        "--lambda-grid", type=_float_list, required=True, help="comma-separated lambda values"
    )
    p.add_argument(
        "--problem", choices=["denoise", "complete", "nmf"], default="denoise"
    )
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse ``argv``; ``args.configs`` holds a solver command's configs, one
    per ``--lambda-grid`` value for bench.  A value they refuse exits 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # synth and bench take no --input: their instance is always synthetic.
    if args.command != "verify" and getattr(args, "input", None) is None and not (
        args.rows and args.cols and args.rank
    ):
        alt = " or --input" if hasattr(args, "input") else ""
        parser.error(f"{args.command}: needs --rows, --cols and --rank{alt}")
    if args.command in ("denoise", "complete", "nmf", "bench"):
        try:
            args.configs = _configs(args)
        except InvalidParameterError as exc:
            parser.error(f"{args.command}: {exc}")
    return args


def _configs(args) -> list[SolverConfig]:
    nmf = NmfOptions()
    if hasattr(args, "beta_u"):  # only nmf and bench take the NMF flags
        nmf = NmfOptions(
            beta_u=args.beta_u, beta_v=args.beta_v,
            sigma=args.sigma_armijo, eps_active=args.eps_active,
        )
    # Without --rank-init, d_init is min(m, n), the widest start, set once the
    # instance is loaded (_load_instance); 1 stands in for it until then.
    d_init = 1 if args.rank_init is None else args.rank_init
    lams = args.lambda_grid if args.command == "bench" else [args.lam]
    return [
        SolverConfig(
            lam=lam, d_init=d_init, eta=args.eta, tol=args.tol, max_iter=args.max_iter,
            prune_tol=args.prune_tol, seed=args.seed, nmf=nmf,
        )
        for lam in lams
    ]


def _synthetic(args, dist: str, card: int | None):
    """(x0, y, mask) of the synthetic flags: the ground truth from ``seed``,
    its noisy copy from ``seed + 1`` and, given a ``card``, a mask of that
    many entries from ``seed + 2``."""
    x0 = dio.gen_lowrank(args.rows, args.cols, args.rank, dist, args.seed)
    y = dio.add_noise_snr(x0, args.snr_db, args.seed + 1)
    mask = None
    if card is not None:
        mask = dio.sample_mask(args.rows, args.cols, card, args.seed + 2)
    return x0, y, mask


def _load_instance(args, kind: ProblemKind):
    """Returns (y, mask, x0, configs): mask only for completion and ratings,
    x0 only for a synthetic instance, and the run's configs, whose d_init
    is min(m, n) without --rank-init."""
    x0 = mask = None
    if getattr(args, "input", None) is None:
        dist = args.dist or ("uniform01" if kind is ProblemKind.NMF else "gaussian")
        card = (args.mask_card or args.rows * args.cols) if kind is ProblemKind.COMPLETE else None
        x0, y, mask = _synthetic(args, dist, card)
        if kind is ProblemKind.NMF:
            y = np.maximum(y, 0.0)
    elif args.format == "movielens":
        ml = dio.read_movielens(args.input)
        y, mask = ml.y, ml.mask
    elif kind is ProblemKind.COMPLETE and args.format == "mm":
        y, mask = dio.read_coordinate(args.input)
    else:
        y = dio.read_matrix(args.input, args.format)
        if kind is ProblemKind.COMPLETE:
            mask = ObservedMask.full(*y.shape)
    configs = args.configs
    if args.rank_init is None:  # at least 1: the solver refuses an empty y by name
        configs = [replace(cfg, d_init=max(min(y.shape), 1)) for cfg in configs]
    return y, mask, x0, configs


def _solve(kind: ProblemKind, y, mask, cfg: SolverConfig):
    if kind is ProblemKind.DENOISE:
        return solve_denoise(y, cfg)
    if kind is ProblemKind.COMPLETE:
        return solve_mc(y, mask, cfg)
    return solve_nmf(y, cfg)


def _run_solver(args, kind: ProblemKind) -> int:
    y, mask, x0, (cfg,) = _load_instance(args, kind)
    t0 = time.perf_counter()
    fp, trace = _solve(kind, y, mask, cfg)
    wall = time.perf_counter() - t0
    metrics: dict = {}
    if x0 is not None:
        metrics["nre"] = nre(x0, fp)
    if mask is not None:
        metrics["nmae"] = nmae(y, mask, fp)
    if args.output:
        dio.write_matrix(f"{args.output}.u.mtx", fp.u, "mm")
        dio.write_matrix(f"{args.output}.v.mtx", fp.v, "mm")
    if args.trace:
        with open(args.trace, "w") as fh:
            json.dump(trace.to_json_dict(metrics), fh, indent=1, sort_keys=True)
            fh.write("\n")
    last = trace.records[-1]
    parts = [f"iters={last.k}", f"d={last.d}", f"objective={last.objective:.6g}"]
    parts += [f"{key}={value:.4g}" for key, value in metrics.items()]
    print(*parts, f"status={trace.status}", f"time={wall:.2f}s")
    return EXIT_DEGENERATE if trace.status == STATUS_DEGENERATE else EXIT_OK


def _run_synth(args) -> int:
    _, y, mask = _synthetic(args, args.dist or "gaussian", args.mask_card)
    dio.write_matrix(args.output, y, args.format)
    print(f"wrote {args.rows}x{args.cols} rank-{args.rank} instance to {args.output}")
    if mask is not None:
        mask_path = f"{args.output}.mask.mtx"
        dio.write_mask_coordinate(mask_path, y, mask)
        print(f"wrote mask ({mask.card} entries) to {mask_path}")
    return EXIT_OK


def _run_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0

    def check(label: str, ok: bool, detail: str = ""):
        nonlocal failures
        mark = "PASS" if ok else "FAIL"
        print(f"[{mark}] {label}" + (f" ({detail})" if detail else ""))
        failures += 0 if ok else 1

    for trial in range(3):
        m, n, d = 4, 3, 2
        fp = FactorPair(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
        mask = dio.sample_mask(m, n, 8, args.seed + trial)
        for kind, msk in ((ProblemKind.DENOISE, None), (ProblemKind.COMPLETE, mask)):
            gap = oracles.psd_gap(kind, "u", msk, fp, 1.0, 1e-3)
            check(f"psd gap {kind.value} trial {trial}", gap >= -1e-8, f"min eig {gap:.2e}")
        nuc, bound = oracles.nuclear_bound_check(fp)
        check(
            f"nuclear bound trial {trial}",
            nuc <= bound + 1e-9,
            f"{nuc:.4f} <= {bound:.4f}",
        )
    return EXIT_OK if failures == 0 else EXIT_ERROR


def _run_bench(args) -> int:
    kind = ProblemKind(args.problem)
    y, mask, x0, configs = _load_instance(args, kind)
    best = None
    for cfg in configs:
        fp, trace = _solve(kind, y, mask, cfg)
        err = nre(x0, fp)
        print(f"lambda={cfg.lam:g} nre={err:.4g} d={fp.d} status={trace.status}")
        if best is None or err < best[1]:
            best = (cfg.lam, err)
    print(f"best lambda={best[0]:g} nre={best[1]:.4g}")
    return EXIT_OK


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.command in ("denoise", "complete", "nmf"):
            return _run_solver(args, ProblemKind(args.command))
        if args.command == "synth":
            return _run_synth(args)
        if args.command == "verify":
            return _run_verify(args)
        return _run_bench(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
