"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) in addition to its assertions.  The three benchmark tests cache
their traces for the convergence-rate criterion.
"""

import statistics
import time

import numpy as np
import pytest

from lowrankmf import (
    FactorPair,
    ObservedMask,
    Problem,
    ProblemKind,
    SolverConfig,
    armijo_search,
    gradient,
    nre,
    objective,
    solve_denoise,
    solve_mc,
    solve_nmf,
    update_factor_denoise,
    update_factor_mc,
    weight_diag,
)
from lowrankmf.nmf import active_set_rows
from lowrankmf.oracles import (
    exact_hessian,
    nmf_alpha_bound,
    nmf_surrogate_value,
    psd_gap,
    rate_bound_check,
    surrogate_hessian,
    surrogate_value,
)
from lowrankmf.data import add_noise_snr, gen_lowrank, sample_mask

DENOISE_LAM = 50.0
COMPLETE_LAM = 50.0
NMF_LAM = 5.0

_RUNS = {}


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def denoise_runs():
    if "denoise" not in _RUNS:
        t0 = time.perf_counter()
        out = []
        for seed in range(20):
            x0 = gen_lowrank(200, 200, 5, "gaussian", 1000 + seed)
            y = add_noise_snr(x0, 20.0, 2000 + seed)
            fp, tr = solve_denoise(y, SolverConfig(lam=DENOISE_LAM, d_init=40, seed=seed))
            out.append((nre(x0, fp), fp.d, tr))
        _RUNS["denoise"] = (out, time.perf_counter() - t0)
    return _RUNS["denoise"]


def complete_runs():
    if "complete" not in _RUNS:
        card = round(10 * (2 * 300 - 10) / 0.4)  # FR = 0.4  ->  14750
        t0 = time.perf_counter()
        out = []
        for seed in range(10):
            x0 = gen_lowrank(300, 300, 10, "gaussian", 1000 + seed)
            y = add_noise_snr(x0, 20.0, 2000 + seed)
            mask = sample_mask(300, 300, card, 3000 + seed)
            fp, tr = solve_mc(
                y, mask, SolverConfig(lam=COMPLETE_LAM, d_init=50, seed=seed)
            )
            out.append((nre(x0, fp), fp.d, tr))
        _RUNS["complete"] = (out, time.perf_counter() - t0)
    return _RUNS["complete"]


def nmf_runs():
    if "nmf" not in _RUNS:
        t0 = time.perf_counter()
        out = []
        for seed in range(10):
            x0 = gen_lowrank(200, 200, 5, "uniform01", 1000 + seed)
            y = np.maximum(add_noise_snr(x0, 20.0, 2000 + seed), 0.0)
            fp, tr = solve_nmf(y, SolverConfig(lam=NMF_LAM, d_init=40, seed=seed))
            out.append((nre(x0, fp), fp.d, tr, fp))
        _RUNS["nmf"] = (out, time.perf_counter() - t0)
    return _RUNS["nmf"]


def test_criterion_1_denoising_benchmark():
    out, wall = denoise_runs()
    med = statistics.median(r[0] for r in out)
    frac = sum(1 for r in out if r[1] == 5) / len(out)
    ok = med <= 0.05 and frac >= 0.90 and wall <= 30.0
    report(1, ok, f"median NRE {med:.4f} <= 0.05, d=5 in {frac:.0%} >= 90%, {wall:.1f}s <= 30s")


def test_criterion_2_completion_benchmark():
    out, wall = complete_runs()
    med = statistics.median(r[0] for r in out)
    frac = sum(1 for r in out if r[1] == 10) / len(out)
    ok = med <= 0.20 and frac >= 0.80 and wall <= 60.0
    report(2, ok, f"median NRE {med:.4f} <= 0.20, d=10 in {frac:.0%} >= 80%, {wall:.1f}s <= 60s")


def test_criterion_3_nmf_benchmark():
    out, wall = nmf_runs()
    med = statistics.median(r[0] for r in out)
    ranks = [r[1] for r in out]
    ok = med <= 0.05 and all(5 <= d <= 8 for d in ranks) and wall <= 120.0
    report(3, ok, f"median NRE {med:.4f} <= 0.05, ranks {sorted(set(ranks))} in [5,8], {wall:.1f}s <= 120s")


def test_criterion_4_monotonicity():
    worst = -np.inf
    for trial in range(50):
        rng = np.random.default_rng(4000 + trial)
        y = rng.standard_normal((20, 15))
        cfg = SolverConfig(lam=1.0, d_init=5, seed=trial, max_iter=40)
        _, tr_a = solve_denoise(y, cfg)
        mask = sample_mask(20, 15, 180, 4100 + trial)
        _, tr_b = solve_mc(y, mask, cfg)
        _, tr_c = solve_nmf(np.abs(y), cfg)
        for tr in (tr_a, tr_b, tr_c):
            objs = [tr.initial_objective] + [r.objective for r in tr.records]
            worst = max(worst, max(b - a for a, b in zip(objs, objs[1:])))
    ok = worst <= 1e-10
    report(4, ok, f"50 instances x 3 solvers, worst objective increase {worst:.2e} <= 1e-10")


def test_criterion_5_majorization():
    worst_gap = np.inf
    worst_sample = np.inf
    for trial in range(10):
        rng = np.random.default_rng(5000 + trial)
        for kind in (ProblemKind.DENOISE, ProblemKind.COMPLETE, ProblemKind.NMF):
            if kind is ProblemKind.NMF:
                y = np.abs(rng.standard_normal((4, 3)))
                fp = FactorPair(
                    np.abs(rng.standard_normal((4, 2))),
                    np.abs(rng.standard_normal((3, 2))),
                )
            else:
                y = rng.standard_normal((4, 3))
                fp = FactorPair(
                    rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
                )
            mask = (
                sample_mask(4, 3, 6, 5100 + trial)
                if kind is ProblemKind.COMPLETE
                else None
            )
            hkind = ProblemKind.DENOISE if kind is ProblemKind.NMF else kind
            for side in ("u", "v"):
                worst_gap = min(
                    worst_gap, psd_gap(hkind, side, mask, fp, 1.0, 1e-3)
                )
                factor = fp.u if side == "u" else fp.v
                for _ in range(100):
                    cand = factor + 0.5 * rng.standard_normal(factor.shape)
                    if kind is ProblemKind.NMF:
                        cand = np.maximum(cand, 0.0)
                    s = surrogate_value(hkind, side, y, mask, fp, 1.0, 1e-3, cand)
                    pert = (
                        FactorPair(cand, fp.v)
                        if side == "u"
                        else FactorPair(fp.u, cand)
                    )
                    f = objective(hkind, y, mask, pert, 1.0, 1e-3)
                    worst_sample = min(worst_sample, s - f)
    ok = worst_gap >= -1e-8 and worst_sample >= -1e-9
    report(5, ok, f"min psd gap {worst_gap:.2e} >= -1e-8, min sampled gap {worst_sample:.2e} >= -1e-9")


def test_criterion_6_nmf_step_bound_majorization():
    worst = np.inf
    for trial in range(10):
        rng = np.random.default_rng(6000 + trial)
        y = np.abs(rng.standard_normal((5, 4)))
        fp = FactorPair(
            np.abs(rng.standard_normal((5, 2))), np.abs(rng.standard_normal((4, 2)))
        )
        for side in ("u", "v"):
            g = gradient(ProblemKind.NMF, side, y, None, fp, 1.0, 1e-3)
            factor = fp.u if side == "u" else fp.v
            act = active_set_rows(factor, g, 1e-6)
            alpha = min(1.0, nmf_alpha_bound(side, fp, 1.0, 1e-3, act))
            for _ in range(100):
                cand = np.maximum(
                    factor + 0.3 * rng.standard_normal(factor.shape), 0.0
                )
                s = nmf_surrogate_value(y, side, fp, 1.0, 1e-3, cand, act, alpha)
                pert = (
                    FactorPair(cand, fp.v) if side == "u" else FactorPair(fp.u, cand)
                )
                f = objective(ProblemKind.NMF, y, None, pert, 1.0, 1e-3)
                worst = min(worst, s - f)
    ok = worst >= -1e-9
    report(6, ok, f"alpha-capped sampled majorization, min gap {worst:.2e} >= -1e-9")


def test_criterion_7_rate_bounds_on_benchmark_traces():
    traces = (
        [r[2] for r in denoise_runs()[0]]
        + [r[2] for r in complete_runs()[0]]
        + [r[2] for r in nmf_runs()[0]]
    )
    reports = [rate_bound_check(tr) for tr in traces]
    n_bad = sum(1 for r in reports if not r.ok)
    worst_step = min(r.worst_step_slack for r in reports)
    ok = n_bad == 0
    report(7, ok, f"{len(reports)} traces, per-step/telescoping/displacement all hold, "
                  f"min step slack {worst_step:.2e} ({n_bad} failures)")


def fd_gradient(kind, side, y, mask, fp, lam, eta, h=1e-6):
    factor = fp.u if side == "u" else fp.v
    out = np.zeros_like(factor)
    for i in range(factor.shape[0]):
        for c in range(factor.shape[1]):
            vals = []
            for sgn in (1.0, -1.0):
                bumped = factor.copy()
                bumped[i, c] += sgn * h
                pert = (
                    FactorPair(bumped, fp.v)
                    if side == "u"
                    else FactorPair(fp.u, bumped)
                )
                vals.append(objective(kind, y, mask, pert, lam, eta))
            out[i, c] = (vals[0] - vals[1]) / (2.0 * h)
    return out


def fd_hessian(kind, side, y, mask, fp, lam, eta, h=1e-5):
    factor = fp.u if side == "u" else fp.v
    rows, d = factor.shape
    out = np.zeros((rows * d, rows * d))
    for i in range(rows):
        for c in range(d):
            for sgn in (1.0, -1.0):
                bumped = factor.copy()
                bumped[i, c] += sgn * h
                pert = (
                    FactorPair(bumped, fp.v)
                    if side == "u"
                    else FactorPair(fp.u, bumped)
                )
                g = gradient(kind, side, y, mask, pert, lam, eta)
                out[i * d + c] += sgn * g.reshape(-1)
    return out / (2.0 * h)


def test_criterion_8_gradient_hessian_correctness():
    worst_g = 0.0
    for kind in (ProblemKind.DENOISE, ProblemKind.COMPLETE, ProblemKind.NMF):
        for trial in range(20):
            rng = np.random.default_rng(8000 + trial)
            y = rng.standard_normal((5, 4))
            fp = FactorPair(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))
            if kind is ProblemKind.NMF:
                y = np.abs(y)
                fp = FactorPair(np.abs(fp.u), np.abs(fp.v))
            mask = (
                sample_mask(5, 4, 10, 8100 + trial)
                if kind is ProblemKind.COMPLETE
                else None
            )
            for side in ("u", "v"):
                g = gradient(kind, side, y, mask, fp, 1.0, 1e-3)
                fd = fd_gradient(kind, side, y, mask, fp, 1.0, 1e-3)
                worst_g = max(
                    worst_g,
                    np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12),
                )
    worst_h = 0.0
    for m, n in ((3, 2), (4, 2)):
        rng = np.random.default_rng(8200 + m)
        y = rng.standard_normal((m, n))
        fp = FactorPair(rng.standard_normal((m, 2)), rng.standard_normal((n, 2)))
        for side in ("u", "v"):
            h = exact_hessian(ProblemKind.DENOISE, side, None, fp, 0.9, 1e-2)
            fd = fd_hessian(ProblemKind.DENOISE, side, y, None, fp, 0.9, 1e-2)
            worst_h = max(worst_h, np.linalg.norm(h - fd) / np.linalg.norm(fd))
    ok = worst_g <= 1e-5 and worst_h <= 1e-4
    report(8, ok, f"gradient FD rel err {worst_g:.2e} <= 1e-5, Hessian FD rel err {worst_h:.2e} <= 1e-4")


def dense_surrogate_minimizer(side, y, mask, fp, lam, eta=1e-6):
    kind = ProblemKind.DENOISE if mask is None else ProblemKind.COMPLETE
    factor = fp.u if side == "u" else fp.v
    other = fp.v if side == "u" else fp.u
    rows, d = factor.shape
    h_tilde = other.T @ other + lam * np.diag(weight_diag(fp, eta))
    big = np.kron(np.eye(rows), h_tilde)
    g = gradient(kind, side, y, mask, fp, lam, eta)
    step = np.linalg.solve(big, g.reshape(-1))
    return factor - step.reshape(rows, d)


def test_criterion_9_surrogate_minimizer_equivalence():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(9000 + trial)
        y = rng.standard_normal((6, 5))
        fp = FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((5, 2)))
        w = weight_diag(fp, 1e-6)
        mask = sample_mask(6, 5, 15, 9100 + trial)
        for side in ("u", "v"):
            got, _ = update_factor_denoise(Problem(ProblemKind.DENOISE, y), side, fp, w, 0.8)
            want = dense_surrogate_minimizer(side, y, None, fp, 0.8)
            worst = max(worst, float(np.max(np.abs(got - want))))
            got, _ = update_factor_mc(Problem(ProblemKind.COMPLETE, y, mask), side, fp, w, 0.8)
            want = dense_surrogate_minimizer(side, y, mask, fp, 0.8)
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-8
    report(9, ok, f"closed-form updates vs dense md x md minimizer, max diff {worst:.2e} <= 1e-8")


def test_criterion_10_nmf_feasibility_and_armijo():
    feasible = all(
        np.all(r[3].u >= 0) and np.all(r[3].v >= 0) for r in nmf_runs()[0]
    )
    worst = np.inf
    n_steps = 0
    for trial in range(20):
        rng = np.random.default_rng(10_000 + trial)
        y = np.abs(rng.standard_normal((6, 5)))
        fp = FactorPair(
            np.abs(rng.standard_normal((6, 3))), np.abs(rng.standard_normal((5, 3)))
        )
        cfg = SolverConfig(lam=0.5, d_init=3)
        res = armijo_search(Problem(ProblemKind.NMF, y), "u", fp, weight_diag(fp, cfg.eta), cfg)
        if not res.accepted:
            continue
        n_steps += 1
        f0 = objective(ProblemKind.NMF, y, None, fp, cfg.lam, cfg.eta)
        f1 = objective(
            ProblemKind.NMF, y, None, FactorPair(res.factor, fp.v), cfg.lam, cfg.eta
        )
        active_mask = res.active
        assert active_mask.dtype == bool and active_mask.shape == fp.u.shape
        inactive = float(np.sum(res.grad[~active_mask] * res.direction[~active_mask]))
        moved = float(np.sum(res.grad[active_mask] * (fp.u - res.factor)[active_mask]))
        rhs = cfg.nmf.sigma * (res.alpha * inactive + moved)
        worst = min(worst, (f0 - f1) - rhs)
        assert np.all(res.factor >= 0)
    ok = feasible and n_steps >= 15 and worst >= -1e-12
    report(10, ok, f"all iterates feasible, {n_steps} accepted steps re-satisfy "
                   f"sufficient decrease (min slack {worst:.2e})")


def test_criterion_11_full_mask_reduction():
    worst = 0.0
    for trial in range(3):
        x0 = gen_lowrank(15, 12, 2, "gaussian", 11_000 + trial)
        y = add_noise_snr(x0, 15.0, 11_100 + trial)
        cfg = SolverConfig(
            lam=1.0, d_init=5, seed=trial, max_iter=20, tol=1e-15
        )
        fp_a, tr_a = solve_denoise(y, cfg)
        fp_b, tr_b = solve_mc(y, ObservedMask.full(15, 12), cfg)
        assert tr_a.iterations == tr_b.iterations == 20
        for ra, rb in zip(tr_a.records, tr_b.records):
            worst = max(worst, abs(ra.objective - rb.objective))
            assert ra.d == rb.d
        worst = max(worst, float(np.max(np.abs(fp_a.u - fp_b.u))))
        worst = max(worst, float(np.max(np.abs(fp_a.v - fp_b.v))))
    ok = worst <= 1e-10
    report(11, ok, f"masked solver with full mask tracks the unmasked one over 20 "
                   f"iterations, max deviation {worst:.2e} <= 1e-10")
