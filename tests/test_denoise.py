"""Tests for the alternating reweighted denoising solver."""

import numpy as np
import pytest

from lowrankmf import (
    FactorPair,
    InvalidParameterError,
    Problem,
    ProblemKind,
    SolverConfig,
    gradient,
    nre,
    objective,
    solve_denoise,
    update_factor_denoise,
    update_factor_mc,
    weight_diag,
)
from lowrankmf.data import add_noise_snr, gen_lowrank, sample_mask
from lowrankmf.oracles import proximity_delta_a, surrogate_value


def dense_surrogate_minimizer(side, y, mask, fp, w, lam):
    """Independent minimizer of the quadratic surrogate.

    Solves the full (rows*d) x (rows*d) block system assembled from the
    block-diagonal curvature approximation, instead of the d x d
    factorization the production update uses.
    """
    kind = ProblemKind.DENOISE if mask is None else ProblemKind.COMPLETE
    factor = fp.u if side == "u" else fp.v
    other = fp.v if side == "u" else fp.u
    rows, d = factor.shape
    h_tilde = other.T @ other + lam * np.diag(np.asarray(w, dtype=float))
    big = np.kron(np.eye(rows), h_tilde)
    g = gradient(kind, side, y, mask, fp, lam, 1e-6)
    # the gradient of the surrogate at the current point equals the true
    # gradient except that the regularizer enters linearized through w
    g = g - lam * factor * weight_diag(fp, 1e-6) + lam * factor * np.asarray(w)
    step = np.linalg.solve(big, g.reshape(-1))
    return factor - step.reshape(rows, d)


def test_update_recovers_noiseless_factor():
    rng = np.random.default_rng(0)
    u0 = rng.standard_normal((6, 2))
    v0 = rng.standard_normal((5, 2))
    y = u0 @ v0.T
    fp = FactorPair(rng.standard_normal((6, 2)), v0)
    w = weight_diag(fp, 1e-6)
    got, _ = update_factor_denoise(Problem(ProblemKind.DENOISE, y), "u", fp, w, 1e-12)
    assert np.max(np.abs(got - u0)) < 1e-6


def test_update_scalar_hand_value():
    # m=n=d=1, Y=2, V=1, current pair (1, 1), lam=1, eta ~ 0:
    # D = 1/sqrt(2), U <- 2 / (1 + 1/sqrt(2))
    fp = FactorPair(np.array([[1.0]]), np.array([[1.0]]))
    w = np.array([1.0 / np.sqrt(2.0)])
    got, _ = update_factor_denoise(Problem(ProblemKind.DENOISE, [[2.0]]), "u", fp, w, 1.0)
    assert abs(got[0, 0] - 2.0 / (1.0 + 1.0 / np.sqrt(2.0))) < 1e-12
    assert abs(got[0, 0] - 1.17157) < 1e-5


def test_update_matches_dense_surrogate_minimizer():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((5, 4))
    for trial in range(5):
        fp = FactorPair(
            np.random.default_rng(10 + trial).standard_normal((5, 2)),
            np.random.default_rng(40 + trial).standard_normal((4, 2)),
        )
        for side in ("u", "v"):
            w = weight_diag(fp, 1e-6)
            got, _ = update_factor_denoise(Problem(ProblemKind.DENOISE, y), side, fp, w, 0.8)
            want = dense_surrogate_minimizer(side, y, None, fp, w, 0.8)
            assert np.max(np.abs(got - want)) < 1e-8


def test_update_minimizes_surrogate():
    # the closed form beats random candidates on the surrogate value
    rng = np.random.default_rng(2)
    y = rng.standard_normal((6, 5))
    fp = FactorPair(rng.standard_normal((6, 3)), rng.standard_normal((5, 3)))
    w = weight_diag(fp, 1e-6)
    u_new, _ = update_factor_denoise(Problem(ProblemKind.DENOISE, y), "u", fp, w, 1.0)
    best = surrogate_value(ProblemKind.DENOISE, "u", y, None, fp, 1.0, 1e-6, u_new)
    for _ in range(50):
        cand = u_new + 0.1 * rng.standard_normal(u_new.shape)
        assert surrogate_value(
            ProblemKind.DENOISE, "u", y, None, fp, 1.0, 1e-6, cand
        ) >= best - 1e-10


def test_solve_rank_one_prunes_to_one():
    rng = np.random.default_rng(3)
    y = np.outer(rng.standard_normal(20), rng.standard_normal(15))
    cfg = SolverConfig(lam=0.5, d_init=5, seed=4)
    fp, trace = solve_denoise(y, cfg)
    assert fp.d == 1
    assert nre(y, fp) <= 1e-2


def test_solve_huge_lambda_degenerate():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((10, 8))
    lam = np.linalg.norm(y) * 10  # far beyond total shrinkage
    fp, trace = solve_denoise(y, SolverConfig(lam=lam, d_init=4, seed=6))
    assert trace.status == "degenerate"
    assert fp.d == 0


def test_solve_objective_monotone():
    x0 = gen_lowrank(30, 25, 3, "gaussian", 7)
    y = add_noise_snr(x0, 20.0, 8)
    fp, trace = solve_denoise(y, SolverConfig(lam=1.0, d_init=8, seed=9))
    objs = [trace.initial_objective] + [r.objective for r in trace.records]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-10
    ds = [r.d for r in trace.records]
    assert all(b <= a for a, b in zip(ds, ds[1:]))


def test_majorization_sampled():
    # l(U | U_k, V_k) upper-bounds f(U, V_k), tight at U_k
    rng = np.random.default_rng(10)
    y = rng.standard_normal((6, 5))
    fp = FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((5, 2)))
    lam, eta = 1.0, 1e-3
    f_here = objective(ProblemKind.DENOISE, y, None, fp, lam, eta)
    w = weight_diag(fp, eta)
    tight = surrogate_value(ProblemKind.DENOISE, "u", y, None, fp, lam, eta, fp.u)
    assert abs(tight - f_here) < 1e-12 * max(1.0, f_here)
    for _ in range(100):
        cand = fp.u + rng.standard_normal(fp.u.shape)
        l_val = surrogate_value(ProblemKind.DENOISE, "u", y, None, fp, lam, eta, cand)
        f_val = objective(ProblemKind.DENOISE, y, None, FactorPair(cand, fp.v), lam, eta)
        assert l_val - f_val >= -1e-9


def test_lemma3_gap_each_iteration():
    x0 = gen_lowrank(25, 20, 2, "gaussian", 11)
    y = add_noise_snr(x0, 20.0, 12)
    fp, trace = solve_denoise(y, SolverConfig(lam=1.0, d_init=6, seed=13))
    objs = [trace.initial_objective] + [r.objective for r in trace.records]
    assert trace.iterations > 1
    for i, r in enumerate(trace.records):
        assert objs[i] - objs[i + 1] >= r.delta - 1e-9


def test_delta_matches_standalone_computation():
    # the drops one U step and one V step certify sum to the proximity
    # measure of the pairs before and after, and lower-bound the objective
    # drop, for denoising and for completion on a random mask
    rng = np.random.default_rng(14)
    y = rng.standard_normal((8, 7))
    lam, eta = 1.0, 1e-6
    for step, mask in (
        (update_factor_denoise, None),
        (update_factor_mc, sample_mask(8, 7, 30, 15)),
    ):
        kind = ProblemKind.DENOISE if mask is None else ProblemKind.COMPLETE
        problem = Problem(kind, y, mask)
        fp = FactorPair(rng.standard_normal((8, 3)), rng.standard_normal((7, 3)))
        u_new, cert_u = step(problem, "u", fp, weight_diag(fp, eta), lam)
        mid = FactorPair(u_new, fp.v)
        v_new, cert_v = step(problem, "v", mid, weight_diag(mid, eta), lam)
        nxt = FactorPair(u_new, v_new)
        want = proximity_delta_a(fp, nxt, lam, eta)
        assert cert_u + cert_v == pytest.approx(want, rel=1e-12, abs=0.0)
        f0 = objective(kind, y, mask, fp, lam, eta)
        f1 = objective(kind, y, mask, nxt, lam, eta)
        assert f0 - f1 >= cert_u + cert_v - 1e-9
        assert cert_u >= 0.0 and cert_v >= 0.0


def test_solve_deterministic():
    rng = np.random.default_rng(15)
    y = rng.standard_normal((12, 10))
    cfg = SolverConfig(lam=1.0, d_init=4, seed=16, max_iter=30)
    fp1, t1 = solve_denoise(y, cfg)
    fp2, t2 = solve_denoise(y, cfg)
    assert np.array_equal(fp1.u, fp2.u) and np.array_equal(fp1.v, fp2.v)
    assert [r.objective for r in t1.records] == [r.objective for r in t2.records]


def test_singular_curvature_block_raises_invalid_parameter():
    # a rank-one Y with equal columns at a tiny lam, on either half-step
    for seed, max_iter, label in ((1, 1, "iteration 1, V"), (3, 2, "iteration 2, U")):
        y = 1e6 * np.repeat(np.random.default_rng(seed).standard_normal((3, 1)), 2, axis=1)
        cfg = SolverConfig(lam=5.960464477539063e-08, d_init=2, max_iter=max_iter, seed=seed)
        with pytest.raises(InvalidParameterError, match=f"{label} half-step.*larger lam"):
            solve_denoise(y, cfg)
