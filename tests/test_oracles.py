"""Tests for the numerical convergence-theory oracles."""

import numpy as np
import pytest

from lowrankmf import (
    FactorPair,
    InvalidParameterError,
    ObservedMask,
    ProblemKind,
    SolverConfig,
    gradient,
    objective,
    solve_denoise,
    weight_diag,
)
from lowrankmf.common import IterationRecord, IterationTrace
from lowrankmf.data import add_noise_snr, gen_lowrank, sample_mask
from lowrankmf.nmf import _newton_directions, active_set_rows
from lowrankmf.oracles import (
    exact_hessian,
    nmf_alpha_bound,
    nmf_surrogate_value,
    nuclear_bound_check,
    proximity_delta_a,
    proximity_delta_b,
    psd_gap,
    rate_bound_check,
    surrogate_hessian,
    surrogate_value,
)


def random_pair(m, n, d, seed):
    rng = np.random.default_rng(seed)
    return FactorPair(rng.standard_normal((m, d)), rng.standard_normal((n, d)))


# ------------------------------------------------------------ exact Hessian


def test_exact_hessian_lambda_zero_block_diagonal():
    fp = random_pair(4, 3, 2, 0)
    h = exact_hessian(ProblemKind.DENOISE, "u", None, fp, 0.0, 1e-3)
    gram = fp.v.T @ fp.v
    want = np.kron(np.eye(4), gram)
    assert np.max(np.abs(h - want)) < 1e-12


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


@pytest.mark.parametrize("shape", [(3, 2), (4, 2)])
def test_exact_hessian_matches_finite_differences(shape):
    m, n = shape
    rng = np.random.default_rng(2)
    y = rng.standard_normal((m, n))
    fp = random_pair(m, n, 2, 3)
    for side in ("u", "v"):
        h = exact_hessian(ProblemKind.DENOISE, side, None, fp, 0.9, 1e-2)
        fd = fd_hessian(ProblemKind.DENOISE, side, y, None, fp, 0.9, 1e-2)
        rel = np.linalg.norm(h - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4
        assert np.max(np.abs(h - h.T)) < 1e-10


@pytest.mark.parametrize(
    "mask,d",
    [
        (sample_mask(4, 3, 7, 5), 2),
        # row 1 and column 2 unobserved: their data-fit Grams are zero
        (ObservedMask(4, 3, [0, 0, 2, 3, 3], [0, 1, 1, 0, 1]), 2),
        (sample_mask(4, 3, 7, 5), 1),
    ],
    ids=["d2", "unobserved-row-and-col", "d1"],
)
def test_exact_hessian_masked_matches_finite_differences(mask, d):
    rng = np.random.default_rng(4)
    y = rng.standard_normal((4, 3))
    fp = random_pair(4, 3, d, 6)
    for side in ("u", "v"):
        h = exact_hessian(ProblemKind.COMPLETE, side, mask, fp, 0.9, 1e-2)
        fd = fd_hessian(ProblemKind.COMPLETE, side, y, mask, fp, 0.9, 1e-2)
        rel = np.linalg.norm(h - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-4


def test_exact_hessian_full_mask_equals_denoise():
    fp = random_pair(4, 3, 2, 8)
    a = exact_hessian(ProblemKind.COMPLETE, "u", ObservedMask.full(4, 3), fp, 1.0, 1e-3)
    b = exact_hessian(ProblemKind.DENOISE, "u", None, fp, 1.0, 1e-3)
    assert np.max(np.abs(a - b)) < 1e-12


def test_exact_hessian_of_completion_needs_a_mask():
    with pytest.raises(InvalidParameterError, match="requires an observed mask"):
        exact_hessian(ProblemKind.COMPLETE, "u", None, random_pair(4, 3, 2, 8), 1.0, 1e-3)


def test_exact_hessian_size_guard():
    fp = random_pair(500, 3, 5, 9)
    with pytest.raises(InvalidParameterError):
        exact_hessian(ProblemKind.DENOISE, "u", None, fp, 1.0, 1e-3)


# ------------------------------------------------------------------ PSD gap


def test_psd_gap_lambda_zero_is_zero():
    fp = random_pair(4, 3, 2, 10)
    gap = psd_gap(ProblemKind.DENOISE, "u", None, fp, 0.0, 1e-3)
    assert abs(gap) < 1e-10


def test_psd_gap_nonnegative_denoise():
    for trial in range(5):
        fp = random_pair(4, 3, 2, 20 + trial)
        assert psd_gap(ProblemKind.DENOISE, "u", None, fp, 1.0, 1e-3) >= -1e-8


def test_psd_gap_nonnegative_masked():
    for trial in range(5):
        fp = random_pair(4, 4, 2, 40 + trial)
        mask = sample_mask(4, 4, 8, 60 + trial)  # 50% observed
        for side in ("u", "v"):
            assert (
                psd_gap(ProblemKind.COMPLETE, side, mask, fp, 1.0, 1e-3) >= -1e-8
            )


# -------------------------------------------------------------- delta^a


def test_delta_a_fixed_point_zero():
    fp = random_pair(5, 4, 2, 70)
    assert proximity_delta_a(fp, fp, 1.0, 1e-6) == 0.0


def test_delta_a_nonnegative():
    for trial in range(10):
        prev = random_pair(5, 4, 2, 80 + trial)
        nxt = random_pair(5, 4, 2, 90 + trial)
        assert proximity_delta_a(prev, nxt, 1.0, 1e-6) >= 0.0


def test_delta_a_perturbation_positive():
    # vanishes only at the fixed point
    fp = random_pair(5, 4, 2, 100)
    bumped = FactorPair(fp.u + 1e-4, fp.v)
    assert proximity_delta_a(fp, bumped, 1.0, 1e-6) > 1e-10


def test_delta_a_bounded_by_objective_drop():
    rng = np.random.default_rng(101)
    y = rng.standard_normal((8, 7))
    x = solve_denoise(y, SolverConfig(lam=1.0, d_init=3, seed=102, max_iter=5))
    fp, trace = x
    objs = [trace.initial_objective] + [r.objective for r in trace.records]
    for i, r in enumerate(trace.records):
        assert objs[i] - objs[i + 1] >= r.delta - 1e-9


def dense_delta_a(prev, nxt, lam, eta):
    """delta_A from its definition, through the n x m products."""
    du, dv = prev.u - nxt.u, prev.v - nxt.v
    w_prev = weight_diag(prev, eta)
    w_mid = weight_diag(FactorPair(nxt.u, prev.v), eta)
    fit = np.sum((prev.v @ du.T) ** 2) + np.sum((nxt.u @ dv.T) ** 2)
    reg = np.sum(w_prev * np.sum(du**2, axis=0)) + np.sum(w_mid * np.sum(dv**2, axis=0))
    return 0.5 * fit + 0.5 * lam * reg


@pytest.mark.parametrize("m,n,d", [(9, 6, 1), (6, 11, 1), (9, 6, 4), (6, 11, 5), (7, 4, 4)])
def test_delta_a_gram_trace_matches_dense_products(m, n, d):
    for trial in range(5):
        prev = random_pair(m, n, d, 300 + trial)
        nxt = random_pair(m, n, d, 400 + trial)
        lam = 0.5 + trial
        want = dense_delta_a(prev, nxt, lam, 1e-6)
        got = proximity_delta_a(prev, nxt, lam, 1e-6)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_delta_a_dim_mismatch():
    with pytest.raises(InvalidParameterError):
        proximity_delta_a(random_pair(5, 4, 2, 0), random_pair(5, 4, 3, 0), 1.0, 1e-6)


# -------------------------------------------------------------- delta^b


def test_delta_b_fixed_point_zero():
    fp = random_pair(4, 3, 2, 110)
    grads = (np.zeros((4, 2)), np.zeros((3, 2)))
    sets = (np.zeros((4, 2), dtype=bool), np.zeros((3, 2), dtype=bool))
    assert proximity_delta_b(fp, fp, grads, sets, 1.0, 1e-6) == 0.0


def test_delta_b_reduction_no_active_no_reg():
    prev = random_pair(4, 3, 2, 111)
    nxt = random_pair(4, 3, 2, 112)
    grads = (np.zeros((4, 2)), np.zeros((3, 2)))
    sets = (np.zeros((4, 2), dtype=bool), np.zeros((3, 2), dtype=bool))
    got = proximity_delta_b(prev, nxt, grads, sets, 0.0, 1e-6)
    du = prev.u - nxt.u
    dv = prev.v - nxt.v
    want = 0.5 * (
        float(np.sum((du @ (prev.v.T @ prev.v)) * du))
        + float(np.sum((dv @ (nxt.u.T @ nxt.u)) * dv))
    )
    assert abs(got - want) < 1e-12


def test_nmf_oracles_reject_index_list_active_sets():
    fp = random_pair(4, 3, 2, 113)
    y = np.abs(fp.product())
    grads = (np.zeros((4, 2)), np.zeros((3, 2)))
    lists = ([np.array([], dtype=int)] * 4, [np.array([0])] * 3)
    with pytest.raises(InvalidParameterError, match="boolean array"):
        proximity_delta_b(fp, fp, grads, lists, 1.0, 1e-6)
    with pytest.raises(InvalidParameterError, match="boolean array"):
        nmf_alpha_bound("u", fp, 1.0, 1e-3, lists[0])
    with pytest.raises(InvalidParameterError, match="boolean array"):
        nmf_surrogate_value(y, "v", fp, 1.0, 1e-3, fp.v, lists[1], 1.0)
    # a mask of the other factor's shape is refused too
    with pytest.raises(InvalidParameterError, match="boolean array"):
        nmf_alpha_bound("u", fp, 1.0, 1e-3, np.zeros((3, 2), dtype=bool))


def _rowwise_block(h, active_row):
    """``h`` with the off-diagonal entries of the active rows and columns
    zeroed, entry by entry: the definition the stacked blocks follow."""
    d = h.shape[0]
    keep = [[p == q or not (active_row[p] or active_row[q]) for q in range(d)] for p in range(d)]
    return np.where(keep, h, 0.0)


def test_nmf_oracles_match_rowwise_blocks():
    # the stacked partially diagonalized blocks, contracted by einsum and by
    # one batched eigvalsh, against a loop over rows of per-row blocks
    lam, eta, alpha = 0.5, 1e-3, 0.7
    rng = np.random.default_rng(150)
    y = np.abs(rng.standard_normal((6, 5)))
    fp = FactorPair(np.abs(rng.standard_normal((6, 3))), np.abs(rng.standard_normal((5, 3))))
    nxt = FactorPair(np.abs(rng.standard_normal((6, 3))), np.abs(rng.standard_normal((5, 3))))
    act_u, act_v = rng.random((6, 3)) < 0.4, rng.random((5, 3)) < 0.4
    act_u[0] = False  # a free row shares the block itself
    assert 0 < act_u.any(axis=1).sum() < 6 and act_v.any()
    h = surrogate_hessian("u", fp, lam, eta)
    blocks = [_rowwise_block(h, row) for row in act_u]
    diff = nxt.u - fp.u
    quad = sum(diff[i] @ block @ diff[i] for i, block in enumerate(blocks))
    f0 = objective(ProblemKind.DENOISE, y, None, fp, lam, eta)
    g = gradient(ProblemKind.DENOISE, "u", y, None, fp, lam, eta)
    want = f0 + np.sum(diff * g) + quad / (2.0 * alpha)
    got = nmf_surrogate_value(y, "u", fp, lam, eta, nxt.u, act_u, alpha)
    assert abs(got - want) <= 1e-12 * abs(want)
    lam_max = np.linalg.eigvalsh(exact_hessian(ProblemKind.DENOISE, "u", None, fp, lam, eta))[-1]
    want = min(np.linalg.eigvalsh(block)[0] for block in blocks) / lam_max
    assert abs(nmf_alpha_bound("u", fp, lam, eta, act_u) - want) <= 1e-12 * want
    # delta^b at lam = 0: the rows' quadratic forms and the active gradient terms
    grads = (rng.standard_normal((6, 3)), rng.standard_normal((5, 3)))
    du, dv = fp.u - nxt.u, fp.v - nxt.v
    want = 0.0
    for d_f, gram, act, grad in ((du, fp.v.T @ fp.v, act_u, grads[0]),
                                 (dv, nxt.u.T @ nxt.u, act_v, grads[1])):
        for i in range(d_f.shape[0]):
            want += 0.5 * d_f[i] @ _rowwise_block(gram, act[i]) @ d_f[i]
            want += sum(d_f[i, j] * grad[i, j] for j in range(3) if act[i, j])
    got = proximity_delta_b(fp, nxt, grads, (act_u, act_v), 0.0, eta)
    assert abs(got - want) <= 1e-12 * abs(want)


def nmf_capped_iteration(y, fp, lam, eta, eps):
    """One projected Newton sweep with the step capped at the
    curvature-ratio bound, the regime where the descent lemma is valid."""
    g_u = gradient(ProblemKind.NMF, "u", y, None, fp, lam, eta)
    act_u = active_set_rows(fp.u, g_u, eps)
    alpha_u = min(1.0, 0.9 * nmf_alpha_bound("u", fp, lam, eta, act_u))
    h_u = surrogate_hessian("u", fp, lam, eta)
    u_new = np.maximum(fp.u - alpha_u * _newton_directions(g_u, h_u, act_u), 0.0)
    mid = FactorPair(u_new, fp.v)
    g_v = gradient(ProblemKind.NMF, "v", y, None, mid, lam, eta)
    act_v = active_set_rows(mid.v, g_v, eps)
    alpha_v = min(1.0, 0.9 * nmf_alpha_bound("v", mid, lam, eta, act_v))
    h_v = surrogate_hessian("v", mid, lam, eta)
    v_new = np.maximum(mid.v - alpha_v * _newton_directions(g_v, h_v, act_v), 0.0)
    nxt = FactorPair(u_new, v_new)
    return nxt, (g_u, g_v), (act_u, act_v)


def test_delta_b_bounded_by_drop_under_step_cap():
    lam, eta, eps = 0.5, 1e-3, 1e-6
    for trial in range(10):
        rng = np.random.default_rng(120 + trial)
        y = np.abs(rng.standard_normal((6, 5)))
        fp = FactorPair(
            np.abs(rng.standard_normal((6, 2))), np.abs(rng.standard_normal((5, 2)))
        )
        nxt, grads, sets = nmf_capped_iteration(y, fp, lam, eta, eps)
        f0 = objective(ProblemKind.NMF, y, None, fp, lam, eta)
        f1 = objective(ProblemKind.NMF, y, None, nxt, lam, eta)
        delta = proximity_delta_b(fp, nxt, grads, sets, lam, eta)
        assert delta >= 0.0
        assert f0 - f1 >= delta - 1e-9


# ----------------------------------------------------- Lemma 2 step bound


def test_nmf_surrogate_majorizes_under_alpha_cap():
    lam, eta, eps = 0.5, 1e-3, 1e-6
    for trial in range(10):
        rng = np.random.default_rng(140 + trial)
        y = np.abs(rng.standard_normal((5, 4)))
        fp = FactorPair(
            np.abs(rng.standard_normal((5, 2))), np.abs(rng.standard_normal((4, 2)))
        )
        g = gradient(ProblemKind.NMF, "u", y, None, fp, lam, eta)
        act = active_set_rows(fp.u, g, eps)
        alpha = min(1.0, 0.9 * nmf_alpha_bound("u", fp, lam, eta, act))
        assert alpha > 0.0
        for _ in range(100):
            cand = np.maximum(fp.u + 0.3 * rng.standard_normal(fp.u.shape), 0.0)
            s_val = nmf_surrogate_value(y, "u", fp, lam, eta, cand, act, alpha)
            f_val = objective(
                ProblemKind.NMF, y, None, FactorPair(cand, fp.v), lam, eta
            )
            assert s_val - f_val >= -1e-9


# -------------------------------------------------------- rate bound check


def synthetic_trace(objs, deltas, initial, disp=None):
    cfg = SolverConfig(lam=1.0, d_init=3)
    trace = IterationTrace(config=cfg)
    trace.initial_objective = initial
    for k, (o, d) in enumerate(zip(objs, deltas), start=1):
        trace.records.append(
            IterationRecord(
                k=k,
                objective=o,
                d=3,
                rel_change=0.1,
                delta=d,
                ms=0.0,
                displacement_sq=0.5 if disp is None else disp[k - 1],
                gram_min_eig=1.0,
                max_col_sq=2.0,
            )
        )
    return trace


def test_rate_bound_single_step_reduces_to_lemma3():
    good = synthetic_trace([9.0], [0.5], initial=10.0)
    assert rate_bound_check(good).per_step_ok
    bad = synthetic_trace([9.0], [1.5], initial=10.0)
    assert not rate_bound_check(bad).per_step_ok


def test_rate_bound_constant_trace():
    trace = synthetic_trace([10.0, 10.0], [0.0, 0.0], initial=10.0, disp=[0.0, 0.0])
    rep = rate_bound_check(trace)
    assert rep.per_step_ok and rep.telescoping_ok and rep.corollary_ok


@pytest.mark.parametrize("disp, ok", [(0.0, True), (0.5, False)])
def test_rate_bound_of_a_trace_with_zero_columns(disp, ok):
    # tau = 0: the displacement bound 4 tau / (2 l tau + lam) * avg_drop is 0
    trace = synthetic_trace([9.0], [0.5], initial=10.0, disp=[disp])
    trace.records[0].max_col_sq = 0.0
    rep = rate_bound_check(trace)
    assert rep.measured_tau == 0.0
    assert rep.corollary_slack == -disp and rep.corollary_ok == ok


def test_rate_bound_on_denoise_run():
    x0 = gen_lowrank(40, 35, 3, "gaussian", 150)
    y = add_noise_snr(x0, 20.0, 151)
    fp, trace = solve_denoise(y, SolverConfig(lam=1.0, d_init=8, seed=152))
    assert trace.iterations >= 20
    rep = rate_bound_check(trace)
    assert rep.per_step_ok
    assert rep.telescoping_ok
    assert rep.corollary_ok
    assert rep.ok


def test_rate_bound_needs_records():
    cfg = SolverConfig(lam=1.0, d_init=2)
    with pytest.raises(InvalidParameterError):
        rate_bound_check(IterationTrace(config=cfg))


# --------------------------------------------------------- nuclear bound


def test_nuclear_bound_unit_column():
    e = np.zeros((3, 1))
    e[0, 0] = 1.0
    nuc, bound = nuclear_bound_check(FactorPair(e, e))
    assert abs(nuc - 1.0) < 1e-12
    assert abs(bound - 1.0) < 1e-12


def test_nuclear_bound_zero_factors():
    nuc, bound = nuclear_bound_check(FactorPair(np.zeros((3, 2)), np.zeros((2, 2))))
    assert nuc == 0.0 and bound == 0.0


def test_nuclear_bound_of_an_empty_pair_and_its_size_guard():
    assert nuclear_bound_check(FactorPair(np.zeros((3, 0)), np.zeros((2, 0)))) == (0.0, 0.0)
    big = FactorPair(np.zeros((2001, 1)), np.zeros((2000, 1)))
    with pytest.raises(InvalidParameterError, match="too large for the dense SVD check"):
        nuclear_bound_check(big)


def test_nuclear_bound_random():
    for trial in range(10):
        fp = random_pair(8, 7, 6, 160 + trial)
        nuc, bound = nuclear_bound_check(fp)
        assert nuc <= bound + 1e-9


# ------------------------------------------------------- surrogate value


def test_surrogate_tight_at_current_point():
    rng = np.random.default_rng(170)
    y = rng.standard_normal((5, 4))
    fp = random_pair(5, 4, 2, 171)
    f_here = objective(ProblemKind.DENOISE, y, None, fp, 1.0, 1e-3)
    val = surrogate_value(ProblemKind.DENOISE, "u", y, None, fp, 1.0, 1e-3, fp.u)
    assert abs(val - f_here) < 1e-12 * max(1.0, f_here)
