"""Tests for the masked (matrix completion) solver."""

import numpy as np
import pytest

from lowrankmf import (
    FactorPair,
    InvalidParameterError,
    ObservedMask,
    Problem,
    ProblemKind,
    SolverConfig,
    apply_mask,
    nre,
    objective,
    solve_denoise,
    solve_mc,
    update_factor_denoise,
    update_factor_mc,
    weight_diag,
)
from lowrankmf import core
from lowrankmf.common import init_factors
from lowrankmf.data import add_noise_snr, gen_lowrank, sample_mask
from reference import dense_surrogate_minimizer


def test_full_mask_equals_denoise_update():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((6, 5))
    fp = FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((5, 2)))
    mask = ObservedMask.full(6, 5)
    for side in ("u", "v"):
        w = weight_diag(fp, 1e-6)
        a, _ = update_factor_mc(Problem(ProblemKind.COMPLETE, y, mask), side, fp, w, 1.3)
        b, _ = update_factor_denoise(Problem(ProblemKind.DENOISE, y), side, fp, w, 1.3)
        assert np.max(np.abs(a - b)) < 1e-10


def test_unobserved_row_pure_shrinkage():
    # a row with no observed entries only feels the regularizer pull:
    # u_i <- u_i * v'v / (v'v + lam*D); with ||v||^2 = 1, D = 1/sqrt(2)
    # the factor is 1/(1 + 1/sqrt(2)) ~ 0.58579
    y = np.array([[5.0], [0.0]])
    mask = ObservedMask(2, 1, np.array([0]), np.array([0]))  # row 1 unobserved
    fp = FactorPair(np.array([[0.3], [1.0]]), np.array([[1.0]]))
    w = np.array([1.0 / np.sqrt(2.0)])
    got, _ = update_factor_mc(Problem(ProblemKind.COMPLETE, y, mask), "u", fp, w, 1.0)
    expect = 1.0 / (1.0 + 1.0 / np.sqrt(2.0))
    assert abs(got[1, 0] - 1.0 * expect) < 1e-12
    assert abs(expect - 0.58579) < 1e-5


def test_update_matches_dense_masked_surrogate():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((6, 5))
    for trial in range(5):
        r2 = np.random.default_rng(20 + trial)
        fp = FactorPair(r2.standard_normal((6, 2)), r2.standard_normal((5, 2)))
        flat = r2.choice(30, size=15, replace=False)
        ri, ci = np.divmod(flat, 5)
        mask = ObservedMask(6, 5, ri, ci)
        for side in ("u", "v"):
            w = weight_diag(fp, 1e-6)
            got, _ = update_factor_mc(Problem(ProblemKind.COMPLETE, y, mask), side, fp, w, 0.9)
            want = dense_surrogate_minimizer(side, y, mask, fp, w, 0.9)
            assert np.max(np.abs(got - want)) < 1e-8


def test_solve_recovers_rank_two():
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((20, 2)) @ rng.standard_normal((20, 2)).T
    mask = sample_mask(20, 20, 240, 3)  # 60% observed
    y = x0  # no noise
    cfg = SolverConfig(lam=0.1, d_init=8, seed=4, max_iter=800)
    fp, trace = solve_mc(y, mask, cfg)
    assert fp.d == 2
    assert nre(x0, fp) <= 1e-2


def test_full_mask_trace_matches_denoise():
    rng = np.random.default_rng(5)
    x0 = gen_lowrank(15, 12, 2, "gaussian", 6)
    y = add_noise_snr(x0, 15.0, 7)
    mask = ObservedMask.full(15, 12)
    cfg = SolverConfig(lam=1.0, d_init=5, seed=8, max_iter=20, tol=1e-12)
    fp_a, tr_a = solve_denoise(y, cfg)
    fp_b, tr_b = solve_mc(y, mask, cfg)
    assert tr_a.iterations == tr_b.iterations
    for ra, rb in zip(tr_a.records, tr_b.records):
        assert abs(ra.objective - rb.objective) < 1e-10 * max(1.0, ra.objective)
        assert ra.d == rb.d
    assert np.max(np.abs(fp_a.u - fp_b.u)) < 1e-10
    assert np.max(np.abs(fp_a.v - fp_b.v)) < 1e-10


def test_hard_fr_instance_monotone():
    # FR = 0.9: severely undersampled; only stability is asserted
    r, n = 4, 30
    card = int(round(r * (2 * n - r) / 0.9))
    x0 = gen_lowrank(n, n, r, "gaussian", 9)
    y = add_noise_snr(x0, 20.0, 10)
    mask = sample_mask(n, n, card, 11)
    fp, trace = solve_mc(y, mask, SolverConfig(lam=1.0, d_init=10, seed=12))
    assert trace.status in ("converged", "max_iter", "degenerate")
    objs = [trace.initial_objective] + [rec.objective for rec in trace.records]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-10


def test_never_reads_unobserved_entries():
    rng = np.random.default_rng(13)
    y = rng.standard_normal((12, 10))
    mask = sample_mask(12, 10, 40, 14)
    cfg = SolverConfig(lam=0.7, d_init=4, seed=15, max_iter=10)
    fp_a, _ = solve_mc(y, mask, cfg)
    y2 = y.copy()
    obs = mask.to_dense_bool()
    y2[~obs] += rng.standard_normal((~obs).sum()) * 100.0
    fp_b, _ = solve_mc(y2, mask, cfg)
    assert np.array_equal(fp_a.u, fp_b.u)
    assert np.array_equal(fp_a.v, fp_b.v)


def test_lemma3_gap_masked():
    x0 = gen_lowrank(25, 20, 2, "gaussian", 16)
    y = add_noise_snr(x0, 20.0, 17)
    mask = sample_mask(25, 20, 250, 18)
    fp, trace = solve_mc(y, mask, SolverConfig(lam=0.8, d_init=6, seed=19))
    objs = [trace.initial_objective] + [r.objective for r in trace.records]
    assert trace.iterations > 1
    for i, r in enumerate(trace.records):
        assert objs[i] - objs[i + 1] >= r.delta - 1e-9


def test_mask_shape_mismatch():
    mask = ObservedMask.full(4, 4)
    with pytest.raises(InvalidParameterError):
        solve_mc(np.zeros((5, 4)), mask, SolverConfig(lam=1.0, d_init=2))


def test_sparse_and_dense_density_paths_agree():
    # sparse and dense masks share the one observed-entry residual; the
    # update must equal the dense masked formula at either density
    rng = np.random.default_rng(20)
    y = rng.standard_normal((10, 10))
    fp = FactorPair(rng.standard_normal((10, 3)), rng.standard_normal((10, 3)))
    w = weight_diag(fp, 1e-6)
    sparse_mask = sample_mask(10, 10, 20, 21)  # 20% observed
    dense_mask = sample_mask(10, 10, 80, 22)  # 80% observed
    for mask in (sparse_mask, dense_mask):
        got, _ = update_factor_mc(Problem(ProblemKind.COMPLETE, y, mask), "u", fp, w, 1.0)
        # reference through a dense masked residual
        res = np.zeros((10, 10))
        obs = mask.to_dense_bool()
        res[obs] = (fp.product() - y)[obs]
        a = fp.v.T @ fp.v + np.diag(w)
        grad = res @ fp.v + fp.u * w
        want = fp.u - np.linalg.solve(a, grad.T).T
        assert np.max(np.abs(got - want)) < 1e-12


def test_full_mask_step_is_the_dense_closed_form():
    # at a full mask the observed-entry residual is all of U V^T - Y: the
    # step must equal the closed form of the masked update
    rng = np.random.default_rng(30)
    y = rng.standard_normal((30, 24))
    fp = FactorPair(rng.standard_normal((30, 4)), rng.standard_normal((24, 4)))
    w = weight_diag(fp, 1e-6)
    mask = ObservedMask.full(30, 24)
    res = fp.product() - y
    for side, cur, other, grad_fit in (
        ("u", fp.u, fp.v, res @ fp.v),
        ("v", fp.v, fp.u, res.T @ fp.u),
    ):
        a = other.T @ other + 0.7 * np.diag(w)
        want = cur - np.linalg.solve(a, (grad_fit + 0.7 * cur * w).T).T
        got, _ = update_factor_mc(Problem(ProblemKind.COMPLETE, y, mask), side, fp, w, 0.7)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_singular_curvature_block_raises_invalid_parameter():
    # a rank-one Y with equal columns at a tiny lam, on either half-step
    for seed, max_iter, label in ((1, 1, "iteration 1, V"), (3, 2, "iteration 2, U")):
        y = 1e6 * np.repeat(np.random.default_rng(seed).standard_normal((3, 1)), 2, axis=1)
        cfg = SolverConfig(lam=5.960464477539063e-08, d_init=2, max_iter=max_iter, seed=seed)
        with pytest.raises(InvalidParameterError, match=f"{label} half-step.*larger lam"):
            solve_mc(y, ObservedMask.full(3, 2), cfg)


# ------------------------------------------------------ the spectral start


def _partial_case():
    """A 30 x 24 rank-2 instance with 300 of its 720 entries observed."""
    y = add_noise_snr(gen_lowrank(30, 24, 2, "gaussian", 31), 20.0, 32)
    return y, sample_mask(30, 24, 300, 33)


def test_spectral_start_is_a_function_of_the_seed():
    problem = Problem(ProblemKind.COMPLETE, *_partial_case())
    a, b, c = (init_factors(problem, 6, np.random.default_rng(s)) for s in (3, 3, 4))
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    assert not np.array_equal(a.u, c.u) and not np.array_equal(a.v, c.v)


def _assert_rescaled_observed_data(fp, y, mask):
    """U V^T is (m n / card) P_Omega(Y), and the factors are balanced,
    U^T U = V^T V = S, the singular values of (m n / card) P_Omega(Y)."""
    want = apply_mask(y, mask) * (y.size / mask.card)
    assert np.linalg.norm(fp.product() - want) <= 1e-12 * np.linalg.norm(want)
    s = np.linalg.svd(want, compute_uv=False)
    for gram in (fp.gram_u, fp.gram_v):
        assert np.allclose(gram, np.diag(s), rtol=0, atol=1e-12 * s[0])


def _count_calls(mp, module, name) -> list:
    """Wrap ``module.name`` so that each call appends to the returned list."""
    calls, fn = [], getattr(module, name)
    mp.setattr(module, name, lambda *a, **k: calls.append(None) or fn(*a, **k))
    return calls


@pytest.mark.parametrize("d", [24, 27])
def test_full_width_start_is_the_rescaled_observed_data(d):
    # l = min(d + 5, m, n) = n: the sketch spans all of P_Omega(Y); a d past
    # min(m, n) = 24 starts with 24 columns
    y, mask = _partial_case()
    fp = init_factors(Problem(ProblemKind.COMPLETE, y, mask), d, np.random.default_rng(5))
    assert fp.d == 24
    _assert_rescaled_observed_data(fp, y, mask)


def test_a_rank_deficient_sketch_takes_householder_qr(monkeypatch):
    # one observed row: P_Omega(Y) has rank 1 < l, so Cholesky refuses the
    # Gram of each intermediate basis and Householder QR takes its place
    y, _ = _partial_case()
    mask = ObservedMask(30, 24, np.full(24, 4), np.arange(24))
    qr = _count_calls(monkeypatch, np.linalg, "qr")
    fp = init_factors(Problem(ProblemKind.COMPLETE, y, mask), 24, np.random.default_rng(5))
    assert len(qr) > 1 and fp.d == 24
    _assert_rescaled_observed_data(fp, y, mask)


def test_spectral_start_factors_small_grams(monkeypatch):
    # the complete bench shape: six CholeskyQR bases, two of them for the
    # last (CholeskyQR2), no Householder QR, and an SVD taken from the
    # eigenvectors of an l x l Gram
    y = add_noise_snr(gen_lowrank(300, 300, 10, "gaussian", 41), 20.0, 42)
    problem = Problem(ProblemKind.COMPLETE, y, sample_mask(300, 300, 14_750, 43))
    qr, svd, chol = (_count_calls(monkeypatch, np.linalg, f) for f in ("qr", "svd", "cholesky"))
    assert init_factors(problem, 50, np.random.default_rng(0)).d == 50
    assert (len(qr), len(svd), len(chol)) == (0, 0, 6)


def _reference_start(y, mask, d, rng) -> np.ndarray:
    """U V^T of the start by Householder QR after every product and a full SVD."""
    m, n = y.shape
    a, d = apply_mask(y, mask), min(d, m, n)
    q = np.linalg.qr(a @ rng.standard_normal((n, min(d + 5, m, n))))[0]
    for _ in range(2):
        q = np.linalg.qr(a @ np.linalg.qr(a.T @ q)[0])[0]
    w, s, zt = np.linalg.svd(q.T @ a, full_matrices=False)
    return (q @ w[:, :d]) * s[:d] @ zt[:d] * (m * n / mask.card)


@pytest.mark.parametrize("d", [2, 10, 40])
def test_spectral_start_is_the_same_on_both_data_paths(d):
    # an exact rank-2, a full-rank and a steep-spectrum Y; d = 40 runs as
    # min(m, n) = 24
    _, mask = _partial_case()
    rng = np.random.default_rng(11)
    basis = [np.linalg.qr(rng.standard_normal((k, 24)))[0] for k in (30, 24)]
    ys = (
        gen_lowrank(30, 24, 2, "gaussian", 31),
        rng.standard_normal((30, 24)),
        (basis[0] * 0.5 ** np.arange(24)) @ basis[1].T,
    )
    for y in ys:
        want = _reference_start(y, mask, d, np.random.default_rng(6))
        for ratio in (0, 10**9):  # the sparse operator, then the buffer
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(core, "FILL_IN_RATIO", ratio)
                problem = Problem(ProblemKind.COMPLETE, y, mask)
                assert problem.fill_in is (ratio > 0)
                got = init_factors(problem, d, np.random.default_rng(6)).product()
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _balance_cases():
    """The complete bench shape at d = 50, and 120 x 120 problems at 50 % and
    95 % density with a spectrum falling by 1e-14 and with an exact rank 3."""
    yield (
        add_noise_snr(gen_lowrank(300, 300, 10, "gaussian", 41), 20.0, 42),
        sample_mask(300, 300, 14_750, 43),
        50,
    )
    rng = np.random.default_rng(11)
    left, right = (np.linalg.qr(rng.standard_normal((120, 120)))[0] for _ in range(2))
    steep = (left * 10.0 ** (-14.0 * np.arange(120) / 119)) @ right.T
    for y in (steep, gen_lowrank(120, 120, 3, "gaussian", 12)):
        for card in (7_200, 13_680):
            for d in (10, 120):
                yield y, sample_mask(120, 120, card, 13), d


@pytest.mark.parametrize("ratio", [0, 10**9])  # the sparse operator, then the buffer
def test_spectral_start_is_balanced(ratio, monkeypatch):
    # U^T U = V^T V = S needs an orthonormal Q: CholeskyQR2 gives one even
    # where the sketch's spectrum falls to round-off
    monkeypatch.setattr(core, "FILL_IN_RATIO", ratio)
    for y, mask, d in _balance_cases():
        problem = Problem(ProblemKind.COMPLETE, y, mask)
        assert problem.fill_in is (ratio > 0)
        fp = init_factors(problem, d, np.random.default_rng(6))
        scale = np.linalg.norm(fp.gram_u)
        assert np.linalg.norm(fp.gram_u - fp.gram_v) <= 1e-13 * scale
        assert np.linalg.norm(fp.gram_u - np.diag(fp.gram_u.diagonal())) <= 1e-13 * scale


def test_spectral_start_leaves_no_stale_product_in_the_buffer():
    # the start writes P_Omega(Y) into the buffer; a pair whose U V^T the
    # buffer held before must be formed again, not read from it
    y, mask = _partial_case()
    problem = Problem(ProblemKind.COMPLETE, y, mask)
    assert problem.fill_in
    fp = init_factors(problem, 4, np.random.default_rng(7))
    problem.objective(fp, 1.0, 1e-6)  # leaves U V^T at fp in the buffer
    init_factors(problem, 4, np.random.default_rng(8))
    want = Problem(ProblemKind.COMPLETE, y, mask).filled_product("u", fp)
    got = problem.filled_product("u", fp)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _counting(a: np.ndarray, writes: list) -> np.ndarray:
    """A view of ``a`` that appends "fill" or "set" to ``writes`` on each write
    to it or to an array made from it."""

    class Counting(np.ndarray):
        def fill(self, value):
            writes.append("fill")
            super().fill(value)

        def __setitem__(self, key, value):
            writes.append("set")
            super().__setitem__(key, value)

    return a.view(Counting)


@pytest.mark.parametrize("ratio", [0, 10**9])  # the sparse operator, then the buffer
def test_spectral_start_loads_the_observed_data_once(ratio, monkeypatch):
    # all six products of the start read the P_Omega(Y) that one load left
    y, mask = _partial_case()
    monkeypatch.setattr(core, "FILL_IN_RATIO", ratio)
    want = init_factors(Problem(ProblemKind.COMPLETE, y, mask), 10, np.random.default_rng(4))
    problem, writes = Problem(ProblemKind.COMPLETE, y, mask), []
    if problem.fill_in:
        problem._buffer = _counting(problem._buffer, writes)
    else:
        csr, csc = problem._operator
        csr.data = csc.data = _counting(csr.data, writes)
    got = init_factors(problem, 10, np.random.default_rng(4))
    assert writes == (["fill", "set"] if problem.fill_in else ["set"])
    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)


def test_a_full_mask_keeps_the_gaussian_start():
    y, _ = _partial_case()
    rng = np.random.default_rng
    gaussian = init_factors(Problem(ProblemKind.DENOISE, y), 5, rng(9))
    full = init_factors(Problem(ProblemKind.COMPLETE, y, ObservedMask.full(30, 24)), 5, rng(9))
    assert np.array_equal(full.u, gaussian.u) and np.array_equal(full.v, gaussian.v)
    one_left = sample_mask(30, 24, 30 * 24 - 1, 10)
    partial = init_factors(Problem(ProblemKind.COMPLETE, y, one_left), 5, rng(9))
    assert not np.array_equal(partial.u, gaussian.u)


def test_all_zero_observed_values_end_degenerate():
    # the start of a zero P_Omega(Y) is the zero pair, pruned at k = 1
    y, mask = _partial_case()
    y = np.where(mask.to_dense_bool(), 0.0, y)
    fp, trace = solve_mc(y, mask, SolverConfig(lam=1.0, d_init=6))
    assert trace.status == "degenerate" and trace.iterations == 1 and fp.d == 0
    assert [(p.k, p.removed, p.norms) for p in trace.prunes] == [(1, list(range(6)), [0.0] * 6)]
