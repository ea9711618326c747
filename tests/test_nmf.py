"""Tests for the projected Newton nonnegative factorization solver."""

import numpy as np
import pytest

from lowrankmf import (
    ConstraintViolationError,
    FactorPair,
    InvalidParameterError,
    NmfOptions,
    Problem,
    ProblemKind,
    SolverConfig,
    armijo_search,
    gradient,
    nre,
    objective,
    solve_nmf,
    weight_diag,
)
from lowrankmf import nmf
from lowrankmf.data import add_noise_snr, gen_lowrank
from lowrankmf.nmf import active_set_rows, partial_diag_blocks


def nonneg_pair(m, n, d, seed):
    rng = np.random.default_rng(seed)
    return FactorPair(
        np.abs(rng.standard_normal((m, d))), np.abs(rng.standard_normal((n, d)))
    )


def spd(d, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def rotated_block(d, cond, seed):
    """Q diag(lambda) Q^T, eigenvalues log-spaced from 1 down to 1/cond."""
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]
    return (q * np.logspace(0, -np.log10(cond), d)) @ q.T


def reweighted_block(d, cond, seed):
    """G^T G + lam diag(w) with weights w = 1/c from 1 to 1e6, as columns
    dying to scales c down to 1e-6 give them; lam puts cond(H) near cond."""
    rng = np.random.default_rng(seed)
    c = rng.permutation(np.logspace(0, -6, d))
    g = rng.standard_normal((2 * d, d)) * c
    lam = (2 * d ** (2 / 3) / (3 * cond)) ** 1.5
    return g.T @ g + lam * np.diag(1 / c)


# ------------------------------------------------------------ active sets


def test_active_set_all_interior():
    factor = np.ones((3, 2))
    grad = np.ones((3, 2))
    active = active_set_rows(factor, grad, 1e-6)
    assert active.dtype == bool and active.shape == (3, 2)
    assert not active.any()


def test_active_set_boundary_with_ascent():
    factor = np.array([[0.0, 1.0]])
    grad = np.array([[1.0, 1.0]])
    active = active_set_rows(factor, grad, 1e-6)
    assert active.tolist() == [[True, False]]


def test_active_set_matches_definition_scan():
    rng = np.random.default_rng(0)
    factor = np.abs(rng.standard_normal((6, 4)))
    factor[rng.random((6, 4)) < 0.4] = 0.0
    grad = rng.standard_normal((6, 4))
    eps = 0.5
    active = active_set_rows(factor, grad, eps)
    eps_k = min(eps, float(np.sum((factor - grad) ** 2)))
    assert active.shape == (6, 4)
    for i in range(6):
        expect = [
            0.0 <= factor[i, j] <= eps_k and grad[i, j] > 0.0 for j in range(4)
        ]
        assert active[i].tolist() == expect


@pytest.mark.parametrize(
    "factor, grad, eps, message",
    [
        (np.ones((2, 2)), np.ones((2, 2)), 0.0, "eps must be positive"),
        (np.ones((2, 2)), np.ones((2, 3)), 1e-6, "shapes differ"),
    ],
)
def test_active_set_refusals(factor, grad, eps, message):
    with pytest.raises(InvalidParameterError, match=message):
        active_set_rows(factor, grad, eps)


def test_active_set_of_entries_whose_squared_distance_overflows():
    # ||factor - grad||^2 overflows to inf, which is above eps: eps_k = eps,
    # with no overflow warning
    factor = np.array([[0.0, 1e160], [1e-7, 1e160]])
    grad = np.array([[1.0, -1e160], [1.0, 1e160]])
    assert active_set_rows(factor, grad, 1e-6).tolist() == [[True, False], [True, False]]


# -------------------------------------------------- partial diagonalization


def test_partial_diag_empty_set():
    h = spd(3, 1)
    assert np.array_equal(partial_diag_blocks(h, np.zeros((1, 3), dtype=bool))[0], h)


def test_partial_diag_all_indices():
    h = spd(3, 2)
    assert np.array_equal(
        partial_diag_blocks(h, np.ones((1, 3), dtype=bool))[0], np.diag(np.diag(h))
    )


def test_partial_diag_single_index():
    h = spd(3, 3)
    out = partial_diag_blocks(h, np.array([[False, True, False]]))[0]
    for p in range(3):
        for q in range(3):
            if p == q:
                assert out[p, q] == h[p, q]
            elif p == 1 or q == 1:
                assert out[p, q] == 0.0
            else:
                assert out[p, q] == h[p, q]
    # result stays SPD
    assert np.linalg.eigvalsh(out)[0] > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda h: partial_diag_blocks(h, [0, 1, 2]),
        lambda h: partial_diag_blocks(h, np.array([0, 1, 2])),
        lambda h: partial_diag_blocks(h, np.ones(2, dtype=bool)),
        lambda h: partial_diag_blocks(h, [np.array([], dtype=int)] * 4),
        lambda h: partial_diag_blocks(h, np.zeros((4, 2), dtype=bool)),
    ],
)
def test_non_mask_active_sets_are_rejected(call):
    # read as booleans, [0, 1, 2] would mark coordinates 1 and 2 and a list
    # of empty index arrays would become a (4, 0) mask; masks of the wrong
    # shape are refused too
    with pytest.raises(InvalidParameterError, match="boolean array"):
        call(spd(3, 2))


# --------------------------------------------------- projected Newton step


def trial(factor, grad, h, active, alpha):
    """The search's trial point at ``alpha``: its Newton directions, clipped
    to the nonnegative orthant as :func:`armijo_search` clips them."""
    return np.maximum(factor - alpha * nmf._newton_directions(grad, h, active), 0.0)


def test_projected_step_unconstrained_newton():
    h = spd(2, 4)
    rng = np.random.default_rng(5)
    factor = np.abs(rng.standard_normal((3, 2))) + 5.0
    grad = 0.1 * rng.standard_normal((3, 2))
    active = np.zeros((3, 2), dtype=bool)
    got = trial(factor, grad, h, active, 1.0)
    want = factor - np.linalg.solve(h, grad.T).T
    assert np.max(np.abs(got - want)) < 1e-12


def test_projected_step_clips_to_zero():
    h = np.eye(1)
    factor = np.array([[0.5]])
    grad = np.array([[10.0]])  # step would go far negative
    got = trial(factor, grad, h, np.zeros((1, 1), dtype=bool), 1.0)
    assert got[0, 0] == 0.0


def test_projected_step_matches_rowwise_oracle():
    rng = np.random.default_rng(6)
    h = spd(3, 7)
    factor = np.abs(rng.standard_normal((4, 3)))
    grad = rng.standard_normal((4, 3))
    active = np.array(
        [
            [False, False, False],
            [True, False, False],
            [False, True, True],
            [True, True, True],
        ]
    )
    # rows 4-5 share row 1's non-empty pattern, rows 6-7 the empty one
    factor = np.vstack([factor, np.abs(rng.standard_normal((4, 3)))])
    grad = np.vstack([grad, rng.standard_normal((4, 3))])
    active = np.vstack([active, active[[1, 1, 0, 0]]])
    alpha = 0.3
    got = trial(factor, grad, h, active, alpha)
    for i in range(8):
        block = partial_diag_blocks(h, active[i : i + 1])[0]
        row = factor[i] - alpha * np.linalg.solve(block, grad[i])
        assert np.max(np.abs(got[i] - np.maximum(row, 0.0))) < 1e-10
        # the batched solve must give exactly the per-row solve
        p = np.linalg.solve(block, grad[i])
        assert np.array_equal(got[i], np.maximum(factor[i] - alpha * p, 0.0))


@pytest.mark.parametrize(
    "h",
    [spd(4, 9), spd(nmf.SCHUR_MIN_D, 9), rotated_block(nmf.SCHUR_MIN_D, 1e10, 9)],
    ids=["lu-d4", "schur", "schur-fallback"],
)
def test_newton_step_does_not_depend_on_the_stack_split(monkeypatch, h):
    d = len(h)
    rng = np.random.default_rng(8)
    factor = np.abs(rng.standard_normal((11, d)))
    grad = rng.standard_normal((11, d))
    active = rng.random((11, d)) < 0.3
    whole = trial(factor, grad, h, active, 0.5)
    for entries in (1, 16, 50):  # at d = 4, 1, 1 and 3 rows per LU stack
        monkeypatch.setattr(nmf, "STACK_ENTRIES", entries)
        assert np.array_equal(trial(factor, grad, h, active, 0.5), whole)


def test_shared_block_rows_skip_the_stack(monkeypatch):
    # only rows with a non-empty active pattern get a block of their own
    rng = np.random.default_rng(30)
    h = spd(5, 31)
    grad = rng.standard_normal((40, 5))
    active = rng.random((40, 5)) < 0.08
    active[:3] = False
    active[3, 0] = True
    built = []
    real = nmf.partial_diag_blocks

    def record(h_tilde, act):
        built.append(act.copy())
        return real(h_tilde, act)

    monkeypatch.setattr(nmf, "partial_diag_blocks", record)
    nmf._newton_directions(grad, h, active)
    pinned = active.any(axis=1)
    assert 0 < pinned.sum() < 40
    assert np.array_equal(np.concatenate(built), active[pinned])


def test_every_row_pinned_below_the_cut_takes_the_stack(monkeypatch):
    # no row is free, so no free-row solve runs
    d = nmf.SCHUR_MIN_D - 1
    rng = np.random.default_rng(37)
    h, grad = spd(d, 38), rng.standard_normal((30, d))
    active = rng.random((30, d)) < 0.2
    active[np.arange(30), rng.integers(0, d, 30)] = True
    built = record_stacks(monkeypatch)
    p = nmf._newton_directions(grad, h, active)
    assert np.array_equal(np.concatenate(built), active)
    lu = np.linalg.solve(partial_diag_blocks(h, active), grad[..., None])[..., 0]
    assert np.array_equal(p, lu)


def test_every_row_pinned_skips_an_exactly_singular_h_tilde():
    # H_tilde's first two rows are equal, so it has an exact zero pivot; each
    # row pins coordinate 0 or 1, which removes that coupling from its block
    h = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(h, np.zeros((3, 0)))
    rng = np.random.default_rng(44)
    grad = rng.standard_normal((6, 3))
    active = np.zeros((6, 3), dtype=bool)
    active[np.arange(6), np.arange(6) % 2] = True
    p = nmf._newton_directions(grad, h, active)
    lu = np.linalg.solve(partial_diag_blocks(h, active), grad[..., None])[..., 0]
    assert np.array_equal(p, lu)


def test_mixed_patterns_match_rowwise_solves_at_d12():
    rng = np.random.default_rng(32)
    d = 12
    h = spd(d, 33)
    grad = rng.standard_normal((60, d))
    active = rng.random((60, d)) < 0.05
    active[::3] = False
    assert 0 < active.any(axis=1).sum() < 60
    p = nmf._newton_directions(grad, h, active)
    for i in range(60):
        want = np.linalg.solve(partial_diag_blocks(h, active[i : i + 1])[0], grad[i])
        assert np.linalg.norm(p[i] - want) <= 1e-12 * np.linalg.norm(want)


# ----------------------------------------- Schur directions from the cut


def record_stacks(monkeypatch) -> list:
    """Collects the active rows of every stack handed to partial_diag_blocks."""
    built, real = [], nmf.partial_diag_blocks

    def record(h_tilde, act):
        built.append(act.copy())
        return real(h_tilde, act)

    monkeypatch.setattr(nmf, "partial_diag_blocks", record)
    return built


def row_residuals(h, active, p, grad):
    """||H_tilde^I p_i - g_i|| / ||g_i|| of each row i."""
    hp = (partial_diag_blocks(h, active) @ p[..., None])[..., 0]
    return np.linalg.norm(hp - grad, axis=1) / np.linalg.norm(grad, axis=1)


@pytest.mark.parametrize("d", [nmf.SCHUR_MIN_D, 40])
@pytest.mark.parametrize(
    "block, cond",
    [
        (rotated_block, 1e2),
        (rotated_block, 1e6),
        (rotated_block, 1e10),
        (reweighted_block, 1e4),
        (reweighted_block, 1e7),
        (reweighted_block, 1e10),
    ],
)
def test_schur_directions_meet_the_rowwise_residual(monkeypatch, d, block, cond):
    h = block(d, cond, 40)
    assert cond / 3 < np.linalg.cond(h) < 3 * cond
    rng = np.random.default_rng(41)
    grad = rng.standard_normal((60, d))
    active = rng.random((60, d)) < 0.25
    active[:5] = False  # rows that share H_tilde itself
    refused = nmf._schur_directions(grad, h, active, np.empty_like(grad))
    built = record_stacks(monkeypatch)
    p = nmf._newton_directions(grad, h, active)
    lu = np.linalg.solve(partial_diag_blocks(h, active), grad[..., None])[..., 0]
    # the rows the check refused, and only those, take the per-row LU
    assert np.array_equal(np.concatenate(built or [active[:0]]), active[refused])
    assert np.array_equal(p[refused], lu[refused])
    bound = np.maximum(np.sqrt(np.finfo(float).eps), row_residuals(h, active, lu, grad))
    assert np.all(row_residuals(h, active, p, grad) <= bound)
    # only the rotated blocks at cond 1e10 are beyond the explicit inverse
    assert refused.any() == (block is rotated_block and cond == 1e10)


def test_schur_directions_refuse_every_row_of_a_singular_block():
    h = np.ones((nmf.SCHUR_MIN_D, nmf.SCHUR_MIN_D))
    active = np.zeros((3, len(h)), dtype=bool)
    p = np.empty((3, len(h)))
    assert nmf._schur_directions(np.ones((3, len(h))), h, active, p).all()


def test_a_failed_schur_solve_sends_its_rows_to_the_stack(monkeypatch):
    # a k x k solve that raises writes NaN for its rows, which then fail the
    # residual check and take the per-row LU
    d, k = 12, 2
    h = spd(d, 42)
    rng = np.random.default_rng(43)
    grad = rng.standard_normal((50, d))
    active = rng.random((50, d)) < 0.15
    counts = active.sum(axis=1)
    assert (counts == k).any() and (counts != k).any()
    real = np.linalg.solve

    def fail_at_k(a, b):
        if a.shape[-1] == k:
            raise np.linalg.LinAlgError("singular")
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_at_k)
    refused = nmf._schur_directions(grad, h, active, np.empty_like(grad))
    assert np.array_equal(refused, counts == k)
    built = record_stacks(monkeypatch)
    p = nmf._newton_directions(grad, h, active)
    assert np.array_equal(np.concatenate(built), active[counts == k])
    lu = real(partial_diag_blocks(h, active), grad[..., None])[..., 0]
    assert np.array_equal(p[refused], lu[refused])
    bound = np.maximum(np.sqrt(np.finfo(float).eps), row_residuals(h, active, lu, grad))
    assert np.all(row_residuals(h, active, p, grad) <= bound)


def test_below_the_cut_every_pinned_row_takes_the_stack(monkeypatch):
    d = nmf.SCHUR_MIN_D - 1
    rng = np.random.default_rng(34)
    grad = rng.standard_normal((40, d))
    active = rng.random((40, d)) < 0.05
    built = record_stacks(monkeypatch)
    nmf._newton_directions(grad, spd(d, 35), active)
    pinned = active.any(axis=1)
    assert 0 < pinned.sum() < 40
    assert np.array_equal(np.concatenate(built), active[pinned])


@pytest.mark.parametrize("d", [nmf.SCHUR_MIN_D - 1, nmf.SCHUR_MIN_D, 40])
def test_one_inverse_per_search_from_the_cut(monkeypatch, d):
    inverses, real = [], np.linalg.inv

    def counted(a):
        inverses.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    rng = np.random.default_rng(36)
    y = np.abs(rng.standard_normal((30, 25)))
    u, v = np.abs(rng.standard_normal((30, d))), np.abs(rng.standard_normal((25, d)))
    u[rng.random(u.shape) < 0.3], v[rng.random(v.shape) < 0.3] = 0.0, 0.0
    fp = FactorPair(u, v)
    cfg = SolverConfig(lam=0.5, d_init=d)
    problem = Problem(ProblemKind.NMF, y)
    for side in "uv":
        inverses.clear()
        res = armijo_search(problem, side, fp, weight_diag(fp, cfg.eta), cfg)
        assert res.active.any()
        assert inverses == ([(d, d)] if d >= nmf.SCHUR_MIN_D else [])


# ------------------------------------------------------------ Armijo rule


def test_armijo_scalar_quadratic_accepts_full_step():
    # f(u) = 0.5 (u v - y)^2 + lam sqrt(u^2 + v^2 + eta^2): at v=1 the
    # unit Newton step on the surrogate lands near the minimizer and the
    # sigma = 1e-2 inequality holds at m=0
    y = np.array([[2.0]])
    fp = FactorPair(np.array([[1.0]]), np.array([[1.0]]))
    cfg = SolverConfig(lam=0.1, d_init=1, eta=1e-6)
    w = weight_diag(fp, cfg.eta)
    res = armijo_search(Problem(ProblemKind.NMF, y), "u", fp, w, cfg)
    assert res.accepted
    assert res.m_k == 0
    assert res.alpha == 1.0


def test_armijo_sigma_zero_limit():
    rng = np.random.default_rng(8)
    y = np.abs(rng.standard_normal((5, 4)))
    fp = nonneg_pair(5, 4, 2, 9)
    cfg = SolverConfig(
        lam=0.5, d_init=2, nmf=NmfOptions(sigma=1e-300)
    )
    w = weight_diag(fp, cfg.eta)
    res = armijo_search(Problem(ProblemKind.NMF, y), "u", fp, w, cfg)
    assert res.accepted and res.m_k == 0


def test_armijo_cap_semantics():
    # force rejection: a tiny backtrack cap together with a huge sigma
    # makes the sufficient-decrease inequality unattainable
    rng = np.random.default_rng(10)
    y = np.abs(rng.standard_normal((4, 3)))
    fp = nonneg_pair(4, 3, 2, 11)
    cfg = SolverConfig(lam=1.0, d_init=2, nmf=NmfOptions(sigma=1e6, max_backtracks=3))
    w = weight_diag(fp, cfg.eta)
    res = armijo_search(Problem(ProblemKind.NMF, y), "u", fp, w, cfg)
    assert not res.accepted
    assert res.m_k == 3
    assert np.array_equal(res.factor, fp.u)


def test_armijo_accepted_step_reverifies():
    # re-evaluate both sides of the sufficient-decrease inequality
    # independently for a batch of accepted steps
    rng = np.random.default_rng(12)
    for trial in range(10):
        y = np.abs(np.random.default_rng(100 + trial).standard_normal((6, 5)))
        fp = nonneg_pair(6, 5, 3, 200 + trial)
        cfg = SolverConfig(lam=0.5, d_init=3)
        w = weight_diag(fp, cfg.eta)
        res = armijo_search(Problem(ProblemKind.NMF, y), "u", fp, w, cfg)
        assert res.accepted
        f0 = objective(ProblemKind.NMF, y, None, fp, cfg.lam, cfg.eta)
        f1 = objective(
            ProblemKind.NMF, y, None, FactorPair(res.factor, fp.v), cfg.lam, cfg.eta
        )
        active_mask = res.active
        assert active_mask.dtype == bool and active_mask.shape == fp.u.shape
        inactive = float(
            np.sum(res.grad[~active_mask] * res.direction[~active_mask])
        )
        moved = float(
            np.sum(res.grad[active_mask] * (fp.u - res.factor)[active_mask])
        )
        rhs = cfg.nmf.sigma * (res.alpha * inactive + moved)
        assert f0 - f1 >= rhs - 1e-12
        assert abs(rhs - res.drop) < 1e-12


def _decrease_case(name):
    """(y, fp) of one random NMF problem for the factored decrease."""
    rng = np.random.default_rng(sum(map(ord, name)))
    m, n, d = {"d1": (5, 9, 1)}.get(name, (7, 5, 3))
    y = np.abs(rng.standard_normal((m, n)))
    u, v = np.abs(rng.standard_normal((m, d))), np.abs(rng.standard_normal((n, d)))
    if name == "clipped":
        u[rng.random(u.shape) < 0.3] = 0.0
    if name == "below_eta":
        u[:, 1], v[:, 1] = 1e-9, 2e-9
    if name == "large_y":
        y, u, v = 1e4 * y, 1e2 * u, 1e2 * v
    return y, FactorPair(u, v)


@pytest.mark.parametrize("side", ["u", "v"])
@pytest.mark.parametrize("name", ["plain", "d1", "clipped", "below_eta", "large_y"])
def test_factored_decrease_matches_objective_difference(name, side):
    y, fp = _decrease_case(name)
    cfg = SolverConfig(lam=0.5, d_init=fp.d)
    problem = Problem(ProblemKind.NMF, y)
    res = armijo_search(problem, side, fp, weight_diag(fp, cfg.eta), cfg)
    factor = fp.u if side == "u" else fp.v
    cand = np.maximum(factor - res.alpha * res.direction, 0.0)
    trial = FactorPair(cand, fp.v) if side == "u" else FactorPair(fp.u, cand)
    f0 = problem.objective(fp, cfg.lam, cfg.eta)
    direct = f0 - problem.objective(trial, cfg.lam, cfg.eta)
    assert abs(res.decrease - direct) <= 1e-10 * max(1.0, abs(f0))
    if name == "clipped":
        assert np.any((cand == 0.0) & (factor > 0.0))
    if name == "below_eta":
        assert np.sqrt(np.sum(fp.u[:, 1] ** 2) + np.sum(fp.v[:, 1] ** 2)) < cfg.eta


def test_factored_decrease_of_a_step_that_zeroes_a_large_column():
    # zeroing column 1 of U, whose V column is zero, rounds its new squared
    # joint norm s' = s + ds below -eta^2; s' is clamped at 0 in the root
    rng = np.random.default_rng(8)
    u = np.abs(1e6 * rng.standard_normal((6, 2)))
    v = np.abs(rng.standard_normal((4, 2)))
    v[:, 1] = 0.0
    y = np.abs(rng.standard_normal((6, 4)))
    fp, eta = FactorPair(u, v), 1e-6
    step = np.zeros_like(u)
    step[:, 1] = -u[:, 1]
    sts = step.T @ step
    assert fp.sq[1] + 2.0 * np.vdot(u[:, 1], step[:, 1]) + sts[1, 1] < -eta * eta
    got = nmf._decrease(u, fp.sq, step, sts, u @ fp.gram_v - y @ v, fp.gram_v, 1.0, eta)
    problem = Problem(ProblemKind.NMF, y)
    f0 = problem.objective(fp, 1.0, eta)
    direct = f0 - problem.objective(FactorPair(u + step, v), 1.0, eta)
    assert np.isfinite(got) and abs(got - direct) <= 1e-13 * f0


def test_armijo_search_evaluates_no_objective(monkeypatch):
    calls = []
    real = Problem.objective

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(Problem, "objective", counted)
    y, fp = _decrease_case("plain")
    cfg = SolverConfig(lam=0.5, d_init=fp.d, nmf=NmfOptions(sigma=1e6, max_backtracks=3))
    problem = Problem(ProblemKind.NMF, y)
    for side in "uv":
        res = armijo_search(problem, side, fp, weight_diag(fp, cfg.eta), cfg)
        assert not res.accepted
    assert calls == []


def test_armijo_rejects_negative_factors():
    y = np.abs(np.random.default_rng(0).standard_normal((3, 3)))
    rng = np.random.default_rng(13)
    fp = FactorPair(rng.standard_normal((3, 1)), np.abs(rng.standard_normal((3, 1))))
    cfg = SolverConfig(lam=1.0, d_init=1)
    with pytest.raises(ConstraintViolationError):
        armijo_search(Problem(ProblemKind.NMF, y), "u", fp, weight_diag(fp, cfg.eta), cfg)


# ---------------------------------------------------------------- solver


def test_solve_outer_product_prunes_to_one():
    rng = np.random.default_rng(14)
    y = np.outer(np.abs(rng.standard_normal(20)), np.abs(rng.standard_normal(15)))
    fp, trace = solve_nmf(y, SolverConfig(lam=1.0, d_init=5, seed=15))
    assert fp.d == 1
    assert nre(y, fp) <= 1e-2


def test_solve_zero_data():
    fp, trace = solve_nmf(np.zeros((6, 5)), SolverConfig(lam=1.0, d_init=3, seed=16))
    assert trace.status == "degenerate"
    assert fp.d == 0


def test_solve_rejects_negative_input():
    with pytest.raises(ConstraintViolationError):
        solve_nmf(-np.ones((3, 3)), SolverConfig(lam=1.0, d_init=2))


def test_solve_feasible_and_monotone():
    x0 = gen_lowrank(30, 25, 3, "uniform01", 17)
    y = np.maximum(add_noise_snr(x0, 20.0, 18), 0.0)
    fp, trace = solve_nmf(y, SolverConfig(lam=1.0, d_init=8, seed=19))
    assert np.all(fp.u >= 0) and np.all(fp.v >= 0)
    objs = [trace.initial_objective] + [r.objective for r in trace.records]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-10


def test_solve_certified_decrease_per_iteration():
    x0 = gen_lowrank(30, 25, 3, "uniform01", 20)
    y = np.maximum(add_noise_snr(x0, 20.0, 21), 0.0)
    fp, trace = solve_nmf(y, SolverConfig(lam=0.8, d_init=7, seed=22))
    objs = [trace.initial_objective] + [r.objective for r in trace.records]
    for i, r in enumerate(trace.records):
        assert r.delta >= 0.0
        assert objs[i] - objs[i + 1] >= r.delta - 1e-9


def test_solve_estimates_rank_uniform_instance():
    # desk-scale analogue of the uniform-factor experiment: the solver
    # should land close to the true rank with small error
    x0 = gen_lowrank(100, 100, 5, "uniform01", 23)
    y = np.maximum(add_noise_snr(x0, 20.0, 24), 0.0)
    fp, trace = solve_nmf(y, SolverConfig(lam=2.0, d_init=12, seed=25))
    assert 5 <= fp.d <= 8
    assert nre(x0, fp) <= 0.05


def test_solve_near_the_float_range_converges_without_a_warning():
    # ||factor - grad||^2 in the active-set rule overflows at this scale
    x0 = gen_lowrank(30, 20, 3, "uniform01", 1)
    y = np.abs(add_noise_snr(x0, 20.0, 2)) * 1e150
    fp, trace = solve_nmf(y, SolverConfig(lam=1.0, d_init=6, seed=1))
    assert trace.status == "converged"
    assert nre(x0 * 1e150, fp) <= 0.1


def test_solve_deterministic():
    y = np.abs(np.random.default_rng(26).standard_normal((12, 10)))
    cfg = SolverConfig(lam=0.5, d_init=4, seed=27, max_iter=25)
    a, ta = solve_nmf(y, cfg)
    b, tb = solve_nmf(y, cfg)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    assert [r.objective for r in ta.records] == [r.objective for r in tb.records]


@pytest.mark.parametrize(
    "seed, m, n, max_iter, label",
    [
        (3, 3, 2, 1, "iteration 1, V"),
        (6, 12, 10, 1, "iteration 1, V"),
        (2, 12, 10, 2, "iteration 2, U"),
    ],
    ids=["d2-V", "d10-V", "d10-U"],
)
def test_solve_singular_curvature_block_raises_invalid_parameter(seed, m, n, max_iter, label):
    # a rank-one Y with equal columns at a tiny lam, at d_init = min(m, n)
    y = 1e6 * np.repeat(np.random.default_rng(seed).standard_normal((m, 1)), n, axis=1)
    cfg = SolverConfig(lam=5.960464477539063e-08, d_init=n, max_iter=max_iter, seed=seed)
    assert (n >= nmf.SCHUR_MIN_D) == (n == 10)  # cases on each side of the cut
    with pytest.raises(InvalidParameterError, match=f"{label} half-step.*larger lam"):
        solve_nmf(np.abs(y), cfg)


def test_solve_reports_stall_when_every_search_is_rejected():
    # No step meets a sufficient-decrease factor of 1e6 within 3
    # backtracks, so the iterate never moves: that is a stall, not
    # convergence.
    y = gen_lowrank(30, 20, 3, "uniform01", 0)
    cfg = SolverConfig(lam=1.0, d_init=5, nmf=NmfOptions(sigma=1e6, max_backtracks=3))
    fp, trace = solve_nmf(y, cfg)
    assert trace.status == "stalled"
    assert trace.iterations == 1
    assert trace.records[0].objective == trace.initial_objective
