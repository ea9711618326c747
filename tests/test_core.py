"""Tests for the domain types, objectives, gradients and metrics."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowrankmf
from lowrankmf import core, oracles
from lowrankmf import (
    ConstraintViolationError,
    DimensionMismatchError,
    FactorPair,
    InvalidParameterError,
    ObservedMask,
    Problem,
    ProblemKind,
    SolverConfig,
    apply_mask,
    armijo_search,
    column_pair_norms,
    freedom_ratio,
    gradient,
    nmae,
    nre,
    objective,
    smoothed_regularizer,
    solve_denoise,
    solve_mc,
    solve_nmf,
    update_factor_denoise,
    update_factor_mc,
    weight_diag,
)
from lowrankmf.common import prune_columns
from lowrankmf.data import add_noise_snr, gen_lowrank, sample_mask


def random_pair(m, n, d, seed):
    rng = np.random.default_rng(seed)
    return FactorPair(rng.standard_normal((m, d)), rng.standard_normal((n, d)))


# ---------------------------------------------------------------- types


def test_factor_pair_dims():
    fp = random_pair(4, 3, 2, 0)
    assert fp.d == 2
    assert fp.shape == (4, 3)
    assert fp.product().shape == (4, 3)


def test_factor_pair_split_names_the_sides():
    fp = random_pair(4, 3, 2, 0)
    assert all(a is b for a, b in zip(fp.split("u"), (fp.u, fp.v)))
    assert all(a is b for a, b in zip(fp.split("v"), (fp.v, fp.u)))
    with pytest.raises(InvalidParameterError, match="side must be 'u' or 'v'"):
        fp.split("U")


def test_factor_pair_inner_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        FactorPair(np.zeros((4, 2)), np.zeros((3, 3)))


def test_factor_pair_rejects_nonfinite():
    u = np.zeros((2, 1))
    u[0, 0] = np.nan
    with pytest.raises(InvalidParameterError):
        FactorPair(u, np.zeros((2, 1)))


def test_factor_pair_equality_is_identity():
    # arrays have no truth value, so a pair equals only itself and hashes by
    # identity, as the problem's data-term slot keys it
    a, b = (FactorPair(np.ones((2, 2)), np.ones((2, 2))) for _ in range(2))
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_observed_mask_equality_is_identity():
    # as for FactorPair: a mask equals only itself and hashes by identity
    a, b = ObservedMask.full(2, 2), ObservedMask.full(2, 2)
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and a in {a} and b not in {a} and len({a, b, a}) == 2


def test_factor_pair_ledger_cannot_go_stale():
    # the factors and the Grams are read-only, so writing through the pair
    # raises instead of leaving a Gram that no longer matches its factor
    fp = random_pair(4, 3, 2, 0)
    derived = [fp, fp.with_factor("u", np.ones((4, 2))), fp.select([1])]
    for pair in derived:
        for a in (pair.u, pair.v, pair.gram_u, pair.gram_v, pair.sq):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        fp.u += 1.0


def test_factor_pair_with_factor_checks_only_the_new_factor():
    fp = random_pair(4, 3, 2, 0)
    gram_v = fp.gram_v
    moved = fp.with_factor("u", np.ones((4, 2)))
    assert moved.v is fp.v and moved.gram_v is gram_v
    with pytest.raises(InvalidParameterError, match="non-finite"):
        fp.with_factor("v", np.full((3, 2), np.nan))
    with pytest.raises(DimensionMismatchError):
        fp.with_factor("v", np.ones((3, 3)))
    with pytest.raises(InvalidParameterError, match="side must be 'u' or 'v'"):
        fp.with_factor("U", np.ones((4, 2)))


@st.composite
def ledger_walks(draw):
    """A start pair (d = 0 to 4) and a sequence of derivations: a new factor
    on one side, a column selection, or a read of one ledger entry."""
    m, n, d = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = st.sampled_from(["u", "v", "select", "gram_u", "gram_v", "sq"])
    ops = draw(st.lists(steps, max_size=12))
    return m, n, d, rng, ops, draw(st.randoms(use_true_random=False))


@settings(max_examples=80, deadline=None)
@given(ledger_walks())
def test_factor_pair_ledger_matches_fresh_grams(walk):
    # every pair of the walk is checked at its end, so an entry carried
    # while it was formed is checked as well as one formed on the check
    m, n, d, rng, ops, pick = walk
    scale = 10.0 ** rng.uniform(-3, 3)
    walked = [FactorPair(scale * rng.standard_normal((m, d)), rng.standard_normal((n, d)))]
    for op in ops:
        fp = walked[-1]
        if op in ("u", "v"):
            rows = m if op == "u" else n
            walked.append(fp.with_factor(op, rng.standard_normal((rows, fp.d))))
        elif op == "select":
            walked.append(fp.select(sorted(pick.sample(range(fp.d), pick.randint(0, fp.d)))))
        else:
            getattr(fp, op)
    for fp in walked:
        for got, a in ((fp.gram_u, fp.u), (fp.gram_v, fp.v)):
            want = a.T @ a
            assert got.shape == want.shape == (fp.d, fp.d)
            assert np.all(np.abs(got - want) <= 1e-12 * np.max(want, initial=0.0))
        sq = np.sum(fp.u * fp.u, axis=0) + np.sum(fp.v * fp.v, axis=0)
        assert np.all(np.abs(fp.sq - sq) <= 1e-12 * sq)
        norms = np.sqrt(sq)
        assert np.all(np.abs(column_pair_norms(fp) - norms) <= 1e-12 * norms)


def test_mask_validation():
    with pytest.raises(InvalidParameterError):
        ObservedMask(2, 2, np.array([0, 0]), np.array([1, 1]))  # duplicate
    with pytest.raises(InvalidParameterError):
        ObservedMask(2, 2, np.array([2]), np.array([0]))  # out of range
    with pytest.raises(InvalidParameterError):
        ObservedMask(2, 2, np.array([], dtype=int), np.array([], dtype=int))
    message = "^row and column index arrays differ in length$"
    with pytest.raises(DimensionMismatchError, match=message):
        ObservedMask(2, 2, np.array([0, 1]), np.array([0]))
    # a float index would be truncated to another entry, a bool read as 0/1
    for ri, ci in (([0.5, 1.9], [1.7, 0.2]), ([True, False], [0, 1]), ([0, 1], [False, True])):
        with pytest.raises(InvalidParameterError, match="^mask index arrays must hold integers$"):
            ObservedMask(2, 2, ri, ci)


@pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 2, 2)), 1.0], ids=["1d", "3d", "scalar"])
def test_as_matrix_refuses_an_array_that_is_not_2d(a):
    message = f"^y must be 2-D, got shape {re.escape(str(np.shape(a)))}$"
    with pytest.raises(DimensionMismatchError, match=message):
        core.as_matrix(a, "y")
    with pytest.raises(DimensionMismatchError, match="^y must be 2-D"):
        Problem(ProblemKind.DENOISE, a)


def config_with_lam(lam):
    """A valid config's fields with ``lam`` in place of its own: SolverConfig
    refuses lam <= 0 when built, and the NMF search checks the lam it reads."""
    return SimpleNamespace(**{**vars(SolverConfig(lam=1.0, d_init=1)), "lam": lam})


# Each factor step entry point, taking a step from ``fp`` with weight ``lam``.
FACTOR_STEPS = {
    ProblemKind.DENOISE: lambda p, fp, lam: update_factor_denoise(p, "u", fp, np.ones(fp.d), lam),
    ProblemKind.COMPLETE: lambda p, fp, lam: update_factor_mc(p, "u", fp, np.ones(fp.d), lam),
    ProblemKind.NMF: lambda p, fp, lam: armijo_search(
        p, "u", fp, np.ones(fp.d), config_with_lam(lam)
    ),
}


@pytest.mark.parametrize("kind", list(FACTOR_STEPS), ids=lambda k: k.value)
def test_factor_steps_refuse_an_empty_pair_and_a_lam_that_is_not_positive(kind):
    y = np.abs(np.random.default_rng(50).standard_normal((4, 3)))
    mask = ObservedMask.full(4, 3) if kind is ProblemKind.COMPLETE else None
    problem, step = Problem(kind, y, mask), FACTOR_STEPS[kind]
    with pytest.raises(InvalidParameterError, match="^factor pair has no columns$"):
        step(problem, FactorPair(np.zeros((4, 0)), np.zeros((3, 0))), 1.0)
    fp = FactorPair(np.ones((4, 2)), np.ones((3, 2)))
    for lam in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParameterError, match="^lam must be positive$"):
            step(problem, fp, lam)
    step(problem, fp, 1.0)  # the same call with a positive lam runs


def test_mask_sorts_only_offsets_that_are_not_strictly_increasing(monkeypatch):
    sorts, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
    in_order = ObservedMask(3, 4, np.array([0, 0, 2]), np.array([1, 3, 0]))
    assert sorts == []
    shuffled = ObservedMask(3, 4, np.array([2, 0, 0]), np.array([0, 3, 1]))
    assert sorts == [1]
    for name in ("row_idx", "col_idx", "flat", "indptr"):
        assert np.array_equal(getattr(shuffled, name), getattr(in_order, name))
    with pytest.raises(InvalidParameterError, match="duplicate"):
        ObservedMask(3, 4, np.array([0, 1, 1]), np.array([1, 2, 2]))  # sorted, repeated


def test_mask_full_and_density():
    mask = ObservedMask.full(3, 4)
    assert mask.card == 12
    assert mask.density == 1.0
    assert mask.to_dense_bool().all()


def test_mask_csr_layout_matches_a_lexsort_reference():
    rng = np.random.default_rng(4)
    rows, cols = 9, 7
    flat = rng.choice(rows * cols, size=25, replace=False)
    ri, ci = np.divmod(flat, cols)
    ri[ri == 3] = 5  # leave row 3 empty
    keep = np.unique(ri * cols + ci, return_index=True)[1]
    ri, ci = ri[keep], ci[keep]
    order = rng.permutation(ri.size)
    mask = ObservedMask(rows, cols, ri[order], ci[order])
    ref = np.lexsort((ci, ri))
    assert np.array_equal(mask.flat, ri[ref] * cols + ci[ref])
    assert np.array_equal(mask.indptr, np.searchsorted(ri[ref], np.arange(rows + 1)))
    assert mask.indptr[3] == mask.indptr[4]


# ----------------------------------------------------- column pair norms


def test_column_pair_norms_345():
    fp = FactorPair(np.array([[3.0], [0.0]]), np.array([[4.0], [0.0]]))
    assert np.allclose(column_pair_norms(fp), [5.0])


def test_column_pair_norms_zero():
    fp = FactorPair(np.zeros((2, 3)), np.zeros((2, 3)))
    assert np.allclose(column_pair_norms(fp), [0.0, 0.0, 0.0])


def test_column_pair_norms_matches_scalar_loop():
    fp = random_pair(4, 5, 3, 7)
    got = column_pair_norms(fp)
    for i in range(3):
        acc = 0.0
        for x in fp.u[:, i]:
            acc += x * x
        for x in fp.v[:, i]:
            acc += x * x
        assert abs(got[i] - np.sqrt(acc)) < 1e-12


# ------------------------------------------------------------ weight diag


def test_weight_diag_zero_factors_eta_one():
    fp = FactorPair(np.zeros((3, 2)), np.zeros((4, 2)))
    assert np.allclose(weight_diag(fp, 1.0), [1.0, 1.0])


def test_weight_diag_345_small_eta():
    fp = FactorPair(np.array([[3.0]]), np.array([[4.0]]))
    assert abs(weight_diag(fp, 1e-9)[0] - 0.2) < 1e-12


def test_weight_diag_matches_scalar_formula():
    fp = random_pair(4, 5, 3, 11)
    eta = 1e-6
    got = weight_diag(fp, eta)
    for i in range(3):
        t = np.sum(fp.u[:, i] ** 2) + np.sum(fp.v[:, i] ** 2) + eta**2
        assert abs(got[i] - 1.0 / np.sqrt(t)) < 1e-12


def test_weight_diag_requires_positive_eta():
    fp = random_pair(2, 2, 1, 0)
    with pytest.raises(InvalidParameterError):
        weight_diag(fp, 0.0)


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
def test_weight_diag_requires_finite_eta(eta):
    with pytest.raises(InvalidParameterError):
        weight_diag(random_pair(2, 2, 1, 0), eta)


@pytest.mark.parametrize("eta", [-1e-3, np.nan, np.inf])
def test_regularizer_requires_finite_nonnegative_eta(eta):
    with pytest.raises(InvalidParameterError):
        smoothed_regularizer(random_pair(2, 2, 1, 0), eta)


def test_weight_diag_bounded_and_monotone():
    # entries are at most 1/eta and decrease when a column grows
    fp = random_pair(4, 4, 2, 3)
    eta = 0.1
    w = weight_diag(fp, eta)
    assert np.all(w <= 1.0 / eta + 1e-15)
    bigger = FactorPair(2.0 * fp.u, fp.v)
    assert np.all(weight_diag(bigger, eta) < w)


# ------------------------------------------------- smoothed regularizer


def test_regularizer_zero_factors():
    fp = FactorPair(np.zeros((3, 4)), np.zeros((2, 4)))
    assert abs(smoothed_regularizer(fp, 0.5) - 2.0) < 1e-15


def test_regularizer_single_column_eta_zero():
    fp = FactorPair(np.array([[3.0]]), np.array([[4.0]]))
    assert abs(smoothed_regularizer(fp, 0.0) - 5.0) < 1e-15


def test_regularizer_composition():
    fp = random_pair(5, 4, 3, 13)
    eta = 0.3
    norms = column_pair_norms(fp)
    expect = float(np.sum(np.sqrt(norms**2 + eta**2)))
    assert abs(smoothed_regularizer(fp, eta) - expect) < 1e-12


def test_regularizer_lower_bound():
    # value >= d*eta with equality iff both factors vanish
    eta = 0.25
    zero = FactorPair(np.zeros((3, 4)), np.zeros((2, 4)))
    assert abs(smoothed_regularizer(zero, eta) - 4 * eta) < 1e-15
    fp = random_pair(3, 2, 4, 5)
    assert smoothed_regularizer(fp, eta) > 4 * eta


# -------------------------------------------------------------- apply_mask


def test_apply_mask_full_identity():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((3, 5))
    assert np.array_equal(apply_mask(y, ObservedMask.full(3, 5)), y)


def test_apply_mask_single_entry():
    mask = ObservedMask(2, 2, np.array([0]), np.array([0]))
    out = apply_mask(np.array([[1.0, 2.0], [3.0, 4.0]]), mask)
    assert np.array_equal(out, [[1.0, 0.0], [0.0, 0.0]])


def test_apply_mask_random_set_membership():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((6, 7))
    flat = rng.choice(42, size=17, replace=False)
    ri, ci = np.divmod(flat, 7)
    mask = ObservedMask(6, 7, ri, ci)
    out = apply_mask(y, mask)
    observed = set(zip(ri.tolist(), ci.tolist()))
    for i in range(6):
        for j in range(7):
            expect = y[i, j] if (i, j) in observed else 0.0
            assert out[i, j] == expect


def test_apply_mask_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply_mask(np.zeros((2, 2)), ObservedMask.full(3, 3))


# -------------------------------------------------------------- objective


def test_objective_zero_at_exact_fit_lambda_zero():
    fp = random_pair(4, 3, 2, 2)
    y = fp.product()
    # lam must be positive in solvers, but the objective itself accepts 0
    val = objective(ProblemKind.DENOISE, y, None, fp, 0.0, 1e-6)
    assert abs(val) < 1e-20


def test_objective_zero_factors():
    rng = np.random.default_rng(3)
    y = rng.standard_normal((4, 5))
    fp = FactorPair(np.zeros((4, 2)), np.zeros((5, 2)))
    val = objective(ProblemKind.DENOISE, y, None, fp, 1.0, 0.0)
    # eta=0 would raise in weight_diag but not here; regularizer is 0
    assert abs(val - 0.5 * np.sum(y * y)) < 1e-12


def test_objective_full_mask_equals_denoise():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((5, 6))
    fp = random_pair(5, 6, 3, 5)
    full = ObservedMask.full(5, 6)
    a = objective(ProblemKind.COMPLETE, y, full, fp, 2.0, 1e-6)
    b = objective(ProblemKind.DENOISE, y, None, fp, 2.0, 1e-6)
    assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_objective_sparse_and_dense_mask_paths_agree():
    # a sparse and a dense mask must both give the dense masked value
    rng = np.random.default_rng(5)
    y = rng.standard_normal((10, 12))
    fp = random_pair(10, 12, 2, 6)
    for card in (12, 90):  # 10% and 75% observed
        flat = rng.choice(120, size=card, replace=False)
        ri, ci = np.divmod(flat, 12)
        mask = ObservedMask(10, 12, ri, ci)
        got = objective(ProblemKind.COMPLETE, y, mask, fp, 1.0, 1e-6)
        res = (fp.product() - y)[ri, ci]
        expect = 0.5 * float(res @ res) + smoothed_regularizer(fp, 1e-6)
        assert abs(got - expect) < 1e-12 * max(1.0, abs(expect))


def test_objective_complete_requires_mask():
    fp = random_pair(3, 3, 1, 7)
    with pytest.raises(InvalidParameterError):
        objective(ProblemKind.COMPLETE, np.zeros((3, 3)), None, fp, 1.0, 1e-6)


def test_objective_nmf_rejects_negative():
    fp = random_pair(3, 3, 1, 8)  # Gaussian factors contain negatives
    y = np.abs(np.random.default_rng(0).standard_normal((3, 3)))
    with pytest.raises(ConstraintViolationError):
        objective(ProblemKind.NMF, y, None, fp, 1.0, 1e-6)
    nn = FactorPair(np.abs(fp.u), np.abs(fp.v))
    with pytest.raises(ConstraintViolationError):
        objective(ProblemKind.NMF, -y - 1.0, None, nn, 1.0, 1e-6)


# --------------------------------------------------------------- gradient


def test_gradient_zero_at_least_squares_optimum():
    rng = np.random.default_rng(9)
    y = rng.standard_normal((6, 4))
    v = rng.standard_normal((4, 2))
    u = y @ v @ np.linalg.inv(v.T @ v)
    fp = FactorPair(u, v)
    g = gradient(ProblemKind.DENOISE, "u", y, None, fp, 0.0, 1e-6)
    assert np.max(np.abs(g)) < 1e-10


def test_gradient_zero_residual_lambda_zero():
    fp = random_pair(4, 3, 2, 10)
    y = fp.product()
    for side in ("u", "v"):
        g = gradient(ProblemKind.DENOISE, side, y, None, fp, 0.0, 1e-6)
        assert np.max(np.abs(g)) < 1e-12


def fd_gradient(kind, side, y, mask, fp, lam, eta, h=1e-6):
    factor = fp.u if side == "u" else fp.v
    g = np.zeros_like(factor)
    for i in range(factor.shape[0]):
        for j in range(factor.shape[1]):
            for sgn in (1.0, -1.0):
                bumped = factor.copy()
                bumped[i, j] += sgn * h
                if side == "u":
                    pert = FactorPair(bumped, fp.v)
                else:
                    pert = FactorPair(fp.u, bumped)
                g[i, j] += sgn * objective(kind, y, mask, pert, lam, eta)
    return g / (2.0 * h)


@pytest.mark.parametrize("kind", [ProblemKind.DENOISE, ProblemKind.COMPLETE])
@pytest.mark.parametrize("side", ["u", "v"])
def test_gradient_matches_finite_differences(kind, side):
    rng = np.random.default_rng(11)
    y = rng.standard_normal((5, 4))
    mask = None
    if kind is ProblemKind.COMPLETE:
        flat = rng.choice(20, size=10, replace=False)
        ri, ci = np.divmod(flat, 4)
        mask = ObservedMask(5, 4, ri, ci)
    for trial in range(5):
        fp = random_pair(5, 4, 2, 100 + trial)
        g = gradient(kind, side, y, mask, fp, 0.7, 1e-3)
        fd = fd_gradient(kind, side, y, mask, fp, 0.7, 1e-3)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5


def test_gradient_nmf_matches_finite_differences():
    rng = np.random.default_rng(12)
    y = np.abs(rng.standard_normal((5, 4)))
    for trial in range(3):
        r2 = np.random.default_rng(200 + trial)
        fp = FactorPair(
            np.abs(r2.standard_normal((5, 2))), np.abs(r2.standard_normal((4, 2)))
        )
        for side in ("u", "v"):
            g = gradient(ProblemKind.NMF, side, y, None, fp, 0.5, 1e-3)
            fd = fd_gradient(ProblemKind.NMF, side, y, None, fp, 0.5, 1e-3)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5


# ------------------------------------------------------ observed residual


def counting_residual(monkeypatch):
    """Count observed-residual evaluations per Problem instance."""
    counts = {}
    evaluate = Problem._observed_residual

    def counted(self, fp):
        counts[id(self)] = counts.get(id(self), 0) + 1
        return evaluate(self, fp)

    monkeypatch.setattr(Problem, "_observed_residual", counted)
    return counts


def test_the_data_path_is_chosen_by_size_and_density():
    # at least one entry in FILL_IN_RATIO observed, on at most STACK_ENTRIES
    # cells: the bench's complete (300^2, 14,750 entries) holds the buffer,
    # complete-large (1000^2, 5 %) and any grid above the block budget the
    # sparse operator
    assert core._dense_enough(300, 300, 14_750)
    assert core._dense_enough(3, 3, 2) and not core._dense_enough(3, 3, 1)
    assert not core._dense_enough(1000, 1000, 50_000)
    assert core._dense_enough(1000, 1000, 125_000)
    assert not core._dense_enough(2000, 2000, 4_000_000)
    y = np.zeros((4, 6))
    for card, fill_in in ((3, True), (2, False)):
        mask = sample_mask(4, 6, card, 1)
        assert Problem(ProblemKind.COMPLETE, y, mask).fill_in is fill_in


@pytest.mark.parametrize("card, fill_in", [(150, False), (300, True)], ids=["sparse", "buffer"])
def test_completion_solve_evaluates_residuals_per_iteration(monkeypatch, card, fill_in):
    counts = counting_residual(monkeypatch)
    x0 = gen_lowrank(40, 40, 3, "gaussian", 11)
    y = add_noise_snr(x0, 20.0, 12)
    mask = sample_mask(40, 40, card, 13)
    assert Problem(ProblemKind.COMPLETE, y, mask).fill_in is fill_in
    _, trace = solve_mc(y, mask, SolverConfig(lam=10.0, d_init=10))
    assert trace.iterations > 5
    # the public objective that checks the start point evaluates it on its
    # own Problem.  On the sparse path the solve's Problem evaluates the
    # start point once and then the V step and the objective of every
    # iteration, because each U step reads the residual the last objective
    # computed.  On the buffer path the steps read the buffer, not the
    # residual, so only the objectives evaluate one.
    k = trace.iterations
    assert sorted(counts.values()) == [1, k if fill_in else 2 * k + 1]


def test_residual_memo_never_returns_a_stale_residual(monkeypatch):
    counts = counting_residual(monkeypatch)
    rng = np.random.default_rng(40)
    y = rng.standard_normal((8, 7))
    mask = ObservedMask(8, 7, [0, 2, 5, 7], [0, 3, 6, 1])
    problem = Problem(ProblemKind.COMPLETE, y, mask)
    fp = FactorPair(rng.standard_normal((8, 3)), rng.standard_normal((7, 3)))
    fp = FactorPair(fp.u * [1, 1, 0], fp.v * [1, 1, 0])  # column 2 is prunable

    def agrees(got, pair):
        want = (pair.product() - y)[mask.row_idx, mask.col_idx]
        return np.allclose(got, want, rtol=0, atol=1e-12)

    r = problem.residual(fp)
    assert problem.residual(fp) is r and agrees(r, fp) and counts[id(problem)] == 1
    with pytest.raises(ValueError):
        r[0] = 0.0  # read-only, so no caller can corrupt the kept residual
    # equal values in a new pair: evaluated afresh
    twin = FactorPair(fp.u.copy(), fp.v.copy())
    assert agrees(problem.residual(twin), twin) and counts[id(problem)] == 2
    # the pruned pair is a new object with one column fewer
    pruned, kept = prune_columns(twin, 1e-6)
    assert kept == [0, 1]
    assert agrees(problem.residual(pruned), pruned) and counts[id(problem)] == 3
    # a moved point after the pruned one, then the pruned one again
    moved = FactorPair(pruned.u + 1.0, pruned.v)
    assert agrees(problem.residual(moved), moved)
    assert agrees(problem.residual(pruned), pruned)
    assert counts[id(problem)] == 5


@pytest.mark.parametrize("kind", [ProblemKind.DENOISE, ProblemKind.NMF])
def test_dense_problem_has_no_residual_and_a_read_only_y_v(kind):
    rng = np.random.default_rng(43)
    y = np.abs(rng.standard_normal((6, 5)))
    fp = FactorPair(np.abs(rng.standard_normal((6, 2))), np.abs(rng.standard_normal((5, 2))))
    problem = Problem(kind, y)
    with pytest.raises(InvalidParameterError, match="no observed residual"):
        problem.residual(fp)
    problem.objective(fp, 1.0, 1e-3)
    yv = problem.filled_product("u", fp)  # the objective's Y V, from the slot
    assert np.array_equal(yv, y @ fp.v) and problem.filled_product("u", fp) is yv
    with pytest.raises(ValueError):
        yv[0, 0] = 0.0  # read-only, so no caller can corrupt the kept Y V


@st.composite
def masked_problems(draw, sparse=False):
    """(y, mask, fp) of up to 30 x 30 with d <= 5 and any card(Omega), or
    with ``sparse`` below the fill-in cut: 8 card(Omega) < m n."""
    low = 3 if sparse else 1
    m, n, d = draw(st.integers(low, 30)), draw(st.integers(low, 30)), draw(st.integers(1, 5))
    top = (m * n - 1) // core.FILL_IN_RATIO if sparse else m * n
    card = draw(st.integers(1, top))  # a single entry up to the full mask
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ri, ci = np.divmod(rng.choice(m * n, size=card, replace=False), n)
    fp = FactorPair(rng.standard_normal((m, d)), rng.standard_normal((n, d)))
    return rng.standard_normal((m, n)), ObservedMask(m, n, ri, ci), fp


@settings(max_examples=60, deadline=None)
@given(masked_problems(sparse=True), st.integers(1, 1000))
def test_blocked_residual_matches_the_dense_masked_formulas(case, block_entries):
    # on the sparse path, budgets below n give one row per block; products
    # of blocks differ from the full product only at round-off, so compare
    # to a tolerance
    y, mask, fp = case
    obs = mask.to_dense_bool()
    res = np.where(obs, fp.product() - y, 0.0)
    w, lam, eta = weight_diag(fp, 1e-3), 0.7, 1e-3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "STACK_ENTRIES", block_entries)
        problem = Problem(ProblemKind.COMPLETE, y, mask)
        assert not problem.fill_in
        r = problem.residual(fp)
        f = problem.objective(fp, lam, eta)
        grads = {side: problem.gradient(side, fp, lam, w) for side in "uv"}
    scale = np.abs(fp.u) @ np.abs(fp.v).T + np.abs(y)
    want = (fp.product() - y)[mask.row_idx, mask.col_idx]
    assert np.all(np.abs(r - want) <= 1e-12 * scale[mask.row_idx, mask.col_idx])
    reg = lam * smoothed_regularizer(fp, eta)
    assert abs(f - (0.5 * np.sum(res * res) + reg)) <= 1e-12 * (
        0.5 * np.sum(scale[obs] ** 2) + reg
    )
    seen = np.where(obs, scale, 0.0)
    for side, cur, other, fit, size in (
        ("u", fp.u, fp.v, res, seen),
        ("v", fp.v, fp.u, res.T, seen.T),
    ):
        bound = size @ np.abs(other) + lam * np.abs(cur) * w
        assert np.all(np.abs(grads[side] - (fit @ other + lam * cur * w)) <= 1e-12 * bound)


@pytest.mark.parametrize("side", ["u", "v"])
def test_filled_product_is_the_fill_in_data_times_the_other_factor(side):
    # Z = P_Omega(Y) + P_Omega^perp(U V^T): the observed entries of Y, and
    # the model's own values elsewhere
    rng = np.random.default_rng(41)
    y = rng.standard_normal((9, 7))
    fp = FactorPair(rng.standard_normal((9, 3)), rng.standard_normal((7, 3)))
    mask = sample_mask(9, 7, 30, 42)
    z = np.where(mask.to_dense_bool(), y, fp.product())
    _, other = fp.split(side)
    want = (z if side == "u" else z.T) @ other
    problem = Problem(ProblemKind.COMPLETE, y, mask)
    got = problem.filled_product(side, fp)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def pair_sequence(rng, m, n):
    """Consecutive pairs on both sides, a pruned pair, and a pair read again
    after another one, as (side, pair)."""
    fp = FactorPair(rng.standard_normal((m, 4)), rng.standard_normal((n, 4)))
    mid = fp.with_factor("u", rng.standard_normal((m, 4)))
    nxt = mid.with_factor("v", rng.standard_normal((n, 4)))
    pruned = nxt.select([0, 2, 3])
    return [("u", fp), ("v", fp), ("v", mid), ("u", nxt), ("v", nxt),
            ("u", pruned), ("v", mid), ("v", pruned)]


def assert_fill_in_products(problem, y, mask, pairs):
    # each product is the fill-in Z = P_Omega(Y) + P_Omega^perp(U V^T)
    # times the other factor, with nothing left over from an earlier pair
    for side, pair in pairs:
        z = np.where(mask.to_dense_bool(), y, pair.product())
        other = pair.split(side)[1]
        want = (z if side == "u" else z.T) @ other
        got = problem.filled_product(side, pair)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), side


def test_completion_problem_holds_one_sparse_operator(monkeypatch):
    import scipy.sparse as sp

    built, csr_matrix = [], sp.csr_matrix
    monkeypatch.setattr(sp, "csr_matrix", lambda *a, **k: built.append(1) or csr_matrix(*a, **k))
    y = add_noise_snr(gen_lowrank(30, 30, 2, "gaussian", 5), 20.0, 6)
    cfg = SolverConfig(lam=20.0, d_init=8, max_iter=30)
    _, trace = solve_mc(y, sample_mask(30, 30, 110, 7), cfg)  # below the cut
    assert trace.iterations > 2 and trace.prunes and len(built) == 1
    rng = np.random.default_rng(8)
    mask = sample_mask(12, 9, 13, 9)
    y = rng.standard_normal((12, 9))
    problem = Problem(ProblemKind.COMPLETE, y, mask)
    assert not problem.fill_in
    assert_fill_in_products(problem, y, mask, pair_sequence(rng, 12, 9))
    csr, csc = problem._operator
    assert len(built) == 2 and np.shares_memory(csr.data, csc.data)


def test_completion_problem_holds_one_fill_in_buffer(monkeypatch):
    import scipy.sparse as sp

    monkeypatch.setattr(sp, "csr_matrix", None)  # the buffer path never builds one
    rng = np.random.default_rng(8)
    mask = sample_mask(12, 9, 50, 9)
    y = rng.standard_normal((12, 9))
    problem = Problem(ProblemKind.COMPLETE, y, mask)
    assert problem.fill_in
    buffer = problem._buffer
    pairs = pair_sequence(rng, 12, 9)
    assert_fill_in_products(problem, y, mask, pairs)
    # residuals between the products: each reads U V^T afresh, and the next
    # product at that pair fills the U V^T the residual left
    for side, pair in pairs:
        want = (pair.product() - y)[mask.row_idx, mask.col_idx]
        assert np.max(np.abs(problem.residual(pair) - want)) <= 1e-12 * np.max(np.abs(want))
        assert_fill_in_products(problem, y, mask, [(side, pair)])
    assert problem._buffer is buffer and "_operator" not in vars(problem)


@settings(max_examples=60, deadline=None)
@given(masked_problems())
def test_fill_in_and_sparse_operator_agree(case):
    # one mask forced onto each data path: the same residual, objective and
    # Z G on both sides to 1e-12 of the magnitudes that enter them
    y, mask, fp = case
    lam, eta = 0.7, 1e-3
    got = {}
    for ratio in (0, 10**9):  # the sparse operator, then the buffer
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "FILL_IN_RATIO", ratio)
            problem = Problem(ProblemKind.COMPLETE, y, mask)
            assert problem.fill_in is (ratio > 0)
            got[ratio] = (
                problem.residual(fp),
                problem.objective(fp, lam, eta),
                {side: problem.filled_product(side, fp) for side in "uv"},
            )
    (r_s, f_s, zg_s), (r_b, f_b, zg_b) = got[0], got[10**9]
    scale = np.abs(fp.u) @ np.abs(fp.v).T + np.abs(y)
    seen = scale[mask.row_idx, mask.col_idx]
    assert np.all(np.abs(r_b - r_s) <= 1e-12 * seen)
    assert abs(f_b - f_s) <= 1e-12 * (0.5 * np.sum(seen**2) + lam * smoothed_regularizer(fp, eta))
    for side in "uv":
        factor, other = fp.split(side)
        size = scale if side == "u" else scale.T
        bound = size @ np.abs(other) + np.abs(factor) @ np.abs(other.T @ other)
        assert np.all(np.abs(zg_b[side] - zg_s[side]) <= 1e-12 * bound), side


def test_import_loads_no_scipy_sparse():
    # neither importing the package nor a solve on the buffer path (12 x 10,
    # half observed) loads scipy.sparse
    script = (
        "import sys, numpy as np, lowrankmf\n"
        "assert 'scipy.sparse' not in sys.modules, 'imported with the package'\n"
        "from lowrankmf.data import sample_mask\n"
        "y = np.random.default_rng(0).standard_normal((12, 10))\n"
        "fp, trace = lowrankmf.solve_mc(y, sample_mask(12, 10, 60, 1),\n"
        "                               lowrankmf.SolverConfig(lam=1.0, d_init=3))\n"
        "assert trace.iterations > 0 and np.all(np.isfinite(fp.u))\n"
        "assert 'scipy.sparse' not in sys.modules, 'imported by a buffer-path solve'\n"
    )
    src = str(Path(lowrankmf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


# ------------------------------------------------------------- block step


# The stationarity residual ||X H - Z G|| / ||Z G|| of the step, against
# that of np.linalg.solve on the same block: the largest ratio measured over
# 100 blocks of each d and condition number below was 2.2.
BLOCK_STEP_RESIDUAL_FACTOR = 4.0


def _conditioned_u_step(d, cond, seed, m=60, n=50):
    """A denoising problem and pair whose U-step block H = V^T V + lam I has
    the eigenvalues geomspace(1, 1/cond): V = P S Q^T, P and Q orthonormal,
    so Z G = Y V carries the block's scaling, as in a solve."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    p, _ = np.linalg.qr(rng.standard_normal((n, d)))
    lam = 0.5 / cond
    s = np.sqrt(np.geomspace(1.0, 1.0 / cond, d) - lam)
    fp = FactorPair(rng.standard_normal((m, d)), (p * s) @ q.T)
    return Problem(ProblemKind.DENOISE, rng.standard_normal((m, n))), fp, lam


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("d", [5, 40])
def test_block_step_conditioning(d, cond):
    w = np.ones(d)
    for seed in range(3):
        problem, fp, lam = _conditioned_u_step(d, cond, seed)
        h = fp.gram_v + lam * np.diag(w)
        assert 0.99 * cond < np.linalg.cond(h) < 1.01 * cond
        zg = problem.filled_product("u", fp)
        new, drop = core.block_step(problem, "u", fp, w, lam)

        def residual(x):
            return np.linalg.norm(x @ h - zg) / np.linalg.norm(zg)

        ref = np.linalg.solve(h, zg.T).T
        assert residual(new) <= BLOCK_STEP_RESIDUAL_FACTOR * residual(ref)

        # the drop is the surrogate's decrease q(U) - q(U'), q(X) = 1/2 <X^T X, H>
        # - <X, Z G>, which is determined to about eps * cond(H) relative
        def q(x):
            return 0.5 * np.vdot(x.T @ x, h) - np.vdot(x, zg)

        eps = np.finfo(float).eps
        assert abs(q(fp.u) - q(new) - drop) <= eps * cond * drop
    # an exactly singular block: a zero column of V with a zero weight
    v = fp.v.copy()
    v[:, 0] = 0.0
    w[0] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        core.block_step(problem, "u", FactorPair(fp.u, v), w, lam)


# ---------------------------------------------------------------- metrics


def test_nre_exact_and_zero_prediction():
    fp = random_pair(4, 3, 2, 14)
    x0 = fp.product()
    assert nre(x0, fp) < 1e-12
    zero = FactorPair(np.zeros((4, 2)), np.zeros((3, 2)))
    assert abs(nre(x0, zero) - 1.0) < 1e-12


def test_nre_rejects_zero_reference():
    fp = random_pair(2, 2, 1, 0)
    with pytest.raises(InvalidParameterError):
        nre(np.zeros((2, 2)), fp)


def test_nre_rejects_a_reference_of_another_shape():
    # a (1, 3) reference would broadcast against a 4 x 3 product
    with pytest.raises(DimensionMismatchError):
        nre(np.ones((1, 3)), random_pair(4, 3, 2, 0))


def test_nre_matches_direct_computation():
    rng = np.random.default_rng(15)
    x0 = rng.standard_normal((5, 6))
    fp = random_pair(5, 6, 2, 16)
    expect = np.linalg.norm(x0 - fp.product()) / np.linalg.norm(x0)
    assert abs(nre(x0, fp) - expect) < 1e-14


def test_nmae_perfect_and_offset():
    fp = random_pair(3, 3, 2, 17)
    y = fp.product()
    mask = ObservedMask.full(3, 3)
    assert nmae(y, mask, fp) < 1e-12
    assert abs(nmae(y + 4.0, mask, fp) - 1.0) < 1e-12


def test_nmae_matches_scalar_loop():
    rng = np.random.default_rng(18)
    y = rng.standard_normal((4, 5))
    fp = random_pair(4, 5, 2, 19)
    flat = rng.choice(20, size=9, replace=False)
    ri, ci = np.divmod(flat, 5)
    mask = ObservedMask(4, 5, ri, ci)
    x = fp.product()
    acc = 0.0
    for i, j in zip(ri, ci):
        acc += abs(x[i, j] - y[i, j])
    assert abs(nmae(y, mask, fp) - acc / (4 * 9)) < 1e-13


def test_nmae_rejects_mask_or_factors_of_another_shape():
    fp = random_pair(4, 4, 2, 20)
    with pytest.raises(InvalidParameterError):
        nmae(np.ones((5, 4)), ObservedMask.full(4, 4), fp)
    with pytest.raises(DimensionMismatchError):
        nmae(np.ones((4, 4)), ObservedMask.full(4, 4), random_pair(5, 4, 2, 21))


def test_freedom_ratio_values():
    assert abs(freedom_ratio(20, 1000, 99000) - 0.4) < 1e-12
    assert abs(freedom_ratio(10, 10, 100) - 1.0) < 1e-15
    assert abs(freedom_ratio(1, 10, 19) - 1.0) < 1e-15


def test_freedom_ratio_errors():
    with pytest.raises(InvalidParameterError):
        freedom_ratio(1, 10, 0)
    with pytest.raises(InvalidParameterError):
        freedom_ratio(11, 10, 5)


# ---------------------------------------------------------- boundary checks

BOUNDARY_CFG = SolverConfig(lam=1.0, d_init=2, max_iter=3)
STEPS = {
    ProblemKind.DENOISE: update_factor_denoise,
    ProblemKind.COMPLETE: update_factor_mc,
    ProblemKind.NMF: armijo_search,
}
SOLVES = {
    ProblemKind.DENOISE: solve_denoise,
    ProblemKind.COMPLETE: solve_mc,
    ProblemKind.NMF: solve_nmf,
}


def _step(kind, problem, fp):
    """The U step of ``kind`` on ``problem`` from ``fp``."""
    cfg, w = BOUNDARY_CFG, weight_diag(fp, BOUNDARY_CFG.eta)
    # armijo_search weighs with cfg.lam, the other steps take lam itself
    return STEPS[kind](problem, "u", fp, w, cfg if kind is ProblemKind.NMF else cfg.lam)


def _solve(kind, y, mask, cfg):
    if kind is ProblemKind.COMPLETE:
        return solve_mc(y, mask, cfg)
    return SOLVES[kind](y, cfg)


def _entry_points(kind):
    """Every public call that takes one problem's data, for ``kind``."""
    cfg, lam, eta = BOUNDARY_CFG, BOUNDARY_CFG.lam, BOUNDARY_CFG.eta
    calls = {
        "objective": lambda y, mask, fp: objective(kind, y, mask, fp, lam, eta),
        "gradient": lambda y, mask, fp: gradient(kind, "u", y, mask, fp, lam, eta),
        SOLVES[kind].__name__: lambda y, mask, fp: _solve(kind, y, mask, cfg),
        STEPS[kind].__name__: lambda y, mask, fp: _step(kind, Problem(kind, y, mask), fp),
    }
    if kind is ProblemKind.COMPLETE:
        calls["nmae"] = lambda y, mask, fp: nmae(y, mask, fp)
    return calls


# Each defect: the problem kinds it applies to and the error it must raise.
DEFECTS = {
    "non_finite_y": (tuple(ProblemKind), InvalidParameterError),
    "mask_shape": ((ProblemKind.COMPLETE,), InvalidParameterError),
    "negative_y": ((ProblemKind.NMF,), ConstraintViolationError),
    "negative_factors": ((ProblemKind.NMF,), ConstraintViolationError),
    "factor_shape": (tuple(ProblemKind), DimensionMismatchError),
}
BOUNDARY_CASES = [
    pytest.param(kind, name, defect, id=f"{name}-{kind.value}-{defect}")
    for defect, (kinds, _) in DEFECTS.items()
    for kind in kinds
    for name in _entry_points(kind)
    # The solvers draw their own factors.
    if not (defect in ("negative_factors", "factor_shape") and name.startswith("solve_"))
]


@pytest.mark.parametrize("kind, name, defect", BOUNDARY_CASES)
def test_entry_points_reject_bad_data(kind, name, defect):
    rng = np.random.default_rng(30)
    y = np.abs(rng.standard_normal((6, 5)))
    mask = ObservedMask(6, 5, np.arange(6), np.arange(6) % 5)
    fp = FactorPair(np.abs(rng.standard_normal((6, 2))), np.abs(rng.standard_normal((5, 2))))
    call = _entry_points(kind)[name]
    call(y, mask, fp)  # the well-formed call goes through
    if defect == "non_finite_y":
        y[2, 3] = np.inf
    elif defect == "mask_shape":
        mask = ObservedMask(7, 5, np.arange(7), np.arange(7) % 5)
    elif defect == "negative_y":
        y[2, 3] = -1.0
    elif defect == "negative_factors":
        fp = FactorPair(-fp.u, fp.v)
    else:
        fp = FactorPair(fp.u, np.vstack([fp.v, fp.v[:1]]))
    with pytest.raises(DEFECTS[defect][1]):
        call(y, mask, fp)


@pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda kind: kind.value)
def test_solve_checks_y_once(kind, monkeypatch):
    # the solve's Problem checks Y; its factor steps must not scan it again,
    # so the count of Y checks does not grow with the iterations
    checked = []
    original = core.as_matrix

    def counted(a, name="matrix"):
        checked.append(name)
        return original(a, name)

    for key, mod in list(sys.modules.items()):
        if key.startswith("lowrankmf") and getattr(mod, "as_matrix", None) is original:
            monkeypatch.setattr(mod, "as_matrix", counted)
    x0 = gen_lowrank(20, 15, 2, "uniform01", 32)
    y = np.maximum(add_noise_snr(x0, 20.0, 33), 0.0)
    mask = sample_mask(20, 15, 150, 34)
    counts = []
    for max_iter in (2, 5):
        checked.clear()
        cfg = SolverConfig(lam=0.1, d_init=4, tol=1e-12, max_iter=max_iter)
        _, trace = _solve(kind, y, mask, cfg)
        assert trace.iterations == max_iter
        counts.append(checked.count("y"))
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "step_kind, problem_kind",
    [(a, b) for a in ProblemKind for b in ProblemKind if a is not b],
    ids=lambda kind: kind.value,
)
def test_factor_steps_reject_a_problem_of_another_kind(step_kind, problem_kind):
    # a completion problem given to the denoise step would silently fit
    # the zeros outside its mask
    rng = np.random.default_rng(31)
    y = np.abs(rng.standard_normal((6, 5)))
    mask = ObservedMask(6, 5, np.arange(6), np.arange(6) % 5)
    fp = FactorPair(np.abs(rng.standard_normal((6, 2))), np.abs(rng.standard_normal((5, 2))))
    _step(step_kind, Problem(step_kind, y, mask), fp)  # its own kind goes through
    with pytest.raises(InvalidParameterError, match="problem"):
        _step(step_kind, Problem(problem_kind, y, mask), fp)


def _side_calls():
    """Every public function with a ``side`` argument, as a call of ``side``."""
    rng = np.random.default_rng(32)
    y = np.abs(rng.standard_normal((4, 3)))
    mask = ObservedMask(4, 3, np.arange(4), np.arange(4) % 3)
    fp = FactorPair(np.abs(rng.standard_normal((4, 2))), np.abs(rng.standard_normal((3, 2))))
    cfg, kind, active = BOUNDARY_CFG, ProblemKind.COMPLETE, np.zeros((4, 2), dtype=bool)
    lam, eta, w = cfg.lam, cfg.eta, weight_diag(fp, cfg.eta)
    problems = {k: Problem(k, y, mask) for k in ProblemKind}
    return {
        "update_factor_denoise": lambda side: update_factor_denoise(
            problems[ProblemKind.DENOISE], side, fp, w, lam
        ),
        "update_factor_mc": lambda side: update_factor_mc(problems[kind], side, fp, w, lam),
        "armijo_search": lambda side: armijo_search(
            problems[ProblemKind.NMF], side, fp, w, cfg
        ),
        "gradient": lambda side: gradient(kind, side, y, mask, fp, lam, eta),
        "exact_hessian": lambda side: oracles.exact_hessian(
            kind, side, mask, fp, lam, eta
        ),
        "surrogate_hessian": lambda side: oracles.surrogate_hessian(side, fp, lam, eta),
        "psd_gap": lambda side: oracles.psd_gap(kind, side, mask, fp, lam, eta),
        "surrogate_value": lambda side: oracles.surrogate_value(
            kind, side, y, mask, fp, lam, eta, fp.u
        ),
        "nmf_surrogate_value": lambda side: oracles.nmf_surrogate_value(
            y, side, fp, lam, eta, fp.u, active, 1.0
        ),
        "nmf_alpha_bound": lambda side: oracles.nmf_alpha_bound(
            side, fp, lam, eta, active
        ),
    }


@pytest.mark.parametrize("name", sorted(_side_calls()))
def test_every_side_argument_refuses_a_bad_side(name):
    call = _side_calls()[name]
    call("u")  # the well-formed call goes through
    with pytest.raises(InvalidParameterError, match="side must be 'u' or 'v'"):
        call("x")


def test_denoise_and_nmf_steps_form_no_m_by_n_product(monkeypatch):
    rng = np.random.default_rng(33)
    y = np.abs(rng.standard_normal((6, 5)))
    fp = FactorPair(np.abs(rng.standard_normal((6, 2))), np.abs(rng.standard_normal((5, 2))))
    w = weight_diag(fp, BOUNDARY_CFG.eta)

    def refuse(self):
        raise AssertionError("formed the m x n product U V^T")

    monkeypatch.setattr(FactorPair, "product", refuse)
    for side in ("u", "v"):
        update_factor_denoise(Problem(ProblemKind.DENOISE, y), side, fp, w, 1.0)
        armijo_search(Problem(ProblemKind.NMF, y), side, fp, w, BOUNDARY_CFG)
