"""Projected Newton solver for low-rank nonnegative matrix factorization.

Rows of each factor get their own curvature block: the shared d x d SPD
matrix partially diagonalized on that row's active constraint set.  The
step size comes from a backtracking Armijo rule evaluated on the
projection arc, so every iterate stays elementwise nonnegative.  Each
trial's decrease f0 - f(trial) is computed in factored form, from the
gradient and the Gram the search already holds, in O(m d^2) and without
an m x n temporary.  The search takes the solve's :class:`Problem`,
which checked Y >= 0.

The Newton directions come from one of two paths, split at the block size
``SCHUR_MIN_D``.  Below it, rows with no active coordinate share the block
itself and take one multi-right-hand-side solve, and every other row takes
an LU solve of its own block.  From it on, one inverse Q of the shared
block gives every row: the block of a row with active set I is diagonal
on I, and on the rest F its inverse is Q_FF - Q_FI Q_II^{-1} Q_IF, so a
row costs a k x k solve, k = |I|, batched over the rows of equal k.  A row whose relative residual
exceeds sqrt(eps), where the explicit inverse loses too many digits, takes
the LU solve instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import IterationTrace, SolverConfig, alternate
from .core import (
    STACK_ENTRIES,
    FactorPair,
    HalfStep,
    InvalidParameterError,
    Problem,
    ProblemKind,
    curvature_block,
)

# Unused here: bench/ traces and checks these bindings of the shared functions.
from .common import finish_iteration  # noqa: F401
from .core import objective  # noqa: F401

# From this block size on, a search's Newton directions come from one
# inverse of H_tilde (Schur complements on the pinned rows) in place of one
# LU per pinned row: the crossover measured in BENCH_24.json.
SCHUR_MIN_D = 10

__all__ = [
    "ArmijoResult",
    "active_set_rows",
    "check_active_mask",
    "partial_diag_blocks",
    "armijo_search",
    "solve_nmf",
]


@dataclass
class ArmijoResult(HalfStep):
    """The search's half-step (the unmoved factor if rejected) and last trial.
    ``drop`` is the sufficient-decrease threshold at acceptance, 0 if rejected:
    a lower bound on the objective drop, exactly 0 at fixed points."""

    m_k: int
    alpha: float
    accepted: bool
    # f0 - f(trial) of the last trial, computed in factored form.
    decrease: float
    active: np.ndarray = field(repr=False)
    grad: np.ndarray = field(repr=False)
    direction: np.ndarray = field(repr=False)


def active_set_rows(factor, grad, eps: float) -> np.ndarray:
    """Boolean mask of near-boundary coordinates with ascent gradients.

    A coordinate (i, j) is active when 0 <= factor_ij <= eps_k and
    grad_ij > 0, with eps_k = min(eps, ||factor - grad||_F^2).
    """
    if eps <= 0:
        raise InvalidParameterError("eps must be positive")
    factor = np.asarray(factor, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if factor.shape != grad.shape:
        raise InvalidParameterError("factor and gradient shapes differ")
    with np.errstate(over="ignore"):  # an overflowed sum is above eps
        eps_k = min(eps, float(((factor - grad) ** 2).sum()))
    return (factor >= 0.0) & (factor <= eps_k) & (grad > 0.0)


def check_active_mask(active, shape) -> np.ndarray:
    """Return ``active`` if it is a boolean array of ``shape``, else raise:
    an index list read as booleans would mark the wrong coordinates."""
    shape = tuple(shape)
    if not isinstance(active, np.ndarray) or active.dtype != bool or active.shape != shape:
        raise InvalidParameterError(f"active set must be a boolean array of shape {shape}")
    return active


def partial_diag_blocks(h_tilde: np.ndarray, active: np.ndarray) -> np.ndarray:
    """One partially diagonalized block per row of the boolean (rows, d)
    ``active``, stacked: the SPD block H_tilde copied, the off-diagonal
    entries of the row's active rows and columns zeroed."""
    h_tilde = np.asarray(h_tilde, dtype=float)
    d = h_tilde.shape[0]
    active = check_active_mask(active, np.shape(active)[:1] + (d,))
    blocks = np.broadcast_to(h_tilde, active.shape + (d,)).copy()
    blocks[active] = 0.0
    blocks.swapaxes(1, 2)[active] = 0.0
    blocks.reshape(len(active), d * d)[:, :: d + 1] = h_tilde.diagonal()
    return blocks


def _newton_directions(
    grad: np.ndarray, h_tilde: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Row-wise solves (H_tilde^{I_i})^{-1} grad_i, in one of two ways.

    Below ``SCHUR_MIN_D``, rows with an empty active pattern share H_tilde
    itself and take one multi-right-hand-side solve; the other rows take
    batched LU solves over (rows, d, d) stacks of partially diagonalized
    blocks.  From ``SCHUR_MIN_D`` on, :func:`_schur_directions` gives every
    row from one inverse of H_tilde, and only the rows whose relative
    residual exceeds sqrt(eps) take those LU stacks.  A stack holds at
    most about STACK_ENTRIES block entries, so its memory stays bounded
    when rows * d^2 outgrows the data (each row is solved on its own, so
    the split does not change the result)."""
    p = np.empty_like(grad)
    if len(h_tilde) >= SCHUR_MIN_D:
        rows = _schur_directions(grad, h_tilde, active, p).nonzero()[0]
    else:
        pinned = active.any(axis=1)
        if not pinned.all():
            p[~pinned] = np.linalg.solve(h_tilde, grad[~pinned].T).T
        rows = pinned.nonzero()[0]
    chunk = max(1, STACK_ENTRIES // h_tilde.size)
    for i in range(0, rows.size, chunk):
        idx = rows[i : i + chunk]
        blocks = partial_diag_blocks(h_tilde, active[idx])
        p[idx] = np.linalg.solve(blocks, grad[idx, :, None])[..., 0]
    return p


def _schur_directions(grad, h_tilde, active, p) -> np.ndarray:
    """Write every row's direction into ``p`` from Q = H_tilde^{-1}; return
    the mask of rows whose relative residual ||H_tilde^I p - g|| / ||g||
    exceeds sqrt(eps) (all rows if H_tilde is singular).

    With I a row's active set and F the rest, (H_FF)^{-1} = Q_FF -
    Q_FI Q_II^{-1} Q_IF, so p = s - Q_{:,I} z with s = Q g_F (one GEMM over
    all rows) and z = Q_II^{-1} s_I; then p_I = g_I / h_ii.  Rows are
    grouped by their active count k, at most d groups, each taking batched
    k x k solves over gathers of at most about STACK_ENTRIES entries."""
    try:
        q = np.linalg.inv(h_tilde)
    except np.linalg.LinAlgError:
        return np.ones(len(grad), dtype=bool)
    d, counts = len(q), np.count_nonzero(active, axis=1)
    order = counts.argsort(kind="stable")
    # flat offsets i * d + j of the active entries, rows in order of count
    flat = (order[:, None] * d + np.arange(d))[active[order]]
    ends = (np.arange(d + 1) * np.bincount(counts, minlength=d + 1)).cumsum()
    z = np.zeros_like(grad)
    with np.errstate(all="ignore"):  # a non-finite row fails the check below
        s = np.where(active, 0.0, grad) @ q.T
        for k in range(1, d + 1):
            chunk = k * max(1, STACK_ENTRIES // (k * k))
            for i in range(ends[k - 1], ends[k], chunk):
                at = flat[i : min(i + chunk, ends[k])].reshape(-1, k)
                cols = at % d
                q_ii = q.take(cols[:, :, None] * d + cols[:, None, :])
                try:
                    z.put(at, np.linalg.solve(q_ii, s.take(at)[..., None])[..., 0])
                except np.linalg.LinAlgError:
                    z.put(at, np.nan)
        np.subtract(s, z @ q.T, out=p)
        diag = h_tilde.diagonal()
        np.divide(grad, diag, out=p, where=active)
        r = np.where(active, 0.0, p) @ h_tilde.T
        np.multiply(diag, p, out=r, where=active)
        r -= grad
        tol = np.finfo(float).eps * np.einsum("ij,ij->i", grad, grad)
        return ~(np.einsum("ij,ij->i", r, r) <= tol)


def _decrease(factor, sq, step, sts, data_grad, gram, lam: float, eta: float) -> float:
    """f(factor) - f(factor + step) along one side, exactly, in factored form.

    With R the residual at the current point and ``data_grad`` its R V
    (U side) or R^T U (V side), the data term changes by
    <step, data_grad> + 1/2 <sts, gram>, ``sts`` = step^T step and ``gram``
    the other factor's Gram.  Column i's regularizer term changes by
    (s_i' - s_i) / (sqrt(s_i' + eta^2) + sqrt(s_i + eta^2)), s_i its
    squared joint norm (``sq``), with s_i' - s_i = 2 <f_i, step_i> +
    ||step_i||^2: neither difference cancels.  s_i' is clamped at 0, its
    exact lower bound: zeroing a large column can round it below -eta^2."""
    ds = 2.0 * (factor * step).sum(axis=0) + sts.diagonal()
    eta_sq = eta * eta
    reg = (ds / (np.sqrt(np.maximum(sq + ds, 0.0) + eta_sq) + np.sqrt(sq + eta_sq))).sum()
    fit = np.vdot(step, data_grad) + 0.5 * np.vdot(sts, gram)
    return -float(fit + lam * reg)


def armijo_search(
    problem: Problem, side: str, fp: FactorPair, w: np.ndarray, cfg: SolverConfig
) -> ArmijoResult:
    """Backtrack alpha = beta^m on the projection arc of an NMF ``problem``,
    whose Y was checked when it was built, until the sufficient-decrease
    inequality holds, or the cap is exhausted.

    ``w`` is the weight diagonal of ``fp``; the gradient and the curvature
    block both use it, with weight ``cfg.lam``.  The gradient is
    :meth:`Problem.data_gradient` plus ``cfg.lam`` F D, as in
    :func:`~lowrankmf.core.gradient`.  The other factor's Gram and the
    squared column norms come from ``fp``'s ledger.  Each trial's decrease
    comes from :func:`_decrease`, so the search evaluates no objective.
    """
    factor = problem.check_step(ProblemKind.NMF, fp, cfg.lam).split(side)[0]
    gram = fp.other_gram(side)
    data_grad = problem.data_gradient(side, fp)
    grad = data_grad + cfg.lam * factor * w
    h_tilde = curvature_block(fp, side, w, cfg.lam)
    active = active_set_rows(factor, grad, cfg.nmf.eps_active)
    direction = _newton_directions(grad, h_tilde, active)

    sq = fp.sq
    beta = cfg.nmf.beta_u if side == "u" else cfg.nmf.beta_v
    sigma = cfg.nmf.sigma
    cap = cfg.nmf.max_backtracks
    decrease = 0.0
    inactive = float((grad[~active] * direction[~active]).sum())
    for m in range(cap + 1):
        alpha = beta**m
        cand = np.maximum(factor - alpha * direction, 0.0)
        step = cand - factor
        sts = step.T @ step
        decrease = _decrease(factor, sq, step, sts, data_grad, gram, cfg.lam, cfg.eta)
        moved = -float((grad[active] * step[active]).sum())
        rhs = sigma * (alpha * inactive + moved)
        if decrease >= rhs:
            return ArmijoResult(
                cand, rhs, step, sts, m, alpha, True, decrease, active, grad, direction
            )
    return ArmijoResult(
        factor.copy(), 0.0, np.zeros_like(factor), np.zeros_like(gram),
        cap, beta**cap, False, decrease, active, grad, direction,
    )


def solve_nmf(y, cfg: SolverConfig) -> tuple[FactorPair, IterationTrace]:
    """Alternating projected Newton updates with pruning and tracing.

    A search that exhausts the backtracking cap keeps the previous factor;
    an iteration in which both searches do so leaves the iterate unchanged
    and stops the solve with status ``stalled``.
    """
    problem = Problem(ProblemKind.NMF, y)
    return alternate(
        problem, cfg, lambda side, fp, w: armijo_search(problem, side, fp, w, cfg)
    )
