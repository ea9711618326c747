"""Projected Newton solver for low-rank nonnegative matrix factorization.

Rows of each factor get their own curvature block: the shared d x d SPD
matrix partially diagonalized on that row's active constraint set.  The
step size comes from a backtracking Armijo rule evaluated on the
projection arc, so every iterate stays elementwise nonnegative.  The
search takes the solve's :class:`Problem`, which checked Y >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .common import IterationTrace, SolverConfig, alternate
from .core import (
    STACK_ENTRIES,
    FactorPair,
    InvalidParameterError,
    Problem,
    ProblemKind,
    surrogate_block,
)

# Unused here: bench/ traces and checks these bindings of the shared functions.
from .common import finish_iteration  # noqa: F401
from .core import objective  # noqa: F401

__all__ = [
    "ArmijoResult",
    "active_set_rows",
    "check_active_mask",
    "partial_diag_block",
    "projected_newton_step",
    "armijo_search",
    "solve_nmf",
]


@dataclass
class ArmijoResult:
    m_k: int
    alpha: float
    accepted: bool
    decrease: float
    # The half-step's certified drop: the sufficient-decrease threshold at
    # acceptance, 0 for a rejected search.  It lower-bounds the objective drop
    # and vanishes exactly at fixed points, as the sublinear rate checks need;
    # the quadratic-form proximity measure only bounds the drop when the step
    # length obeys the curvature-ratio cap, which a unit first step ignores.
    rhs: float
    factor: np.ndarray = field(repr=False)
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
    eps_k = min(eps, float(np.sum((factor - grad) ** 2)))
    return (factor >= 0.0) & (factor <= eps_k) & (grad > 0.0)


def check_active_mask(active, shape) -> np.ndarray:
    """Return ``active`` if it is a boolean array of ``shape``, else raise:
    an index list read as booleans would mark the wrong coordinates."""
    shape = tuple(shape)
    if not isinstance(active, np.ndarray) or active.dtype != bool or active.shape != shape:
        raise InvalidParameterError(f"active set must be a boolean array of shape {shape}")
    return active


def partial_diag_block(h_tilde: np.ndarray, active_row: np.ndarray) -> np.ndarray:
    """Zero the off-diagonal entries of an SPD block in the rows and
    columns that the boolean ``active_row`` marks."""
    h_tilde = np.asarray(h_tilde, dtype=float)
    return _partial_diag_blocks(h_tilde, check_active_mask(active_row, h_tilde.shape[:1]))


def _partial_diag_blocks(h_tilde: np.ndarray, active: np.ndarray) -> np.ndarray:
    """:func:`partial_diag_block` of each row of ``active`` (any leading
    shape), stacked."""
    eye = np.eye(h_tilde.shape[0], dtype=bool)
    keep = ~(active[..., :, None] | active[..., None, :]) | eye
    return np.where(keep, h_tilde, 0.0)


def _newton_directions(
    grad: np.ndarray, h_tilde: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Row-wise solves (H_tilde^{I_i})^{-1} grad_i, as batched solves over
    (rows, d, d) stacks of partially diagonalized blocks.  A stack holds
    at most about STACK_ENTRIES block entries, so its memory stays bounded
    when rows * d^2 outgrows the data (each row is solved on its own, so
    the split does not change the result)."""
    p = np.empty_like(grad)
    chunk = max(1, STACK_ENTRIES // h_tilde.size)
    for i in range(0, grad.shape[0], chunk):
        rows = slice(i, i + chunk)
        blocks = _partial_diag_blocks(h_tilde, active[rows])
        p[rows] = np.linalg.solve(blocks, grad[rows, :, None])[..., 0]
    return p


def projected_newton_step(
    factor, grad, h_tilde: np.ndarray, active: np.ndarray, alpha: float
) -> np.ndarray:
    """Per-row damped Newton step clipped to the nonnegative orthant."""
    if not 0.0 < alpha <= 1.0:
        raise InvalidParameterError("alpha must lie in (0, 1]")
    factor = np.asarray(factor, dtype=float)
    grad = np.asarray(grad, dtype=float)
    p = _newton_directions(grad, h_tilde, check_active_mask(active, factor.shape))
    return np.maximum(factor - alpha * p, 0.0)


def armijo_search(
    problem: Problem, side: str, fp: FactorPair, w: np.ndarray, cfg: SolverConfig
) -> ArmijoResult:
    """Backtrack alpha = beta^m on the projection arc of an NMF ``problem``,
    whose Y was checked when it was built, until the sufficient-decrease
    inequality holds, or the cap is exhausted.

    ``w`` is the weight diagonal of ``fp``; the gradient and the curvature
    block both use it, with weight ``cfg.lam``.
    """
    problem.check_step(ProblemKind.NMF, side, fp, cfg.lam)
    factor = fp.u if side == "u" else fp.v
    other = fp.v if side == "u" else fp.u
    grad = problem.gradient(side, fp, cfg.lam, w)
    h_tilde = surrogate_block(other, w, cfg.lam)
    active = active_set_rows(factor, grad, cfg.nmf.eps_active)
    direction = _newton_directions(grad, h_tilde, active)

    f0 = problem.objective(fp, cfg.lam, cfg.eta)
    beta = cfg.nmf.beta_u if side == "u" else cfg.nmf.beta_v
    sigma = cfg.nmf.sigma
    cap = cfg.nmf.max_backtracks
    decrease = 0.0
    inactive = float(np.sum(grad[~active] * direction[~active]))
    for m in range(cap + 1):
        alpha = beta**m
        cand = np.maximum(factor - alpha * direction, 0.0)
        trial = FactorPair(cand, fp.v) if side == "u" else FactorPair(fp.u, cand)
        decrease = f0 - problem.objective(trial, cfg.lam, cfg.eta)
        moved = float(np.sum(grad[active] * (factor - cand)[active]))
        rhs = sigma * (alpha * inactive + moved)
        if decrease >= rhs:
            return ArmijoResult(
                m, alpha, True, decrease, rhs, cand, active, grad, direction
            )
    return ArmijoResult(
        cap, beta**cap, False, decrease, 0.0, factor.copy(), active, grad, direction
    )


def solve_nmf(y, cfg: SolverConfig) -> tuple[FactorPair, IterationTrace]:
    """Alternating projected Newton updates with pruning and tracing.

    A search that exhausts the backtracking cap keeps the previous factor;
    an iteration in which both searches do so leaves the iterate unchanged
    and stops the solve with status ``stalled``.
    """
    problem = Problem(ProblemKind.NMF, y)

    def step(side, fp, w):
        res = armijo_search(problem, side, fp, w, cfg)
        return res.factor, res.rhs

    return alternate(problem, cfg, step)
