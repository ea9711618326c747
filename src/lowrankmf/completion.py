"""Alternating reweighted solver for the masked (matrix completion) objective.

Each factor update is the fill-in step :func:`core.block_step`, which
minimizes the quadratic surrogate with the shared d x d curvature block,
and takes the solve's :class:`Problem`, which checked Y and the mask.  An
iteration costs O(m n d) BLAS-3 flops for the observed residual (row
blocks of U V^T), O(card(Omega) d) for its CSR products and
O((m + n) d^2 + d^3) for the rest, each step's certified drop included;
memory is O(card(Omega) + one block).
"""

from __future__ import annotations

import numpy as np

from .common import IterationTrace, SolverConfig, alternate
from .core import FactorPair, HalfStep, ObservedMask, Problem, ProblemKind, block_step

# Unused here: bench/ traces and checks these bindings of the shared functions.
from .common import finish_iteration  # noqa: F401
from .core import objective  # noqa: F401

__all__ = ["update_factor_mc", "solve_mc"]


def update_factor_mc(
    problem: Problem, side: str, fp: FactorPair, w: np.ndarray, lam: float
) -> HalfStep:
    """One surrogate-minimizing factor update for a completion ``problem``,
    whose Y and mask were checked when it was built, and the objective drop
    it certifies: :func:`core.block_step`, the softImpute-ALS fill-in step
    (P_Omega(Y) + P_Omega^perp(U V^T)) V H^{-1} on the U side with
    H = V^T V + lam D, which equals U - (P_Omega(U V^T - Y) V + lam U D) H^{-1}.
    """
    fp = problem.check_step(ProblemKind.COMPLETE, fp, lam)
    return block_step(problem, side, fp, w, lam)


def solve_mc(
    y, mask: ObservedMask, cfg: SolverConfig
) -> tuple[FactorPair, IterationTrace]:
    """Alternating masked updates with weight refresh, pruning and the
    relative-change stopping rule."""
    problem = Problem(ProblemKind.COMPLETE, y, mask)
    return alternate(
        problem, cfg,
        lambda side, fp, w: update_factor_mc(problem, side, fp, w, cfg.lam),
    )
