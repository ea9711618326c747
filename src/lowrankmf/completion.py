"""Alternating reweighted solver for the masked (matrix completion) objective.

Each factor update is the fill-in step :func:`core.block_step`, which
minimizes the quadratic surrogate with the shared d x d curvature block,
and takes the solve's :class:`Problem`, which checked Y and the mask and
chose one of two data paths from m, n and card(Omega).  Both cost
O((m + n) d^2 + d^3) per iteration for the steps, each step's certified
drop included, and the weights and diagnostics.  The data products differ:

* buffer path, at least one entry in ``core.FILL_IN_RATIO`` observed and
  m n <= ``core.STACK_ENTRIES``: four O(m n d) GEMMs per iteration (U V^T
  for the objective, reused by the U step as the fill-in, U' V^T for the V
  step, and Z V and Z^T U'), one residual gather of O(card(Omega)), and
  one held m x n buffer, at most ``FILL_IN_RATIO`` card(Omega) entries;
* sparse path, otherwise: two residuals per iteration, each O(m n d) in
  BLAS-3 row blocks of U V^T, and O(card(Omega) d) for the products of one
  held CSR matrix and its CSC transpose; memory O(card(Omega) + one block).

Once per solve, a mask that leaves an entry unobserved gets the spectral
start of :func:`common.init_factors`, min(d_init, m, n) columns like every
start: P_Omega(Y) loaded once onto the data path, six products of it with
l = min(d_init + 5, m, n) columns, and otherwise factorizations of l x l
Grams, one Householder QR of an m x l block among them (no m x n array on
the sparse path).
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
