"""Alternating reweighted least-squares solver for the denoising objective.

Each outer iteration refreshes the weight diagonal, solves the two
strictly convex quadratic surrogates in closed form (a d x d SPD system
per factor, :func:`core.block_step`), prunes annihilated columns and
records the descent diagnostics.  The step takes the solve's
:class:`Problem`, which checked Y and forms the data product Y G, and
returns the objective drop it certifies.
"""

from __future__ import annotations

import numpy as np

from .common import IterationTrace, SolverConfig, alternate
from .core import FactorPair, HalfStep, Problem, ProblemKind, block_step

# Unused here: bench/ traces and checks these bindings of the shared functions.
from .common import finish_iteration  # noqa: F401
from .core import objective  # noqa: F401

__all__ = ["update_factor_denoise", "solve_denoise"]


def update_factor_denoise(
    problem: Problem, side: str, fp: FactorPair, w: np.ndarray, lam: float
) -> HalfStep:
    """Closed-form minimizer of the quadratic surrogate for one factor of a
    denoising ``problem``, whose Y was checked when it was built, and the
    objective drop it certifies: :func:`core.block_step`, Y V H^{-1} on the
    U side with H = V^T V + lam D.
    """
    fp = problem.check_step(ProblemKind.DENOISE, fp, lam)
    return block_step(problem, side, fp, w, lam)


def solve_denoise(y, cfg: SolverConfig) -> tuple[FactorPair, IterationTrace]:
    """Run the alternating reweighted solver on dense data.

    The U update uses weights computed at (U_k, V_k); the V update
    refreshes them at (U_{k+1}, V_k).  The per-iteration objective is
    non-increasing and columns whose joint norm collapses are pruned.
    """
    problem = Problem(ProblemKind.DENOISE, y)
    return alternate(
        problem, cfg,
        lambda side, fp, w: update_factor_denoise(problem, side, fp, w, cfg.lam),
    )
