"""Alternating reweighted solver for the masked (matrix completion) objective.

The residual is only ever evaluated at the observed entries; each factor
update is one quasi-Newton step with the shared d x d curvature block,
so an iteration costs O(card(Omega) d + (m + n) d^2 + d^3).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .common import IterationTrace, SolverConfig, alternate
from .core import (
    FactorPair,
    InvalidParameterError,
    ObservedMask,
    Problem,
    ProblemKind,
    surrogate_block,
)
from .oracles import proximity_delta_a

# Unused here: bench/ traces and checks these bindings of the shared functions.
from .common import finish_iteration  # noqa: F401
from .core import objective  # noqa: F401

__all__ = ["update_factor_mc", "solve_mc"]


def _mc_step(
    side: str, res: sp.csr_matrix, fp: FactorPair, w: np.ndarray, lam: float
) -> np.ndarray:
    if side == "u":
        cur, other, grad_fit = fp.u, fp.v, res @ fp.v
    else:
        cur, other, grad_fit = fp.v, fp.u, res.T @ fp.u
    c = cho_factor(surrogate_block(other, w, lam), lower=True)
    grad = np.asarray(grad_fit) + lam * cur * w
    return cur - cho_solve(c, grad.T).T


def update_factor_mc(
    side: str,
    y,
    mask: ObservedMask,
    fp: FactorPair,
    w: np.ndarray,
    lam: float,
) -> np.ndarray:
    """One quasi-Newton factor update for the masked objective.

    U side: U - (P_Omega(U V^T - Y) V + lam U D)(V^T V + lam D)^{-1};
    the V side is the transposed analogue.
    """
    if fp.d < 1:
        raise InvalidParameterError("factor pair has no columns")
    if lam <= 0:
        raise InvalidParameterError("lam must be positive")
    if side not in ("u", "v"):
        raise InvalidParameterError(f"side must be 'u' or 'v', got {side!r}")
    problem = Problem(ProblemKind.COMPLETE, y, mask)
    return _mc_step(side, problem.residual_csr(problem.check(fp)), fp, w, lam)


def solve_mc(
    y, mask: ObservedMask, cfg: SolverConfig
) -> tuple[FactorPair, IterationTrace]:
    """Alternating masked updates with weight refresh, pruning and the
    relative-change stopping rule."""
    problem = Problem(ProblemKind.COMPLETE, y, mask)
    return alternate(
        problem, cfg,
        lambda side, fp, w: (_mc_step(side, problem.residual_csr(fp), fp, w, cfg.lam), None),
        lambda prev, next_, _: proximity_delta_a(prev, next_, cfg.lam, cfg.eta),
    )
