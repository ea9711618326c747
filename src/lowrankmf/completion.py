"""Alternating reweighted solver for the masked (matrix completion) objective.

The residual is only ever evaluated at the observed entries; each factor
update is one quasi-Newton step with the shared d x d curvature block,
so an iteration costs O(card(Omega) d + (m + n) d^2 + d^3).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .common import IterationTrace, SolverConfig, alternate, init_factors
from .core import (
    FactorPair,
    InvalidParameterError,
    ObservedMask,
    ProblemKind,
    _MaskedResidual,
    as_matrix,
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
    w = np.asarray(w, dtype=float)
    a = other.T @ other + lam * np.diag(w)
    c = cho_factor(a, lower=True)
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
    y = as_matrix(y, "y")
    if (mask.rows, mask.cols) != y.shape:
        raise InvalidParameterError("mask shape does not match data")
    res = _MaskedResidual(y, mask).csr(fp)
    return _mc_step(side, res, fp, w, lam)


def solve_mc(
    y, mask: ObservedMask, cfg: SolverConfig
) -> tuple[FactorPair, IterationTrace]:
    """Alternating masked updates with weight refresh, pruning and the
    relative-change stopping rule."""
    cfg.validate()
    y = as_matrix(y, "y")
    if (mask.rows, mask.cols) != y.shape:
        raise InvalidParameterError("mask shape does not match data")
    residual = _MaskedResidual(y, mask)
    frob = float(np.linalg.norm(residual.y_obs))
    fp = init_factors(y, cfg.d_init, np.random.default_rng(cfg.seed), frob=frob)
    return alternate(
        ProblemKind.COMPLETE, y, mask, fp, cfg,
        lambda side, fp, w: (_mc_step(side, residual.csr(fp), fp, w, cfg.lam), None),
        lambda prev, next_, _: proximity_delta_a(prev, next_, cfg.lam, cfg.eta),
    )
