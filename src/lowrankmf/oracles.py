"""Brute-force numerical instantiations of the convergence theory.

Exact Hessians assembled from the closed-form blocks, the PSD gap
between the solvers' block-diagonal curvature approximation and the true
Hessian, the proximity measures lower-bounding per-iteration descent,
and the sublinear-rate inequalities.  Everything here is meant for
verification on small instances; the Hessian builders carry explicit
size guards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import IterationTrace
from .core import (
    FactorPair,
    InvalidParameterError,
    ObservedMask,
    ProblemKind,
    gradient,
    objective,
    weight_diag,
)
from .nmf import check_active_mask, partial_diag_blocks

__all__ = [
    "HESSIAN_SIZE_GUARD",
    "exact_hessian",
    "surrogate_hessian",
    "psd_gap",
    "surrogate_value",
    "nmf_surrogate_value",
    "nmf_alpha_bound",
    "proximity_delta_a",
    "proximity_delta_b",
    "RateReport",
    "rate_bound_check",
    "nuclear_bound_check",
]

HESSIAN_SIZE_GUARD = 2000
SVD_SIZE_GUARD = 4_000_000


def _check_guard(rows: int, d: int):
    if rows * d > HESSIAN_SIZE_GUARD:
        raise InvalidParameterError(
            f"dense Hessian of side {rows * d} exceeds guard {HESSIAN_SIZE_GUARD}"
        )


def _reg_curvature_terms(factor: np.ndarray, other: np.ndarray, eta: float):
    """Column scalars shared by every regularizer Hessian block."""
    t = np.sum(factor * factor, axis=0) + np.sum(other * other, axis=0) + eta * eta
    return t, t ** 1.5


def exact_hessian(
    kind: ProblemKind,
    side: str,
    mask: ObservedMask | None,
    fp: FactorPair,
    lam: float,
    eta: float,
) -> np.ndarray:
    """Dense Hessian of the smoothed objective w.r.t. one factor; it does
    not depend on Y, so it takes none.

    Row-vectorization ordering: coordinate (i, c) of the factor maps to
    index i*d + c.  Blocks are Gram + lam*K_ii on the diagonal and
    lam*K_ij off it; for completion the data-fit Gram of row i is
    restricted to that row's observed entries.
    """
    d = fp.d
    factor, other = fp.split(side)
    rows = factor.shape[0]
    _check_guard(rows, d)

    t, t32 = _reg_curvature_terms(factor, other, eta)
    gram = other.T @ other

    if kind is ProblemKind.COMPLETE:
        if mask is None:
            raise InvalidParameterError("completion requires an observed mask")
        obs = mask.to_dense_bool()
        if side == "v":
            obs = obs.T
    else:
        obs = None

    h = np.zeros((rows * d, rows * d))
    for i in range(rows):
        for j in range(i, rows):
            if i == j:
                if obs is None:
                    block = gram.copy()
                else:
                    sel = other[obs[i]]
                    block = sel.T @ sel
                block = block + lam * np.diag((t - factor[i] ** 2) / t32)
            else:
                block = lam * np.diag(-factor[i] * factor[j] / t32)
            h[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
            h[j * d : (j + 1) * d, i * d : (i + 1) * d] = block
    return h


def surrogate_hessian(
    side: str, fp: FactorPair, lam: float, eta: float
) -> np.ndarray:
    """The solvers' shared positive-definite d x d block Gram + lam*D."""
    _, other = fp.split(side)
    return other.T @ other + lam * np.diag(weight_diag(fp, eta))


def psd_gap(
    kind: ProblemKind,
    side: str,
    mask: ObservedMask | None,
    fp: FactorPair,
    lam: float,
    eta: float,
) -> float:
    """Minimum eigenvalue of block-diag(H_tilde) minus the exact Hessian."""
    h = exact_hessian(kind, side, mask, fp, lam, eta)
    h_tilde = surrogate_hessian(side, fp, lam, eta)
    h_bar = np.kron(np.eye(fp.split(side)[0].shape[0]), h_tilde)
    return float(np.linalg.eigvalsh(h_bar - h)[0])


def surrogate_value(
    kind: ProblemKind,
    side: str,
    y,
    mask: ObservedMask | None,
    fp: FactorPair,
    lam: float,
    eta: float,
    cand: np.ndarray,
) -> float:
    """Quadratic surrogate l (or g) of the objective, evaluated at ``cand``."""
    f0 = objective(kind, y, mask, fp, lam, eta)
    g = gradient(kind, side, y, mask, fp, lam, eta)
    h_tilde = surrogate_hessian(side, fp, lam, eta)
    diff = cand - fp.split(side)[0]
    quad = float(np.sum((diff @ h_tilde) * diff))
    return f0 + float(np.sum(diff * g)) + 0.5 * quad


def nmf_surrogate_value(
    y,
    side: str,
    fp: FactorPair,
    lam: float,
    eta: float,
    cand: np.ndarray,
    active: np.ndarray,
    alpha: float,
) -> float:
    """Projected-Newton surrogate with per-row partially diagonalized blocks."""
    factor, _ = fp.split(side)
    check_active_mask(active, factor.shape)
    f0 = objective(ProblemKind.DENOISE, y, None, fp, lam, eta)
    g = gradient(ProblemKind.DENOISE, side, y, None, fp, lam, eta)
    h_tilde = surrogate_hessian(side, fp, lam, eta)
    diff = cand - factor
    quad = float(np.einsum("ri,rij,rj->", diff, partial_diag_blocks(h_tilde, active), diff))
    return f0 + float(np.sum(diff * g)) + quad / (2.0 * alpha)


def nmf_alpha_bound(
    side: str, fp: FactorPair, lam: float, eta: float, active: np.ndarray
) -> float:
    """Step bound lambda_min(partially diagonalized blocks) / lambda_max(exact H)."""
    factor, _ = fp.split(side)
    check_active_mask(active, factor.shape)
    h = exact_hessian(ProblemKind.DENOISE, side, None, fp, lam, eta)
    h_tilde = surrogate_hessian(side, fp, lam, eta)
    lam_min = float(np.linalg.eigvalsh(partial_diag_blocks(h_tilde, active))[:, 0].min())
    lam_max = float(np.linalg.eigvalsh(h)[-1])
    return lam_min / lam_max


def _weighted_col_sq(diff: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(w * np.sum(diff * diff, axis=0)))


def proximity_delta_a(
    prev: FactorPair, next_: FactorPair, lam: float, eta: float
) -> float:
    """Descent lower bound for the unconstrained alternating solvers.

    Its data terms ||V dU^T||_F^2 = tr(dU^T dU V^T V) and the V-side
    analogue are taken from d x d Gram matrices, never from n x m products.
    """
    if prev.shape != next_.shape or prev.d != next_.d:
        raise InvalidParameterError("factor pairs must have matching dimensions")
    du = prev.u - next_.u
    dv = prev.v - next_.v
    w_prev = weight_diag(prev, eta)
    w_mid = weight_diag(FactorPair(next_.u, prev.v), eta)
    val = 0.5 * (
        float(np.sum((du.T @ du) * (prev.v.T @ prev.v)))
        + float(np.sum((dv.T @ dv) * (next_.u.T @ next_.u)))
    )
    val += 0.5 * lam * (_weighted_col_sq(du, w_prev) + _weighted_col_sq(dv, w_mid))
    return val


def proximity_delta_b(
    prev: FactorPair,
    next_: FactorPair,
    grads: tuple[np.ndarray, np.ndarray],
    active_sets: tuple[np.ndarray, np.ndarray],
    lam: float,
    eta: float,
) -> float:
    """Descent lower bound for the projected Newton NMF iteration.

    ``grads`` holds the gradients w.r.t. U at (U, V) and w.r.t. V at
    (U_next, V); ``active_sets`` the boolean active-set masks of U and V
    used by the generating iteration.  The gradient inner products only
    run over the active coordinates: the constrained stationarity
    condition that produces them holds there and nowhere else, and
    including the inactive coordinates would overstate the guaranteed
    decrease.
    """
    if prev.shape != next_.shape or prev.d != next_.d:
        raise InvalidParameterError("factor pairs must have matching dimensions")
    du = prev.u - next_.u
    dv = prev.v - next_.v
    gram_v = prev.v.T @ prev.v
    gram_u = next_.u.T @ next_.u
    act_u = check_active_mask(active_sets[0], prev.u.shape)
    act_v = check_active_mask(active_sets[1], prev.v.shape)
    quad = sum(
        float(np.einsum("ri,rij,rj->", diff, partial_diag_blocks(gram, act), diff))
        for diff, gram, act in ((du, gram_v, act_u), (dv, gram_u, act_v))
    )
    w_prev = weight_diag(prev, eta)
    w_mid = weight_diag(FactorPair(next_.u, prev.v), eta)
    val = 0.5 * quad
    val += 0.5 * lam * (_weighted_col_sq(du, w_prev) + _weighted_col_sq(dv, w_mid))
    g_u, g_v = grads
    val += float(np.sum(du[act_u] * g_u[act_u]))
    val += float(np.sum(dv[act_v] * g_v[act_v]))
    return val


@dataclass(frozen=True)
class RateReport:
    per_step_ok: bool
    worst_step_slack: float
    telescoping_ok: bool
    telescoping_slack: float
    corollary_ok: bool
    corollary_slack: float
    measured_l_lower: float
    measured_tau: float

    @property
    def ok(self) -> bool:
        return self.per_step_ok and self.telescoping_ok and self.corollary_ok


def rate_bound_check(trace: IterationTrace, tol: float = 1e-9) -> RateReport:
    """Check Lemma 3 per step, the telescoped sublinear rate, and the
    displacement rate bound on a completed trace."""
    if not trace.records:
        raise InvalidParameterError("trace has no iterations")
    deltas = trace.deltas()
    objs = trace.objectives()
    f_prev = np.concatenate([[trace.initial_objective], objs[:-1]])
    drops = f_prev - objs
    step_slack = float(np.min(drops - deltas + tol))
    per_step_ok = bool(np.all(drops >= deltas - tol))

    k = len(objs)
    avg_drop = (trace.initial_objective - objs[-1]) / k
    telescoping_slack = float(avg_drop - deltas.min())
    telescoping_ok = deltas.min() <= avg_drop + tol

    lam = trace.config.lam
    l_lower = max(min(r.gram_min_eig for r in trace.records), 0.0)
    tau = max(r.max_col_sq for r in trace.records)
    min_disp = min(r.displacement_sq for r in trace.records)
    if tau > 0:
        bound = 4.0 * tau / (2.0 * l_lower * tau + lam) * avg_drop
    else:
        bound = 0.0
    corollary_slack = float(bound - min_disp)
    corollary_ok = min_disp <= bound + tol
    return RateReport(
        per_step_ok=per_step_ok,
        worst_step_slack=step_slack,
        telescoping_ok=telescoping_ok,
        telescoping_slack=telescoping_slack,
        corollary_ok=corollary_ok,
        corollary_slack=corollary_slack,
        measured_l_lower=l_lower,
        measured_tau=tau,
    )


def nuclear_bound_check(fp: FactorPair) -> tuple[float, float]:
    """Nuclear norm of U V^T and its variational upper bound
    (||U||_F^2 + ||V||_F^2) / 2."""
    m, n = fp.shape
    if m * n > SVD_SIZE_GUARD:
        raise InvalidParameterError("factor product too large for the dense SVD check")
    if fp.d == 0:
        return 0.0, 0.0
    nuc = float(np.sum(np.linalg.svd(fp.product(), compute_uv=False)))
    bound = 0.5 * (float(np.sum(fp.u * fp.u)) + float(np.sum(fp.v * fp.v)))
    return nuc, bound
