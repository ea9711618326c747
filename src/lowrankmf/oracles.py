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
    curvature_block,
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
    index i*d + c.  The regularizer couples (i, c) with (j, c) by
    -lam * f_ic f_jc / t_c^1.5, and row i's diagonal block adds its
    data-fit Gram and lam * diag(t^-1/2); for completion that Gram is
    restricted to the row's observed entries.
    """
    if not isinstance(kind, ProblemKind):
        raise InvalidParameterError(f"kind must be a ProblemKind, got {kind!r}")
    d = fp.d
    factor, other = fp.split(side)
    rows = factor.shape[0]
    _check_guard(rows, d)

    if kind is ProblemKind.COMPLETE:
        if mask is None:
            raise InvalidParameterError("completion requires an observed mask")
        obs = mask.to_dense_bool()
        if side == "v":
            obs = obs.T
        grams = np.einsum("ik,kc,ke->ice", obs, other, other)
    else:
        grams = other.T @ other

    t = np.sum(factor * factor, axis=0) + np.sum(other * other, axis=0) + eta * eta
    h = np.zeros((rows, d, rows, d))
    c, r = np.arange(d), np.arange(rows)
    h[:, c, :, c] = -lam * np.einsum("ic,jc->cij", factor, factor) / t[:, None, None] ** 1.5
    h[r, :, r, :] += grams + lam * np.diag(t ** -0.5)
    return h.reshape(rows * d, rows * d)


def surrogate_hessian(
    side: str, fp: FactorPair, lam: float, eta: float
) -> np.ndarray:
    """The solvers' shared positive-definite d x d block Gram + lam*D, as they form it."""
    return curvature_block(fp, side, weight_diag(fp, eta), lam)


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


def _surrogate_parts(kind, side, y, mask, fp, lam, eta, cand):
    """f(fp) + <cand - F, grad f>, the step cand - F and the block Gram +
    lam*D: everything of a surrogate model but its quadratic term."""
    g = gradient(kind, side, y, mask, fp, lam, eta)
    diff = cand - fp.split(side)[0]
    linear = objective(kind, y, mask, fp, lam, eta) + float(np.sum(diff * g))
    return linear, diff, surrogate_hessian(side, fp, lam, eta)


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
    base, diff, h_tilde = _surrogate_parts(kind, side, y, mask, fp, lam, eta, cand)
    return base + 0.5 * float(np.sum((diff @ h_tilde) * diff))


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
    check_active_mask(active, fp.split(side)[0].shape)
    base, diff, h_tilde = _surrogate_parts(ProblemKind.DENOISE, side, y, None, fp, lam, eta, cand)
    quad = float(np.einsum("ri,rij,rj->", diff, partial_diag_blocks(h_tilde, active), diff))
    return base + quad / (2.0 * alpha)


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


def _proximity_parts(prev: FactorPair, next_: FactorPair, lam: float, eta: float):
    """Each factor's displacement with the Gram it meets in the data term,
    (U - U', V^T V) and (V - V', U'^T U'), and the term both proximity
    measures share, lam/2 * sum_i (w_i ||dU_:i||^2 + w'_i ||dV_:i||^2) with
    the weights w at (U, V) and w' at (U', V)."""
    if prev.shape != next_.shape or prev.d != next_.d:
        raise InvalidParameterError("factor pairs must have matching dimensions")
    sides = ((prev.u - next_.u, prev.v.T @ prev.v), (prev.v - next_.v, next_.u.T @ next_.u))
    reg = sum(
        float(np.sum(weight_diag(at, eta) * np.sum(diff * diff, axis=0)))
        for (diff, _), at in zip(sides, (prev, FactorPair(next_.u, prev.v)))
    )
    return sides, 0.5 * lam * reg


def proximity_delta_a(
    prev: FactorPair, next_: FactorPair, lam: float, eta: float
) -> float:
    """Descent lower bound for the unconstrained alternating solvers.

    Its data terms ||V dU^T||_F^2 = tr(dU^T dU V^T V) and the V-side
    analogue are taken from d x d Gram matrices, never from n x m products.
    """
    sides, reg = _proximity_parts(prev, next_, lam, eta)
    return 0.5 * sum(float(np.sum((diff.T @ diff) * gram)) for diff, gram in sides) + reg


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
    sides, val = _proximity_parts(prev, next_, lam, eta)
    for (diff, gram), active, g in zip(sides, active_sets, grads, strict=True):
        act = check_active_mask(active, diff.shape)
        quad = float(np.einsum("ri,rij,rj->", diff, partial_diag_blocks(gram, act), diff))
        val += 0.5 * quad + float(np.sum(diff[act] * g[act]))
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
    bound = 4.0 * tau / (2.0 * l_lower * tau + lam) * avg_drop
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
