"""Independent references the tests check the library against: random
factor pairs, finite-difference derivatives of the public objective and
gradient, and the dense block-system minimizer of the quadratic surrogate."""

import numpy as np

from lowrankmf import FactorPair, ProblemKind, gradient, objective, weight_diag


def random_pair(m, n, d, seed):
    rng = np.random.default_rng(seed)
    return FactorPair(rng.standard_normal((m, d)), rng.standard_normal((n, d)))


def _bumped(side, fp, i, c, h):
    """``fp`` with entry (i, c) of its ``side`` factor moved by ``h``."""
    factor = (fp.u if side == "u" else fp.v).copy()
    factor[i, c] += h
    return FactorPair(factor, fp.v) if side == "u" else FactorPair(fp.u, factor)


def fd_gradient(kind, side, y, mask, fp, lam, eta, h=1e-6):
    """Central differences of :func:`objective` in each entry of one factor."""
    rows, d = (fp.u if side == "u" else fp.v).shape
    out = np.zeros((rows, d))
    for i in range(rows):
        for c in range(d):
            vals = [
                objective(kind, y, mask, _bumped(side, fp, i, c, sgn * h), lam, eta)
                for sgn in (1.0, -1.0)
            ]
            out[i, c] = (vals[0] - vals[1]) / (2.0 * h)
    return out


def fd_hessian(kind, side, y, mask, fp, lam, eta, h=1e-5):
    """Central differences of :func:`gradient`, in row-vectorized order."""
    rows, d = (fp.u if side == "u" else fp.v).shape
    out = np.zeros((rows * d, rows * d))
    for i in range(rows):
        for c in range(d):
            for sgn in (1.0, -1.0):
                g = gradient(kind, side, y, mask, _bumped(side, fp, i, c, sgn * h), lam, eta)
                out[i * d + c] += sgn * g.reshape(-1)
    return out / (2.0 * h)


def dense_surrogate_minimizer(side, y, mask, fp, w, lam, eta=1e-6):
    """Minimizer of the quadratic surrogate with weight diagonal ``w``, for
    denoising (``mask`` None) or completion.

    Solves the full (rows*d) x (rows*d) block system assembled from the
    block-diagonal curvature approximation, instead of the d x d
    factorization the production update uses.
    """
    kind = ProblemKind.DENOISE if mask is None else ProblemKind.COMPLETE
    factor = fp.u if side == "u" else fp.v
    other = fp.v if side == "u" else fp.u
    rows, d = factor.shape
    h_tilde = other.T @ other + lam * np.diag(np.asarray(w, dtype=float))
    big = np.kron(np.eye(rows), h_tilde)
    g = gradient(kind, side, y, mask, fp, lam, eta)
    # the gradient of the surrogate at the current point equals the true
    # gradient except that the regularizer enters linearized through w
    g = g - lam * factor * weight_diag(fp, eta) + lam * factor * np.asarray(w)
    step = np.linalg.solve(big, g.reshape(-1))
    return factor - step.reshape(rows, d)
