"""Domain types, objectives, gradients and evaluation metrics.

The data model is deliberately thin: matrices are plain float64 numpy
arrays validated at the boundary, a :class:`FactorPair` couples the two
factors ``U`` (m x d) and ``V`` (n x d), and an :class:`ObservedMask`
holds the index set of observed entries together with its sampling
operator.  A :class:`Problem` checks one solve's data once and evaluates
its objective and gradients from one data term per pair: the residual at
the observed entries for completion, else Y V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "ProblemKind",
    "Problem",
    "FactorPair",
    "HalfStep",
    "ObservedMask",
    "InvalidParameterError",
    "DimensionMismatchError",
    "ConstraintViolationError",
    "as_matrix",
    "column_pair_norms",
    "weight_diag",
    "smoothed_regularizer",
    "apply_mask",
    "curvature_block",
    "block_step",
    "objective",
    "gradient",
    "nre",
    "nmae",
    "freedom_ratio",
]

# Entries of one temporary block of a blocked evaluation: 8 MB of float64.
STACK_ENTRIES = 1 << 20

# A completion Problem that observes at least one entry in FILL_IN_RATIO,
# on at most STACK_ENTRIES cells, holds an m x n fill-in buffer, at most
# FILL_IN_RATIO * card(Omega) entries, in place of a sparse operator.  On
# the grid of BENCH_19.json the buffer was faster per iteration at every
# point with m n <= 8 card(Omega) and slower at m n = 20 card(Omega).
FILL_IN_RATIO = 8


class InvalidParameterError(ValueError):
    """A scalar parameter is outside its admissible range."""


class DimensionMismatchError(ValueError):
    """Array shapes are inconsistent with each other."""


class ConstraintViolationError(ValueError):
    """An input violates a problem constraint (e.g. NMF nonnegativity)."""


class ProblemKind(Enum):
    DENOISE = "denoise"
    COMPLETE = "complete"
    NMF = "nmf"


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return arr


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` if it is read-only, else a read-only view of it."""
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


def _gram(a: np.ndarray) -> np.ndarray:
    """A^T A, the one place a factor's Gram is formed."""
    return a.T @ a


@dataclass(frozen=True, eq=False)
class FactorPair:
    """The current factors U (m x d) and V (n x d) sharing inner dimension d.

    The pair keeps a ledger of its Grams, formed when it is built:
    ``gram_u`` = U^T U and ``gram_v`` = V^T V, and ``sq``, the squared
    joint column norms ||u_i||^2 + ||v_i||^2, read from their diagonals
    (all read-only).  The weights, the regularizer, pruning, the factor
    steps, the rate diagnostics and the dense objective all read these.
    The ledger stays exact because ``u`` and ``v`` are read-only views
    (writing through the pair raises) and because each Gram is formed from
    its own factor: :meth:`with_factor` carries only the unchanged one, and
    :meth:`select` forms both, so a pair's Grams do not depend on how it was
    reached.  Each factor is checked finite once, when it enters a pair.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.u, "u")
        v = as_matrix(self.v, "v")
        if u.shape[1] != v.shape[1]:
            raise DimensionMismatchError(
                f"factors disagree on inner dimension: {u.shape[1]} vs {v.shape[1]}"
            )
        self._hold(_frozen(u), _frozen(v), _gram(u), _gram(v))

    def _hold(self, u, v, gram_u, gram_v) -> "FactorPair":
        """This pair, set to checked read-only factors and their Grams."""
        gram_u, gram_v = _frozen(gram_u), _frozen(gram_v)
        sq = _frozen(gram_u.diagonal() + gram_v.diagonal())
        vars(self).update(u=u, v=v, gram_u=gram_u, gram_v=gram_v, sq=sq)
        return self

    @classmethod
    def _carry(cls, u, v, gram_u, gram_v) -> "FactorPair":
        """A pair of checked read-only factors and their Grams."""
        return object.__new__(cls)._hold(u, v, gram_u, gram_v)

    @property
    def d(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    def product(self) -> np.ndarray:
        return self.u @ self.v.T

    @staticmethod
    def _is_u(side: str) -> bool:
        if side not in ("u", "v"):
            raise InvalidParameterError(f"side must be 'u' or 'v', got {side!r}")
        return side == "u"

    def split(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """(factor, other) of a step that updates ``side``, ``"u"`` or ``"v"``."""
        return (self.u, self.v) if self._is_u(side) else (self.v, self.u)

    def other_gram(self, side: str) -> np.ndarray:
        """G^T G of the factor G that a step updating ``side`` holds fixed."""
        return self.gram_v if self._is_u(side) else self.gram_u

    def with_factor(self, side: str, new) -> "FactorPair":
        """This pair with the ``side`` factor replaced by ``new``, which is
        checked; the other factor and its Gram are carried over."""
        is_u = self._is_u(side)
        old = self.u if is_u else self.v
        new = as_matrix(new, side)
        if new.shape != old.shape:
            raise DimensionMismatchError(
                f"new {side} has shape {new.shape}, the pair's has {old.shape}"
            )
        new, gram = _frozen(new), _gram(new)
        if is_u:
            return self._carry(new, self.v, gram, self.gram_v)
        return self._carry(self.u, new, self.gram_u, gram)

    def select(self, columns) -> "FactorPair":
        """The pair of the ``columns`` (indices, in order) of both factors,
        with the Grams of those columns formed afresh."""
        idx = np.asarray(columns, dtype=np.intp)
        u, v = self.u[:, idx], self.v[:, idx]
        return self._carry(_frozen(u), _frozen(v), _gram(u), _gram(v))


@dataclass(frozen=True, eq=False)
class ObservedMask:
    """Index set of observed entries of an m x n matrix, in row-major order,
    which is CSR order: ``flat`` holds the offsets ``i * cols + j`` and row
    ``i``'s entries are ``indptr[i]:indptr[i + 1]``.  As for a
    :class:`FactorPair`, a mask equals only itself and hashes by identity."""

    rows: int
    cols: int
    row_idx: np.ndarray = field(repr=False)
    col_idx: np.ndarray = field(repr=False)
    flat: np.ndarray = field(init=False, repr=False)
    indptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ri, ci = (np.asarray(idx).ravel() for idx in (self.row_idx, self.col_idx))
        if ri.shape != ci.shape:
            raise DimensionMismatchError("row and column index arrays differ in length")
        if ri.size < 1:
            raise InvalidParameterError("mask must contain at least one entry")
        if ri.dtype.kind not in "iu" or ci.dtype.kind not in "iu":  # no rounding, no bools
            raise InvalidParameterError("mask index arrays must hold integers")
        ri, ci = ri.astype(np.int64, copy=False), ci.astype(np.int64, copy=False)
        if ri.min() < 0 or ri.max() >= self.rows or ci.min() < 0 or ci.max() >= self.cols:
            raise InvalidParameterError("mask index out of range")
        flat = ri * self.cols + ci
        if np.any(flat[1:] <= flat[:-1]):  # not already sorted and distinct
            flat = np.unique(flat)
            if flat.size != ri.size:
                raise InvalidParameterError("mask contains duplicate index pairs")
        ri, ci = np.divmod(flat, self.cols)
        object.__setattr__(self, "row_idx", ri)
        object.__setattr__(self, "col_idx", ci)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "indptr", np.searchsorted(ri, np.arange(self.rows + 1)))

    @classmethod
    def full(cls, rows: int, cols: int) -> "ObservedMask":
        ri, ci = np.divmod(np.arange(rows * cols, dtype=np.int64), cols)
        return cls(rows, cols, ri, ci)

    @property
    def card(self) -> int:
        return self.row_idx.size

    @property
    def density(self) -> float:
        return self.card / (self.rows * self.cols)

    def to_dense_bool(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=bool)
        out[self.row_idx, self.col_idx] = True
        return out


def column_pair_norms(fp: FactorPair) -> np.ndarray:
    """Per-column joint norms sqrt(||u_i||^2 + ||v_i||^2), from the pair's Grams."""
    return np.sqrt(fp.sq)


def weight_diag(fp: FactorPair, eta: float) -> np.ndarray:
    """Diagonal reweighting entries 1/sqrt(||u_i||^2 + ||v_i||^2 + eta^2)."""
    if not 0.0 < eta < math.inf:
        raise InvalidParameterError("eta must be positive and finite")
    return 1.0 / np.sqrt(fp.sq + eta * eta)


def smoothed_regularizer(fp: FactorPair, eta: float) -> float:
    """Smoothed joint column-sparsity value sum_i sqrt(||u_i||^2 + ||v_i||^2 + eta^2).

    With ``eta=0`` this is the l1/l2 norm of the stacked factor columns.
    """
    if not 0.0 <= eta < math.inf:
        raise InvalidParameterError("eta must be nonnegative and finite")
    return float(np.sqrt(fp.sq + eta * eta).sum())


def apply_mask(m, mask: ObservedMask) -> np.ndarray:
    """Sampling operator: keep observed entries, zero the rest."""
    arr = as_matrix(m)
    if arr.shape != (mask.rows, mask.cols):
        raise DimensionMismatchError(
            f"matrix shape {arr.shape} does not match mask ({mask.rows}, {mask.cols})"
        )
    out = np.zeros_like(arr)
    out[mask.row_idx, mask.col_idx] = arr[mask.row_idx, mask.col_idx]
    return out


class Problem:
    """One solve's data, checked once, and the data-fit term it defines.

    The constructor checks what every evaluation relies on: a finite 2-D
    ``y`` whose squared norm is finite; for completion, a mask of ``y``'s
    shape; for NMF, ``y >= 0``.
    ``y_obs`` holds the entries of Y the data term reads: all of ``y``,
    or for completion its values at the mask in the mask's row-major
    order, which is also the CSR order of the mask's ``flat`` and
    ``indptr``.

    A completion problem picks its data path once, from m, n and
    card(Omega) alone (:func:`_dense_enough`).  If at least one entry in
    ``FILL_IN_RATIO`` is observed and m n <= ``STACK_ENTRIES``, it holds one
    m x n buffer (``fill_in`` is true): each residual writes U V^T into it
    with one GEMM and reads the observed entries, and :meth:`filled_product`
    writes Y over those entries of the U V^T it holds.  Otherwise it builds
    one sparse operator on the mask and reads the residual from row blocks
    of U V^T of at most ``STACK_ENTRIES`` entries.

    One slot, ``_last``, holds the data term at the last pair evaluated,
    keyed by that :class:`FactorPair` object (held, so its identity cannot
    be reused): for completion the residual at the observed entries; for
    dense data Y V.  Both are read-only.  The objective at the end of one
    iteration fills it at the pruned pair, and the U step of the next reads
    it there, or on the buffer path the U V^T that it left in the buffer.
    A new pair, even one with equal values, is evaluated afresh.
    With 1/2 ||Y||^2 cached once and both Grams read from the pair's ledger,
    the dense fit term is 1/2 ||Y||^2 - <U, Y V> + 1/2 <U^T U, V^T V>,
    unless it falls below ``CANCELLATION`` times 1/2 ||Y||^2: then it is
    evaluated from the residual U V^T - Y directly, as the subtraction's
    rounding error is a few eps * 1/2 ||Y||^2, about 1e-12 of the fit term
    at the guard.
    """

    # Fit term, relative to 1/2 ||Y||^2, below which the factored form
    # cancels too much and the objective is evaluated from the residual.
    CANCELLATION = 1e-3

    def __init__(self, kind: ProblemKind, y, mask: ObservedMask | None = None):
        if not isinstance(kind, ProblemKind):
            raise InvalidParameterError(f"kind must be a ProblemKind, got {kind!r}")
        y = as_matrix(y, "y")
        self.kind, self.y, self.mask, self.y_obs = kind, y, mask, y
        self._last: tuple[FactorPair, np.ndarray] | None = None
        # the fill-in buffer, and the pair whose U V^T it holds off the mask
        self._buffer: np.ndarray | None = None
        self._product_of = None
        if kind is ProblemKind.COMPLETE:
            if mask is None:
                raise InvalidParameterError("completion requires an observed mask")
            if (mask.rows, mask.cols) != y.shape:
                raise InvalidParameterError("mask shape does not match data")
            self.y_obs = y[mask.row_idx, mask.col_idx]
            if _dense_enough(mask.rows, mask.cols, mask.card):
                self._buffer = np.empty(y.shape)
        if kind is ProblemKind.NMF and np.any(y < 0):
            raise ConstraintViolationError("NMF data must be elementwise nonnegative")
        self.half_sq = 0.5 * float(np.vdot(self.y_obs, self.y_obs))
        if not math.isfinite(self.half_sq):
            raise InvalidParameterError("y is too large: its squared norm overflows; rescale y")

    def check(self, fp: FactorPair) -> FactorPair:
        """Return ``fp`` if it is a point of this problem, else raise."""
        if fp.shape != self.y.shape:
            raise DimensionMismatchError(
                f"factor product shape {fp.shape} does not match data {self.y.shape}"
            )
        if self.kind is ProblemKind.NMF and ((fp.u < 0).any() or (fp.v < 0).any()):
            raise ConstraintViolationError("NMF factors must be elementwise nonnegative")
        return fp

    def check_step(self, kind: ProblemKind, fp: FactorPair, lam: float) -> FactorPair:
        """Return ``fp`` if a factor step of a ``kind`` problem may start from
        it with weight ``lam``, else raise; :meth:`FactorPair.split` checks the side."""
        if self.kind is not kind:
            raise InvalidParameterError(
                f"a {kind.value} step needs a {kind.value} problem, got {self.kind.value}"
            )
        if fp.d < 1:
            raise InvalidParameterError("factor pair has no columns")
        if not lam > 0:
            raise InvalidParameterError("lam must be positive")
        return self.check(fp)

    def _data_term(self, fp: FactorPair) -> np.ndarray:
        """The slot's data term at ``fp``, formed there if it holds another pair."""
        if self._last is None or self._last[0] is not fp:
            if self.kind is ProblemKind.COMPLETE:
                term = self._observed_residual(fp)
            else:
                term = _frozen(self.y @ fp.v)
            self._last = (fp, term)
        return self._last[1]

    def residual(self, fp: FactorPair) -> np.ndarray:
        """Completion residual U V^T - Y at the observed entries (read-only)."""
        if self.kind is not ProblemKind.COMPLETE:
            raise InvalidParameterError(f"{self.kind.value} data has no observed residual")
        return self._data_term(fp)

    @property
    def fill_in(self) -> bool:
        """Whether this completion problem holds the m x n fill-in buffer."""
        return self._buffer is not None

    def _observed_residual(self, fp: FactorPair) -> np.ndarray:
        # the offsets are in range by construction: "wrap" skips the check
        if self.fill_in:
            r = self._product(fp).take(self.mask.flat, mode="wrap")
        else:
            m, n = self.y.shape
            r, step = np.empty(self.mask.card), max(1, STACK_ENTRIES // n)
            for i in range(0, m, step):
                s, e = self.mask.indptr[i], self.mask.indptr[min(i + step, m)]
                block = (fp.u[i : i + step] @ fp.v.T).ravel()
                np.take(block, self.mask.flat[s:e] - i * n, out=r[s:e], mode="wrap")
        r -= self.y_obs
        r.flags.writeable = False
        return r

    def _product(self, fp: FactorPair) -> np.ndarray:
        """The buffer, overwritten with U V^T at ``fp`` by one GEMM."""
        # against a contiguous V^T: at d <= 11 the GEMM on the transposed
        # view took up to 2.7x as long
        np.matmul(fp.u, np.ascontiguousarray(fp.v.T), out=self._buffer)
        self._product_of = fp
        return self._buffer

    def objective(self, fp: FactorPair, lam: float, eta: float) -> float:
        """:func:`objective` at a point :meth:`check` accepts."""
        if self.kind is ProblemKind.COMPLETE:
            r = self._data_term(fp)
            fit = 0.5 * float(r @ r)
        else:
            fit = (
                self.half_sq
                - float(np.vdot(fp.u, self._data_term(fp)))
                + 0.5 * float(np.vdot(fp.gram_u, fp.gram_v))
            )
            if not fit >= self.CANCELLATION * self.half_sq:
                res = fp.product() - self.y
                fit = 0.5 * float(np.sum(res * res))
        return fit + lam * smoothed_regularizer(fp, eta)

    def filled_product(self, side: str, fp: FactorPair) -> np.ndarray:
        """Z G for a step that updates ``side``, G the other factor: Z = Y
        for dense data, where the U side's Y V is read from the slot, and
        for completion the fill-in Z = P_Omega(Y) + P_Omega^perp(U V^T).

        On the buffer path (``fill_in``) Z is the buffer: the U V^T it holds
        off the mask at ``fp``, else a new one, with Y written over the
        observed entries on every call; Z G is one GEMM, Z V or Z^T U.  The
        U step fills the U V^T that the last objective left there, and the
        V step forms U' V^T but no residual.  Otherwise the product is
        F G^T G - P_Omega(U V^T - Y) G (F the updated factor, G^T G from the
        pair's ledger) and forms no m x n array: the slot's residual is the
        data of the problem's one sparse operator, CSR on the U side and its
        CSC transpose on the V side."""
        factor, other = fp.split(side)
        if self.kind is not ProblemKind.COMPLETE:
            return self._data_term(fp) if side == "u" else self.y.T @ other
        if self.fill_in:
            z = self._buffer if self._product_of is fp else self._product(fp)
            z.reshape(-1)[self.mask.flat] = self.y_obs
            return z @ other if side == "u" else z.T @ other
        csr, csc = self._operator
        csr.data[:] = self._data_term(fp)
        return factor @ fp.other_gram(side) - (csr if side == "u" else csc) @ other

    @cached_property
    def _operator(self):
        """The mask's CSR matrix and its CSC transpose, one ``data`` array
        shared by both, built on first use."""
        # imported here: the package, and a problem on the buffer path, never load it
        import scipy.sparse as sp

        csr = sp.csr_matrix(
            (np.empty(self.mask.card), self.mask.col_idx, self.mask.indptr), self.y.shape
        )
        return csr, csr.T

    def gradient(self, side: str, fp: FactorPair, lam: float, w: np.ndarray) -> np.ndarray:
        """:func:`gradient` at a point :meth:`check` accepts, with the
        weight diagonal ``w`` of ``fp``: F G^T G - Z G + lam F D."""
        factor = fp.split(side)[0]
        return (
            factor @ fp.other_gram(side)
            - self.filled_product(side, fp)
            + lam * factor * w
        )


@dataclass(eq=False)
class HalfStep:
    """One factor step F -> F': the new factor, the objective drop it certifies,
    the step F' - F and its Gram.  It unpacks as ``(factor, drop)``."""

    factor: np.ndarray = field(repr=False)
    drop: float
    step: np.ndarray = field(repr=False)
    step_gram: np.ndarray = field(repr=False)

    def __iter__(self):
        return iter((self.factor, self.drop))


def curvature_block(fp: FactorPair, side: str, w: np.ndarray, lam: float) -> np.ndarray:
    """The surrogate's d x d curvature block H = G^T G + lam diag(w) of a step
    that updates ``side``, G the other factor, G^T G from the pair's ledger."""
    h = fp.other_gram(side).copy()
    h.flat[:: h.shape[0] + 1] += lam * np.asarray(w, dtype=float)
    return h


def block_step(
    problem: Problem, side: str, fp: FactorPair, w: np.ndarray, lam: float
) -> HalfStep:
    """Minimizer of the quadratic surrogate for one factor, and the objective
    drop it certifies: on the U side Z V H^{-1}, Z V from
    :meth:`Problem.filled_product` and H = V^T V + lam D (V^T V from the
    pair's ledger), and the drop 0.5 <dU^T dU, H>, dU = U' - U.  H^{-1} is
    formed once by LU (``LinAlgError`` if singular) and applied by products:
    X = Z V H^{-1}, refined once, X += (Z V - X H) H^{-1}, to a solve's residual."""
    factor, h = fp.split(side)[0], curvature_block(fp, side, w, lam)
    h_inv, zg = np.linalg.inv(h), problem.filled_product(side, fp)
    new = zg @ h_inv
    new += (zg - new @ h) @ h_inv
    step = new - factor
    sts = step.T @ step
    return HalfStep(new, 0.5 * float(np.vdot(sts, h)), step, sts)


def _dense_enough(rows: int, cols: int, card: int) -> bool:
    """Whether a completion problem of ``card`` observed entries of a rows
    x cols matrix holds the fill-in buffer rather than the sparse operator."""
    return FILL_IN_RATIO * card >= rows * cols and rows * cols <= STACK_ENTRIES


def objective(
    kind: ProblemKind,
    y,
    mask: ObservedMask | None,
    fp: FactorPair,
    lam: float,
    eta: float,
) -> float:
    """Cost 0.5 ||residual||_F^2 + lambda * smoothed regularizer.

    The residual is Y - U V^T for denoising/NMF and its restriction to
    the observed entries for completion.
    """
    problem = Problem(kind, y, mask)
    return problem.objective(problem.check(fp), lam, eta)


def gradient(
    kind: ProblemKind,
    side: str,
    y,
    mask: ObservedMask | None,
    fp: FactorPair,
    lam: float,
    eta: float,
) -> np.ndarray:
    """Exact gradient of the eta-smoothed objective w.r.t. one factor.

    ``side`` is ``"u"`` or ``"v"``.  The gradient is R V + lambda U D for
    the U side (R the possibly masked residual U V^T - Y) and the
    transposed analogue for the V side.
    """
    problem = Problem(kind, y, mask)
    return problem.gradient(side, problem.check(fp), lam, weight_diag(fp, eta))


def nre(x0, fp: FactorPair) -> float:
    """Normalized reconstruction error ||X0 - U V^T||_F / ||X0||_F."""
    x0 = as_matrix(x0, "x0")
    if x0.shape != fp.shape:
        raise DimensionMismatchError(
            f"reference shape {x0.shape} does not match factor product {fp.shape}"
        )
    denom = float(np.linalg.norm(x0))
    if denom == 0.0:
        raise InvalidParameterError("reference matrix must be nonzero")
    return float(np.linalg.norm(x0 - fp.product())) / denom


def nmae(y, mask: ObservedMask, fp: FactorPair) -> float:
    """Mean absolute error over observed entries, scaled by the rating range 4."""
    problem = Problem(ProblemKind.COMPLETE, y, mask)
    r = problem.residual(problem.check(fp))
    return float(np.sum(np.abs(r))) / (4.0 * mask.card)


def freedom_ratio(r: int, n: int, card_omega: int) -> float:
    """Degrees-of-freedom ratio r (2n - r) / card(Omega)."""
    if card_omega <= 0:
        raise InvalidParameterError("card_omega must be positive")
    if r <= 0 or n <= 0 or r > n:
        raise InvalidParameterError("need 0 < r <= n")
    return r * (2 * n - r) / card_omega
