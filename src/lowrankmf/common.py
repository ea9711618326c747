"""Shared solver infrastructure: configuration, the alternating driver,
pruning, stopping and tracing."""

from __future__ import annotations

import dataclasses
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FactorPair,
    HalfStep,
    InvalidParameterError,
    Problem,
    ProblemKind,
    column_pair_norms,
    objective,
    weight_diag,
)

__all__ = [
    "NmfOptions",
    "SolverConfig",
    "PruneEvent",
    "IterationRecord",
    "IterationTrace",
    "STATUS_CONVERGED",
    "STATUS_MAX_ITER",
    "STATUS_DEGENERATE",
    "STATUS_STALLED",
    "prune_columns",
    "relative_change",
    "stop_status",
    "init_factors",
]

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_DEGENERATE = "degenerate"
STATUS_STALLED = "stalled"

# On square and tall data an iteration's quadratic forms stay within a few
# times ||Y||^2 + ||U_0 V_0^T||^2 (the objective only falls); a start with less
# headroom than this below the float64 maximum is refused.
OVERFLOW_HEADROOM = 16.0


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_fields(obj, positive: tuple, ints: dict):
    """Raise unless each field of ``obj`` named in ``positive`` is a positive finite
    real, and each one named in ``ints`` an integer no less than its bound (no bools)."""
    for name in positive:
        value = getattr(obj, name)
        if not (_is_real(value) and 0.0 < value < math.inf):
            raise InvalidParameterError(f"{name} must be positive and finite")
    for name, low in ints.items():
        value = getattr(obj, name)
        if not (_is_real(value) and isinstance(value, numbers.Integral) and value >= low):
            raise InvalidParameterError(f"{name} must be an integer of at least {low}")


@dataclass(frozen=True)
class NmfOptions:
    """Parameters of the projected Newton NMF solver, checked when built."""

    beta_u: float = 0.1
    beta_v: float = 0.1
    sigma: float = 1e-2
    eps_active: float = 1e-6
    max_backtracks: int = 40

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not all(_is_real(b) and 0.0 < b < 1.0 for b in (self.beta_u, self.beta_v)):
            raise InvalidParameterError("beta_u and beta_v must lie in (0, 1)")
        _check_fields(self, ("sigma", "eps_active"), {"max_backtracks": 0})


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by every solver, checked when built.  A start takes
    min(d_init, m, n) columns (:func:`init_factors`); a trace keeps ``d_init``."""

    lam: float
    d_init: int
    eta: float = 1e-6
    tol: float = 1e-4
    max_iter: int = 500
    prune_tol: float = 1e-6
    seed: int = 0
    nmf: NmfOptions = field(default_factory=NmfOptions)

    def __post_init__(self):
        self.validate()

    def validate(self):
        _check_fields(
            self,
            ("lam", "eta", "tol", "prune_tol"),
            {"d_init": 1, "max_iter": 1, "seed": 0},
        )
        if not self.prune_tol < 1.0:
            raise InvalidParameterError("prune_tol must lie in (0, 1)")
        if not isinstance(self.nmf, NmfOptions):
            raise InvalidParameterError(f"nmf must be NmfOptions, got {type(self.nmf).__name__}")
        self.nmf.validate()


@dataclass(frozen=True)
class PruneEvent:
    """Iteration ``k`` removed the columns ``removed``, whose joint norms were ``norms``."""

    k: int
    removed: list[int]
    norms: list[float]


@dataclass
class IterationRecord:
    k: int
    objective: float
    d: int
    rel_change: float
    # The objective drop the iteration's U and V steps certify, summed.
    delta: float
    ms: float
    # Diagnostics consumed by the convergence-rate checks.
    displacement_sq: float = 0.0
    gram_min_eig: float = 0.0
    max_col_sq: float = 0.0


# Version 2 writes every IterationRecord field and the initial objective.
TRACE_SCHEMA_VERSION = 2


@dataclass
class IterationTrace:
    """Per-iteration record of one solve, plus prune events and final status."""

    config: SolverConfig
    initial_objective: float = 0.0
    records: list[IterationRecord] = field(default_factory=list)
    prunes: list[PruneEvent] = field(default_factory=list)
    status: str = STATUS_MAX_ITER

    @property
    def iterations(self) -> int:
        return len(self.records)

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def deltas(self) -> np.ndarray:
        return np.array([r.delta for r in self.records])

    def to_json_dict(self, metrics: dict | None = None) -> dict:
        config = dataclasses.asdict(self.config)
        config["lambda"] = config.pop("lam")
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "config": config,
            "initial_objective": self.initial_objective,
            "iterations": [dataclasses.asdict(r) for r in self.records],
            "prunes": [dataclasses.asdict(p) for p in self.prunes],
            "status": self.status,
            "metrics": {key: (metrics or {}).get(key) for key in ("nre", "nmae")},
        }


def prune_columns(fp: FactorPair, threshold: float, eta: float) -> tuple[FactorPair, list[int]]:
    """Drop columns whose joint norm falls below ``threshold`` times the largest,
    or every column if the largest falls below the smoothing scale ``eta``.

    Returns the pruned pair, a column selection that forms the kept columns'
    Grams (:meth:`FactorPair.select`), and the list of surviving column indices
    (order preserved).  With every column below ``eta`` the factorization
    carries no signal the regularizer can tell from zero, and the relative
    rule (scale invariant by design) would never fire, so all go; as ``eta``
    is positive, an all-zero pair goes too.  The d = 0 pair left is the
    driver's degenerate terminal state.  This is the driver's pruning rule.
    """
    if not all(0.0 < t < math.inf for t in (threshold, eta)):
        raise InvalidParameterError("threshold and eta must be positive and finite")
    norms = column_pair_norms(fp)
    top = norms.max() if norms.size else 0.0
    kept = [] if top < eta else (norms >= threshold * top).nonzero()[0].tolist()
    return (fp if len(kept) == fp.d else fp.select(kept)), kept


def _relative_change(prev, next_, du, du_gram, dv, dv_gram) -> float:
    """||dU V'^T + U dV^T||_F / ||U V^T||_F = ||U' V'^T - U V^T||_F / ||U V^T||_F
    in O((m + n) d^2) from dU = U' - U, dV = V' - V, their Grams and the pairs'
    ledgers; exactly 0 for an unmoved pair, inf for a moved zero U V^T, and NaN
    where a term overflows."""
    change = (
        float(np.vdot(du_gram, next_.gram_v))
        + 2.0 * float(np.vdot(du.T @ prev.u, next_.v.T @ dv))
        + float(np.vdot(prev.gram_u, dv_gram))
    )
    change, base = max(change, 0.0), float(np.vdot(prev.gram_u, prev.gram_v))
    if not math.isfinite(change + base):
        return math.nan
    if base <= 0.0:
        return 0.0 if change == 0.0 else math.inf
    return math.sqrt(change / base)


def relative_change(prev: FactorPair, next_: FactorPair) -> float:
    """||U_k V_k^T - U_{k+1} V_{k+1}^T||_F / ||U_k V_k^T||_F in O((m + n) d^2), the
    narrower pair padded with zero columns; a zero U_k V_k^T is refused."""
    if next_.shape != prev.shape:
        raise InvalidParameterError("factor pairs describe different matrix shapes")
    if not np.vdot(prev.gram_u, prev.gram_v) > 0.0:
        raise InvalidParameterError("previous factor product is zero")
    d = max(prev.d, next_.d)
    prev, next_ = (
        p if p.d == d else FactorPair(*(np.pad(a, ((0, 0), (0, d - p.d))) for a in (p.u, p.v)))
        for p in (prev, next_)
    )
    du, dv = next_.u - prev.u, next_.v - prev.v
    return _relative_change(prev, next_, du, du.T @ du, dv, dv.T @ dv)


def stop_status(trace: IterationTrace) -> str | None:
    """Why the solve stops after its last iteration, or None to go on.

    Degenerate when every column has been pruned; stalled when the
    iteration returned its own input (neither the factors nor their
    product moved and no column was pruned, e.g. both Armijo searches
    exhausted their backtracking cap), so no later iteration can move it
    either; converged when the relative product change drops below the
    trace's ``config.tol``; max_iter at its ``config.max_iter``.
    """
    if not trace.records:
        raise InvalidParameterError("need at least one completed iteration")
    last = trace.records[-1]
    if last.d == 0:
        return STATUS_DEGENERATE
    pruned = bool(trace.prunes) and trace.prunes[-1].k == last.k
    if last.rel_change == 0.0 and last.displacement_sq == 0.0 and not pruned:
        return STATUS_STALLED
    if last.rel_change < trace.config.tol:
        return STATUS_CONVERGED
    if last.k >= trace.config.max_iter:
        return STATUS_MAX_ITER
    return None


def init_factors(problem: Problem, d: int, rng: np.random.Generator) -> FactorPair:
    """The start point of a solve with min(d, m, n) columns, drawn from ``rng``:
    an m x n matrix holds no more independent ones; a larger ``d`` runs as min(m, n).

    A completion problem that leaves an entry unobserved starts from a
    randomized sketch (Halko, Martinsson and Tropp, SIAM Review 2011) of the
    rescaled (m n / card(Omega)) P_Omega(Y) of Keshavan, Montanari and Oh
    (IEEE Trans. IT 2010): l = min(d + 5, m, n) Gaussian test columns, two
    power iterations with a basis of the range of each product, the last an
    orthonormal Q, and the SVD W S Z^T of the l x n matrix Q^T P_Omega(Y),
    balanced as U = Q W S^(1/2) and V = Z S^(1/2), cut to d columns.  Once
    per solve it loads P_Omega(Y) onto the problem's data path and costs six
    products of it with l columns, O(m n l) each on the buffer path and
    O(card(Omega) l) on the sparse one.  The other work is on l x l Grams
    and products with them, O((m + n) l^2 + l^3): every basis by CholeskyQR
    (Yamamoto, Nakatsukasa, Yanagisawa and Fukaya, ETNA 2015), Q by two passes
    (CholeskyQR2), and the SVD from the eigenvectors of the Gram of Q^T P_Omega(Y).
    A basis whose Gram Cholesky refuses, as for a rank-deficient sketch (no
    nonzero observed value, or one observed row), takes Householder QR.

    Every other start is scale-matched Gaussian: entries are standard
    Gaussians scaled by (||Y||_F / sqrt(m n d))^(1/2), the norm taken over the
    entries the problem observes; for NMF the magnitudes are kept and signs
    dropped.  A full mask is denoising data, so it keeps this start.
    """
    m, n = problem.y.shape
    d = min(d, m, n)
    if problem.kind is ProblemKind.COMPLETE and problem.mask.card < m * n:
        return _spectral_start(problem, d, rng)
    frob = math.sqrt(2.0 * problem.half_sq)
    scale = float(np.sqrt(frob / np.sqrt(m * n * d)))
    u = rng.standard_normal((m, d)) * scale
    v = rng.standard_normal((n, d)) * scale
    if problem.kind is ProblemKind.NMF:
        u, v = np.abs(u), np.abs(v)
    return FactorPair(u, v)


def _spectral_start(problem: Problem, d: int, rng: np.random.Generator) -> FactorPair:
    """:func:`init_factors`' sketch of (m n / card(Omega)) P_Omega(Y), d <= min(m, n)."""
    (m, n), (a, a_t) = problem.y.shape, problem._observed()
    q = a @ rng.standard_normal((n, min(d + 5, m, n)))
    for _ in range(2):
        q = a @ _cholesky_basis(a_t @ _cholesky_basis(q))
    # CholeskyQR2: orthonormal to working precision, as U^T U = S needs
    q = _cholesky_basis(_cholesky_basis(q))
    # Q^T P_Omega(Y) = W S Z^T from B = P_Omega(Y)^T Q: W the eigenvectors of
    # B^T B, largest first, and Z S = B W, a zero column of B W a zero column
    b = a_t @ q
    w = np.linalg.eigh(b.T @ b)[1][:, ::-1][:, :d]
    b = b @ w
    s = np.linalg.norm(b, axis=0)
    root = np.sqrt(s * (m * n / problem.mask.card))
    return FactorPair((q @ w) * root, b * np.divide(root, s, out=np.zeros(d), where=s > 0))


def _cholesky_basis(a: np.ndarray) -> np.ndarray:
    """A basis of the range of ``a``: A R^-1 with R^T R the Cholesky factorization
    of A^T A (CholeskyQR), orthonormal to about eps cond(A)^2, or the Householder
    Q of ``a`` when Cholesky refuses that Gram, as for a rank-deficient ``a``."""
    try:
        r = np.linalg.cholesky(a.T @ a).T
    except np.linalg.LinAlgError:
        return np.linalg.qr(a)[0]
    return a @ np.linalg.inv(r)


def _iteration_diagnostics(prev, next_, steps: tuple[HalfStep, HalfStep]) -> tuple:
    """displacement_sq, rel_change, gram_min_eig and max_col_sq of the iteration
    from ``prev`` to ``next_`` by the U and V half-``steps``, from the steps' Grams
    and the pairs' ledgers, with one ``eigvalsh`` over ``next_``'s two Grams."""
    (du, du_gram), (dv, dv_gram) = ((s.step, s.step_gram) for s in steps)
    disp = float(du_gram.trace()) + float(dv_gram.trace())
    rel = _relative_change(prev, next_, du, du_gram, dv, dv_gram)
    grams = np.array((next_.gram_u, next_.gram_v))
    min_eig = float(np.linalg.eigvalsh(grams)[:, 0].min())
    max_col = float(grams.diagonal(axis1=1, axis2=2).max())
    return disp, rel, min_eig, max_col


def finish_iteration(
    trace: IterationTrace,
    k: int,
    prev: FactorPair,
    next_: FactorPair,
    steps: tuple[HalfStep, HalfStep],
    problem: Problem,
    t0: float,
) -> FactorPair:
    """Shared post-update bookkeeping under ``trace.config``: prune, record, return the pair.

    It prunes with :func:`prune_columns` at ``prune_tol`` and ``eta``.  The
    diagnostics read the U and V half-``steps`` that took ``prev`` to ``next_``;
    they and the objective read the pairs' Gram ledgers.  The objective at the
    pruned pair fills the data-term slot the next U step reads.  An unmoved pair
    has the previous record's factors and Grams, so it repeats that objective.
    """
    cfg = trace.config
    disp, rel, min_eig, max_col = _iteration_diagnostics(prev, next_, steps)
    pruned, kept = prune_columns(next_, cfg.prune_tol, cfg.eta)
    if len(kept) < next_.d:
        norms = column_pair_norms(next_)
        removed = sorted(set(range(next_.d)).difference(kept))
        trace.prunes.append(PruneEvent(k, removed, [float(norms[i]) for i in removed]))
    trace.records.append(
        IterationRecord(
            k=k,
            objective=problem.objective(pruned, cfg.lam, cfg.eta),
            d=pruned.d,
            rel_change=rel,
            delta=steps[0].drop + steps[1].drop,
            ms=(time.perf_counter() - t0) * 1e3,
            displacement_sq=disp,
            gram_min_eig=min_eig,
            max_col_sq=max_col,
        )
    )
    return pruned


def _check_headroom(size: float):
    """Raise unless ``size`` is ``OVERFLOW_HEADROOM`` times below the float64 maximum."""
    if not size * OVERFLOW_HEADROOM < math.inf:
        raise InvalidParameterError("y is too large: the solve would overflow; rescale y")


def alternate(
    problem: Problem, cfg: SolverConfig, step
) -> tuple[FactorPair, IterationTrace]:
    """The alternating reweighted iteration shared by every solver.

    Starts from :func:`init_factors`.  Each iteration refreshes the
    weight diagonal at (U_k, V_k) and takes the U step, refreshes it at
    (U_{k+1}, V_k) and takes the V step, then prunes, records and tests
    the stopping rule.  ``step(side, fp, w)`` returns the half-step it took
    (:class:`~lowrankmf.core.HalfStep`); the iteration's guaranteed drop
    ``delta`` is the sum of the two half-steps' drops.  A curvature block
    singular to working precision raises :class:`InvalidParameterError`, and
    so, saying to rescale y, does a start whose ||Y||^2 + ||U_0 V_0^T||^2 is
    within ``OVERFLOW_HEADROOM`` of the float64 maximum, or an iteration
    whose objective or relative change overflows.
    """
    _check_headroom(2.0 * problem.half_sq)  # the spectral start forms Grams of this size
    fp = init_factors(problem, cfg.d_init, np.random.default_rng(cfg.seed))
    _check_headroom(2.0 * problem.half_sq + float(np.vdot(fp.gram_u, fp.gram_v)))
    trace = IterationTrace(config=cfg)
    # The public objective also checks the start point against the problem.
    trace.initial_objective = objective(
        problem.kind, problem.y, problem.mask, fp, cfg.lam, cfg.eta
    )
    for k in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        side = "U"
        try:
            u_step = step("u", fp, weight_diag(fp, cfg.eta))
            mid = fp.with_factor("u", u_step.factor)
            side = "V"
            v_step = step("v", mid, weight_diag(mid, cfg.eta))
        except np.linalg.LinAlgError as exc:
            raise InvalidParameterError(
                f"iteration {k}, {side} half-step: the curvature block is singular "
                f"to working precision at lam={cfg.lam!r}; use a larger lam"
            ) from exc
        next_fp = mid.with_factor("v", v_step.factor)
        fp = finish_iteration(trace, k, fp, next_fp, (u_step, v_step), problem, t0)
        last = trace.records[-1]
        if not math.isfinite(last.objective) or math.isnan(last.rel_change):
            raise InvalidParameterError(f"y is too large: iteration {k} overflows; rescale y")
        status = stop_status(trace)
        if status is not None:
            trace.status = status
            break
    return fp, trace
