"""Alternating reweighted low-rank matrix factorization.

Solvers for denoising, matrix completion and nonnegative factorization
that couple the factors through a joint column-sparsity regularizer,
prune annihilated columns as they go, and trace the descent diagnostics
needed to check the convergence theory numerically.
"""

from .common import (
    IterationTrace,
    NmfOptions,
    PruneEvent,
    SolverConfig,
    prune_columns,
    relative_change,
)
from .completion import solve_mc, update_factor_mc
from .core import (
    ConstraintViolationError,
    DimensionMismatchError,
    FactorPair,
    InvalidParameterError,
    ObservedMask,
    Problem,
    ProblemKind,
    apply_mask,
    column_pair_norms,
    freedom_ratio,
    gradient,
    nmae,
    nre,
    objective,
    smoothed_regularizer,
    weight_diag,
)
from .denoise import solve_denoise, update_factor_denoise
from .nmf import armijo_search, solve_nmf

__all__ = [
    "ConstraintViolationError",
    "DimensionMismatchError",
    "FactorPair",
    "InvalidParameterError",
    "IterationTrace",
    "NmfOptions",
    "ObservedMask",
    "Problem",
    "ProblemKind",
    "PruneEvent",
    "SolverConfig",
    "apply_mask",
    "armijo_search",
    "column_pair_norms",
    "freedom_ratio",
    "gradient",
    "nmae",
    "nre",
    "objective",
    "prune_columns",
    "relative_change",
    "smoothed_regularizer",
    "solve_denoise",
    "solve_mc",
    "solve_nmf",
    "update_factor_denoise",
    "update_factor_mc",
    "weight_diag",
]

__version__ = "0.1.0"
