"""Correctness checks applied to every timed solve.

A solve fails when it raised (checked by the caller), or when any check
here reports a problem.  The checks recompute from the returned factors
and the trace; none of them trusts a value the solver reported about
itself.
"""

from __future__ import annotations

import numpy as np

from lowrankmf import common, core, oracles

# Round-off allowance, relative to max(1, |objective|), for an objective
# increase and for the trace-versus-recomputed objective comparison.
ROUNDOFF = 1e-10
# Agreement required between the library's NRE and an independent one.
NRE_RTOL = 1e-9


def independent_nre(x0: np.ndarray, fp: core.FactorPair) -> float:
    """||X0 - U V^T||_F / ||X0||_F computed without the library."""
    return float(np.linalg.norm(x0 - fp.u @ fp.v.T) / np.linalg.norm(x0))


def check_solve(kind, inst, fp, trace, nre_value: float) -> list[str]:
    """Problems found in one solve's output; an empty list means correct."""
    problems = []
    if not (np.all(np.isfinite(fp.u)) and np.all(np.isfinite(fp.v))):
        problems.append("non-finite factors")
    if trace.status != common.STATUS_CONVERGED:
        problems.append(f"status {trace.status}")
    objs = [trace.initial_objective] + [r.objective for r in trace.records]
    rises = [b - a - ROUNDOFF * max(1.0, abs(a)) for a, b in zip(objs, objs[1:])]
    if rises and max(rises) > 0:
        problems.append(f"objective increased at iteration {int(np.argmax(rises)) + 1}")
    try:
        rate_ok = oracles.rate_bound_check(trace).ok
    except core.InvalidParameterError as exc:
        problems.append(f"rate_bound_check: {exc}")
    else:
        if not rate_ok:
            problems.append("rate_bound_check failed")
    cfg = inst.cfg
    recomputed = core.objective(kind, inst.y, inst.mask, fp, cfg.lam, cfg.eta)
    if abs(recomputed - objs[-1]) > ROUNDOFF * max(1.0, abs(recomputed)):
        problems.append(f"final objective {objs[-1]!r} != recomputed {recomputed!r}")
    ref = independent_nre(inst.x0, fp)
    if not abs(nre_value - ref) <= NRE_RTOL * max(ref, 1e-300):
        problems.append(f"nre {nre_value!r} != independent {ref!r}")
    return problems
