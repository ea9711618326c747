"""Tests for configuration, pruning, stopping and iteration tracing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrankmf import (
    FactorPair,
    InvalidParameterError,
    NmfOptions,
    Problem,
    ProblemKind,
    SolverConfig,
    armijo_search,
    objective,
    prune_columns,
    relative_change,
    smoothed_regularizer,
    solve_denoise,
    solve_mc,
    solve_nmf,
    weight_diag,
)
from lowrankmf import common, core
from lowrankmf.common import (
    STATUS_CONVERGED,
    IterationRecord,
    IterationTrace,
    PruneEvent,
    init_factors,
    stop_status,
)
from lowrankmf.core import HalfStep, block_step
from lowrankmf.data import add_noise_snr, gen_lowrank, sample_mask


def pair_with_norms(norms, m=4, n=3, seed=0):
    """Factor pair whose column pair norms are exactly ``norms``."""
    rng = np.random.default_rng(seed)
    d = len(norms)
    u = rng.standard_normal((m, d))
    v = rng.standard_normal((n, d))
    cur = np.sqrt(np.sum(u * u, axis=0) + np.sum(v * v, axis=0))
    scale = np.array(norms) / cur
    return FactorPair(u * scale, v * scale)


# ------------------------------------------------------------- config


def test_config_defaults():
    cfg = SolverConfig(lam=1.0, d_init=5)
    assert cfg.eta == 1e-6
    assert cfg.tol == 1e-4
    assert cfg.max_iter == 500
    assert cfg.prune_tol == 1e-6
    assert cfg.nmf.beta_u == 0.1
    assert cfg.nmf.sigma == 1e-2
    assert cfg.nmf.eps_active == 1e-6
    cfg.validate()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": -1.0, "d_init": 5},
        {"lam": 1.0, "d_init": 0},
        {"lam": 1.0, "d_init": 5, "eta": 0.0},
        {"lam": 1.0, "d_init": 5, "tol": -1e-4},
        {"lam": 1.0, "d_init": 5, "max_iter": 0},
        {"lam": 1.0, "d_init": 5, "prune_tol": 0.0},
        {"lam": 1.0, "d_init": 5, "nmf": {"beta_u": 1.5}},
        {"lam": 1.0, "d_init": 5, "nmf": {"sigma": 0.0}},
        {"lam": 1.0, "d_init": 5, "nmf": {"beta_v": 0.0}},
        {"lam": 1.0, "d_init": 5, "nmf": {"eps_active": 0.0}},
        {"lam": 1.0, "d_init": 5, "nmf": {"max_backtracks": -1}},
        {"lam": 1.0, "d_init": 5, "seed": -1},
        # NaN fails every comparison, so each float bound must be written to
        # reject it; an infinite value is out of range as well
        {"lam": float("nan"), "d_init": 5},
        {"lam": float("inf"), "d_init": 5},
        {"lam": 1.0, "d_init": 5, "eta": float("nan")},
        {"lam": 1.0, "d_init": 5, "tol": float("nan")},
        {"lam": 1.0, "d_init": 5, "tol": float("inf")},
        {"lam": 1.0, "d_init": 5, "prune_tol": float("nan")},
        {"lam": 1.0, "d_init": 2.5},
        {"lam": 1.0, "d_init": 5, "max_iter": 2.5},
        {"lam": 1.0, "d_init": 5, "seed": 1.5},
        {"lam": 1.0, "d_init": 5, "nmf": {"sigma": float("nan")}},
        {"lam": 1.0, "d_init": 5, "nmf": {"eps_active": float("nan")}},
        {"lam": 1.0, "d_init": 5, "nmf": {"max_backtracks": 2.5}},
        # not an NmfOptions at all: refused, not an AttributeError
        {"lam": 1.0, "d_init": 5, "nmf": None},
        # the type is checked before any comparison: refused, not a TypeError
        {"lam": "1", "d_init": 1},
        {"lam": None, "d_init": 1},
        {"lam": 1.0, "d_init": 5, "nmf": {"beta_u": "x"}},
        # a bool is neither a real nor an integer field, though Python calls it one
        {"lam": True, "d_init": 1},
        {"lam": 1.0, "d_init": True},
        {"lam": 1.0, "d_init": 5, "seed": False},
        {"lam": 1.0, "d_init": 5, "nmf": {"max_backtracks": True}},
        # a relative threshold of 1 or more prunes columns whatever the data
        {"lam": 1.0, "d_init": 5, "prune_tol": 1.0},
        {"lam": 1.0, "d_init": 5, "prune_tol": 1.5},
    ],
)
def test_config_validation_rejects(kwargs):
    # building the config raises, so no invalid config reaches a solver
    with pytest.raises(InvalidParameterError):
        if isinstance(kwargs.get("nmf"), dict):
            kwargs = {**kwargs, "nmf": NmfOptions(**kwargs["nmf"])}
        SolverConfig(**kwargs)


def test_config_accepts_numpy_scalars():
    nmf = NmfOptions(beta_u=np.float64(0.5), max_backtracks=np.int64(3))
    cfg = SolverConfig(lam=np.float64(2.0), d_init=np.int64(4), seed=np.int32(0), nmf=nmf)
    assert (cfg.lam, cfg.d_init, cfg.nmf.beta_u, cfg.nmf.max_backtracks) == (2.0, 4, 0.5, 3)


# ------------------------------------------------------------- pruning


def test_prune_keeps_large_columns():
    fp = pair_with_norms([1.0, 1e-12, 2.0])
    pruned, kept = prune_columns(fp, 1e-6, 1e-6)
    assert kept == [0, 2]
    assert pruned.d == 2
    # survivors unchanged
    assert np.array_equal(pruned.u, fp.u[:, [0, 2]])
    assert np.array_equal(pruned.v, fp.v[:, [0, 2]])


def test_prune_noop():
    fp = pair_with_norms([1.0, 0.5, 2.0])
    pruned, kept = prune_columns(fp, 1e-6, 1e-6)
    assert kept == [0, 1, 2]
    assert pruned is fp


def test_prune_all_zero_degenerate():
    fp = FactorPair(np.zeros((3, 2)), np.zeros((4, 2)))
    pruned, kept = prune_columns(fp, 1e-6, 1e-6)
    assert kept == []
    assert pruned.d == 0


def test_prune_below_eta_removes_every_column():
    # the relative rule would keep the largest column; below eta none carries signal
    fp = pair_with_norms([1e-7, 3e-7, 2e-8])
    pruned, kept = prune_columns(fp, 1e-6, 1e-6)
    assert kept == []
    assert pruned.d == 0


def test_prune_threshold_positive():
    fp = pair_with_norms([1.0])
    with pytest.raises(InvalidParameterError):
        prune_columns(fp, 0.0, 1e-6)


@pytest.mark.parametrize("threshold", [np.nan, np.inf])
def test_prune_threshold_finite(threshold):
    # a NaN or infinite threshold would prune every column silently
    with pytest.raises(InvalidParameterError):
        prune_columns(pair_with_norms([1.0, 0.5]), threshold, 1e-6)


@pytest.mark.parametrize("eta", [0.0, -1e-6, np.nan, np.inf])
def test_prune_eta_positive_and_finite(eta):
    # at eta <= 0 an all-zero pair would keep every column; NaN would never floor
    with pytest.raises(InvalidParameterError, match="eta must be positive and finite"):
        prune_columns(pair_with_norms([1.0, 0.5]), 1e-6, eta)


def test_prune_objective_perturbation_bounded():
    # dropping columns below a 1e-6 relative threshold moves the
    # objective by a vanishing relative amount; the absolute floor of the
    # perturbation is lam*eta per removed column, so the relative claim
    # needs the objective to dominate that floor
    rng = np.random.default_rng(5)
    y = 100.0 * rng.standard_normal((4, 3))
    eta = 1e-6
    fp = pair_with_norms([200.0, 1e-5], seed=6)
    before = objective(ProblemKind.DENOISE, y, None, fp, 1.0, eta)
    pruned, kept = prune_columns(fp, 1e-6, 1e-6)
    assert kept == [0]
    after = objective(ProblemKind.DENOISE, y, None, pruned, 1.0, eta)
    removed_norm = 1e-5
    analytic = 1.0 * (removed_norm + eta) + 0.5 * (
        np.linalg.norm(fp.product() - pruned.product()) ** 2
        + 2.0 * np.linalg.norm(y) * np.linalg.norm(fp.product() - pruned.product())
    )
    assert abs(after - before) <= analytic
    assert abs(after - before) <= 1e-8 * (1.0 + before)


# ------------------------------------------------------ relative change


def test_relative_change_identical():
    fp = pair_with_norms([1.0, 2.0], seed=1)
    assert relative_change(fp, fp) == 0.0


def test_relative_change_doubling_rank_one():
    fp = pair_with_norms([1.5], seed=2)
    doubled = FactorPair(2.0 * fp.u, fp.v)
    assert abs(relative_change(fp, doubled) - 1.0) < 1e-12


def test_relative_change_trace_path_matches_dense():
    # the Gram form must match the explicit product, also when d exceeds
    # the outer dimensions and when the next pair has a column fewer
    rng = np.random.default_rng(3)
    for m, n, d, d_next in [(25, 30, 3, 3)] * 10 + [(4, 3, 5, 5), (6, 9, 4, 3)]:
        u1 = rng.standard_normal((m, d))
        v1 = rng.standard_normal((n, d))
        u2 = u1[:, :d_next] + 0.1 * rng.standard_normal((m, d_next))
        v2 = v1[:, :d_next] + 0.1 * rng.standard_normal((n, d_next))
        prev, next_ = FactorPair(u1, v1), FactorPair(u2, v2)
        got = relative_change(prev, next_)
        dense = np.linalg.norm(prev.product() - next_.product()) / np.linalg.norm(
            prev.product()
        )
        assert abs(got - dense) < 1e-10


def test_relative_change_resolves_tiny_changes():
    # the change is taken in factored form, so it has no precision floor
    # near 1e-8 (the difference of Gram traces returned 0.0 for both)
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal((300, 10)), rng.standard_normal((300, 10))
    prev = FactorPair(u, v)
    du, dv = rng.standard_normal((300, 10)), rng.standard_normal((300, 10))
    unit = np.linalg.norm(du @ v.T + u @ dv.T) / np.linalg.norm(prev.product())
    for target in (1e-10, 1e-12):
        eps = target / unit
        next_ = FactorPair(u + eps * du, v + eps * dv)
        # the same factored difference, formed as m x n products
        want = np.linalg.norm(eps * du @ next_.v.T + u @ (eps * dv).T) / np.linalg.norm(
            prev.product()
        )
        assert abs(relative_change(prev, next_) - want) <= 1e-6 * want


@pytest.fixture
def finished(monkeypatch):
    """(prev, next_, steps) of every iteration ``common.alternate`` finishes."""
    calls, shared = [], common.finish_iteration

    def recorded(trace, k, prev, next_, steps, *rest):
        calls.append((prev, next_, steps))
        return shared(trace, k, prev, next_, steps, *rest)

    monkeypatch.setattr(common, "finish_iteration", recorded)
    return calls


def test_tiny_tol_converges_only_on_a_change_below_it(finished):
    # with the Gram-trace difference this solve reported converged at
    # k = 568 with rel_change 0.0 while its last step changed the product
    # by 3.4e-8 relative, above tol
    x0 = gen_lowrank(100, 100, 3, "gaussian", 1)
    y = add_noise_snr(x0, 20.0, 2)
    cfg = SolverConfig(lam=10.0, d_init=10, tol=1e-8, max_iter=1000)
    _, trace = solve_denoise(y, cfg)
    prev, next_, _ = finished[-1]
    change = (next_.u - prev.u) @ next_.v.T + prev.u @ (next_.v - prev.v).T
    dense = np.linalg.norm(change) / np.linalg.norm(prev.product())
    assert trace.status != STATUS_CONVERGED or dense < cfg.tol
    assert abs(trace.records[-1].rel_change - dense) <= 1e-6 * dense


def test_relative_change_zero_previous_product():
    zero = FactorPair(np.zeros((4, 1)), np.zeros((3, 1)))
    other = pair_with_norms([1.0], seed=4)
    with pytest.raises(InvalidParameterError, match="previous factor product is zero"):
        relative_change(zero, other)
    with pytest.raises(InvalidParameterError, match="different matrix shapes"):
        relative_change(FactorPair(np.zeros((3, 1)), np.zeros((4, 1))), other)


# ------------------------------------------------------------- stopping


def make_trace(rel_change, k, d=3):
    trace = IterationTrace(config=SolverConfig(lam=1.0, d_init=5))
    trace.records.append(
        IterationRecord(k=k, objective=1.0, d=d, rel_change=rel_change, delta=0.0, ms=0.0)
    )
    return trace


def test_should_stop_on_tolerance():
    trace = make_trace(5e-5, k=10)
    assert stop_status(trace) is not None


def test_should_stop_on_cap():
    trace = make_trace(2e-4, k=500)
    assert stop_status(trace) is not None


def test_should_continue():
    trace = make_trace(2e-4, k=10)
    assert stop_status(trace) is None


def test_should_stop_degenerate():
    trace = make_trace(1.0, k=1, d=0)
    assert stop_status(trace) is not None


@pytest.mark.parametrize("prune_at_k, want", [(False, "stalled"), (True, "converged")])
def test_stop_status_stall_is_an_unmoved_unpruned_iterate(prune_at_k, want):
    trace = make_trace(0.0, k=10)
    if prune_at_k:
        trace.prunes.append(PruneEvent(10, [3], [0.0]))
    assert stop_status(trace) == want


def test_should_stop_needs_an_iteration():
    cfg = SolverConfig(lam=1.0, d_init=5)
    with pytest.raises(InvalidParameterError):
        stop_status(IterationTrace(config=cfg))


# ------------------------------------------------------- initialization


def test_init_factors_scale_and_determinism():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((20, 15))
    problem = Problem(ProblemKind.DENOISE, y)
    a = init_factors(problem, 4, np.random.default_rng(7))
    b = init_factors(problem, 4, np.random.default_rng(7))
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    scale = np.sqrt(np.linalg.norm(y) / np.sqrt(20 * 15 * 4))
    assert abs(np.std(a.u) - scale) < 0.3 * scale


def test_init_factors_nonneg():
    y = np.abs(np.random.default_rng(1).standard_normal((10, 8)))
    fp = init_factors(Problem(ProblemKind.NMF, y), 3, np.random.default_rng(2))
    assert np.all(fp.u >= 0) and np.all(fp.v >= 0)


# ------------------------------------------------------------- tracing


def test_trace_json_schema():
    cfg = SolverConfig(lam=2.0, d_init=4, seed=9)
    trace = IterationTrace(config=cfg)
    trace.records.append(
        IterationRecord(k=1, objective=3.5, d=4, rel_change=0.5, delta=0.1, ms=1.25)
    )
    doc = trace.to_json_dict({"nre": 0.05})
    assert set(doc) == {
        "schema_version", "config", "initial_objective", "iterations", "prunes", "status",
        "metrics",
    }
    assert doc["schema_version"] == 2
    assert doc["config"]["lambda"] == 2.0
    assert set(doc["config"]["nmf"]) == {
        "beta_u",
        "beta_v",
        "sigma",
        "eps_active",
        "max_backtracks",
    }
    it = doc["iterations"][0]
    assert it == {
        "k": 1, "objective": 3.5, "d": 4, "rel_change": 0.5, "delta": 0.1, "ms": 1.25,
        "displacement_sq": 0.0, "gram_min_eig": 0.0, "max_col_sq": 0.0,
    }
    assert doc["metrics"] == {"nre": 0.05, "nmae": None}


# ------------------------------------------------- guarantees of every run


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(list(ProblemKind)),
    m=st.integers(2, 12),
    n=st.integers(2, 12),
    d_init=st.integers(1, 6),
    log_lam=st.floats(-3.0, 3.0),
    density=st.floats(0.05, 1.0),
    max_iter=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_solve_descends_by_its_certificate_and_stops_as_reported(
    kind, m, n, d_init, log_lam, density, max_iter, seed
):
    # monotone descent, a nonnegative delta that the drop covers, and a
    # stop at the first iteration stop_status names, up to round-off
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((m, n))
    cfg = SolverConfig(lam=10.0**log_lam, d_init=d_init, max_iter=max_iter, seed=seed)
    if kind is ProblemKind.COMPLETE:
        card = max(1, round(density * m * n))
        _, trace = solve_mc(y, sample_mask(m, n, card, seed), cfg)
    elif kind is ProblemKind.NMF:
        _, trace = solve_nmf(np.abs(y), cfg)
    else:
        _, trace = solve_denoise(y, cfg)
    prev = trace.initial_objective
    for i, r in enumerate(trace.records):
        slack = 1e-10 * max(1.0, abs(prev))
        assert r.objective <= prev + slack
        assert r.delta >= 0.0
        assert prev - r.objective >= r.delta - slack
        prefix = IterationTrace(
            config=cfg,
            records=trace.records[: i + 1],
            prunes=[p for p in trace.prunes if p.k <= r.k],
        )
        last = i + 1 == trace.iterations
        assert stop_status(prefix) == (trace.status if last else None)
        prev = r.objective


def _assert_certified_descent(trace):
    """Monotone descent, a nonnegative delta that the drop covers, and a stop
    at the first iteration stop_status names, up to 1e-10 round-off."""
    prev = trace.initial_objective
    for i, r in enumerate(trace.records):
        slack = 1e-10 * max(1.0, abs(prev))
        assert r.objective <= prev + slack, r.k
        assert r.delta >= 0.0, r.k
        assert prev - r.objective >= r.delta - slack, r.k
        prefix = IterationTrace(
            config=trace.config,
            records=trace.records[: i + 1],
            prunes=[p for p in trace.prunes if p.k <= r.k],
        )
        last = i + 1 == trace.iterations
        assert stop_status(prefix) == (trace.status if last else None)
        prev = r.objective


@st.composite
def partial_completions(draw):
    """(y, mask, cfg) of a completion that leaves an entry unobserved, over
    lam from 1e-8 to 1e3, Y scaled by 1e-6 to 1e6 and d_init up to 2 max(m, n).
    Whole decades: with float exponents, the configurations that break a
    Gaussian start's certificate came up about a third as often."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    cfg = SolverConfig(
        lam=10.0 ** draw(st.integers(-8, 3)),
        d_init=draw(st.integers(1, 2 * max(m, n))),
        max_iter=draw(st.integers(1, 40)),
        seed=seed,
    )
    y = 10.0 ** draw(st.integers(-6, 6)) * np.random.default_rng(seed).standard_normal((m, n))
    return y, sample_mask(m, n, draw(st.integers(1, m * n - 1)), seed), cfg


@settings(max_examples=500, deadline=None)
@given(partial_completions())
def test_every_partial_completion_descends_by_its_certificate(case):
    # a start of at most min(m, n) columns keeps the curvature blocks of a
    # d_init > min(m, n) run well conditioned at any scale
    y, mask, cfg = case
    _, trace = solve_mc(y, mask, cfg)
    _assert_certified_descent(trace)


@pytest.mark.parametrize("seed", range(6))
def test_completion_past_min_m_n_at_tiny_lam_descends_by_its_certificate(seed):
    # from a Gaussian start these fell short of delta by 3e-6 to 6e-4 relative
    y = 1e3 * np.random.default_rng(seed).standard_normal((10, 5))
    cfg = SolverConfig(lam=1e-8, d_init=8, max_iter=40, seed=seed)
    _, trace = solve_mc(y, sample_mask(10, 5, 35, seed), cfg)
    _assert_certified_descent(trace)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("solve", ["denoise", "full_mask"])
def test_dense_data_past_min_m_n_at_tiny_lam_descends_by_its_certificate(solve, seed):
    # a Gaussian start of d_init random columns fell short of delta here
    y = 1e3 * np.random.default_rng(seed).standard_normal((10, 5))
    cfg = SolverConfig(lam=1e-8, d_init=8, max_iter=40, seed=seed)
    if solve == "denoise":
        _, trace = solve_denoise(y, cfg)
    else:
        _, trace = solve_mc(y, core.ObservedMask.full(10, 5), cfg)
    _assert_certified_descent(trace)


def test_nmf_whose_trial_zeroes_a_large_column_descends_by_its_certificate():
    # a trial that zeroes a column at |Y| ~ 1e5 rounds its new squared norm
    # below -eta^2; the factored decrease must not take its square root
    seed = 1126218256
    y = np.abs(1e5 * np.random.default_rng(seed).standard_normal((5, 8)))
    _, trace = solve_nmf(y, SolverConfig(lam=1.0, d_init=2, max_iter=18, seed=seed))
    _assert_certified_descent(trace)


def _solve_kind(kind, y, mask, cfg):
    if kind == "denoise":
        return solve_denoise(y, cfg)
    if kind == "nmf":
        return solve_nmf(np.abs(y), cfg)
    return solve_mc(y, mask, cfg)


@pytest.mark.parametrize("kind", ["denoise", "nmf", "full_mask", "partial_mask"])
def test_start_wider_than_min_m_n_runs_as_min_m_n(kind):
    # an m x n matrix holds at most min(m, n) independent columns, so a
    # wider d_init starts, and runs, exactly like d_init = min(m, n)
    y = add_noise_snr(gen_lowrank(30, 20, 2, "gaussian", 41), 20.0, 42)
    full = core.ObservedMask.full(30, 20)
    mask = sample_mask(30, 20, 300, 43) if kind == "partial_mask" else full
    runs = [
        _solve_kind(kind, y, mask, SolverConfig(lam=1.0, d_init=d, seed=44))
        for d in (20, 25)
    ]
    (fp, trace), (wide_fp, wide) = runs
    assert wide.config.d_init == 25

    def without_ms(t):
        records = [{k: v for k, v in vars(r).items() if k != "ms"} for r in t.records]
        return t.initial_objective, records, t.prunes, t.status

    assert without_ms(wide) == without_ms(trace)
    assert np.array_equal(wide_fp.u, fp.u) and np.array_equal(wide_fp.v, fp.v)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["0x3", "3x0"])
@pytest.mark.parametrize("solve", [solve_denoise, solve_nmf])
def test_y_with_no_entries_is_refused(solve, shape):
    with pytest.raises(InvalidParameterError, match=r"y must have at least one entry"):
        solve(np.zeros(shape), SolverConfig(lam=1.0, d_init=2))


@pytest.mark.parametrize("solve", ["denoise", "complete", "nmf"])
def test_y_whose_squared_norm_overflows_is_refused_by_every_solver(solve):
    y = np.ones((4, 3))
    y[1, 2] = 1e308
    cfg = SolverConfig(lam=1.0, d_init=2)
    with pytest.raises(InvalidParameterError, match="its squared norm overflows; rescale y"):
        if solve == "denoise":
            solve_denoise(y, cfg)
        elif solve == "complete":
            solve_mc(y, sample_mask(4, 3, 12, 0), cfg)
        else:
            solve_nmf(y, cfg)


@pytest.mark.parametrize("solve", ["denoise", "complete", "nmf"])
def test_a_solve_near_the_float_range_runs_finite_or_says_to_rescale_y(solve):
    # up to the squared-norm guard the start's Grams or objective, or the
    # relative change, used to overflow into an infinite objective, a NaN
    # rel_change, a false `converged` or a RuntimeWarning
    y0 = np.random.default_rng(0).standard_normal((300, 300))
    mask = sample_mask(300, 300, 14_750, 1)
    cfg = SolverConfig(lam=1.0, d_init=50 if solve == "complete" else 10, seed=0, max_iter=5)
    outcomes = []
    # up to 1.05e152, where the completion start's Grams used to overflow
    # just below Problem's guard (from 1.12e152 on this mask)
    for scale in np.geomspace(1e150, 1.05e152, 24):
        try:
            if solve == "denoise":
                _, trace = solve_denoise(scale * y0, cfg)
            elif solve == "complete":
                _, trace = solve_mc(scale * y0, mask, cfg)
            else:
                _, trace = solve_nmf(np.abs(scale * y0), cfg)
        except InvalidParameterError as exc:
            # refused before the first iteration: no work is wasted
            assert "rescale y" in str(exc) and "iteration" not in str(exc)
            outcomes.append("refused")
            continue
        objectives = [trace.initial_objective] + [r.objective for r in trace.records]
        assert np.isfinite(objectives).all()
        assert not np.isnan([r.rel_change for r in trace.records]).any()
        assert trace.records[-1].k == 5  # no false stop
        outcomes.append("ran")
    assert outcomes[0] == "ran" and outcomes[-1] == "refused"
    assert outcomes == sorted(outcomes, key=["ran", "refused"].index)


def test_the_complete_bench_instance_scaled_by_1e150_converges():
    # lam and eta scaled with Y, so the problem is the unscaled one; its start
    # lies 2^5.8 below the float64 maximum, so a headroom of 64 would refuse it
    s = 1e150
    y = add_noise_snr(gen_lowrank(300, 300, 10, "gaussian", 1000), 20.0, 2000) * s
    cfg = SolverConfig(lam=50.0 * s**1.5, d_init=50, eta=1e-6 * s**0.5)
    fp, trace = solve_mc(y, sample_mask(300, 300, 14_750, 3000), cfg)
    assert trace.status == "converged" and fp.d == 10


def test_an_iteration_whose_relative_change_overflows_says_to_rescale_y():
    # the start passes the headroom check, but from the Gaussian start of a
    # 3 x 30000 Y the first V step grows ||V||^2 to 2e160, and the factored
    # relative change forms ||U_0 V_1^T||^2, which overflows
    y = 1e150 * np.random.default_rng(0).standard_normal((3, 30000))
    with pytest.raises(InvalidParameterError, match="iteration 1 overflows; rescale y"):
        solve_denoise(y, SolverConfig(lam=1.0, d_init=3, max_iter=8))
    big = FactorPair(np.full((2, 1), 1e100), np.full((3, 1), 1e100))
    assert np.isnan(relative_change(FactorPair(np.ones((2, 1)), np.ones((3, 1))), big))


# ------------------------------------------- objective from the data-term slot


@pytest.fixture
def driver_objectives(monkeypatch):
    """Each objective a ``Problem`` forms during a solve, as
    (problem, pair, lam, eta, value, direct): ``direct`` when it formed U V^T."""
    seen, products = [], [0]
    product, original = FactorPair.product, Problem.objective

    def count(self):
        products[0] += 1
        return product(self)

    def spy(self, fp, lam, eta):
        before = products[0]
        value = original(self, fp, lam, eta)
        seen.append((self, fp, lam, eta, value, products[0] > before))
        return value

    monkeypatch.setattr(FactorPair, "product", count)
    monkeypatch.setattr(Problem, "objective", spy)
    return seen


def _direct_objective(y, fp, lam, eta):
    """1/2 ||U V^T - Y||^2 + lam * sum_i sqrt(||u_i||^2 + ||v_i||^2 + eta^2),
    spelled out from the factors."""
    res = fp.u @ fp.v.T - y
    sq = np.sum(fp.u * fp.u, axis=0) + np.sum(fp.v * fp.v, axis=0)
    return 0.5 * float(np.sum(res * res)) + lam * float(np.sum(np.sqrt(sq + eta * eta)))


def _check_against_direct(seen) -> list[bool]:
    """Assert each recorded objective, the start point's included, equals
    the spelled-out one to 1e-12 relative; return whether each was direct."""
    assert seen
    for problem, fp, lam, eta, value, _ in seen:
        want = _direct_objective(problem.y, fp, lam, eta)
        assert abs(value - want) <= 1e-12 * abs(want)
    return [direct for *_, direct in seen]


def _noisy(m, n, r, seed, dist="gaussian"):
    return add_noise_snr(gen_lowrank(m, n, r, dist, seed), 20.0, seed + 1)


def test_factored_objective_of_denoise_iterates_without_a_prune(driver_objectives):
    _, trace = solve_denoise(_noisy(40, 30, 3, 5), SolverConfig(lam=1.0, d_init=3))
    assert not trace.prunes and trace.iterations > 1
    direct = _check_against_direct(driver_objectives)
    assert len(direct) == trace.iterations + 1 and not any(direct)


def test_factored_objective_of_denoise_iterates_across_prunes(driver_objectives):
    _, trace = solve_denoise(_noisy(40, 30, 3, 7), SolverConfig(lam=5.0, d_init=10))
    assert trace.prunes and trace.records[-1].d < 10
    direct = _check_against_direct(driver_objectives)
    assert len(direct) == trace.iterations + 1 and not any(direct)


def test_factored_objective_after_a_rejected_nmf_v_search(driver_objectives):
    # The V search cannot meet a sufficient-decrease factor of 1e6, so V' is
    # a copy of V while U moves: a new pair, evaluated in factored form.
    y = np.maximum(_noisy(30, 20, 3, 9, "uniform01"), 0.0)
    cfg = SolverConfig(lam=1.0, d_init=5, max_iter=4)
    reject = SolverConfig(lam=1.0, d_init=5, nmf=NmfOptions(sigma=1e6, max_backtracks=3))
    problem, accepted = Problem(ProblemKind.NMF, y), []

    def step(side, fp, w):
        res = armijo_search(problem, side, fp, w, cfg if side == "u" else reject)
        accepted.append((side, res.accepted))
        return res

    _, trace = common.alternate(problem, cfg, step)
    assert ("u", True) in accepted and ("v", True) not in accepted
    direct = _check_against_direct(driver_objectives)
    assert len(direct) == trace.iterations + 1 and not any(direct)


def _clipped(seed):
    """The bench's dense size: 200 x 200 rank-3 data with 20 dB noise, clipped at 0."""
    return np.maximum(_noisy(200, 200, 3, seed, "uniform01"), 0.0)


@pytest.mark.parametrize(
    "kind, data, d_init, seed, column",
    [
        (ProblemKind.DENOISE, lambda: _noisy(30, 20, 3, 17), 4, 0, 0),
        (ProblemKind.DENOISE, lambda: _clipped(0), 40, 0, 5),
        (ProblemKind.NMF, lambda: _clipped(3), 40, 3, 0),
    ],
    ids=["denoise-30x20", "denoise-200x200", "nmf-200x200"],
)
def test_a_stall_after_a_prune_repeats_the_pruned_objective(
    driver_objectives, kind, data, d_init, seed, column
):
    # Iteration 1 shrinks ``column`` below the prune threshold, iteration 2
    # moves nothing.  The stalled record is evaluated afresh at a pair of the
    # pruned record's factors and Grams, so it repeats that objective bit for
    # bit.  With Grams cut from the wider pair's, the 200 x 200 stalls would
    # be recorded an ulp away, the NMF one above the pruned record.
    cfg = SolverConfig(lam=1.0, d_init=d_init, max_iter=5, seed=seed)
    calls = []

    def step(side, fp, w):
        factor = fp.split(side)[0]
        new = factor.copy()
        if len(calls) < 2:
            new[:, column] *= 1e-9
        calls.append(side)
        return HalfStep(new, 0.0, new - factor, (new - factor).T @ (new - factor))

    _, trace = common.alternate(Problem(kind, data()), cfg, step)
    assert trace.status == "stalled" and trace.iterations == 2
    assert [p.k for p in trace.prunes] == [1]
    assert trace.prunes[0].removed == [column]
    assert trace.records[1].d == d_init - 1
    assert len(driver_objectives) == trace.iterations + 1
    first, stalled = trace.objectives()
    assert stalled == first


def test_factored_objective_falls_back_on_cancellation(driver_objectives):
    # Noiseless rank-3 data: the fit term drops far below 1e-3 of 1/2 ||Y||^2,
    # where the factored form would cancel, and is evaluated directly.
    y = gen_lowrank(40, 30, 3, "gaussian", 11)
    _, trace = solve_denoise(y, SolverConfig(lam=1e-3, d_init=3))
    direct = _check_against_direct(driver_objectives)
    assert len(direct) == trace.iterations + 1 and any(direct)
    half_sq = 0.5 * float(np.sum(y * y))
    for (_, fp, lam, eta, value, _), was_direct in zip(driver_objectives, direct):
        fit = value - lam * smoothed_regularizer(fp, eta)
        assert was_direct == (fit < Problem.CANCELLATION * half_sq)


def test_factored_objective_of_a_step_without_filled_product(driver_objectives):
    # A custom step that forms Y G itself: the objective forms Y V' on its own
    # and is still factored.
    y = _noisy(30, 20, 3, 13)
    cfg = SolverConfig(lam=1.0, d_init=4, max_iter=5)

    def step(side, fp, w):
        factor, other = fp.split(side)
        h = other.T @ other + cfg.lam * np.diag(w)
        new = np.linalg.solve(h, other.T @ (y.T if side == "u" else y)).T
        return HalfStep(new, 0.0, new - factor, (new - factor).T @ (new - factor))

    _, trace = common.alternate(Problem(ProblemKind.DENOISE, y), cfg, step)
    direct = _check_against_direct(driver_objectives)
    assert len(direct) == trace.iterations + 1 and not any(direct)


def test_factored_objective_of_a_pair_the_slot_does_not_hold(driver_objectives):
    # The slot is keyed by the pair object: a pair it does not hold, an
    # equal copy included, forms its own Y V and is still factored.
    y = _noisy(30, 20, 3, 15)
    problem = Problem(ProblemKind.DENOISE, y)
    fp = init_factors(problem, 4, np.random.default_rng(0))
    v_new, _ = block_step(problem, "v", fp, weight_diag(fp, 1e-6), 1.0)
    held = FactorPair(fp.u, v_new)
    other = init_factors(problem, 4, np.random.default_rng(1))
    for pair in (held, FactorPair(fp.u.copy(), v_new), other, held):
        problem.objective(pair, 1.0, 1e-6)
    assert _check_against_direct(driver_objectives) == [False] * 4


@pytest.fixture
def data_terms(monkeypatch):
    """The pairs at which each ``Problem`` forms its data term, by problem."""
    formed, original = {}, Problem._data_term

    def spy(self, fp):
        if self._last is None or self._last[0] is not fp:
            formed.setdefault(self, []).append(fp)
        return original(self, fp)

    monkeypatch.setattr(Problem, "_data_term", spy)
    return formed


@pytest.mark.parametrize("solve", ["denoise", "nmf"])
def test_dense_solve_forms_y_v_once_per_pair(data_terms, solve):
    y = _noisy(30, 20, 3, 19, "uniform01")
    cfg = SolverConfig(lam=5.0, d_init=6, max_iter=40)
    if solve == "denoise":
        _, trace = solve_denoise(y, cfg)
    else:
        _, trace = solve_nmf(np.maximum(y, 0.0), cfg)
    assert trace.iterations > 1 and trace.prunes
    # the public objective that checks the start point forms Y V on its own
    # Problem; the solve's Problem forms it for the first U step and for the
    # objective of every iteration, which the next U step reads
    start, solve_pairs = sorted(data_terms.values(), key=len)
    assert len(start) == 1 and len(solve_pairs) == trace.iterations + 1
    assert len({id(fp) for fp in solve_pairs}) == len(solve_pairs)


def _spelled_out_diagnostics(prev, next_):
    """The diagnostics with the steps U' - U and V' - V and every Gram formed
    here as A^T A, the ledger's and the steps' formula, in the order of
    operations of ``finish_iteration``, and one ``eigvalsh`` call per Gram."""
    du, dv = next_.u - prev.u, next_.v - prev.v
    gram_du, gram_dv = du.T @ du, dv.T @ dv
    disp = float(np.trace(gram_du)) + float(np.trace(gram_dv))
    gram_u, gram_v = prev.u.T @ prev.u, prev.v.T @ prev.v
    gram_un, gram_vn = next_.u.T @ next_.u, next_.v.T @ next_.v
    change = (
        np.vdot(gram_du, gram_vn)
        + 2.0 * np.vdot(du.T @ prev.u, next_.v.T @ dv)
        + np.vdot(gram_u, gram_dv)
    )
    base = float(np.vdot(gram_u, gram_v))
    rel = float(np.sqrt(max(float(change), 0.0) / base))
    if next_.d == 0:
        return disp, rel, 0.0, 0.0
    min_eig = min(
        float(np.linalg.eigvalsh(gram_un)[0]), float(np.linalg.eigvalsh(gram_vn)[0])
    )
    max_col = max(float(np.max(np.diag(gram_un))), float(np.max(np.diag(gram_vn))))
    return disp, rel, min_eig, max_col


@pytest.mark.parametrize("d", [1, 5, 40])
def test_iteration_diagnostics_from_the_step_gram_match_bitwise(d):
    y = _noisy(60, 50, 3, 17)
    problem = Problem(ProblemKind.DENOISE, y)
    prev = init_factors(problem, d, np.random.default_rng(d))
    u_step = block_step(problem, "u", prev, weight_diag(prev, 1e-6), 1.0)
    mid = prev.with_factor("u", u_step.factor)
    v_step = block_step(problem, "v", mid, weight_diag(mid, 1e-6), 1.0)
    next_ = mid.with_factor("v", v_step.factor)
    assert next_.gram_u is mid.gram_u  # the V step's Gram, carried, not formed again
    got = common._iteration_diagnostics(prev, next_, (u_step, v_step))
    assert got == _spelled_out_diagnostics(prev, next_)
    # against the dense forms, to rounding
    disp = float(np.sum((next_.u - prev.u) ** 2) + np.sum((next_.v - prev.v) ** 2))
    dense = np.linalg.norm(next_.product() - prev.product()) / np.linalg.norm(
        prev.product()
    )
    assert abs(got[0] - disp) <= 1e-12 * disp
    assert abs(got[1] - dense) <= 1e-12 * dense
    # with the factors' roles swapped, the other Gram holds the smaller eigenvalue
    swap = [FactorPair(p.v, p.u) for p in (prev, next_)]
    got = common._iteration_diagnostics(*swap, (v_step, u_step))
    assert got == _spelled_out_diagnostics(*swap)


EPS = np.finfo(float).eps


def _pruning_solve(solve):
    """(cfg, trace) of a 40 x 30 ``solve`` that prunes as it goes."""
    m, n = 40, 30
    y = _noisy(m, n, 3, 23, "uniform01")
    cfg = SolverConfig(lam=2.0, d_init=8, tol=1e-6)
    if solve == "denoise":
        _, trace = solve_denoise(y, cfg)
    elif solve == "complete":
        _, trace = solve_mc(y, sample_mask(m, n, 700, 24), cfg)
    else:
        _, trace = solve_nmf(np.maximum(y, 0.0), cfg)
    assert trace.iterations > 10 and trace.prunes
    return cfg, trace


@pytest.mark.parametrize("solve", ["denoise", "complete", "nmf"])
def test_step_diagnostics_match_dense_recomputation(finished, solve):
    # displacement_sq and rel_change come from the half-steps' records and
    # the Gram ledger; recompute both from the consecutive pairs, densely
    _, trace = _pruning_solve(solve)
    assert len(finished) == trace.iterations
    for record, (prev, next_, steps) in zip(trace.records, finished):
        du, dv = next_.u - prev.u, next_.v - prev.v
        for step, delta in zip(steps, (du, dv)):
            assert np.array_equal(step.step, delta)
        disp = float(np.sum(du * du) + np.sum(dv * dv))
        pieces = (du @ next_.v.T, prev.u @ dv.T)
        change = np.linalg.norm(pieces[0] + pieces[1])
        rel = change / np.linalg.norm(prev.product())
        assert abs(record.displacement_sq - disp) <= 1e-12 * disp
        # The factored form sums <dU^T dU, V'^T V'>, 2 <dU^T U, V'^T dV> and
        # <U^T U, dV^T dV>, which cancel when the two pieces of the product
        # change nearly cancel: its relative error is about eps times the
        # ratio below (up to 1.2e4 here, as a long double recomputation
        # showed), so the bound grows past 1e-12 with it.
        ratio = (sum(np.linalg.norm(p) for p in pieces) / change) ** 2
        assert abs(record.rel_change - rel) <= max(1e-12, 8 * EPS * ratio) * rel


def _degenerate_solve():
    """(cfg, trace) of a 30 x 20 denoise at lam = 1e6: at k = 2 every column
    is below eta, the largest at a joint norm of about 1.3e-16."""
    cfg = SolverConfig(lam=1e6, d_init=5)
    _, trace = solve_denoise(_noisy(30, 20, 2, 0), cfg)
    assert trace.status == "degenerate" and trace.iterations == 2
    assert [(p.k, p.removed) for p in trace.prunes] == [(2, [0, 1, 2, 3, 4])]
    assert 0.0 < max(trace.prunes[0].norms) < 1e-15
    return cfg, trace


@pytest.mark.parametrize("solve", ["denoise", "complete", "nmf", "degenerate"])
def test_each_iteration_keeps_the_columns_prune_columns_keeps(finished, solve):
    # the driver prunes through prune_columns, once per iteration, at the
    # pair its two half-steps reached
    cfg, trace = _degenerate_solve() if solve == "degenerate" else _pruning_solve(solve)
    removed = {p.k: p.removed for p in trace.prunes}
    for record, (_, next_, _) in zip(trace.records, finished, strict=True):
        kept = [j for j in range(next_.d) if j not in removed.get(record.k, [])]
        assert prune_columns(next_, cfg.prune_tol, cfg.eta)[1] == kept
        assert record.d == len(kept)


def test_step_diagnostics_of_rejected_nmf_searches_are_zero(finished):
    # Both searches exhaust their backtracking cap: the half-steps hand the
    # loop zero steps, so the iteration records no change and stalls.
    y = gen_lowrank(30, 20, 3, "uniform01", 0)
    cfg = SolverConfig(lam=1.0, d_init=5, nmf=NmfOptions(sigma=1e6, max_backtracks=3))
    _, trace = solve_nmf(y, cfg)
    assert trace.status == common.STATUS_STALLED and trace.iterations == 1
    ((prev, next_, steps),) = finished
    for step, factor in zip(steps, (prev.u, prev.v)):
        assert not step.step.any() and not step.step_gram.any() and step.drop == 0.0
        assert np.array_equal(step.factor, factor)
    record = trace.records[0]
    assert record.displacement_sq == 0.0 and record.rel_change == 0.0


# ------------------------------------------------------ Gram ledger per iteration


@pytest.mark.parametrize("solve", ["denoise", "complete", "nmf"])
def test_ledger_forms_two_factor_grams_per_iteration(monkeypatch, solve):
    # The start point forms U^T U and V^T V once; each iteration then forms
    # U'^T U' (for the V step's weights) and V'^T V' (for the diagnostics),
    # each prune forms the kept columns' two Grams, and everything else
    # reads them from the pairs' ledgers.
    formed, gram = [], core._gram

    def count(a):
        formed.append(a.shape[0])
        return gram(a)

    monkeypatch.setattr(core, "_gram", count)
    m, n = 30, 20
    y = _noisy(m, n, 3, 19, "uniform01")
    cfg = SolverConfig(lam=5.0, d_init=6, max_iter=40)
    if solve == "denoise":
        _, trace = solve_denoise(y, cfg)
    elif solve == "complete":
        _, trace = solve_mc(y, sample_mask(m, n, 400, 20), cfg)
    else:
        _, trace = solve_nmf(np.maximum(y, 0.0), cfg)
    assert trace.iterations > 1 and trace.prunes
    assert formed == [m, n] * (trace.iterations + 1 + len(trace.prunes))
