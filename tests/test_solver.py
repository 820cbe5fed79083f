import math

import numpy as np
import pytest

from modelcg.geometry import Box, Simplex
from modelcg.models import LinearModelOracle, ModelMinimum
from modelcg.regression import (
    generate_regression_data,
    make_constraint_set,
    make_objective,
    make_oracle,
)
from modelcg.inner import GAP_RATIO
from modelcg.solver import (
    DELTA_RTOL,
    MAX_BACKTRACKS,
    LineSearchError,
    LineSearchParams,
    SolverConfig,
    armijo_search,
    mcgm_solve,
    rate_certificate,
    verify_trace_arrays,
)
from conftest import feasible_only


# ---------------------------------------------------------------------------
# line search
# ---------------------------------------------------------------------------


def test_armijo_accepts_immediately_on_linear_decrease():
    delta = 3.0
    x, y = np.array([0.0]), np.array([1.0])
    fun = lambda z: 5.0 - delta * float(z[0])  # slope exactly -delta
    res = armijo_search(fun, x, y, delta, LineSearchParams(rho=0.9))
    assert res.backtracks == 0 and res.gamma == 1.0


def test_armijo_hand_computed_backtracking():
    # f(t) = t^2 from x=1 toward y=0 with improvement 2: first accepted step
    # is gamma = 0.125 after three rejections
    fun = lambda z: float(z[0]) ** 2
    res = armijo_search(fun, np.array([1.0]), np.array([0.0]), 2.0, LineSearchParams(rho=0.9))
    assert res.backtracks == 3
    assert res.gamma == pytest.approx(0.125, abs=0)
    assert res.f_new == pytest.approx(0.765625, abs=0)


def test_armijo_tiny_rho_accepts_any_descent():
    fun = lambda z: float(z[0]) ** 2
    res = armijo_search(fun, np.array([1.0]), np.array([0.0]), 2.0,
                        LineSearchParams(rho=1e-9))
    assert res.backtracks == 0


def test_armijo_exhaustion_raises_with_diagnostics():
    fun = lambda z: float(z[0]) ** 2
    # claiming a huge improvement makes the condition unsatisfiable
    with pytest.raises(LineSearchError) as err:
        armijo_search(fun, np.array([1.0]), np.array([0.0]), 1e9, LineSearchParams(rho=0.9))
    assert err.value.backtracks == MAX_BACKTRACKS
    assert err.value.delta == 1e9


def _quartic_segment(n=3):
    # f(v) = sum v^4 from x = 1 toward y = -4 with the linear-model
    # improvement 20 n: (1 - 5 g)^4 per coordinate, first accepted at
    # g = 0.125 after three rejections
    x, y = np.ones(n), np.full(n, -4.0)
    d = y - x
    calls = []

    def fun(v):
        calls.append(1)
        return float(np.sum(v ** 4))

    def exact(g):
        # the binomial expansion of sum((x + g d)^4 - x^4)
        return float(np.sum(g * (4 * x**3 * d + g * (6 * x**2 * d**2
                                                     + g * (4 * x * d**3 + g * d**4)))))

    return fun, calls, x, y, 20.0 * n, exact


def _result_bits(res):
    return res.gamma, res.backtracks, res.f_new.hex()


def test_armijo_exact_screen_leaves_the_result_and_evaluates_once():
    fun, calls, x, y, delta, exact = _quartic_segment()
    f_x = fun(x)
    calls.clear()
    plain = armijo_search(fun, x, y, delta, f_x=f_x)
    assert plain.backtracks == 3 and len(calls) == 4
    calls.clear()
    screened = armijo_search(fun, x, y, delta, f_x=f_x, screen=exact)
    assert _result_bits(screened) == _result_bits(plain)
    assert len(calls) == 1


@pytest.mark.parametrize("screen", [lambda g: math.nan, lambda g: -math.inf,
                                    lambda g: -1e300],
                         ids=["nan", "minus_inf", "always_accepts"])
def test_armijo_uninformative_screen_gives_the_plain_rule(screen):
    fun, calls, x, y, delta, _ = _quartic_segment()
    plain = armijo_search(fun, x, y, delta)
    n_plain = len(calls)
    calls.clear()
    screened = armijo_search(fun, x, y, delta, screen=screen)
    assert _result_bits(screened) == _result_bits(plain)
    assert len(calls) == n_plain


def test_armijo_screen_never_skips_the_last_trial():
    # every trial is predicted to fail: only the last one is evaluated, so
    # the error reports the objective's own last value
    fun, calls, x, y, _, _ = _quartic_segment()
    with pytest.raises(LineSearchError) as plain:
        armijo_search(fun, x, y, 1e9)
    calls.clear()
    with pytest.raises(LineSearchError) as screened:
        armijo_search(fun, x, y, 1e9, screen=lambda g: 1e6)
    assert len(calls) == 2  # f(x) and the last trial
    assert screened.value.f_last == plain.value.f_last
    assert screened.value.backtracks == plain.value.backtracks == MAX_BACKTRACKS


def test_armijo_rejects_nonpositive_improvement():
    with pytest.raises(ValueError):
        armijo_search(lambda z: 0.0, np.zeros(1), np.ones(1), 0.0)


def test_line_search_params_validation():
    with pytest.raises(ValueError):
        LineSearchParams(rho=1.0)


# ---------------------------------------------------------------------------
# the outer loop
# ---------------------------------------------------------------------------


def quadratic_box_setup(seed=0, dim=3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    Q = A.T @ A + np.eye(dim)
    b = rng.standard_normal(dim)
    fun = lambda x: 0.5 * float(np.asarray(x) @ (Q @ np.asarray(x))) + float(b @ x)
    grad = lambda x: Q @ np.asarray(x, float) + b
    box = Box(-np.ones(dim), np.ones(dim))
    return fun, grad, Q, b, box


def projected_gradient_reference(Q, b, box, iters=30000):
    L = np.linalg.eigvalsh(Q)[-1]
    x = np.zeros(Q.shape[0])
    for _ in range(iters):
        x = box.project(x - (Q @ x + b) / L)
    return x


def test_mcgm_converges_on_box_quadratic():
    fun, grad, Q, b, box = quadratic_box_setup()
    oracle = LinearModelOracle(fun, grad)
    trace = mcgm_solve(
        oracle, fun, box, np.zeros(3),
        cfg=SolverConfig(max_iterations=4000, delta_tol=1e-7),
    )
    x_ref = projected_gradient_reference(Q, b, box)
    assert trace.status == "stationary"
    assert trace.records[-1].delta <= 1e-6
    assert fun(trace.final_x) <= fun(x_ref) + 1e-5


def test_mcgm_terminates_immediately_at_stationary_start():
    c = np.array([2.0, 1.0, 3.0])
    fun = lambda x: float(c @ x)
    oracle = LinearModelOracle(fun, lambda x: c)
    simplex = Simplex(3)
    x0 = simplex.lmo(c)
    trace = mcgm_solve(oracle, fun, simplex, x0, cfg=SolverConfig(delta_tol=1e-10))
    assert trace.status == "stationary"
    assert len(trace.records) == 1
    assert trace.records[0].k == 0
    assert trace.records[0].gamma == 0.0
    assert trace.records[0].delta <= 1e-10


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_mcgm_rejects_a_non_finite_start_value(bad):
    fun = lambda x: bad
    oracle = LinearModelOracle(fun, lambda x: np.ones(2))
    with pytest.raises(ValueError, match=r"f\(x0\)"):
        mcgm_solve(oracle, fun, Box(-np.ones(2), np.ones(2)), np.zeros(2))


def test_mcgm_projects_infeasible_start():
    fun, grad, Q, b, box = quadratic_box_setup(seed=1)
    oracle = LinearModelOracle(fun, grad)
    trace = mcgm_solve(oracle, fun, box, 10 * np.ones(3),
                       cfg=SolverConfig(max_iterations=50))
    assert box.contains(trace.final_x, 1e-9)


def test_mcgm_trace_invariants_on_regression_problem():
    ds = generate_regression_data(P=4, M=40, mu=2.0, a_max=4.0, b_max=2.5, seed=3)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    trace = mcgm_solve(
        make_oracle(ds), feasible_only(fun, box), box, box.midpoint(),
        cfg=SolverConfig(max_iterations=60),
    )
    assert trace.status == "stationary"
    f, d, g = trace.arrays()
    assert verify_trace_arrays(f, d, g, trace.rho, final_f=trace.final_f) == []
    # improvements vanish and the objective is monotone
    assert d[-1] <= 1e-8 * (1 + abs(f[0]))
    assert np.all(np.diff(f) <= 1e-9)
    # telescoped decrease bound
    f_lower = trace.best_f()
    assert float((g * d).sum()) <= (f[0] - f_lower) / trace.rho + 1e-9
    # every positive step exceeded the tolerance
    tol = SolverConfig().resolve_tol(f[0])
    assert all(r.delta > tol for r in trace.records[:-1])
    assert trace.records[-1].delta <= tol


@pytest.mark.parametrize("budget", [math.nan, -5.0, -math.inf])
def test_solver_config_rejects_a_nan_or_negative_time_budget(budget):
    # a NaN budget was never reached and a negative one stopped after a step
    with pytest.raises(ValueError, match="time_budget_s must be non-negative"):
        SolverConfig(time_budget_s=budget)


@pytest.mark.parametrize("n", [2.5, math.nan, math.inf, True, 0, -1])
def test_solver_config_rejects_a_max_iterations_that_is_no_integer_above_zero(n):
    # 2.5 and NaN raised TypeError from range() mid-solve, True ran one step
    with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
        SolverConfig(max_iterations=n)
    assert SolverConfig(max_iterations=np.int64(3)).max_iterations == 3


def test_solver_config_rejects_an_infinite_delta_tol():
    # an infinite tolerance certified any start stationary at k = 0, with a
    # recorded bound equal to f itself
    for tol in (math.inf, math.nan, 0.0, -1.0, True, "1e-6"):
        with pytest.raises(ValueError, match="delta_tol must be positive and finite"):
            SolverConfig(delta_tol=tol)
    assert SolverConfig(delta_tol=np.float64(1e300)).resolve_tol(5.0) == 1e300


def test_zero_and_infinite_time_budgets_stay_valid():
    fun, grad, Q, b, box = quadratic_box_setup(seed=2)
    oracle = LinearModelOracle(fun, grad)
    for budget, status in ((0.0, "time_budget"), (math.inf, "max_iterations")):
        trace = mcgm_solve(oracle, fun, box, np.zeros(3),
                           cfg=SolverConfig(max_iterations=3, time_budget_s=budget))
        assert (trace.status, len(trace.records)) == (status, 1 if budget == 0 else 3)


def test_mcgm_time_budget_status():
    ds = generate_regression_data(P=6, M=60, mu=2.0, seed=4)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    trace = mcgm_solve(
        make_oracle(ds), fun, box, box.midpoint(),
        cfg=SolverConfig(max_iterations=10000, time_budget_s=0.0),
    )
    assert trace.status in ("time_budget", "stationary")
    assert len(trace.records) >= 1


def test_mcgm_max_iterations_status():
    ds = generate_regression_data(P=4, M=30, mu=2.0, seed=5)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    trace = mcgm_solve(make_oracle(ds), fun, box, box.midpoint(),
                       cfg=SolverConfig(max_iterations=1))
    assert trace.status == "max_iterations"
    assert len(trace.records) == 1
    assert trace.final_f <= trace.records[-1].f_value


def test_mcgm_callback_sees_every_record():
    fun, grad, Q, b, box = quadratic_box_setup(seed=2)
    oracle = LinearModelOracle(fun, grad)
    seen = []
    trace = mcgm_solve(oracle, fun, box, np.zeros(3), callback=seen.append,
                       cfg=SolverConfig(max_iterations=40))
    assert seen == trace.records
    f, d, g = trace.arrays()
    assert verify_trace_arrays(f, d, g, trace.rho, final_f=trace.final_f) == []


class _ScriptedModel:
    """A model whose minimization records the tolerance it is asked for and
    reports the next scripted improvement. It has no ``value``: the solver
    reads the improvement the solve reports."""

    def __init__(self, anchor, script, requested):
        self.anchor = anchor
        self.anchor_value = 0.0
        self.script = script
        self.requested = requested

    def minimize(self, constraint, eps, warm=None):
        self.requested.append(eps)
        delta = self.script[len(self.requested) - 1]
        return ModelMinimum(point=self.anchor + 1.0, improvement=delta, gap=0.0)


class _ScriptedOracle:
    def __init__(self, script):
        self.script = script
        self.requested = []

    def instantiate(self, anchor):
        return _ScriptedModel(anchor, self.script, self.requested)


def test_mcgm_passes_the_stationarity_tolerance_to_every_solve():
    # f(x) = 1000 - x on [0, 100]: the unit step to each model minimizer is
    # accepted in full, so the k-th solve's improvement is script[k]; every
    # solve is asked for the one stationarity tolerance
    fun = lambda x: 1000.0 - float(x[0])
    box = Box(np.zeros(1), np.full(1, 100.0))
    script = [2.0, 3.0, 0.05, 4.0, 1e-13, 4.0, 0.0]
    for delta_tol, tol in ((1e-14, 1e-14), (None, DELTA_RTOL * (1.0 + 1000.0))):
        oracle = _ScriptedOracle(script)
        trace = mcgm_solve(oracle, fun, box, np.zeros(1), cfg=SolverConfig(delta_tol=delta_tol))
        assert trace.status == "stationary"
        stop = 5 if delta_tol is None else 7  # 1e-13 is within the default tolerance
        assert [r.delta for r in trace.records] == script[:stop]
        assert [r.gamma for r in trace.records] == [1.0] * (stop - 1) + [0.0]
        assert oracle.requested == [tol] * stop


def test_gauss_newton_solves_stop_by_the_outer_rule(monkeypatch):
    # each PDHG solve gets the stationarity tolerance and the model value at
    # the iterate, and returns a point the outer loop may step to; each row
    # records the improvement of its last solve (the accepted trial of
    # proxlin_bt) bit for bit as PDHG's primal value gives it, or on a row
    # with gamma = 0 that solve's bound
    import modelcg.models as models
    from modelcg.baselines import prox_linear_bt_solve

    calls = []
    inner = models.pdhg_solve

    def recorded(problem, **kwargs):
        res = inner(problem, **kwargs)
        calls.append((kwargs, problem.objective(res.u), res))
        return res

    monkeypatch.setattr(models, "pdhg_solve", recorded)
    ds = generate_regression_data(P=4, M=30, mu=2.0, seed=5)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    for solve in (mcgm_solve, prox_linear_bt_solve):
        calls.clear()
        trace = solve(make_oracle(ds), fun, box, box.midpoint(),
                      cfg=SolverConfig(max_iterations=15))
        tol = SolverConfig().resolve_tol(trace.f0)
        assert len(calls) == trace.total_inner_solves()
        assert any(r.gamma > 0 for r in trace.records)
        for kwargs, primal, res in calls:
            assert kwargs["gap_tol"] == tol
            delta = kwargs["anchor_value"] - primal
            if res.converged:
                assert res.gap <= max(GAP_RATIO * delta, tol - max(delta, 0.0))
        end = 0
        for r in trace.records:
            end += r.inner_solves
            kwargs, primal, res = calls[end - 1]
            assert kwargs["anchor_value"] == pytest.approx(r.f_value, rel=1e-12)
            delta = kwargs["anchor_value"] - primal
            if r.gamma > 0:
                assert r.delta == delta
            else:
                assert r.delta == max(delta, 0.0) + max(res.gap, 0.0)


class _GappedModel:
    """A model whose i-th minimization reports the scripted (improvement,
    gap) pair, recording the tolerance and the warm state it was given."""

    def __init__(self, script):
        self.anchor_value = 0.0
        self.script = script
        self.calls = []

    def minimize(self, constraint, tol, warm=None):
        i = len(self.calls)
        self.calls.append((tol, warm))
        delta, gap = self.script[i]
        return ModelMinimum(point=np.array([float(i)]), improvement=delta, gap=gap, state=i)


class _GappedOracle:
    """One scripted model for every anchor, anchored at ``fun``'s value."""

    def __init__(self, script, fun=lambda x: 0.0):
        self.model = _GappedModel(script)
        self.fun = fun

    def instantiate(self, anchor):
        self.model.anchor_value = self.fun(anchor)
        return self.model


def test_mcgm_takes_a_zero_step_on_an_uncertified_non_positive_improvement():
    # f(x) = 1000 - x on [0, 100] and a model whose i-th solve reports the
    # point [i] with improvement script[i][0]. The first solve ends at its
    # cap with a negative improvement and a gap above the tolerance: the
    # iterate stays, the row records the bound, and the next iteration
    # continues the solve from its state
    fun = lambda x: 1000.0 - float(x[0])
    box = Box(np.zeros(1), np.full(1, 100.0))
    oracle = _GappedOracle([(-1e-3, 1.0), (2.0, 0.0), (-1e-9, 1e-7)], fun)
    trace = mcgm_solve(oracle, fun, box, np.zeros(1), cfg=SolverConfig(delta_tol=1e-6))
    assert trace.status == "stationary"
    assert [r.f_value for r in trace.records] == [1000.0, 1000.0, 999.0]
    assert [r.gamma for r in trace.records] == [0.0, 1.0, 0.0]
    # the bound max(delta, 0) + gap on the zero step and the stationary row
    assert [r.delta for r in trace.records] == [1.0, 2.0, 1e-7]
    assert oracle.model.calls == [(1e-6, None), (1e-6, 0), (1e-6, 1)]
    f, d, g = trace.arrays()
    assert verify_trace_arrays(f, d, g, trace.rho, final_f=trace.final_f) == []


# ---------------------------------------------------------------------------
# stationarity measure
# ---------------------------------------------------------------------------


def test_stationarity_zero_at_interior_minimizer():
    Q = np.diag([2.0, 3.0])
    fun = lambda x: 0.5 * float(np.asarray(x) @ (Q @ np.asarray(x)))
    oracle = LinearModelOracle(fun, lambda x: Q @ np.asarray(x, float))
    box = Box(-np.ones(2), np.ones(2))
    assert oracle.instantiate(np.zeros(2)).minimize(box, 1e-12).bound == pytest.approx(
        0.0, abs=1e-12
    )


def test_stationarity_on_simplex_vertices():
    simplex = Simplex(2)
    e1 = np.array([1.0, 0.0])

    fun_flat = lambda x: float(np.array([1.0, 1.0]) @ x)
    oracle_flat = LinearModelOracle(fun_flat, lambda x: np.array([1.0, 1.0]))
    assert oracle_flat.instantiate(e1).minimize(simplex, 1e-10).bound == 0.0

    fun_tilt = lambda x: float(np.array([2.0, 1.0]) @ x)
    oracle_tilt = LinearModelOracle(fun_tilt, lambda x: np.array([2.0, 1.0]))
    assert oracle_tilt.instantiate(e1).minimize(simplex, 1e-10).bound == 1.0


def test_stationarity_measure_certifies_as_the_outer_loop_does():
    # one solve's bound max(delta, 0) + gap, which a stationary row records
    # (a computed gap below 0 counts as 0)
    for script, bound in (((1e-11, 1e-9), 1e-11 + 1e-9), ((-1.0, 2e-10), 2e-10),
                          ((1.0, 1e-3), 1.0 + 1e-3), ((0.5, -1e-17), 0.5)):
        oracle = _GappedOracle([script])
        assert oracle.instantiate(np.zeros(1)).minimize(None, 1e-10).bound == bound
        assert oracle.model.calls == [(1e-10, None)]


# ---------------------------------------------------------------------------
# rate certificate
# ---------------------------------------------------------------------------


def _toy_trace(f_values, deltas, gammas, rho=0.25):
    from modelcg.solver import IterationRecord, SolverTrace

    records = [
        IterationRecord(k, f, d, g, 0, 0, 1, 0.0)
        for k, (f, d, g) in enumerate(zip(f_values, deltas, gammas))
    ]
    return SolverTrace(records=records, status="max_iterations",
                       final_x=np.zeros(1), final_f=f_values[-1], rho=rho)


def test_rate_certificate_boundary_equality():
    # single full step: equality when the lower bound is the reached value
    rho = 0.5
    f0, f1 = 10.0, 6.0
    delta = (f0 - f1) / rho
    trace = _toy_trace([f0], [delta], [1.0], rho=rho)
    trace.final_f = f1
    cert = rate_certificate(trace, f_lower=f1)
    assert cert.passed
    assert cert.worst_ratio == pytest.approx(1.0, rel=1e-12)


def test_rate_certificate_passes_on_produced_traces():
    ds = generate_regression_data(P=4, M=40, mu=2.0, seed=7)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    trace = mcgm_solve(make_oracle(ds), fun, box, box.midpoint(),
                       cfg=SolverConfig(max_iterations=50))
    assert rate_certificate(trace).passed


def test_rate_certificate_rejects_inflated_improvements():
    ds = generate_regression_data(P=4, M=40, mu=2.0, seed=8)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    trace = mcgm_solve(make_oracle(ds), fun, box, box.midpoint(),
                       cfg=SolverConfig(max_iterations=50))
    for r in trace.records:
        r.delta *= 1e3
    assert not rate_certificate(trace).passed


def test_rate_certificate_trivial_on_immediately_stationary_trace():
    trace = _toy_trace([5.0], [0.0], [0.0])
    assert rate_certificate(trace).passed


def test_verify_trace_arrays_detects_violations():
    assert verify_trace_arrays([5.0, 6.0], [1.0, 0.1], [1.0, 0.5], 0.25) != []
    assert verify_trace_arrays([5.0, 4.0], [1.0, 0.1], [1.0, 1.5], 0.25) != []
    assert verify_trace_arrays([5.0, 4.0], [1.0, -0.5], [1.0, 0.0], 0.25) != []
    assert verify_trace_arrays([5.0, 4.0], [3.9, 0.1], [1.0, 0.0], 0.25) == []


def test_verify_trace_arrays_reports_non_finite_values():
    nan = math.nan
    assert verify_trace_arrays([nan, nan], [1.0, 0.5], [0.5, 0.0], 0.25, final_f=nan) != []
    assert verify_trace_arrays([5.0, 4.0], [3.9, 0.1], [1.0, 0.0], 0.25, final_f=nan) == [
        "non-finite final objective"
    ]
    for f, delta, gamma, name in (
        ([5.0, math.inf], [3.9, 0.1], [1.0, 0.0], "objective"),
        ([5.0, 4.0], [3.9, nan], [1.0, 0.0], "improvement"),
        ([5.0, 4.0], [3.9, 0.1], [nan, 0.0], "step size"),
    ):
        assert verify_trace_arrays(f, delta, gamma, 0.25) == [f"non-finite {name} recorded"]


def test_verify_trace_arrays_rejects_inflated_improvements_step_by_step():
    # one full step at the sufficient-decrease equality passes; an inflated
    # improvement, which the telescoped rate bound also rejects, fails the
    # per-step inequality, and so does one on a produced trace
    rho, f0, f1 = 0.5, 10.0, 6.0
    assert verify_trace_arrays([f0], [(f0 - f1) / rho], [1.0], rho, final_f=f1) == []
    assert verify_trace_arrays([f0], [1e3], [1.0], rho, final_f=f1) == [
        "sufficient decrease violated at k=0"
    ]
    assert not rate_certificate(_toy_trace([f0], [1e3], [1.0], rho=rho)).passed
    ds = generate_regression_data(P=4, M=40, mu=2.0, seed=8)
    box = make_constraint_set(ds)
    trace = mcgm_solve(make_oracle(ds), make_objective(ds), box, box.midpoint(),
                       cfg=SolverConfig(max_iterations=50))
    f, d, g = trace.arrays()
    assert verify_trace_arrays(f, d, g, trace.rho, final_f=trace.final_f) == []
    problems = verify_trace_arrays(f, 1e3 * d, g, trace.rho, final_f=trace.final_f)
    assert problems and all(p.startswith("sufficient decrease violated") for p in problems)


def test_verify_trace_arrays_allows_no_negative_improvement():
    # a recorded improvement is a step's positive one or a bound >= 0, so
    # the check has no slack, however large |f| is
    problems = verify_trace_arrays([364426.0, 364000.0], [1000.0, -1e-5], [0.25, 0.0], 0.25)
    assert problems == ["negative model improvement recorded"]
    assert verify_trace_arrays([364426.0, 364000.0], [1000.0, 0.0], [0.25, 0.0], 0.25) == []
