import numpy as np
import pytest

from modelcg.baselines import (
    ProxLinearConfig,
    TauUnderflowError,
    prox_linear_bt_solve,
    prox_linear_ls_solve,
)
from modelcg.geometry import Box
from modelcg.models import LinearModelOracle, ModelInstance, ModelMinimum, ProximalModelOracle
from modelcg.regression import (
    generate_regression_data,
    make_constraint_set,
    make_objective,
    make_oracle,
)
from modelcg.solver import SolverConfig, mcgm_solve, rate_certificate, verify_trace_arrays

from conftest import feasible_only


def quadratic_setup(seed=0, dim=2):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    Q = A.T @ A + np.eye(dim)
    b = rng.standard_normal(dim)
    fun = lambda x: 0.5 * float(np.asarray(x) @ (Q @ np.asarray(x))) + float(b @ x)
    grad = lambda x: Q @ np.asarray(x, float) + b
    return fun, grad, Q, Box(-np.ones(dim), np.ones(dim))


def test_config_validation():
    with pytest.raises(ValueError):
        ProxLinearConfig(tau0=1e-15)  # below the weight floor
    for tau0 in (np.inf, np.nan):
        with pytest.raises(ValueError, match="tau0"):
            ProxLinearConfig(tau0=tau0)
    with pytest.raises(ValueError):
        ProximalModelOracle(LinearModelOracle(lambda x: 0.0, lambda x: x), 0.0)


def test_ls_large_tau_matches_conditional_gradient_limit():
    fun, grad, Q, box = quadratic_setup(seed=3)
    oracle = LinearModelOracle(fun, grad)
    cfg = SolverConfig(max_iterations=3000, delta_tol=1e-9)
    cg = mcgm_solve(oracle, fun, box, np.zeros(2), cfg=cfg)
    ls = prox_linear_ls_solve(oracle, fun, box, np.zeros(2),
                              plcfg=ProxLinearConfig(tau0=1e7), cfg=cfg)
    np.testing.assert_allclose(ls.final_x, cg.final_x, atol=1e-4)
    assert abs(ls.final_f - cg.final_f) <= 1e-4


def test_ls_prox_regularized_model_values():
    fun, grad, Q, box = quadratic_setup(seed=4)
    oracle = ProximalModelOracle(LinearModelOracle(fun, grad), 0.5)
    x = np.array([0.2, -0.1])
    m = oracle.instantiate(x)
    z = np.array([0.5, 0.5])
    expected = fun(x) + grad(x) @ (z - x) + ((z - x) @ (z - x)) / (2 * 0.5)
    assert m.value(z) == pytest.approx(expected, rel=1e-12)
    assert m.value(x) == pytest.approx(fun(x), rel=1e-12)
    # the model step is a projected gradient step
    y = m.minimize(box, 0.0).point
    np.testing.assert_allclose(y, box.project(x - 0.5 * grad(x)), atol=1e-12)


def test_bt_accepts_first_trial_below_inverse_curvature():
    # descent lemma: with tau <= 1/L the proximal step always satisfies the
    # acceptance test, so the first iteration takes no shrink trial (later
    # ones start from an expanded weight, which may exceed 1/L)
    fun, grad, Q, box = quadratic_setup(seed=5)
    L = float(np.linalg.eigvalsh(Q)[-1])
    oracle = LinearModelOracle(fun, grad)
    trace = prox_linear_bt_solve(
        oracle, fun, box, np.zeros(2),
        plcfg=ProxLinearConfig(tau0=0.9 / L),
        cfg=SolverConfig(max_iterations=1, delta_tol=1e-9),
    )
    first = trace.records[0]
    assert first.gamma == 1.0
    assert first.backtracks == 0 and first.inner_solves == 1


def test_bt_underflow_on_never_accepting_objective():
    # +inf away from the start: no trial can ever be accepted
    x0 = np.zeros(2)

    def fun(x):
        return 0.0 if np.allclose(x, x0) else np.inf

    oracle = LinearModelOracle(fun, lambda x: np.array([1.0, 1.0]))
    box = Box(-np.ones(2), np.ones(2))
    with pytest.raises(TauUnderflowError, match="at iteration 0 "):
        prox_linear_bt_solve(oracle, fun, box, x0,
                             plcfg=ProxLinearConfig(tau0=1.0),
                             cfg=SolverConfig(max_iterations=5))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_bt_rejects_a_non_finite_start_value(bad):
    fun = lambda x: bad
    oracle = LinearModelOracle(fun, lambda x: np.ones(2))
    with pytest.raises(ValueError, match=r"f\(x0\)"):
        prox_linear_bt_solve(oracle, fun, Box(-np.ones(2), np.ones(2)), np.zeros(2))


def test_bt_cost_signature_on_regression_problem():
    ds = generate_regression_data(P=5, M=40, mu=2.0, seed=2)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    trace = prox_linear_bt_solve(make_oracle(ds), fun, box, box.midpoint(),
                                 cfg=SolverConfig(max_iterations=60))
    assert trace.status == "stationary"
    assert all(r.inner_solves >= 1 for r in trace.records)
    assert trace.total_inner_solves() >= len(trace.records)
    assert all(r.inner_solves == 1 + r.backtracks for r in trace.records)


def test_bt_time_budget_status():
    ds = generate_regression_data(P=6, M=60, mu=2.0, seed=4)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    trace = prox_linear_bt_solve(
        make_oracle(ds), fun, box, box.midpoint(),
        cfg=SolverConfig(max_iterations=10000, time_budget_s=0.0),
    )
    assert trace.status in ("time_budget", "stationary")
    assert len(trace.records) == 1


class _UnprojectedLinearModel(ModelInstance):
    """A broken linear model whose proximal step ignores the set."""

    def __init__(self, anchor, grad):
        super().__init__(anchor, float(np.sum(anchor)))
        self.grad = grad

    def minimize_proximal(self, constraint, eps, tau, warm=None):
        # the unconstrained step improves the regularized model by tau |g|^2 / 2
        improvement = 0.5 * tau * float(self.grad @ self.grad)
        return ModelMinimum(point=self.anchor - tau * self.grad, improvement=improvement, gap=0.0)


class _UnprojectedOracle:
    def instantiate(self, anchor):
        return _UnprojectedLinearModel(np.asarray(anchor, float), np.ones(2))


def test_bt_feasibility_check_catches_iterate_leaving_the_set():
    fun = lambda x: float(np.sum(x))
    box = Box(-np.ones(2), np.ones(2))
    plcfg = ProxLinearConfig(tau0=4.0)
    # the first full step lands at (-4, -4), outside the box
    trace = prox_linear_bt_solve(_UnprojectedOracle(), fun, box, np.zeros(2), plcfg=plcfg,
                                 cfg=SolverConfig(max_iterations=2))
    assert not box.contains(trace.final_x)
    # the checked objective the feasibility tests use catches that trial
    with pytest.raises(AssertionError, match="outside the set"):
        prox_linear_bt_solve(_UnprojectedOracle(), feasible_only(fun, box), box, np.zeros(2),
                             plcfg=plcfg, cfg=SolverConfig(max_iterations=2))


class _ScriptedProxOracle:
    """Linear models of f(x) = 1000 - x whose i-th proximal solve returns
    the point anchor + script[i][0], its regularized improvement and gap
    script[i][1], recording the weight and the warm state it was given."""

    def __init__(self, script):
        self.script = script
        self.calls = []

    def instantiate(self, anchor):
        oracle = self

        class Model(ModelInstance):
            def minimize_proximal(self, constraint, tol, tau, warm=None):
                step, gap = oracle.script[len(oracle.calls)]
                oracle.calls.append((tau, warm))
                return ModelMinimum(point=self.anchor + step, improvement=step - step**2 / (2 * tau),
                                    gap=gap, state=len(oracle.calls))

        return Model(anchor, 1000.0 - float(anchor[0]))


def test_bt_zero_step_keeps_the_weight():
    # the first solve ends uncertified with the improvement 1*(-1) - 1/2 < 0:
    # the iterate and the weight stay, and the next iteration continues the
    # solve from its state; the second step is accepted in full
    fun = lambda x: 1000.0 - float(x[0])
    box = Box(np.zeros(1), np.full(1, 100.0))
    oracle = _ScriptedProxOracle([(-1.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
    trace = prox_linear_bt_solve(oracle, fun, box, np.zeros(1),
                                 cfg=SolverConfig(delta_tol=1e-6))
    assert trace.status == "stationary"
    assert oracle.calls == [(1.0, None), (1.0, 1), (2.0, 2)]
    assert [r.f_value for r in trace.records] == [1000.0, 1000.0, 999.0]
    assert [(r.delta, r.gamma, r.inner_solves) for r in trace.records] == [
        (1.0, 0.0, 1), (0.5, 1.0, 1), (0.0, 0.0, 1),
    ]


def test_both_baselines_monotone_and_certified():
    ds = generate_regression_data(P=5, M=40, mu=2.0, seed=9)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    x0 = box.midpoint()
    for solve in (prox_linear_ls_solve, prox_linear_bt_solve):
        cfg = SolverConfig(max_iterations=80)
        trace = solve(make_oracle(ds), feasible_only(fun, box), box, x0, cfg=cfg)
        f, d, g = trace.arrays()
        assert verify_trace_arrays(f, d, g, trace.rho, final_f=trace.final_f) == []
        assert rate_certificate(trace).passed
        assert np.all(np.diff(f) <= 1e-9)


def test_all_three_methods_reach_small_stationarity():
    ds = generate_regression_data(P=5, M=40, mu=2.0, seed=11)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    x0 = box.midpoint()
    cfg = SolverConfig(max_iterations=200, delta_tol=1e-6)
    finals = {}
    o = make_oracle(ds)
    finals["mcgm"] = mcgm_solve(o, fun, box, x0, cfg=cfg).final_x
    finals["ls"] = prox_linear_ls_solve(make_oracle(ds), fun, box, x0, cfg=cfg).final_x
    finals["bt"] = prox_linear_bt_solve(make_oracle(ds), fun, box, x0, cfg=cfg).final_x
    for name, x in finals.items():
        meas = make_oracle(ds).instantiate(x).minimize(box, 1e-7).bound
        assert meas <= 1e-5, (name, meas)


def test_ls_trace_has_single_solve_per_iteration():
    ds = generate_regression_data(P=5, M=40, mu=2.0, seed=13)
    fun = make_objective(ds)
    box = make_constraint_set(ds)
    trace = prox_linear_ls_solve(make_oracle(ds), fun, box, box.midpoint(),
                                 cfg=SolverConfig(max_iterations=60))
    assert all(r.inner_solves == 1 for r in trace.records)
