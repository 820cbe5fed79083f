"""The two scalar argument rules of ``geometry``, at every site that uses
them: an integer is a ``numbers.Integral`` that is no bool, at least its
minimum and never truncated; a number is a ``numbers.Real`` that is no bool,
and finite when it has a lower bound."""

import math
import re

import numpy as np
import pytest

from modelcg.baselines import ProxLinearConfig
from modelcg.geometry import L1Ball, L2Ball, NuclearBall, Simplex, require_integer, require_number
from modelcg.inner import PiecewiseLinearSubproblem, pdhg_solve
from modelcg.matfac import MfProblem
from modelcg.models import LinearModelOracle, ProximalModelOracle, WeightedL1
from modelcg.regression import generate_regression_data
from modelcg.solver import SolverConfig


def _subproblem(l1_weight=0.5, prox_tau=None):
    return PiecewiseLinearSubproblem(
        K=np.array([[1.0, 2.0], [0.5, -1.0]]), target=np.array([1.0, 0.0]),
        l1_weight=l1_weight, l1_mask=[True, False], lo=np.zeros(2), hi=np.ones(2),
        prox_tau=prox_tau, prox_center=None if prox_tau is None else np.zeros(2),
    )


def _oracle():
    return LinearModelOracle(lambda x: 0.0, lambda x: x)


# (call, bad value, the argument the message names); each of these was
# truncated, accepted, or refused with numpy's TypeError
BAD = [
    (lambda v: Simplex(v), 2.5, "dim"),
    (lambda v: L1Ball(v, 1.0), 2.5, "dim"),
    (lambda v: NuclearBall(v, 3, 1.0), 2.5, "rows"),
    (lambda v: NuclearBall(2, v, 1.0), 2.5, "cols"),
    (lambda v: L2Ball(v, 1.0), True, "dim"),
    (lambda v: L2Ball(3, 1.0, count=v), 2.0, "count"),
    (lambda v: WeightedL1(v), math.nan, "weight"),
    (lambda v: WeightedL1(v), math.inf, "weight"),
    (lambda v: _subproblem(l1_weight=v), math.nan, "l1_weight"),
    (lambda v: ProxLinearConfig(tau0=v), True, "tau0"),
    (lambda v: ProximalModelOracle(_oracle(), v), True, "tau"),
    (lambda v: MfProblem(A=np.ones((3, 3)), inner_dim=2, model="hybrid", tau=v), True, "tau"),
    (lambda v: MfProblem(A=np.ones((3, 3)), inner_dim=2, radius=v), -1.0, "radius"),
    (lambda v: SolverConfig(time_budget_s=v), True, "time_budget_s"),
    (lambda v: SolverConfig(delta_tol=v), math.inf, "delta_tol"),
    (lambda v: generate_regression_data(P=v, M=20), 2.5, "P"),
    (lambda v: generate_regression_data(P=4, M=20, seed=v), 1.5, "seed"),
    (lambda v: generate_regression_data(P=4, M=20, mu=v), True, "mu"),
]


@pytest.mark.parametrize("call, value, name", BAD, ids=[
    "simplex-dim", "l1-dim", "nuclear-rows", "nuclear-cols", "l2-dim-bool", "l2-count",
    "weight-nan", "weight-inf", "l1_weight-nan", "tau0-bool", "prox-tau-bool", "mf-tau-bool",
    "mf-radius", "time-budget-bool", "delta-tol-inf", "regression-P", "regression-seed",
    "regression-mu-bool",
])
def test_a_bad_argument_is_refused_by_name(call, value, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be .*, got {re.escape(repr(value))}$"):
        call(value)


def test_valid_arguments_stay_valid():
    # numpy integers are integers, and an int is a number
    assert Simplex(np.int64(3)).dim == 3 and type(Simplex(np.int64(3)).dim) is int
    assert L2Ball(np.int32(3), 1, count=np.int64(2)).dim == 6
    ball = NuclearBall(np.int64(2), np.uint8(3), 2)
    assert (ball.dim, ball.radius) == (6, 2.0) and type(ball.radius) is float
    assert L1Ball(4, np.float32(0.5)).radius == 0.5
    assert WeightedL1(0).weight == 0.0 and ProximalModelOracle(_oracle(), 3).tau == 3.0
    assert ProxLinearConfig(tau0=np.float64(2.0)).tau0 == 2.0
    problem = MfProblem(A=np.ones((3, 3)), inner_dim=np.int64(2), radius=2, tau=1)
    assert problem.shape == (3, 2, 3) and (problem.radius, problem.tau) == (2.0, 1.0)
    cfg = SolverConfig(max_iterations=np.int64(3), delta_tol=1, time_budget_s=math.inf)
    assert cfg.max_iterations == 3 and SolverConfig(time_budget_s=0).time_budget_s == 0
    ds = generate_regression_data(P=np.int64(4), M=np.int32(20), mu=2, a_max=3, seed=np.int64(1))
    assert (ds.P, ds.M, ds.seed, ds.mu, ds.a_max) == (4, 20, 1, 2.0, 3.0)
    assert all(type(getattr(ds, k)) is int for k in ("P", "M", "seed"))
    sub = _subproblem(l1_weight=0, prox_tau=2)
    assert pdhg_solve(sub, gap_tol=0, max_iters=0).iterations == 0
    assert pdhg_solve(sub, gap_tol=0.0, max_iters=np.int64(3)).iterations == 3


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(True), "2", None, -1, 0])
def test_require_integer_refuses_what_is_not_an_integer_at_its_minimum(value):
    with pytest.raises(ValueError, match=r"^n must be an integer >= 1, got "):
        require_integer(value, "n", 1)


def test_require_integer_states_its_minimum():
    assert require_integer(np.int64(7), "n") == 7 and require_integer(-3, "n") == -3
    with pytest.raises(ValueError, match=r"^n must be an integer, got 7\.0$"):
        require_integer(7.0, "n")
    with pytest.raises(ValueError, match=r"^seed must be non-negative and an integer, got -1$"):
        require_integer(-1, "seed", 0)
    with pytest.raises(ValueError, match=r"^k must be an integer >= 5, got 4$"):
        require_integer(4, "k", 5)


@pytest.mark.parametrize("bound, good, bad, need", [
    (None, [math.nan, -math.inf, -1, np.float32(2.5)], [True, "1", None], "a number"),
    ("finite", [-1.0, 0, np.float64(3.0)], [math.nan, math.inf, -math.inf, False],
     "a finite number"),
    ("positive", [1e-300, 5, np.float64(1e300)], [0.0, -1.0, math.inf, math.nan, True],
     "positive and finite"),
    ("non-negative", [0.0, -0.0, 2], [-1e-300, math.inf, math.nan, True],
     "finite and non-negative"),
])
def test_require_number_holds_a_number_to_its_bound(bound, good, bad, need):
    for v in good:
        out = require_number(v, "x", bound)
        assert type(out) is float and (out == v or math.isnan(v))
    for v in bad:
        with pytest.raises(ValueError, match=f"^x must be {need}, got "):
            require_number(v, "x", bound)
