import numpy as np
import pytest

from modelcg.geometry import Box, ProductSet
from modelcg.inner import pdhg_solve
from modelcg.models import (
    AdditiveCompositeOracle,
    GaussNewtonOracle,
    LinearModelOracle,
    ModelInstance,
    ProximalModelOracle,
    WeightedL1,
    linear_composite_min,
    prox_penalized,
)
from modelcg.regression import generate_regression_data, make_constraint_set, make_objective, make_oracle, make_subproblem
from modelcg.runner import METHOD_NAMES, run_method
from modelcg.solver import mcgm_solve, verify_trace_arrays

from conftest import central_difference
from model_error import PowerGrowth, model_error_growth, verify_model_error
from oracle import brute_force_subproblem


def quadratic_problem(dim=4, seed=0):
    """Convex quadratic on a box with every constant known analytically."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    Q = A.T @ A + 0.5 * np.eye(dim)
    b = rng.standard_normal(dim)
    lam = np.linalg.eigvalsh(Q)

    def f(x):
        x = np.asarray(x, float)
        return 0.5 * float(x @ (Q @ x)) + float(b @ x)

    def grad(x):
        return Q @ np.asarray(x, float) + b

    box = Box(-np.ones(dim), np.ones(dim))
    return f, grad, Q, float(lam[-1]), box


def all_oracles(dim=4, seed=0, mu=0.3):
    f, grad, Q, lmax, box = quadratic_problem(dim, seed)
    pen = WeightedL1(mu)

    def f_pen(x):
        return f(x) + pen.value(x)

    hybrid_box = ProductSet([Box(-np.ones(2), np.ones(2)), Box(-np.ones(dim - 2), np.ones(dim - 2))])
    return [
        ("linear", LinearModelOracle(f, grad), f, box),
        ("additive", AdditiveCompositeOracle(pen, f, grad), f_pen, box),
        ("hybrid", ProximalModelOracle(AdditiveCompositeOracle(pen, f, grad), 0.7,
                                       np.arange(dim) < 2), f_pen, hybrid_box),
    ]


# ---------------------------------------------------------------------------
# linear models
# ---------------------------------------------------------------------------


def test_linear_model_anchor_identity():
    def f(x):
        return 0.5 * float(np.asarray(x) @ np.asarray(x))

    oracle = LinearModelOracle(f, lambda x: np.asarray(x, float))
    m = oracle.instantiate(np.array([1.0, 0.0]))
    assert m.anchor_value == pytest.approx(0.5)
    assert m.value(np.array([1.0, 0.0])) == pytest.approx(0.5)
    # m(x) = 1/2 + <(1,0), x - (1,0)>
    assert m.value(np.array([2.0, 3.0])) == pytest.approx(1.5)


def test_linear_model_constant_objective():
    oracle = LinearModelOracle(lambda x: 7.0, lambda x: np.zeros(2))
    box = Box(-np.ones(2), np.ones(2))
    m = oracle.instantiate(np.array([0.2, -0.3]))
    for y in (np.zeros(2), np.ones(2), np.array([-1.0, 0.5])):
        assert m.anchor_value - m.value(y) == pytest.approx(0.0, abs=1e-15)
    assert m.minimize(box, 0.0).improvement == pytest.approx(0.0, abs=1e-15)


def test_linear_model_error_within_curvature_bound(rng):
    f, grad, Q, lmax, box = quadratic_problem()
    oracle = LinearModelOracle(f, grad)
    omega = PowerGrowth(lmax, 1.0)  # (L/2) t^2
    report = verify_model_error(oracle, f, box, omega, n_samples=100, seed=3)
    assert report.passed and report.max_violation <= 1e-10


# ---------------------------------------------------------------------------
# additive composite models
# ---------------------------------------------------------------------------


def test_additive_composite_reduces_to_linear_when_penalty_zero(rng):
    f, grad, Q, lmax, box = quadratic_problem()
    lin = LinearModelOracle(f, grad)
    add = AdditiveCompositeOracle(None, f, grad)
    x = box.sample(rng)
    ml, ma = lin.instantiate(x), add.instantiate(x)
    for _ in range(10):
        z = box.sample(rng)
        assert ma.value(z) == pytest.approx(ml.value(z), rel=1e-12)
    np.testing.assert_allclose(
        ma.minimize(box, 0.0).point, ml.minimize(box, 0.0).point
    )


def test_additive_composite_formula(rng):
    f, grad, Q, lmax, box = quadratic_problem()
    pen = WeightedL1(0.8, np.array([True, True, False, False]))
    oracle = AdditiveCompositeOracle(pen, f, grad)
    x = box.sample(rng)
    m = oracle.instantiate(x)
    g = grad(x)
    for _ in range(20):
        z = box.sample(rng)
        expected = pen.value(z) + f(x) + g @ (z - x)
        assert m.value(z) == pytest.approx(expected, rel=1e-12)


def test_segment_change_only_from_a_zero_penalty_with_a_remainder(rng):
    # a quadratic's linearization error along d is g^2 d^T Q d / 2
    f, grad, Q, lmax, box = quadratic_problem()
    remainder = lambda x, d: (0.5 * float(d @ (Q @ d)), 0.0, 0.0)
    x, y = box.sample(rng), box.sample(rng)
    smooth = AdditiveCompositeOracle(None, f, grad, remainder)
    masked = ProximalModelOracle(smooth, 0.7, np.arange(4) < 2)
    for oracle in (smooth, masked):
        change = oracle.instantiate(x).segment_change(y)
        for g in (1.0, 0.25, 1e-3):
            assert change(g) == pytest.approx(f(x + g * (y - x)) - f(x), rel=1e-12, abs=1e-14)
    without = (
        AdditiveCompositeOracle(WeightedL1(0.3), f, grad, remainder),
        LinearModelOracle(f, grad),
        GaussNewtonOracle(lambda z: z, lambda z: np.eye(4), np.zeros(4)),
    )
    for oracle in without:
        assert oracle.instantiate(x).segment_change(y) is None


def test_additive_composite_model_error_bound():
    f, grad, Q, lmax, box = quadratic_problem()
    pen = WeightedL1(0.8)
    oracle = AdditiveCompositeOracle(pen, f, grad)
    fun = lambda x: f(x) + pen.value(x)
    report = verify_model_error(oracle, fun, box, PowerGrowth(lmax, 1.0), n_samples=150, seed=1)
    assert report.passed


def test_linear_composite_min_is_exact(rng):
    box = Box(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 2.0, 0.5]))
    pen = WeightedL1(0.6, np.array([True, False, True]))
    for _ in range(50):
        c = rng.standard_normal(3)
        y = linear_composite_min(pen, c, box)
        assert box.contains(y, 1e-12)
        val = pen.value(y) + c @ y
        grid = np.stack(np.meshgrid(*[np.linspace(l, h, 81) for l, h in zip(box.lo, box.hi)],
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        grid_best = (0.6 * np.abs(grid[:, [0, 2]]).sum(1) + grid @ c).min()
        assert val <= grid_best + 1e-9


def test_prox_penalized_matches_candidates(rng):
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    pen = WeightedL1(0.5)
    for _ in range(30):
        z = 2.0 * rng.standard_normal(2)
        step = 0.1 + rng.random()
        y = prox_penalized(pen, z, step, box)
        t = np.linspace(0, 1, 301)
        for j in range(2):
            axis = box.lo[j] + t * (box.hi[j] - box.lo[j])
            vals = 0.5 * np.abs(axis) + (axis - z[j]) ** 2 / (2 * step)
            best = vals.min()
            mine = 0.5 * abs(y[j]) + (y[j] - z[j]) ** 2 / (2 * step)
            assert mine <= best + 1e-6


# ---------------------------------------------------------------------------
# hybrid models: a proximal term on the masked blocks only
# ---------------------------------------------------------------------------

FIRST_BLOCK = np.array([True, True, False, False])


def test_hybrid_closed_form_blocks(rng):
    f, grad, Q, lmax, _ = quadratic_problem()
    c1 = Box(-np.ones(2), np.ones(2))
    c2 = Box(-np.ones(2), np.ones(2))
    prod = ProductSet([c1, c2])
    tau = 0.3
    oracle = ProximalModelOracle(AdditiveCompositeOracle(None, f, grad), tau, FIRST_BLOCK)
    x = prod.sample(rng)
    m = oracle.instantiate(x)
    res = m.minimize(prod, 0.0)
    g = grad(x)
    np.testing.assert_allclose(res.point[:2], np.clip(x[:2] - tau * g[:2], -1, 1))
    np.testing.assert_allclose(res.point[2:], c2.lmo(g[2:]))
    # anchor identity: the quadratic term vanishes at the anchor
    assert m.value(x) == pytest.approx(f(x), rel=1e-12)


def test_hybrid_large_tau_approaches_conditional_gradient(rng):
    f, grad, Q, lmax, _ = quadratic_problem(dim=4, seed=2)
    prod = ProductSet([Box(-np.ones(2), np.ones(2)), Box(-np.ones(2), np.ones(2))])
    x = prod.sample(rng)
    big = ProximalModelOracle(AdditiveCompositeOracle(None, f, grad), 1e6, FIRST_BLOCK)
    big = big.instantiate(x)
    y_big = big.minimize(prod, 0.0).point
    y_cg = prod.lmo(grad(x))
    np.testing.assert_allclose(y_big, y_cg, atol=1e-4)


def test_hybrid_mask_selects_the_proximal_block(rng):
    f, grad, Q, lmax, _ = quadratic_problem()
    prod = ProductSet([Box(-np.ones(2), np.ones(2)), Box(-np.ones(2), np.ones(2))])
    x = prod.sample(rng)
    oracle = ProximalModelOracle(AdditiveCompositeOracle(None, f, grad), 0.4, ~FIRST_BLOCK)
    res = oracle.instantiate(x).minimize(prod, 0.0)
    g = grad(x)
    np.testing.assert_allclose(res.point[:2], prod.sets[0].lmo(g[:2]))
    np.testing.assert_allclose(res.point[2:], np.clip(x[2:] - 0.4 * g[2:], -1, 1))


def test_hybrid_hands_each_block_the_penalty_of_its_coordinates(rng):
    # each block was handed the penalty of the whole vector, so a masked one
    # raised "penalty mask does not match the dimension"
    f, grad, Q, lmax, _ = quadratic_problem()
    weight, tau = 0.1, 1.0
    pen = WeightedL1(weight, np.array([True, False, True, False]))
    prod = ProductSet([Box(np.zeros(2), np.ones(2)), Box(np.zeros(2), np.ones(2))])
    oracle = ProximalModelOracle(AdditiveCompositeOracle(pen, f, grad), tau, FIRST_BLOCK)
    for _ in range(10):
        x = prod.sample(rng)
        res = oracle.instantiate(x).minimize(prod, 0.0)
        g = grad(x)
        z = x[:2] - tau * g[:2]
        soft = np.sign(z) * np.maximum(np.abs(z) - tau * np.array([weight, 0.0]), 0.0)
        np.testing.assert_array_equal(res.point[:2], np.clip(soft, 0.0, 1.0))
        lmo_block = linear_composite_min(WeightedL1(weight, np.array([True, False])), g[2:],
                                         prod.sets[1])
        np.testing.assert_array_equal(res.point[2:], lmo_block)
    trace = mcgm_solve(oracle, lambda u: f(u) + pen.value(u), prod, prod.sample(rng))
    assert trace.final_f <= trace.f0


# h = ||x - C||^2 / 2 plus 0.1 (|x_1| + |x_3|) over two unit boxes: the
# minimizer is (0.2, 0.1, 0.6, 0.2), with f = 0.01 + 0.08
PRODUCT_TARGET = np.array([0.3, 0.1, 0.7, 0.2])


def penalized_product_inputs():
    pen = WeightedL1(0.1, [True, False, True, False])
    h = lambda x: 0.5 * float((x - PRODUCT_TARGET) @ (x - PRODUCT_TARGET))
    grad = lambda x: np.asarray(x, float) - PRODUCT_TARGET
    prod = ProductSet([Box(np.zeros(2), np.ones(2)), Box(np.zeros(2), np.ones(2))])
    fun = lambda x: h(x) + pen.value(x)
    return fun, AdditiveCompositeOracle(pen, h, grad), prod, np.full(4, 0.5), FIRST_BLOCK


def test_every_step_takes_a_penalized_product_set_block_by_block():
    # the linear and the unmasked proximal step took the whole product set,
    # for which neither closed form exists, and raised NotImplementedError
    fun, oracle, prod, x0, block = penalized_product_inputs()
    m = oracle.instantiate(x0)
    g, tau = x0 - PRODUCT_TARGET, 1.0
    linear = m.minimize(prod, 0.0).point
    proximal = m.minimize_proximal(prod, 0.0, tau).point
    hybrid = m.minimize_proximal(prod, 0.0, tau, mask=block).point
    pen_b = WeightedL1(0.1, [True, False])
    for box, s in zip(prod.sets, (slice(0, 2), slice(2, 4))):
        np.testing.assert_array_equal(linear[s], linear_composite_min(pen_b, g[s], box))
        np.testing.assert_array_equal(proximal[s], prox_penalized(pen_b, x0[s] - tau * g[s], tau, box))
    np.testing.assert_array_equal(hybrid, np.concatenate([proximal[:2], linear[2:]]))


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_every_method_solves_a_penalized_product_set(method):
    # mcgm, proxlin_ls and proxlin_bt raised NotImplementedError, while
    # mcgm_hybrid, whose masked step went block by block, solved it
    trace = run_method(method, penalized_product_inputs())
    assert verify_trace_arrays(*trace.arrays(), rho=trace.rho, final_f=trace.final_f) == []
    assert trace.final_f < trace.f0
    if method.startswith("proxlin"):
        assert trace.status == "stationary"
        np.testing.assert_allclose(trace.final_x, [0.2, 0.1, 0.6, 0.2], rtol=0, atol=1e-12)
        assert trace.final_f == pytest.approx(0.09, rel=1e-12)


class _Ridge:
    def value(self, x):
        return float(np.asarray(x) @ np.asarray(x))


@pytest.mark.parametrize("build", [
    lambda pen: AdditiveCompositeOracle(pen, lambda x: 0.0, np.zeros_like),
    lambda pen: GaussNewtonOracle(lambda x: x, lambda x: np.eye(2), np.zeros(2), pen),
], ids=["additive", "gauss-newton"])
def test_an_oracle_refuses_a_penalty_that_is_not_a_weighted_l1(build):
    # another penalty object was accepted and failed only at the first solve
    with pytest.raises(ValueError, match=r"^penalty must be a WeightedL1, got <.*\._Ridge object "):
        build(_Ridge())
    assert build(None).penalty.weight == 0.0


def test_a_model_without_a_solve_names_its_class(rng):
    # both used to raise a NotImplementedError without a message, and a
    # proximal oracle wrapped again (as proxlin_ls did on a hybrid problem)
    # failed that way at its first solve
    f, grad, Q, lmax, box = quadratic_problem()
    x = box.sample(rng)
    twice = ProximalModelOracle(ProximalModelOracle(AdditiveCompositeOracle(None, f, grad), 1.0),
                                1.0)
    with pytest.raises(NotImplementedError, match="^_ProxRegularizedModel has no proximal solve$"):
        twice.instantiate(x).minimize(box, 0.0)
    bare = ModelInstance(x, f(x))
    with pytest.raises(NotImplementedError, match="^ModelInstance has no model solve$"):
        bare.minimize(box, 0.0)
    with pytest.raises(NotImplementedError, match="^ModelInstance has no proximal solve$"):
        bare.minimize_proximal(box, 0.0, 1.0)


def test_proximal_mask_contract(rng):
    f, grad, Q, lmax, box = quadratic_problem()
    base = AdditiveCompositeOracle(None, f, grad)
    x = 0.5 * box.sample(rng)
    # the mask must cover whole product-set blocks, and needs a product set
    split = ProximalModelOracle(base, 0.5, np.array([True, False, False, False])).instantiate(x)
    assert isinstance(split, ModelInstance)
    prod = ProductSet([Box(-np.ones(2), np.ones(2)), Box(-np.ones(2), np.ones(2))])
    with pytest.raises(ValueError, match="splits block 0"):
        split.minimize(prod, 0.0)
    with pytest.raises(ValueError, match="product set"):
        ProximalModelOracle(base, 0.5, FIRST_BLOCK).instantiate(x).minimize(box, 0.0)
    with pytest.raises(ValueError, match="does not match the anchor"):
        ProximalModelOracle(base, 0.5, np.ones(3, dtype=bool)).instantiate(x)
    for tau in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            ProximalModelOracle(base, tau)
    # the Gauss-Newton family has no masked proximal step
    ds = generate_regression_data(P=3, M=15, mu=1.0, seed=21)
    gn_box = make_constraint_set(ds)
    anchor = gn_box.midpoint()
    m = make_oracle(ds).instantiate(anchor)
    with pytest.raises(NotImplementedError):
        m.minimize_proximal(gn_box, 1e-6, 0.5, mask=np.ones(anchor.size, dtype=bool))


# ---------------------------------------------------------------------------
# composed-residual (Gauss-Newton-type) models
# ---------------------------------------------------------------------------


def test_gauss_newton_affine_residual_is_exact(rng):
    # affine residual map: the model equals the objective, so maximal model
    # improvement equals direct minimization over the set
    A = rng.standard_normal((5, 3))
    v = rng.standard_normal(5)
    targets = rng.standard_normal(5)
    oracle = GaussNewtonOracle(
        lambda u: A @ u + v, lambda u: A, targets,
        penalty=WeightedL1(0.4, np.array([True, False, True])),
    )
    box = Box(-np.ones(3), np.ones(3))
    fun = lambda u: float(np.abs(A @ u + v - targets).sum()) + 0.4 * (abs(u[0]) + abs(u[2]))
    x = box.sample(rng)
    m = oracle.instantiate(x)
    for _ in range(20):
        z = box.sample(rng)
        assert m.value(z) == pytest.approx(fun(z), rel=1e-12)
    # solved to a gap of 1e-10 (the model's own solve stops by the outer
    # loop's rule, at a gap relative to the improvement)
    res = pdhg_solve(m.subproblem(box), gap_tol=1e-10)
    _, direct = brute_force_subproblem(m.subproblem(box))
    assert fun(res.u) == pytest.approx(direct, abs=1e-7)


@pytest.mark.parametrize("targets, message", [
    (np.zeros(1), "targets do not match the residual dimension"),
    (np.zeros((4, 1)), "targets do not match the residual dimension"),
    ([0.0, np.nan, 0.0, 0.0], "targets contains non-finite entries"),
], ids=["short", "column", "nan"])
def test_gauss_newton_targets_are_checked(targets, message):
    # targets of one entry broadcast against any residual: the model took
    # the l1 distance of every residual entry to that one value
    with pytest.raises(ValueError, match=message):
        GaussNewtonOracle(lambda u: u, lambda u: np.eye(4), targets).instantiate(np.ones(4))


def test_gauss_newton_regression_structure_matches_subproblem(rng):
    ds = generate_regression_data(P=3, M=12, mu=1.5, a_max=3.0, b_max=2.0, seed=5)
    oracle = make_oracle(ds)
    box = make_constraint_set(ds)
    u = box.sample(rng)
    m = oracle.instantiate(u)
    sub = make_subproblem(ds, u)
    for _ in range(100):
        z = box.sample(rng)
        assert m.value(z) == pytest.approx(sub.objective(z), rel=1e-12, abs=1e-12)


def test_gauss_newton_model_error_bound():
    ds = generate_regression_data(P=3, M=12, mu=1.5, a_max=3.0, b_max=2.0, seed=6)
    oracle = make_oracle(ds)
    box = make_constraint_set(ds)
    fun = make_objective(ds)
    report = verify_model_error(oracle, fun, box, model_error_growth(ds), n_samples=150, seed=2)
    assert report.passed


# ---------------------------------------------------------------------------
# model improvement and shared invariants
# ---------------------------------------------------------------------------


def test_model_improvement_examples(rng):
    # a solve reports anchor_value - value(point), a proximal one with the
    # quadratic in the model's own order of operations, so bit for bit;
    # the Gauss-Newton solve reports the subproblem's primal value
    f, grad, Q, lmax, box = quadratic_problem()
    oracles = all_oracles() + [("prox", ProximalModelOracle(LinearModelOracle(f, grad), 0.7), f, box)]
    for name, oracle, fun, set_ in oracles:
        m = oracle.instantiate(set_.sample(rng))
        res = m.minimize(set_, 0.0)
        assert res.improvement == m.anchor_value - m.value(res.point), name
        assert res.improvement >= -1e-12, name
        assert res.bound == max(res.improvement, 0.0), name
    x = box.sample(rng)
    res = LinearModelOracle(f, grad).instantiate(x).minimize(box, 0.0)
    assert res.improvement == pytest.approx(float(grad(x) @ (x - res.point)), rel=1e-10)
    ds = generate_regression_data(P=3, M=15, mu=1.0, seed=21)
    box = make_constraint_set(ds)
    m = make_oracle(ds).instantiate(box.sample(rng))
    res = m.minimize(box, 1e-8)
    assert res.improvement == m.anchor_value - m.subproblem(box).objective(res.point)
    assert res.improvement == pytest.approx(m.anchor_value - m.value(res.point), rel=1e-9)


def test_anchor_identity_all_families(rng):
    for name, oracle, fun, box in all_oracles():
        for _ in range(10):
            x = box.sample(rng)
            m = oracle.instantiate(x)
            assert abs(m.anchor_value - fun(x)) <= 1e-12 * (1 + abs(fun(x))), name
            assert abs(m.value(x) - fun(x)) <= 1e-12 * (1 + abs(fun(x))), name


def test_midpoint_convexity_all_families(rng):
    for name, oracle, fun, box in all_oracles():
        m = oracle.instantiate(box.sample(rng))
        for _ in range(200):
            x, y = box.sample(rng), box.sample(rng)
            lam = rng.random()
            lhs = m.value(lam * x + (1 - lam) * y)
            rhs = lam * m.value(x) + (1 - lam) * m.value(y)
            assert lhs <= rhs + 1e-10, name


def test_exact_minimizer_dominance(rng):
    eps = 1e-9
    for name, oracle, fun, box in all_oracles():
        x = box.sample(rng)
        m = oracle.instantiate(x)
        res = m.minimize(box, eps)
        for _ in range(50):
            y = box.sample(rng)
            d_y = m.anchor_value - m.value(y)
            assert res.improvement >= d_y - max(eps, res.gap) - 1e-12, name


def test_exact_minimizer_dominance_gauss_newton(rng):
    ds = generate_regression_data(P=3, M=15, mu=1.0, seed=21)
    oracle = make_oracle(ds)
    box = make_constraint_set(ds)
    x = box.sample(rng)
    m = oracle.instantiate(x)
    res = m.minimize(box, 1e-8)
    slack = max(res.gap, 1e-8)
    for _ in range(50):
        y = box.sample(rng)
        assert res.improvement >= (m.anchor_value - m.value(y)) - slack - 1e-12


def test_gradient_consistency_at_anchor(rng):
    # smooth objective: the model gradient at the anchor must match the
    # finite-difference objective gradient for every penalty-free family
    f, grad, Q, lmax, box = quadratic_problem(seed=8)
    oracles = [
        LinearModelOracle(f, grad),
        AdditiveCompositeOracle(None, f, grad),
        ProximalModelOracle(AdditiveCompositeOracle(None, f, grad), 0.5, FIRST_BLOCK),
    ]
    x = 0.5 * box.sample(rng)
    g_true = grad(x)
    for oracle in oracles:
        m = oracle.instantiate(x)
        g_fd = central_difference(m.value, x)
        assert np.linalg.norm(g_fd - g_true) / np.linalg.norm(g_true) < 1e-5, oracle


def test_weighted_l1_mask_validation():
    pen = WeightedL1(1.0, np.array([True, False]))
    with pytest.raises(ValueError):
        pen.value(np.zeros(3))
    with pytest.raises(ValueError):
        pen.weights_vector(3)
    with pytest.raises(ValueError):
        WeightedL1(-1.0)


def test_custom_model_family_plugs_into_the_solver(rng):
    # the oracle contract is open: any family producing anchored convex
    # surrogates with a minimize method that reports the improvement of its
    # point drives the outer loop, which never evaluates the model. This one
    # linearizes but keeps an exact quadratic on the first coordinate.
    f, grad, Q, lmax, box = quadratic_problem(seed=9)

    class PartialQuadraticModel:
        def __init__(self, anchor):
            self.anchor = np.asarray(anchor, float)
            self.anchor_value = f(anchor)
            self.grad = grad(anchor)
            self.q11 = Q[0, 0]

        def minimize(self, constraint, eps, warm=None):
            from modelcg.models import ModelMinimum

            # separable: exact 1-D quadratic min on coordinate 0, oracle
            # step on the rest
            y = constraint.lmo(self.grad)
            t = self.anchor[0] - self.grad[0] / self.q11
            y[0] = min(max(t, constraint.lo[0]), constraint.hi[0])
            d = y - self.anchor
            improvement = -(float(self.grad @ d) + 0.5 * self.q11 * d[0] ** 2)
            return ModelMinimum(point=y, improvement=improvement, gap=0.0)

    class PartialQuadraticOracle:
        def instantiate(self, anchor):
            return PartialQuadraticModel(anchor)

    from modelcg.solver import SolverConfig, mcgm_solve, rate_certificate, verify_trace_arrays

    trace = mcgm_solve(PartialQuadraticOracle(), f, box, box.sample(rng),
                       cfg=SolverConfig(max_iterations=5000, delta_tol=1e-2))
    assert trace.status == "stationary"
    assert rate_certificate(trace).passed
    arrays = trace.arrays()
    assert verify_trace_arrays(*arrays, rho=trace.rho, final_f=trace.final_f) == []


def test_verify_model_error_negative_case():
    # a linear model of a kinked objective violates any quadratic bound
    fun = lambda x: float(np.abs(x).sum())
    oracle = LinearModelOracle(fun, lambda x: np.sign(x))
    box = Box(-np.ones(1), np.ones(1))
    report = verify_model_error(oracle, fun, box, PowerGrowth(1e-6, 1.0), n_samples=400, seed=0)
    assert not report.passed
    assert report.max_violation > 0
    assert report.worst_point is not None
