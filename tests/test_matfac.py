import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from modelcg import matfac
from modelcg.geometry import NuclearBall
from modelcg.matfac import (
    MfProblem,
    columnwise_simplex_set,
    default_start,
    make_mf_oracle,
    make_mf_sets,
    mf_demo,
    mf_gradient,
    mf_objective,
    mf_segment_remainder,
    pack_factors,
    unit_atoms_set,
    unpack_factors,
)
from modelcg.solver import SolverConfig, armijo_search

from conftest import central_difference


def rank_one_problem(seed=0, model="cg", y_kind="low_rank"):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((20, 1)) @ rng.standard_normal((1, 15))
    radius = 1.5 * np.linalg.norm(A, "nuc")
    return MfProblem(A=A, inner_dim=4, x_kind="unit_atoms", y_kind=y_kind,
                     radius=radius, model=model, tau=0.5)


def test_factor_packing_roundtrip(rng):
    prob = rank_one_problem()
    m, k, n = prob.shape
    X = rng.standard_normal((m, k))
    Y = rng.standard_normal((k, n))
    X2, Y2 = unpack_factors(prob, pack_factors(prob, X, Y))
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(Y, Y2)


def test_unit_atoms_set_column_constraints(rng):
    s = unit_atoms_set(5, 3)
    x = s.sample(rng)
    X = x.reshape(5, 3, order="F")
    for j in range(3):
        assert np.linalg.norm(X[:, j]) <= 1 + 1e-9
        if j > 0:  # columns after the first are mean-zero
            assert abs(X[:, j].mean()) <= 1e-9
    out = s.lmo(rng.standard_normal(15)).reshape(5, 3, order="F")
    assert abs(out[:, 1].mean()) <= 1e-12 and abs(out[:, 2].mean()) <= 1e-12


def test_columnwise_simplex_set(rng):
    s = columnwise_simplex_set(4, 3)
    out = s.lmo(rng.standard_normal(12)).reshape(4, 3, order="F")
    np.testing.assert_allclose(out.sum(axis=0), np.ones(3))
    assert np.all(out >= 0)
    assert ((out == 1).sum(axis=0) == 1).all()  # one vertex per column


def _reference_objective(problem, v):
    # the three-temporary evaluation the in-place one must reproduce bit for bit
    X, Y = unpack_factors(problem, v)
    R = problem.A - X @ Y
    return 0.5 * float((R * R).sum())


def _reference_gradient(problem, v):
    X, Y = unpack_factors(problem, v)
    R = X @ Y - problem.A
    return np.concatenate([(R @ Y.T).ravel(order="F"), (X.T @ R).ravel()])


def _evaluation_points(problem, rng, count):
    constraint, _, _ = make_mf_sets(problem)
    n = problem.x_size + problem.y_size
    yield np.zeros(n)
    yield np.full(n, -0.0)
    signed_zeros = constraint.sample(rng)
    signed_zeros[::3] = -0.0
    yield signed_zeros
    for i in range(count):
        v = constraint.sample(rng) if i % 2 else rng.standard_normal(n)
        yield v * 10.0 ** rng.uniform(-3.0, 3.0)


@pytest.mark.parametrize("x_kind", ["unit_atoms", "simplex"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_mf_evaluations_match_the_reference_bit_for_bit(x_kind, order):
    rng = np.random.default_rng(17)
    A = np.asarray(rng.standard_normal((9, 2)) @ rng.standard_normal((2, 7))
                   + 0.1 * rng.standard_normal((9, 7)), order=order)
    prob = MfProblem(A=A, inner_dim=3, x_kind=x_kind, y_kind="low_rank", radius=5.0)
    A_before = prob.A.copy()
    fun, grad = mf_objective(prob), mf_gradient(prob)
    points = list(_evaluation_points(prob, rng, 100))
    for v in points:
        v_before = v.copy()
        assert fun(v).hex() == _reference_objective(prob, v).hex()
        g = grad(v)
        assert g.tobytes() == _reference_gradient(prob, v).tobytes()
        assert v.tobytes() == v_before.tobytes()
        assert prob.A.tobytes() == A_before.tobytes()
    assert len(points) >= 100


@pytest.mark.parametrize("model, final_f, backtracks, evaluations", [
    ("cg", "0x1.e9fc80a6eb02dp+3", 106, 41),
    ("hybrid", "0x1.d0b76fa8035e3p+3", 76, 41),
], ids=["cg", "hybrid"])
def test_mf_demo_golden_run(monkeypatch, model, final_f, backtracks, evaluations):
    # the objective's evaluation, the line-search screen and the residual
    # reuse must leave every iterate, and so the backtracks and evaluations,
    # unchanged. The screen leaves one line-search evaluation per iteration:
    # 41 = the start + 20 anchors + 20 trials. Each anchor is the accepted
    # trial, so its objective and gradient reuse the trial's residual: 21
    # residuals = the start + 20 trials (61 = 41 objectives + 20 gradients
    # without reuse).
    calls, formed = [], []
    plain, form = matfac.mf_objective, matfac._form_residual

    def counted(problem):
        fun = plain(problem)

        def objective(v):
            calls.append(1)
            return fun(v)

        return objective

    def counted_form(problem, v):
        formed.append(1)
        form(problem, v)

    monkeypatch.setattr(matfac, "mf_objective", counted)
    monkeypatch.setattr(matfac, "_form_residual", counted_form)
    rng = np.random.default_rng(11)
    A = (rng.standard_normal((40, 2)) @ rng.standard_normal((2, 30))
         + 0.1 * rng.standard_normal((40, 30)))
    prob = MfProblem(A=A, inner_dim=4, y_kind="low_rank",
                     radius=1.5 * float(np.linalg.norm(A, "nuc")), model=model)
    trace, _, _ = mf_demo(prob, cfg=SolverConfig(max_iterations=20), seed=3)
    assert trace.status == "max_iterations"
    assert trace.final_f.hex() == final_f
    assert sum(r.backtracks for r in trace.records) == backtracks
    assert len(calls) == evaluations
    assert len(formed) == 21


def _problems_at_one_point(seed, count, shape):
    # equal shapes and one point, so only the problem tells their residuals apart
    rng = np.random.default_rng(seed)
    probs = [MfProblem(A=rng.standard_normal(shape), inner_dim=3, y_kind="low_rank",
                       radius=5.0) for _ in range(count)]
    return probs, rng.standard_normal(probs[0].x_size + probs[0].y_size)


def test_mf_residual_reuse_keeps_problems_apart():
    probs, v = _problems_at_one_point(23, 2, (9, 7))
    evaluations = [(mf_objective(p), mf_gradient(p), p) for p in probs]
    for _ in range(2):
        for fun, grad, prob in evaluations:
            assert fun(v).hex() == _reference_objective(prob, v).hex()
            assert grad(v).tobytes() == _reference_gradient(prob, v).tobytes()
            assert fun(v).hex() == _reference_objective(prob, v).hex()


def test_mf_residual_reuse_is_per_thread():
    # more threads than cores, frequent switches, and matrices large enough
    # that one slot shared by the threads fails this test: a thread's product
    # then overwrites the residual another one is reading
    threads = 4
    probs, v = _problems_at_one_point(29, threads, (300, 200))
    rng = np.random.default_rng(31)
    points = [v] + [v + 1e-3 * rng.standard_normal(v.size) for _ in range(20)]
    barrier = threading.Barrier(threads, timeout=30)

    def evaluate(prob):
        fun, grad = mf_objective(prob), mf_gradient(prob)
        got = []
        for w in points:
            barrier.wait()  # every thread evaluates each point together
            got.append((fun(w).hex(), grad(w).tobytes(), fun(w).hex()))
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(evaluate, prob) for prob in probs]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for prob, got in zip(probs, results):
        assert got == [(_reference_objective(prob, w).hex(),
                        _reference_gradient(prob, w).tobytes(),
                        _reference_objective(prob, w).hex()) for w in points]


def _noisy_problem(seed, x_kind="unit_atoms", y_kind="low_rank", model="cg"):
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((12, 2)) @ rng.standard_normal((2, 9))
         + 0.1 * rng.standard_normal((12, 9)))
    return MfProblem(A=A, inner_dim=3, x_kind=x_kind, y_kind=y_kind,
                     radius=float(np.abs(A).sum()), model=model)


@pytest.mark.parametrize("x_kind", ["unit_atoms", "simplex"])
@pytest.mark.parametrize("y_kind", ["sparsity", "low_rank"])
def test_mf_segment_remainder_is_the_linearization_error(x_kind, y_kind):
    prob = _noisy_problem(5, x_kind, y_kind)
    fun, grad, remainder = mf_objective(prob), mf_gradient(prob), mf_segment_remainder(prob)
    constraint, _, _ = make_mf_sets(prob)
    rng = np.random.default_rng(8)
    for _ in range(25):
        v, w = constraint.sample(rng), constraint.sample(rng)
        d = w - v
        slope = float(grad(v) @ d)
        c2, c3, c4 = remainder(v, d)
        for g in (1.0, 0.5, 0.1, 1e-3):
            err = fun(v + g * d) - fun(v) - g * slope
            expected = c2 * g**2 + c3 * g**3 + c4 * g**4
            assert abs(err - expected) <= 1e-11 * (1.0 + fun(v))


@pytest.mark.parametrize("model", ["cg", "hybrid"])
def test_mf_screened_line_search_matches_the_plain_rule(model):
    # the screen of a real model skips every rejected trial and changes no bit
    prob = _noisy_problem(6, model=model)
    constraint, _, _ = make_mf_sets(prob)
    oracle = make_mf_oracle(prob)
    calls = []
    plain_fun = mf_objective(prob)

    def fun(v):
        calls.append(1)
        return plain_fun(v)

    rng = np.random.default_rng(9)
    backtracked = 0
    for _ in range(20):
        x = constraint.sample(rng)
        model_x = oracle.instantiate(x)
        y = model_x.minimize(constraint, 1e-12).point
        delta = model_x.anchor_value - model_x.value(y)
        f_x = fun(x)
        plain = armijo_search(fun, x, y, delta, f_x=f_x)
        calls.clear()
        screened = armijo_search(fun, x, y, delta, f_x=f_x, screen=model_x.segment_change(y))
        assert len(calls) == 1
        assert (screened.gamma, screened.backtracks, screened.f_new.hex()) == (
            plain.gamma, plain.backtracks, plain.f_new.hex())
        backtracked += plain.backtracks > 0
    assert backtracked >= 5


def _trace_bits(trace):
    records = [(r.k, r.f_value.hex(), float(r.delta).hex(), float(r.gamma).hex(),
                r.backtracks, r.inner_iterations, r.inner_solves) for r in trace.records]
    return records, trace.status, trace.final_f.hex(), trace.final_x.tobytes()


@pytest.mark.parametrize("model", ["cg", "hybrid"])
@pytest.mark.parametrize("y_kind", ["sparsity", "low_rank"])
def test_mf_demo_trace_is_unchanged_by_the_remainder(monkeypatch, model, y_kind):
    prob = _noisy_problem(7, y_kind=y_kind, model=model)
    cfg = SolverConfig(max_iterations=60)
    screened, _, _ = mf_demo(prob, cfg=cfg, seed=2)
    monkeypatch.setattr(matfac, "mf_segment_remainder", lambda problem: None)
    plain, _, _ = mf_demo(prob, cfg=cfg, seed=2)
    assert _trace_bits(screened) == _trace_bits(plain)
    assert sum(r.backtracks for r in plain.records) > 0


def test_mf_gradients_match_finite_differences(rng):
    prob = rank_one_problem(seed=3)
    fun = mf_objective(prob)
    grad = mf_gradient(prob)
    constraint, _, _ = make_mf_sets(prob)
    for _ in range(20):
        v = constraint.sample(rng)
        g = grad(v)
        g_fd = central_difference(fun, v, h=1e-6)
        assert np.linalg.norm(g - g_fd) / (np.linalg.norm(g) + 1e-12) < 1e-5


def test_y_step_matches_full_svd(rng):
    # with X fixed, a single oracle step on the nuclear-ball block is the
    # scaled dominant singular pair of the Y gradient
    prob = rank_one_problem(seed=4)
    constraint, x_set, y_set = make_mf_sets(prob)
    assert isinstance(y_set, NuclearBall)
    v = constraint.sample(rng)
    g = mf_gradient(prob)(v)
    g_y = g[prob.x_size:]
    step = y_set.lmo(g_y)
    G = g_y.reshape(prob.inner_dim, prob.A.shape[1])
    U, s, Vt = np.linalg.svd(G)
    expected = -prob.radius * np.outer(U[:, 0], Vt[0])
    assert g_y @ step == pytest.approx(np.tensordot(G, expected), rel=1e-8)


def test_zero_target_is_immediately_stationary():
    prob = MfProblem(A=np.zeros((6, 5)), inner_dim=2, radius=1.0)
    x0 = default_start(prob, seed=1)  # zero Y block: every gradient vanishes
    trace, X, Y = mf_demo(prob, cfg=SolverConfig(max_iterations=20), x0=x0)
    assert trace.status == "stationary"
    assert len(trace.records) == 1
    np.testing.assert_allclose(Y, np.zeros_like(Y))


def test_rank_one_recovery_and_monotone_residual():
    prob = rank_one_problem(seed=0)
    trace, X, Y = mf_demo(prob, cfg=SolverConfig(max_iterations=300))
    A = prob.A
    f_vals = [r.f_value for r in trace.records]
    assert np.all(np.diff(f_vals) <= 1e-9)
    assert np.linalg.norm(A - X @ Y) < 0.1 * np.linalg.norm(A)
    constraint, _, _ = make_mf_sets(prob)
    assert constraint.contains(pack_factors(prob, X, Y), 1e-7)


def test_hybrid_mode_runs_and_descends():
    prob = rank_one_problem(seed=2, model="hybrid")
    trace, X, Y = mf_demo(prob, cfg=SolverConfig(max_iterations=200))
    assert np.linalg.norm(prob.A - X @ Y) < 0.1 * np.linalg.norm(prob.A)
    oracle = make_mf_oracle(prob)
    # proximal step on the Y block
    np.testing.assert_array_equal(oracle.mask, np.arange(prob.x_size + prob.y_size) >= prob.x_size)


def test_simplex_and_sparsity_variants_run():
    rng = np.random.default_rng(5)
    A = np.abs(rng.standard_normal((8, 6)))
    prob = MfProblem(A=A, inner_dim=3, x_kind="simplex", y_kind="sparsity",
                     radius=float(np.abs(A).sum()))
    trace, X, Y = mf_demo(prob, cfg=SolverConfig(max_iterations=120))
    f_vals = [r.f_value for r in trace.records]
    assert np.all(np.diff(f_vals) <= 1e-9)
    assert f_vals[0] > trace.final_f  # made progress
    np.testing.assert_allclose(X.sum(axis=0), np.ones(3), atol=1e-9)


def test_mf_demo_writes_files(tmp_path):
    prob = rank_one_problem(seed=6)
    out = tmp_path / "mf"
    mf_demo(prob, cfg=SolverConfig(max_iterations=30), out_dir=str(out))
    payload = json.loads((out / "factors.json").read_text())
    assert payload["schema"] == "modelcg.mf-factors/1"
    X = np.asarray(payload["X"])
    assert X.shape == (20, 4)
    assert (out / "mf_trace.csv").exists()


def test_problem_validation():
    with pytest.raises(ValueError):
        MfProblem(A=np.zeros((3, 3)), inner_dim=0)
    for inner_dim in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="inner_dim must be an integer"):
            MfProblem(A=np.zeros((3, 3)), inner_dim=inner_dim)
    assert MfProblem(A=np.zeros((3, 3)), inner_dim=np.int64(2)).shape == (3, 2, 3)
    for tau in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tau"):
            MfProblem(A=np.zeros((3, 3)), inner_dim=2, model="hybrid", tau=tau)
    with pytest.raises(ValueError):
        MfProblem(A=np.zeros((3, 3)), inner_dim=2, x_kind="nope")
