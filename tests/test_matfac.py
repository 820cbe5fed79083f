import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from modelcg import matfac
from modelcg.baselines import ProxLinearConfig
from modelcg.geometry import NuclearBall
from modelcg.matfac import (
    MfProblem,
    default_start,
    columnwise_simplex_set,
    make_mf_oracle,
    make_mf_sets,
    mf_gradient,
    mf_objective,
    mf_segment_remainder,
    pack_factors,
    solver_inputs,
    unit_atoms_set,
    unpack_factors,
    write_factors,
)
from modelcg.models import DEFAULT_TAU, ProximalModelOracle
from modelcg.runner import run_method
from modelcg.solver import SolverConfig, armijo_search, mcgm_solve

from conftest import central_difference


def solve_mf(prob, cfg, seed=0, method="mcgm", tau0=DEFAULT_TAU):
    """``method`` from ``default_start(prob, seed)``, at the proximal weight
    ``tau0`` if it reads one: the trace and the factors it ends on."""
    trace = run_method(method, solver_inputs(prob, seed), cfg=cfg,
                       plcfg=ProxLinearConfig(tau0=tau0))
    return (trace, *unpack_factors(prob, trace.final_x))


def rank_one_problem(seed=0, y_kind="low_rank"):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((20, 1)) @ rng.standard_normal((1, 15))
    radius = 1.5 * np.linalg.norm(A, "nuc")
    return MfProblem(A=A, inner_dim=4, x_kind="unit_atoms", y_kind=y_kind, radius=radius)


@pytest.mark.parametrize("y_set", ["low_rank", "sparsity"])
@pytest.mark.parametrize("seed", [0, 3])
def test_the_default_radius_holds_a_y_that_fits_the_target(seed, y_set):
    # the sparsity radius was also 1.5 times the nuclear norm, 14.7 at seed
    # 0, where the l1 ball must hold 31.1 to fit the target: every method
    # stopped near f = 9.925
    prob, params = matfac.generate_problem(y_set=y_set, seed=seed)
    U, s, Vt = np.linalg.svd(prob.A)
    m, k, n = prob.shape
    X, Y = np.zeros((m, k)), np.zeros((k, n))
    X[:, 0], Y[0] = U[:, 0], s[0] * Vt[0]
    fit = pack_factors(prob, X, Y)
    assert mf_objective(prob)(fit) < 1e-24
    norm = np.linalg.norm(Y, "nuc") if y_set == "low_rank" else np.abs(Y).sum()
    assert params["radius"] == prob.radius == pytest.approx(1.5 * norm, rel=1e-12)
    assert make_mf_sets(prob)[0].contains(fit)


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


def _reference_value_and_form(problem, v):
    # the Gram value, or the residual form's past the cancellation limit, in
    # fresh temporaries; the cached evaluation must reproduce it bit for bit
    X, Y = unpack_factors(problem, v)
    A = problem.A
    a_sq = float((A[:, None, :] @ A[:, :, None]).sum())
    xx, yy = X.T @ X, Y @ Y.T
    value = 0.5 * a_sq - float(np.vdot(X.T @ A, Y)) + 0.5 * float(np.vdot(xx, yy))
    scale = math.sqrt(a_sq) + math.sqrt(float(np.trace(xx) * np.trace(yy)))
    if 8.0 * value >= (scale * 2.0**-matfac._GRAM_LOST_BITS) ** 2:
        return value, "gram"
    R = X @ Y - A
    return 0.5 * float((R[:, None, :] @ R[:, :, None]).sum()), "residual"


def _reference_objective(problem, v):
    return _reference_value_and_form(problem, v)[0]


def _reference_gradient(problem, v):
    X, Y = unpack_factors(problem, v)
    A = problem.A
    gx = (Y @ Y.T) @ X.T - Y @ A.T
    gy = (X.T @ X) @ Y - X.T @ A
    return np.concatenate([gx.ravel(), gy.ravel()])


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


_U = Fraction(1, 2**53)


def _gamma(q):
    return q * _U / (1 - q * _U)


def _exact(M):
    return [[Fraction(float(x)) for x in row] for row in np.asarray(M)]


def _exact_product(P, Q):
    return [[sum(P[i][j] * Q[j][l] for j in range(len(Q))) for l in range(len(Q[0]))]
            for i in range(len(P))]


def _transposed(P):
    return [list(col) for col in zip(*P)]


def _absolute(P):
    return [[abs(x) for x in row] for row in P]


def _inner(P, Q):
    return sum(x * y for p, q in zip(P, Q) for x, y in zip(p, q))


@pytest.mark.parametrize("case", ["generic", "close_fit"])
def test_mf_evaluations_are_within_the_rounding_bounds(case):
    # the bounds of the module docstring, checked against exact rational
    # arithmetic: the Gram value's gamma_p 0.5 ||E||^2 away from a fit, the
    # residual form's gamma_q (<|R|, E> + 0.5 ||R||^2) + 2 gamma_q^2 ||E||^2
    # near one, and the entrywise gradient bounds at every point
    rng = np.random.default_rng(43)
    m, k, n = 6, 3, 5
    X0, Y0 = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    A = rng.standard_normal((m, n)) if case == "generic" else X0 @ Y0
    prob = MfProblem(A=A, inner_dim=k, y_kind="low_rank", radius=10.0)
    fun, grad = mf_objective(prob), mf_gradient(prob)
    fit = pack_factors(prob, X0, Y0)
    if case == "generic":
        points = [10.0 ** rng.uniform(-2, 2) * rng.standard_normal(fit.size)
                  for _ in range(10)]
    else:
        points = [fit] + [fit + 10.0 ** -e * rng.standard_normal(fit.size)
                          for e in (4, 6, 8, 10, 12, 14)]
    p, q = m + n + k * (n + k) + 2, m + n + k
    Ae = _exact(A)
    for v in points:
        value, form = _reference_value_and_form(prob, v)
        assert form == ("gram" if case == "generic" else "residual")
        assert fun(v).hex() == value.hex()
        X, Y = (_exact(F) for F in unpack_factors(prob, v))
        XY = _exact_product(X, Y)
        R = [[xy - a for xy, a in zip(r, s)] for r, s in zip(XY, Ae)]
        E = [[abs(a) + b for a, b in zip(r, s)]
             for r, s in zip(Ae, _exact_product(_absolute(X), _absolute(Y)))]
        f = _inner(R, R) / 2
        if form == "gram":
            bound = _gamma(p) * _inner(E, E) / 2
        else:
            bound = (_gamma(q) * (_inner(_absolute(R), E) + _inner(R, R) / 2)
                     + 2 * _gamma(q) ** 2 * _inner(E, E))
        assert abs(Fraction(fun(v)) - f) <= bound
        GX, GY = (_exact(F) for F in unpack_factors(prob, grad(v)))
        bounds = [(GX, _exact_product(R, _transposed(Y)),
                   _exact_product(E, _transposed(_absolute(Y))), _gamma(n + k + 1)),
                  (GY, _exact_product(_transposed(X), R),
                   _exact_product(_transposed(_absolute(X)), E), _gamma(m + k + 1))]
        for got, exact, scale, gamma in bounds:
            for row, exact_row, scale_row in zip(got, exact, scale):
                for g, e, c in zip(row, exact_row, scale_row):
                    assert abs(g - e) <= gamma * c


def test_mf_evaluation_allocates_less_than_one_m_by_n_array():
    rng = np.random.default_rng(41)
    prob = MfProblem(A=rng.standard_normal((400, 300)), inner_dim=10, y_kind="low_rank",
                     radius=100.0)
    fun, grad = mf_objective(prob), mf_gradient(prob)
    points = [rng.standard_normal(prob.x_size + prob.y_size) for _ in range(3)]
    fun(points[0])  # ||A||^2 is taken once per problem
    peaks = []

    def evaluate():
        # a new thread starts from an empty slot, so what the slot keeps counts
        for v in points[1:]:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fun(v)
            grad(v)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

    tracemalloc.start()
    try:
        worker = threading.Thread(target=evaluate)
        worker.start()
        worker.join(timeout=60)
    finally:
        tracemalloc.stop()
    assert not worker.is_alive()
    assert len(peaks) == 2 and max(peaks) < prob.A.nbytes, peaks


_OBJECTIVE_AT_FULL_SIZE = """
import numpy as np
from modelcg.matfac import MfProblem, mf_objective
rng = np.random.default_rng(5)
prob = MfProblem(A=rng.standard_normal((400, 300)), inner_dim=10, y_kind="low_rank",
                 radius=100.0)
print(mf_objective(prob)(rng.standard_normal(prob.x_size + prob.y_size)).hex())
"""


def test_mf_objective_bits_do_not_depend_on_the_blas_thread_count():
    # one dot over the whole residual is threaded at this size, and its bits
    # then move with the thread count; a dot per row is not
    src = os.path.dirname(os.path.dirname(matfac.__file__))
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _OBJECTIVE_AT_FULL_SIZE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        values.append(proc.stdout.strip())
    assert values[0] == values[1]


@pytest.mark.parametrize("method, final_f, backtracks, evaluations", [
    ("mcgm", "0x1.e9fc80a6eb140p+3", 106, 41),
    ("mcgm_hybrid", "0x1.d0b76fa803640p+3", 76, 41),
], ids=["cg", "hybrid"])
def test_mf_demo_golden_run(monkeypatch, method, final_f, backtracks, evaluations):
    # the objective's evaluation, the line-search screen and the reuse of
    # the last evaluation must leave every iterate, and so the backtracks and
    # evaluations, unchanged. The screen leaves one line-search evaluation
    # per iteration: 41 = the start + 20 anchors + 20 trials. Each anchor is
    # the accepted trial, so its objective, gradient and segment remainder
    # reuse the trial's products: 21 formed = the start + 20 trials (61 =
    # 41 objectives + 20 gradients without reuse).
    calls, formed = [], []
    plain, form = matfac.mf_objective, matfac._form_evaluation

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
    monkeypatch.setattr(matfac, "_form_evaluation", counted_form)
    rng = np.random.default_rng(11)
    A = (rng.standard_normal((40, 2)) @ rng.standard_normal((2, 30))
         + 0.1 * rng.standard_normal((40, 30)))
    prob = MfProblem(A=A, inner_dim=4, y_kind="low_rank",
                     radius=1.5 * float(np.linalg.norm(A, "nuc")))
    trace, _, _ = solve_mf(prob, SolverConfig(max_iterations=20), seed=3, method=method)
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
    # the screen of a real model skips every rejected trial and changes no
    # bit; the hybrid's model is the one mcgm_hybrid solves
    prob = _noisy_problem(6)
    _, oracle, constraint, _, block = solver_inputs(prob)
    if model == "hybrid":
        oracle = ProximalModelOracle(oracle, 1.0, mask=block)
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


@pytest.mark.parametrize("method", ["mcgm", "mcgm_hybrid"], ids=["cg", "hybrid"])
@pytest.mark.parametrize("y_kind", ["sparsity", "low_rank"])
def test_mf_demo_trace_is_unchanged_by_the_remainder(monkeypatch, method, y_kind):
    prob = _noisy_problem(7, y_kind=y_kind)
    cfg = SolverConfig(max_iterations=60)
    screened, _, _ = solve_mf(prob, cfg, seed=2, method=method)
    monkeypatch.setattr(matfac, "mf_segment_remainder", lambda problem: None)
    plain, _, _ = solve_mf(prob, cfg, seed=2, method=method)
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
    # the default start has a zero Y block: every gradient vanishes
    trace, X, Y = solve_mf(prob, SolverConfig(max_iterations=20), seed=1)
    assert trace.status == "stationary"
    assert len(trace.records) == 1
    np.testing.assert_allclose(Y, np.zeros_like(Y))


def test_rank_one_recovery_and_monotone_residual():
    prob = rank_one_problem(seed=0)
    trace, X, Y = solve_mf(prob, SolverConfig(max_iterations=300))
    A = prob.A
    f_vals = [r.f_value for r in trace.records]
    assert np.all(np.diff(f_vals) <= 1e-9)
    assert np.linalg.norm(A - X @ Y) < 0.1 * np.linalg.norm(A)
    constraint, _, _ = make_mf_sets(prob)
    assert constraint.contains(pack_factors(prob, X, Y), 1e-7)


def test_hybrid_mode_runs_and_descends():
    prob = rank_one_problem(seed=2)
    trace, X, Y = solve_mf(prob, SolverConfig(max_iterations=200), method="mcgm_hybrid",
                           tau0=0.5)
    assert trace.method == "mcgm_hybrid"
    assert np.linalg.norm(prob.A - X @ Y) < 0.1 * np.linalg.norm(prob.A)
    # proximal step on the Y block, the block the solver inputs designate and
    # the mask of the hybrid problem's oracle, whose weight is the methods'
    # default
    y_block = np.arange(prob.x_size + prob.y_size) >= prob.x_size
    np.testing.assert_array_equal(solver_inputs(prob)[4], y_block)
    hybrid = MfProblem(A=prob.A, inner_dim=4, y_kind="low_rank", radius=prob.radius,
                       model="hybrid")
    np.testing.assert_array_equal(make_mf_oracle(hybrid).mask, y_block)
    assert make_mf_oracle(hybrid).tau == ProxLinearConfig().tau0 == DEFAULT_TAU


@pytest.mark.parametrize("y_kind", ["sparsity", "low_rank"])
def test_mcgm_hybrid_is_mcgm_on_the_hybrid_problems_oracle(y_kind):
    # the hybrid branch of make_mf_oracle, which only the benchmark reads,
    # must not drift from the method at its default weight: every bit of the
    # trace is the same
    prob = _noisy_problem(8, y_kind=y_kind)
    hybrid = _noisy_problem(8, y_kind=y_kind, model="hybrid")
    cfg = SolverConfig(max_iterations=60)
    method = run_method("mcgm_hybrid", solver_inputs(prob, seed=4), cfg=cfg)
    constraint, _, _ = make_mf_sets(hybrid)
    direct = mcgm_solve(make_mf_oracle(hybrid), mf_objective(hybrid), constraint,
                        default_start(hybrid, seed=4), cfg=cfg)
    assert _trace_bits(method) == _trace_bits(direct)
    assert sum(r.backtracks for r in direct.records) > 0


def test_solver_inputs_refuses_a_hybrid_problem():
    # proxlin_ls and proxlin_bt on such inputs used to wrap the proximal
    # model in a second one and fail with a bare NotImplementedError
    prob = _noisy_problem(8, model="hybrid")
    with pytest.raises(ValueError, match="the hybrid is the method mcgm_hybrid"):
        solver_inputs(prob)


def test_simplex_and_sparsity_variants_run():
    rng = np.random.default_rng(5)
    A = np.abs(rng.standard_normal((8, 6)))
    prob = MfProblem(A=A, inner_dim=3, x_kind="simplex", y_kind="sparsity",
                     radius=float(np.abs(A).sum()))
    trace, X, Y = solve_mf(prob, SolverConfig(max_iterations=120))
    f_vals = [r.f_value for r in trace.records]
    assert np.all(np.diff(f_vals) <= 1e-9)
    assert f_vals[0] > trace.final_f  # made progress
    np.testing.assert_allclose(X.sum(axis=0), np.ones(3), atol=1e-9)


def test_mf_demo_writes_files(tmp_path):
    prob = rank_one_problem(seed=6)
    trace, X, Y = solve_mf(prob, SolverConfig(max_iterations=30))
    write_factors(prob, trace.final_x, tmp_path / "factors.json", "mcgm")
    payload = json.loads((tmp_path / "factors.json").read_text())
    assert payload["schema"] == "modelcg.mf-factors/2"
    assert payload["method"] == "mcgm" and "model" not in payload
    assert np.array_equal(payload["X"], X) and np.array_equal(payload["Y"], Y)
    assert payload["residual_fro"] == float(np.linalg.norm(prob.A - X @ Y))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (3,)],
                         ids=["no-rows", "no-columns", "empty", "vector"])
def test_problem_rejects_a_target_without_rows_or_columns(shape):
    # an empty A used to pass, and the radius taken from it was 0
    with pytest.raises(ValueError, match=re.escape(f"A must be a non-empty matrix, got shape "
                                                   f"{shape}")):
        MfProblem(A=np.zeros(shape), inner_dim=2, radius=1.0)


def test_problem_validation():
    with pytest.raises(ValueError):
        MfProblem(A=np.zeros((3, 3)), inner_dim=0)
    for inner_dim in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="inner_dim must be an integer"):
            MfProblem(A=np.zeros((3, 3)), inner_dim=inner_dim)
    assert MfProblem(A=np.zeros((3, 3)), inner_dim=np.int64(2)).shape == (3, 2, 3)
    with pytest.raises(ValueError):
        MfProblem(A=np.zeros((3, 3)), inner_dim=2, x_kind="nope")
