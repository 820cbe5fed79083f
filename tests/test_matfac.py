import json

import numpy as np
import pytest

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
    pack_factors,
    unit_atoms_set,
    unpack_factors,
)
from modelcg.solver import SolverConfig

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
    assert oracle.prox_block == 1  # proximal step on the Y block


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
    with pytest.raises(ValueError):
        MfProblem(A=np.zeros((3, 3)), inner_dim=2, x_kind="nope")
