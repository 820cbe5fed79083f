import json
import math

import numpy as np
import pytest

from modelcg.regression import (
    GENERATION_PARAMETERS,
    RegressionDataset,
    eval_F,
    eval_jacobian,
    generate_regression_data,
    load_dataset,
    make_constraint_set,
    make_objective,
    make_oracle,
    make_subproblem,
    save_dataset,
)

from conftest import central_difference


def test_generation_defaults_and_sparsity():
    ds = generate_regression_data(P=100, M=1000, mu=80.0, a_max=20.0, b_max=5.0,
                                  sparsity=0.8, seed=0)
    assert ds.covariates.shape == (1000,)
    np.testing.assert_allclose(ds.covariates[[0, -1]], [0.0, 1.0])
    assert np.all(np.diff(ds.covariates) > 0)
    assert int((ds.a_true == 0).sum()) == math.ceil(0.8 * 100)
    assert np.all((ds.a_true >= 0) & (ds.a_true <= 20.0))
    assert np.all((ds.b_true >= 0) & (ds.b_true <= 5.0))
    assert ds.observations.shape == (1000,)
    assert np.all(np.isfinite(ds.observations))


def test_generation_noise_free_case():
    ds = generate_regression_data(P=6, M=50, noise_scale=0.0, seed=1)
    np.testing.assert_array_equal(
        ds.observations, eval_F(ds.a_true, ds.b_true, ds.covariates)
    )


def test_generation_is_deterministic(tmp_path):
    a = generate_regression_data(P=7, M=30, seed=42)
    b = generate_regression_data(P=7, M=30, seed=42)
    for field in ("covariates", "observations", "a_true", "b_true"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(a, p1)
    save_dataset(b, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generation_validation():
    with pytest.raises(ValueError):
        generate_regression_data(P=0)
    with pytest.raises(ValueError):
        generate_regression_data(sparsity=1.0)
    with pytest.raises(ValueError):
        generate_regression_data(a_max=0.0)


def test_eval_F_examples():
    np.testing.assert_allclose(
        eval_F(np.array([1.0]), np.array([0.0]), np.linspace(0, 1, 5)), np.ones(5)
    )
    np.testing.assert_allclose(
        eval_F(np.zeros(3), np.ones(3), np.linspace(0, 1, 4)), np.zeros(4)
    )
    out = eval_F(np.array([2.0, 1.0]), np.array([1.0, 2.0]), np.array([0.0, math.log(2)]))
    np.testing.assert_allclose(out, [3.0, 1.25], rtol=1e-15)


def test_jacobian_closed_forms():
    x = np.linspace(0, 1, 6)
    a = np.array([2.0, 3.0])
    # zero decay rates: amplitude block is all ones, rate block is -a_j x_i
    J = eval_jacobian(a, np.zeros(2), x)
    np.testing.assert_allclose(J[:, :2], np.ones((6, 2)))
    np.testing.assert_allclose(J[:, 2:], -np.outer(x, a))
    # zero amplitudes kill the rate block
    J0 = eval_jacobian(np.zeros(2), np.array([1.0, 2.0]), x)
    np.testing.assert_allclose(J0[:, 2:], np.zeros((6, 2)))


@pytest.mark.parametrize("P, M", [(100, 1000), (20, 200), (1, 1)])
def test_jacobian_equals_the_stacked_blocks_bit_for_bit(rng, P, M):
    # the Jacobian is filled in place of np.hstack, with the same rounded
    # operations; where it sits is the subproblem's business
    a, b, x = rng.uniform(0.0, 20.0, P), rng.uniform(0.0, 5.0, P), rng.random(M)
    E = np.exp(-np.outer(x, b))
    want = np.hstack([E, -(x[:, None] * E) * a[None, :]])
    J = eval_jacobian(a, b, x)
    assert J.shape == want.shape and J.tobytes() == want.tobytes()


def test_jacobian_matches_finite_differences(rng):
    ds = generate_regression_data(P=3, M=10, seed=3)
    box = make_constraint_set(ds)
    for _ in range(20):
        u = box.sample(rng)
        J = eval_jacobian(*ds.split(u), ds.covariates)
        for i in range(ds.M):
            row_fd = central_difference(
                lambda v: eval_F(*ds.split(v), ds.covariates)[i], u
            )
            denom = np.linalg.norm(J[i]) + 1e-12
            assert np.linalg.norm(row_fd - J[i]) / denom < 1e-5


def test_linearization_identity_and_anchor(rng):
    ds = generate_regression_data(P=4, M=25, mu=1.0, seed=4)
    box = make_constraint_set(ds)
    fun = make_objective(ds)
    u = box.sample(rng)
    sub = make_subproblem(ds, u)
    a, b = ds.split(u)
    assert sub.K.shape == (25, 8)
    np.testing.assert_array_equal(sub.K, eval_jacobian(a, b, ds.covariates))
    # the linearized data term at the anchor reproduces the objective
    assert sub.objective(u) == pytest.approx(fun(u), rel=1e-12)
    shifted = ds.observations - eval_F(a, b, ds.covariates) + sub.K @ u
    np.testing.assert_allclose(sub.target, shifted)
    # proximal variant carries the anchor
    subp = make_subproblem(ds, u, tau=0.5)
    assert subp.objective(u) == pytest.approx(fun(u), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 97, 3])
@pytest.mark.parametrize("P, M", [(100, 1000), (20, 200)])
def test_the_objective_and_the_model_anchor_value_agree_bit_for_bit(P, M, seed):
    # the line search reads the objective and PDHG's stop rule the model's
    # anchor value: the two statements of the objective must not drift apart
    ds = generate_regression_data(P=P, M=M, mu=80.0, seed=seed)
    box, fun, oracle = make_constraint_set(ds), make_objective(ds), make_oracle(ds)
    rng = np.random.default_rng(seed)
    for u in [box.midpoint()] + [box.sample(rng) for _ in range(5)]:
        assert fun(u) == oracle.instantiate(u).anchor_value


def test_model_and_subproblem_agree_everywhere(rng):
    ds = generate_regression_data(P=3, M=15, mu=2.0, seed=5)
    box = make_constraint_set(ds)
    u = box.sample(rng)
    model = make_oracle(ds).instantiate(u)
    sub = make_subproblem(ds, u)
    for _ in range(100):
        z = box.sample(rng)
        assert model.value(z) == pytest.approx(sub.objective(z), rel=1e-12, abs=1e-12)


def test_nearly_affine_residual_model_is_nearly_exact(rng):
    # decay rates confined to a vanishing box: the residual map is affine in
    # the amplitudes up to rounding, so the model matches the objective
    ds = generate_regression_data(P=3, M=12, mu=0.5, b_max=1e-12, seed=6)
    box = make_constraint_set(ds)
    fun = make_objective(ds)
    model = make_oracle(ds).instantiate(box.sample(rng))
    for _ in range(50):
        z = box.sample(rng)
        assert model.value(z) == pytest.approx(fun(z), rel=1e-9, abs=1e-9)


def test_generation_parameters_regenerate_the_dataset_and_name_its_file_fields(tmp_path):
    ds = generate_regression_data(P=5, M=20, mu=3.0, a_max=4.0, sparsity=0.4, seed=7)
    params = ds.generation_parameters
    assert params == {"P": 5, "M": 20, "mu": 3.0, "a_max": 4.0, "b_max": 5.0,
                      "sparsity": 0.4, "noise_scale": 0.5, "seed": 7}
    assert {k: type(v) for k, v in params.items()} == GENERATION_PARAMETERS
    np.testing.assert_array_equal(generate_regression_data(**params).observations,
                                  ds.observations)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    payload = json.loads(path.read_text())
    assert set(payload) == {"schema", "covariates", "observations", "a_true", "b_true",
                            *GENERATION_PARAMETERS}
    assert load_dataset(path).generation_parameters == params


def test_a_negative_seed_is_rejected_on_generation_and_on_load(tmp_path):
    # numpy refused it on generation, while a file stating it loaded
    with pytest.raises(ValueError, match="seed must be non-negative"):
        generate_regression_data(P=5, M=20, seed=-1)
    path = tmp_path / "ds.json"
    save_dataset(generate_regression_data(P=5, M=20, seed=7), path)
    payload = json.loads(path.read_text())
    payload["seed"] = -1
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="seed must be non-negative"):
        load_dataset(path)


def test_dataset_roundtrip(tmp_path):
    ds = generate_regression_data(P=5, M=20, mu=3.0, seed=7)
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.P == ds.P and back.M == ds.M and back.seed == ds.seed
    np.testing.assert_array_equal(back.observations, ds.observations)
    np.testing.assert_array_equal(back.a_true, ds.a_true)
    # unknown schema is rejected
    payload = json.loads(path.read_text())
    payload["schema"] = "something-else"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_dataset(path)


@pytest.mark.parametrize("key, value, loaded", [
    ("P", 5.0, 5), ("seed", 7.0, 7), ("mu", 3, 3.0),
    ("mu", True, None), ("seed", 1.5, None), ("sparsity", "0.5", None),
    ("M", "20", None), ("P", False, None), ("noise_scale", None, None),
])
def test_load_dataset_reads_only_the_values_the_file_states(tmp_path, key, value, loaded):
    # an integral float reads as an integer and an int as a float; a bool, a
    # string or a non-integral number is rejected, and the CLI exits 1
    from modelcg.cli import cli_main

    path = tmp_path / "ds.json"
    save_dataset(generate_regression_data(P=5, M=20, mu=3.0, seed=7), path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    if loaded is not None:
        back = getattr(load_dataset(path), key)
        assert back == loaded and type(back) is type(loaded)
        return
    with pytest.raises(ValueError, match=key):
        load_dataset(path)
    assert cli_main(["compare", "--dataset", str(path), "--max-iterations", "1",
                     "--out", str(tmp_path / "out")]) == 1
