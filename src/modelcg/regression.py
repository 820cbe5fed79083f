"""Sparse robust regression benchmark on sums of decaying exponentials.

The ground-truth signal is F_i(a, b) = sum_j a_j exp(-b_j x_i) observed under
heavy-tailed (Laplacian) noise, which motivates an l1 data-fidelity term; the
amplitude vector a is mostly zero, which motivates an l1 penalty on it:

    min over (a, b) in [0, a_max]^P x [0, b_max]^P of
        sum_i |F_i(a, b) - y_i| + mu * sum_j |a_j|

Linearizing F inside the l1 loss turns each model subproblem into the
box-constrained piecewise-linear form handled by :mod:`modelcg.inner`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, require_finite, require_integer, require_number
from .models import GaussNewtonOracle, WeightedL1

__all__ = [
    "RegressionDataset",
    "GENERATION_PARAMETERS",
    "generate_regression_data",
    "eval_F",
    "eval_jacobian",
    "make_objective",
    "make_constraint_set",
    "make_oracle",
    "make_subproblem",
    "solver_inputs",
    "save_dataset",
    "load_dataset",
]

DATASET_SCHEMA = "modelcg.regression-dataset/1"
# the parameters a dataset is generated from, with their types
GENERATION_PARAMETERS = {"P": int, "M": int, "mu": float, "a_max": float, "b_max": float,
                         "sparsity": float, "noise_scale": float, "seed": int}


@dataclass(frozen=True)
class RegressionDataset:
    """Covariate-observation pairs plus the generating ground truth."""

    covariates: np.ndarray
    observations: np.ndarray
    a_true: np.ndarray
    b_true: np.ndarray
    P: int
    M: int
    mu: float
    a_max: float
    b_max: float
    sparsity: float
    noise_scale: float
    seed: int

    @property
    def generation_parameters(self):
        """The parameters the dataset was generated from, by name."""
        return {name: getattr(self, name) for name in GENERATION_PARAMETERS}

    @property
    def dim(self):
        return 2 * self.P

    def split(self, u):
        u = np.asarray(u, dtype=float)
        return u[: self.P], u[self.P :]


def eval_F(a, b, x_points):
    """Vector of model responses sum_j a_j exp(-b_j x_i) at each covariate."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x_points, dtype=float)
    return np.exp(-np.outer(x, b)) @ a


def eval_jacobian(a, b, x_points):
    """M x 2P Jacobian of ``eval_F``: columns [d/da_j, d/db_j].

    d/da_j = exp(-b_j x_i) and d/db_j = -a_j x_i exp(-b_j x_i), as a plain
    C-contiguous array: the inner subproblem places its own copy of the
    matrix it is given (``inner`` module docstring).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x_points, dtype=float)
    P = b.size
    # E is formed contiguous, as np.hstack's input was, so np.exp runs the
    # same loop; the right block, -(x * E) * a, takes only correctly rounded
    # products, which give the same bits wherever they are written
    E = np.exp(-np.outer(x, b))
    J = np.empty((x.size, 2 * P))
    J[:, :P] = E
    R = J[:, P:]
    np.multiply(x[:, None], E, out=R)
    np.negative(R, out=R)
    np.multiply(R, a[None, :], out=R)
    return J


def _check_parameters(P, M, mu, a_max, b_max, sparsity, noise_scale, seed):
    """The generation parameters by name, as ints and floats held to their
    ``geometry`` rules; ``ValueError`` names the first that fails."""
    params = {"P": require_integer(P, "P", 1), "M": require_integer(M, "M", 1),
              "mu": require_number(mu, "mu", "non-negative"),
              "a_max": require_number(a_max, "a_max", "positive"),
              "b_max": require_number(b_max, "b_max", "positive"),
              "sparsity": require_number(sparsity, "sparsity"),
              "noise_scale": require_number(noise_scale, "noise_scale", "non-negative"),
              "seed": require_integer(seed, "seed", 0)}
    if not 0.0 <= params["sparsity"] < 1.0:
        raise ValueError("sparsity must lie in [0, 1)")
    return params


def generate_regression_data(
    P=100, M=1000, mu=80.0, a_max=20.0, b_max=5.0, sparsity=0.8,
    noise_scale=0.5, seed=0,
):
    """Draw a dataset: covariates equally spaced on [0, 1], amplitudes and
    decay rates uniform on their boxes, ceil(sparsity * P) amplitudes zeroed,
    Laplacian noise by inverse-CDF sampling. Regeneration from the same
    parameters and seed is bit-identical. ``P`` and ``M`` are integers >= 1
    and ``seed`` one >= 0; ``a_max`` and ``b_max`` are finite numbers > 0,
    ``mu`` and ``noise_scale`` ones >= 0, and ``sparsity`` lies in [0, 1).
    """
    params = _check_parameters(P, M, mu, a_max, b_max, sparsity, noise_scale, seed)
    # the checked values, in the order of the signature
    P, M, _, a_max, b_max, sparsity, noise_scale, seed = params.values()
    x = np.linspace(0.0, 1.0, M)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, a_max, P)
    b = rng.uniform(0.0, b_max, P)
    n_zero = math.ceil(sparsity * P)
    if n_zero:
        a[rng.choice(P, size=n_zero, replace=False)] = 0.0
    y = eval_F(a, b, x)
    if noise_scale > 0:
        u = rng.random(M)
        # clip keeps the measure-zero endpoint u = 0 out of log1p(-1)
        d = np.minimum(np.abs(u - 0.5), 0.5 * (1.0 - 1e-15))
        y = y - noise_scale * np.sign(u - 0.5) * np.log1p(-2.0 * d)
    return RegressionDataset(covariates=x, observations=y, a_true=a, b_true=b, **params)


def make_constraint_set(dataset):
    lo = np.zeros(dataset.dim)
    hi = np.concatenate(
        [np.full(dataset.P, dataset.a_max), np.full(dataset.P, dataset.b_max)]
    )
    return Box(lo, hi)


def make_objective(dataset):
    """The benchmark objective as a plain callable on u = (a, b)."""
    x, y, mu = dataset.covariates, dataset.observations, dataset.mu

    def objective(u):
        a, b = dataset.split(u)
        return float(np.abs(eval_F(a, b, x) - y).sum()) + mu * float(np.abs(a).sum())

    return objective


def amplitude_mask(dataset):
    mask = np.zeros(dataset.dim, dtype=bool)
    mask[: dataset.P] = True
    return mask


def make_oracle(dataset):
    """Model oracle for the benchmark: the residual map is linearized inside
    the l1 loss, the amplitude penalty is kept exactly, and the model
    subproblems go to the primal-dual inner solver."""
    x = dataset.covariates

    def residual(u):
        a, b = dataset.split(u)
        return eval_F(a, b, x)

    def jacobian(u):
        a, b = dataset.split(u)
        return eval_jacobian(a, b, x)

    return GaussNewtonOracle(
        residual,
        jacobian,
        dataset.observations,
        penalty=WeightedL1(dataset.mu, amplitude_mask(dataset)),
    )


def solver_inputs(dataset):
    """The solver inputs ``(objective, oracle, constraint, x0, block)`` of
    the benchmark, starting from the box midpoint. The block is None: the
    Gauss-Newton model has no proximal step on part of the coordinates."""
    box = make_constraint_set(dataset)
    return make_objective(dataset), make_oracle(dataset), box, box.midpoint(), None


def make_subproblem(dataset, u, tau=None):
    """The inner subproblem anchored at u, plus ||x - u||^2 / (2 tau) when
    ``tau`` is given: the box-constrained form of the benchmark oracle's
    model at u, built once, as a (proximal) model solve builds it."""
    return make_oracle(dataset).instantiate(u).subproblem(make_constraint_set(dataset), tau)


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------


def save_dataset(dataset, path):
    payload = {
        "schema": DATASET_SCHEMA,
        **dataset.generation_parameters,
        "covariates": dataset.covariates.tolist(),
        "observations": dataset.observations.tolist(),
        "a_true": dataset.a_true.tolist(),
        "b_true": dataset.b_true.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_dataset(path):
    """Read a dataset file, rejecting with ``ValueError`` any file whose
    sizes disagree or whose parameters ``generate_regression_data`` would
    not accept. JSON has one number type, so an integral float such as 6.0
    reads as an integer where one is due."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != DATASET_SCHEMA:
        raise ValueError(f"unrecognized dataset schema: {schema!r}")
    values = {}
    for k, kind in GENERATION_PARAMETERS.items():
        v = payload[k]
        values[k] = int(v) if kind is int and isinstance(v, float) and v.is_integer() else v
    params = _check_parameters(**values)
    ds = RegressionDataset(
        covariates=require_finite(payload["covariates"], "covariates"),
        observations=require_finite(payload["observations"], "observations"),
        a_true=require_finite(payload["a_true"], "a_true"),
        b_true=require_finite(payload["b_true"], "b_true"),
        **params,
    )
    for name, size in (("covariates", ds.M), ("observations", ds.M),
                       ("a_true", ds.P), ("b_true", ds.P)):
        if getattr(ds, name).shape != (size,):
            raise ValueError(
                f"{name} has shape {getattr(ds, name).shape}, expected ({size},)"
            )
    return ds
