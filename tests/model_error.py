"""Model-error verification for tests: power-type growth functions, the
growth bound of the regression benchmark's linearization, and a sampler that
checks |f(x) - model(x)| <= omega(||x - anchor||) over a constraint set.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class PowerGrowth:
    """Power-type error growth w(t) = c/(1+alpha) * t**(1+alpha).

    Continuous, w(0) = 0, and w(t)/t -> 0 as t -> 0, which is what makes it a
    valid bound on the first-order approximation error of a model. ``alpha``
    is restricted to (0, 1] (alpha = 1 is the Lipschitz-gradient case with
    c the gradient's Lipschitz constant).
    """

    coefficient: float
    exponent: float = 1.0

    def __post_init__(self):
        if not self.coefficient > 0:
            raise ValueError("coefficient must be positive")
        if not 0.0 < self.exponent <= 1.0:
            raise ValueError("exponent must lie in (0, 1]")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("growth functions are defined on t >= 0")
        value = self.coefficient / (1.0 + self.exponent) * t ** (1.0 + self.exponent)
        return float(value) if value.ndim == 0 else value


def model_error_growth(dataset):
    """Valid quadratic growth bound for the regression benchmark's
    linearization error.

    Each response's Hessian decomposes into independent 2x2 blocks per
    component j with entries bounded using exp(-b x) <= 1, x <= 1, a <= a_max,
    so its spectral norm is at most sqrt(2 + a_max^2); summing the M rows of
    the l1 loss gives |f - model| <= M sqrt(2 + a_max^2) / 2 * t^2.
    """
    c = dataset.M * math.sqrt(2.0 + dataset.a_max**2)
    return PowerGrowth(coefficient=c, exponent=1.0)


@dataclass
class ModelErrorReport:
    max_violation: float
    n_violations: int
    n_samples: int
    passed: bool
    worst_anchor: Optional[np.ndarray] = None
    worst_point: Optional[np.ndarray] = None


def verify_model_error(oracle, fun, constraint, omega, n_samples=300, seed=0):
    """Sample anchor/point pairs in the set and check
    |f(x) - model(x)| <= omega(||x - anchor||).

    Passes when the worst violation is at most 1e-8 * (1 + |f|); a models
    family paired with an invalid growth function is expected to fail, which
    makes this usable as a negative test as well.
    """
    rng = np.random.default_rng(seed)
    max_violation = -np.inf
    worst = (None, None)
    n_bad = 0
    for _ in range(n_samples):
        anchor = constraint.sample(rng)
        model = oracle.instantiate(anchor)
        x = constraint.sample(rng)
        fx = float(fun(x))
        err = abs(fx - model.value(x))
        violation = err - float(omega(float(np.linalg.norm(x - anchor))))
        if violation > max_violation:
            max_violation = violation
            worst = (anchor, x)
        if violation > 1e-8 * (1.0 + abs(fx)):
            n_bad += 1
    return ModelErrorReport(
        max_violation=float(max_violation),
        n_violations=n_bad,
        n_samples=n_samples,
        passed=n_bad == 0,
        worst_anchor=worst[0],
        worst_point=worst[1],
    )
