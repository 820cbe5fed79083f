import itertools

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def box_vertices(lo, hi):
    cols = [(float(a), float(b)) for a, b in zip(lo, hi)]
    return np.array(list(itertools.product(*cols)))


def simplex_vertices(dim):
    return np.eye(dim)


def l1_vertices(dim, radius):
    eye = np.eye(dim)
    return np.vstack([radius * eye, -radius * eye])


def sphere_points(dim, radius, n=4000, seed=7, mean_zero=False):
    """Dense sampling of the sphere (plus the origin) for near-exhaustive
    linear-oracle comparisons on balls."""
    g = np.random.default_rng(seed).standard_normal((n, dim))
    if mean_zero:
        g = g - g.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    pts = radius * g / np.where(norms > 0, norms, 1.0)
    return np.vstack([pts, np.zeros(dim)])


def central_difference(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def feasible_only(fun, constraint, tol=1e-7):
    """``fun``, asserting that every point it is evaluated at lies in
    ``constraint`` (within ``tol``): passed to a solver as its objective,
    it checks the start, every iterate and every line-search trial."""

    def checked(x):
        assert constraint.contains(x, tol), f"objective evaluated outside the set at {x}"
        return fun(x)

    return checked
