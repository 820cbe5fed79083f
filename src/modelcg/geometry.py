"""Convex geometry layer: growth functions, compact constraint sets with linear
minimization oracles and Euclidean projections, and the PSD matrix projection.

Each set owns its oracle and its projection as methods; the set parameters
are checked once, in the constructor, and each call checks only its input.
All sets live on flat float vectors. Matrix-shaped sets (nuclear norm ball)
store their shape and reshape internally, row-major; their oracle and
projection come from the thin SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerGrowth",
    "ConstraintSet",
    "Box",
    "Simplex",
    "L1Ball",
    "L2Ball",
    "NuclearBall",
    "ProductSet",
    "psd_projection",
    "require_finite",
]


def require_finite(arr, name="array"):
    """Return ``arr`` as a float ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


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


def _simplex_threshold(v, radius):
    # Shift for projecting v onto {x >= 0, sum x = radius} by sort-and-threshold.
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - radius
    idx = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u * idx > css)[0][-1])
    return css[rho] / (rho + 1.0)


def psd_projection(H, sym_tol=1e-10):
    """Frobenius-nearest positive semi-definite matrix to a symmetric H.

    H is symmetrized internally; asymmetry beyond ``sym_tol`` (relative to the
    largest entry) is rejected. Negative eigenvalues are clipped to zero.
    """
    H = require_finite(H, "H")
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("H must be square")
    scale = 1.0 + float(np.max(np.abs(H))) if H.size else 1.0
    if float(np.max(np.abs(H - H.T), initial=0.0)) > sym_tol * scale:
        raise ValueError("H is not symmetric within tolerance")
    S = 0.5 * (H + H.T)
    w, V = np.linalg.eigh(S)  # LinAlgError surfaces to the caller
    P = (V * np.clip(w, 0.0, None)) @ V.T
    return 0.5 * (P + P.T)


# ---------------------------------------------------------------------------
# constraint sets
# ---------------------------------------------------------------------------


class ConstraintSet:
    """A non-empty compact convex set on flat vectors.

    Exposes membership, a finite diameter upper bound, a linear minimization
    oracle, Euclidean projection, and feasible-point sampling. All methods are
    pure functions of their inputs.
    """

    dim: int

    def contains(self, x, tol=1e-9):
        raise NotImplementedError

    def diameter(self):
        raise NotImplementedError

    def lmo(self, c):
        """A minimizer of <c, x> over the set."""
        raise NotImplementedError

    def project(self, x):
        raise NotImplementedError

    def sample(self, rng):
        """A feasible point; distribution unspecified but covers the set."""
        raise NotImplementedError

    def _vector(self, x, name):
        # a call's input: finite floats of shape (dim,)
        x = require_finite(x, name)
        if x.shape != (self.dim,):
            raise ValueError(f"{name} has shape {x.shape}, the set needs ({self.dim},)")
        return x


class Box(ConstraintSet):
    """Axis-aligned box [lo, hi]."""

    def __init__(self, lo, hi):
        self.lo = require_finite(lo, "lo")
        self.hi = require_finite(hi, "hi")
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D of equal length")
        if np.any(self.lo > self.hi):
            raise ValueError("box is empty: lo > hi somewhere")
        self.dim = self.lo.size

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        pad = tol * (1.0 + np.maximum(np.abs(self.lo), np.abs(self.hi)))
        return bool(np.all(x >= self.lo - pad) and np.all(x <= self.hi + pad))

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def lmo(self, c):
        """Zero coefficients pick lo."""
        c = self._vector(c, "c")
        return np.where(c < 0, self.hi, self.lo)

    def project(self, x):
        """Coordinate-wise clamp."""
        return np.clip(self._vector(x, "x"), self.lo, self.hi)

    def sample(self, rng):
        return self.lo + rng.random(self.dim) * (self.hi - self.lo)

    def midpoint(self):
        return 0.5 * (self.lo + self.hi)


class Simplex(ConstraintSet):
    """The unit simplex {x >= 0, sum(x) = 1}."""

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = int(dim)

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= -tol) and abs(float(x.sum()) - 1.0) <= tol * self.dim)

    def diameter(self):
        return math.sqrt(2.0) if self.dim > 1 else 0.0

    def lmo(self, c):
        """The vertex of the smallest coefficient, lowest index on ties."""
        c = self._vector(c, "c")
        out = np.zeros_like(c)
        out[int(np.argmin(c))] = 1.0
        return out

    def project(self, x):
        """Sort-and-threshold."""
        x = self._vector(x, "x")
        return np.maximum(x - _simplex_threshold(x, 1.0), 0.0)

    def sample(self, rng):
        e = rng.exponential(size=self.dim)
        return e / e.sum()


class L1Ball(ConstraintSet):
    """l1 norm ball of a given radius."""

    def __init__(self, dim, radius):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not radius > 0:
            raise ValueError("radius must be positive")
        self.dim = int(dim)
        self.radius = float(radius)

    def contains(self, x, tol=1e-9):
        return float(np.abs(x).sum()) <= self.radius + tol * (1.0 + self.radius)

    def diameter(self):
        return 2.0 * self.radius

    def lmo(self, c):
        """A signed scaled basis vector at the largest-magnitude coefficient
        (lowest index on ties); the origin if c = 0."""
        c = self._vector(c, "c")
        out = np.zeros_like(c)
        i = int(np.argmax(np.abs(c)))
        if c[i] != 0.0:
            out[i] = -self.radius * np.sign(c[i])
        return out

    def project(self, x):
        x = self._vector(x, "x")
        a = np.abs(x)
        if a.sum() <= self.radius:
            return x.copy()
        w = np.maximum(a - _simplex_threshold(a, self.radius), 0.0)
        return np.sign(x) * w

    def sample(self, rng):
        g = rng.standard_normal(self.dim)
        return (self.radius * rng.random()) * g / np.abs(g).sum()


class L2Ball(ConstraintSet):
    """l2 norm ball, optionally intersected with the mean-zero hyperplane."""

    def __init__(self, dim, radius, mean_zero=False):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not radius > 0:
            raise ValueError("radius must be positive")
        self.dim = int(dim)
        self.radius = float(radius)
        self.mean_zero = bool(mean_zero)

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        pad = tol * (1.0 + self.radius)
        if self.mean_zero and abs(float(x.mean())) > pad:
            return False
        return float(np.linalg.norm(x)) <= self.radius + pad

    def diameter(self):
        return 2.0 * self.radius

    def lmo(self, c):
        """-radius * c~ / ||c~|| with c~ the cost (made mean-zero if the set
        is); the origin if c~ = 0."""
        c = self._vector(c, "c")
        ct = c - c.mean() if self.mean_zero else c
        nrm = float(np.linalg.norm(ct))
        if nrm == 0.0:
            return np.zeros_like(c)
        return (-self.radius / nrm) * ct

    def project(self, x):
        y = self._vector(x, "x")
        if self.mean_zero:
            y = y - y.mean()
        nrm = float(np.linalg.norm(y))
        if nrm > self.radius:
            y = y * (self.radius / nrm)
        return y

    def sample(self, rng):
        g = rng.standard_normal(self.dim)
        if self.mean_zero:
            g = g - g.mean()
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:
            return np.zeros(self.dim)
        free = self.dim - 1 if self.mean_zero else self.dim
        r = self.radius * rng.random() ** (1.0 / max(free, 1))
        return (r / nrm) * g


class NuclearBall(ConstraintSet):
    """Nuclear norm ball over rows x cols matrices, flattened row-major.

    The oracle returns the rank-one extreme point -radius * u v^T from the
    dominant singular pair (u, v) of the (reshaped) cost; a zero cost yields
    the origin, which is optimal for any feasible point.
    """

    def __init__(self, rows, cols, radius):
        if rows < 1 or cols < 1:
            raise ValueError("matrix shape must be positive")
        if not radius > 0:
            raise ValueError("radius must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.radius = float(radius)
        self.dim = self.rows * self.cols

    def _mat(self, x):
        return np.asarray(x, dtype=float).reshape(self.rows, self.cols)

    def contains(self, x, tol=1e-9):
        s = np.linalg.svd(self._mat(x), compute_uv=False)
        return float(s.sum()) <= self.radius + tol * (1.0 + self.radius)

    def diameter(self):
        # nuclear norm dominates Frobenius, so 2r bounds Euclidean distances
        return 2.0 * self.radius

    def lmo(self, c):
        G = self._mat(require_finite(c, "c"))
        if float(np.max(np.abs(G))) == 0.0:
            return np.zeros(self.dim)
        U, _, Vt = np.linalg.svd(G, full_matrices=False)
        return (-self.radius * np.outer(U[:, 0], Vt[0])).ravel()

    def project(self, x):
        U, s, Vt = np.linalg.svd(self._mat(x), full_matrices=False)
        if s.sum() > self.radius:
            s = np.maximum(s - _simplex_threshold(s, self.radius), 0.0)
        return ((U * s) @ Vt).ravel()

    def sample(self, rng):
        G = rng.standard_normal((self.rows, self.cols))
        return self.project(G.ravel())


class ProductSet(ConstraintSet):
    """Cartesian product of sets acting on consecutive vector blocks."""

    def __init__(self, sets):
        self.sets = tuple(sets)
        if not self.sets:
            raise ValueError("product of zero sets")
        dims = [s.dim for s in self.sets]
        self.offsets = np.concatenate([[0], np.cumsum(dims)])
        self.dim = int(self.offsets[-1])

    def blocks(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError("block dimensions do not sum to the vector length")
        return [x[self.offsets[i] : self.offsets[i + 1]] for i in range(len(self.sets))]

    def contains(self, x, tol=1e-9):
        return all(s.contains(b, tol) for s, b in zip(self.sets, self.blocks(x)))

    def diameter(self):
        return math.sqrt(sum(s.diameter() ** 2 for s in self.sets))

    def lmo(self, c):
        return np.concatenate([s.lmo(b) for s, b in zip(self.sets, self.blocks(c))])

    def project(self, x):
        return np.concatenate([s.project(b) for s, b in zip(self.sets, self.blocks(x))])

    def sample(self, rng):
        return np.concatenate([s.sample(rng) for s in self.sets])
