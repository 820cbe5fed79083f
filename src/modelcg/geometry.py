"""Convex geometry layer: compact constraint sets with linear minimization
oracles and Euclidean projections, and the weighted l1 penalty that the
composite models keep exactly and the inner subproblem takes with its box.

Each set owns its oracle and its projection as methods; the set parameters
are checked once, in the constructor, by the package's argument rules below
(dimensions integers >= 1, radii finite numbers > 0), and each call checks
only its input.
All sets live on flat float vectors. Matrix-shaped sets (nuclear norm ball)
store their shape and reshape internally, row-major. The nuclear ball's
oracle takes the dominant singular pair from the top eigenvector of the
smaller Gram matrix; its projection returns a point inside the ball
unchanged, with no SVD when a Frobenius-norm bound on the nuclear norm
already places it there, and otherwise takes one thin SVD, whose singular
values it thresholds for a point outside. A product of equal l2 balls on
consecutive blocks is one ``L2Ball`` with ``count`` blocks, computed on a
``(count, dim)`` view; its blocks are scaled by a power of two before they
are made mean-zero or squared.

The penalty, ``WeightedL1``, lives here, in the layer below both ``models``
and ``inner``, so a model and its inner subproblem hold the same penalty
and the same ``Box`` objects. Its weight and mask are checked once, by the
same rules (a weight a finite number >= 0, a mask an array of booleans),
and ``require_penalty`` is the rule that refuses a penalty of another type.
The penalty owns the coordinate-wise problems it poses over a set: the
linear step and the proximal step of the composite models, and the box
conjugate of the inner solver's duality gap.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "ConstraintSet",
    "Box",
    "Simplex",
    "L1Ball",
    "L2Ball",
    "NuclearBall",
    "ProductSet",
    "WeightedL1",
    "require_finite",
    "require_integer",
    "require_mask",
    "require_number",
    "require_penalty",
]


def require_finite(arr, name="array"):
    """Return ``arr`` as a float ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def require_integer(value, name, minimum=None):
    """``value`` as an int: a ``numbers.Integral`` (numpy integers included)
    that is no bool and at least ``minimum``, if given. Anything else, 2.0
    included (nothing is truncated), raises ``ValueError`` naming ``name``."""
    # int first: a check against a numbers ABC costs about 0.4 us
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or (
        minimum is not None and value < minimum
    ):
        need = ("an integer" if minimum is None else "non-negative and an integer"
                if minimum == 0 else f"an integer >= {minimum}")
        raise ValueError(f"{name} must be {need}, got {value!r}")
    return int(value)


# the bounds a number may be held to, by name: the test it passes and how a
# message states it. A number with a lower bound is finite too.
_NUMBER_BOUNDS = {
    None: (lambda v: True, "a number"),
    "finite": (math.isfinite, "a finite number"),
    "positive": (lambda v: 0 < v < math.inf, "positive and finite"),
    "non-negative": (lambda v: 0 <= v < math.inf, "finite and non-negative"),
}


def require_number(value, name, bound=None):
    """``value`` as a float: a ``numbers.Real`` (numpy floats included) that
    is no bool and passes ``bound``, a key of ``_NUMBER_BOUNDS``. Anything
    else, a string or ``True`` included, raises ``ValueError`` naming ``name``."""
    passes, need = _NUMBER_BOUNDS[bound]
    # float and int first: a check against a numbers ABC costs about 0.4 us
    real = not isinstance(value, bool) and isinstance(value, (float, int, numbers.Real))
    if not (real and passes(value)):
        raise ValueError(f"{name} must be {need}, got {value!r}")
    return float(value)


def require_mask(value, name):
    """``value`` as a bool ndarray: an array-like whose dtype is already
    bool. Anything else, index-like integers included (``[0, 1]`` is no
    mask of coordinate 1 alone), raises ``ValueError`` naming ``name``."""
    mask = np.asarray(value)
    if mask.dtype != bool:
        raise ValueError(f"{name} must be an array of booleans, got {value!r}")
    return mask


def require_penalty(value, name):
    """``value`` if it is a ``WeightedL1`` (below), the one penalty type;
    anything else, ``None`` included, raises ``ValueError`` naming ``name``."""
    if not isinstance(value, WeightedL1):
        raise ValueError(f"{name} must be a WeightedL1, got {value!r}")
    return value


def _simplex_projection(v, radius):
    # Projection of v onto {x >= 0, sum x = radius} by sort-and-threshold.
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - radius
    idx = np.arange(1, v.size + 1)
    passing = np.nonzero(u * idx > css)[0]
    if passing.size == 0:
        # a radius below the rounding of the largest entry passes no index:
        # the largest entry alone takes the radius
        out = np.zeros_like(v)
        out[int(np.argmax(v))] = radius
        return out
    rho = int(passing[-1])
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


# ---------------------------------------------------------------------------
# constraint sets
# ---------------------------------------------------------------------------


class ConstraintSet:
    """A non-empty compact convex set on flat vectors.

    Exposes membership, a linear minimization oracle, Euclidean projection,
    and feasible-point sampling. All methods are pure functions of their
    inputs.
    """

    dim: int

    def contains(self, x, tol=1e-9):
        raise NotImplementedError

    def lmo(self, c):
        """A minimizer of <c, x> over the set."""
        raise NotImplementedError

    def project(self, x):
        raise NotImplementedError

    def sample(self, rng):
        """A feasible point; distribution unspecified but covers the set."""
        raise NotImplementedError

    def _shaped(self, x, name):
        # a call's input: floats of shape (dim,)
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"{name} has shape {x.shape}, the set needs ({self.dim},)")
        return x

    def _vector(self, x, name):
        # an oracle's input: finite floats of shape (dim,)
        return self._shaped(require_finite(x, name), name)


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
        x = self._shaped(x, "x")
        pad = tol * (1.0 + np.maximum(np.abs(self.lo), np.abs(self.hi)))
        return bool(np.all(x >= self.lo - pad) and np.all(x <= self.hi + pad))

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
        self.dim = require_integer(dim, "dim", 1)

    def contains(self, x, tol=1e-9):
        x = self._shaped(x, "x")
        return bool(np.all(x >= -tol) and abs(float(x.sum()) - 1.0) <= tol * self.dim)

    def lmo(self, c):
        """The vertex of the smallest coefficient, lowest index on ties."""
        c = self._vector(c, "c")
        out = np.zeros_like(c)
        out[int(np.argmin(c))] = 1.0
        return out

    def project(self, x):
        """Sort-and-threshold."""
        x = self._vector(x, "x")
        return _simplex_projection(x, 1.0)

    def sample(self, rng):
        e = rng.exponential(size=self.dim)
        return e / e.sum()


class L1Ball(ConstraintSet):
    """l1 norm ball of a given radius."""

    def __init__(self, dim, radius):
        self.dim = require_integer(dim, "dim", 1)
        self.radius = require_number(radius, "radius", "positive")

    def contains(self, x, tol=1e-9):
        return float(np.abs(self._shaped(x, "x")).sum()) <= self.radius + tol * (1.0 + self.radius)

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
        w = _simplex_projection(a, self.radius)
        return np.sign(x) * w

    def sample(self, rng):
        g = rng.standard_normal(self.dim)
        return (self.radius * rng.random()) * g / np.abs(g).sum()


class L2Ball(ConstraintSet):
    """l2 norm ball, optionally intersected with the mean-zero hyperplane.

    With ``count`` > 1 the set is the product of ``count`` equal balls of
    ``dim`` entries each on consecutive blocks, and ``self.dim`` is the
    vector length ``count * dim``. Every call works on the ``(count, dim)``
    view at once; block for block, the results are the bits of ``count``
    single balls, because a row's mean and squared norm come from the same
    reductions (pairwise sum, BLAS dot) as those of a lone vector.
    """

    def __init__(self, dim, radius, mean_zero=False, count=1):
        self.block_dim = require_integer(dim, "dim", 1)
        self.count = require_integer(count, "count", 1)
        self.dim = self.block_dim * self.count
        self.radius = require_number(radius, "radius", "positive")
        self.mean_zero = bool(mean_zero)

    def _scaled(self, x):
        # the blocks as rows, each divided by 2**e, the power of two of its
        # largest magnitude; also the (count, 1) columns of e and of those
        # magnitudes. A scaled row's sums and squares neither overflow nor
        # underflow; the scaling is exact and cancels in ratios, so rows
        # whose squares stay in range give the bits of the unscaled formulas
        rows = x.reshape(self.count, self.block_dim)
        peak = np.maximum.reduce(np.abs(rows), axis=1, keepdims=True)
        e = np.frexp(peak)[1]
        return np.ldexp(rows, -e), e, peak

    def _mean(self, s):
        return np.add.reduce(s, axis=1, keepdims=True) / self.block_dim

    @staticmethod
    def _norms(s):
        # each sqrt(row @ row) as for a vector: a stack of (1, dim) @ (dim, 1)
        # products is a BLAS dot per row
        return np.sqrt(s[:, None, :] @ s[:, :, None])[:, :, 0]

    def _centred(self, x, name):
        # an oracle's input as scaled rows, each made mean-zero if the set
        # is, their norms and e; a NaN or an inf is its row's largest
        # magnitude, so the peaks alone tell a non-finite input
        s, e, peak = self._scaled(x)
        if not np.isfinite(peak).all():
            raise ValueError(f"{name} contains non-finite entries")
        if self.mean_zero:
            s -= self._mean(s)
        return s, self._norms(s), e

    @staticmethod
    def _unscaled(s, e):
        # 2**e * s; past the float range an entry reads inf
        with np.errstate(over="ignore"):
            return np.ldexp(s, e)

    def contains(self, x, tol=1e-9):
        pad = tol * (1.0 + self.radius)
        s, e, _ = self._scaled(self._shaped(x, "x"))
        if self.mean_zero and np.any(self._unscaled(np.abs(self._mean(s)), e) > pad):
            return False
        return bool(np.all(self._unscaled(self._norms(s), e) <= self.radius + pad))

    def lmo(self, c):
        """Per block, -radius * c~ / ||c~|| with c~ the block's cost (made
        mean-zero if the set is); the origin where c~ = 0."""
        ct, nrm, _ = self._centred(self._shaped(c, "c"), "c")
        scale = np.divide(-self.radius, nrm, out=np.zeros_like(nrm), where=nrm > 0.0)
        np.multiply(ct, scale, out=ct)
        # scale * 0.0 is -0.0 on a block with a norm, where adding it changes
        # no bit, and +0.0 on a zero block, which it makes +0.0 where the
        # cost's zeros may be signed
        ct += scale * 0.0
        return ct.ravel()

    def project(self, x):
        x = self._shaped(x, "x")
        s, nrm, e = self._centred(x, "x")
        outside = self._unscaled(nrm, e) > self.radius
        scale = np.divide(self.radius, nrm, out=np.zeros_like(nrm), where=outside)
        inside = self._unscaled(s, e) if self.mean_zero else x.reshape(s.shape)
        return np.where(outside, scale * s, inside).ravel()

    def sample(self, rng):
        return np.concatenate([self._sample_block(rng) for _ in range(self.count)])

    def _sample_block(self, rng):
        g = rng.standard_normal(self.block_dim)
        if self.mean_zero:
            g = g - g.mean()
        nrm = float(np.linalg.norm(g))
        if nrm == 0.0:
            return np.zeros(self.block_dim)
        free = self.block_dim - 1 if self.mean_zero else self.block_dim
        r = self.radius * rng.random() ** (1.0 / max(free, 1))
        return (r / nrm) * g


# the smallest dot X . X the nuclear ball's Frobenius bound trusts: squares
# that underflow lose at most dim * 2**-1074 in all, which is below
# 2**-100 of this floor for any dim that fits in memory
_FRO_FLOOR = 2.0 ** -900


class NuclearBall(ConstraintSet):
    """Nuclear norm ball over rows x cols matrices, flattened row-major.

    The oracle returns the rank-one extreme point -radius * u v^T from the
    dominant singular pair (u, v) of the (reshaped) cost; a zero cost yields
    the origin, which is optimal for any feasible point.
    """

    def __init__(self, rows, cols, radius):
        self.rows = require_integer(rows, "rows", 1)
        self.cols = require_integer(cols, "cols", 1)
        self.radius = require_number(radius, "radius", "positive")
        self.dim = self.rows * self.cols

    def _mat(self, x):
        return np.asarray(x, dtype=float).reshape(self.rows, self.cols)

    def contains(self, x, tol=1e-9):
        s = np.linalg.svd(self._mat(x), compute_uv=False)
        return float(s.sum()) <= self.radius + tol * (1.0 + self.radius)

    def lmo(self, c):
        """The top singular vector on the shorter side is the top eigenvector
        of the smaller Gram matrix, ``G G^T`` or ``G^T G``; the other is its
        image under ``G``, normalised. The Gram is formed from ``G`` divided
        by its largest entry, so squaring neither overflows nor underflows."""
        G = self._mat(require_finite(c, "c"))
        peak = float(np.max(np.abs(G)))
        if peak == 0.0:
            return np.zeros(self.dim)
        G = G / peak
        if self.rows <= self.cols:
            u = np.linalg.eigh(G @ G.T)[1][:, -1]
            v = u @ G
            v /= np.linalg.norm(v)
        else:
            v = np.linalg.eigh(G.T @ G)[1][:, -1]
            u = G @ v
            u /= np.linalg.norm(u)
        return np.outer(-self.radius * u, v).ravel()

    def project(self, x):
        """A copy of ``x`` when its singular values sum to at most the
        radius; otherwise the thin SVD with the singular values projected
        onto the simplex of that sum.

        No SVD is needed when ``sqrt(min(rows, cols)) * ||X||_F``, enlarged
        by a rounding margin, is within the radius: by Cauchy-Schwarz on the
        at most ``min(rows, cols)`` nonzero singular values, it bounds their
        sum. The margin covers the rounding of the dot ``X . X`` (relative
        ``dim * 2**-53``) and of the square roots and products, and a dot
        below ``_FRO_FLOOR`` takes the SVD, so squares that underflow cannot
        hide mass. Only a point outside the bound pays for one thin SVD."""
        X = self._mat(x)
        flat = X.ravel()
        sq = float(flat @ flat)
        margin = 1.0 + (self.dim + 8) * np.finfo(float).eps
        if sq >= _FRO_FLOOR and math.sqrt(min(self.rows, self.cols) * sq) * margin <= self.radius:
            return X.flatten()
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
        if s.sum() <= self.radius:
            return X.flatten()
        s = _simplex_projection(s, self.radius)
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

    def lmo(self, c):
        return np.concatenate([s.lmo(b) for s, b in zip(self.sets, self.blocks(c))])

    def project(self, x):
        return np.concatenate([s.project(b) for s, b in zip(self.sets, self.blocks(x))])

    def sample(self, rng):
        return np.concatenate([s.sample(rng) for s in self.sets])


# ---------------------------------------------------------------------------
# the penalty (the convex term kept exactly by composite models)
# ---------------------------------------------------------------------------


class WeightedL1:
    """weight * sum of |x_j| over a coordinate subset (all coordinates if
    ``mask`` is None); ``weight`` is a finite number >= 0 and ``mask`` None
    or an array of booleans (the rules above). The one penalty type of the
    composite models and of the inner subproblem: weight 0 is the zero
    penalty, which an oracle holds when it is given ``penalty=None``."""

    def __init__(self, weight, mask=None):
        self.weight = require_number(weight, "weight", "non-negative")
        self.mask = None if mask is None else require_mask(mask, "mask")

    def weights_vector(self, n):
        if self.mask is None:
            return np.full(n, self.weight)
        if self.mask.shape != (n,):
            raise ValueError("penalty mask does not match the dimension")
        return np.where(self.mask, self.weight, 0.0)

    def value(self, x):
        if self.weight == 0.0:
            return 0.0
        x = np.asarray(x, dtype=float)
        if self.mask is not None and self.mask.shape != x.shape:
            raise ValueError("penalty mask does not match the dimension")
        sub = x if self.mask is None else x[self.mask]
        return self.weight * float(np.abs(sub).sum())

    # The coordinate-wise problems the penalty poses over a set. Only the
    # inner solver's loop restates one, the proximal step, in place.

    def _corners(self, box):
        """The candidates of sup_{u in box} <v, u> - penalty(u), coordinate
        by coordinate: the function v -> (the value at lo, the value at hi),
        whose terms free of v are computed here once, and the mask of the
        coordinates where 0 is in the box, the third candidate, of value 0."""
        lo, hi = box.lo, box.hi
        w_lo, w_hi = self.weights_vector(box.dim) * np.abs([lo, hi])
        return (lambda v: (v * lo - w_lo, v * hi - w_hi)), (lo <= 0.0) & (hi >= 0.0)

    def linear_step(self, c, constraint):
        """argmin penalty(u) + <c, u> over the set, exactly: at weight 0 the
        set's own linear oracle; otherwise the set must be a box, over which
        each coordinate takes the least of its candidates {lo, 0, hi}, lo on
        a tie (the best of ``_corners`` at v = -c). A ``c`` of another length
        than the set is a ``ValueError``, at any weight."""
        if self.weight == 0.0:
            return constraint.lmo(c)
        if not isinstance(constraint, Box):
            raise NotImplementedError("a weighted l1 linear step needs a box")
        corners, inside = self._corners(constraint)
        at_lo, at_hi = corners(-constraint._shaped(c, "c"))
        out = np.where(at_hi > at_lo, constraint.hi, constraint.lo)
        return np.where(inside & (np.maximum(at_lo, at_hi) < 0.0), 0.0, out)

    def prox_step(self, z, step, constraint):
        """argmin penalty(u) + ||u - z||^2 / (2 step) over the set: at weight
        0 the set's own projection; otherwise the set must be a box, where it
        is soft-threshold then clamp, exact because the 1-D objective is
        convex. ``step`` may be a scalar or a vector; a ``z`` of another
        length than the set is a ``ValueError``, at any weight."""
        if self.weight == 0.0:
            return constraint.project(z)
        if not isinstance(constraint, Box):
            raise NotImplementedError("a weighted l1 proximal step needs a box")
        z = constraint._shaped(z, "z")
        level = np.asarray(step, dtype=float) * self.weights_vector(z.size)
        s = np.sign(z) * np.maximum(np.abs(z) - level, 0.0)
        return np.clip(s, constraint.lo, constraint.hi)

    def box_conjugate(self, box, tau=None, center=None):
        """The function v -> sup_{u in box} <v, u> - penalty(u)
        [- ||u - center||^2 / (2 tau)], a float, with the terms free of v
        computed here once. Without the proximal term the supremum of each
        piecewise-linear coordinate sits at {lo, 0, hi} (``_corners``); with
        it, each sign branch is a concave parabola whose clamped vertex is
        optimal."""
        if tau is None:
            corners, inside = self._corners(box)

            def conjugate(v):
                vals = np.maximum(*corners(v))
                vals = np.where(inside, np.maximum(vals, 0.0), vals)
                return float(vals.sum())

            return conjugate
        w = self.weights_vector(box.dim)
        two_tau = 2.0 * tau
        pos_lo, neg_hi = np.maximum(box.lo, 0.0), np.minimum(box.hi, 0.0)
        pos_ok, neg_ok = pos_lo <= box.hi, box.lo <= neg_hi

        def branch_value(v, vertex, blo, bhi, nonempty):
            u = np.clip(vertex, blo, bhi)
            val = v * u - w * np.abs(u) - (u - center) ** 2 / two_tau
            return np.where(nonempty, val, -np.inf)

        def conjugate(v):
            pos = branch_value(v, center + tau * (v - w), pos_lo, box.hi, pos_ok)
            neg = branch_value(v, center + tau * (v + w), box.lo, neg_hi, neg_ok)
            return float(np.maximum(pos, neg).sum())

        return conjugate
