"""Preconditioned primal-dual splitting for the box-constrained convex
subproblems that arise from linearized l1 regression models:

    min_{lo <= u <= hi}  sum_i |(K u - target)_i|  +  l1_weight * sum_{j in mask} |u_j|
                         [+ 1/(2 tau) ||u - center||^2]

The diagonal step sizes are computed from the entries of K, the dual of the
l1 data term is kept in [-1, 1] by clipping, and a Fenchel duality gap serves
as the stopping certificate.

On a one-signed box (no lo_j below +0.0, which holds for every regression
subproblem) the penalty is linear, w|u| = w u, so the primal step is the
clamp of z - level instead of a soft-threshold then a clamp, with the same
bits. The gap check reuses the iteration's K^T p and the per-problem
constants of the box conjugate, so it adds one matvec.

Every subproblem holds K as a C-contiguous float64 array whose data starts
on a 64-byte boundary (``aligned``): numpy guarantees only 16 bytes, and
OpenBLAS's matvecs are slower off a cache-line boundary. The two 1000 x 200
products of one iteration took 52.8 us with K at byte offset 0 mod 64 and
63.9-68.8 us at offsets 16, 32 and 48 (median of 7 x 300 repeats, one BLAS
thread, 2-vCPU Xeon VM), so where the heap put K decided the cost of a
solve. The iterates do not depend on the placement.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geometry import require_finite

__all__ = [
    "aligned",
    "PiecewiseLinearSubproblem",
    "PdState",
    "PdhgResult",
    "precond_steps",
    "pdhg_solve",
    "primal_dual_gap",
]


# the byte boundary of every subproblem matrix (one cache line)
ALIGNMENT = 64


def aligned(shape, data=None):
    """A C-contiguous float64 array of ``shape`` whose data starts on an
    ``ALIGNMENT``-byte boundary: uninitialized, or holding ``data``.

    ``data`` itself is returned when it already is such an array, so a
    matrix built by ``aligned`` passes through again without a copy. The
    result is a view into a slightly larger buffer, which it keeps alive.
    """
    if data is not None:
        data = np.asarray(data, dtype=float)
        if data.flags.c_contiguous and data.ctypes.data % ALIGNMENT == 0:
            return data
    size = math.prod(shape)
    pad = ALIGNMENT // 8
    buf = np.empty(size + pad)
    skip = (-buf.ctypes.data % ALIGNMENT) // 8
    out = buf[skip : skip + size].reshape(shape)
    if data is not None:
        out[...] = data
    return out


@dataclass(frozen=True)
class PiecewiseLinearSubproblem:
    """Data of one inner subproblem (see module docstring for the objective).

    ``l1_mask`` flags the coordinates carrying the l1 penalty. The optional
    proximal term (``prox_tau``, ``prox_center``) makes the objective strongly
    convex; both must be given together. ``K`` is held as an aligned array
    (see the module docstring): one that is not gets an aligned copy.
    """

    K: np.ndarray
    target: np.ndarray
    l1_weight: float
    l1_mask: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    prox_tau: Optional[float] = None
    prox_center: Optional[np.ndarray] = None

    def __post_init__(self):
        K = require_finite(self.K, "K")
        if K.ndim != 2:
            raise ValueError("K must be a matrix")
        K = aligned(K.shape, K)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "target", require_finite(self.target, "target"))
        object.__setattr__(self, "lo", require_finite(self.lo, "lo"))
        object.__setattr__(self, "hi", require_finite(self.hi, "hi"))
        mask = np.asarray(self.l1_mask, dtype=bool)
        object.__setattr__(self, "l1_mask", mask)
        m, n = K.shape
        if self.target.shape != (m,):
            raise ValueError("target length must match the rows of K")
        if not (mask.shape == (n,) and self.lo.shape == (n,) and self.hi.shape == (n,)):
            raise ValueError("mask and box bounds must match the columns of K")
        if np.any(self.lo > self.hi):
            raise ValueError("box is empty: lo > hi somewhere")
        if self.l1_weight < 0:
            raise ValueError("l1_weight must be non-negative")
        if (self.prox_tau is None) != (self.prox_center is None):
            raise ValueError("prox_tau and prox_center must be given together")
        if self.prox_tau is not None:
            if not (math.isfinite(self.prox_tau) and self.prox_tau > 0):
                raise ValueError("prox_tau must be positive and finite")
            center = require_finite(self.prox_center, "prox_center")
            if center.shape != (n,):
                raise ValueError("prox_center must match the columns of K")
            object.__setattr__(self, "prox_center", center)

    @property
    def m(self):
        return self.K.shape[0]

    @property
    def n(self):
        return self.K.shape[1]

    def penalty_weights(self):
        return np.where(self.l1_mask, self.l1_weight, 0.0)

    def objective(self, u):
        u = np.asarray(u, dtype=float)
        val = float(np.abs(self.K @ u - self.target).sum())
        val += self.l1_weight * float(np.abs(u[self.l1_mask]).sum())
        if self.prox_tau is not None:
            d = u - self.prox_center
            val += float(d @ d) / (2.0 * self.prox_tau)
        return val

    def with_prox(self, tau, center):
        return replace(self, prox_tau=float(tau), prox_center=np.asarray(center, float))


@dataclass
class PdState:
    """Warm-startable primal-dual state of one subproblem solve."""

    u: np.ndarray
    p: np.ndarray


@dataclass
class PdhgResult:
    u: np.ndarray
    state: PdState
    gap: float
    iterations: int
    converged: bool


def precond_steps(K):
    """Diagonal dual/primal step sizes from the entries of K.

    sigma_i = 1 / sum_j |K_ij| and theta_j = 1 / sum_i |K_ij|, with the
    convention that an all-zero row or column gets step 1. These steps
    satisfy || diag(sigma)^(1/2) K diag(theta)^(1/2) || <= 1.
    """
    A = np.abs(np.asarray(K, dtype=float))
    row = A.sum(axis=1)
    col = A.sum(axis=0)
    sigma = 1.0 / np.where(row > 0, row, 1.0)
    theta = 1.0 / np.where(col > 0, col, 1.0)
    return sigma, theta


def _gap_function(problem):
    """The Fenchel duality gap of ``problem`` as a function gap(u, p, ktp) of a
    primal point u in the box, a dual point p in [-1, 1] and ktp = K.T @ p.

    The dual value needs the box conjugate
    sup_{lo<=u<=hi} <v, u> - w|u| [- (u-center)^2/(2 tau)], coordinate-wise,
    at v = -ktp. Closed form: without the proximal term the supremum of a
    piecewise linear function sits at {lo, 0, hi}; with it, each sign branch
    is a concave parabola whose clamped vertex is optimal. The terms that do
    not depend on v are computed here once.
    """
    lo, hi, target = problem.lo, problem.hi, problem.target
    w = problem.penalty_weights()
    if problem.prox_tau is None:
        w_lo, w_hi = w * np.abs(lo), w * np.abs(hi)
        inside = (lo <= 0.0) & (hi >= 0.0)

        def conjugate(v):
            vals = np.maximum(v * lo - w_lo, v * hi - w_hi)
            vals = np.where(inside, np.maximum(vals, 0.0), vals)
            return float(vals.sum())

    else:
        tau, c = problem.prox_tau, problem.prox_center
        two_tau = 2.0 * tau
        pos_lo, neg_hi = np.maximum(lo, 0.0), np.minimum(hi, 0.0)
        pos_ok, neg_ok = pos_lo <= hi, lo <= neg_hi

        def branch_value(v, vertex, blo, bhi, nonempty):
            u = np.clip(vertex, blo, bhi)
            val = v * u - w * np.abs(u) - (u - c) ** 2 / two_tau
            return np.where(nonempty, val, -np.inf)

        def conjugate(v):
            pos = branch_value(v, c + tau * (v - w), pos_lo, hi, pos_ok)
            neg = branch_value(v, c + tau * (v + w), lo, neg_hi, neg_ok)
            return float(np.maximum(pos, neg).sum())

    def gap(u, p, ktp):
        primal = problem.objective(u)
        dual = -float(p @ target) - conjugate(-ktp)
        return primal - dual

    return gap


def primal_dual_gap(problem, u, p):
    """Fenchel duality gap at primal u (in the box) and dual p (clipped).

    Non-negative up to rounding and an upper bound on the suboptimality of u,
    hence a sound certificate for approximate subproblem solves.
    """
    return _gap_function(problem)(u, p, problem.K.T @ p)


# iterations between duality-gap evaluations (each forms one matvec, K @ u;
# the loop's check reuses the iteration's K.T @ p)
_GAP_CHECK_EVERY = 25


def pdhg_solve(
    problem,
    warm=None,
    gap_tol=1e-8,
    max_iters=20000,
    callback=None,
):
    """Solve one subproblem by preconditioned primal-dual iterations.

    Dual ascent step then clip to [-1, 1]; primal step by soft-thresholding
    the penalized coordinates and clamping to the box (exact coordinate-wise
    proximal step, since the 1-D objective is convex; on a one-signed box the
    threshold is a shift, see the module docstring); primal extrapolation
    by a factor of two. Stops when the duality gap drops below ``gap_tol``
    (checked every ``_GAP_CHECK_EVERY`` iterations and after the last) or at
    the iteration cap, in which case the achieved gap is reported and
    ``converged`` is False. ``gap_tol`` must be a number >= 0 and
    ``max_iters`` an integer >= 0, else ``ValueError``.

    A dimensionally consistent ``warm`` state seeds the primal and dual
    points; anything else is ignored. A consistent warm state with NaN or
    Inf entries raises ``ValueError``. The warm state is only read.

    ``callback(u, p)`` is called after every iteration with snapshots of the
    primal and dual iterates: copies that later iterations leave alone, so
    a callback may keep them.
    """
    if not (isinstance(gap_tol, numbers.Real) and gap_tol >= 0):
        raise ValueError(f"gap_tol must be a number >= 0, got {gap_tol!r}")
    if not (isinstance(max_iters, numbers.Integral) and max_iters >= 0):
        raise ValueError(f"max_iters must be an integer >= 0, got {max_iters!r}")
    K, target, lo, hi = problem.K, problem.target, problem.lo, problem.hi
    m, n = K.shape
    sigma, theta = precond_steps(K)
    if (
        warm is not None
        and getattr(warm, "u", None) is not None
        and np.shape(warm.u) == (n,)
        and np.shape(warm.p) == (m,)
    ):
        u = np.clip(require_finite(warm.u, "warm.u"), lo, hi)
        p = np.clip(require_finite(warm.p, "warm.p"), -1.0, 1.0)
    else:
        u = np.clip(np.zeros(n), lo, hi)
        p = np.zeros(m)
    if problem.prox_tau is not None:
        tau = problem.prox_tau
        blend = tau / (tau + theta)  # effective step theta*blend, center mix 1-blend
        theta_eff = theta * blend
        center_term = (1.0 - blend) * problem.prox_center
    else:
        blend = None
        theta_eff = theta
    level = theta_eff * problem.penalty_weights()
    # No lo_j below +0.0: then u >= 0 on the box and the soft-threshold then
    # clamp equals clip(z - level, lo, hi) bit for bit. Where z <= level both
    # give lo, as np.maximum(-0.0, +0.0) is +0.0; with a lo_j of -0.0 that
    # would rest on which zero np.maximum(+0.0, -0.0) returns, so such a box
    # takes the general path.
    one_signed = not np.signbit(lo).any()
    gap_of = _gap_function(problem)

    # Work buffers: the loop allocates nothing. Each update is the same
    # sequence of rounded operations as the expression in its comment, so
    # the iterates do not depend on the buffering, and np.clip is spelled
    # np.maximum then np.minimum (the same result, including the sign of a
    # zero, for finite input). ktp keeps the iteration's K.T @ p for the gap
    # check, which then forms only K @ u.
    u_bar = u.copy()
    u_new = np.empty(n)
    z = np.empty(n)
    w = np.empty(n)
    ktp = np.empty(n)
    r = np.empty(m)
    KT = K.T
    # array bounds: np.maximum/np.minimum convert a Python float on every call
    zero, minus_one, one = np.zeros(n), np.full(m, -1.0), np.full(m, 1.0)
    # ufuncs bound to locals (one attribute lookup per call less); out= stays
    # a keyword, as the positional form is deprecated and slower
    matmul, add, subtract, multiply = np.matmul, np.add, np.subtract, np.multiply
    maximum, minimum, absolute, sign = np.maximum, np.minimum, np.absolute, np.sign

    np.matmul(KT, p, out=ktp)
    gap = gap_of(u, p, ktp)
    it = 0
    while gap > gap_tol and it < max_iters:
        # p = clip(p + sigma * (K @ u_bar - target), -1, 1)
        matmul(K, u_bar, out=r)
        subtract(r, target, out=r)
        multiply(sigma, r, out=r)
        add(p, r, out=p)
        maximum(p, minus_one, out=p)
        minimum(p, one, out=p)
        # z = u - theta * (K.T @ p), then z = blend * z + center_term
        matmul(KT, p, out=ktp)
        multiply(theta, ktp, out=w)
        subtract(u, w, out=z)
        if blend is not None:
            multiply(blend, z, out=z)
            add(z, center_term, out=z)
        if one_signed:
            # u_new = clip(z - level, lo, hi)
            subtract(z, level, out=u_new)
        else:
            # u_new = clip(sign(z) * max(|z| - level, 0), lo, hi); the sign
            # factor keeps the -0.0 of a negative z inside the threshold
            absolute(z, out=w)
            subtract(w, level, out=w)
            maximum(w, zero, out=w)
            sign(z, out=u_new)
            multiply(u_new, w, out=u_new)
        maximum(u_new, lo, out=u_new)
        minimum(u_new, hi, out=u_new)
        # u_bar = 2 * u_new - u (doubling by addition is exact)
        add(u_new, u_new, out=u_bar)
        subtract(u_bar, u, out=u_bar)
        u, u_new = u_new, u
        it += 1
        if callback is not None:
            callback(u.copy(), p.copy())
        if it % _GAP_CHECK_EVERY == 0 or it == max_iters:
            gap = gap_of(u, p, ktp)

    return PdhgResult(
        u=u, state=PdState(u=u, p=p), gap=gap, iterations=it, converged=gap <= gap_tol
    )
