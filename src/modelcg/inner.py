"""Preconditioned primal-dual splitting for the box-constrained convex
subproblems that arise from linearized l1 regression models:

    min_{u in box}  sum_i |(K u - target)_i|  +  penalty(u)
                    [+ 1/(2 tau) ||u - center||^2]

The box and the penalty are the models' own types from ``geometry``: a
``Box`` [lo, hi] and a ``WeightedL1``, weight * sum_{j in mask} |u_j|.

The diagonal step sizes are computed from the entries of K, the dual of the
l1 data term is kept in [-1, 1] by clipping, and a Fenchel duality gap serves
as the stopping certificate.

A solve given the model value at its anchor (``anchor_value``) stops by the
outer loop's rule (``modelcg.solver``): the gap check's primal value gives
the model improvement without a further product, and the result returns
that value, so the caller reports the improvement the rule stopped on.

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

A K of at least 1 MiB, half a 2 MiB huge page, gets an anonymous mapping of
its own instead: it starts on a 2 MiB boundary, and the mapping asks the
kernel for transparent huge pages (``MADV_HUGEPAGE``). The full-scale
1000 x 200 Jacobian is 1.6 MB against a 2 MB L2 cache per core. On 4 KiB
pages, where those pages fell in physical memory decided how evenly the
matrix covered the cache sets, and so how much of it stayed in L2: twelve
64-byte-aligned heap copies of one Jacobian took 50.0-63.2 us per product
pair (median 55.9 us), each copy keeping its own time. A huge page is one
physically contiguous block, which covers every set alike: twelve copies on
huge pages took 42.3-47.2 us (median 45.2 us; 15 interleaved rounds of 100
pairs, one BLAS thread, 2-vCPU Xeon VM), and a full-scale solve's time per
iteration fell from 88.9 to 72.7 us (perfbench ``regression-full`` seed 0,
medians of 10 alternating runs). The cost is memory: the mapping is
rounded up to whole 2 MiB pages, 0.4 MB more than a live 1000 x 200 matrix
needs. The gain needs the kernel's transparent huge pages in ``madvise`` or
``always`` mode; under ``never``, or when ``madvise`` fails, the mapping
stays on 4 KiB pages with the old spread, and a platform without
``MADV_HUGEPAGE`` keeps every K in a 64-byte-aligned heap buffer. The
200 x 40 desk matrix (64 KB) stays on the heap.

The loop forms its products with np.dot, not the np.matmul gufunc behind
``@``: both call the same BLAS gemv and give the same bits, and np.dot skips
the gufunc's per-call dispatch. At 200 x 40, the desk subproblem, one
product took 2.2 us against 2.9 us (K @ u) and 1.9 us against 2.5 us
(K.T @ p), medians of 20 rounds on the VM above, and an iteration there
costs about three times its two products, most of it per-call overhead.
At 1000 x 200, where memory traffic bounds the products, the saving is
about 3 % of an iteration.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geometry import Box, WeightedL1, require_finite, require_integer, require_number
from .geometry import require_penalty

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
# a transparent huge page: an array of at least half of one gets a mapping
# of its own that starts on this boundary (see the module docstring)
HUGE_PAGE = 2 << 20


def aligned(shape, data=None):
    """A C-contiguous float64 array of ``shape``, uninitialized or holding
    ``data``, whose data starts on an ``ALIGNMENT``-byte boundary of a heap
    buffer; or, when it takes at least half a huge page (1 MiB) and the
    platform has ``MADV_HUGEPAGE``, on a ``HUGE_PAGE`` boundary of an
    anonymous mapping advised to use huge pages, rounded up to whole ones.
    Why: the ``inner`` module docstring.

    ``data`` itself is returned when it already is such an array, so a
    matrix built by ``aligned`` passes through again without a copy; a large
    array passes only from a huge-page boundary, so a heap copy is copied
    once. The result is a view into a larger buffer or mapping, which it
    keeps alive.
    """
    size = math.prod(shape)
    huge = 8 * size >= HUGE_PAGE // 2 and hasattr(mmap, "MADV_HUGEPAGE")
    boundary = HUGE_PAGE if huge else ALIGNMENT
    if data is not None:
        data = np.asarray(data, dtype=float)
        if data.flags.c_contiguous and data.ctypes.data % boundary == 0:
            return data
    if huge:
        out = _on_huge_pages(size).reshape(shape)
    else:
        buf = np.empty(size + ALIGNMENT // 8)
        skip = (-buf.ctypes.data % ALIGNMENT) // 8
        out = buf[skip : skip + size].reshape(shape)
    if data is not None:
        out[...] = data
    return out


def _on_huge_pages(size):
    """``size`` float64s at the start of a ``HUGE_PAGE``-aligned span of an
    anonymous private mapping, advised to be backed by huge pages. A kernel
    that refuses the advice leaves the span on base pages."""
    span = -(-8 * size // HUGE_PAGE) * HUGE_PAGE
    # private: mmap's default for fileno -1 is a shared mapping, which is
    # shmem and gets huge pages only by the kernel's separate shmem setting
    buf = mmap.mmap(-1, span + HUGE_PAGE, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    start = -np.frombuffer(buf, np.uint8).ctypes.data % HUGE_PAGE
    try:
        buf.madvise(mmap.MADV_HUGEPAGE, start, span)
    except OSError:
        pass
    return np.frombuffer(buf, float, size, start)


@dataclass(frozen=True)
class PiecewiseLinearSubproblem:
    """Data of one inner subproblem (see module docstring for the objective).

    ``penalty`` is a ``WeightedL1`` (anything else, ``None`` included, is a
    ``ValueError``) and ``box`` a ``Box`` (another set raises
    ``NotImplementedError``), each checked by its own type; the subproblem
    checks only that the mask, if any, and the box match the columns of K.
    The optional proximal term (``prox_tau``, a finite number > 0, and
    ``prox_center``) makes the objective strongly convex; both must be given
    together. ``K`` is held as an aligned array (see the module docstring):
    one that is not gets an aligned copy.
    """

    K: np.ndarray
    target: np.ndarray
    penalty: WeightedL1
    box: Box
    prox_tau: Optional[float] = None
    prox_center: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.box, Box):
            raise NotImplementedError("the inner solver handles box constraints")
        K = require_finite(self.K, "K")
        if K.ndim != 2:
            raise ValueError("K must be a matrix")
        K = aligned(K.shape, K)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "target", require_finite(self.target, "target"))
        m, n = K.shape
        if self.target.shape != (m,):
            raise ValueError("target length must match the rows of K")
        mask = require_penalty(self.penalty, "penalty").mask
        if not (self.box.dim == n and (mask is None or mask.shape == (n,))):
            raise ValueError("penalty mask and box must match the columns of K")
        if (self.prox_tau is None) != (self.prox_center is None):
            raise ValueError("prox_tau and prox_center must be given together")
        if self.prox_tau is not None:
            tau = require_number(self.prox_tau, "prox_tau", "positive")
            object.__setattr__(self, "prox_tau", tau)
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

    def objective(self, u):
        u = np.asarray(u, dtype=float)
        val = float(np.abs(self.K @ u - self.target).sum())
        val += self.penalty.value(u)
        if self.prox_tau is not None:
            d = u - self.prox_center
            val += float(d @ d) / (2.0 * self.prox_tau)
        return val

    def with_prox(self, tau, center):
        return replace(self, prox_tau=tau, prox_center=np.asarray(center, float))


@dataclass
class PdState:
    """Warm-startable primal-dual state of one subproblem solve."""

    u: np.ndarray
    p: np.ndarray


@dataclass
class PdhgResult:
    u: np.ndarray
    state: PdState
    primal: float  # the objective at u, as the last gap check computed it
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
    """The primal value and the Fenchel duality gap of ``problem`` as a
    function (primal, gap) = gap(u, p, ktp) of a primal point u in the box,
    a dual point p in [-1, 1] and ktp = K.T @ p.

    The dual value needs the penalty's box conjugate (with the proximal term
    if the problem has one) at v = -ktp: ``WeightedL1.box_conjugate``, whose
    terms free of v are computed here once.
    """
    conjugate = problem.penalty.box_conjugate(problem.box, problem.prox_tau, problem.prox_center)

    def gap(u, p, ktp):
        primal = problem.objective(u)
        dual = -float(p @ problem.target) - conjugate(-ktp)
        return primal, primal - dual

    return gap


def primal_dual_gap(problem, u, p):
    """Fenchel duality gap at primal u (in the box) and dual p (clipped).

    Non-negative up to rounding and an upper bound on the suboptimality of u,
    hence a sound certificate for approximate subproblem solves.
    """
    return _gap_function(problem)(u, p, problem.K.T @ p)[1]


# theta of the stop rule gap <= theta * delta of a solve given an anchor value
GAP_RATIO = 0.5

# iterations between duality-gap evaluations (each forms one matvec, K @ u;
# the loop's check reuses the iteration's K.T @ p)
_GAP_CHECK_EVERY = 25


def pdhg_solve(
    problem,
    warm=None,
    gap_tol=1e-8,
    max_iters=20000,
    anchor_value=None,
):
    """Solve one subproblem by preconditioned primal-dual iterations.

    Dual ascent step then clip to [-1, 1]; primal step by soft-thresholding
    the penalized coordinates and clamping to the box (exact coordinate-wise
    proximal step, since the 1-D objective is convex; on a one-signed box the
    threshold is a shift, see the module docstring); primal extrapolation
    by a factor of two. The duality gap is checked every
    ``_GAP_CHECK_EVERY`` iterations and after the last. Without
    ``anchor_value`` the solve stops once the gap is at most ``gap_tol``.
    With it, let delta = anchor_value - primal value at the check: the solve
    stops once gap <= max(GAP_RATIO * delta, gap_tol - max(delta, 0)). At
    the iteration cap the achieved gap is reported and ``converged`` is
    False; ``primal`` is the value the last check read. ``gap_tol`` must be
    a finite number >= 0, ``max_iters`` an integer >= 0 and ``anchor_value``
    None or a finite number (the rules of ``geometry``), else ``ValueError``.

    ``warm`` is None (start at the box projection of the origin and a zero
    dual) or a :class:`PdState` whose ``u`` has one entry per column of K
    and ``p`` one per row, all finite: it seeds the primal and dual points
    and is only read. Any other ``warm`` raises ``ValueError``.
    """
    require_number(gap_tol, "gap_tol", "non-negative")
    require_integer(max_iters, "max_iters", 0)
    if anchor_value is not None:
        require_number(anchor_value, "anchor_value", "finite")
    K, target, lo, hi = problem.K, problem.target, problem.box.lo, problem.box.hi
    m, n = K.shape
    sigma, theta = precond_steps(K)
    if warm is None:
        u = np.clip(np.zeros(n), lo, hi)
        p = np.zeros(m)
    elif not (isinstance(warm, PdState) and np.shape(warm.u) == (n,) and np.shape(warm.p) == (m,)):
        raise ValueError(f"warm must be None or a PdState with u of shape ({n},), p of ({m},)")
    else:
        u = np.clip(require_finite(warm.u, "warm.u"), lo, hi)
        p = np.clip(require_finite(warm.p, "warm.p"), -1.0, 1.0)
    if problem.prox_tau is not None:
        tau = problem.prox_tau
        blend = tau / (tau + theta)  # effective step theta*blend, center mix 1-blend
        theta_eff = theta * blend
        center_term = (1.0 - blend) * problem.prox_center
    else:
        blend = None
        theta_eff = theta
    level = theta_eff * problem.penalty.weights_vector(n)
    # No lo_j below +0.0: then u >= 0 on the box and the soft-threshold then
    # clamp equals clip(z - level, lo, hi) bit for bit. Where z <= level both
    # give lo, as np.maximum(-0.0, +0.0) is +0.0; with a lo_j of -0.0 that
    # would rest on which zero np.maximum(+0.0, -0.0) returns, so such a box
    # takes the general path.
    one_signed = not np.signbit(lo).any()
    gap_of = _gap_function(problem)

    def limit(primal):
        # the largest gap the solve may stop at
        if anchor_value is None:
            return gap_tol
        delta = anchor_value - primal
        return max(GAP_RATIO * delta, gap_tol - max(delta, 0.0))

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
    # a keyword, as the positional form is deprecated and slower. The products
    # use np.dot, which gives np.matmul's bits without its gufunc dispatch
    # (module docstring).
    dot, add, subtract, multiply = np.dot, np.add, np.subtract, np.multiply
    maximum, minimum, absolute, sign = np.maximum, np.minimum, np.absolute, np.sign

    dot(KT, p, out=ktp)
    primal, gap = gap_of(u, p, ktp)
    stop_at = limit(primal)
    it = 0
    while gap > stop_at and it < max_iters:
        # p = clip(p + sigma * (K @ u_bar - target), -1, 1)
        dot(K, u_bar, out=r)
        subtract(r, target, out=r)
        multiply(sigma, r, out=r)
        add(p, r, out=p)
        maximum(p, minus_one, out=p)
        minimum(p, one, out=p)
        # z = u - theta * (K.T @ p), then z = blend * z + center_term
        dot(KT, p, out=ktp)
        multiply(theta, ktp, out=w)
        subtract(u, w, out=z)
        if blend is not None:
            multiply(blend, z, out=z)
            add(z, center_term, out=z)
        # the penalty's proximal step (WeightedL1.prox_step) at step
        # theta_eff, in place: the one restatement of it outside geometry
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
        if it % _GAP_CHECK_EVERY == 0 or it == max_iters:
            primal, gap = gap_of(u, p, ktp)
            stop_at = limit(primal)

    return PdhgResult(
        u=u, state=PdState(u=u, p=p), primal=primal, gap=gap, iterations=it,
        converged=gap <= stop_at,
    )
