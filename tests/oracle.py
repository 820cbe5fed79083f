"""Ground-truth solves of small inner subproblems, for tests to check the
primal-dual inner solver against: exact kink-vertex enumeration without a
proximal term, a multi-resolution grid plus exact line minimization with
one.
"""

from itertools import combinations

import numpy as np


def objective_batch(problem, U):
    """The subproblem objective at each row of U, vectorized."""
    U = np.asarray(U, dtype=float)
    vals = np.abs(U @ problem.K.T - problem.target).sum(axis=1)
    pen = problem.penalty
    cols = slice(None) if pen.mask is None else pen.mask
    vals = vals + pen.weight * np.abs(U[:, cols]).sum(axis=1)
    if problem.prox_tau is not None:
        D = U - problem.prox_center
        vals = vals + (D * D).sum(axis=1) / (2.0 * problem.prox_tau)
    return vals


def _line_min(problem, u, d):
    """Exact minimum of the objective along u + t d within the box.

    Candidates: the segment ends, every kink of the piecewise-linear part
    (data rows and penalized coordinates crossing zero), and, with a proximal
    term, the parabola vertex of each smooth piece between consecutive kinks.
    Returns the best point and its value.
    """
    lo, hi = problem.box.lo, problem.box.hi
    d = np.asarray(d, dtype=float)
    nz = d != 0
    if not np.any(nz):
        return u, problem.objective(u)
    with np.errstate(divide="ignore"):
        t1 = (lo[nz] - u[nz]) / d[nz]
        t2 = (hi[nz] - u[nz]) / d[nz]
    tmin = float(np.minimum(t1, t2).max())
    tmax = float(np.maximum(t1, t2).min())
    if tmin > tmax:
        return u, problem.objective(u)

    r = problem.target - problem.K @ u
    kd = problem.K @ d
    cands = [tmin, tmax]
    knz = kd != 0
    cands.extend((r[knz] / kd[knz]).tolist())
    w = problem.penalty.weights_vector(problem.n)
    pen = (w > 0) & nz
    cands.extend((-u[pen] / d[pen]).tolist())
    cands = np.clip(np.asarray(cands, dtype=float), tmin, tmax)
    if problem.prox_tau is not None:
        # the piecewise slope is constant between kinks; solve
        # slope + d.(u + t d - center)/tau = 0 from each piece's midpoint
        tau = problem.prox_tau
        dd = float(d @ d)
        off = float(d @ (problem.prox_center - u))
        pts = np.unique(cands)
        mids = np.concatenate([pts, 0.5 * (pts[1:] + pts[:-1])]) if pts.size > 1 else pts
        extra = []
        for t in mids:
            slope = float(kd @ np.sign(kd * t - r)) + float(
                (w * d) @ np.sign(u + t * d)
            )
            extra.append((off - tau * slope) / dd)
        cands = np.concatenate([cands, np.clip(extra, tmin, tmax)])

    cands = np.unique(cands)
    U = u[None, :] + cands[:, None] * d[None, :]
    U = np.clip(U, lo, hi)  # guard rounding at the segment ends
    vals = objective_batch(problem, U)
    i = int(np.argmin(vals))
    return U[i], float(vals[i])


def _kink_vertex_min(problem):
    """Exact minimizer of the piecewise-linear (no proximal term) objective.

    A convex piecewise-linear function attains its minimum over the box at a
    point where n independent hyperplanes from {data kinks, penalty kinks,
    box faces} intersect; all such intersections are enumerated.
    """
    n = problem.n
    normals, offsets = [], []
    for i in range(problem.m):
        row = problem.K[i]
        if np.any(row != 0):
            normals.append(row)
            offsets.append(problem.target[i])
    eye = np.eye(n)
    w = problem.penalty.weights_vector(n)
    lo, hi = problem.box.lo, problem.box.hi
    for j in range(n):
        if w[j] > 0:
            normals.append(eye[j])
            offsets.append(0.0)
        normals.append(eye[j])
        offsets.append(lo[j])
        normals.append(eye[j])
        offsets.append(hi[j])
    normals = np.asarray(normals)
    offsets = np.asarray(offsets)
    if len(normals) > 48:
        raise ValueError("too many kink hyperplanes for exact enumeration")

    combos = np.array(list(combinations(range(len(normals)), n)))
    A = normals[combos]  # (n_combos, n, n)
    b = offsets[combos]
    dets = np.abs(np.linalg.det(A))
    row_scale = np.prod(np.linalg.norm(A, axis=2), axis=1)
    ok = dets > 1e-12 * np.maximum(row_scale, 1e-30)
    pts = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
    pad = 1e-9 * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    feas = np.all(pts >= lo - pad, axis=1) & np.all(pts <= hi + pad, axis=1)
    pts = np.clip(pts[feas], lo, hi)
    pts = np.vstack([pts, lo, hi, np.clip(np.zeros(n), lo, hi)])
    vals = objective_batch(problem, pts)
    i = int(np.argmin(vals))
    return pts[i], float(vals[i])


def brute_force_subproblem(problem, resolution=9, max_stages=24, seed=0):
    """Ground-truth solve of a small subproblem (n <= 4). Returns (u, value).

    Without a proximal term the minimum is found exactly by enumerating kink
    hyperplane intersections. With one (strongly convex case), a
    multi-resolution grid localizes the minimum and exact line minimization
    along coordinates and seeded random directions polishes it; plain
    coordinate descent alone can stall on the coupled non-smooth part, which
    is why the direction sweep is included.
    """
    n = problem.n
    if n > 4:
        raise ValueError("brute force oracle is limited to 4 variables")
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    if problem.prox_tau is None:
        return _kink_vertex_min(problem)

    lo, hi = problem.box.lo, problem.box.hi
    wlo, whi = lo.copy(), hi.copy()
    best_u, best_val = None, np.inf
    for _ in range(max_stages):
        axes = [np.linspace(wlo[j], whi[j], resolution) for j in range(n)]
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grid], axis=1)
        vals = objective_batch(problem, pts)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_u = pts[i].copy()
        span = (whi - wlo) / (resolution - 1)
        if float(span.max()) <= 1e-10 * (1.0 + float(np.abs(best_u).max())):
            break
        wlo = np.maximum(best_u - 1.5 * span, lo)
        whi = np.minimum(best_u + 1.5 * span, hi)

    u, val = best_u, best_val
    rng = np.random.default_rng(seed)
    stall = 0
    for _ in range(4000):
        improved = False
        for d in _polish_directions(problem, u, rng):
            u_new, v_new = _line_min(problem, u, d)
            if v_new < val - 1e-14 * (1.0 + abs(val)):
                u, val = u_new, v_new
                improved = True
        stall = 0 if improved else stall + 1
        if stall >= 30:
            break
    return u, val


def _polish_directions(problem, u, rng):
    """Directions for the polish sweep: coordinates, the null space of the
    currently active kink hyperplanes (progress along the valleys where
    coordinate moves stall), and a few random directions."""
    n = problem.n
    dirs = [np.eye(n)]
    scale = 1.0 + float(np.abs(problem.target).max(initial=0.0))
    act = np.abs(problem.K @ u - problem.target) <= 1e-9 * scale
    normals = [problem.K[act]] if np.any(act) else []
    w = problem.penalty.weights_vector(problem.n)
    pen_act = (w > 0) & (np.abs(u) <= 1e-12 * (1.0 + np.abs(u).max()))
    if np.any(pen_act):
        normals.append(np.eye(n)[pen_act])
    if normals:
        N = np.vstack(normals)
        _, s, Vt = np.linalg.svd(N)
        rank = int((s > 1e-10 * max(s[0], 1e-30)).sum())
        if rank < n:
            dirs.append(Vt[rank:])
    dirs.append(rng.standard_normal((n, n)))
    return np.vstack(dirs)
