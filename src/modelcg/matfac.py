"""Structured matrix factorization demo: approximate A by a product X Y with
X and Y constrained to problem-specific compact convex sets.

    min over X in XSet, Y in YSet of  0.5 ||A - X Y||_F^2

The smooth coupling is linearized, which makes the subproblems separate over
the factors: per-column oracles for X (normalized atoms or simplex columns)
and either an entrywise-l1 ball or a nuclear norm ball for Y, whose linear
oracle is the dominant singular pair, taken from the top eigenvector of the
smaller Gram matrix of the Y-block gradient (k x k when k <= n). The X
columns after the first form one stacked l2 ball. The hybrid mode keeps a
quadratic proximal term on the Y block instead (proximal step on Y,
linear-oracle step on X).

The objective and the gradient share one evaluator of the residual
R = XY - A. Each thread keeps its last residual: an evaluation of the same
problem at a point bit for bit equal to the last one forms no product. The
line search's accepted trial is the next anchor, where the model needs the
objective and the gradient, so an outer iteration forms one residual. A new
point overwrites two m x n buffers the thread reuses while the shape of A
stays the same.

Along a segment the objective is an exact quartic in the step. With
d = (dX, dY), R0 = XY - A, B = X dY + dX Y and C = dX dY,

    h(x + g d) - h(x) - g <grad h(x), d>
        = g^2 (||B||^2/2 + <R0, C>) + g^3 <B, C> + g^4 ||C||^2/2.

``mf_segment_remainder`` computes these coefficients from k x k Gram
matrices and the one k x m x n product dX^T A, with no m x n temporary. The
oracle hands them to the line search, which then skips the trial steps the
objective would reject: it usually evaluates the objective once per outer
iteration, at the accepted step.

Flattening conventions: X column-major (its sets act per column), Y row-major
(the nuclear ball reshapes row-major); the solver variable is
``[vec(X), vec(Y)]`` in that order.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import L1Ball, L2Ball, NuclearBall, ProductSet, Simplex, require_finite
from .models import AdditiveCompositeOracle, ProximalModelOracle
from .runner import write_trace_csv
from .solver import LineSearchParams, SolverConfig, mcgm_solve

__all__ = [
    "MfProblem",
    "unit_atoms_set",
    "columnwise_simplex_set",
    "sparsity_ball_set",
    "low_rank_ball_set",
    "pack_factors",
    "unpack_factors",
    "mf_objective",
    "mf_gradient",
    "mf_segment_remainder",
    "make_mf_sets",
    "make_mf_oracle",
    "mf_demo",
]


def unit_atoms_set(rows, cols):
    """Per-column l2 unit balls; every column after the first is additionally
    mean-zero (the first column keeps a free mean so constant offsets remain
    representable). The mean-zero columns are one stacked ball."""
    sets = [L2Ball(rows, 1.0)]
    if cols > 1:
        sets.append(L2Ball(rows, 1.0, mean_zero=True, count=cols - 1))
    return ProductSet(sets)


def columnwise_simplex_set(rows, cols):
    """Each column on the unit simplex: non-negative entries summing to one."""
    return ProductSet([Simplex(rows) for _ in range(cols)])


def sparsity_ball_set(rows, cols, radius):
    """Entrywise l1 ball over the whole matrix, promoting sparse factors."""
    return L1Ball(rows * cols, radius)


def low_rank_ball_set(rows, cols, radius):
    """Nuclear norm ball, the convex relaxation of a rank constraint."""
    return NuclearBall(rows, cols, radius)


@dataclass
class MfProblem:
    """One factorization instance. ``x_kind`` in {"unit_atoms", "simplex"},
    ``y_kind`` in {"sparsity", "low_rank"}, ``model`` in {"cg", "hybrid"}.

    ``A`` must not be written in place or replaced after construction:
    evaluations remember their last residual by the problem and the point
    alone.
    """

    A: np.ndarray
    inner_dim: int
    x_kind: str = "unit_atoms"
    y_kind: str = "sparsity"
    radius: float = 1.0
    model: str = "cg"
    tau: float = 1.0

    def __post_init__(self):
        self.A = require_finite(self.A, "A")
        if self.A.ndim != 2:
            raise ValueError("A must be a matrix")
        if isinstance(self.inner_dim, bool) or not isinstance(self.inner_dim, numbers.Integral):
            raise ValueError(f"inner_dim must be an integer, got {self.inner_dim!r}")
        if self.inner_dim < 1:
            raise ValueError("inner_dim must be positive")
        if self.x_kind not in ("unit_atoms", "simplex"):
            raise ValueError(f"unknown x_kind {self.x_kind!r}")
        if self.y_kind not in ("sparsity", "low_rank"):
            raise ValueError(f"unknown y_kind {self.y_kind!r}")
        if self.model not in ("cg", "hybrid"):
            raise ValueError(f"unknown model {self.model!r}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")

    @property
    def shape(self):
        m, n = self.A.shape
        return m, self.inner_dim, n

    @property
    def x_size(self):
        m, k, _ = self.shape
        return m * k

    @property
    def y_size(self):
        _, k, n = self.shape
        return k * n


def pack_factors(problem, X, Y):
    return np.concatenate([np.asarray(X, float).ravel(order="F"),
                           np.asarray(Y, float).ravel()])


def unpack_factors(problem, v):
    m, k, n = problem.shape
    v = np.asarray(v, dtype=float)
    X = v[: m * k].reshape(m, k, order="F")
    Y = v[m * k :].reshape(k, n)
    return X, Y


class _LastResidual(threading.local):
    """One thread's last evaluation: the problem, a private copy of the
    point, the residual and its value, and the buffer of its squares."""

    def __init__(self):
        self.problem = None
        self.v = None
        self.R = self.S = None
        self.value = math.nan


_last = _LastResidual()


def _residual(problem, v):
    """``(R, value)`` at the packed point ``v``, with ``R = XY - A`` and
    ``value = 0.5 ||R||_F^2``. ``R`` is the thread's buffer: the caller may
    read it until the thread's next evaluation, and must not write it."""
    v = np.asarray(v, dtype=float)
    last = _last
    # bit patterns: a signed zero is told apart, and a NaN point matches itself
    if not (last.problem is problem
            and np.array_equal(last.v.view(np.uint64), v.view(np.uint64))):
        _form_residual(problem, v)
    return last.R, last.value


def _form_residual(problem, v):
    """Fill the thread's slot at ``v``: the same rounded operations as
    ``A - XY`` squared and summed in fresh arrays. Negating a rounded
    difference is exact, so the squares are those of ``A - XY`` bit for bit."""
    X, Y = unpack_factors(problem, v)
    last = _last
    last.problem = None  # the buffers no longer hold the remembered point
    if last.R is None or last.R.shape != problem.A.shape:
        last.R, last.S = np.empty(problem.A.shape), np.empty(problem.A.shape)
    R, S = last.R, last.S
    np.matmul(X, Y, out=R)
    np.subtract(R, problem.A, out=R)
    np.multiply(R, R, out=S)
    last.value = 0.5 * float(S.sum())
    last.v = v.copy()
    last.problem = problem


def mf_objective(problem):
    """0.5 ||A - XY||_F^2 on the packed variable."""

    def objective(v):
        return _residual(problem, v)[1]

    return objective


def mf_gradient(problem):
    """Gradient of the smooth coupling: d/dX = (XY - A) Y^T and
    d/dY = X^T (XY - A), packed like the variable."""

    def gradient(v):
        R, _ = _residual(problem, v)
        X, Y = unpack_factors(problem, v)
        return np.concatenate([(R @ Y.T).ravel(order="F"), (X.T @ R).ravel()])

    return gradient


def mf_segment_remainder(problem):
    """Coefficients ``(c2, c3, c4)`` of the linearization error of the
    objective along ``v + g d``: ``c2 g^2 + c3 g^3 + c4 g^4`` (module
    docstring). Every factor but ``dX^T A`` is a k x k Gram matrix."""

    def remainder(v, d):
        X, Y = unpack_factors(problem, v)
        dX, dY = unpack_factors(problem, d)
        xx, yy = X.T @ X, Y @ Y.T
        dxdx, dydy = dX.T @ dX, dY @ dY.T
        xdx, ydy = X.T @ dX, Y @ dY.T
        # <X dY, dX dY> + <dX Y, dX dY>, and <XY, dX dY> - <A, dX dY>
        bc = float(np.vdot(xdx, dydy)) + float(np.vdot(dxdx, ydy))
        r0c = float(np.vdot(xdx, ydy)) - float(np.vdot(dX.T @ problem.A, dY))
        bb = (float(np.vdot(xx, dydy)) + 2.0 * float(np.vdot(xdx, ydy.T))
              + float(np.vdot(dxdx, yy)))
        return 0.5 * bb + r0c, bc, 0.5 * float(np.vdot(dxdx, dydy))

    return remainder


def make_mf_sets(problem):
    m, k, n = problem.shape
    if problem.x_kind == "unit_atoms":
        x_set = unit_atoms_set(m, k)
    else:
        x_set = columnwise_simplex_set(m, k)
    if problem.y_kind == "sparsity":
        y_set = sparsity_ball_set(k, n, problem.radius)
    else:
        y_set = low_rank_ball_set(k, n, problem.radius)
    return ProductSet([x_set, y_set]), x_set, y_set


def make_mf_oracle(problem):
    base = AdditiveCompositeOracle(
        None, mf_objective(problem), mf_gradient(problem), mf_segment_remainder(problem)
    )
    if problem.model == "cg":
        return base
    # hybrid: quadratic proximal term on the Y block, oracle step on X
    mask = np.arange(problem.x_size + problem.y_size) >= problem.x_size
    return ProximalModelOracle(base, problem.tau, mask)


def default_start(problem, seed=0):
    """Deterministic feasible start: sampled X atoms, zero Y."""
    _, x_set, _ = make_mf_sets(problem)
    rng = np.random.default_rng(seed)
    x0 = x_set.sample(rng)
    return np.concatenate([x0, np.zeros(problem.y_size)])


def mf_demo(
    problem,
    ls: Optional[LineSearchParams] = None,
    cfg: Optional[SolverConfig] = None,
    out_dir: Optional[str] = None,
    x0=None,
    seed=0,
):
    """Run the factorization and optionally write the factors and the trace.

    Returns ``(trace, X, Y)``; with ``out_dir`` set, also writes
    ``factors.json`` and ``mf_trace.csv`` there.
    """
    constraint, _, _ = make_mf_sets(problem)
    fun = mf_objective(problem)
    oracle = make_mf_oracle(problem)
    if x0 is None:
        x0 = default_start(problem, seed=seed)
    trace = mcgm_solve(oracle, fun, constraint, x0, ls=ls, cfg=cfg, method=f"mf_{problem.model}")
    X, Y = unpack_factors(problem, trace.final_x)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        payload = {
            "schema": "modelcg.mf-factors/1",
            "x_kind": problem.x_kind,
            "y_kind": problem.y_kind,
            "model": problem.model,
            "radius": problem.radius,
            "residual_fro": float(np.linalg.norm(problem.A - X @ Y)),
            "X": X.tolist(),
            "Y": Y.tolist(),
        }
        with open(os.path.join(out_dir, "factors.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        write_trace_csv(trace, os.path.join(out_dir, "mf_trace.csv"), trace.best_f())
    return trace, X, Y
