"""Structured matrix factorization: approximate A by a product X Y with X
and Y constrained to problem-specific compact convex sets.

    min over X in XSet, Y in YSet of  0.5 ||A - X Y||_F^2

The smooth coupling is linearized, which makes the subproblems separate over
the factors: per-column oracles for X (normalized atoms or simplex columns)
and either an entrywise-l1 ball or a nuclear norm ball for Y, whose linear
oracle is the dominant singular pair, taken from the top eigenvector of the
smaller Gram matrix of the Y-block gradient (k x k when k <= n). The X
columns after the first form one stacked l2 ball. The solver inputs
designate the Y block, on which the method ``mcgm_hybrid`` keeps a quadratic
proximal term (proximal step on Y, linear-oracle step on X).

The objective and the gradient share one evaluator, which forms only
k-sized products:

    f(X, Y)   = 0.5 ||A||_F^2 - <X^T A, Y> + 0.5 <X^T X, Y Y^T>
    d/dY      = (X^T X) Y - X^T A
    (d/dX)^T  = (Y Y^T) X^T - Y A^T

||A||_F^2 is taken once per problem, as a sum of per-row BLAS dots, which
at row length run no threads, so its bits do not depend on the BLAS thread
count. Each thread keeps its last evaluation: the problem, the point, X^T A
(k x n), X^T X and Y Y^T (k x k) and the value. An evaluation of the same
problem at a point bit for bit equal to the last one forms no product. The
line search's accepted trial is the next anchor, where the model needs the
objective and the gradient, so an outer iteration forms X^T A at the trial,
Y A^T for the gradient and dX^T A for the segment remainder below: three
O(mnk) products and, away from a close fit (see Rounding), no m x n array.
The gradient's products are written straight into the packed vector.

Rounding. Let u = 2**-53, gamma_q = q u / (1 - q u), R = XY - A and
E = |A| + |X| |Y| (entrywise absolute values). A product entry or dot whose
terms pass through q roundings is off by at most gamma_q times the sum of
its terms' magnitudes, in any summation order, with or without fused
multiply-adds. Barring underflow and overflow, the gradient satisfies,
entrywise,

    |fl(d/dX) - d/dX| <= gamma_(n + k + 1) E |Y|^T,
    |fl(d/dY) - d/dY| <= gamma_(m + k + 1) |X|^T E:

(Y Y^T) X^T and Y A^T take n + k and n roundings, (X^T X) Y and X^T A take
m + k and m, and the subtraction one more. The value's terms pass through
n + m - 1 (||A||^2), m + kn (<X^T A, Y>) and m + n + k^2 (<X^T X, Y Y^T>)
roundings, and the two final additions add two; their magnitude sums
0.5 ||A||^2, <|A|, |X| |Y|> and 0.5 || |X| |Y| ||^2 add up to
0.5 ||E||^2. So

    |fl(f) - f| <= gamma_p 0.5 ||E||_F^2,    p = m + n + k (n + k) + 2.

The residual form, half the per-row dots of the rounded XY - A, is off by
at most gamma_q (<|R|, E> + 0.5 ||R||_F^2) + 2 gamma_q^2 ||E||_F^2 with
q = m + n + k: its error shrinks with R. With <|R|, E> at its largest,
||R|| ||E||, the Gram bound is ||E|| / (2 ||R||) times the residual form's,
and ||E||_F <= ||A||_F + ||X||_F ||Y||_F. The evaluator reads the estimate
(||A||_F + ||X||_F ||Y||_F) / (2 ||R||_F) from its own products: ||R||^2 is
2 f, and ||X||_F^2 and ||Y||_F^2 are the traces of X^T X and Y Y^T. While
the estimate is at most 2**_GRAM_LOST_BITS, the value is the Gram value;
past it, near a close fit, the evaluator also forms XY - A, as one m x n
temporary, and returns the residual form's value. The line search needs
objective differences far below u ||A||^2 there: from the Gram value alone,
``mcgm`` on the exact rank-one data of ``generate_problem`` runs out of
backtracks before the stationarity test passes. Noisy data keep the ratio
small: at most 2**4.8 on the benchmark's ``matfac-noisy`` solves, where
||A|| / ||R|| is about 18.

Along a segment the objective is an exact quartic in the step. With
d = (dX, dY), R0 = XY - A, B = X dY + dX Y and C = dX dY,

    h(x + g d) - h(x) - g <grad h(x), d>
        = g^2 (||B||^2/2 + <R0, C>) + g^3 <B, C> + g^4 ||C||^2/2.

``mf_segment_remainder`` computes these coefficients from k x k Gram
matrices, X^T X and Y Y^T from the anchor's evaluation, and the one
k x m x n product dX^T A, with no m x n temporary. The
oracle hands them to the line search, which then skips the trial steps the
objective would reject: it usually evaluates the objective once per outer
iteration, at the accepted step.

Flattening conventions: X column-major (its sets act per column), Y row-major
(the nuclear ball reshapes row-major); the solver variable is
``[vec(X), vec(Y)]`` in that order.

The module builds a problem and runs no solver: ``generate_problem`` poses
the rank-one demo problem, ``solver_inputs`` hands ``(objective, oracle,
constraint, x0, block)`` to ``runner.run_method``, which solves it with any
method, and ``write_factors`` saves the factors of a solution.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import L1Ball, L2Ball, NuclearBall, ProductSet, Simplex
from .geometry import require_finite, require_integer, require_number
from .models import AdditiveCompositeOracle, ProximalModelOracle

__all__ = [
    "MfProblem",
    "GENERATION_PARAMETERS",
    "generate_problem",
    "unit_atoms_set",
    "columnwise_simplex_set",
    "pack_factors",
    "unpack_factors",
    "mf_objective",
    "mf_gradient",
    "mf_segment_remainder",
    "make_mf_sets",
    "make_mf_oracle",
    "default_start",
    "solver_inputs",
    "write_factors",
]


X_KINDS, Y_KINDS = ("unit_atoms", "simplex"), ("sparsity", "low_rank")
# the parameters ``generate_problem`` takes, with their types; a tuple holds
# a parameter's choices
GENERATION_PARAMETERS = {"rows": int, "cols": int, "inner_dim": int, "x_set": X_KINDS,
                         "y_set": Y_KINDS, "radius": float, "seed": int}


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


@dataclass
class MfProblem:
    """One factorization instance. ``A`` a finite non-empty matrix; ``x_kind``
    in ``X_KINDS``, ``y_kind`` in ``Y_KINDS``, ``model`` in {"cg", "hybrid"};
    ``inner_dim`` an integer >= 1, and ``radius`` and ``tau`` finite numbers
    > 0 (the rules of ``geometry``). ``model`` and ``tau`` are read only by
    ``make_mf_oracle``, for the benchmark's workloads: a run takes the
    hybrid as the method ``mcgm_hybrid``, and ``solver_inputs`` refuses a
    hybrid problem.

    ``A`` must not be written in place or replaced after construction:
    evaluations remember their last products by the problem and the point
    alone, and ``||A||_F^2`` is taken once.
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
        if self.A.ndim != 2 or 0 in self.A.shape:
            raise ValueError(f"A must be a non-empty matrix, got shape {self.A.shape}")
        self.inner_dim = require_integer(self.inner_dim, "inner_dim", 1)
        self.radius = require_number(self.radius, "radius", "positive")
        self.tau = require_number(self.tau, "tau", "positive")
        if self.x_kind not in X_KINDS:
            raise ValueError(f"unknown x_kind {self.x_kind!r}")
        if self.y_kind not in Y_KINDS:
            raise ValueError(f"unknown y_kind {self.y_kind!r}")
        if self.model not in ("cg", "hybrid"):
            raise ValueError(f"unknown model {self.model!r}")

    @cached_property
    def _a_sq(self):
        # a sum of per-row dots: at row length BLAS runs no threads, so the
        # bits do not depend on the BLAS thread count
        return float((self.A[:, None, :] @ self.A[:, :, None]).sum())

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


class _LastEvaluation(threading.local):
    """One thread's last evaluation: the problem, a private copy of the
    point, the k-sized products ``X^T A``, ``X^T X`` and ``Y Y^T``, and the
    value."""

    def __init__(self):
        self.problem = None
        self.v = None
        self.xa = self.xx = self.yy = None
        self.value = math.nan


_last = _LastEvaluation()


def _evaluation(problem, v):
    """The thread's slot filled at the packed point ``v``. The caller may
    read its arrays until the thread's next evaluation, and must not write
    them."""
    v = np.asarray(v, dtype=float)
    last = _last
    # bit patterns: a signed zero is told apart, and a NaN point matches itself
    if not (last.problem is problem
            and np.array_equal(last.v.view(np.uint64), v.view(np.uint64))):
        _form_evaluation(problem, v)
    return last


# the most bits the Gram form of the value may lose to cancellation against
# the residual form (module docstring)
_GRAM_LOST_BITS = 8


def _form_evaluation(problem, v):
    """Fill the thread's slot at ``v`` with the Gram products and the value:
    ``0.5 ||A||^2 - <X^T A, Y> + 0.5 <X^T X, Y Y^T>``, or, once that would
    lose more than ``_GRAM_LOST_BITS``, half the sum of the per-row dots of
    ``XY - A``."""
    X, Y = unpack_factors(problem, v)
    last = _last
    last.problem = None  # the slot no longer holds the remembered point
    last.xa, last.xx, last.yy = X.T @ problem.A, X.T @ X, Y @ Y.T
    value = (0.5 * problem._a_sq - float(np.vdot(last.xa, Y))
             + 0.5 * float(np.vdot(last.xx, last.yy)))
    # (||A|| + ||X|| ||Y||) / (2 ||XY - A||) <= 2**bits, with ||XY - A||^2 = 2 value
    scale = math.sqrt(problem._a_sq) + math.sqrt(float(np.trace(last.xx) * np.trace(last.yy)))
    if not 8.0 * value >= (scale * 2.0**-_GRAM_LOST_BITS) ** 2:
        R = X @ Y
        R -= problem.A
        value = 0.5 * float((R[:, None, :] @ R[:, :, None]).sum())
    last.value = value
    last.v = v.copy()
    last.problem = problem


def mf_objective(problem):
    """0.5 ||A - XY||_F^2 on the packed variable."""

    def objective(v):
        return _evaluation(problem, v).value

    return objective


def mf_gradient(problem):
    """Gradient of the smooth coupling: d/dX = X (Y Y^T) - A Y^T and
    d/dY = (X^T X) Y - X^T A, packed like the variable."""

    m, k, n = problem.shape

    def gradient(v):
        last = _evaluation(problem, v)
        X, Y = unpack_factors(problem, v)
        g = np.empty(m * k + k * n)
        # the column-major d/dX is the row-major (d/dX)^T = (Y Y^T) X^T - Y A^T
        gx, gy = g[: m * k].reshape(k, m), g[m * k :].reshape(k, n)
        np.matmul(last.yy, X.T, out=gx)
        gx -= Y @ problem.A.T
        np.matmul(last.xx, Y, out=gy)
        gy -= last.xa
        return g

    return gradient


def mf_segment_remainder(problem):
    """Coefficients ``(c2, c3, c4)`` of the linearization error of the
    objective along ``v + g d``: ``c2 g^2 + c3 g^3 + c4 g^4`` (module
    docstring). Every factor but ``dX^T A`` is a k x k Gram matrix; those of
    ``v`` come from its evaluation."""

    def remainder(v, d):
        last = _evaluation(problem, v)
        xx, yy = last.xx, last.yy
        X, Y = unpack_factors(problem, v)
        dX, dY = unpack_factors(problem, d)
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
        y_set = L1Ball(k * n, problem.radius)  # entrywise, promoting sparse factors
    else:
        y_set = NuclearBall(k, n, problem.radius)  # the convex relaxation of a rank bound
    return ProductSet([x_set, y_set]), x_set, y_set


def _y_block(problem):
    """The mask of the Y block in the packed variable."""
    return np.arange(problem.x_size + problem.y_size) >= problem.x_size


def make_mf_oracle(problem):
    base = AdditiveCompositeOracle(
        None, mf_objective(problem), mf_gradient(problem), mf_segment_remainder(problem)
    )
    if problem.model == "cg":
        return base
    # hybrid: quadratic proximal term on the Y block, oracle step on X
    return ProximalModelOracle(base, problem.tau, _y_block(problem))


def default_start(problem, seed=0):
    """Deterministic feasible start: sampled X atoms, zero Y."""
    _, x_set, _ = make_mf_sets(problem)
    rng = np.random.default_rng(seed)
    x0 = x_set.sample(rng)
    return np.concatenate([x0, np.zeros(problem.y_size)])


def solver_inputs(problem, seed=0):
    """The solver inputs ``(objective, oracle, constraint, x0, block)``:
    the conditional-gradient model, starting from ``default_start(problem,
    seed)``, with the Y block as the block a method may take proximal steps
    on. A problem posed with ``model="hybrid"`` is a ValueError."""
    if problem.model != "cg":
        raise ValueError(f"the hybrid is the method mcgm_hybrid: solver_inputs takes a problem "
                         f"of the default model 'cg', got model={problem.model!r}")
    constraint, _, _ = make_mf_sets(problem)
    return (mf_objective(problem), make_mf_oracle(problem), constraint,
            default_start(problem, seed=seed), _y_block(problem))


def generate_problem(rows=20, cols=15, inner_dim=4, x_set="unit_atoms", y_set="low_rank",
                     radius=None, seed=0):
    """A problem with the rank-one target ``u v^T``, u (``rows``) and v
    (``cols``) standard normal from ``seed``, over the sets named. The
    radius defaults to 1.5 times the norm the Y set bounds of the Y that
    fits the target when the first X column is u / ||u||_2: the target's
    nuclear norm for ``low_rank``, and for ``sparsity`` (an entrywise l1
    ball) the sum of its column norms. Returns the problem and the
    parameters by name, the radius included."""
    for name, value, minimum in (("rows", rows, 1), ("cols", cols, 1), ("seed", seed, 0)):
        require_integer(value, name, minimum)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, 1)) @ rng.standard_normal((1, cols))
    if radius is None:
        fit = np.linalg.norm(A, "nuc") if y_set == "low_rank" else np.linalg.norm(A, axis=0).sum()
        radius = float(1.5 * fit)
    problem = MfProblem(A=A, inner_dim=inner_dim, x_kind=x_set, y_kind=y_set, radius=radius)
    return problem, {"rows": rows, "cols": cols, "inner_dim": inner_dim, "x_set": x_set,
                     "y_set": y_set, "radius": radius, "seed": seed}


def write_factors(problem, v, path, method):
    """Write the factors of the packed point ``v``, which ``method`` found,
    to ``path`` as JSON."""
    X, Y = unpack_factors(problem, v)
    payload = {
        "schema": "modelcg.mf-factors/2",
        "x_kind": problem.x_kind,
        "y_kind": problem.y_kind,
        "method": method,
        "radius": problem.radius,
        "residual_fro": float(np.linalg.norm(problem.A - X @ Y)),
        "X": X.tolist(),
        "Y": Y.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
