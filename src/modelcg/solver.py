"""Conditional-gradient outer loop over model functions, with a sufficient
decrease (Armijo) backtracking line search.

Each iteration instantiates the model at the current point, minimizes it
over the constraint set once, and moves along the segment toward the
minimizer by the largest backtracked step that decreases the objective by at
least ``rho * gamma * improvement``.

One rule stops both the inner solve and the loop. A solve returns a point
with model improvement delta and a duality gap (``models.ModelMinimum``),
delta computed once, by the solve that stopped on it: the loop never
evaluates a model. The best improvement delta* satisfies
delta <= delta* <= delta + gap, as the dual value bounds the model minimum
from below. An inexact solve stops once
gap <= theta * delta (``inner.GAP_RATIO``), so delta* <= (1 + theta) delta
and delta -> 0 forces delta* -> 0, or once max(delta, 0) + gap <= tol. The
latter certifies the iterate stationary: the loop stops, and its last row
records that bound. A solve that reaches its iteration cap with delta <= 0
is not certified and gives no direction; the iteration records a zero step
with the bound, and the next one continues the solve from its state.

The loop itself (``_outer_loop``) and that classification of a solve
(``_unmoved``) are shared with the proximal backtracking baseline, which
supplies a different step rule: a solver is the rule that turns a model
minimization at the iterate into the next iterate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .geometry import require_finite, require_integer, require_number

__all__ = [
    "LineSearchParams",
    "SolverConfig",
    "IterationRecord",
    "SolverTrace",
    "ArmijoResult",
    "LineSearchError",
    "armijo_search",
    "mcgm_solve",
    "rate_certificate",
    "RateCertificate",
    "verify_trace_arrays",
]


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget; carries diagnostics.

    This indicates an improvement value inconsistent with the model (or a
    broken error-growth premise), not a tolerance issue.
    """

    def __init__(self, backtracks, gamma, f_start, f_last, delta):
        super().__init__(
            f"line search exhausted {backtracks} backtracks "
            f"(last gamma={gamma:.3e}, f_start={f_start:.6e}, "
            f"f_last={f_last:.6e}, improvement={delta:.3e})"
        )
        self.backtracks = backtracks
        self.gamma = gamma
        self.f_start = f_start
        self.f_last = f_last
        self.delta = delta


# the step sizes the line search tries are SHRINK**j for j = 0, ...,
# MAX_BACKTRACKS, largest first
SHRINK = 0.5
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class LineSearchParams:
    """Sufficient-decrease parameter rho, a number in (0, 1): accept gamma =
    SHRINK**j for the smallest j >= 0 with f(x + gamma d) <= f(x) - rho gamma delta."""

    rho: float = 0.25

    def __post_init__(self):
        if not 0.0 < require_number(self.rho, "rho") < 1.0:
            raise ValueError("rho must lie in (0, 1)")


@dataclass
class ArmijoResult:
    gamma: float
    backtracks: int
    f_new: float
    x_new: np.ndarray  # the accepted trial point, at which fun gave f_new


# a screened trial is skipped only when its predicted value exceeds the
# acceptance threshold by this share of (1 + |f(x)| + |predicted change|),
# far above the rounding error of an exact screen
SCREEN_RTOL = 1e-9


def armijo_search(fun, x, y, delta, params=None, f_x=None, screen=None):
    """Backtracking line search along y - x against the model improvement.

    Returns the first step gamma = SHRINK**j satisfying the
    sufficient decrease condition, with the point ``x_new = x + gamma (y - x)``
    at which ``fun`` was evaluated; the step should move to that very array,
    not to a recomputation of it. ``delta`` must be positive (a
    non-positive improvement means the step should not be attempted).
    Raises :class:`LineSearchError` when the budget of ``MAX_BACKTRACKS``
    backtracks is exhausted.

    ``screen(gamma)``, if given, predicts ``fun(x + gamma d) - f(x)``. A
    trial whose prediction exceeds the acceptance threshold by more than a
    rounding margin is rejected without calling ``fun``; acceptance is
    decided on ``fun``'s own value only, and the last trial is always
    evaluated. So a screen that is exact up to rounding leaves the result
    (step, backtracks, objective value) bit for bit that of the plain rule;
    it may only skip trials ``fun`` would reject. A NaN or infinite
    prediction skips nothing.
    """
    params = params or LineSearchParams()
    if not delta > 0:
        raise ValueError("line search needs a positive model improvement")
    x = np.asarray(x, dtype=float)
    d = np.asarray(y, dtype=float) - x
    if f_x is None:
        f_x = float(fun(x))
    for j in range(MAX_BACKTRACKS + 1):
        gamma = SHRINK**j
        threshold = f_x - params.rho * gamma * delta
        if screen is not None and j < MAX_BACKTRACKS:
            change = float(screen(gamma))
            if f_x + change - threshold > SCREEN_RTOL * (1.0 + abs(f_x) + abs(change)):
                continue
        x_new = x + gamma * d
        f_new = float(fun(x_new))
        if f_new <= threshold:
            return ArmijoResult(gamma=gamma, backtracks=j, f_new=f_new, x_new=x_new)
    raise LineSearchError(MAX_BACKTRACKS, gamma, f_x, f_new, delta)


# the stationarity tolerance relative to 1 + |f(x0)| when none is given
DELTA_RTOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """The loop's limits, each held to its ``geometry`` rule: ``max_iterations``
    an integer >= 1, ``delta_tol`` positive and finite (an infinite one would
    certify any start ``stationary``), ``time_budget_s`` a number >= 0, inf
    included (NaN would never stop the loop)."""

    max_iterations: int = 200
    delta_tol: Optional[float] = None  # None: DELTA_RTOL * (1 + |f(x0)|)
    time_budget_s: Optional[float] = None  # 0 stops after one step, inf never

    def __post_init__(self):
        require_integer(self.max_iterations, "max_iterations", 1)
        if self.delta_tol is not None:
            require_number(self.delta_tol, "delta_tol", "positive")
        if self.time_budget_s is not None:
            if not require_number(self.time_budget_s, "time_budget_s") >= 0:
                raise ValueError("time_budget_s must be non-negative")

    def resolve_tol(self, f0):
        if self.delta_tol is not None:
            return self.delta_tol
        return DELTA_RTOL * (1.0 + abs(f0))


@dataclass
class IterationRecord:
    """One outer iteration: the objective at the iterate, the model
    improvement measured there, and the step taken from it. A row with
    gamma = 0 (the terminal stationarity probe, or a zero step) records the
    certified bound max(delta, 0) + gap on the best improvement instead."""

    k: int
    f_value: float
    delta: float
    gamma: float
    backtracks: int
    inner_iterations: int
    inner_solves: int
    elapsed_s: float


@dataclass
class SolverTrace:
    records: List[IterationRecord]
    status: str  # "stationary" | "max_iterations" | "time_budget"
    final_x: np.ndarray
    final_f: float
    rho: float
    method: str = ""

    @property
    def f0(self):
        return self.records[0].f_value

    def best_f(self):
        return min(min(r.f_value for r in self.records), self.final_f)

    def total_inner_solves(self):
        return sum(r.inner_solves for r in self.records)

    def arrays(self):
        r = self.records
        return (
            np.array([x.f_value for x in r]),
            np.array([x.delta for x in r]),
            np.array([x.gamma for x in r]),
        )


@dataclass
class _Step:
    """One outer iteration as a step rule reports it. ``x`` is None when
    the certified improvement is within the tolerance: the iterate is
    stationary and no step is taken."""

    delta: float  # the improvement the step was accepted against, or the bound
    inner_iterations: int
    inner_solves: int
    x: Optional[np.ndarray] = None
    f: float = math.nan  # objective at x
    gamma: float = 0.0
    backtracks: int = 0


def _unmoved(res, tol, x, f_x):
    """The :class:`_Step` of an iteration whose solve ``res`` (a
    ``ModelMinimum``) at the iterate ``x`` allows no step, else None. Such a
    step records the certified bound ``res.bound``: within ``tol`` it makes
    ``x`` stationary; otherwise a non-positive improvement gives a zero
    step, which keeps ``x``."""
    if res.bound <= tol:
        return _Step(res.bound, res.iterations, 1)
    if res.improvement <= 0.0:
        return _Step(res.bound, res.iterations, 1, x, f_x)
    return None


def _outer_loop(fun, constraint, x0, cfg, rule, rho, method, callback):
    """The bookkeeping every outer loop shares; ``rule`` supplies the step.

    ``rule(k, x, f_x, tol)`` minimizes a model at the iterate ``x`` with
    the stationarity tolerance ``tol`` and returns a :class:`_Step`. The
    loop projects ``x0``, resolves the tolerance, records each iteration,
    and decides the status of the returned trace.
    """
    x = require_finite(x0, "x0")
    if not constraint.contains(x):
        x = constraint.project(x)
    f_x = float(fun(x))
    if not math.isfinite(f_x):
        raise ValueError(f"the objective at the start is not finite: f(x0) = {f_x!r}")
    tol = cfg.resolve_tol(f_x)
    records: List[IterationRecord] = []
    status = "max_iterations"
    start = time.perf_counter()

    for k in range(cfg.max_iterations):
        step = rule(k, x, f_x, tol)
        records.append(
            IterationRecord(
                k, f_x, step.delta, step.gamma, step.backtracks,
                step.inner_iterations, step.inner_solves, time.perf_counter() - start,
            )
        )
        if callback is not None:
            callback(records[-1])
        if step.x is None:
            status = "stationary"
            break
        x, f_x = step.x, step.f
        if cfg.time_budget_s is not None and time.perf_counter() - start > cfg.time_budget_s:
            status = "time_budget"
            break

    return SolverTrace(
        records=records, status=status, final_x=x, final_f=f_x, rho=rho, method=method
    )


def mcgm_solve(
    oracle,
    fun,
    constraint,
    x0,
    ls: Optional[LineSearchParams] = None,
    cfg: Optional[SolverConfig] = None,
    callback: Optional[Callable] = None,
    method: str = "mcgm",
):
    """Minimize ``fun`` over the set by sequential model minimization.

    Parameters
    ----------
    oracle : model family with an ``instantiate(anchor)`` method.
    fun : objective callable; evaluated exactly inside the line search.
    constraint : ConstraintSet (compact convex). x0 is projected onto it if
        needed.
    ls, cfg : line search parameters and solver configuration.
    callback : called with each IterationRecord as it is appended.

    When the model instance gives the exact change of ``fun`` along the
    segment to the step target (``segment_change``), the line search uses
    it as its screen and calls ``fun`` only on the trial steps it cannot
    rule out; the iterates are those of the plain rule.

    Returns a :class:`SolverTrace`; the terminal record of a ``stationary``
    trace carries the certified bound on the improvement (at most the
    tolerance) and a zero step.
    """
    ls = ls or LineSearchParams()
    cfg = cfg or SolverConfig()
    warm = None

    def armijo_step(k, x, f_x, tol):
        nonlocal warm
        model = oracle.instantiate(x)
        res = model.minimize(constraint, tol, warm=warm)
        warm = res.state
        unmoved = _unmoved(res, tol, x, f_x)
        if unmoved is not None:
            return unmoved
        delta, y = res.improvement, res.point
        # a model outside the ModelInstance hierarchy may lack the method
        segment_change = getattr(model, "segment_change", None)
        screen = segment_change(y) if segment_change is not None else None
        ar = armijo_search(fun, x, y, delta, ls, f_x=f_x, screen=screen)
        return _Step(delta, res.iterations, 1, ar.x_new, ar.f_new, ar.gamma, ar.backtracks)

    return _outer_loop(fun, constraint, x0, cfg, armijo_step, ls.rho, method, callback)


# the relative slack of the trace checks, a share of 1 + |f| for the
# objective's inequalities and of the right side for the rate bound
TRACE_RTOL = 1e-9


@dataclass
class RateCertificate:
    passed: bool
    worst_ratio: float
    worst_k: int


def rate_certificate(trace, f_lower=None):
    """Check that the trace's running-best improvement obeys the telescoped
    sufficient-decrease bound at every iteration, with the trace's own
    ``rho``:

        min_{i<=k} delta_i <= (f(x0) - f_lower) / (rho * sum_{i<=k} gamma_i).

    ``f_lower`` defaults to the best objective value in the trace (final
    point included), which makes the check conservative. Returns the verdict
    and the tightest observed ratio of the two sides. Summing the per-step
    sufficient-decrease inequalities of :func:`verify_trace_arrays` gives
    this bound up to their slack, so it adds nothing to them."""
    _, deltas, gammas = trace.arrays()
    if f_lower is None:
        f_lower = trace.best_f()
    best = math.inf
    cum_gamma = 0.0
    worst_ratio = 0.0
    worst_k = -1
    passed = True
    for k in range(len(deltas)):
        best = min(best, float(deltas[k]))
        cum_gamma += float(gammas[k])
        if cum_gamma <= 0.0:
            continue
        rhs = (trace.f0 - f_lower) / (trace.rho * cum_gamma)
        if best > rhs * (1.0 + TRACE_RTOL) + 1e-15:
            passed = False
        ratio = best / rhs if rhs > 0 else (math.inf if best > 0 else 0.0)
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_k = k
    return RateCertificate(passed=passed, worst_ratio=worst_ratio, worst_k=worst_k)


def verify_trace_arrays(f_values, deltas, gammas, rho, final_f=None):
    """Machine-check a trace given as arrays: finite values, objective
    monotonicity and the sufficient-decrease inequality between consecutive
    iterates (the last one against ``final_f`` when given), both up to
    ``TRACE_RTOL`` of 1 + max |f|, non-negative improvements with no slack
    (a recorded one is a step's positive improvement or a bound >= 0), and
    steps within [0, 1]. Returns a list of human-readable failures."""
    f_values = np.asarray(f_values, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    # every comparison with NaN is false, so the checks below cannot see one
    problems = [
        f"non-finite {name} recorded"
        for name, values in (("objective", f_values), ("improvement", deltas),
                             ("step size", gammas))
        if not np.all(np.isfinite(values))
    ]
    if final_f is not None and not math.isfinite(final_f):
        problems.append("non-finite final objective")
    scale = 1.0 + float(np.max(np.abs(f_values), initial=0.0))
    seq = list(f_values) + ([final_f] if final_f is not None else [])
    for k in range(len(seq) - 1):
        if seq[k + 1] > seq[k] + TRACE_RTOL * scale:
            problems.append(f"objective increased at k={k}")
        if k < len(deltas) and seq[k + 1] > seq[k] - rho * gammas[k] * deltas[k] + TRACE_RTOL * scale:
            problems.append(f"sufficient decrease violated at k={k}")
    if np.any(gammas < 0) or np.any(gammas > 1):
        problems.append("step size outside [0, 1]")
    if np.any(deltas < 0):
        problems.append("negative model improvement recorded")
    return problems
