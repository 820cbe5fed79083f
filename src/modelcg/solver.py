"""Conditional-gradient outer loop over model functions, with a sufficient
decrease (Armijo) backtracking line search.

Each iteration instantiates the model at the current point, minimizes it
approximately over the constraint set (with a vanishing tolerance schedule),
and moves along the segment toward the minimizer by the largest backtracked
step that decreases the objective by at least ``rho * gamma * improvement``.
A non-positive best model improvement certifies approximate stationarity and
stops the loop.

The loop itself (``_outer_loop``) and the certify-and-retry model
minimization (``_certified_minimize``) are shared with the proximal
backtracking baseline, which supplies a different step rule: a solver is the
rule that turns a model minimization at the iterate into the next iterate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .geometry import require_finite

__all__ = [
    "LineSearchParams",
    "SolverConfig",
    "IterationRecord",
    "SolverTrace",
    "ArmijoResult",
    "LineSearchError",
    "armijo_search",
    "mcgm_solve",
    "stationarity_measure",
    "rate_certificate",
    "rate_certificate_arrays",
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


@dataclass(frozen=True)
class LineSearchParams:
    """Sufficient-decrease parameters: accept gamma = gamma_max * shrink**j
    for the smallest j >= 0 with f(x + gamma d) <= f(x) - rho gamma delta."""

    rho: float = 0.25
    shrink: float = 0.5
    gamma_max: float = 1.0
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if not 0.0 < self.gamma_max <= 1.0:
            raise ValueError("gamma_max must lie in (0, 1]")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be positive")


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

    Returns the first step gamma = gamma_max * shrink**j satisfying the
    sufficient decrease condition, with the point ``x_new = x + gamma (y - x)``
    at which ``fun`` was evaluated; the step should move to that very array,
    not to a recomputation of it. ``delta`` must be positive (a
    non-positive improvement means the step should not be attempted).
    Raises :class:`LineSearchError` when the backtrack budget is exhausted.

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
    f_new = math.inf
    gamma = params.gamma_max
    for j in range(params.max_backtracks + 1):
        gamma = params.gamma_max * params.shrink**j
        threshold = f_x - params.rho * gamma * delta
        if screen is not None and j < params.max_backtracks:
            change = float(screen(gamma))
            if f_x + change - threshold > SCREEN_RTOL * (1.0 + abs(f_x) + abs(change)):
                continue
        x_new = x + gamma * d
        f_new = float(fun(x_new))
        if f_new <= threshold:
            return ArmijoResult(gamma=gamma, backtracks=j, f_new=f_new, x_new=x_new)
    raise LineSearchError(params.max_backtracks, gamma, f_x, f_new, delta)


@dataclass(frozen=True)
class SolverConfig:
    max_iterations: int = 200
    delta_tol: Optional[float] = None  # None: delta_rtol * (1 + |f(x0)|)
    delta_rtol: float = 1e-8
    time_budget_s: Optional[float] = None
    check_feasibility: bool = False

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.delta_tol is not None and not self.delta_tol > 0:
            raise ValueError("delta_tol must be positive")

    def resolve_tol(self, f0):
        if self.delta_tol is not None:
            return self.delta_tol
        return self.delta_rtol * (1.0 + abs(f0))


@dataclass
class IterationRecord:
    """One outer iteration: the objective at the iterate, the model
    improvement measured there, and the step taken from it (gamma = 0 for
    the terminal stationarity probe)."""

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


# The vanishing tolerance schedule of the model minimization: iteration k
# solves its model to duality gap
#     eps_k = max(EPS_FLOOR, min(eps0 (k+1)^-EPS_POWER,
#                                EPS_ADAPT * previous improvement, eps_{k-1}))
# with eps0 a tenth of the first improvement, and 1e-2 (1 + |f(x0)|) until
# that improvement is known. EPS_FLOOR is also the tightest tolerance a
# certification retry asks for.
EPS_POWER = 1.5
EPS_ADAPT = 0.1
EPS_FLOOR = 1e-12


class _EpsSchedule:
    def __init__(self, f0):
        self.bootstrap = 1e-2 * (1.0 + abs(f0))
        self.eps0 = None
        self.prev = math.inf
        self.prev_delta = math.inf

    def eps(self, k):
        if self.eps0 is None:
            base = self.bootstrap
        else:
            base = self.eps0 * (k + 1.0) ** (-EPS_POWER)
        base = min(base, EPS_ADAPT * self.prev_delta)
        eps = max(EPS_FLOOR, min(base, self.prev))
        self.prev = eps
        return eps

    def observe(self, delta):
        if self.eps0 is None and delta > 0:
            self.eps0 = max(0.1 * delta, EPS_FLOOR)
        self.prev_delta = max(delta, EPS_FLOOR)


def _certified_minimize(minimize, improvement, eps, warm, tol):
    """Minimize a model through ``minimize(eps, warm)``; if the measured
    ``improvement(point)`` is below the stationarity tolerance but the
    certificate is looser than it, continue the same solve with a tighter
    tolerance so that termination is sound. The continuations are
    warm-started from the solve's own state and do not count as additional
    subproblem solves.

    Returns the last result, its improvement, the tolerance it was solved
    to, and the inner iterations of all the continuations together.
    """
    res = minimize(eps, warm)
    iterations = res.iterations
    delta = improvement(res.point)
    retries = 0
    while delta <= tol and res.gap > max(tol, EPS_FLOOR) and eps > EPS_FLOOR and retries < 6:
        eps = max(min(0.1 * eps, 0.5 * tol), EPS_FLOOR)
        res = minimize(eps, res.state)
        iterations += res.iterations
        delta = improvement(res.point)
        retries += 1
    return res, delta, eps, iterations


@dataclass
class _Step:
    """One outer iteration as a step rule reports it. ``x`` is None when
    the certified improvement is within the tolerance: the iterate is
    stationary and no step is taken."""

    delta: float  # the improvement the step was accepted against
    inner_iterations: int
    inner_solves: int
    x: Optional[np.ndarray] = None
    f: float = math.nan  # objective at x
    gamma: float = 0.0
    backtracks: int = 0
    solved_delta: float = math.nan  # the last subproblem solve's improvement


def _outer_loop(fun, constraint, x0, cfg, rule, rho, method, callback):
    """The bookkeeping every outer loop shares; ``rule`` supplies the step.

    ``rule(k, x, f_x, eps, tol)`` minimizes a model at the iterate ``x``
    to the scheduled inner tolerance ``eps`` and returns a :class:`_Step`.
    The loop projects ``x0``, resolves the stationarity tolerance, runs the
    tolerance schedule, records each iteration, and decides the status of
    the returned trace.
    """
    x = require_finite(x0, "x0")
    if not constraint.contains(x):
        x = constraint.project(x)
    f_x = float(fun(x))
    if not math.isfinite(f_x):
        raise ValueError(f"the objective at the start is not finite: f(x0) = {f_x!r}")
    tol = cfg.resolve_tol(f_x)
    schedule = _EpsSchedule(f_x)
    records: List[IterationRecord] = []
    status = "max_iterations"
    start = time.perf_counter()

    for k in range(cfg.max_iterations):
        if cfg.check_feasibility and not constraint.contains(x, 1e-7):
            raise RuntimeError(f"iterate left the constraint set at k={k}")
        step = rule(k, x, f_x, schedule.eps(k), tol)
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
        schedule.observe(step.solved_delta)
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
    candidate_hook: Optional[Callable] = None,
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
    candidate_hook : optional ``hook(model, x, y) -> y`` to override the
        default choice of the approximate model minimizer as the step target
        (any point with positive improvement is admissible for descent).

    When the model instance gives the exact change of ``fun`` along the
    segment to the step target (``segment_change``), the line search uses
    it as its screen and calls ``fun`` only on the trial steps it cannot
    rule out; the iterates are those of the plain rule.

    Returns a :class:`SolverTrace`; the terminal record of a ``stationary``
    trace carries the certified improvement (at most the tolerance) and a
    zero step.
    """
    ls = ls or LineSearchParams()
    cfg = cfg or SolverConfig()
    warm = None

    def armijo_step(k, x, f_x, eps, tol):
        nonlocal warm
        model = oracle.instantiate(x)
        res, delta, _, n_inner = _certified_minimize(
            lambda e, w: model.minimize(constraint, e, warm=w),
            lambda y: model.anchor_value - model.value(y),
            eps, warm, tol,
        )
        warm = res.state
        # stationarity is decided on the certified improvement, before any
        # candidate hook dampens the step target
        if delta <= tol:
            return _Step(delta, n_inner, 1)
        solved_delta = delta
        y = res.point
        if candidate_hook is not None:
            y = candidate_hook(model, x, y)
            delta = model.anchor_value - model.value(y)
        # a model outside the ModelInstance hierarchy may lack the method
        segment_change = getattr(model, "segment_change", None)
        screen = segment_change(y) if segment_change is not None else None
        ar = armijo_search(fun, x, y, delta, ls, f_x=f_x, screen=screen)
        return _Step(
            delta, n_inner, 1, ar.x_new, ar.f_new, ar.gamma,
            ar.backtracks, solved_delta,
        )

    return _outer_loop(fun, constraint, x0, cfg, armijo_step, ls.rho, method, callback)


def stationarity_measure(oracle, x, constraint, eps=1e-10):
    """Best available model improvement at x; a value below eps certifies
    eps-approximate stationarity."""
    x = np.asarray(x, dtype=float)
    model = oracle.instantiate(x)
    res = model.minimize(constraint, eps)
    retries = 0
    delta = model.anchor_value - model.value(res.point)
    while res.gap > eps and retries < 6:
        res = model.minimize(constraint, eps, warm=res.state)
        delta = model.anchor_value - model.value(res.point)
        retries += 1
    return delta


@dataclass
class RateCertificate:
    passed: bool
    worst_ratio: float
    worst_k: int
    f_lower: float


def rate_certificate(trace, f_lower=None, rtol=1e-9):
    """Check the telescoped sufficient-decrease bound on a trace, with the
    trace's own ``rho``; see :func:`rate_certificate_arrays`. ``f_lower``
    defaults to the best objective value in the trace (final point
    included), which makes the check conservative."""
    f_vals, deltas, gammas = trace.arrays()
    if f_lower is None:
        f_lower = trace.best_f()
    return rate_certificate_arrays(f_vals, deltas, gammas, trace.rho, f_lower, rtol)


def rate_certificate_arrays(f_values, deltas, gammas, rho, f_lower=None, rtol=1e-9):
    """Check that the running-best improvement obeys the telescoped
    sufficient-decrease bound at every iteration:

        min_{i<=k} delta_i <= (f(x0) - f_lower) / (rho * sum_{i<=k} gamma_i).

    ``f_lower`` defaults to the smallest of ``f_values``. Returns the
    verdict and the tightest observed ratio of the two sides.
    """
    f_values = np.asarray(f_values, dtype=float)
    if f_lower is None:
        f_lower = float(f_values.min())
    f0 = float(f_values[0])
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
        rhs = (f0 - f_lower) / (rho * cum_gamma)
        if best > rhs * (1.0 + rtol) + 1e-15:
            passed = False
        ratio = best / rhs if rhs > 0 else (math.inf if best > 0 else 0.0)
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_k = k
    return RateCertificate(
        passed=passed, worst_ratio=worst_ratio, worst_k=worst_k, f_lower=f_lower
    )


def verify_trace_arrays(f_values, deltas, gammas, rho, final_f=None, rtol=1e-9):
    """Machine-check the per-iteration invariants of a trace given as arrays:
    finite values, objective monotonicity, the sufficient-decrease
    inequality between consecutive iterates, non-negative improvements past
    the tolerance, and steps within [0, 1]. Returns a list of human-readable
    failures."""
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
        if seq[k + 1] > seq[k] + rtol * scale:
            problems.append(f"objective increased at k={k}")
        if k < len(deltas) and seq[k + 1] > seq[k] - rho * gammas[k] * deltas[k] + rtol * scale:
            problems.append(f"sufficient decrease violated at k={k}")
    if np.any(gammas < 0) or np.any(gammas > 1):
        problems.append("step size outside [0, 1]")
    if np.any(deltas < -rtol * scale):
        problems.append("negative model improvement recorded")
    return problems
