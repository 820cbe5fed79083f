"""Proximal comparison methods sharing the conditional-gradient trace format.

* ``prox_linear_ls_solve`` -- each iteration minimizes the model plus a fixed
  quadratic proximal term and line searches toward that solution. This is the
  outer loop applied to a proximally regularized model oracle.
* ``prox_linear_bt_solve`` -- backtracks on the proximal weight itself,
  re-solving the subproblem for every trial weight until the objective
  decreases sufficiently, then takes the full step. Only this step rule is
  its own: the outer loop, and the stop rule that classifies the first solve
  of each iteration, are the ones ``mcgm_solve`` runs on. Each trial's
  improvement is the one its proximal solve reports, quadratic included.

Both start from the proximal weight ``ProxLinearConfig.tau0``. The
backtracking variant's weight rule is fixed by the module constants: a
rejected trial multiplies the weight by ``TAU_SHRINK``; a trial is accepted
when the objective falls by ``ACCEPT_RATIO`` times the regularized model
improvement (its traces record ``rho = ACCEPT_RATIO``); an accepted step
multiplies the weight by ``TAU_EXPAND``, capped at ``TAU_MAX_FACTOR * tau0``;
and a weight below ``TAU_FLOOR`` raises :class:`TauUnderflowError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .geometry import require_number
from .models import DEFAULT_TAU, ProximalModelOracle
from .solver import (
    LineSearchParams,
    SolverConfig,
    _outer_loop,
    _Step,
    _unmoved,
    mcgm_solve,
)

__all__ = [
    "ProxLinearConfig",
    "TauUnderflowError",
    "prox_linear_ls_solve",
    "prox_linear_bt_solve",
]


TAU_FLOOR = 1e-12
TAU_SHRINK = 0.5
ACCEPT_RATIO = 0.25
TAU_EXPAND = 2.0
TAU_MAX_FACTOR = 1e6


class TauUnderflowError(RuntimeError):
    """The proximal weight shrank below its floor without an accepted step."""


@dataclass(frozen=True)
class ProxLinearConfig:
    """The starting proximal weight of both baselines: a number (``geometry``
    rule), finite and at least ``TAU_FLOOR``. A vanishing weight pins the
    subproblem solution to the anchor and stalls the method; with an
    infinite one the inner solver's step blends turn NaN. It defaults to
    ``models.DEFAULT_TAU``.
    """

    tau0: float = DEFAULT_TAU

    def __post_init__(self):
        if not TAU_FLOOR <= require_number(self.tau0, "tau0") < math.inf:
            raise ValueError(f"tau0 must be finite and at least TAU_FLOOR = {TAU_FLOOR}, "
                             f"got {self.tau0!r}")


def prox_linear_ls_solve(
    oracle,
    fun,
    constraint,
    x0,
    plcfg: Optional[ProxLinearConfig] = None,
    ls: Optional[LineSearchParams] = None,
    cfg: Optional[SolverConfig] = None,
    callback=None,
):
    """Line-search variant: solve the proximally regularized subproblem once
    per iteration (warm-started) and backtrack along the segment toward its
    solution against the regularized model improvement."""
    plcfg = plcfg or ProxLinearConfig()
    wrapped = ProximalModelOracle(oracle, plcfg.tau0)
    return mcgm_solve(
        wrapped, fun, constraint, x0, ls=ls, cfg=cfg, callback=callback,
        method="proxlin_ls",
    )


def prox_linear_bt_solve(
    oracle,
    fun,
    constraint,
    x0,
    plcfg: Optional[ProxLinearConfig] = None,
    cfg: Optional[SolverConfig] = None,
    callback=None,
):
    """Backtracking variant: shrink the proximal weight, re-solving the
    subproblem per trial, until the full step to the subproblem solution
    decreases the objective by ``ACCEPT_RATIO`` times the regularized model
    improvement. The per-iteration subproblem solve count is the cost
    signature separating this method from the line-search variants.

    Stationarity is probed on the first trial of each iteration only, so a
    string of rejected trials ends in a :class:`TauUnderflowError` rather
    than a spurious converged status. A first trial that gives no direction
    (an uncertified non-positive improvement) is a zero step, and the weight
    stays.
    """
    plcfg = plcfg or ProxLinearConfig()
    cfg = cfg or SolverConfig()
    tau = plcfg.tau0
    tau_max = TAU_MAX_FACTOR * plcfg.tau0
    warm = None

    def weight_backtracking_step(k, x, f_x, tol):
        nonlocal tau, warm
        base = oracle.instantiate(x)

        def solve():
            nonlocal warm
            res = base.minimize_proximal(constraint, tol, tau, warm=warm)
            warm = res.state
            return res

        res = solve()
        unmoved = _unmoved(res, tol, x, f_x)
        if unmoved is not None:
            return unmoved

        n_inner = res.iterations
        delta, y = res.improvement, res.point
        f_y = float(fun(y))
        shrinks = 0
        while not (delta > 0 and f_y <= f_x - ACCEPT_RATIO * delta):
            tau *= TAU_SHRINK
            if tau < TAU_FLOOR:
                raise TauUnderflowError(
                    f"proximal weight underflowed at iteration {k} after "
                    f"{1 + shrinks} subproblem solves (last improvement {delta:.3e})"
                )
            res = solve()
            n_inner += res.iterations
            shrinks += 1
            delta, y = res.improvement, res.point
            f_y = float(fun(y))
        tau = min(tau * TAU_EXPAND, tau_max)
        return _Step(delta, n_inner, 1 + shrinks, y, f_y, 1.0, shrinks)

    return _outer_loop(
        fun, constraint, x0, cfg, weight_backtracking_step, ACCEPT_RATIO,
        "proxlin_bt", callback,
    )
