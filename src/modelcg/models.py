"""Convex model functions anchored at an iterate.

A model oracle turns a problem description into, for any anchor point, a
convex surrogate that matches the objective value at the anchor and stays
within an error growth function of it nearby. Each family also knows how to
(approximately) minimize its surrogate over a compact convex set, which is
the work horse of the conditional-gradient outer loop:

* ``LinearModelOracle``        -- plain first-order linearization, minimized by
                                  the set's linear oracle, block by block.
* ``AdditiveCompositeOracle``  -- keeps a convex penalty exactly, linearizes
                                  the smooth part.
* ``ProximalModelOracle``      -- any of these plus ||x - anchor||^2/(2 tau),
                                  on all coordinates or on a ``mask``.
* ``GaussNewtonOracle``        -- ||F(x) - targets||_1 + penalty(x) with the
                                  residual map F linearized, minimized by the
                                  primal-dual inner solver.

The one penalty type is :class:`WeightedL1`, of ``geometry``, the layer below
this module and the inner solver, which takes it as it is. An oracle given
``penalty=None`` holds the zero penalty, ``WeightedL1(0)``. An
additive-composite instance has one step routine: each block of a product
set, or the whole set as one block, takes the penalty's proximal step
(``WeightedL1.prox_step``) where a proximal weight is given and the mask
covers the block, and its linear step (``WeightedL1.linear_step``) where
not. The linear step, the proximal step and the CG/prox hybrid (a mask
covering some blocks) are that choice, made per block.

A minimization returns a :class:`ModelMinimum` that carries the model
improvement of its point, computed by the solve itself: the exact solves
evaluate the model at the point, the Gauss-Newton solve takes the primal
value its stop rule read. Callers read that number and never evaluate the
model again, so a custom family must report it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ProductSet, WeightedL1, require_finite, require_mask, require_number
from .geometry import require_penalty
from .inner import PiecewiseLinearSubproblem, pdhg_solve

__all__ = [
    "DEFAULT_TAU",
    "WeightedL1",
    "ModelMinimum",
    "ModelInstance",
    "LinearModelOracle",
    "AdditiveCompositeOracle",
    "ProximalModelOracle",
    "GaussNewtonOracle",
    "NonFiniteModelError",
]


class NonFiniteModelError(RuntimeError):
    """An oracle returned NaN or Inf data (gradient, residual, Jacobian) for
    the model at an anchor: the solve failed, its inputs were accepted."""


def _finite_oracle_data(arr, name):
    a = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(a)):
        bad = int(np.sum(~np.isfinite(a)))
        raise NonFiniteModelError(
            f"oracle returned a {name} with {bad} non-finite entries of {a.size}"
        )
    return a


# ---------------------------------------------------------------------------
# the penalty (its type and its steps, WeightedL1, are in geometry)
# ---------------------------------------------------------------------------


def _oracle_penalty(penalty):
    """The penalty an oracle holds: ``None`` is the zero penalty, and
    anything else must pass ``geometry.require_penalty``."""
    return WeightedL1(0.0) if penalty is None else require_penalty(penalty, "penalty")


# ---------------------------------------------------------------------------
# model instances
# ---------------------------------------------------------------------------


@dataclass
class ModelMinimum:
    """Result of (approximately) minimizing a model over the constraint set.

    ``improvement`` is the model value at the anchor minus the model value
    at ``point``, as the solve computed it: the number an inexact solve
    stopped on, and the only one the solver reads. ``gap`` is a certified
    upper bound on the model suboptimality of ``point`` (0 for closed-form
    solves); ``state`` is warm-start data for the next solve of the same
    family.
    """

    point: np.ndarray
    improvement: float
    gap: float
    iterations: int = 0
    state: object = None

    @property
    def bound(self):
        """max(improvement, 0) + max(gap, 0), an upper bound on the best model
        improvement (a computed gap below 0 is rounding)."""
        return max(self.improvement, 0.0) + max(self.gap, 0.0)


class ModelInstance:
    """A convex surrogate anchored at one point.

    ``value(anchor)`` equals the true objective at the anchor by
    construction; ``anchor_value`` stores that number.
    """

    def __init__(self, anchor, anchor_value):
        self.anchor = np.asarray(anchor, dtype=float)
        self.anchor_value = float(anchor_value)

    def value(self, x):
        raise NotImplementedError

    def minimize(self, constraint, tol, warm=None):
        """A :class:`ModelMinimum` over the set, inexact ones stopped by the
        outer loop's rule at its stationarity tolerance ``tol`` (solver)."""
        raise NotImplementedError(f"{type(self).__name__} has no model solve")

    def minimize_proximal(self, constraint, tol, tau, warm=None, mask=None):
        """Same, for the model plus ||x - anchor||^2 / (2 tau), the quadratic
        taken over the coordinates set in ``mask`` (all if None)."""
        raise NotImplementedError(f"{type(self).__name__} has no proximal solve")

    def segment_change(self, y):
        """The exact change of the objective along the segment to ``y``, as
        ``g -> f(anchor + g (y - anchor)) - f(anchor)``, or None when the
        model does not know it. Exact up to rounding; the line search uses it
        only to skip trial steps the objective would reject."""
        return None


class _AdditiveCompositeModel(ModelInstance):
    def __init__(self, anchor, penalty, h_value, h_grad, remainder=None):
        self.penalty = penalty
        self.h_value = float(h_value)
        self.h_grad = _finite_oracle_data(h_grad, "gradient")
        self.remainder = remainder
        super().__init__(anchor, self.h_value + self.penalty.value(anchor))

    def segment_change(self, y):
        # the objective is h alone only without a penalty
        if self.remainder is None or self.penalty.weight != 0.0:
            return None
        d = np.asarray(y, dtype=float) - self.anchor
        slope = float(self.h_grad @ d)
        c2, c3, c4 = self.remainder(self.anchor, d)
        return lambda g: g * (slope + g * (c2 + g * (c3 + g * c4)))

    def smooth_part(self, x):
        return self.h_value + float(self.h_grad @ (np.asarray(x, float) - self.anchor))

    def value(self, x):
        return self.penalty.value(x) + self.smooth_part(x)

    def _step(self, constraint, tau=None, mask=None):
        """The model minimizer, block by block: each block of a product set,
        or the whole set as one block, with the penalty of its own
        coordinates, takes a proximal step where ``tau`` is given and
        ``mask`` covers the block (or is None), a linear-oracle step where
        not. A mask must cover each block fully or not at all."""
        if isinstance(constraint, ProductSet):
            offsets, sets = constraint.offsets, constraint.sets
        else:
            offsets, sets = (0, self.anchor.size), (constraint,)
        pen, parts = self.penalty, []
        for b, set_b in enumerate(sets):
            s = slice(offsets[b], offsets[b + 1])
            covered = mask is None or mask[s].all()
            if not covered and mask[s].any():
                raise ValueError(f"the proximal mask splits block {b} of the set: a mask "
                                 f"covers whole blocks of a product set")
            pen_b = pen if pen.mask is None else WeightedL1(pen.weight, pen.mask[s])
            if tau is not None and covered:
                z = self.anchor[s] - tau * self.h_grad[s]
                parts.append(pen_b.prox_step(z, tau, set_b))
            else:
                parts.append(pen_b.linear_step(self.h_grad[s], set_b))
        return np.concatenate(parts)

    def minimize(self, constraint, tol, warm=None):
        y = self._step(constraint)
        return ModelMinimum(point=y, improvement=self.anchor_value - self.value(y), gap=0.0)

    def minimize_proximal(self, constraint, tol, tau, warm=None, mask=None):
        y = self._step(constraint, tau, mask)
        value = self.value(y) + _prox_term(y, self.anchor, tau, mask)
        return ModelMinimum(point=y, improvement=self.anchor_value - value, gap=0.0)


class AdditiveCompositeOracle:
    """Convex penalty kept exactly plus a linearized smooth part.

    ``h`` and ``grad_h`` evaluate the smooth part and its gradient. The model
    error is entirely the linearization error of ``h``.

    ``remainder(x, d)``, if given, returns ``(c2, c3, c4)`` with
    ``h(x + g d) - h(x) - g <grad_h(x), d> = c2 g^2 + c3 g^3 + c4 g^4`` for
    every step g, exact up to rounding: only a smooth part that is a quartic
    polynomial along lines has one. With a zero penalty, the instances then
    give the objective's change along a segment (``segment_change``), and
    the line search skips the trial steps it shows the objective would
    reject. A remainder that is not exact may change the iterates.

    ``penalty`` is None (the zero penalty) or a ``WeightedL1``, else
    ``ValueError``. An instance minimizes block by block (one step routine):
    a linear-oracle step on every block from ``minimize``, a proximal step
    on the blocks its mask covers from ``minimize_proximal``. A block with a
    nonzero penalty must be a box; at weight 0 any set with a linear oracle
    and a projection will do.
    """

    def __init__(self, penalty, h, grad_h, remainder=None):
        self.penalty = _oracle_penalty(penalty)
        self.h = h
        self.grad_h = grad_h
        self.remainder = remainder

    def instantiate(self, anchor):
        anchor = np.asarray(anchor, dtype=float)
        return _AdditiveCompositeModel(
            anchor, self.penalty, float(self.h(anchor)), self.grad_h(anchor), self.remainder
        )


class LinearModelOracle(AdditiveCompositeOracle):
    """First-order linearization of a smooth objective: the additive
    composite model with no penalty."""

    def __init__(self, fun, grad):
        super().__init__(None, fun, grad)


def _prox_term(x, anchor, tau, mask):
    """||x - anchor||^2 / (2 tau) over the coordinates set in ``mask`` (all
    if None)."""
    d = np.asarray(x, dtype=float) - anchor
    if mask is not None:
        d = d[mask]
    return float(d @ d) / (2.0 * tau)


class _ProxRegularizedModel(ModelInstance):
    """A model instance plus ||x - anchor||^2 / (2 tau) over the masked
    coordinates; still a valid model (the quadratic vanishes at the anchor
    and is dominated by t^2 growth). It has no proximal solve of its own, so
    a proximal oracle wrapped again fails at its first solve."""

    def __init__(self, base, tau, mask):
        self.base = base
        self.tau = tau
        self.mask = mask
        super().__init__(base.anchor, base.anchor_value)

    def value(self, x):
        return self.base.value(x) + _prox_term(x, self.anchor, self.tau, self.mask)

    def minimize(self, constraint, tol, warm=None):
        return self.base.minimize_proximal(constraint, tol, self.tau, warm=warm, mask=self.mask)

    def segment_change(self, y):
        # the quadratic is part of the model, not of the objective
        return self.base.segment_change(y)


# the proximal weight a method starts from unless it is given one: the
# default of ``ProxLinearConfig.tau0``, which the proximal baselines and
# ``mcgm_hybrid`` read
DEFAULT_TAU = 1.0


class ProximalModelOracle:
    """Wraps a model oracle so every instance carries the quadratic term
    ||x - anchor||^2 / (2 tau), on the coordinates set in ``mask`` (all if
    None); ``tau`` is a finite number > 0."""

    def __init__(self, base_oracle, tau, mask=None):
        self.base_oracle = base_oracle
        self.tau = require_number(tau, "tau", "positive")
        self.mask = None if mask is None else require_mask(mask, "mask")

    def instantiate(self, anchor):
        base = self.base_oracle.instantiate(anchor)
        if self.mask is not None and self.mask.shape != base.anchor.shape:
            raise ValueError("proximal mask does not match the anchor")
        return _ProxRegularizedModel(base, self.tau, self.mask)


class _GaussNewtonModel(ModelInstance):
    def __init__(self, anchor, targets, penalty, F_value, jac):
        self.targets = targets
        self.penalty = penalty
        self.F_value = _finite_oracle_data(F_value, "residual")
        self.jac = _finite_oracle_data(jac, "Jacobian")
        if self.targets.shape != self.F_value.shape:
            raise ValueError("targets do not match the residual dimension")
        if self.jac.shape[0] != self.F_value.size:
            raise ValueError("jacobian rows do not match the residual dimension")
        anchor = np.asarray(anchor, dtype=float)
        if self.jac.shape[1] != anchor.size:
            raise ValueError("jacobian columns do not match the anchor dimension")
        super().__init__(anchor, self._l1_loss(self.F_value) + self.penalty.value(anchor))

    def _l1_loss(self, z):
        return float(np.abs(z - self.targets).sum())

    def linearized_residual(self, x):
        x = np.asarray(x, dtype=float)
        return self.F_value + self.jac @ (x - self.anchor)

    def value(self, x):
        return self._l1_loss(self.linearized_residual(x)) + self.penalty.value(x)

    def subproblem(self, constraint, tau=None):
        """The equivalent box-constrained piecewise-linear problem, plus
        ||x - anchor||^2 / (2 tau) when ``tau`` is given, which takes the
        penalty and the set as they are (a box, else
        ``NotImplementedError``)."""
        shifted = self.targets - self.F_value + self.jac @ self.anchor
        center = None if tau is None else self.anchor
        return PiecewiseLinearSubproblem(self.jac, shifted, self.penalty, constraint, tau, center)

    def _run(self, sub, tol, warm):
        # the subproblem's objective is the model (with the proximal term),
        # and the improvement is the one PDHG's stop rule read
        res = pdhg_solve(sub, warm=warm, gap_tol=tol, anchor_value=self.anchor_value)
        return ModelMinimum(
            point=res.u, improvement=self.anchor_value - res.primal, gap=res.gap,
            iterations=res.iterations, state=res.state,
        )

    def minimize(self, constraint, tol, warm=None):
        return self._run(self.subproblem(constraint), tol, warm)

    def minimize_proximal(self, constraint, tol, tau, warm=None, mask=None):
        if mask is not None:
            raise NotImplementedError("the Gauss-Newton model has no masked proximal step")
        return self._run(self.subproblem(constraint, tau), tol, warm)


class GaussNewtonOracle:
    """Model family for objectives ||F(x) - targets||_1 + penalty(x): the
    residual map F is linearized at the anchor inside the l1 loss.

    The model is minimized by the primal-dual inner solver over a box; over
    any other set the instances still evaluate, but their minimization
    raises ``NotImplementedError``. ``targets`` is a finite vector of the
    residual's shape; ``penalty`` is None (the zero penalty) or a
    ``WeightedL1``, else ``ValueError``.
    """

    def __init__(self, residual, jacobian, targets, penalty=None):
        self.residual = residual
        self.jacobian = jacobian
        self.targets = require_finite(targets, "targets")
        self.penalty = _oracle_penalty(penalty)

    def instantiate(self, anchor):
        anchor = np.asarray(anchor, dtype=float)
        return _GaussNewtonModel(
            anchor,
            self.targets,
            self.penalty,
            np.asarray(self.residual(anchor), dtype=float),
            np.asarray(self.jacobian(anchor), dtype=float),
        )
