"""Convex model functions anchored at an iterate.

A model oracle turns a problem description into, for any anchor point, a
convex surrogate that matches the objective value at the anchor and stays
within an error growth function of it nearby. Each family also knows how to
(approximately) minimize its surrogate over a compact convex set, which is
the work horse of the conditional-gradient outer loop:

* ``LinearModelOracle``        -- plain first-order linearization, minimized by
                                  one call to the set's linear oracle.
* ``AdditiveCompositeOracle``  -- keeps a convex penalty exactly, linearizes
                                  the smooth part.
* ``ProximalModelOracle``      -- any of these plus ||x - anchor||^2/(2 tau),
                                  on all coordinates or on a ``mask``. The
                                  mask makes the hybrid: the masked blocks of
                                  a product set take a proximal step, the
                                  others a linear-oracle step.
* ``GaussNewtonOracle``        -- linearizes an inner residual map inside a
                                  convex outer loss; the l1 case is handed to
                                  the primal-dual inner solver.

A minimization returns a :class:`ModelMinimum` that carries the model
improvement of its point, computed by the solve itself: the exact solves
evaluate the model at the point, the Gauss-Newton solve takes the primal
value its stop rule read. Callers read that number and never evaluate the
model again, so a custom family must report it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Box, ProductSet, require_finite, require_number
from .inner import PiecewiseLinearSubproblem, pdhg_solve

__all__ = [
    "ZeroPenalty",
    "WeightedL1",
    "L1Loss",
    "ModelMinimum",
    "ModelInstance",
    "LinearModelOracle",
    "AdditiveCompositeOracle",
    "ProximalModelOracle",
    "GaussNewtonOracle",
    "NonFiniteModelError",
    "prox_penalized",
    "linear_composite_min",
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
# penalties (the convex term kept exactly by composite models)
# ---------------------------------------------------------------------------


class ZeroPenalty:
    """The identically-zero penalty."""

    def value(self, x):
        return 0.0


class WeightedL1:
    """weight * sum of |x_j| over a coordinate subset (all coordinates if
    ``mask`` is None); ``weight`` is a finite number >= 0."""

    def __init__(self, weight, mask=None):
        self.weight = require_number(weight, "weight", "non-negative")
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)

    def weights_vector(self, n):
        if self.mask is None:
            return np.full(n, self.weight)
        if self.mask.shape != (n,):
            raise ValueError("penalty mask does not match the dimension")
        return np.where(self.mask, self.weight, 0.0)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.mask is not None and self.mask.shape != x.shape:
            raise ValueError("penalty mask does not match the dimension")
        sub = x if self.mask is None else x[self.mask]
        return self.weight * float(np.abs(sub).sum())


def _is_zero(penalty):
    return penalty is None or isinstance(penalty, ZeroPenalty)


def prox_penalized(penalty, z, step, constraint):
    """argmin penalty(u) + (1/(2 step)) ||u - z||^2 over the set.

    Exact for a zero penalty on any projectable set, and for a weighted l1
    penalty on a box (soft-threshold then clamp, which is exact because the
    1-D objective is convex). ``step`` may be a scalar or a vector.
    """
    z = np.asarray(z, dtype=float)
    if _is_zero(penalty):
        return constraint.project(z)
    if isinstance(penalty, WeightedL1) and isinstance(constraint, Box):
        level = np.asarray(step, dtype=float) * penalty.weights_vector(z.size)
        s = np.sign(z) * np.maximum(np.abs(z) - level, 0.0)
        return np.clip(s, constraint.lo, constraint.hi)
    raise NotImplementedError(
        "no proximal step for this penalty/constraint combination"
    )


def linear_composite_min(penalty, c, constraint):
    """argmin penalty(u) + <c, u> over the set, exactly.

    A zero penalty reduces to the set's linear oracle. A weighted l1 penalty
    over a box separates per coordinate; each 1-D piecewise-linear term is
    minimized over {lo, 0, hi}.
    """
    c = np.asarray(c, dtype=float)
    if _is_zero(penalty):
        return constraint.lmo(c)
    if isinstance(penalty, WeightedL1) and isinstance(constraint, Box):
        lo, hi = constraint.lo, constraint.hi
        w = penalty.weights_vector(c.size)
        v_lo = w * np.abs(lo) + c * lo
        v_hi = w * np.abs(hi) + c * hi
        out = np.where(v_hi < v_lo, hi, lo)
        val = np.minimum(v_lo, v_hi)
        zero_ok = (lo <= 0.0) & (hi >= 0.0)
        return np.where(zero_ok & (val > 0.0), 0.0, out)
    raise NotImplementedError(
        "no linear-composite minimizer for this penalty/constraint combination"
    )


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
        self.penalty = penalty if penalty is not None else ZeroPenalty()
        self.h_value = float(h_value)
        self.h_grad = _finite_oracle_data(h_grad, "gradient")
        self.remainder = remainder
        super().__init__(anchor, self.h_value + self.penalty.value(anchor))

    def segment_change(self, y):
        # the objective is h alone only without a penalty
        if self.remainder is None or not _is_zero(self.penalty):
            return None
        d = np.asarray(y, dtype=float) - self.anchor
        slope = float(self.h_grad @ d)
        c2, c3, c4 = self.remainder(self.anchor, d)
        return lambda g: g * (slope + g * (c2 + g * (c3 + g * c4)))

    def smooth_part(self, x):
        return self.h_value + float(self.h_grad @ (np.asarray(x, float) - self.anchor))

    def value(self, x):
        return self.penalty.value(x) + self.smooth_part(x)

    def minimize(self, constraint, tol, warm=None):
        y = linear_composite_min(self.penalty, self.h_grad, constraint)
        return ModelMinimum(point=y, improvement=self.anchor_value - self.value(y), gap=0.0)

    def minimize_proximal(self, constraint, tol, tau, warm=None, mask=None):
        """With a mask, each block of a product set is either fully masked
        (proximal step) or fully unmasked (linear-oracle step)."""
        if mask is None:
            y = prox_penalized(self.penalty, self.anchor - tau * self.h_grad, tau, constraint)
        elif not isinstance(constraint, ProductSet):
            raise ValueError("a proximal mask needs a product set to split into blocks")
        else:
            parts = []
            for b, set_b in enumerate(constraint.sets):
                s = slice(constraint.offsets[b], constraint.offsets[b + 1])
                g_b, mask_b = self.h_grad[s], mask[s]
                if mask_b.all():
                    z = self.anchor[s] - tau * g_b
                    parts.append(prox_penalized(self.penalty, z, tau, set_b))
                elif not mask_b.any():
                    parts.append(linear_composite_min(self.penalty, g_b, set_b))
                else:
                    raise ValueError(f"the proximal mask splits block {b} of the product set")
            y = np.concatenate(parts)
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
    """

    def __init__(self, penalty, h, grad_h, remainder=None):
        self.penalty = penalty
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


class ProximalModelOracle:
    """Wraps a model oracle so every instance carries the quadratic term
    ||x - anchor||^2 / (2 tau), on the coordinates set in ``mask`` (all if
    None); ``tau`` is a finite number > 0."""

    def __init__(self, base_oracle, tau, mask=None):
        self.base_oracle = base_oracle
        self.tau = require_number(tau, "tau", "positive")
        self.mask = None if mask is None else np.asarray(mask, dtype=bool)

    def instantiate(self, anchor):
        base = self.base_oracle.instantiate(anchor)
        if self.mask is not None and self.mask.shape != base.anchor.shape:
            raise ValueError("proximal mask does not match the anchor")
        return _ProxRegularizedModel(base, self.tau, self.mask)


class L1Loss:
    """z -> sum_i |z_i - target_i|; 1-Lipschitz in the l1 norm."""

    def __init__(self, targets):
        self.targets = require_finite(targets, "targets")

    def value(self, z):
        return float(np.abs(np.asarray(z, float) - self.targets).sum())


class _GaussNewtonModel(ModelInstance):
    def __init__(self, anchor, loss, penalty, F_value, jac):
        self.loss = loss
        self.penalty = penalty if penalty is not None else ZeroPenalty()
        self.F_value = _finite_oracle_data(F_value, "residual")
        self.jac = _finite_oracle_data(jac, "Jacobian")
        if self.jac.shape[0] != self.F_value.size:
            raise ValueError("jacobian rows do not match the residual dimension")
        anchor = np.asarray(anchor, dtype=float)
        if self.jac.shape[1] != anchor.size:
            raise ValueError("jacobian columns do not match the anchor dimension")
        super().__init__(anchor, loss.value(F_value) + self.penalty.value(anchor))

    def linearized_residual(self, x):
        x = np.asarray(x, dtype=float)
        return self.F_value + self.jac @ (x - self.anchor)

    def value(self, x):
        return self.loss.value(self.linearized_residual(x)) + self.penalty.value(x)

    def subproblem(self, constraint):
        """The equivalent box-constrained piecewise-linear problem (l1 loss)."""
        if not isinstance(self.loss, L1Loss):
            raise NotImplementedError("only the l1 outer loss maps to a subproblem")
        if not isinstance(constraint, Box):
            raise NotImplementedError("the inner solver handles box constraints")
        n = self.anchor.size
        if _is_zero(self.penalty):
            weight, mask = 0.0, np.zeros(n, dtype=bool)
        elif isinstance(self.penalty, WeightedL1):
            weight = self.penalty.weight
            mask = (
                np.ones(n, dtype=bool) if self.penalty.mask is None else self.penalty.mask
            )
        else:
            raise NotImplementedError("unsupported penalty for the inner solver")
        shifted = self.loss.targets - self.F_value + self.jac @ self.anchor
        return PiecewiseLinearSubproblem(
            K=self.jac,
            target=shifted,
            l1_weight=weight,
            l1_mask=mask,
            lo=constraint.lo,
            hi=constraint.hi,
        )

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
        sub = self.subproblem(constraint).with_prox(tau, self.anchor)
        return self._run(sub, tol, warm)


class GaussNewtonOracle:
    """Model family for objectives loss(F(x)) + penalty(x): the residual map
    F is linearized at the anchor inside the (Lipschitz, convex) outer loss.

    The model is minimized by the primal-dual inner solver, which takes an
    :class:`L1Loss` with no penalty or a weighted-l1 one over a box; with
    any other loss, penalty or set the instances still evaluate, but their
    minimization raises ``NotImplementedError``.
    """

    def __init__(self, residual, jacobian, loss, penalty=None):
        self.residual = residual
        self.jacobian = jacobian
        self.loss = loss
        self.penalty = penalty

    def instantiate(self, anchor):
        anchor = np.asarray(anchor, dtype=float)
        return _GaussNewtonModel(
            anchor,
            self.loss,
            self.penalty,
            np.asarray(self.residual(anchor), dtype=float),
            np.asarray(self.jacobian(anchor), dtype=float),
        )
