"""Numpy round kernel: the round of :func:`bandalloc.engine.step` on arrays.

:func:`bandalloc.engine.run` and :func:`bandalloc.oracle.solve` import this
module lazily, through ``engine.array_kernel_for``, and use it when numpy
imports and the scenario has at least ``engine.ARRAY_MIN_DEVICES`` devices;
the package itself needs only the stdlib. The arithmetic follows
``step`` and :func:`bandalloc.utility.invert_derivative` operation for
operation, gossip's sums in sequence and the discriminant's square by
multiplication included, so the two kernels give equal results bit for bit.

An array result is used only where it and its discriminant are finite.
Anything else goes to the scalar code, which raises as it would on its own
or returns the values to continue with: it alone judges numerical failures.

A round's constraint residual and a bisection step's total come from a numpy
sum with an error bound (:func:`_cheap_excess`); ``math.fsum`` decides inside it.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine
from .scenario import Scenario
from .utility import capacity_coefficient

__all__ = ["ArrayRounds", "inverse_for"]


def _cheap_excess(xs, total: float) -> tuple[float, float]:
    """numpy's sum of ``xs`` minus ``total``, and a bound past which it has the sign of ``fsum``'s.

    A numpy sum of n terms is within ``(n-1)*(eps/2)*sum|x|`` of the exact one
    (Higham 1993, "The accuracy of floating point summation"); the bound
    ``n*eps*sum|x| + ulp(total)`` covers that twice over, for the roundings of
    ``sum|x|`` and of the difference, and the rounding of ``math.fsum``.
    """
    bound = len(xs) * math.ulp(1.0) * float(np.add.reduce(np.abs(xs))) + math.ulp(total)
    return float(np.add.reduce(xs)) - total, bound


def _constants(omega, c: float, price: float):
    """``omega*c`` and the discriminant constant ``8*omega*price*c*c``, elementwise."""
    omega = np.asarray(omega, dtype=float)
    with np.errstate(all="ignore"):
        return omega * c, 8.0 * omega * price * c * c


def inverse_for(omega, c: float, price: float, scalar):
    """``v -> xs``: :func:`bandalloc.utility.invert_derivative` of every device at ``v``.

    ``xs`` is a float64 array where it and its discriminant are finite;
    otherwise ``scalar(v)`` computes it, or raises.
    """
    omega_c, disc_const = _constants(omega, c, price)

    def inverse(v):
        with np.errstate(all="ignore"):
            xs, disc = _inverse(omega_c, disc_const, c, price, v)
            if np.logical_and.reduce(np.isfinite(xs + disc)):
                return xs
        return scalar(v)

    return inverse


def _inverse(omega_c, disc_const, c, price, v):
    """The closed-form inverse and its discriminant, in the scalar operation order."""
    vc = v * c
    b = 2.0 * price + vc
    const = v - omega_c
    t = 2.0 * price - vc
    disc = t * t + disc_const
    root = np.sqrt(disc)
    # b = 2*price + v*c is never -0.0, so copysign pairs b == 0 with +root
    q = -0.5 * (b + np.copysign(root, b))
    return np.maximum(q / (2.0 * price * c), const / q), disc


class ArrayRounds:
    """Engine rounds on float64 arrays, starting from ``state``.

    :meth:`advance` runs one round and returns its residuals;
    :meth:`constraint_residual`, :meth:`columns` (the round as lists) and
    :meth:`state` (as an :class:`EngineState`) compute on request.
    """

    def __init__(self, state: engine.EngineState, scenario: Scenario) -> None:
        g = scenario.globals
        self._scenario = scenario
        self._c = capacity_coefficient(g.snr)
        self._eta, self._mu, self._price = g.eta, g.mu, g.price
        self._omega_c, self._disc_const = _constants(scenario.omegas, self._c, g.price)
        # directed edge list: device src[e] hears from device dst[e]
        adjacency = scenario.topology.adjacency
        degrees = [len(nbrs) for nbrs in adjacency]
        self._src = np.repeat(np.arange(scenario.n), degrees)
        self._dst = np.fromiter(
            (j for nbrs in adjacency for j in nbrs), dtype=np.intp, count=sum(degrees)
        )
        self._n = scenario.n
        self._confirmed = state.confirmed
        self._dstar = np.array(state.confirmed.values)
        self._total = state.confirmed.total
        self._iteration = state.iteration
        fields = (state.x, state.u_prime, state.zeta, state.q)
        self._x, self._u, self._zeta, self._q = map(np.array, fields)
        # [x, exact residual once computed] of the round before and of this one
        self._held = (None, [self._x, None])

    def advance(self) -> tuple[float, float, float]:
        """One synchronous round; returns its consensus and constraint residuals and a bound.

        The constraint residual and its bound come from :func:`_cheap_excess`;
        ``engine._exceeds`` allows for the roundings of differences of residuals.

        A round with a non-finite value is run again by ``engine.step`` from
        the same state, which raises its ``NumericalError`` or returns the round.
        """
        k = self._iteration + 1
        with np.errstate(all="ignore"):
            y = self._u
            q = self._eta * np.bincount(
                self._src, weights=y[self._dst] - y[self._src], minlength=self._n
            )
            u = y + (q - self._zeta + self._mu * (self._x - self._dstar))
            zeta = self._zeta - self._mu * q
            x, disc = _inverse(self._omega_c, self._disc_const, self._c, self._price, u)
            # one sum flags every non-finite value, an overflowed square included
            trusted = np.logical_and.reduce(np.isfinite(u + zeta + x + disc))
        if not trusted:
            state = engine.step(self.state(), self._scenario)
            x, u, zeta, q = map(np.array, (state.x, state.u_prime, state.zeta, state.q))
        self._held = (self._held[1], [x, None])
        self._iteration, self._x, self._u, self._zeta, self._q = k, x, u, zeta, q
        excess, bound = _cheap_excess(x, self._total)
        return float(np.maximum.reduce(u)) - float(np.minimum.reduce(u)), abs(excess), bound

    def constraint_residual(self, before: bool = False) -> float:
        """``engine.constraint_residual`` of the current round, or of the one before it.

        Computed by ``math.fsum`` at most once per round.
        """
        held = self._held[0 if before else 1]
        if held[1] is None:
            held[1] = abs(math.fsum(held[0].tolist()) - self._total)
        return held[1]

    def columns(self) -> tuple:
        """The current round as ``(iteration, x, u_prime, zeta, q)``, fields as lists."""
        return (
            self._iteration, self._x.tolist(), self._u.tolist(), self._zeta.tolist(),
            self._q.tolist(),
        )

    def state(self) -> engine.EngineState:
        """The current round's state as tuples."""
        k, x, u, zeta, q = self.columns()
        return engine.EngineState(
            x=tuple(x), u_prime=tuple(u), zeta=tuple(zeta), q=tuple(q), iteration=k,
            confirmed=self._confirmed,
        )
