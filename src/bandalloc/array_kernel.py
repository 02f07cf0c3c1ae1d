"""Numpy round kernel: the round of :func:`bandalloc.engine.step` on arrays.

:func:`bandalloc.engine.run` and :func:`bandalloc.oracle.solve` import this
module lazily, through ``engine.array_kernel_for``, and use it when numpy
imports and the scenario has at least ``engine.ARRAY_MIN_DEVICES`` devices;
the package itself needs only the stdlib. The arithmetic follows
``step`` and :func:`bandalloc.utility.invert_derivative` operation for
operation, with two exceptions: gossip adds the neighbor differences in
sequence where ``step`` uses ``math.fsum``, and the discriminant squares by
multiplication where the scalar code calls libm ``pow``. The two kernels
therefore agree to rounding, not bit for bit.

An array result is used only where it and its discriminant are finite.
Anything else goes to the scalar code, which raises as it would on its own
or returns the values to continue with: it alone judges numerical failures.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine
from .scenario import Scenario
from .utility import capacity_coefficient

__all__ = ["ArrayRounds", "inverse_for"]


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
            if np.isfinite(xs + disc).all():
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
    q = np.where(b != 0.0, -0.5 * (b + np.copysign(root, b)), -0.5 * root)
    return np.maximum(q / (2.0 * price * c), const / q), disc


class ArrayRounds:
    """Engine rounds on float64 arrays, starting from ``state``.

    :meth:`advance` runs one round and returns the two residuals;
    :meth:`columns` hands over the current round as lists and :meth:`state`
    builds it as an :class:`EngineState`, both on request.
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
        self._x = np.array(state.x)
        self._u = np.array(state.u_prime)
        self._zeta = np.array(state.zeta)
        self._q = np.array(state.q)

    def advance(self) -> tuple[float, float]:
        """One synchronous round; returns the consensus and constraint residuals.

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
            trusted = np.isfinite(u + zeta + x + disc).all()
        if not trusted:
            state = engine.step(self.state(), self._scenario)
            x, u, zeta, q = map(np.array, (state.x, state.u_prime, state.zeta, state.q))
        self._iteration, self._x, self._u, self._zeta, self._q = k, x, u, zeta, q
        return float(u.max()) - float(u.min()), abs(math.fsum(x.tolist()) - self._total)

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
