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
"""

from __future__ import annotations

import math

import numpy as np

from .engine import EngineState, NumericalError
from .scenario import Scenario
from .utility import capacity_coefficient
from .utility import invert_derivative as scalar_invert_derivative

__all__ = ["ArrayRounds", "invert_derivative", "inverse_for"]


def invert_derivative(omega, c: float, price: float, v) -> np.ndarray:
    """:func:`bandalloc.utility.invert_derivative` elementwise over ``omega`` and ``v``.

    No argument checks and no overflow error: an overflowing square yields
    ``inf`` in the discriminant, which :class:`ArrayRounds` and
    :func:`bandalloc.oracle.solve` detect.
    """
    return inverse_for(omega, c, price)(np.asarray(v, dtype=float))


def inverse_for(omega, c: float, price: float):
    """``v -> invert_derivative(omega, c, price, v)``, with ``omega*c`` and the
    discriminant constant computed once, here."""
    omega = np.asarray(omega, dtype=float)
    omega_c, disc_const = omega * c, 8.0 * omega * price * c * c
    return lambda v: _inverse(omega_c, disc_const, c, price, v)[0]


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
    :meth:`state` builds the current :class:`EngineState` on request.
    """

    def __init__(self, state: EngineState, scenario: Scenario) -> None:
        g = scenario.globals
        self._c = capacity_coefficient(g.snr)
        self._eta, self._mu, self._price = g.eta, g.mu, g.price
        omega = np.array(scenario.omegas)
        self._omega = omega
        self._omega_c = omega * self._c
        self._disc_const = 8.0 * omega * g.price * self._c * self._c
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

        Raises :class:`NumericalError` naming the same iteration, device and
        detail as :func:`bandalloc.engine.step` would.
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
            flagged = ~np.isfinite(u + zeta + x + disc)
            if flagged.any():
                self._check(k, flagged, u, zeta, x)
        self._iteration, self._x, self._u, self._zeta, self._q = k, x, u, zeta, q
        return float(u.max()) - float(u.min()), abs(math.fsum(x.tolist()) - self._total)

    def _check(self, k: int, flagged, u, zeta, x) -> None:
        """Raise as ``step`` would for the first failing device among ``flagged``.

        A flag can be spurious (a sum of large finite values, or an infinite
        discriminant that ``pow`` reached without overflowing), so each
        flagged device is judged by the scalar checks in device order.
        """
        for i in np.flatnonzero(flagged).tolist():
            if not (math.isfinite(u[i]) and math.isfinite(zeta[i])):
                raise NumericalError(k, i)
            try:
                x_i = scalar_invert_derivative(
                    float(self._omega[i]), self._c, self._price, float(u[i])
                )
            except OverflowError:
                raise NumericalError(k, i, "arithmetic overflow") from None
            if not (math.isfinite(x_i) and math.isfinite(x[i])):
                raise NumericalError(k, i)

    def state(self) -> EngineState:
        """The current round's state as tuples."""
        return EngineState(
            x=tuple(self._x.tolist()),
            u_prime=tuple(self._u.tolist()),
            zeta=tuple(self._zeta.tolist()),
            q=tuple(self._q.tolist()),
            iteration=self._iteration,
            confirmed=self._confirmed,
        )
