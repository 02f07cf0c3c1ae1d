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

:class:`ArrayRounds` computes up to 16 rounds per numpy pass: each round
writes one row of buffers kept for the run, and one set of reductions over
the block's rows then checks all of them. A flagged round goes to the
scalar code only when the run reaches it.

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


def _cheap_excess(xs, total: float) -> tuple:
    """numpy's sum of ``xs`` minus ``total``, and a bound past which it has the sign of ``fsum``'s.

    Sums along the last axis: one value each for a 1-D array, one per row for
    a 2-D one. A numpy sum of n terms is within ``(n-1)*(eps/2)*sum|x|`` of
    the exact one (Higham 1993, "The accuracy of floating point summation");
    the bound ``n*eps*sum|x| + ulp(total)`` covers that twice over, for the
    roundings of ``sum|x|`` and of the difference, and the rounding of
    ``math.fsum``.
    """
    bound = xs.shape[-1] * math.ulp(1.0) * np.add.reduce(np.abs(xs), axis=-1) + math.ulp(total)
    return np.add.reduce(xs, axis=-1) - total, bound


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


def _inverse(omega_c, disc_const, c, price, v, out=(None, None)):
    """The closed-form inverse and its discriminant, in the scalar operation order.

    ``out`` names the arrays to write the two results to; None allocates one.
    """
    x, disc = out
    vc = v * c
    b = 2.0 * price + vc
    const = v - omega_c
    t = 2.0 * price - vc
    disc = np.add(t * t, disc_const, disc)
    root = np.sqrt(disc)
    # b = 2*price + v*c is never -0.0, so copysign pairs b == 0 with +root
    q = -0.5 * (b + np.copysign(root, b))
    return np.maximum(q / (2.0 * price * c), const / q, out=x), disc


def block_rows(n: int) -> int:
    """Rounds :class:`ArrayRounds` computes per numpy pass for ``n`` devices.

    At least 1, at most 16, and at most 32768 values (256 KiB) per field:
    from about 10^4 devices on, larger blocks ran slower.
    """
    return max(1, min(16, 32768 // n))


class ArrayRounds:
    """Engine rounds on float64 arrays, starting from ``state``, computed in blocks.

    A block is up to :func:`block_rows` rounds, each written in place to one
    row of ``(rows, n)`` buffers for x, u_prime, zeta, q and the discriminant;
    no block runs past the scenario's ``max_iters``. After it, one set of
    reductions along the rows gives every round's residuals and flags the
    first round with a non-finite value, which ends the block. Two buffer sets
    take the blocks in turn, so the round before a block stays readable.

    :meth:`advance` hands out the next round and its residuals; a flagged
    round is run by ``engine.step`` only then, so rounds computed past the end
    of a run never raise. :meth:`constraint_residual`, :meth:`columns` (the
    round as lists) and :meth:`state` (as an :class:`EngineState`) compute on
    request.
    """

    def __init__(self, state: engine.EngineState, scenario: Scenario) -> None:
        g = scenario.globals
        self._scenario = scenario
        c = capacity_coefficient(g.snr)
        self._consts = (*_constants(scenario.omegas, c, g.price), c, g.price)
        self._eta, self._mu = g.eta, g.mu
        # directed edge list: device src[e] hears from device dst[e]
        adjacency = scenario.topology.adjacency
        degrees = [len(nbrs) for nbrs in adjacency]
        self._src = np.repeat(np.arange(scenario.n), degrees)
        self._dst = np.fromiter(
            (j for nbrs in adjacency for j in nbrs), dtype=np.intp, count=sum(degrees)
        )
        self._n = n = scenario.n
        self._max_iters = scenario.options.max_iters
        self._confirmed = state.confirmed
        self._dstar = np.array(state.confirmed.values)
        self._total = state.confirmed.total
        self._iteration = state.iteration
        fields = (state.x, state.u_prime, state.zeta, state.q)
        self._x, self._u, self._zeta, self._q = map(np.array, fields)
        # [x, exact residual once computed] of the round before and of this one
        self._held = (None, [self._x, None])
        # x, u_prime, zeta, q and disc of a block, in two sets used in turn,
        # and each set's fields as lists of rows
        self._buffers = np.empty((2, 5, block_rows(n), n))
        self._row_views = [[list(field) for field in fields] for fields in self._buffers]
        self._set = 0
        # the block's x, u_prime, zeta and q, its trusted rounds' residuals,
        # the next round to hand out, and whether the round after them is flagged
        self._rows = ()
        self._residuals: list[tuple[float, float, float]] = []
        self._next = 0
        self._flagged = False

    def advance(self) -> tuple[float, float, float]:
        """One synchronous round; returns its consensus and constraint residuals and a bound.

        The constraint residual and its bound come from :func:`_cheap_excess`;
        ``engine._exceeds`` allows for the roundings of differences of residuals.

        A round with a non-finite value is run again by ``engine.step`` from
        the round before, which raises its ``NumericalError`` or returns the round.
        """
        while self._next == len(self._residuals):  # a block may open with a flagged round
            if self._flagged:
                self._step()
            else:
                self._compute_block()
        r = self._next
        self._next = r + 1
        xs, us, zetas, qs = self._rows
        self._iteration += 1
        self._x, self._u, self._zeta, self._q = xs[r], us[r], zetas[r], qs[r]
        self._held = (self._held[1], [self._x, None])
        return self._residuals[r]

    def _compute_block(self) -> None:
        """The rounds after the current one, into the buffer set not holding it."""
        self._set ^= 1
        xs, us, zetas, qs, discs = self._row_views[self._set]
        m = max(1, min(len(xs), self._max_iters - self._iteration))
        eta, mu, dstar, src, dst, n = self._eta, self._mu, self._dstar, self._src, self._dst, self._n
        consts = self._consts
        x, y, zeta = self._x, self._u, self._zeta
        with np.errstate(all="ignore"):
            for r in range(m):
                # positional arguments: numpy parses keywords slower
                q = np.multiply(eta, np.bincount(src, y.take(dst) - y.take(src), n), qs[r])
                y = np.add(y, q - zeta + mu * (x - dstar), us[r])
                zeta = np.subtract(zeta, mu * q, zetas[r])
                x = _inverse(*consts, y, (xs[r], discs[r]))[0]
            xs, us, zetas, qs, discs = self._buffers[self._set, :, :m]
            # one sum flags every non-finite value, an overflowed square included
            finite = np.logical_and.reduce(np.isfinite(us + zetas + xs + discs), axis=1)
            trusted = m if finite.all() else int(finite.argmin())
            self._rows = self._row_views[self._set][:4]
            self._residuals = self._residuals_of(xs[:trusted], us[:trusted])
        self._next = 0
        self._flagged = trusted < m

    def _step(self) -> None:
        """The flagged round, by ``engine.step`` from the current one, as a block of one."""
        state = engine.step(self.state(), self._scenario)
        x, u, zeta, q = map(np.array, (state.x, state.u_prime, state.zeta, state.q))
        self._rows = ([x], [u], [zeta], [q])
        self._residuals = self._residuals_of(x[None], u[None])
        self._next = 0
        self._flagged = False

    def _residuals_of(self, xs, us) -> list[tuple[float, float, float]]:
        """Each row's consensus residual, cheap constraint residual and its bound."""
        cons = np.maximum.reduce(us, axis=1) - np.minimum.reduce(us, axis=1)
        excess, bound = _cheap_excess(xs, self._total)
        return list(zip(cons.tolist(), np.abs(excess).tolist(), bound.tolist()))

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
