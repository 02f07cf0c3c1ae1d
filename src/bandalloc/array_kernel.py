"""Numpy round kernel: the round of :func:`bandalloc.engine.step` on arrays.

:func:`bandalloc.engine.run`, :func:`bandalloc.oracle.solve` and
:func:`bandalloc.scenario.scenario_from_dict` import this module lazily,
through ``engine.array_kernel_for``, and use it when numpy imports and the
scenario has at least ``engine.ARRAY_MIN_DEVICES`` devices; the package
itself needs only the stdlib. The arithmetic follows
``step`` and :func:`bandalloc.utility.inverse_from_constants`, on constants
from the same :func:`bandalloc.utility.inverse_constants`, hoisted once per
run or solve, operation for operation, gossip's sums in sequence and the
discriminant's square by multiplication included: equal results bit for bit.

An array result is used only where it and its discriminant are finite.
Anything else goes to the scalar code, which raises as it would on its own
or returns the values to continue with: it alone judges numerical failures.

:func:`rounds` is the kernel's loop, a generator of rounds. It computes up
to 32 rounds per numpy pass: each round's 24 numpy calls write one row of
buffers kept for the run, and 16 calls on the block's rows then give every
round's residuals and check all of them on those sums. A round's
intermediates, too, go to arrays made once per run, and its constants are
0-d arrays: its numpy calls allocate only ``np.bincount``'s result. It
yields the trusted rows one by one. The first round numpy cannot trust,
once drawn, hands the rest of the run to the scalar rounds.

A round's constraint residual and a bisection step's total come from a numpy
sum with an error bound (:func:`_cheap_excess`); ``math.fsum`` decides inside
it. A bisection step's comparison takes one step between them
(:func:`settled_excess`): the same sum and bound in long double, where numpy's
long double is wider than float64.

:func:`checked_graph` is :func:`bandalloc.topology.build`'s check of an edge
list and its connectivity test, on one int64 array of the endpoints.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from . import engine
from .scenario import Scenario
from .utility import capacity_coefficient, inverse_constants

__all__ = [
    "checked_graph",
    "component_labels",
    "inverse_and_slope_for",
    "rounds",
    "settled_excess",
]


# the machine epsilon of numpy's long double: x86-64's 80-bit format has
# 11 more bits than float64; where it is float64 itself, nothing is gained
_LONG_EPS = float(np.finfo(np.longdouble).eps)
# a float64 bound below this has sum|x| under 2^1012 and |total| under 2^1013,
# so math.fsum cannot overflow where the long double sum decides for it
_LONG_LIMIT = 2.0**960


def _cheap_excess(xs, total: float, eps: float = math.ulp(1.0)) -> tuple:
    """numpy's sum of ``xs`` minus ``total``, and a bound past which it has the sign of ``fsum``'s.

    Sums along the last axis: one value each for a 1-D array, one per row for
    a 2-D one. A numpy sum of n terms is within ``(n-1)*(eps/2)*sum|x|`` of
    the exact one, in any order (Higham 1993, "The accuracy of floating point
    summation"); the bound ``n*eps*sum|x| + ulp(total)`` covers that twice
    over, for the roundings of ``sum|x|`` and of the difference, and the
    rounding of ``math.fsum``. ``eps`` is that of ``xs``'s type.
    """
    bound = xs.shape[-1] * eps * np.add.reduce(np.abs(xs), axis=-1) + math.ulp(total)
    return np.add.reduce(xs, axis=-1) - total, bound


def settled_excess(xs, total: float) -> float:
    """``sum(xs) - total`` with the sign of ``math.fsum(xs) - total``, NaN included.

    The float64 sum of :func:`_cheap_excess` decides past its bound; inside
    it, the same sum and bound in long double, where that is wider than
    float64, decide past theirs; inside those, ``fsum`` decides.
    """
    with np.errstate(all="ignore"):  # an overflowed sum has an infinite bound: fsum decides
        diff, bound = _cheap_excess(xs, total)
        if not abs(diff) > bound and _LONG_EPS < math.ulp(1.0) and bound < _LONG_LIMIT:
            diff, bound = _cheap_excess(xs.astype(np.longdouble), total, _LONG_EPS)
    return float(diff) if abs(diff) > bound else math.fsum(xs.tolist()) - total


def checked_graph(n: int, edges: tuple) -> tuple[tuple[tuple[int, int], ...], bool] | None:
    """The pairs of a valid edge list over ``n`` devices, and whether they
    connect them: ``build`` raises its disconnected-graph error on False.

    Valid as :func:`bandalloc.topology.build` defines it: lists or tuples of
    two ints in ``[0, n)``, no self-loop, no edge repeated in either
    orientation. None below ``engine.ARRAY_MIN_DEVICES`` devices, where the
    kernel does not run; for a list that fails any check; and for an empty one
    or one of fewer than ``n - 1`` edges, which cannot connect ``n`` devices:
    ``build``'s per-entry loop then names the first bad entry, or checks the
    list. So the ``n`` labels of :func:`component_labels` never outgrow the
    edge list.
    """
    if n < engine.ARRAY_MIN_DEVICES or len(edges) < max(n - 1, 1):
        return None
    if not (set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) <= {2}):
        return None
    ends = list(chain.from_iterable(edges))
    if not set(map(type, ends)) <= {int}:
        return None
    try:
        ends = np.fromiter(ends, np.int64, len(ends))
    except OverflowError:  # beyond int64, so out of range
        return None
    if ends.min() < 0 or ends.max() >= n:
        return None
    firsts, seconds = ends[0::2], ends[1::2]
    lo, hi = np.minimum(firsts, seconds), np.maximum(firsts, seconds)
    if (lo == hi).any():
        return None
    # each unordered pair's key; n <= len(edges) + 1, so a key >= 2**63
    # would take an edge list of over 3*10^9 pairs
    keys = np.sort(lo * n + hi)
    if (keys[1:] == keys[:-1]).any():
        return None
    labels, _, _ = component_labels(n, lo, hi)
    return tuple(map(tuple, edges)), not labels.any()


def component_labels(n: int, lo, hi) -> tuple:
    """Each device's least connected device, and the hook and jump rounds taken.

    ``lo`` and ``hi`` are the int64 ends of the edges. A hook round hooks
    each root to the least neighbouring label below its own (Shiloach and
    Vishkin, "An O(log n) parallel connectivity algorithm", 1982); jump
    rounds then replace every label by its label's until all labels are
    roots. Labels only fall. A root with only greater neighbouring labels is
    hooked onto in that round, or hooks the round after, since its neighbours
    hook to labels at most its own; so a component's roots at least halve
    every two hook rounds, ``O(log n)`` rounds in all. Hooking ends when every
    edge joins equal labels, each its component's least device.
    """
    labels = np.arange(n)
    hooks = jumps = 0
    while True:
        a, b = labels[lo], labels[hi]
        hooked = labels.copy()
        np.minimum.at(hooked, np.maximum(a, b), np.minimum(a, b))
        hooks += 1
        if np.array_equal(hooked, labels):
            return labels, hooks, jumps
        labels = hooked
        while True:
            jumped = labels[labels]
            jumps += 1
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def inverse_and_slope_for(omega, c: float, price: float, scalar):
    """``oracle._inverse``'s kit on float64 arrays: ``v -> xs``,
    :func:`bandalloc.utility.invert_derivative` of every device at ``v``;
    ``(v, xs) -> `` numpy's sums of ``1/U''(x)``, of ``xs`` and of ``|xs|``;
    :func:`settled_excess`; and the least, greatest and summed omega.

    ``xs`` is numpy's result where it and its discriminant are finite;
    otherwise ``scalar(v)``'s list, as an array, or what it raises. The first
    sum is ``dT/dv`` for the total ``T(v) = sum(xs)``. ``U''`` is
    ``-(v + 2*price*x)**2/omega - 2*price``.
    """
    omega = np.asarray(omega, dtype=float)
    consts = _constants(omega, c, price)
    two_price = 2.0 * price

    def inverse(v):
        with np.errstate(all="ignore"):
            xs, disc = _inverse(*consts, v)
            if np.logical_and.reduce(np.isfinite(xs + disc)):
                return xs
        return np.array(scalar(v))

    def slope(v, xs):
        with np.errstate(all="ignore"):
            t = v + two_price * xs
            dt = np.add.reduce(1.0 / (-t * t / omega - two_price))
            return float(dt), float(xs.sum()), float(abs(xs).sum())

    with np.errstate(all="ignore"):  # the sum may overflow, as the builtin sum does
        summary = float(omega.min()), float(omega.max()), float(np.add.reduce(omega))
    return inverse, slope, settled_excess, summary


def _constants(omega, c: float, price: float) -> tuple:
    """:func:`_inverse`'s constants for the float64 array ``omega``, once per run or solve."""
    with np.errstate(all="ignore"):
        return (*inverse_constants(omega, c, price), 2.0 * price, 2.0 * price * c, c)


def _inverse(omega_c, disc_const, two_price, two_price_c, c, v, out=(None, None), work=None):
    """The closed-form inverse and its discriminant, in the scalar operation order.

    The arguments are :func:`bandalloc.utility.inverse_from_constants`'s;
    ``out`` names the arrays to write the two results to, None allocating one.
    ``work`` is None, where ``v`` may be a float, or three arrays of ``v``'s
    shape, which every other step writes into, and a 0-d -0.5.
    """
    x, disc = out
    b, t, const, half = work or (None, None, None, -0.5)
    if b is None:  # Python arithmetic for the steps on a float v
        b, t, const = two_price + v * c, two_price - v * c, v - omega_c
        disc = np.add(t * t, disc_const, disc)
        root = np.sqrt(disc)
    else:
        add, multiply, subtract = np.add, np.multiply, np.subtract
        add(two_price, multiply(v, c, t), b)
        subtract(two_price, t, t)
        subtract(v, omega_c, const)
        disc = add(multiply(t, t, t), disc_const, disc)
        root = np.sqrt(disc, t)
    # b = 2*price + v*c is never -0.0, so copysign pairs b == 0 with +root
    q = np.multiply(half, np.add(b, np.copysign(root, b, root), root), root)
    x = np.divide(q, two_price_c, x)
    return np.maximum(x, np.divide(const, q, const), out=x), disc


def block_rows(n: int) -> int:
    """Rounds :func:`rounds` computes per numpy pass for ``n`` devices.

    At least 1, at most 32 (at 200 devices 16 ran 3-4 % slower, 64 no faster),
    and at most 32768 values (256 KiB) per field: from about 10^4 devices on,
    larger blocks ran slower. A block's 16 checking calls serve all its rows.
    """
    return max(1, min(32, 32768 // n))


def rounds(state: engine.EngineState, scenario: Scenario):
    """Engine rounds on float64 arrays, from ``state`` on, computed in blocks.

    Yields the rounds of ``engine._scalar_rounds``, with a constraint
    residual and its bound from :func:`_cheap_excess`, and float64 fields,
    readable until two more rounds are drawn. A block is up to
    :func:`block_rows` rounds, each written in place to one row of
    ``(rows, n)`` buffers for x, u_prime, zeta, q and the discriminant; no
    block runs past ``max_iters``. After it, one set of reductions along the
    rows gives every round's residuals, and the first round whose spread,
    bound or zeta-plus-discriminant sum is not finite ends the block; two
    buffer sets take turns. A round writes every intermediate with ``out`` to
    arrays made once per run, never kept between runs (both ends of every
    directed edge, from one ``take``, and three arrays of n floats), so only
    ``np.bincount`` allocates; its constants are 0-d arrays, faster than floats.

    The first flagged round hands the rest of the run to the scalar rounds,
    ``engine._scalar_rounds``, from the round before: they raise the round's
    ``NumericalError``, or run that round and every later one, with exact
    residuals and a bound of 0.0. The hand-off happens only when the rounds are
    drawn past the block's trusted ones, so rounds computed past the end of a
    run never raise.
    """
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    omega_c, disc_const, *scalars = _constants(np.array(scenario.omegas), c, g.price)
    eta, mu, two_price, two_price_c, c = map(np.array, (g.eta, g.mu, *scalars))
    # directed edge list: device src[e] hears from device dst[e]
    adjacency = scenario.adjacency
    degrees = [len(nbrs) for nbrs in adjacency]
    src = np.repeat(np.arange(scenario.n), degrees)
    dst = np.fromiter(chain.from_iterable(adjacency), np.intp, sum(degrees))
    n = scenario.n
    max_iters = scenario.options.max_iters
    confirmed = state.confirmed
    dstar, total = np.array(confirmed.values), confirmed.total
    k = state.iteration
    fields = tuple(map(np.array, (state.x, state.u_prime, state.zeta, state.q)))
    # x, u_prime, zeta, q and disc of a block, in two sets used in turn,
    # and each set's fields as lists of rows
    buffers = np.empty((2, 5, block_rows(n), n))
    row_views = [[list(field) for field in block] for block in buffers]
    pairs = np.stack((dst, src))
    theirs, own = ends = np.empty(pairs.shape)
    summand, step, _, _ = work = (*np.empty((3, n)), np.array(-0.5))
    add, subtract, multiply, bincount = np.add, np.subtract, np.multiply, np.bincount
    while True:
        for block, (xs, us, zetas, qs, discs) in zip(buffers, row_views):
            m = max(1, min(len(xs), max_iters - k))
            x, y, zeta, _ = fields
            with np.errstate(all="ignore"):
                for r in range(m):
                    # positional out, parsed faster; the indices are in range, so
                    # "clip" changes nothing but writing to out= unbuffered
                    y.take(pairs, None, ends, "clip")
                    gossip = bincount(src, subtract(theirs, own, theirs), n)
                    q = multiply(eta, gossip, qs[r])
                    multiply(mu, subtract(x, dstar, step), step)
                    y = add(y, add(subtract(q, zeta, summand), step, summand), us[r])
                    zeta = subtract(zeta, multiply(mu, q, step), zetas[r])
                    x = _inverse(omega_c, disc_const, two_price, two_price_c, c, y,
                                 (xs[r], discs[r]), work)[0]
                x_m, u_m, zeta_m, _, disc_m = block[:, :m]
                cons = np.maximum.reduce(u_m, axis=1) - np.minimum.reduce(u_m, axis=1)
                excess, bound = _cheap_excess(x_m, total)
                # not finite where a u', x, zeta or disc is, an overflowed square included
                finite = np.isfinite(cons + bound + add.reduce(zeta_m + disc_m, axis=1))
                trusted = m if finite.all() else int(finite.argmin())
                residuals = (cons.tolist(), np.abs(excess).tolist(), bound.tolist())
            yield from zip(*residuals, zip(xs[:trusted], us, zetas, qs))
            k += trusted
            if trusted:
                fields = xs[trusted - 1], us[trusted - 1], zetas[trusted - 1], qs[trusted - 1]
            if trusted < m:  # the flagged round, drawn: the scalar rounds take the run over
                before = engine.EngineState(*(tuple(f.tolist()) for f in fields), k, confirmed)
                yield from engine._scalar_rounds(before, scenario)
