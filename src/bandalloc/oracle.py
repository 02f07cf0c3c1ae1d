"""Centralized ground-truth solver.

At the welfare optimum under the total-allocation constraint, every
device's marginal utility equals one common value. The map from that
common value to the implied allocation total is strictly decreasing, so
the optimum is found by bisecting on it until the total matches the
confirmed demand total.

Most of the bisection's midpoints need no evaluation. Safeguarded Newton
finds the root first, and two evaluated guards on either side of it settle
the sign of the comparison at every midpoint beyond them; the bisection
evaluates only the midpoints between the guards. Its steps, and so the
solution, are those of the plain bisection bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import engine
from .admission import ConfirmedDemands
from .scenario import Scenario
from .utility import capacity_coefficient, derivative, evaluate
from .utility import inverse_constants, inverse_from_constants
# not called: kept because bench/tracer.py wraps this binding by name
from .utility import invert_derivative  # noqa: F401

__all__ = ["OracleSolution", "objective", "solve"]

# enough halvings to take any finite bracket, up to 2 * DBL_MAX wide, to the
# stop width of 1e-12: log2(2 * 1.8e308 / 1e-12) is about 1065
_MAX_BISECTIONS = 1100
_MAX_WIDENINGS = 200
# Newton evaluations before the guards are given up; 1 to 8 are usual
_MAX_NEWTON = 24
# a device's inverse is within _ROUNDING * (|x| + |v|/|U''(x)|) of the
# exact one: at most 4.5 ulps of that scale in 3.5 * 10^5 mpmath checks with
# omega and price from 1e-12 to 1e12
_ROUNDING = 16.0 * math.ulp(1.0)
# guard width: this many rounding bounds of the total, mapped to v through
# the slope, and at least _MIN_GUARD * max(1, |r|)
_GUARD = 64.0
_MIN_GUARD = 2.0**-40
# a guard counts when its excess is past _MARGIN rounding bounds: two cover
# the roundings at the guard and at any midpoint beyond it
_MARGIN = 3.0
_FAILURE = "bisection failure: {} inverting the derivative at v = {}, device {}"


@dataclass(frozen=True)
class OracleSolution:
    """Optimal allocations, the common marginal value, and the welfare value.

    ``lam`` is None for the degenerate all-zero-demand instance, where no
    marginal value is pinned down.
    """

    allocations: tuple[float, ...]
    lam: float | None
    objective: float


def objective(scenario: Scenario, allocations: tuple[float, ...]) -> float:
    """Total welfare: sum of device utilities at the given allocations."""
    if len(allocations) != scenario.n:
        raise ValueError(
            f"allocation count {len(allocations)} does not match device count {scenario.n}"
        )
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    omegas, price = scenario.omegas, g.price
    try:  # ``evaluate`` inlined: math.log raises where its domain check would
        terms = [w * math.log(c * x + 1.0) - price * x * x for w, x in zip(omegas, allocations)]
    except ValueError:
        for i, (w, x) in enumerate(zip(omegas, allocations)):
            try:
                evaluate(w, c, price, x)
            except ValueError as exc:
                raise ValueError(f"allocations[{i}]: {exc}") from None
        raise
    return math.fsum(terms)


def _inverse(omegas: tuple[float, ...], c: float, price: float):
    """``v -> xs``, every device's inverse derivative at the common value v;
    ``(v, xs) -> `` the sum of ``1/U''(x)``, the slope of ``sum(xs)`` in v;
    and ``(min(omegas), max(omegas), sum(omegas))``.

    ``U''`` is written ``-(v + 2*price*x)**2/omega - 2*price``, from
    ``c*x + 1 = omega*c/(v + 2*price*x)``: it does not cancel where x nears
    the asymptote ``-1/c``, as ``c*x + 1`` does. From
    ``engine.ARRAY_MIN_DEVICES`` devices on, when numpy imports, all three
    come from ``array_kernel.inverse_and_slope_for``, which reads the omega
    column as an array once per solve and hands any value it cannot trust to
    the scalar loop; otherwise, and as the test reference, ``xs`` is a list
    from one ``inverse_from_constants`` call per device. Either way each
    device's constants come from ``inverse_constants``, once per solve.
    """
    two_price, two_price_c = 2.0 * price, 2.0 * price * c
    constants: list[tuple[float, float]] = []

    def scalar(v: float) -> list[float]:
        if not constants:  # on first use: the array path rarely hands a value back
            constants.extend(inverse_constants(w, c, price) for w in omegas)
        xs: list[float] = []
        try:
            for omega_c, disc in constants:
                xs.append(inverse_from_constants(omega_c, disc, two_price, two_price_c, c, v))
        except (OverflowError, ZeroDivisionError) as exc:
            what = "arithmetic overflow" if type(exc) is OverflowError else "division by zero"
            raise type(exc)(_FAILURE.format(what, v, len(xs))) from None
        return xs

    def slope(v: float, xs) -> float:
        total = 0.0
        for w, x in zip(omegas, xs):
            t = v + two_price * x
            total += 1.0 / (-t * t / w - two_price)
        return total

    kernel = engine.array_kernel_for(len(omegas))
    if kernel is None:
        return scalar, slope, (min(omegas), max(omegas), sum(omegas))
    return kernel.inverse_and_slope_for(omegas, c, price, scalar)


def _excess(xs, target: float) -> float:
    """A float with the sign of ``math.fsum(xs) - target``, NaN included.

    An array's sum decides where it lies past its error bound, in float64
    and then in long double (``array_kernel.settled_excess``); otherwise
    ``fsum`` decides."""
    if not isinstance(xs, list):
        from . import array_kernel  # loaded already: xs is its array

        diff = array_kernel.settled_excess(xs, target)
        if diff is not None:
            return diff
        xs = xs.tolist()
    return math.fsum(xs) - target


def _newton(probe, lo: float, hi: float, v: float):
    """The root r in ``[lo, hi]`` of the excess ``T(v) - target`` of the
    allocation total ``T``, and a guard width; None if it gives up.

    Safeguarded Newton from ``v`` (Numerical Recipes' ``rtsafe``): it bisects
    its bracket where a Newton step leaves it, or shrinks less than halving
    twice would have. The width is ``_GUARD`` rounding bounds of the total,
    mapped to v through the slope; the search stops once a Newton step is a
    quarter of it, or its bracket is narrower.
    """
    if not lo <= v <= hi:
        v = 0.5 * (lo + hi)
    before = last = math.inf
    for _ in range(_MAX_NEWTON):
        _, excess, dt, noise = probe(v)
        if excess > 0.0:
            lo = v
        else:
            hi = v
        width = _GUARD * noise / -dt
        step = excess / dt
        if not math.isfinite(step + width):
            return None
        if lo <= v - step <= hi and abs(step) <= 0.5 * before:
            v -= step
            if abs(step) <= 0.25 * width:
                return v, width
        else:
            step = 0.5 * (hi - lo)
            v = lo + step
            if hi - lo <= width:
                return v, width
        before, last = last, abs(step)
    return None


def _guards(inverse, slope, lo: float, hi: float, target: float, start: float):
    """Bounds ``(below, above)``: the bisection's excess is positive at every
    midpoint at or below ``below``, and not positive at or above ``above``.

    :func:`_newton` locates the root r of ``sum(xs) - target`` on numpy's
    sums, which decide nothing. A guard ``r - g`` then counts when its excess
    over the target plus a margin is positive, through :func:`_excess`: past
    the margin, rounding cannot turn the sign anywhere below it. ``r + g``
    likewise, with the sign turned. A guard that does not confirm, and any
    failure of the search, leaves an infinite bound, where the bisection
    evaluates every midpoint as it does without guards.
    """

    def probe(v: float):
        """``xs``, numpy's ``sum(xs) - target``, the slope of ``sum(xs)`` in v,
        and a bound on the rounding error of the exact total of ``xs``."""
        xs = inverse(v)
        if isinstance(xs, list):
            total, size = sum(xs), sum(map(abs, xs))
        else:
            total, size = float(xs.sum()), float(abs(xs).sum())
        dt = slope(v, xs)
        return xs, total - target, dt, _ROUNDING * (size - abs(v) * dt) + math.ulp(target)

    bounds = [-math.inf, math.inf]
    try:
        found = _newton(probe, lo, hi, start)
        if found is None:
            return bounds
        r, width = found
        width = max(width, _MIN_GUARD * max(1.0, abs(r)))
        for side, sign in enumerate((1.0, -1.0)):  # below r, then above it
            guard = r - sign * width
            if lo < guard < hi:
                xs, _, _, noise = probe(guard)
                if sign * _excess(xs, target + sign * _MARGIN * noise) > 0.0:
                    bounds[side] = guard
    except (ArithmeticError, ValueError):
        pass
    return bounds


def solve(scenario: Scenario, confirmed: ConfirmedDemands) -> OracleSolution:
    """Equal-marginal allocation whose total equals the confirmed total.

    Bisects on the common marginal value v, using the closed-form inverse
    derivative per device, until the bracket width falls below
    ``1e-12 * max(1, |v|)``, which any finite bracket reaches. The bracket's
    lower end starts at the least-omega derivative at bandwidth*n and is
    widened down until it straddles the target; where the inverse overflows
    there, it restarts at that device's derivative at the confirmed total.
    Its upper end, max omega*c, needs no search: no device's inverse is
    positive there. A bracket end that is not finite raises
    ``ArithmeticError``, an inverse that overflows ``OverflowError``, one
    that divides by zero ``ZeroDivisionError``, naming the value and device. A
    midpoint beyond one of the guards of :func:`_guards` takes the side the
    guard has settled; any other is evaluated, so the steps are the plain
    bisection's, in about 12 evaluations instead of 47 to 64. From
    ``engine.ARRAY_MIN_DEVICES`` devices on, when numpy imports, the inverse
    runs on arrays; a total is compared with the target as its exactly
    rounded sum would be, and the two paths give equal solutions bit for bit.
    """
    n = scenario.n
    if len(confirmed.values) != n:
        raise ValueError(
            f"confirmed demand count {len(confirmed.values)} does not match "
            f"device count {n}"
        )
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    omegas = scenario.omegas
    target = confirmed.total

    if target == 0.0:
        zeros = tuple(0.0 for _ in range(n))
        return OracleSolution(allocations=zeros, lam=None, objective=objective(scenario, zeros))

    inverse, slope, (w_min, w_max, w_sum) = _inverse(omegas, c, g.price)

    # both ends are monotone in omega, in floating point too
    lo = derivative(w_min, c, g.price, g.bandwidth * n)
    hi = w_max * c
    for widening in range(_MAX_WIDENINGS):
        try:
            xs = inverse(lo)
        except OverflowError:
            if widening:
                raise
            # squaring 2*price - v*c overflows far below the root; where the
            # least-omega device alone takes the total, every device takes as much
            lo = derivative(w_min, c, g.price, target)
            xs = inverse(lo)
        if _excess(xs, target) >= 0.0:
            break
        lo -= abs(lo) + 1.0
    else:
        raise ArithmeticError("bisection bracket failure: no lower bound found")
    # no search above: every omega*c rounds to at most hi, where both candidates
    # of the inverse are <= 0; evaluated still, for the overflow it may raise
    inverse(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ArithmeticError("bisection bracket failure: a bracket end is not finite")

    start = derivative(w_sum / n, c, g.price, target / n)
    below, above = _guards(inverse, slope, lo, hi, target, start)
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            break
        # a guard has settled the excess's sign at every midpoint past it
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        elif _excess(inverse(mid), target) > 0.0:
            lo = mid
        else:
            hi = mid

    lam = 0.5 * (lo + hi)
    xs = inverse(lam)
    allocations = tuple(engine._listed(xs))
    try:
        value = objective(scenario, allocations)
    except ValueError as exc:  # rounding put an allocation on the domain boundary
        raise ArithmeticError(str(exc)) from None
    return OracleSolution(allocations=allocations, lam=lam, objective=value)
