"""Centralized ground-truth solver.

At the welfare optimum under the total-allocation constraint, every
device's marginal utility equals one common value. The map from that
common value to the implied allocation total is strictly decreasing, so
the optimum is found by bisecting on it until the total matches the
confirmed demand total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import engine
from .admission import ConfirmedDemands
from .scenario import Scenario
from .utility import capacity_coefficient, derivative, evaluate, inverse_from_constants
# not called: kept because bench/tracer.py wraps this binding by name
from .utility import invert_derivative  # noqa: F401

__all__ = ["OracleSolution", "objective", "solve"]

# enough halvings to take any finite bracket, up to 2 * DBL_MAX wide, to the
# stop width of 1e-12: log2(2 * 1.8e308 / 1e-12) is about 1065
_MAX_BISECTIONS = 1100
_MAX_WIDENINGS = 200
_OVERFLOW = "bisection failure: arithmetic overflow inverting the derivative at v = {}, device {}"


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
    """``v -> xs``: every device's inverse derivative at the common value v.

    From ``engine.ARRAY_MIN_DEVICES`` devices on, when numpy imports, ``xs``
    is a float64 array from ``array_kernel``, which hands any value it cannot
    trust to the scalar loop; otherwise, and as the test reference, a list
    from one scalar call per device, on constants gathered once per solve.
    """
    two_price, two_price_c = 2.0 * price, 2.0 * price * c
    constants: list[tuple[float, float]] = []

    def scalar(v: float) -> list[float]:
        if not constants:  # on first use: the array path rarely hands a value back
            constants.extend((w * c, 8.0 * w * price * c * c) for w in omegas)
        xs: list[float] = []
        try:
            for omega_c, disc in constants:
                xs.append(inverse_from_constants(omega_c, disc, two_price, two_price_c, c, v))
        except OverflowError:
            raise ArithmeticError(_OVERFLOW.format(v, len(xs))) from None
        return xs

    kernel = engine.array_kernel_for(len(omegas))
    return scalar if kernel is None else kernel.inverse_for(omegas, c, price, scalar)


def _excess(xs, target: float) -> float:
    """A float with the sign of ``math.fsum(xs) - target``, NaN included.

    An array's numpy sum decides where it lies past the error bound of
    ``array_kernel._cheap_excess``; otherwise ``fsum`` decides."""
    if not isinstance(xs, list):
        from . import array_kernel  # loaded already: xs is its array

        diff, bound = array_kernel._cheap_excess(xs, target)
        if abs(diff) > bound:
            return float(diff)
        xs = xs.tolist()
    return math.fsum(xs) - target


def solve(scenario: Scenario, confirmed: ConfirmedDemands) -> OracleSolution:
    """Equal-marginal allocation whose total equals the confirmed total.

    Bisects on the common marginal value v, using the closed-form inverse
    derivative per device, until the bracket width falls below
    ``1e-12 * max(1, |v|)``, which any finite bracket reaches. The initial
    bracket spans [min derivative at bandwidth*n, max omega*c] and is widened
    first if it does not straddle the target; a bracket end that is not
    finite raises ``ArithmeticError``. From ``engine.ARRAY_MIN_DEVICES``
    devices on, when numpy imports, the inverse runs on arrays; a total is
    compared with the target as its exactly rounded sum would be, and the
    two paths give equal solutions bit for bit.
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

    inverse = _inverse(omegas, c, g.price)

    # both ends are monotone in omega, in floating point too
    lo = derivative(min(omegas), c, g.price, g.bandwidth * n)
    hi = max(omegas) * c
    for _ in range(_MAX_WIDENINGS):
        if _excess(inverse(lo), target) >= 0.0:
            break
        lo -= abs(lo) + 1.0
    else:
        raise ArithmeticError("bisection bracket failure: no lower bound found")
    for _ in range(_MAX_WIDENINGS):
        if _excess(inverse(hi), target) <= 0.0:
            break
        hi += abs(hi) + 1.0
    else:
        raise ArithmeticError("bisection bracket failure: no upper bound found")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ArithmeticError("bisection bracket failure: a bracket end is not finite")

    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            break
        if _excess(inverse(mid), target) > 0.0:
            lo = mid
        else:
            hi = mid

    lam = 0.5 * (lo + hi)
    xs = inverse(lam)
    allocations = tuple(xs if isinstance(xs, list) else xs.tolist())
    try:
        value = objective(scenario, allocations)
    except ValueError as exc:  # rounding put an allocation on the domain boundary
        raise ArithmeticError(str(exc)) from None
    return OracleSolution(allocations=allocations, lam=lam, objective=value)
