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
from .utility import capacity_coefficient, derivative, evaluate, invert_derivative

__all__ = ["OracleSolution", "objective", "solve"]

_MAX_BISECTIONS = 200
_MAX_WIDENINGS = 200


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
    terms = []
    for i, x in enumerate(allocations):
        try:
            terms.append(evaluate(scenario.devices[i].omega, c, g.price, x))
        except ValueError as exc:
            raise ValueError(f"allocations[{i}]: {exc}") from None
    return math.fsum(terms)


def _inverse(omegas: tuple[float, ...], c: float, price: float):
    """``v -> [x_i]``: every device's inverse derivative at the common value v.

    From ``engine.ARRAY_MIN_DEVICES`` devices on, when numpy imports, the
    inverse runs elementwise in ``array_kernel``; otherwise, and as the test
    reference, one scalar call per device.
    """

    def scalar(v: float) -> list[float]:
        return [invert_derivative(w, c, price, v) for w in omegas]

    kernel = engine.array_kernel_for(len(omegas))
    if kernel is None:
        return scalar
    import numpy as np

    omega = np.array(omegas)

    def array(v: float) -> list[float]:
        with np.errstate(all="ignore"):
            xs = kernel.invert_derivative(omega, c, price, v)
        # Where (2*price - v*c)**2 overflows, the scalar code raises
        # OverflowError, while the array gives every device 0 (v > 0) or inf
        # (v < 0); and np.maximum keeps a NaN that max drops. The scalar
        # code judges each such v.
        if not (np.isfinite(xs).all() and xs.any()):
            return scalar(v)
        return xs.tolist()

    return array


def solve(scenario: Scenario, confirmed: ConfirmedDemands) -> OracleSolution:
    """Equal-marginal allocation whose total equals the confirmed total.

    Bisects on the common marginal value v, using the closed-form inverse
    derivative per device, until the bracket width falls below
    ``1e-12 * max(1, |v|)`` or 200 halvings. The initial bracket spans
    [min derivative at bandwidth*n, max omega*c] and is widened first if
    it does not straddle the target. From ``engine.ARRAY_MIN_DEVICES``
    devices on, when numpy imports, the inverse runs on arrays; the totals
    are exactly rounded sums either way, and the two paths agree to about
    1e-15, not bit for bit.
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

    def alloc_sum(v: float) -> float:
        return math.fsum(inverse(v))

    # both ends are monotone in omega, in floating point too
    lo = derivative(min(omegas), c, g.price, g.bandwidth * n)
    hi = max(omegas) * c
    for _ in range(_MAX_WIDENINGS):
        if alloc_sum(lo) >= target:
            break
        lo -= abs(lo) + 1.0
    else:
        raise ArithmeticError("bisection bracket failure: no lower bound found")
    for _ in range(_MAX_WIDENINGS):
        if alloc_sum(hi) <= target:
            break
        hi += abs(hi) + 1.0
    else:
        raise ArithmeticError("bisection bracket failure: no upper bound found")

    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            break
        if alloc_sum(mid) > target:
            lo = mid
        else:
            hi = mid

    lam = 0.5 * (lo + hi)
    allocations = tuple(inverse(lam))
    return OracleSolution(
        allocations=allocations, lam=lam, objective=objective(scenario, allocations)
    )
