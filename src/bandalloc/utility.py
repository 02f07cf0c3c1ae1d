"""Closed-form device utility math.

A device receiving bandwidth ``x`` gets net utility

    omega * ln(c * x + 1) - price * x**2

where ``c`` converts bandwidth to achievable rate for the shared channel
quality. The derivative of this function is strictly decreasing on its
domain, so it has a global inverse; the inverse is the larger root of a
quadratic, computed in a cancellation-free form by
:func:`inverse_from_constants` from constants gathered once per run or solve,
each device's by :func:`inverse_constants`.
The distributed engine and the centralized oracle are built on these functions.
"""

from __future__ import annotations

import math

__all__ = [
    "capacity_coefficient",
    "evaluate",
    "derivative",
    "invert_derivative",
    "inverse_constants",
    "inverse_from_constants",
]


def capacity_coefficient(snr: float) -> float:
    """Rate per unit bandwidth, ``log2(1 + snr)``, for signal-to-noise ratio ``snr``."""
    if not (snr > 0.0 and math.isfinite(snr)):
        raise ValueError(f"snr must be a positive finite number, got {snr}")
    return math.log2(1.0 + snr)


def _check_log_domain(c: float, x: float) -> float:
    arg = c * x + 1.0
    if arg <= 0.0:
        raise ValueError(
            f"bandwidth {x} is outside the utility domain (requires x > {-1.0 / c})"
        )
    return arg


def evaluate(omega: float, c: float, price: float, x: float) -> float:
    """Net utility ``omega * ln(c*x + 1) - price * x**2`` at bandwidth ``x``.

    Parameters
    ----------
    omega : float
        Device priority weight, > 0.
    c : float
        Capacity coefficient from :func:`capacity_coefficient`.
    price : float
        Quadratic usage price, > 0.
    x : float
        Bandwidth share; must satisfy ``c*x + 1 > 0``.
    """
    arg = _check_log_domain(c, x)
    return omega * math.log(arg) - price * x * x


def derivative(omega: float, c: float, price: float, x: float) -> float:
    """Marginal utility ``omega*c/(c*x + 1) - 2*price*x``, strictly decreasing in ``x``."""
    arg = _check_log_domain(c, x)
    return omega * c / arg - 2.0 * price * x


def invert_derivative(omega: float, c: float, price: float, v: float) -> float:
    """Unique bandwidth ``x`` with ``derivative(omega, c, price, x) == v``.

    Rearranging ``omega*c/(c*x+1) - 2*price*x = v`` gives the quadratic

        2*price*c * x**2 + (2*price + v*c) * x + (v - omega*c) = 0

    whose discriminant simplifies to ``(2*price - v*c)**2 + 8*omega*price*c**2``.
    That form is positive for every real ``v`` and free of cancellation, so the
    inverse is total and accurate across the whole real line. The larger root
    is the one inside the utility domain ``x > -1/c``. The square is a product,
    as in the array kernel, and raises ``OverflowError`` where ``** 2`` would.
    """
    if not (price > 0.0 and math.isfinite(price)):
        raise ValueError(f"price must be a positive finite number, got {price}")
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"capacity coefficient must be positive, got {c}")
    constants = *inverse_constants(omega, c, price), 2.0 * price, 2.0 * price * c
    return inverse_from_constants(*constants, c, v)


def inverse_constants(omega, c: float, price: float):
    """``(omega*c, 8*omega*price*c*c)``, the per-device constants of
    :func:`inverse_from_constants`: for one omega, or elementwise, with the
    same bits, for a float64 array of them."""
    return omega * c, 8.0 * omega * price * c * c


def inverse_from_constants(omega_c, disc_const, two_price, two_price_c, c, v) -> float:
    """:func:`invert_derivative`'s operations, unchecked, on ``omega_c`` and
    ``disc_const`` from :func:`inverse_constants`, ``two_price = 2*price`` and
    ``two_price_c = 2*price*c``."""
    b = two_price + v * c
    const = v - omega_c
    t = two_price - v * c
    if t * t == math.inf and math.isfinite(t):
        raise OverflowError(34, "Numerical result out of range")
    root = math.sqrt(t * t + disc_const)
    # pair b with the same-signed root so neither quotient cancels; b is
    # never -0.0 (2*price > 0), so b == 0 takes +root
    q = -0.5 * (b + math.copysign(root, b))
    return max(q / two_price_c, const / q)
