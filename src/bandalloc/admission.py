"""One-shot admission of device demands against the shared bandwidth budget.

Demands that fit inside the budget are confirmed unchanged. When they
exceed it, every demand is scaled by the same factor so the confirmed
total equals the budget; a common factor keeps the demand ratios exact.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from functools import cached_property

from .record import Record

__all__ = ["ConfirmedDemands", "admit"]


class ConfirmedDemands(Record):
    """Per-device confirmed targets whose total never exceeds the budget."""

    values: tuple[float, ...]

    @cached_property
    def total(self) -> float:
        """``math.fsum(values)``, computed on first access."""
        return math.fsum(self.values)


def _floats(column: Sequence[float]) -> bool:
    """True when every value is of type ``float`` and the sum is finite (so no NaN or inf)."""
    return set(map(type, column)) == {float} and math.isfinite(sum(column))


def admit(demands: Sequence[float], bandwidth: float) -> ConfirmedDemands:
    """Confirm ``demands`` against ``bandwidth``.

    Returns the demands unchanged when their total fits, else the demands
    scaled by ``bandwidth / total``. The scale factor is nudged down by
    single ulps until the rounded total actually lands at or below the
    budget, so the returned total satisfies ``total <= bandwidth`` exactly
    and re-admitting a confirmed vector reproduces it bit for bit. Below a
    normal scale, the shares ``d / total`` are scaled by the budget instead.
    """
    if len(demands) == 0:
        raise ValueError("demand list must be non-empty")
    if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
        raise ValueError(f"bandwidth must be a positive finite number, got {bandwidth}")
    if not (_floats(demands) and min(demands) >= 0.0):  # else name the first bad one
        for k, d in enumerate(demands):
            if not (d >= 0.0 and math.isfinite(d)):
                raise ValueError(f"demand[{k}] must be a finite number >= 0, got {d}")
    total = math.fsum(demands)
    if total <= bandwidth:
        return ConfirmedDemands(values=tuple(demands))
    scale = bandwidth / total
    if scale < sys.float_info.min:  # a subnormal scale has too few bits: scale the shares
        demands, scale = [d / total for d in demands], bandwidth
    values = [d * scale for d in demands]
    while math.fsum(values) > bandwidth:
        scale = math.nextafter(scale, 0.0)
        values = [d * scale for d in demands]
    return ConfirmedDemands(values=tuple(values))
