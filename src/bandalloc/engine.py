"""Distributed allocation engine: synchronous rounds of derivative gossip.

Each device holds a bandwidth iterate ``x``, its marginal utility
``u_prime`` (the value exchanged with neighbors), and an integral
correction ``zeta``. One round, computed for every device from round-k
values only:

    q     = eta * sum(u_prime[j] - u_prime[i] for j in neighbors(i))
    u_new = u_prime + q - zeta + mu * (x - d_star)
    zeta  = zeta - mu * q
    x     = invert_derivative(u_new)

The gossip term drives all marginal utilities to a common value; the
correction term's conserved zero sum pins the allocation total to the
confirmed demand total, so the two together land on the equal-marginal
(KKT) point of the capacity-constrained welfare problem.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .admission import ConfirmedDemands, admit
from .scenario import Scenario
# not called: kept because bench/tracer.py wraps this binding by name
from .topology import build as build_topology  # noqa: F401
from .utility import capacity_coefficient, derivative, invert_derivative

__all__ = [
    "NumericalError",
    "EngineState",
    "Diagnostics",
    "RunResult",
    "init",
    "step",
    "consensus_residual",
    "constraint_residual",
    "run",
]

# consecutive residual-growth rounds before a run is declared divergent
_DIVERGENCE_STREAK = 100

# Device count from which ``run`` iterates with the numpy kernel in
# ``array_kernel``, and ``oracle.solve`` bisects on its elementwise inverse,
# when numpy imports. Below it the scalar code is faster: an array round
# costs about 27 us at 3 devices against 10 us for ``step``, and the two
# cross between 12 and 16 devices. One oracle evaluation crosses later, near
# 32 devices (20 us array against 11 to 23 us scalar at 16); the oracle
# keeps this one rule, since below 32 a solve loses under 1 ms.
ARRAY_MIN_DEVICES = 16


class NumericalError(RuntimeError):
    """Non-finite arithmetic during iteration; carries iteration and device."""

    def __init__(self, iteration: int, device: int, detail: str = "non-finite value"):
        super().__init__(f"{detail} at iteration {iteration}, device {device}")
        self.iteration = iteration
        self.device = device


@dataclass(frozen=True)
class EngineState:
    """Round-boundary state of all devices, one float per device per field.

    ``u_prime`` holds the marginal utilities the devices quote to their
    neighbors and ``x[i]`` is always ``invert_derivative(u_prime[i])``.
    ``q`` is the gossip innovation applied in the round that produced
    this state (zero at initialization).
    """

    x: tuple[float, ...]
    u_prime: tuple[float, ...]
    zeta: tuple[float, ...]
    q: tuple[float, ...]
    iteration: int
    confirmed: ConfirmedDemands


@dataclass(frozen=True)
class Diagnostics:
    consensus_residual: float
    constraint_residual: float
    diverged: bool = False
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class RunResult:
    allocations: tuple[float, ...]
    consensus_value: float
    iterations_used: int
    converged: bool
    trace: tuple[EngineState, ...]
    diagnostics: Diagnostics
    confirmed: ConfirmedDemands


def _resting_state(
    scenario: Scenario, confirmed: ConfirmedDemands, xs: tuple[float, ...]
) -> EngineState:
    """Round-0 state at allocations ``xs``: zero correction and innovation."""
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    zeros = (0.0,) * scenario.n
    return EngineState(
        x=xs,
        u_prime=tuple(derivative(d.omega, c, g.price, x) for d, x in zip(scenario.devices, xs)),
        zeta=zeros,
        q=zeros,
        iteration=0,
        confirmed=confirmed,
    )


def init(scenario: Scenario, confirmed: ConfirmedDemands) -> EngineState:
    """Initial state: zeta at zero and x per the scenario's init mode.

    Modes: ``demand`` starts from the confirmed targets, ``uniform``
    splits the budget evenly, ``seeded-random`` draws each x uniformly
    from [0, bandwidth] using the scenario seed (0 when unset). The zero
    zeta start is required for the conserved-sum constraint mechanism.
    """
    n = scenario.n
    if len(confirmed.values) != n:
        raise ValueError(
            f"confirmed demand count {len(confirmed.values)} does not match "
            f"device count {n}"
        )
    g = scenario.globals
    mode = scenario.options.init_mode
    if mode == "demand":
        xs = confirmed.values
    elif mode == "uniform":
        xs = (g.bandwidth / n,) * n
    else:
        rng = random.Random(scenario.options.seed if scenario.options.seed is not None else 0)
        xs = tuple(rng.uniform(0.0, g.bandwidth) for _ in range(n))
    return _resting_state(scenario, confirmed, xs)


def step(state: EngineState, scenario: Scenario) -> EngineState:
    """Advance one synchronous round; reads only round-k values.

    Raises :class:`NumericalError` when any update produces a non-finite
    value or overflows the inverse-derivative arithmetic.
    """
    n = scenario.n
    if len(state.x) != n:
        raise ValueError(f"state holds {len(state.x)} devices, scenario has {n}")
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    eta, mu, price = g.eta, g.mu, g.price
    ys = state.u_prime
    k = state.iteration + 1
    out = []
    rows = zip(
        scenario.topology.adjacency, scenario.devices, state.x, ys, state.zeta,
        state.confirmed.values, strict=True,
    )
    for i, (nbrs, dev, x, y, zeta, dstar) in enumerate(rows):
        q = eta * math.fsum(ys[j] - y for j in nbrs)
        # grouped so a stationary state reproduces u_prime bit for bit
        u_new = y + (q - zeta + mu * (x - dstar))
        zeta_new = zeta - mu * q
        if not (math.isfinite(u_new) and math.isfinite(zeta_new)):
            raise NumericalError(k, i)
        try:
            x_new = invert_derivative(dev.omega, c, price, u_new)
        except OverflowError:
            raise NumericalError(k, i, "arithmetic overflow") from None
        if not math.isfinite(x_new):
            raise NumericalError(k, i)
        out.append((x_new, u_new, zeta_new, q))
    xs_new, ys_new, zetas_new, qs_new = zip(*out)
    return EngineState(
        x=xs_new, u_prime=ys_new, zeta=zetas_new, q=qs_new, iteration=k, confirmed=state.confirmed
    )


def consensus_residual(state: EngineState) -> float:
    """Spread of the marginal utilities: max u_prime - min u_prime."""
    return max(state.u_prime) - min(state.u_prime)


def constraint_residual(state: EngineState) -> float:
    """|sum of allocations - confirmed total|."""
    return abs(math.fsum(state.x) - state.confirmed.total)


class _ScalarRounds:
    """Rounds of :func:`step` on tuples, the interface of ``ArrayRounds``."""

    def __init__(self, state: EngineState, scenario: Scenario) -> None:
        self._state, self._scenario = state, scenario

    def advance(self) -> tuple[float, float]:
        """One round; returns the consensus and constraint residuals."""
        state = self._state = step(self._state, self._scenario)
        return consensus_residual(state), constraint_residual(state)

    def state(self) -> EngineState:
        return self._state


def array_kernel_for(n: int):
    """The ``array_kernel`` module for ``n`` devices, or None for the scalar code.

    It applies from ``ARRAY_MIN_DEVICES`` devices on, when numpy imports; the
    import is deferred to the first such call. ``run`` and ``oracle.solve``
    both choose their kernel here.
    """
    if n < ARRAY_MIN_DEVICES:
        return None
    try:
        from . import array_kernel
    except ImportError:  # numpy is optional; the scalar code is the stdlib fallback
        return None
    return array_kernel


def _rounds(state: EngineState, scenario: Scenario):
    """The round kernel for this input: numpy from ``ARRAY_MIN_DEVICES`` on."""
    kernel = array_kernel_for(scenario.n)
    if kernel is None:
        return _ScalarRounds(state, scenario)
    return kernel.ArrayRounds(state, scenario)


def run(scenario: Scenario, trace_stride: int | None = None) -> RunResult:
    """Admit demands once, initialize, and iterate to the stated tolerances.

    Stops as soon as both the consensus residual and the constraint
    residual are inside their tolerances, or at the iteration cap, or
    when the combined residual has grown for 100 consecutive rounds
    (divergence). A zero confirmed total short-circuits to the all-zero
    allocation. With a ``trace_stride`` K, the trace holds the state of
    every K-th iteration plus the final one; without, it stays empty.

    From ``ARRAY_MIN_DEVICES`` devices on, and when numpy imports, the
    rounds run in the numpy kernel of ``array_kernel``; its results agree
    with :func:`step`'s to rounding (about 1e-15), not bit for bit.

    Raises :class:`NumericalError` on non-finite arithmetic and
    ``ValueError`` for a non-positive stride.
    """
    if trace_stride is not None and trace_stride < 1:
        raise ValueError(f"trace_stride must be >= 1, got {trace_stride}")
    opts = scenario.options
    confirmed = admit(scenario.demands, scenario.globals.bandwidth)

    if confirmed.total == 0.0:
        zero = _resting_state(scenario, confirmed, (0.0,) * scenario.n)
        return RunResult(
            allocations=zero.x,
            consensus_value=math.nan,
            iterations_used=0,
            converged=True,
            trace=() if trace_stride is None else (zero,),
            diagnostics=Diagnostics(
                consensus_residual=0.0,
                constraint_residual=0.0,
                warnings=("all demands are zero; allocation is trivially zero",),
            ),
            confirmed=confirmed,
        )

    state = init(scenario, confirmed)
    trace: list[EngineState] = [] if trace_stride is None else [state]

    cons = consensus_residual(state)
    constr = constraint_residual(state)
    converged = cons <= opts.tol_consensus and constr <= opts.tol_constraint
    diverged = False
    warnings: list[str] = []
    growth_streak = 0
    prev_combined: float | None = None
    rounds = _rounds(state, scenario)
    k = 0

    while not converged and not diverged and k < opts.max_iters:
        cons, constr = rounds.advance()
        k += 1
        if trace_stride is not None and k % trace_stride == 0:
            trace.append(rounds.state())
        if cons <= opts.tol_consensus and constr <= opts.tol_constraint:
            converged = True
            continue
        combined = cons + constr
        if prev_combined is not None and combined > prev_combined:
            growth_streak += 1
        else:
            growth_streak = 0
        prev_combined = combined
        if growth_streak >= _DIVERGENCE_STREAK:
            diverged = True
            warnings.append(
                f"residuals grew for {_DIVERGENCE_STREAK} consecutive iterations; "
                "the gains are too aggressive, reduce eta and mu"
            )

    state = rounds.state()
    if trace_stride is not None and trace[-1].iteration != k:
        trace.append(state)

    negatives = [i for i, x in enumerate(state.x) if x < 0.0]
    if negatives:
        warnings.append(
            "final allocation is negative for device(s) "
            + ", ".join(str(i) for i in negatives)
        )

    return RunResult(
        allocations=state.x,
        consensus_value=math.fsum(state.u_prime) / scenario.n,
        iterations_used=state.iteration,
        converged=converged,
        trace=tuple(trace),
        diagnostics=Diagnostics(
            consensus_residual=cons,
            constraint_residual=constr,
            diverged=diverged,
            warnings=tuple(warnings),
        ),
        confirmed=confirmed,
    )
