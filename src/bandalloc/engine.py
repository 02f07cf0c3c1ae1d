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
from collections.abc import Callable

from .admission import ConfirmedDemands, admit
from .record import Record
from .scenario import Scenario
# not called: kept because bench/tracer.py wraps these bindings by name
from .topology import build as build_topology  # noqa: F401
from .utility import invert_derivative  # noqa: F401
from .utility import capacity_coefficient, derivative, inverse_constants

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
_DIVERGED = (
    f"residuals grew for {_DIVERGENCE_STREAK} consecutive iterations; "
    "the gains are too aggressive, reduce eta and mu"
)
_ZERO = "all demands are zero; allocation is trivially zero"
_EPS = math.ulp(1.0)

# Device count from which ``run`` iterates with the numpy kernel in
# ``array_kernel``, and ``oracle.solve`` bisects on its elementwise inverse,
# when numpy imports. The kernels give equal results, so it decides speed
# alone. The scalar code is faster below about 18 devices for a run and 28
# for a solve (median us, scalar/array, then the median paired ratio; seeds
# 1-3 in-process on 2 shared vCPUs; per round of ``run``: 7.7/13.8 (0.54) at
# 8, 11.1/15.9 (0.71) at 12, 13.1/14.1 (0.91) at 16, 16.0/14.2 (1.11) at 20,
# 18.3/13.7 (1.32) at 24; per solve, at about 12 evaluations each: 257/386
# (0.67) at 16, 298/372 (0.80) at 20, 334/365 (0.91) at 24, 404/349 (1.16)
# at 32). One rule serves both; at 16 and 17 devices a run loses up to 1 us
# per round and from 16 to 27 a solve < 0.1 ms, and 20-device runs, which the
# benchmark times, win on the array kernel.
ARRAY_MIN_DEVICES = 16


class NumericalError(RuntimeError):
    """Non-finite arithmetic during iteration; carries iteration and device."""

    def __init__(self, iteration: int, device: int, detail: str = "non-finite value"):
        super().__init__(f"{detail} at iteration {iteration}, device {device}")
        self.iteration = iteration
        self.device = device


class EngineState(Record):
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


class Diagnostics(Record):
    """The final state's residuals, whether the run diverged, and its warnings."""

    consensus_residual: float
    constraint_residual: float
    diverged: bool = False
    warnings: tuple[str, ...] = ()


class RunResult(Record):
    """The engine's allocations and consensus value, its rounds, and its diagnostics."""

    allocations: tuple[float, ...]
    consensus_value: float
    iterations_used: int
    converged: bool
    # iterations handed to the trace sink, in order; () without one
    trace: tuple[int, ...]
    diagnostics: Diagnostics
    confirmed: ConfirmedDemands


def init(scenario: Scenario, confirmed: ConfirmedDemands) -> EngineState:
    """Initial state: zeta at zero and x per the scenario's init mode.

    Modes: ``demand`` starts from the confirmed targets, ``uniform``
    splits the budget evenly, ``seeded-random`` draws each x uniformly
    from [0, bandwidth] using the scenario seed (0 when unset). A zero
    confirmed total starts every mode at x = 0, the final allocation. The
    zero zeta start is required for the conserved-sum constraint mechanism.
    """
    n = scenario.n
    _check_count(n, confirmed)
    g = scenario.globals
    mode = scenario.options.init_mode
    zeros = (0.0,) * n
    if confirmed.total == 0.0:
        xs = zeros  # not the demands, so that a -0.0 prints as 0
    elif mode == "demand":
        xs = confirmed.values
    elif mode == "uniform":
        xs = (g.bandwidth / n,) * n
    else:
        import random
        rng = random.Random(scenario.options.seed if scenario.options.seed is not None else 0)
        xs = tuple(rng.uniform(0.0, g.bandwidth) for _ in range(n))
    c = capacity_coefficient(g.snr)
    return EngineState(
        x=xs,
        u_prime=tuple(derivative(w, c, g.price, x) for w, x in zip(scenario.omegas, xs)),
        zeta=zeros,
        q=zeros,
        iteration=0,
        confirmed=confirmed,
    )


def step(state: EngineState, scenario: Scenario) -> EngineState:
    """Advance one synchronous round; reads only round-k values.

    The round is one of ``run``'s scalar kernel, :func:`_scalar_rounds`.
    Raises :class:`NumericalError` when any update produces a non-finite
    value, or overflows or divides by zero in the inverse-derivative arithmetic.
    """
    fields = next(_scalar_rounds(state, scenario))[3]
    return EngineState(*map(tuple, fields), state.iteration + 1, state.confirmed)


def consensus_residual(state: EngineState) -> float:
    """Spread of the marginal utilities: max u_prime - min u_prime."""
    return max(state.u_prime) - min(state.u_prime)


def constraint_residual(state: EngineState) -> float:
    """|sum of allocations - confirmed total|."""
    return abs(math.fsum(state.x) - state.confirmed.total)


def _scalar_rounds(state: EngineState, scenario: Scenario):
    """Engine rounds on lists of floats, from ``state`` on; the one definition of a scalar round.

    Yields ``(consensus, constraint, bound, fields)`` once per round: the
    round's exact residuals, a bound of 0.0, and ``(x, u_prime, zeta, q)`` as
    new lists. A round checks one sum of its values, ``t*t`` included; only
    when that is not finite, or an inverse divides by zero, does
    :func:`_scan_round` look for the failing device.
    """
    n = scenario.n
    # checked once here, not by a strict zip per round
    sizes = {len(field) for field in (state.x, state.u_prime, state.zeta, state.confirmed.values)}
    if sizes != {n}:
        raise ValueError(f"state fields hold {sorted(sizes)} devices, scenario has {n}")
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    eta, mu, two_price, two_price_c = g.eta, g.mu, 2.0 * g.price, 2.0 * g.price * c
    isfinite, sqrt, copysign = math.isfinite, math.sqrt, math.copysign
    omega_cs, discs = zip(*(inverse_constants(w, c, g.price) for w in scenario.omegas))
    adjacency, dstars = scenario.adjacency, state.confirmed.values
    total = state.confirmed.total
    k = state.iteration
    xs, ys, zetas = state.x, state.u_prime, state.zeta
    while True:
        k += 1
        xs_new, ys_new, zetas_new, qs_new = [], [], [], []
        check = 0.0
        columns = zip(adjacency, omega_cs, discs, dstars, xs, ys, zetas)
        try:
            for nbrs, omega_c, disc, dstar, x, y, zeta in columns:
                # added in sequence, as np.bincount does; fsum and (from 3.12) sum would compensate
                gossip = 0.0
                for j in nbrs:
                    gossip += ys[j] - y
                q = eta * gossip
                # grouped so a stationary state reproduces u_prime bit for bit
                u_new = y + (q - zeta + mu * (x - dstar))
                zeta_new = zeta - mu * q
                ys_new.append(u_new)
                zetas_new.append(zeta_new)
                qs_new.append(q)
                # utility.inverse_from_constants written out: a call per device measured slower
                vc = u_new * c
                b, t = two_price + vc, two_price - vc
                tt = t * t
                half = -0.5 * (b + copysign(sqrt(tt + disc), b))
                x_new, other = half / two_price_c, (u_new - omega_c) / half
                x_new = other if other > x_new else x_new  # max(x_new, other), bit for bit
                xs_new.append(x_new)
                # not finite if any term is: an infinite t*t, a NaN, or an overflow
                check += u_new + zeta_new + tt + x_new
        except ZeroDivisionError:  # half is 0.0: b and the discriminant rounded to 0.0
            _scan_round(k, ys_new, zetas_new, xs_new, c, two_price)
            raise NumericalError(k, len(xs_new), "division by zero") from None
        if not isfinite(check):
            _scan_round(k, ys_new, zetas_new, xs_new, c, two_price)
        xs, ys, zetas = xs_new, ys_new, zetas_new
        yield max(ys) - min(ys), abs(math.fsum(xs) - total), 0.0, (xs, ys, zetas, qs_new)


def _scan_round(k: int, ys, zetas, xs, c: float, two_price: float) -> None:
    """Raise the :class:`NumericalError` of round ``k``'s first failing device, if any.

    Device by device: a non-finite ``u_prime`` or ``zeta``, then an
    overflowing ``t*t`` with ``t`` finite, then a non-finite ``x``. A device
    whose inverse divided by zero has no ``x``; the caller names that failure.
    """
    for i, (y, zeta) in enumerate(zip(ys, zetas)):
        if not (math.isfinite(y) and math.isfinite(zeta)):
            raise NumericalError(k, i)
        t = two_price - y * c
        if t * t == math.inf and math.isfinite(t):
            raise NumericalError(k, i, "arithmetic overflow")
        if i < len(xs) and not math.isfinite(xs[i]):
            raise NumericalError(k, i)


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


def _check_count(n: int, confirmed: ConfirmedDemands) -> None:
    """Raise ``ValueError`` unless ``confirmed`` holds one demand per device."""
    if len(confirmed.values) != n:
        raise ValueError(
            f"confirmed demand count {len(confirmed.values)} does not match device count {n}"
        )


def _listed(field):
    """Floats as a sequence: ``tolist()`` of an array, a list or tuple as it is."""
    return field if isinstance(field, (list, tuple)) else field.tolist()


def _unsure(a: float, b: float, slack: float) -> bool:
    """Whether ``a > b`` may not decide as it would between the exact values.

    ``a`` and ``b`` are residuals, or sums of two, whose constraint residuals
    lie within ``slack`` in total of the exact ones. A finite difference past
    ``slack`` and a few ulps of either side (the roundings of the sums and of
    the difference) is sure; any other is not, with a ``slack`` of 0 too.
    """
    return not slack + 4.0 * _EPS * (abs(a) + abs(b)) < abs(a - b) < math.inf


def _check_domain(state: EngineState, c: float) -> None:
    """Raise :class:`NumericalError` for an allocation with ``c*x + 1 <= 0``."""
    for i, x in enumerate(state.x):
        if c * x + 1.0 <= 0.0:
            raise NumericalError(
                state.iteration, i, f"allocation {x!r} outside the utility domain"
            )


def run(
    scenario: Scenario, trace: Callable[..., None] | None = None, trace_stride: int = 1
) -> RunResult:
    """Admit demands once, initialize, and iterate to the stated tolerances.

    Stops as soon as both the consensus residual and the constraint
    residual are inside their tolerances, or at the iteration cap, or
    when the combined residual has grown for 100 consecutive rounds
    (divergence). A zero confirmed total stops at iteration 0, on the
    all-zero allocation, with a nan consensus value.

    ``trace``, when given, is called as ``trace(iteration, x, u_prime, zeta,
    q)`` with one sequence of floats per field, at iteration 0, at every
    ``trace_stride``-th iteration and at the final one; ``run`` keeps none
    of it, and ``result.trace`` lists the iterations handed over.

    From ``ARRAY_MIN_DEVICES`` devices on, when numpy imports, the rounds
    run in ``array_kernel``, equal to :func:`step`'s bit for bit. Each round
    drawn is a record ``[cons, constr, bound, x]``, its constraint residual
    within ``bound`` of the exact one; a stop or streak comparison inside the
    bound makes the record exact, by one ``math.fsum``, with bound 0.0, so
    both decide as exact residuals would. Reported residuals are exact.

    Raises :class:`NumericalError` on non-finite arithmetic and when a run
    that did not diverge ends outside the utility domain ``c*x + 1 > 0``,
    and ``ValueError`` for a non-positive stride.
    """
    if trace_stride < 1:
        raise ValueError(f"trace_stride must be >= 1, got {trace_stride}")
    opts = scenario.options
    confirmed = admit(scenario.demands, scenario.globals.bandwidth)
    state = init(scenario, confirmed)
    if trace is not None:
        trace(0, state.x, state.u_prime, state.zeta, state.q)

    tol_consensus, tol_constraint = opts.tol_consensus, opts.tol_constraint
    zero = confirmed.total == 0.0  # the all-zero allocation of init is the answer
    cons = 0.0 if zero else consensus_residual(state)
    converged = zero or cons <= tol_consensus and constraint_residual(state) <= tol_constraint
    growth_streak = 0
    kernel = None if converged else array_kernel_for(scenario.n)
    rounds = (_scalar_rounds if kernel is None else kernel.rounds)(state, scenario)
    fields = (state.x, state.u_prime, state.zeta, state.q)
    prev = None  # the record of the round before, and its combined residual
    k, max_iters = 0, opts.max_iters

    def settle(*records):  # exact residual and bound 0.0: math.fsum at most once per round
        for record in records:
            if record[2]:
                record[1:3] = abs(math.fsum(_listed(record[3])) - confirmed.total), 0.0

    while not converged and growth_streak < _DIVERGENCE_STREAK and k < max_iters:
        cons, constr, bound, fields = next(rounds)
        k += 1
        record = [cons, constr, bound, fields[0]]
        if trace is not None and k % trace_stride == 0:
            trace(k, *map(_listed, fields))
        # a bound of 0.0, from the scalar round, marks exact residuals: they compare directly
        if cons <= tol_consensus:
            if bound and _unsure(constr, tol_constraint, bound):
                settle(record)
            if not record[1] > tol_constraint:
                converged = True
                continue
        combined = cons + record[1]
        if prev is not None:
            slack = record[2] + prev[2]
            if slack and _unsure(combined, before, slack):
                settle(record, prev)
                combined, before = cons + record[1], prev[0] + prev[1]
            growth_streak = growth_streak + 1 if combined > before else 0
        prev, before = record, combined

    diverged = growth_streak >= _DIVERGENCE_STREAK
    warnings = [_DIVERGED] if diverged else [_ZERO] if zero else []
    state = EngineState(*(tuple(_listed(field)) for field in fields), k, confirmed)
    if not diverged:  # a diverged run is reported as such, wherever it ended
        _check_domain(state, capacity_coefficient(scenario.globals.snr))
    if trace is not None and k % trace_stride:
        trace(k, *map(_listed, fields))

    negatives = [i for i, x in enumerate(state.x) if x < 0.0]
    if negatives:
        warnings.append(
            "final allocation is negative for device(s) "
            + ", ".join(str(i) for i in negatives)
        )

    return RunResult(
        allocations=state.x,
        consensus_value=math.nan if zero else math.fsum(state.u_prime) / scenario.n,
        iterations_used=k,
        converged=converged,
        trace=() if trace is None else tuple(sorted({*range(0, k + 1, trace_stride), k})),
        diagnostics=Diagnostics(
            consensus_residual=cons,
            constraint_residual=constraint_residual(state),
            diverged=diverged,
            warnings=tuple(warnings),
        ),
        confirmed=confirmed,
    )
