"""Engine behavior: initialization, single rounds, full runs, divergence."""

from __future__ import annotations

import dataclasses
import math
import random
import sys
import tracemalloc

import pytest

from bandalloc import engine
from bandalloc.admission import admit
from bandalloc.engine import (
    EngineState,
    NumericalError,
    consensus_residual,
    constraint_residual,
    init,
    run,
    step,
)
from bandalloc.oracle import solve
from bandalloc.scenario import generate_random_scenario, parse_scenario
from bandalloc.topology import adjacency
from bandalloc.utility import capacity_coefficient, derivative, invert_derivative

from conftest import BENCH_PATH, bench_scenario, generated_scenario, make_scenario, recording

# engine limit for the bundled benchmark, pinned after first computation
BENCH_ALLOCATIONS = (0.778061243179723, 1.6758758193188736, 2.5460632790013853)
BENCH_ITERATIONS = 112


def vectors(state: EngineState) -> tuple:
    """The per-device fields of a state, for bit-exact comparison."""
    return (state.x, state.u_prime, state.zeta, state.q)


def reference_step(state: EngineState, scenario) -> EngineState:
    """Two-phase reference: snapshot all round-k values, then write."""
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    neighbors = adjacency(scenario.n, scenario.edges)
    ys, xs, zs = state.u_prime, state.x, state.zeta
    dstar = state.confirmed.values
    out = []
    for i in range(scenario.n):
        gossip = 0.0  # in sequence, as np.bincount adds
        for j in neighbors[i]:
            gossip += ys[j] - ys[i]
        q = g.eta * gossip
        u_new = ys[i] + (q - zs[i] + g.mu * (xs[i] - dstar[i]))
        zeta = zs[i] - g.mu * q
        try:
            x = invert_derivative(scenario.omegas[i], c, g.price, u_new)
        except OverflowError as exc:  # named by device, as step's NumericalError is
            raise OverflowError(i) from exc
        out.append((x, u_new, zeta, q))
    x, u_prime, zeta, q = (tuple(column) for column in zip(*out))
    return EngineState(
        x=x,
        u_prime=u_prime,
        zeta=zeta,
        q=q,
        iteration=state.iteration + 1,
        confirmed=state.confirmed,
    )


def state_from_values(scenario, ys, zetas=None) -> EngineState:
    """Engine state with given marginals, x kept consistent by inversion."""
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    confirmed = admit(scenario.demands, g.bandwidth)
    zetas = zetas if zetas is not None else [0.0] * scenario.n
    return EngineState(
        x=tuple(invert_derivative(w, c, g.price, y) for w, y in zip(scenario.omegas, ys)),
        u_prime=tuple(ys),
        zeta=tuple(zetas),
        q=(0.0,) * scenario.n,
        iteration=0,
        confirmed=confirmed,
    )


def stationary_state(scenario, level: float, inverse=None) -> EngineState:
    """Consensus state at a common marginal value, correction matched to it.

    ``inverse(omegas, c, price, level)`` computes the allocations; by
    default the scalar ``invert_derivative`` per device.
    """
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    confirmed = admit(scenario.demands, g.bandwidth)
    if inverse is None:
        xs = tuple(invert_derivative(w, c, g.price, level) for w in scenario.omegas)
    else:
        xs = tuple(inverse(scenario.omegas, c, g.price, level))
    return EngineState(
        x=xs,
        u_prime=(level,) * scenario.n,
        zeta=tuple(g.mu * (x - d) for x, d in zip(xs, confirmed.values)),
        q=(0.0,) * scenario.n,
        iteration=0,
        confirmed=confirmed,
    )


class TestInit:
    def test_demand_mode(self, bench):
        state = init(bench, admit(bench.demands, 5.0))
        assert state.x == (1.0, 2.0, 2.0)
        assert state.zeta == state.q == (0.0, 0.0, 0.0)
        c = capacity_coefficient(100.0)
        for i, (x, y) in enumerate(zip(state.x, state.u_prime)):
            assert y == derivative(bench.omegas[i], c, 0.01, x)
        assert state.iteration == 0

    def test_uniform_mode(self):
        scenario = bench_scenario(init_mode="uniform")
        state = init(scenario, admit(scenario.demands, 5.0))
        assert state.x == (5.0 / 3.0,) * 3

    def test_seeded_random_mode_deterministic(self):
        scenario = bench_scenario(init_mode="seeded-random", seed=42)
        first = init(scenario, admit(scenario.demands, 5.0))
        second = init(scenario, admit(scenario.demands, 5.0))
        assert first == second
        assert all(0.0 <= x <= 5.0 for x in first.x)
        other = bench_scenario(init_mode="seeded-random", seed=43)
        assert init(other, admit(other.demands, 5.0)) != first

    def test_length_mismatch_rejected(self, bench):
        with pytest.raises(ValueError, match="does not match"):
            init(bench, admit((1.0, 2.0), 5.0))


class TestStep:
    def test_gossip_innovation_hand_values(self, bench):
        state = state_from_values(bench, ys=[1.0, 2.0, 3.0])
        after = step(state, bench)
        assert after.q == (0.2, 0.0, -0.2)

    def test_correction_update_hand_values(self, bench):
        state = state_from_values(bench, ys=[1.0, 2.0, 3.0])
        zetas = step(state, bench).zeta
        assert zetas == pytest.approx((-0.04, 0.0, 0.04), abs=1e-15)
        assert math.fsum(zetas) == pytest.approx(0.0, abs=1e-15)

    def test_iteration_counter_increments(self, bench):
        state = init(bench, admit(bench.demands, 5.0))
        assert step(state, bench).iteration == 1

    def test_matches_two_phase_reference(self):
        rng = random.Random(12)
        for _ in range(8):
            n = rng.randint(2, 7)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            extra = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in set(edges)]
            edges += rng.sample(extra, min(len(extra), rng.randint(0, n)))
            scenario = make_scenario(
                omegas=[rng.uniform(0.5, 5.0) for _ in range(n)],
                demands=[rng.uniform(0.0, 3.0) for _ in range(n)],
                edges=edges,
                bandwidth=rng.uniform(2.0, 8.0),
            )
            ys = [rng.uniform(-2.0, 8.0) for _ in range(n)]
            zetas = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            state = state_from_values(scenario, ys, zetas)
            assert step(state, scenario) == reference_step(state, scenario)
        # snr 1 and price 0.5 give c = 1: the discriminant's base is t = 1 - u', and
        # b = 1 + u' is +0.0 at u' = -2*price/c = -1; t*t first overflows at |t| = 2**512
        scenario = make_scenario(
            omegas=(3.0, 8.0, 0.7, 2.0, 1.5),
            demands=(1.0, 2.0, 0.5, 1.0, 0.5),
            edges=((0, 1), (1, 2), (2, 3), (3, 4)),
            snr=1.0,
            price=0.5,
        )
        flat = state_from_values(scenario, [-1.0] * 5)
        # equal marginals, zero zeta and x = d_star: every u' stays exactly -1
        flat = dataclasses.replace(flat, x=flat.confirmed.values)
        assert reference_step(flat, scenario).u_prime == (-1.0,) * 5
        assert step(flat, scenario) == reference_step(flat, scenario)
        # device 2's new u' is about 0.6 * y, its neighbours' about 0.2 * y: only
        # device 2's t*t overflows, and only at y = -3e154, not at -1e150
        state = dataclasses.replace(flat, u_prime=(0.5, 1.0, -1e150, 2.0, 0.0))
        assert step(state, scenario) == reference_step(state, scenario)
        state = dataclasses.replace(flat, u_prime=(0.5, 1.0, -3e154, 2.0, 0.0))
        with pytest.raises(OverflowError) as expected:
            reference_step(state, scenario)
        with pytest.raises(NumericalError, match="^arithmetic overflow at iteration 1") as got:
            step(state, scenario)
        assert got.value.device == expected.value.args[0] == 2
        # the square t*t = 1.44e308 is finite, but the discriminant adds device 0's
        # 8*omega*price*c*c = 8e307 and overflows: its x is inf, where the
        # reference returns it and step raises
        scenario = make_scenario(
            omegas=(2e307, 1.0, 1.0), demands=(1.0,) * 3, edges=((0, 1), (1, 2)),
            snr=1.0, price=0.5,
        )
        state = state_from_values(scenario, [1.0 - 1.2e154] * 3)
        state = dataclasses.replace(state, x=state.confirmed.values)
        assert reference_step(state, scenario).x == (math.inf, 1.2e154, 1.2e154)
        with pytest.raises(NumericalError) as got:
            step(state, scenario)
        assert str(got.value) == "non-finite value at iteration 1, device 0"
        # zeta' = zeta - mu*q = 1e300 - 1e310 overflows while u' and x stay
        # finite: only the check of u' and zeta' catches it
        scenario = make_scenario(
            omegas=(1.0, 1.0), demands=(1.0, 1.0), edges=((0, 1),), mu=1e10, eta=1.0
        )
        state = dataclasses.replace(
            initial_state(scenario), u_prime=(0.0, 1e300), zeta=(1e300, 0.0)
        )
        want = reference_step(state, scenario)
        assert want.zeta == (-math.inf, math.inf) and all(map(math.isfinite, want.x))
        with pytest.raises(NumericalError) as got:
            step(state, scenario)
        assert str(got.value) == "non-finite value at iteration 1, device 0"

    def test_device_count_mismatch_rejected(self, bench):
        other = make_scenario(omegas=(1.0, 2.0), demands=(1.0, 1.0), edges=((0, 1),))
        state = init(other, admit(other.demands, 5.0))
        with pytest.raises(ValueError, match="devices"):
            step(state, bench)


class TestFixedPoint:
    @pytest.mark.parametrize("level", [0.5, 1.0, 2.0])
    def test_consensus_state_is_stationary_bitwise(self, bench, level):
        state = stationary_state(bench, level)
        after = step(state, bench)
        assert vectors(after) == vectors(state)
        assert after.iteration == state.iteration + 1

    def test_mismatched_correction_is_not_stationary(self, bench):
        base = stationary_state(bench, 1.0)
        state = dataclasses.replace(base, zeta=tuple(-z for z in base.zeta))
        after = step(state, bench)
        assert vectors(after) != vectors(state)

    def test_unequal_marginals_are_not_stationary(self, bench):
        state = state_from_values(bench, ys=[1.0, 1.0, 1.5])
        after = step(state, bench)
        assert vectors(after) != vectors(state)

    def test_zero_sum_correction_pins_totals(self, bench):
        # at the conserved-sum consensus level the allocation total matches
        # the confirmed total; away from it, it does not
        confirmed = admit(bench.demands, 5.0)
        pinned = solve(bench, confirmed).lam
        state = stationary_state(bench, pinned)
        assert math.fsum(state.zeta) == pytest.approx(0.0, abs=1e-12)
        assert constraint_residual(state) <= 1e-9
        off = stationary_state(bench, pinned + 0.5)
        assert abs(math.fsum(off.zeta)) > 1e-3
        assert constraint_residual(off) > 1e-2


class TestResiduals:
    def test_consensus_residual_values(self, bench):
        assert consensus_residual(state_from_values(bench, ys=[2.0, 2.0, 2.0])) == 0.0
        assert consensus_residual(state_from_values(bench, ys=[1.0, 2.0, 3.0])) == 2.0

    def test_constraint_residual(self, bench):
        state = init(bench, admit(bench.demands, 5.0))
        assert constraint_residual(state) == 0.0


class TestRun:
    def test_benchmark_convergence(self, bench):
        result = run(bench)
        assert result.converged
        assert result.iterations_used == BENCH_ITERATIONS
        assert result.allocations == pytest.approx(BENCH_ALLOCATIONS, rel=1e-12)
        assert result.allocations == pytest.approx((0.78, 1.67, 2.55), abs=0.01)
        assert math.fsum(result.allocations) == pytest.approx(5.0, abs=1e-6)
        assert result.diagnostics.consensus_residual <= 1e-6
        assert result.diagnostics.constraint_residual <= 1e-6
        assert not result.diagnostics.diverged

    def test_final_state_marginals_consistent(self, bench):
        sink, rounds = recording()
        result = run(bench, trace=sink)
        c = capacity_coefficient(100.0)
        final = rounds[-1]
        assert final.iteration == result.iterations_used
        for i, (x, y) in enumerate(zip(final.x, final.u_prime)):
            assert y == pytest.approx(derivative(bench.omegas[i], c, 0.01, x), rel=1e-9)

    def test_single_device_settles_at_confirmed_demand(self):
        scenario = make_scenario(omegas=(1.0,), demands=(3.0,), edges=())
        result = run(scenario)
        assert result.converged
        assert result.allocations == (3.0,)
        assert result.iterations_used == 0

    def test_identical_devices_split_evenly(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        scenario = make_scenario(
            omegas=(2.0,) * 4,
            demands=(1.25,) * 4,
            edges=edges,
            init_mode="seeded-random",
            seed=5,
        )
        result = run(scenario)
        assert result.converged
        assert result.allocations == pytest.approx((1.25,) * 4, abs=1e-5)

    def test_under_capacity_total_tracks_confirmed_total(self):
        scenario = make_scenario(
            omegas=(1.0, 2.0), demands=(1.0, 1.0), edges=((0, 1),)
        )
        result = run(scenario)
        assert result.converged
        assert math.fsum(result.allocations) == pytest.approx(2.0, abs=1e-6)

    def test_matches_oracle_when_converged(self):
        from bandalloc.scenario import generate_random_scenario

        scenario = generate_random_scenario(6, seed=5)
        result = run(scenario)
        assert result.converged
        confirmed = admit(scenario.demands, scenario.globals.bandwidth)
        solution = solve(scenario, confirmed)
        gate = 10.0 * (
            scenario.options.tol_consensus + scenario.options.tol_constraint
        )
        for got, want in zip(result.allocations, solution.allocations):
            assert abs(got - want) <= gate

    def test_deterministic_traces(self, bench):
        sink, first_rounds = recording()
        first = run(bench, trace=sink)
        sink, second_rounds = recording()
        second = run(bench, trace=sink)
        assert first_rounds == second_rounds
        assert first.allocations == second.allocations

    def test_trace_empty_unless_requested(self, bench):
        assert run(bench).trace == ()
        sink, rounds = recording()
        result = run(bench, trace=sink)
        iterations = [state.iteration for state in rounds]
        assert iterations == list(range(result.iterations_used + 1))
        assert result.trace == tuple(iterations)

    def test_trace_stride_keeps_final_iteration(self, bench):
        sink, rounds = recording()
        result = run(bench, trace=sink, trace_stride=10)
        recorded = [state.iteration for state in rounds]
        assert recorded[0] == 0
        assert recorded[-1] == result.iterations_used
        assert recorded == sorted(set(recorded))
        assert all(k % 10 == 0 for k in recorded[:-1])
        assert all(len(field) == 3 for state in rounds for field in vectors(state))
        assert result.trace == tuple(recorded)

    def test_bad_stride_rejected(self, bench):
        with pytest.raises(ValueError, match="trace_stride"):
            run(bench, trace=recording()[0], trace_stride=0)

    def test_correction_sum_conserved(self):
        scenario = bench_scenario(
            max_iters=1000, tol_consensus=1e-300, tol_constraint=1e-300
        )
        sink, rounds = recording()
        result = run(scenario, trace=sink)
        assert not result.converged
        assert len(rounds) == 1001
        for state in rounds:
            assert abs(math.fsum(state.zeta)) <= 1e-10, f"iteration {state.iteration}"

    def test_zero_demand_short_circuit(self):
        scenario = make_scenario(
            omegas=(1.0, 2.0), demands=(0.0, 0.0), edges=((0, 1),)
        )
        result = run(scenario)
        assert result.converged
        assert result.allocations == (0.0, 0.0)
        assert result.iterations_used == 0
        assert math.isnan(result.consensus_value)
        assert result.diagnostics.consensus_residual == 0.0
        assert result.diagnostics.constraint_residual == 0.0
        assert any("zero" in w for w in result.diagnostics.warnings)
        assert result.trace == ()
        sink, rounds = recording()
        assert run(scenario, trace=sink, trace_stride=5).trace == (0,)
        (only,) = rounds
        assert only.iteration == 0
        assert only.x == only.zeta == only.q == (0.0, 0.0)

    def test_negative_final_allocation_warns(self):
        scenario = make_scenario(
            omegas=(0.01, 5.0), demands=(0.0, 3.0), edges=((0, 1),), bandwidth=3.0
        )
        result = run(scenario)
        assert result.converged
        assert result.allocations[0] < 0.0
        assert any("device(s) 0" in w for w in result.diagnostics.warnings)
        solution = solve(scenario, admit(scenario.demands, 3.0))
        assert result.allocations == pytest.approx(solution.allocations, abs=2e-5)

    def test_unstable_gain_raises_numerical_error(self):
        scenario = bench_scenario()
        unstable = dataclasses.replace(
            scenario, globals=dataclasses.replace(scenario.globals, eta=50.0)
        )
        with pytest.raises(NumericalError) as excinfo:
            run(unstable)
        assert excinfo.value.iteration > 0
        assert 0 <= excinfo.value.device < 3

    def test_slow_divergence_aborts_with_suggestion(self):
        scenario = bench_scenario()
        shaky = dataclasses.replace(
            scenario, globals=dataclasses.replace(scenario.globals, eta=1.0)
        )
        result = run(shaky)
        assert not result.converged
        assert result.diagnostics.diverged
        assert result.iterations_used < scenario.options.max_iters
        assert any("reduce eta and mu" in w for w in result.diagnostics.warnings)


def run_on(kernel: str, scenario, monkeypatch, **kwargs):
    """``run`` with the round kernel forced: "scalar" (step) or "array" (numpy)."""
    threshold = 1 if kernel == "array" else sys.maxsize
    monkeypatch.setattr(engine, "ARRAY_MIN_DEVICES", threshold)
    return run(scenario, **kwargs)


def outcome(kernel: str, scenario, monkeypatch):
    """(stop reason, iterations, result): numerical failures as their message."""
    try:
        result = run_on(kernel, scenario, monkeypatch)
    except NumericalError as exc:
        return f"numerical: {exc}", exc.iteration, None
    if result.converged:
        stop = "converged"
    elif result.diagnostics.diverged:
        stop = "diverged"
    else:
        stop = "cap"
    return stop, result.iterations_used, result


@pytest.mark.parametrize("kernel", ["scalar", "array"])
def test_final_allocation_outside_domain_raises(kernel, monkeypatch):
    # device 1 settles at x = -1/c, where c*x + 1 == 0 and its utility is undefined;
    # the residuals stay flat, so the run reaches the cap without diverging
    if kernel == "array":
        pytest.importorskip("numpy")
    scenario = make_scenario(
        omegas=(1e150, 1e-300), demands=(0.0, 1.0), edges=((0, 1),),
        bandwidth=1.0, snr=1.0, price=1.0,
    )
    with pytest.raises(NumericalError) as excinfo:
        run_on(kernel, scenario, monkeypatch)
    assert (excinfo.value.iteration, excinfo.value.device) == (10000, 1)
    assert str(excinfo.value) == (
        "allocation -1.0 outside the utility domain at iteration 10000, device 1"
    )


def with_eta(scenario, eta: float):
    return dataclasses.replace(scenario, globals=dataclasses.replace(scenario.globals, eta=eta))


def stable_eta(scenario) -> float:
    """1/λmax of the graph Laplacian, a gain the engine converges with."""
    np = pytest.importorskip("numpy")
    laplacian = np.zeros((scenario.n, scenario.n))
    for i, j in scenario.edges:
        laplacian[i, j] = laplacian[j, i] = -1.0
        laplacian[i, i] += 1.0
        laplacian[j, j] += 1.0
    return 1.0 / float(np.linalg.eigvalsh(laplacian)[-1])


def parity_scenarios():
    """Criterion 2's 51 scenarios, then n in {30, 60, 200} under both gains."""
    yield "bench", bench_scenario()
    for seed in range(1, 51):
        yield f"criterion-2 seed {seed}", generated_scenario(seed)
    for n in (30, 60, 200):
        for seed in range(1, 11):
            scenario = generate_random_scenario(n, seed)
            yield f"n={n} seed {seed}", scenario
            yield f"n={n} seed {seed} eta=1/lambda_max", with_eta(scenario, stable_eta(scenario))


def failure(exc: NumericalError) -> tuple:
    return ("numerical", exc.iteration, exc.device, str(exc))


def initial_state(scenario) -> EngineState:
    return init(scenario, admit(scenario.demands, scenario.globals.bandwidth))


def round_state(fields, iteration: int, confirmed) -> EngineState:
    """A kernel round's ``(x, u_prime, zeta, q)``, lists or arrays, as an :class:`EngineState`."""
    return EngineState(*(tuple(engine._listed(field)) for field in fields), iteration, confirmed)


def kernel_rounds(scenario, k: int) -> list:
    """Up to ``k`` rounds of the run's scalar kernel from ``init``.

    One entry per round, its residuals and state, then the
    ``NumericalError`` that ended the rounds early, if one did.
    """
    # the kernel run picks for this scenario
    assert engine.array_kernel_for(scenario.n) is None, scenario.n
    state = initial_state(scenario)
    rounds = engine._scalar_rounds(state, scenario)
    out = []
    try:
        for iteration in range(1, k + 1):
            cons, constr, bound, fields = next(rounds)
            assert all(type(field) is list for field in fields)
            # the scalar kernel's residuals are exact
            assert bound == 0.0
            out.append(((cons, constr), round_state(fields, iteration, state.confirmed)))
    except NumericalError as exc:
        out.append(failure(exc))
    return out


def stepped_rounds(scenario, k: int, advance=step) -> list:
    """``kernel_rounds`` by ``k`` chained calls of ``advance``."""
    state = initial_state(scenario)
    out = []
    try:
        for _ in range(k):
            state = advance(state, scenario)
            out.append(((consensus_residual(state), constraint_residual(state)), state))
    except NumericalError as exc:
        out.append(failure(exc))
    return out


def kernel_parity_scenarios():
    yield pytest.param(parse_scenario(BENCH_PATH.read_text()), id="paper_s5")
    for n in (1, 2, 5, 8, 15, 20, 60):
        for seed in (1, 2, 3):
            yield pytest.param(generate_random_scenario(n, seed), id=f"n={n}-seed={seed}")


class TestScalarKernel:
    """The run's scalar kernel against chained ``step`` calls, bit for bit."""

    @pytest.fixture(autouse=True)
    def _scalar_at_every_size(self, monkeypatch):
        # without numpy, or below the threshold, the scalar kernel runs
        monkeypatch.setattr(engine, "ARRAY_MIN_DEVICES", sys.maxsize)

    @pytest.mark.parametrize("scenario", list(kernel_parity_scenarios()))
    def test_rounds_match_chained_step(self, scenario):
        lean = kernel_rounds(scenario, 150)
        assert len(lean) == 150
        assert lean == stepped_rounds(scenario, 150)
        # step runs the kernel's round: check both against the two-phase reference
        assert lean == stepped_rounds(scenario, 150, reference_step)

    def test_numerical_failure_matches_step(self):
        unstable = with_eta(parse_scenario(BENCH_PATH.read_text()), 50.0)
        lean = kernel_rounds(unstable, 150)
        assert lean == stepped_rounds(unstable, 150)
        assert lean[-1][0] == "numerical"
        with pytest.raises(NumericalError) as excinfo:
            run(unstable)
        assert failure(excinfo.value) == lean[-1]

    def test_domain_failure_matches_step(self):
        # device 1 ends at x = -1/c; run rejects it after its last round
        scenario = make_scenario(
            omegas=(1e150, 1e-300), demands=(0.0, 1.0), edges=((0, 1),),
            bandwidth=1.0, snr=1.0, price=1.0,
        )
        k = scenario.options.max_iters
        lean, stepped = kernel_rounds(scenario, k), stepped_rounds(scenario, k)
        assert lean == stepped
        errors = []
        for rounds in (lean, stepped):
            with pytest.raises(NumericalError) as excinfo:
                engine._check_domain(rounds[-1][1], capacity_coefficient(scenario.globals.snr))
            errors.append(failure(excinfo.value))
        with pytest.raises(NumericalError) as excinfo:
            run(scenario)
        assert errors == [failure(excinfo.value)] * 2
        assert errors[0][1:3] == (k, 1)

    def test_columns_hand_over_lists_uncopied(self, bench, monkeypatch):
        rounds = engine._scalar_rounds(initial_state(bench), bench)
        first = next(rounds)[3]
        assert all(type(field) is list for field in first)
        kept = [tuple(field) for field in first]
        # a round makes new lists; those handed over keep their values
        assert all(a is not b for a, b in zip(first, next(rounds)[3]))
        assert [tuple(field) for field in first] == kept
        # run hands the kernel's lists to the trace sink as they are
        drawn, traced = [], []
        real = engine._scalar_rounds

        def recorded_rounds(*args):
            for drawn_round in real(*args):
                drawn.append(drawn_round[3])
                yield drawn_round

        monkeypatch.setattr(engine, "_scalar_rounds", recorded_rounds)
        result = run(bench, trace=lambda k, *fields: traced.append(fields))
        assert len(drawn) == result.iterations_used == len(traced) - 1
        assert all(a is b for pair in zip(drawn, traced[1:]) for a, b in zip(*pair))


def round_kernels() -> list[str]:
    """The round kernels that can run here: the scalar one, and numpy's when it imports."""
    return ["scalar"] + (["array"] if engine.array_kernel_for(sys.maxsize) is not None else [])


def reference_round(state, scenario):
    """``reference_step``'s round, the device whose square overflowed in it,
    or the exception another inverse raised."""
    try:
        return reference_step(state, scenario)
    except OverflowError as exc:
        return exc.args[0]
    except ArithmeticError as exc:
        return exc


DIVIDING_PRICE = 2.0**-600


def dividing_by_zero(omegas=(1e-200,), **kwargs):
    """Devices at snr 1 and price 2**-600, and a state at u' = -2*price, where
    round 1's inverse of a device of omega 1e-200 divides by zero:
    ``2*price + v*c``, ``t*t`` and the discriminant all round to 0.0.

    ``mu`` is 1e-300 unless given, so that the round keeps u' bit for bit, and
    x is off its target, so that a run does not stop at round 0.
    """
    n = len(omegas)
    scenario = make_scenario(
        omegas=omegas, demands=(1.0,) * n, edges=tuple((k, k + 1) for k in range(n - 1)),
        snr=1.0, price=DIVIDING_PRICE, **{"mu": 1e-300, **kwargs},
    )
    state = initial_state(scenario)
    return scenario, dataclasses.replace(
        state, x=(0.5,) * n, u_prime=(-2.0 * DIVIDING_PRICE,) * n
    )


def failing_rounds():
    """Round-1 states that fail by each of the per-device checks, the failure
    they name, and what ``reference_step`` computes for them."""
    pair = make_scenario(omegas=(1.0, 1.0), demands=(1.0, 1.0), edges=((0, 1),), eta=10.0)
    state = dataclasses.replace(initial_state(pair), u_prime=(0.0, 1e308))
    yield pytest.param(
        pair, state, "non-finite value at iteration 1, device 0",
        lambda ref: ref.u_prime[0] == math.inf, id="u_prime",
    )
    # zeta' = 1e300 - 1e10 * 1e300 overflows while u' and x stay finite
    pair = make_scenario(
        omegas=(1.0, 1.0), demands=(1.0, 1.0), edges=((0, 1),), mu=1e10, eta=1.0
    )
    state = dataclasses.replace(initial_state(pair), u_prime=(0.0, 1e300), zeta=(1e300, 0.0))
    yield pytest.param(
        pair, state, "non-finite value at iteration 1, device 0",
        lambda ref: ref.zeta[0] == -math.inf and all(map(math.isfinite, ref.u_prime + ref.x)),
        id="zeta",
    )
    # c = 1: device 2's t = 1 - u' is finite and its square overflows; its x
    # comes out finite (-0.0), so only the square shows the failure
    line = make_scenario(
        omegas=(3.0, 8.0, 0.7, 2.0, 1.5), demands=(1.0, 2.0, 0.5, 1.0, 0.5),
        edges=((0, 1), (1, 2), (2, 3), (3, 4)), snr=1.0, price=0.5,
    )
    state = state_from_values(line, [-1.0] * 5)
    state = dataclasses.replace(
        state, x=state.confirmed.values, u_prime=(0.5, 1.0, 3e154, 2.0, 0.0)
    )
    yield pytest.param(
        line, state, "arithmetic overflow at iteration 1, device 2", lambda ref: ref == 2,
        id="square",
    )
    # device 0's t*t = 1.44e308 is finite, its discriminant adds 8e307 and is
    # not; device 2's x is off its target, so that run does not stop at round 0
    heavy = make_scenario(
        omegas=(2e307, 1.0, 1.0), demands=(1.0,) * 3, edges=((0, 1), (1, 2)),
        snr=1.0, price=0.5, eta=1e-300,
    )
    state = state_from_values(heavy, [1.0 - 1.2e154] * 3)
    state = dataclasses.replace(state, x=(1.0, 1.0, 2.0))
    yield pytest.param(
        heavy, state, "non-finite value at iteration 1, device 0",
        lambda ref: ref.x[0] == math.inf and all(map(math.isfinite, ref.u_prime)),
        id="discriminant",
    )
    # device 2's square overflows too, a check before the one device 0 fails:
    # the earlier device is named
    yield pytest.param(
        heavy, dataclasses.replace(state, u_prime=(*state.u_prime[:2], -3e154)),
        "non-finite value at iteration 1, device 0", lambda ref: ref == 2, id="later-device",
    )
    # device 0's zeta' = 1e300 - 1e10 * 1e300 overflows, and its u' stays at
    # -2*price, where its inverse divides by zero: the zeta' check comes first
    pair, state = dividing_by_zero((1e-200, 1.0), mu=1e10, eta=1.0)
    yield pytest.param(
        pair,
        dataclasses.replace(
            state, x=state.confirmed.values, u_prime=(state.u_prime[0], 1e300), zeta=(1e300, 0.0)
        ),
        "non-finite value at iteration 1, device 0",
        lambda ref: isinstance(ref, ZeroDivisionError), id="raising-inverse",
    )


class TestRoundCheck:
    """The scalar round's one finiteness check per round, and the scan that
    names a failure device by device, on ``step``, on ``run`` and through the
    array kernel's hand-off of a flagged round."""

    @pytest.mark.parametrize("scenario, state, want, reference", failing_rounds())
    def test_first_failing_device_named(
        self, monkeypatch, scenario, state, want, reference
    ):
        assert reference(reference_round(state, scenario))
        with pytest.raises(NumericalError) as got:
            step(state, scenario)
        assert failure(got.value) == ("numerical", 1, int(want.rsplit(" ", 1)[1]), want)
        monkeypatch.setattr(engine, "init", lambda *args: state)
        for kernel in round_kernels():
            with pytest.raises(NumericalError) as got:
                run_on(kernel, scenario, monkeypatch)
            assert str(got.value) == want, kernel
        if "array" in round_kernels():
            from bandalloc import array_kernel

            handed, scalar_rounds = [], engine._scalar_rounds
            monkeypatch.setattr(
                engine, "_scalar_rounds", lambda *a: handed.append(a) or scalar_rounds(*a)
            )
            with pytest.raises(NumericalError) as got:
                next(array_kernel.rounds(state, scenario))
            assert str(got.value) == want
            assert handed == [(state, scenario)]

    @pytest.mark.parametrize("omegas", [(1e-200,), (1.0, 1e-200)], ids=["alone", "second"])
    def test_division_by_zero_without_failure_is_named(self, monkeypatch, omegas):
        # every value up to the last device's inverse is finite, so the scan
        # finds no failure, and the division by zero the reference raises is
        # named by its round and device
        scenario, state = dividing_by_zero(omegas)
        device = len(omegas) - 1
        assert isinstance(reference_round(state, scenario), ZeroDivisionError)
        want = ("numerical", 1, device, f"division by zero at iteration 1, device {device}")
        with pytest.raises(NumericalError) as got:
            step(state, scenario)
        assert failure(got.value) == want
        monkeypatch.setattr(engine, "init", lambda *args: state)
        for kernel in round_kernels():
            with pytest.raises(NumericalError) as got:
                run_on(kernel, scenario, monkeypatch)
            assert failure(got.value) == want, kernel

    def test_false_flag_is_yielded_as_computed(self, monkeypatch):
        # a stationary state at x = 8e307 with zeta = mu*(x - d*) = 8e307: every
        # value is finite, but u' + zeta' + t*t + x summed over a round overflows
        price, rounds = 1e-160, 40
        scenario = make_scenario(
            omegas=(1.0, 1.0), demands=(1.0, 1.0), edges=((0, 1),),
            snr=1.0, price=price, mu=1.0, max_iters=rounds,
        )
        state = stationary_state(scenario, derivative(1.0, 1.0, price, 8e307))
        want = reference_step(state, scenario)
        assert all(map(math.isfinite, want.x + want.u_prime + want.zeta))
        check = 0.0
        for y, zeta, x in zip(want.u_prime, want.zeta, want.x):
            t = 2.0 * price - y  # c = 1
            check += y + zeta + t * t + x
        assert check == math.inf
        assert step(state, scenario) == want
        chained = [state]
        for _ in range(rounds):
            chained.append(reference_step(chained[-1], scenario))
        chained = [(s.iteration, *vectors(s)) for s in chained]
        monkeypatch.setattr(engine, "init", lambda *args: state)
        for kernel in round_kernels():
            sink, recorded = recording()
            result = run_on(kernel, scenario, monkeypatch, trace=sink)
            assert (result.iterations_used, result.converged) == (rounds, False)
            assert recorded == chained, kernel
        if "array" in round_kernels():
            # round 5 flagged: the scalar round runs it, finds no failure and yields it
            poisoned_inverse(monkeypatch, 5)
            handed, scalar_rounds = [], engine._scalar_rounds
            monkeypatch.setattr(
                engine,
                "_scalar_rounds",
                lambda *a: handed.append(a[0].iteration) or scalar_rounds(*a),
            )
            sink, recorded = recording()
            result = run_on("array", scenario, monkeypatch, trace=sink)
            assert handed == [4]
            assert (result.iterations_used, result.converged) == (rounds, False)
            assert recorded == chained


def test_gossip_sums_in_sequence(monkeypatch):
    # neighbor differences on which a sum in sequence gives 0.0, and fsum, or
    # the built-in sum from Python 3.12 on, gives 1.0
    diffs = (1e16, 1.0, -1e16)
    assert (0.0 + diffs[0] + diffs[1]) + diffs[2] == 0.0 and math.fsum(diffs) == 1.0
    scenario = make_scenario(
        omegas=(1.0,) * 4, demands=(1.0,) * 4, edges=((0, 1), (0, 2), (0, 3)), eta=1.0
    )
    state = dataclasses.replace(initial_state(scenario), u_prime=(0.0, *diffs))
    stepped = step(state, scenario)
    assert stepped.q[0] == 0.0
    pytest.importorskip("numpy")
    from bandalloc import array_kernel

    # the array round itself: a flagged round would be run by the scalar round
    monkeypatch.setattr(
        engine, "_scalar_rounds", lambda *a: pytest.fail("array round fell back to scalar")
    )
    fields = next(array_kernel.rounds(state, scenario))[3]
    assert round_state(fields, 1, state.confirmed) == stepped


def poisoned_inverse(monkeypatch, round_: int) -> list:
    """Patch ``array_kernel._inverse`` to overflow the discriminant of device 0 in ``round_``.

    Returns the list of calls, one entry per round computed.
    """
    from bandalloc import array_kernel

    real = array_kernel._inverse
    calls = []

    def inverse(*args, **kwargs):
        x, disc = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == round_:
            disc[0] = math.inf  # in place: the block reads its own buffer
        return x, disc

    monkeypatch.setattr(array_kernel, "_inverse", inverse)
    return calls


class TestArrayKernel:
    """The numpy round against the scalar ``step``, called on both sides."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def test_threshold_picks_kernel(self, monkeypatch):
        # the kernel is chosen by device count alone
        from bandalloc import array_kernel

        seen = []
        real = array_kernel.rounds
        monkeypatch.setattr(
            array_kernel, "rounds", lambda *args: seen.append(args[1].n) or real(*args)
        )
        n = engine.ARRAY_MIN_DEVICES
        run(generate_random_scenario(n - 1, 1))
        run(generate_random_scenario(n, 1))
        assert seen == [n]

    def test_matches_scalar_kernel(self, monkeypatch):
        # equal results: stop reason, rounds, allocations, diagnostics and
        # every NumericalError text
        stops = set()
        for name, scenario in parity_scenarios():
            scalar = outcome("scalar", scenario, monkeypatch)
            assert outcome("array", scenario, monkeypatch) == scalar, name
            stops.add(scalar[0].split(":")[0])
        assert stops == {"converged", "diverged", "numerical"}

    def test_numerical_failure_names_same_round_and_device(self, monkeypatch):
        # inf in the discriminant still yields a finite x, so the square's
        # overflow must be caught on its own
        scenario = generate_random_scenario(20, 14)
        errors = []
        for kernel in ("scalar", "array"):
            with pytest.raises(NumericalError) as excinfo:
                run_on(kernel, scenario, monkeypatch)
            errors.append((excinfo.value.iteration, excinfo.value.device, str(excinfo.value)))
        assert errors[0] == errors[1]
        assert errors[0] == (309, 1, "arithmetic overflow at iteration 309, device 1")

    def test_non_finite_update_names_same_round_and_device(self, monkeypatch):
        # eta 50 on paper_s5 stops in the inverse's overflow check; with eta
        # 1e308, device 1's u' stays finite in round 1 and its x is infinite
        cases = [
            (with_eta(bench_scenario(), 50.0), "arithmetic overflow at iteration 71, device 0"),
            (
                with_eta(generate_random_scenario(20, 1), 1e308),
                "non-finite value at iteration 1, device 1",
            ),
        ]
        for unstable, want in cases:
            errors = []
            for kernel in ("scalar", "array"):
                with pytest.raises(NumericalError) as excinfo:
                    run_on(kernel, unstable, monkeypatch)
                errors.append(str(excinfo.value))
            assert errors == [want, want]

    def test_flagged_round_is_run_by_the_scalar_round(self, monkeypatch):
        # No known input flags a round that the scalar round then finishes, so force one:
        # an infinite discriminant for one device in round 5, patched in before
        # the block holding rounds 1 to 5 is computed.
        from bandalloc import array_kernel

        real = array_kernel._inverse
        scenario = generate_random_scenario(20, 1)
        assert array_kernel.block_rows(scenario.n) > 5
        confirmed = admit(scenario.demands, scenario.globals.bandwidth)
        calls = poisoned_inverse(monkeypatch, 5)
        rounds = array_kernel.rounds(init(scenario, confirmed), scenario)
        for _ in range(4):
            fields = next(rounds)[3]
        assert len(calls) >= 5  # round 5 was computed with round 1, inside one block
        before = round_state(fields, 4, confirmed)
        stepped, scalar_rounds = [], engine._scalar_rounds
        monkeypatch.setattr(
            engine, "_scalar_rounds", lambda *a: stepped.append(a) or scalar_rounds(*a)
        )
        cons, constr, bound, fields = next(rounds)
        assert len(calls) >= 5
        assert stepped == [(before, scenario)]
        # yielded as the scalar round gave it: lists, exact residuals
        assert all(type(field) is list for field in fields) and bound == 0.0
        want = step(before, scenario)
        assert round_state(fields, 5, confirmed) == want
        assert cons == consensus_residual(want)
        assert constr == constraint_residual(want)
        # a whole run goes on from the scalar round's round
        calls.clear()
        forced = run_on("array", scenario, monkeypatch)
        assert len(calls) >= 5
        monkeypatch.setattr(array_kernel, "_inverse", real)
        plain = run_on("array", scenario, monkeypatch)
        assert forced.converged
        assert forced == plain

    def test_trace_stride(self, monkeypatch):
        scenario = with_eta(generate_random_scenario(20, 2), 0.05)
        sink, scalar_rounds = recording()
        scalar = run_on("scalar", scenario, monkeypatch, trace=sink, trace_stride=7)
        sink, array_rounds = recording()
        array = run_on("array", scenario, monkeypatch, trace=sink, trace_stride=7)
        recorded = [state.iteration for state in array_rounds]
        final = array.iterations_used
        assert final % 7 != 0
        assert recorded == [*range(0, final, 7), final]
        assert recorded == [state.iteration for state in scalar_rounds]
        assert array.trace == scalar.trace == tuple(recorded)
        assert array_rounds[-1].x == array.allocations
        assert array_rounds == scalar_rounds
        assert array == scalar
        assert run_on("array", scenario, monkeypatch).trace == ()

    def test_trace_memory_flat_in_rounds(self):
        # a sink that drops its rows leaves run holding one round at a time
        scenario = with_eta(generate_random_scenario(1000, 1), 0.05)

        def capped(rounds: int):
            options = dataclasses.replace(
                scenario.options, max_iters=rounds, tol_consensus=1e-300, tol_constraint=1e-300
            )
            return dataclasses.replace(scenario, options=options)

        def traced_peak(rounds: int) -> int:
            limited = capped(rounds)
            tracemalloc.start()
            try:
                result = run(limited, trace=lambda *row: None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(result.trace) == rounds + 1
            return peak

        run(capped(1))  # imports the kernel outside the measure
        assert traced_peak(2000) <= 1.5 * traced_peak(200)

    def test_inverse_matches_scalar(self):
        import numpy as np

        from bandalloc.array_kernel import inverse_and_slope_for

        rng = random.Random(7)
        for _ in range(20):
            c = capacity_coefficient(rng.uniform(10.0, 500.0))
            price = rng.uniform(0.002, 0.05)
            vs = [rng.uniform(-50.0, 50.0) for _ in range(100)] + [0.0, -2.0 * price / c]
            # a device's own omega, so its omega*c and discriminant constant
            # must stay in line with each other and with its v
            omegas = [rng.uniform(0.5, 5.0) for _ in vs]
            # every value is finite: a call of the scalar fallback would fail
            got = inverse_and_slope_for(omegas, c, price, None)[0](np.array(vs))
            want = [invert_derivative(w, c, price, v) for w, v in zip(omegas, vs)]
            assert got.tolist() == want


class TestBlocks:
    """The array rounds' blocks: their size, their edges and the rounds past a run's end."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def test_block_rows_rule(self):
        from bandalloc.array_kernel import block_rows

        for n in (1, 2, 15, 16, 200, 2047, 2048, 2049, 10**4, 32768, 32769, 10**6):
            rows = block_rows(n)
            assert 1 <= rows <= 16
            assert rows * n <= max(n, 32768)
        assert (block_rows(200), block_rows(10**4), block_rows(10**6)) == (16, 3, 1)

    def test_rounds_across_blocks_match_scalar(self, monkeypatch):
        # three blocks, the second ended early by a flagged round that the
        # scalar round runs; the round before each round is read from its
        # buffer set only after the next round was drawn, the next block
        # included, as run's divergence streak reads it
        from bandalloc import array_kernel

        scenario = generate_random_scenario(60, 2)
        rows = array_kernel.block_rows(scenario.n)
        monkeypatch.setattr(engine, "ARRAY_MIN_DEVICES", sys.maxsize)
        scalar = kernel_rounds(scenario, 3 * rows)
        assert len(scalar) == 3 * rows and scalar[-1][0] != "numerical"
        poisoned_inverse(monkeypatch, rows + 3)
        stepped, scalar_rounds = [], engine._scalar_rounds
        monkeypatch.setattr(
            engine,
            "_scalar_rounds",
            lambda *a: stepped.append(a[0].iteration) or scalar_rounds(*a),
        )
        state = initial_state(scenario)
        rounds = array_kernel.rounds(state, scenario)
        before = (consensus_residual(state), constraint_residual(state))
        before_fields = vectors(state)
        for residuals, state in scalar:
            got_cons, got_constr, bound, fields = next(rounds)
            prior = round_state(before_fields, state.iteration - 1, state.confirmed)
            assert (consensus_residual(prior), constraint_residual(prior)) == before
            assert round_state(fields, state.iteration, state.confirmed) == state
            assert got_cons == residuals[0]
            assert abs(got_constr - residuals[1]) <= bound
            before, before_fields = residuals, fields
        assert stepped == [rows + 2]

    @pytest.mark.parametrize("stop", ["converged", "diverged", "cap"])
    def test_rounds_past_the_stop_never_raise(self, monkeypatch, stop):
        # one block holds the run's last round and the next one, which overflows:
        # run never asks for that round, so the scalar round never runs and
        # nothing raises;
        # at max_iters the block ends, and the next round is not computed at all
        from bandalloc import array_kernel

        if stop == "diverged":
            scenario = generate_random_scenario(60, 1)
        else:
            scenario = generate_random_scenario(20, 1)
        if stop == "cap":
            options = dataclasses.replace(scenario.options, max_iters=50)
            scenario = dataclasses.replace(scenario, options=options)
        want = outcome("scalar", scenario, monkeypatch)
        assert want[0] == stop
        k = want[1]
        calls = poisoned_inverse(monkeypatch, k + 1)
        monkeypatch.setattr(array_kernel, "block_rows", lambda n: k + 1)
        monkeypatch.setattr(
            engine, "_scalar_rounds", lambda *a: pytest.fail("scalar ran a round past the stop")
        )
        assert outcome("array", scenario, monkeypatch) == want
        assert len(calls) == (k if stop == "cap" else k + 1)


def with_tol_constraint(scenario, tol: float):
    options = dataclasses.replace(scenario.options, tol_constraint=tol)
    return dataclasses.replace(scenario, options=options)


class TestCheapDecisions:
    """The array round's stop test and divergence streak, from numpy sums and a bound."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    @pytest.fixture
    def tight(self):
        """A run whose ``tol_constraint`` is the exact residual at the round it stops.

        Returns the scenario, that round, and its exact residual.
        """
        scenario = with_eta(generate_random_scenario(200, 1), 0.08)
        total = admit(scenario.demands, scenario.globals.bandwidth).total
        rounds = []

        def sink(k, x, u, zeta, q):
            rounds.append((k, max(u) - min(u), abs(math.fsum(x) - total)))

        run(scenario, trace=sink)
        k, _, residual = next(r for r in rounds if r[1] <= scenario.options.tol_consensus)
        return with_tol_constraint(scenario, residual), k, residual

    def test_fsum_deciding_every_round_changes_nothing(self, monkeypatch, tight):
        from bandalloc import array_kernel

        scenarios = [scenario for _, scenario in parity_scenarios()] + [tight[0]]
        cheap = [outcome("array", scenario, monkeypatch) for scenario in scenarios]
        # an infinite bound in every round: math.fsum decides each comparison
        real = array_kernel.rounds

        def unbounded(*args):
            for cons, constr, _, fields in real(*args):
                yield cons, constr, math.inf, fields

        monkeypatch.setattr(array_kernel, "rounds", unbounded)
        exact = [outcome("array", scenario, monkeypatch) for scenario in scenarios]
        assert cheap == exact
        assert {stop.split(":")[0] for stop, _, _ in cheap} == {
            "converged", "diverged", "numerical"
        }

    def test_fsum_runs_only_inside_the_bound(self, monkeypatch, tight):
        from bandalloc import array_kernel

        scenario, k, residual = tight
        returned, sums = [], []  # the residuals of each round drawn; the round of each fsum call
        real_rounds, real_fsum = array_kernel.rounds, math.fsum

        def recorded_rounds(*args):
            for drawn in real_rounds(*args):
                returned.append(drawn[:3])
                yield drawn

        monkeypatch.setattr(array_kernel, "rounds", recorded_rounds)

        def counted_fsum(xs):
            if returned:  # admission's sums come before the first round
                sums.append(len(returned))
            return real_fsum(xs)

        monkeypatch.setattr(math, "fsum", counted_fsum)
        # the default tolerance: every decision falls outside the bound, and
        # the report sums the final allocations and marginal utilities once
        plain = run_on("array", with_tol_constraint(scenario, 1e-6), monkeypatch)
        assert plain.converged and sums == [plain.iterations_used] * 2
        # the stop test at round k compares the residual with itself: fsum decides it
        returned.clear()
        sums.clear()
        result = run_on("array", scenario, monkeypatch)
        assert result.converged and result.iterations_used == k
        assert result.diagnostics.constraint_residual == residual
        cons, constr, bound = returned[k - 1]
        assert cons <= scenario.options.tol_consensus
        assert abs(constr - residual) <= bound
        assert sums == [k] * 3

    def test_stop_on_a_blocks_first_round(self, monkeypatch, tight):
        # fsum decides the stop test at round k, which opens the second block
        from bandalloc import array_kernel

        scenario, k, residual = tight
        want = outcome("scalar", scenario, monkeypatch)
        monkeypatch.setattr(array_kernel, "block_rows", lambda n: k - 1)
        got = outcome("array", scenario, monkeypatch)
        assert got == want
        assert got[:2] == ("converged", k)
        assert got[2].diagnostics.constraint_residual == residual

    def test_fsum_at_most_once_per_round(self, monkeypatch):
        # a stalled run, where most streak comparisons fall inside the bound and
        # need the exact residuals of a round and of the round before: each
        # round's is summed once, and serves both comparisons that read it
        from bandalloc import array_kernel

        scenario = with_eta(generate_random_scenario(200, 1), 0.05)
        options = dataclasses.replace(
            scenario.options, max_iters=3000, tol_consensus=1e-300, tol_constraint=1e-300
        )
        stalled = dataclasses.replace(scenario, options=options)
        drawn, sums = [0], []  # rounds drawn so far; that count at each fsum call
        real_rounds, real_fsum = array_kernel.rounds, math.fsum

        def counted_rounds(*args):
            for round_ in real_rounds(*args):
                drawn[0] += 1
                yield round_

        monkeypatch.setattr(array_kernel, "rounds", counted_rounds)
        monkeypatch.setattr(math, "fsum", lambda xs: sums.append(drawn[0]) or real_fsum(xs))
        result = run_on("array", stalled, monkeypatch)
        k = result.iterations_used
        assert (k, result.converged, result.diagnostics.diverged) == (3000, False, False)
        # admission's and init's sums come first, the report's two last
        in_rounds = [r for r in sums if r][:-2]
        assert sums[-2:] == [k, k] and len(in_rounds) > 2000
        # by round r, at most r sums: the residuals of rounds 1 to r, each once
        assert all(i < r for i, r in enumerate(in_rounds))


def test_exceeds_allows_for_the_rounding_of_sums():
    # cheap and exact constraint residuals 2**-80 apart, well within the
    # bound, whose sums with a consensus residual of 1 round to neighbors:
    # the cheap sum grew by an ulp, the exact one did not grow
    cons, exact, cheap, bound = 1.0, 2.0**-53, 2.0**-53 + 2.0**-80, 2.0**-70
    assert (cons + exact, cons + cheap) == (1.0, 1.0 + 2.0**-52)
    assert not engine._exceeds(cons + cheap, 1.0, bound, lambda: (cons + exact, 1.0))
    assert engine._exceeds(cons + cheap, 1.0, 0.0, None)  # exact operands compare directly
