"""Engine behavior: initialization, single rounds, full runs, divergence."""

from __future__ import annotations

import dataclasses
import math
import random
import sys

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
from bandalloc.scenario import generate_random_scenario
from bandalloc.topology import build
from bandalloc.utility import capacity_coefficient, derivative, invert_derivative

from conftest import bench_scenario, generated_scenario, make_scenario

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
    topo = build(scenario.n, scenario.edges)
    ys, xs, zs = state.u_prime, state.x, state.zeta
    dstar = state.confirmed.values
    out = []
    for i in range(scenario.n):
        q = g.eta * math.fsum(ys[j] - ys[i] for j in topo.neighbors(i))
        u_new = ys[i] + (q - zs[i] + g.mu * (xs[i] - dstar[i]))
        zeta = zs[i] - g.mu * q
        x = invert_derivative(scenario.omegas[i], c, g.price, u_new)
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
        result = run(bench, trace_stride=1)
        c = capacity_coefficient(100.0)
        final = result.trace[-1]
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
        first = run(bench, trace_stride=1)
        second = run(bench, trace_stride=1)
        assert first.trace == second.trace
        assert first.allocations == second.allocations

    def test_trace_empty_unless_requested(self, bench):
        assert run(bench).trace == ()
        result = run(bench, trace_stride=1)
        iterations = [state.iteration for state in result.trace]
        assert iterations == list(range(result.iterations_used + 1))

    def test_trace_stride_keeps_final_iteration(self, bench):
        result = run(bench, trace_stride=10)
        recorded = [state.iteration for state in result.trace]
        assert recorded[0] == 0
        assert recorded[-1] == result.iterations_used
        assert recorded == sorted(set(recorded))
        assert all(k % 10 == 0 for k in recorded[:-1])
        assert all(len(field) == 3 for state in result.trace for field in vectors(state))

    def test_bad_stride_rejected(self, bench):
        with pytest.raises(ValueError, match="trace_stride"):
            run(bench, trace_stride=0)

    def test_correction_sum_conserved(self):
        scenario = bench_scenario(
            max_iters=1000, tol_consensus=1e-300, tol_constraint=1e-300
        )
        result = run(scenario, trace_stride=1)
        assert not result.converged
        assert len(result.trace) == 1001
        for state in result.trace:
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
        (only,) = run(scenario, trace_stride=5).trace
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


class TestArrayKernel:
    """The numpy round against the scalar ``step``, called on both sides."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def test_threshold_picks_kernel(self, monkeypatch):
        # the kernel is chosen by device count alone
        from bandalloc import array_kernel

        seen = []
        real = array_kernel.ArrayRounds
        monkeypatch.setattr(
            array_kernel, "ArrayRounds", lambda *args: seen.append(args[1].n) or real(*args)
        )
        n = engine.ARRAY_MIN_DEVICES
        run(generate_random_scenario(n - 1, 1))
        run(generate_random_scenario(n, 1))
        assert seen == [n]

    def test_matches_scalar_kernel(self, monkeypatch):
        # Not bitwise: gossip sums in sequence where step uses fsum, and the
        # square is t*t where step calls pow. Stop reason and round count
        # must agree exactly, allocations to 1e-12 wherever the run ended
        # on its own terms.
        stops = set()
        for name, scenario in parity_scenarios():
            scalar = outcome("scalar", scenario, monkeypatch)
            array = outcome("array", scenario, monkeypatch)
            assert array[:2] == scalar[:2], name
            stops.add(scalar[0].split(":")[0])
            if scalar[0] in ("converged", "cap"):
                gap = max(
                    abs(a - b) for a, b in zip(array[2].allocations, scalar[2].allocations)
                )
                assert gap <= 1e-12, name
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
        unstable = with_eta(bench_scenario(), 50.0)
        errors = []
        for kernel in ("scalar", "array"):
            with pytest.raises(NumericalError) as excinfo:
                run_on(kernel, unstable, monkeypatch)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_trace_stride(self, monkeypatch):
        scenario = with_eta(generate_random_scenario(20, 2), 0.05)
        scalar = run_on("scalar", scenario, monkeypatch, trace_stride=7)
        array = run_on("array", scenario, monkeypatch, trace_stride=7)
        recorded = [state.iteration for state in array.trace]
        final = array.iterations_used
        assert final % 7 != 0
        assert recorded == [*range(0, final, 7), final]
        assert recorded == [state.iteration for state in scalar.trace]
        assert array.trace[-1].x == array.allocations
        for got, want in zip(array.trace, scalar.trace):
            for a, b in zip(vectors(got), vectors(want)):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
        assert run_on("array", scenario, monkeypatch).trace == ()

    def test_inverse_matches_scalar(self):
        from bandalloc.array_kernel import invert_derivative as array_inverse

        rng = random.Random(7)
        for _ in range(20):
            omega = rng.uniform(0.5, 5.0)
            c = capacity_coefficient(rng.uniform(10.0, 500.0))
            price = rng.uniform(0.002, 0.05)
            vs = [rng.uniform(-50.0, 50.0) for _ in range(100)] + [0.0, -2.0 * price / c]
            got = array_inverse([omega] * len(vs), c, price, vs)
            want = [invert_derivative(omega, c, price, v) for v in vs]
            assert got.tolist() == pytest.approx(want, rel=1e-15, abs=1e-15)
