"""Centralized solver against frozen constants, scipy, and KKT checks."""

from __future__ import annotations

import fractions
import inspect
import math
import random
import sys
import warnings

import mpmath
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from bandalloc import engine, oracle
from bandalloc.admission import admit
from bandalloc.oracle import objective, solve
from bandalloc.scenario import Globals, ScenarioError, generate_random_scenario
from bandalloc.utility import capacity_coefficient, derivative, evaluate, invert_derivative

from conftest import bench_scenario, generated_scenario, kernel_thresholds, make_scenario

mpmath.mp.dps = 50

# bisection results for the bundled benchmark, pinned after first computation
LAMBDA_STAR = 1.0617333318953706
X_STAR = (0.77806075757325, 1.67587523008504, 2.54606401234172)
OBJECTIVE_AT_DEMANDS = 15.252815155685014
OBJECTIVE_AT_OPTIMUM = 15.38160707843759


def slsqp_reference(scenario, confirmed):
    """Independent welfare maximizer over the equality constraint."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    target = confirmed.total

    def negated_welfare(xs):
        return -math.fsum(
            evaluate(w, c, g.price, float(x)) for w, x in zip(scenario.omegas, xs)
        )

    result = minimize(
        negated_welfare,
        x0=list(confirmed.values),
        method="SLSQP",
        bounds=[(-1.0 / c + 1e-6, None)] * scenario.n,
        constraints=[{"type": "eq", "fun": lambda xs: math.fsum(xs) - target}],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert result.success, result.message
    return tuple(float(v) for v in result.x)


class TestSolveBenchmark:
    def test_matches_pinned_constants(self, bench):
        solution = solve(bench, admit(bench.demands, 5.0))
        assert solution.lam == pytest.approx(LAMBDA_STAR, abs=1e-11)
        assert solution.allocations == pytest.approx(X_STAR, abs=1e-9)
        assert solution.allocations == pytest.approx((0.78, 1.67, 2.55), abs=0.01)

    def test_equal_marginals_at_optimum(self, bench):
        solution = solve(bench, admit(bench.demands, 5.0))
        c = capacity_coefficient(100.0)
        for w, x in zip(bench.omegas, solution.allocations):
            assert abs(derivative(w, c, 0.01, x) - solution.lam) <= 1e-9

    def test_constraint_residual(self, bench):
        confirmed = admit(bench.demands, 5.0)
        solution = solve(bench, confirmed)
        total = math.fsum(solution.allocations)
        assert abs(total - confirmed.total) <= 1e-10 * max(1.0, confirmed.total)

    def test_matches_slsqp(self, bench):
        confirmed = admit(bench.demands, 5.0)
        solution = solve(bench, confirmed)
        want = slsqp_reference(bench, confirmed)
        assert solution.allocations == pytest.approx(want, abs=1e-5)


class TestSolveGeneral:
    def test_symmetric_devices_split_evenly(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        scenario = make_scenario(
            omegas=(2.0,) * 4, demands=(1.25,) * 4, edges=edges, bandwidth=5.0
        )
        solution = solve(scenario, admit(scenario.demands, 5.0))
        assert solution.allocations == pytest.approx((1.25,) * 4, abs=1e-9)
        assert len(set(solution.allocations)) == 1

    def test_generated_scenario_against_slsqp(self):
        scenario = generate_random_scenario(7, seed=3)
        confirmed = admit(scenario.demands, scenario.globals.bandwidth)
        solution = solve(scenario, confirmed)
        want = slsqp_reference(scenario, confirmed)
        assert solution.allocations == pytest.approx(want, abs=1e-5)

    def test_under_capacity_keeps_confirmed_total(self):
        scenario = make_scenario(
            omegas=(1.0, 2.0), demands=(1.0, 1.0), edges=((0, 1),)
        )
        confirmed = admit(scenario.demands, 5.0)
        solution = solve(scenario, confirmed)
        assert math.fsum(solution.allocations) == pytest.approx(2.0, abs=1e-10)

    def test_negative_coordinate_possible(self):
        scenario = make_scenario(
            omegas=(0.01, 5.0), demands=(0.0, 3.0), edges=((0, 1),), bandwidth=3.0
        )
        solution = solve(scenario, admit(scenario.demands, 3.0))
        assert solution.allocations[0] < 0.0
        assert math.fsum(solution.allocations) == pytest.approx(3.0, abs=1e-9)

    def test_zero_demand_degenerate(self):
        scenario = make_scenario(
            omegas=(1.0, 2.0), demands=(0.0, 0.0), edges=((0, 1),)
        )
        solution = solve(scenario, admit(scenario.demands, 5.0))
        assert solution.allocations == (0.0, 0.0)
        assert solution.lam is None
        assert solution.objective == 0.0

    def test_confirmed_length_mismatch(self, bench):
        with pytest.raises(ValueError, match="does not match"):
            solve(bench, admit((1.0,), 5.0))

    def test_bisection_map_monotone(self):
        c = capacity_coefficient(100.0)
        omegas = (1.0, 2.0, 3.0)
        rng = random.Random(3)

        def alloc_sum(v):
            return math.fsum(invert_derivative(w, c, 0.01, v) for w in omegas)

        for _ in range(50):
            v1 = rng.uniform(-5.0, 15.0)
            v2 = rng.uniform(-5.0, 15.0)
            if v1 == v2:
                continue
            lo, hi = min(v1, v2), max(v1, v2)
            assert alloc_sum(lo) > alloc_sum(hi)


def test_bracket_ends_need_no_per_device_loop():
    # derivative and w*c do not decrease as omega grows, in floating point
    # too, so the extreme omegas give the per-device min and max exactly
    for n in (3, 20, 200):
        for seed in range(1, 11):
            scenario = generate_random_scenario(n, seed)
            g = scenario.globals
            c = capacity_coefficient(g.snr)
            x = g.bandwidth * n
            omegas = scenario.omegas
            assert derivative(min(omegas), c, g.price, x) == min(
                derivative(w, c, g.price, x) for w in omegas
            )
            assert max(omegas) * c == max(w * c for w in omegas)


def solve_on(path: str, scenario, monkeypatch):
    """``solve`` with the inverse forced: "scalar" (one call per device) or "array" (numpy)."""
    threshold = 1 if path == "array" else sys.maxsize
    monkeypatch.setattr(engine, "ARRAY_MIN_DEVICES", threshold)
    return solve(scenario, admit(scenario.demands, scenario.globals.bandwidth))


class TestArrayPath:
    """The bisection on numpy arrays against the scalar loop, called on both sides."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    def test_threshold_picks_path(self, monkeypatch):
        # the engine's kernel rule, read at call time: device count alone
        from bandalloc import array_kernel

        seen = []
        real = array_kernel.inverse_and_slope_for
        monkeypatch.setattr(
            array_kernel,
            "inverse_and_slope_for",
            lambda w, *args: seen.append(len(w)) or real(w, *args),
        )
        n = engine.ARRAY_MIN_DEVICES
        for size in (n - 1, n):
            scenario = generate_random_scenario(size, 1)
            solve(scenario, admit(scenario.demands, scenario.globals.bandwidth))
        assert seen and set(seen) == {n}
        seen.clear()
        solve_on("array", bench_scenario(), monkeypatch)
        assert seen and set(seen) == {3}

    def test_matches_scalar_path(self, monkeypatch):
        cases = [("bench", bench_scenario())]
        cases += [(f"criterion-2 seed {s}", generated_scenario(s)) for s in range(1, 51)]
        cases += [
            (f"n={n} seed {s}", generate_random_scenario(n, s))
            for n in (16, 60, 200, 1000)
            for s in range(1, 6)
        ]
        for name, scenario in cases:
            scalar = solve_on("scalar", scenario, monkeypatch)
            assert solve_on("array", scenario, monkeypatch) == scalar, name

    def test_zero_demand_alike(self, monkeypatch):
        scenario = generate_random_scenario(20, 1)
        scenario = scenario.replace(demands=(0.0,) * scenario.n)
        for path in ("scalar", "array"):
            solution = solve_on(path, scenario, monkeypatch)
            assert solution.lam is None, path
            assert solution.allocations == (0.0,) * 20, path
            assert solution.objective == 0.0, path

    def test_equal_omegas_stay_on_the_array_path(self, monkeypatch):
        # every x is 0 at the upper bracket end max(omegas)*c; its
        # discriminant is finite, so the array value is used as it is
        scenario = generate_random_scenario(20, 1).replace(omegas=(2.0,) * 20)
        calls = []
        # the scalar loop's one call per device
        real = oracle.inverse_from_constants
        monkeypatch.setattr(
            oracle, "inverse_from_constants", lambda *a: calls.append(a) or real(*a)
        )
        array = solve_on("array", scenario, monkeypatch)
        assert calls == []
        scalar = solve_on("scalar", scenario, monkeypatch)
        assert calls
        assert array == scalar

    def test_scalar_values_reach_the_sign_test_as_an_array(self, monkeypatch):
        # a non-finite discriminant at one bisection midpoint hands it to the
        # scalar loop, whose values the kit keeps and compares as numpy's
        import numpy as np

        from bandalloc import array_kernel

        scenario = generate_random_scenario(20, 1)
        confirmed = admit(scenario.demands, scenario.globals.bandwidth)
        real, points = array_kernel._inverse, []

        def recorded(*args):
            points.append(args[-1])
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(array_kernel, "_inverse", recorded)
            want = repr(solve(scenario, confirmed))
        # the last evaluated bisection midpoint: the last value before lam's
        poison = points[-2]
        # the index of the sign test of the poisoned values, then those values
        fallback, scalar = [], oracle.inverse_from_constants

        def poisoned(*args):
            xs, disc = real(*args)
            if args[-1] == poison:
                disc[0] = math.inf
                fallback.append(len(seen))
            return xs, disc

        seen = recorded_excess(monkeypatch)
        monkeypatch.setattr(array_kernel, "_inverse", poisoned)
        monkeypatch.setattr(
            oracle, "inverse_from_constants", lambda *a: fallback.append(scalar(*a)) or fallback[-1]
        )
        assert repr(solve(scenario, confirmed)) == want
        k, *values = fallback
        assert len(values) == scenario.n
        xs, target, _ = seen[k]
        assert type(xs) is np.ndarray and xs.dtype == np.float64
        assert (xs.tolist(), target) == (values, confirmed.total)

    @pytest.mark.parametrize(
        "omega, error",
        [
            # (2*price - v*c)**2 overflows while the bracket is checked
            (
                lambda w: w * 1e152,
                r"^bisection failure: arithmetic overflow inverting the derivative "
                r"at v = 3\.165126063888246e\+153, device 0$",
            ),
            # omega*c overflows: the bracket search runs into NaN
            (lambda w: 1e308, r"^bisection bracket failure: no lower bound found$"),
        ],
        ids=["overflow", "bracket"],
    )
    def test_arithmetic_failure_alike(self, monkeypatch, omega, error):
        scenario = generate_random_scenario(20, 1)
        scenario = scenario.replace(omegas=tuple(omega(w) for w in scenario.omegas))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in ("scalar", "array"):
                with pytest.raises(ArithmeticError, match=error):
                    solve_on(path, scenario, monkeypatch)


def reference_solve(scenario, confirmed):
    """``solve`` as a plain bisection that evaluates every midpoint, on the
    kernel ``engine.ARRAY_MIN_DEVICES`` picks: ``repr`` of its solution, or
    the text of its ``ArithmeticError``, and its number of evaluations."""
    g = scenario.globals
    c = capacity_coefficient(g.snr)
    n, omegas, target = scenario.n, scenario.omegas, confirmed.total
    inverse, _, kit_excess, _ = oracle._inverse(omegas, c, g.price)
    evaluations = []

    def excess(v):
        evaluations.append(v)
        return kit_excess(inverse(v), target)

    def bisect():
        if target == 0.0:
            zeros = (0.0,) * n
            return oracle.OracleSolution(zeros, None, objective(scenario, zeros))
        lo = derivative(min(omegas), c, g.price, g.bandwidth * n)
        hi = max(omegas) * c
        for widening in range(oracle._MAX_WIDENINGS):
            try:
                low = excess(lo)
            except OverflowError:  # the first lower end restarts once
                if widening:
                    raise
                lo = derivative(min(omegas), c, g.price, target)
                low = excess(lo)
            if low >= 0.0:
                break
            lo -= abs(lo) + 1.0
        else:
            raise ArithmeticError("bisection bracket failure: no lower bound found")
        for _ in range(oracle._MAX_WIDENINGS):
            if excess(hi) <= 0.0:
                break
            hi += abs(hi) + 1.0
        else:
            raise ArithmeticError("bisection bracket failure: no upper bound found")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ArithmeticError("bisection bracket failure: a bracket end is not finite")
        for _ in range(oracle._MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-12 * max(1.0, abs(mid)):
                break
            if excess(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        evaluations.append(lam)
        allocations = tuple(engine._listed(inverse(lam)))
        try:
            value = objective(scenario, allocations)
        except ValueError as exc:
            raise ArithmeticError(str(exc)) from None
        return oracle.OracleSolution(allocations=allocations, lam=lam, objective=value)

    return outcome(bisect), len(evaluations)


def outcome(call, *args) -> str:
    """``repr`` of what ``call`` returns, which tells every float's bits apart,
    or the text of the ``ArithmeticError`` it raises."""
    try:
        return repr(call(*args))
    except ArithmeticError as exc:
        return f"ArithmeticError: {exc}"


def guarded_and_reference(scenario) -> dict[str, tuple[str, str, int, int]]:
    """For every kernel: the outcome of ``solve`` and of the reference
    bisection, and the evaluations of each."""
    confirmed = admit(scenario.demands, scenario.globals.bandwidth)
    results = {}
    for kernel, threshold in kernel_thresholds().items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "ARRAY_MIN_DEVICES", threshold)
            want, limit = reference_solve(scenario, confirmed)
            real = oracle._inverse
            evaluations = []

            def counted(*args):
                inverse, *rest = real(*args)
                return (lambda v: evaluations.append(v) or inverse(v)), *rest

            patch.setattr(oracle, "_inverse", counted)
            got = outcome(solve, scenario, confirmed)
        results[kernel] = got, want, len(evaluations), limit
    return results


def guarded_against_reference(scenario, name) -> dict[str, int]:
    """Asserts that ``solve`` equals the reference bisection bit for bit on
    every kernel, error included, in no more evaluations; returns its
    evaluations per kernel. For inputs on which the reference finishes:
    where it overflows at a midpoint beyond a guard, ``solve`` may finish
    (``TestGuardedBisection.test_finishes_where_the_plain_bisection_overflows``)."""
    counts = {}
    for kernel, (got, want, count, limit) in guarded_and_reference(scenario).items():
        assert got == want, (name, kernel)
        assert count <= limit, (name, kernel, count, limit)
        counts[kernel] = count
    return counts


def log_uniform(low: float, high: float):
    """Floats from ``10**low`` to ``10**high``, uniform in the exponent."""
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0**e)


@st.composite
def wide_scenarios(draw):
    """Line graphs of 1 to 24 devices, with omega, demand, bandwidth, snr and
    price each spanning about 10^-4 to 10^4, and some zero demands."""
    n = draw(st.integers(min_value=1, max_value=24))
    demand = st.one_of(st.just(0.0), log_uniform(-4.0, 4.0))
    return make_scenario(
        omegas=draw(st.lists(log_uniform(-4.0, 4.0), min_size=n, max_size=n)),
        demands=draw(st.lists(demand, min_size=n, max_size=n)),
        edges=[(i, i + 1) for i in range(n - 1)],
        bandwidth=draw(log_uniform(-4.0, 4.0)),
        snr=draw(log_uniform(-4.0, 4.0)),
        price=draw(log_uniform(-4.0, 4.0)),
    )


def wide_draws(count: int):
    """Seeded line graphs of 1 to 24 devices, omega and demand spread over
    40 decades (a tenth of the demands 0), bandwidth over 24, price over 20
    and snr over 16: many devices sit near the asymptote x -> -1/c."""
    rng = random.Random(11)

    def spread(decades: float) -> float:
        return 10.0 ** rng.uniform(-decades / 2, decades / 2)

    for _ in range(count):
        n = rng.randint(1, 24)
        omegas = [spread(40) for _ in range(n)]
        demands = [0.0 if rng.random() < 0.1 else spread(40) for _ in range(n)]
        yield make_scenario(
            omegas, demands, [(i, i + 1) for i in range(n - 1)],
            bandwidth=spread(24), price=spread(20), snr=spread(16),
        )


class TestGuardedBisection:
    """``solve`` replays the plain bisection, skipping the midpoints its guards settle."""

    @pytest.mark.parametrize("bandwidth", [3.4e154, 1e300])
    def test_lower_end_restarts_past_an_overflow(self, bandwidth):
        # squaring 2*price - v*c overflows at the bracket's first lower end, which
        # restarts at the least-omega device's derivative at the confirmed total;
        # the demands fit, so the optimum is the one at a bandwidth of 10^6
        cases = [("paper_s5", bench_scenario()), ("n=20", generate_random_scenario(20, 1))]
        for name, scenario in cases:
            g = scenario.globals
            c = capacity_coefficient(g.snr)
            lo = derivative(min(scenario.omegas), c, g.price, bandwidth * scenario.n)
            with pytest.raises(OverflowError, match="arithmetic overflow"):
                oracle._inverse(scenario.omegas, c, g.price)[0](lo)
            wide, fits = (
                scenario.replace(globals=g.replace(bandwidth=b))
                for b in (bandwidth, 1e6)
            )
            guarded_against_reference(wide, name)
            got = solve(wide, admit(wide.demands, bandwidth))
            want = solve(fits, admit(fits.demands, 1e6))
            assert got.allocations == pytest.approx(want.allocations, rel=1e-9, abs=1e-12)

    def test_pinned_inputs(self):
        # the inputs of the pinned digests in test_cli, but n=10^4 (see below),
        # and those of criterion 2
        sizes = [(n, s) for n in (3, 5, 8, 12, 15) for s in range(1, 9)]
        sizes += [(1000, 1), (1000, 2), (1000, 3), (20, 1), (60, 1), (60, 3), (200, 1)]
        cases = [("paper_s5", bench_scenario())]
        cases += [(f"n={n} seed {s}", generate_random_scenario(n, s)) for n, s in sizes]
        cases += [(f"criterion-2 seed {s}", generated_scenario(s)) for s in range(1, 52)]
        for name, scenario in cases:
            guarded_against_reference(scenario, name)

    @pytest.mark.parametrize("n", [*range(1, 17), 20, 60, 200, 1000])
    def test_generated_inputs(self, n):
        for seed in range(1, 21):
            guarded_against_reference(generate_random_scenario(n, seed), f"n={n} seed {seed}")

    @pytest.mark.parametrize("bandwidth", [1e20, 1e60, 1e100, 1e300, 1e308])
    def test_extreme_bandwidths(self, bandwidth):
        scenario = make_scenario(
            omegas=(1.0, 2.0, 3.0), demands=(1.0, 2.0, 2.0), edges=((0, 1), (1, 2)),
            bandwidth=bandwidth,
        )
        guarded_against_reference(scenario, bandwidth)

    @settings(
        max_examples=300, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=wide_scenarios())
    def test_wide_inputs(self, scenario):
        guarded_against_reference(scenario, scenario)

    def test_wide_draws(self):
        # Newton's slope is the sum of 1/U''; with U'' from c*x + 1, which
        # cancels near the asymptote, these draws took 14,557 evaluations
        # (up to 90 for one solve, where the plain bisection takes about 50)
        total = 0
        for k, scenario in enumerate(wide_draws(300)):
            for kernel, (got, want, count, limit) in guarded_and_reference(scenario).items():
                assert got == want, (k, kernel)
                assert count <= limit + 3, (k, kernel, count, limit)
                total += count
        assert total <= 6_000, total

    def test_finishes_where_the_plain_bisection_overflows(self):
        # 1 of 6,000 fuzzed extreme inputs: the plain bisection's fourth
        # evaluation, a midpoint beyond the lower guard, overflows the inverse;
        # solve settles that midpoint by the guard and finishes
        scenario = make_scenario(
            omegas=(0.3867990638883902,), demands=(0.033445626631134553,), edges=(),
            bandwidth=4.265787919580882e246, price=7.01583101865135e60, snr=100.0,
        )
        solution = oracle.OracleSolution(
            allocations=(0.033445626631132486,), lam=-4.692977295138619e59,
            objective=-7.847978320079415e57,
        )
        overflow = (
            "ArithmeticError: bisection failure: arithmetic overflow inverting the "
            "derivative at v = -1.4964023602591883e+307, device 0"
        )
        results = guarded_and_reference(scenario)
        assert results.keys() == kernel_thresholds().keys()
        for kernel, (got, want, _, evaluations) in results.items():
            assert (got, want, evaluations) == (repr(solution), overflow, 4), kernel

    @pytest.mark.parametrize(
        "name, scenario",
        [
            ("paper_s5", bench_scenario),
            ("n=10^4 seed 1", lambda: generate_random_scenario(10_000, 1)),
        ],
    )
    def test_few_evaluations(self, name, scenario):
        # the plain bisection takes 48 and 64
        counts = guarded_against_reference(scenario(), name)
        assert max(counts.values()) <= 14, counts


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    omegas=st.lists(log_uniform(-12.0, 12.0), min_size=1, max_size=8),
    price=log_uniform(-12.0, 12.0),
    snr=log_uniform(-3.0, 6.0),
)
def test_no_device_takes_bandwidth_at_the_upper_bracket_end(omegas, price, snr):
    # solve searches no upper bracket end: every omega*c rounds to at most
    # max(omegas)*c, where both candidates of each inverse are <= 0
    try:
        Globals(bandwidth=1.0, snr=snr, price=price, mu=1.0, eta=1.0)
    except ScenarioError:
        assume(False)
    c = capacity_coefficient(snr)
    v = max(omegas) * c
    assert all(invert_derivative(w, c, price, v) <= 0.0 for w in omegas)
    if engine.array_kernel_for(sys.maxsize) is not None:
        import numpy as np

        from bandalloc import array_kernel

        consts = array_kernel._constants(np.array(omegas), c, price)
        xs, _ = array_kernel._inverse(*consts, v)
        assert (xs <= 0.0).all(), xs


def oracle_lines_run(call) -> set[int]:
    """The numbers of the lines of ``oracle.py`` that ``call()`` runs."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == oracle.__file__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return seen


def line_of(func, text: str, below: int = 0) -> int:
    """The number of the line ``below`` lines under the first of ``func`` holding ``text``."""
    lines, first = inspect.getsourcelines(func)
    return first + next(i for i, line in enumerate(lines) if text in line) + below


def scaled_slope(factor: float):
    """``oracle._inverse`` with its Newton slope multiplied by ``factor``."""
    real = oracle._inverse

    def inverse(*args):
        values, slope, *rest = real(*args)

        def scaled(v, xs):
            dt, *sums = slope(v, xs)
            return factor * dt, *sums

        return values, scaled, *rest

    return inverse


def raising(error: type):
    """An ``oracle._newton`` that raises ``error``."""

    def newton(*args):
        raise error("forced")

    return newton


NEWTON_GIVES_UP = line_of(oracle._guards, "if found is None:", 1)
SWALLOWED = [line_of(oracle._guards, "except (ArithmeticError, ValueError):", k) for k in (0, 1)]
# how each give-up path of the guards is forced, and the lines it runs
GIVE_UPS = {
    # a NaN slope makes the Newton step and the guard width NaN
    "non-finite step": (
        lambda patch: patch.setattr(oracle, "_inverse", scaled_slope(math.nan)),
        [line_of(oracle._newton, "if not math.isfinite(step + width):", 1), NEWTON_GIVES_UP],
    ),
    # a slope 10^12 times too flat steps out of the bracket, so _newton
    # bisects; a huge guard width spans the bracket, so no guard lies inside it
    "bisection step": (
        lambda patch: (
            patch.setattr(oracle, "_inverse", scaled_slope(1e-12)),
            patch.setattr(oracle, "_GUARD", 2.0**100),
        ),
        [line_of(oracle._newton, "if hi - lo <= width:", 1)],
    ),
    **{
        f"{count} Newton evaluations": (
            lambda patch, count=count: patch.setattr(oracle, "_MAX_NEWTON", count),
            [line_of(oracle._newton, "before, last = last, abs(step)", 1), NEWTON_GIVES_UP],
        )
        for count in (0, 1)
    },
    **{
        f"Newton raises {error.__name__}": (
            lambda patch, error=error: patch.setattr(oracle, "_newton", raising(error)),
            SWALLOWED,
        )
        for error in (ArithmeticError, ValueError)
    },
}


class TestGuardsGiveUp:
    """Where the guards give up, ``solve`` evaluates every midpoint: it is the
    plain bisection, bit for bit, error included. Guards that hold may let it
    finish where the plain bisection overflows at a midpoint beyond them."""

    @pytest.mark.parametrize("path", GIVE_UPS)
    @pytest.mark.parametrize(
        "scenario",
        [bench_scenario, lambda: generate_random_scenario(20, 1),
         lambda: generate_random_scenario(60, 1)],
        ids=["paper_s5", "n=20", "n=60"],
    )
    def test_every_midpoint_evaluated(self, path, scenario):
        scenario = scenario()
        confirmed = admit(scenario.demands, scenario.globals.bandwidth)
        force, lines = GIVE_UPS[path]
        for kernel, threshold in kernel_thresholds().items():
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "ARRAY_MIN_DEVICES", threshold)
                want, _ = reference_solve(scenario, confirmed)
                force(patch)
                real, bounds, got = oracle._guards, [], []
                patch.setattr(oracle, "_guards", lambda *a: bounds.append(real(*a)) or bounds[-1])
                run = oracle_lines_run(lambda: got.append(outcome(solve, scenario, confirmed)))
            assert got == [want], kernel
            assert bounds == [[-math.inf, math.inf]], kernel
            assert set(lines) <= run, (kernel, sorted(set(lines) - run))


def test_allocation_on_the_domain_boundary_is_an_arithmetic_error():
    # under this omega ratio the solve rounds device 1 onto x = -1/c, where
    # the utility is undefined: a numerical failure, not a bad argument
    scenario = make_scenario(
        omegas=(1e150, 1e-300), demands=(0.0, 1.0), edges=((0, 1),),
        bandwidth=1.0, snr=1.0, price=1.0,
    )
    with pytest.raises(ArithmeticError) as excinfo:
        solve(scenario, admit(scenario.demands, 1.0))
    assert str(excinfo.value) == (
        "allocations[1]: bandwidth -1.0 is outside the utility domain (requires x > -1.0)"
    )


@pytest.mark.parametrize("omegas", [(1e-200,), (1.0, 1e-200)], ids=["alone", "second"])
def test_division_by_zero_names_value_and_device(monkeypatch, omegas):
    # at snr 1, price 2**-600 and v = -2*price, 2*price + v*c, t*t and the
    # discriminant of the omega-1e-200 device all round to 0.0; the array
    # kernel hands v to the scalar loop, which names the division
    price = 2.0**-600
    device = len(omegas) - 1
    want = (
        "bisection failure: division by zero inverting the derivative "
        f"at v = {-2.0 * price!r}, device {device}"
    )
    for name, threshold in kernel_thresholds().items():
        monkeypatch.setattr(engine, "ARRAY_MIN_DEVICES", threshold)
        inverse = oracle._inverse(omegas, capacity_coefficient(1.0), price)[0]
        with pytest.raises(ZeroDivisionError) as excinfo:
            inverse(-2.0 * price)
        assert str(excinfo.value) == want, name


class TestObjective:
    def test_zero_allocation_zero_welfare(self, bench):
        assert objective(bench, (0.0, 0.0, 0.0)) == 0.0

    def test_value_at_demand_vector(self, bench):
        got = objective(bench, (1.0, 2.0, 2.0))
        assert got == pytest.approx(OBJECTIVE_AT_DEMANDS, rel=1e-12)
        c = mpmath.log(101, 2)
        want = float(
            mpmath.log(c * 1 + 1) - mpmath.mpf("0.01")
            + 2 * (mpmath.log(c * 2 + 1)) - mpmath.mpf("0.04")
            + 3 * (mpmath.log(c * 2 + 1)) - mpmath.mpf("0.04")
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_optimum_beats_demand_vector(self, bench):
        solution = solve(bench, admit(bench.demands, 5.0))
        assert solution.objective == pytest.approx(OBJECTIVE_AT_OPTIMUM, rel=1e-12)
        assert solution.objective >= objective(bench, (1.0, 2.0, 2.0))

    def test_local_optimality_under_zero_sum_perturbations(self, bench):
        solution = solve(bench, admit(bench.demands, 5.0))
        best = solution.objective
        rng = random.Random(17)
        for _ in range(100):
            raw = [rng.uniform(-0.005, 0.005) for _ in range(3)]
            mean = math.fsum(raw) / 3.0
            delta = [r - mean for r in raw]
            candidate = tuple(x + d for x, d in zip(solution.allocations, delta))
            assert best >= objective(bench, candidate) - 1e-12

    def test_domain_violation_names_coordinate(self, bench):
        with pytest.raises(ValueError, match=r"allocations\[1\]"):
            objective(bench, (0.0, -1.0, 0.0))

    def test_length_mismatch(self, bench):
        with pytest.raises(ValueError, match="does not match"):
            objective(bench, (1.0, 2.0))


def fsum_excess(xs, target):
    """The reference decision: always the exactly rounded total."""
    return math.fsum(list(xs)) - target


def sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def recorded_excess(monkeypatch) -> list:
    """Patch ``array_kernel.settled_excess``, which the array kit of each later
    ``solve`` takes, to assert that it returns a float and to record its
    arguments and whether it left the sign to ``fsum``; returns the records."""
    from bandalloc import array_kernel

    real, real_fsum = array_kernel.settled_excess, math.fsum
    fsums, seen = [], []

    def recorded(xs, target):
        before = len(fsums)
        diff = real(xs, target)
        assert type(diff) is float, diff
        seen.append((xs, target, len(fsums) > before))
        return diff

    monkeypatch.setattr(math, "fsum", lambda v: fsums.append(v) or real_fsum(v))
    monkeypatch.setattr(array_kernel, "settled_excess", recorded)
    return seen


def fsum_fallbacks(monkeypatch, scenario) -> tuple[str, int]:
    """``repr`` of ``solve``'s solution, and how often ``settled_excess`` left
    the sign to ``fsum``."""
    seen = recorded_excess(monkeypatch)
    solution = solve(scenario, admit(scenario.demands, scenario.globals.bandwidth))
    assert seen
    return repr(solution), sum(fell_back for *_, fell_back in seen)


class TestCheapSumDecisions:
    """``array_kernel.settled_excess``, the array kit's sign test, against the
    all-``fsum`` bisection it replaces."""

    @pytest.fixture(autouse=True)
    def _numpy(self):
        pytest.importorskip("numpy")

    @pytest.mark.parametrize("n", [16, 60, 200, 1000])
    def test_decisions_and_results_match_fsum(self, monkeypatch, n):
        from bandalloc import array_kernel

        real = array_kernel.settled_excess
        inside = 0  # decisions that numpy's sum leaves to fsum
        for seed in range(1, 6):
            scenario = generate_random_scenario(n, seed)
            confirmed = admit(scenario.demands, scenario.globals.bandwidth)
            # each solve patches inside its own context, so every seed's cheap
            # solve runs the real sign test, not the last seed's reference
            with monkeypatch.context() as patch:
                seen = recorded_excess(patch)
                cheap = solve(scenario, confirmed)
            assert seen and all(xs.dtype == float for xs, *_ in seen)
            for xs, t, _ in seen:
                assert sign(real(xs, t)) == sign(fsum_excess(xs, t)), (n, seed)
                diff, bound = array_kernel._cheap_excess(xs, t)
                inside += abs(diff) <= bound
            with monkeypatch.context() as patch:
                patch.setattr(array_kernel, "settled_excess", fsum_excess)
                exact = solve(scenario, confirmed)
            assert cheap.lam == exact.lam, (n, seed)
            assert cheap.allocations == exact.allocations, (n, seed)
        # numpy's error bound grows with n: at 1000 devices a step next to the
        # root falls inside it on four of the five seeds
        assert inside or n < 1000

    @pytest.mark.parametrize("n, seeds", [(16, range(1, 6)), (1000, range(1, 6)), (10_000, [1])])
    def test_long_double_decisions_match_fsum(self, monkeypatch, n, seeds):
        import numpy as np

        from bandalloc import array_kernel

        if not array_kernel._LONG_EPS < math.ulp(1.0):
            pytest.skip("numpy's long double is float64 here")
        # decisions the long double sum settles, and those of them inside float64's bound
        decided = inside = 0
        for seed in seeds:
            scenario = generate_random_scenario(n, seed)
            with monkeypatch.context() as patch:
                seen = recorded_excess(patch)
                solve(scenario, admit(scenario.demands, scenario.globals.bandwidth))
            for xs, t, _ in seen:
                wide = xs.astype(np.longdouble)
                diff, bound = array_kernel._cheap_excess(wide, t, array_kernel._LONG_EPS)
                if abs(diff) > bound:
                    decided += 1
                    diff64, bound64 = array_kernel._cheap_excess(xs, t)
                    inside += bool(abs(diff64) <= bound64)
                    assert sign(float(diff)) == sign(fsum_excess(xs, t)), (n, seed)
        assert decided
        # the four comparisons next to the root that float64 leaves open
        assert inside == 4 or n < 10_000

    def test_long_double_step_changes_no_bit(self, monkeypatch):
        from bandalloc import array_kernel

        wider = array_kernel._LONG_EPS < math.ulp(1.0)
        cases = [(n, s) for n in (16, 60, 200, 1000) for s in range(1, 6)] + [(10_000, 1)]
        for n, seed in cases:
            scenario = generate_random_scenario(n, seed)
            with monkeypatch.context() as patch:
                on, fallbacks = fsum_fallbacks(patch, scenario)
            with monkeypatch.context() as patch:
                # long double treated as float64: the step is skipped
                patch.setattr(array_kernel, "_LONG_EPS", math.ulp(1.0))
                off, fallbacks_off = fsum_fallbacks(patch, scenario)
            assert on == off, (n, seed)
            assert fallbacks <= fallbacks_off, (n, seed)
            if n == 10_000:
                # four of the solve's comparisons lie inside numpy's float64 bound
                assert fallbacks_off == 4
                assert fallbacks == (0 if wider else 4)

    def test_cancellation_inside_the_bound_takes_fsum(self, monkeypatch):
        import numpy as np

        from bandalloc import array_kernel

        # the exact total is 2 + ulp(2), one float above the target, but
        # numpy's sum loses both ones to the 1e16 terms
        xs = np.array([1.0, 1e16, -1e16, 1.0 + 2 * math.ulp(1.0)])
        target = 2.0
        exact = sum(map(fractions.Fraction, xs.tolist()))
        assert exact - target == math.ulp(2.0)
        assert float(xs.sum()) < target
        calls = []
        real_fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(v) or real_fsum(v))
        assert array_kernel.settled_excess(xs, target) > 0.0
        assert calls

    def test_cancellation_inside_the_long_double_bound_takes_fsum(self, monkeypatch):
        import numpy as np

        from bandalloc import array_kernel

        # as above, but the 1e20 terms swallow the ones in long double too
        xs = np.array([1.0, 1e20, -1e20, 1.0 + 2 * math.ulp(1.0)])
        target = 2.0
        assert float(xs.astype(np.longdouble).sum()) < target
        calls = []
        real_fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(v) or real_fsum(v))
        assert array_kernel.settled_excess(xs, target) > 0.0
        assert calls

    def test_overflowing_sum_left_to_fsum(self):
        import numpy as np

        from bandalloc import array_kernel

        # float64 sums overflow, a long double one would not: fsum keeps the
        # decision, and raises
        xs = np.array([1e308, 1e308, -1e308])
        with pytest.raises(OverflowError):
            math.fsum(xs.tolist())
        with pytest.raises(OverflowError):
            array_kernel.settled_excess(xs, 1.0)

    def test_clear_comparison_skips_fsum(self, monkeypatch):
        import numpy as np

        from bandalloc import array_kernel

        calls = []
        real_fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(v) or real_fsum(v))
        xs = np.arange(1.0, 101.0)
        assert array_kernel.settled_excess(xs, 5050.0 - 1e-9) > 0.0
        assert array_kernel.settled_excess(xs, 5050.0 + 1e-9) < 0.0
        assert not calls
