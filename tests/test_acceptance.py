"""End-to-end acceptance gate.

Each test checks one acceptance criterion at a fixed tolerance and
prints a single pass/fail line (visible with ``pytest -s`` and in
failure output).
"""

from __future__ import annotations

import functools
import math
import random
import time

import pytest

from bandalloc.admission import admit
from bandalloc.cli import ExitStatus, main
from bandalloc.engine import NumericalError, run, step
from bandalloc.oracle import solve
from bandalloc.utility import capacity_coefficient, derivative, evaluate, invert_derivative

from conftest import BENCH_PATH, bench_scenario, generated_scenario as _generated, recording
from test_engine import round_state, run_on, stationary_state, vectors
from test_cli import report_dict, floats

# bisection value for the bundled benchmark, recomputed via the oracle
# (see TestSolveBenchmark) before being pinned here
LAMBDA_STAR = 1.0617333318953706

# two-decimal target allocations for the bundled benchmark scenario
BENCH_TARGET = (0.78, 1.67, 2.55)


def _report(name: str, passed: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def _run_with_rescue(scenario):
    """Run once; on instability retry with eta and mu halved once.

    Returns (result or None, rescued flag).
    """
    unstable = False
    result = None
    try:
        result = run(scenario)
        unstable = result.diagnostics.diverged
    except NumericalError:
        unstable = True
    if not unstable:
        return result, False
    g = scenario.globals
    halved = scenario.replace(globals=g.replace(eta=g.eta / 2.0, mu=g.mu / 2.0))
    try:
        return run(halved), True
    except NumericalError:
        return None, True


def test_criterion_1_benchmark_allocations(capsys):
    start = time.perf_counter()
    code = main(["compare", str(BENCH_PATH)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    report = report_dict(out)
    allocations = floats(report["engine_allocations"])
    max_err = max(abs(a - t) for a, t in zip(allocations, BENCH_TARGET))
    total_err = abs(math.fsum(allocations) - 5.0)

    sink, rounds = recording()
    result = run(bench_scenario(), trace=sink)
    first = rounds[0].u_prime
    initial_spread = max(first) - min(first)
    decay = result.converged and (
        result.diagnostics.consensus_residual <= initial_spread
    )

    passed = (
        code == ExitStatus.OK
        and report["converged"] == "true"
        and max_err <= 0.01
        and total_err <= 1e-6
        and elapsed < 1.0
        and decay
    )
    with capsys.disabled():
        _report(
            "criterion-1 benchmark-allocations",
            passed,
            f"max |x - target| {max_err:.2e}, total err {total_err:.2e}, "
            f"runtime {elapsed:.3f}s, residual decayed {decay}",
        )


def test_criterion_2_oracle_engine_agreement(capsys):
    scenarios = [("bench", bench_scenario())]
    scenarios += [(f"seed {seed}", _generated(seed)) for seed in range(1, 51)]
    failures = []
    rescued_count = 0
    worst_gap = 0.0
    branches = set()
    for name, scenario in scenarios:
        total = math.fsum(scenario.demands)
        branches.add("over" if total > scenario.globals.bandwidth else "under")
        outcome, rescued = _run_with_rescue(scenario)
        rescued_count += rescued
        if outcome is None or not outcome.converged:
            failures.append(name)
            continue
        solution = solve(scenario, admit(scenario.demands, scenario.globals.bandwidth))
        gap = max(
            abs(a - b) for a, b in zip(outcome.allocations, solution.allocations)
        )
        worst_gap = max(worst_gap, gap)
        if gap > 1e-3:
            failures.append(name)
    passed = not failures and branches == {"over", "under"}
    with capsys.disabled():
        _report(
            "criterion-2 oracle-engine-agreement",
            passed,
            f"51 scenarios, worst gap {worst_gap:.2e}, rescued {rescued_count}, "
            f"failures {failures or 'none'}, branches {sorted(branches)}",
        )


def test_criterion_3_kkt_consensus(capsys):
    cases = [("bench", bench_scenario())]
    cases += [(f"seed {seed}", _generated(seed)) for seed in (2, 9, 23, 41)]
    worst_dev = 0.0
    bench_lambda_err = None
    ok = True
    for name, scenario in cases:
        result = run(scenario)
        ok = ok and result.converged
        ok = ok and result.diagnostics.consensus_residual <= 1e-6
        g = scenario.globals
        c = capacity_coefficient(g.snr)
        solution = solve(scenario, admit(scenario.demands, g.bandwidth))
        for w, x in zip(scenario.omegas, result.allocations):
            dev = abs(derivative(w, c, g.price, x) - solution.lam)
            worst_dev = max(worst_dev, dev)
            ok = ok and dev <= 1e-4
        if name == "bench":
            bench_lambda_err = abs(result.consensus_value - LAMBDA_STAR)
            ok = ok and bench_lambda_err <= 1e-3
    with capsys.disabled():
        _report(
            "criterion-3 kkt-consensus",
            ok,
            f"worst |U' - lambda*| {worst_dev:.2e}, "
            f"bench |consensus - {LAMBDA_STAR}| {bench_lambda_err:.2e}",
        )


def test_criterion_4_admission(capsys):
    rng = random.Random(1234)
    over_count = 0
    worst_total_err = 0.0
    worst_ratio_err = 0.0
    ok = True
    for _ in range(1000):
        n = rng.randint(1, 25)
        demands = [0.0 if rng.random() < 0.1 else rng.uniform(0.0, 8.0) for _ in range(n)]
        bandwidth = rng.uniform(0.5, 30.0)
        confirmed = admit(demands, bandwidth)
        ok = ok and confirmed.total <= bandwidth
        if math.fsum(demands) > bandwidth:
            over_count += 1
            total_err = abs(confirmed.total - bandwidth)
            worst_total_err = max(worst_total_err, total_err / bandwidth)
            ok = ok and total_err <= 1e-12 * bandwidth
            j = max(range(n), key=lambda i: demands[i])
            for i in range(n):
                if demands[i] > 0.0:
                    want = demands[i] / demands[j]
                    got = confirmed.values[i] / confirmed.values[j]
                    err = abs(got - want) / abs(want)
                    worst_ratio_err = max(worst_ratio_err, err)
                    ok = ok and err <= 1e-12
                else:
                    ok = ok and confirmed.values[i] == 0.0
    with capsys.disabled():
        _report(
            "criterion-4 admission",
            ok,
            f"1000 pairs, {over_count} over budget, worst total err "
            f"{worst_total_err:.2e} rel, worst ratio err {worst_ratio_err:.2e}",
        )


def test_criterion_5_utility_math(capsys):
    rng = random.Random(4321)
    h = 1e-6
    worst_grad = 0.0
    worst_round = 0.0
    ok = True
    for _ in range(20):
        omega = rng.uniform(0.5, 5.0)
        snr = rng.uniform(10.0, 500.0)
        price = rng.uniform(0.002, 0.05)
        bandwidth = rng.uniform(1.0, 10.0)
        c = capacity_coefficient(snr)
        for k in range(100):
            x = 2.0 * bandwidth * k / 99.0
            exact = derivative(omega, c, price, x)
            numeric = (
                evaluate(omega, c, price, x + h) - evaluate(omega, c, price, x - h)
            ) / (2.0 * h)
            grad_err = abs(exact - numeric) / max(1.0, abs(exact))
            worst_grad = max(worst_grad, grad_err)
            ok = ok and grad_err <= 1e-5
            round_err = abs(invert_derivative(omega, c, price, exact) - x)
            worst_round = max(worst_round, round_err)
            ok = ok and round_err <= 1e-9
    with capsys.disabled():
        _report(
            "criterion-5 utility-math",
            ok,
            f"20 parameter sets x 100 grid points, worst gradient err "
            f"{worst_grad:.2e}, worst round-trip err {worst_round:.2e}",
        )


def _criterion_6(capsys, run_scenario, kernel: str) -> None:
    scenario = bench_scenario(
        max_iters=10000, tol_consensus=1e-300, tol_constraint=1e-300
    )
    sink, rounds = recording()
    result = run_scenario(scenario, trace=sink)
    iterations_seen = {state.iteration for state in rounds}
    worst = max(abs(sum(state.zeta)) for state in rounds)
    passed = (
        result.iterations_used == 10000
        and len(iterations_seen) == 10001
        and worst <= 1e-10
    )
    with capsys.disabled():
        _report(
            f"criterion-6 conservation{kernel}",
            passed,
            f"10000 iterations, max |sum zeta| {worst:.2e}",
        )


def test_criterion_6_conservation(capsys):
    _criterion_6(capsys, run, "")


def test_criterion_6_conservation_array_kernel(capsys, monkeypatch):
    pytest.importorskip("numpy")
    _criterion_6(capsys, functools.partial(run_on, "array", monkeypatch=monkeypatch), " [array]")


FIXED_POINT_CASES = [
    (bench_scenario(), 0.5),
    (bench_scenario(), LAMBDA_STAR),
    (bench_scenario(), 2.0),
    (_generated(5), 1.3),
]


def _criterion_7(capsys, states, kernel: str) -> None:
    """``states(scenario, level)`` gives a consensus state and its next round."""
    ok = True
    for scenario, level in FIXED_POINT_CASES:
        state, after = states(scenario, level)
        ok = ok and vectors(after) == vectors(state)
    with capsys.disabled():
        _report(
            f"criterion-7 fixed-point{kernel}",
            ok,
            f"{len(FIXED_POINT_CASES)} constructed consensus states bit-identical under step",
        )


def test_criterion_7_fixed_point(capsys):
    def states(scenario, level):
        state = stationary_state(scenario, level)
        return state, step(state, scenario)

    _criterion_7(capsys, states, "")


def test_criterion_7_fixed_point_array_kernel(capsys):
    pytest.importorskip("numpy")
    from bandalloc.array_kernel import inverse_and_slope_for, rounds

    def array_inverse(omegas, c, price, level):
        return inverse_and_slope_for(omegas, c, price, None)[0](level)

    def states(scenario, level):
        # x from the array inverse, equal to the scalar one bit for bit
        # (test_engine's test_inverse_matches_scalar)
        state = stationary_state(scenario, level, inverse=array_inverse)
        fields = next(rounds(state, scenario))[3]
        return state, round_state(fields, state.iteration + 1, state.confirmed)

    _criterion_7(capsys, states, " [array]")


def test_criterion_8_determinism(capsys, tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    code_a = main(["run", str(BENCH_PATH), "--trace", str(first)])
    out_a = capsys.readouterr().out
    code_b = main(["run", str(BENCH_PATH), "--trace", str(second)])
    out_b = capsys.readouterr().out
    bytes_a = first.read_bytes()
    bytes_b = second.read_bytes()
    passed = (
        code_a == code_b == ExitStatus.OK
        and bytes_a == bytes_b
        and len(bytes_a) > 0
        and out_a == out_b
    )
    with capsys.disabled():
        _report(
            "criterion-8 determinism",
            passed,
            f"two runs, {len(bytes_a)} byte traces identical",
        )
