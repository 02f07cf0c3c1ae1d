#!/usr/bin/env python3
"""bandalloc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]   # all four

Run from the repository root. One workload runs in one process as a single
closed-loop client: each ``bandalloc.cli.main(argv)`` call starts after the
previous one returned. Inputs are generated from the seed into
``.bench_work/`` (see gen.py and workloads.py); every call's report is
checked outside the timed region.

With ``--trace 0`` the last line is a JSON object whose metrics are the
end-to-end ones; with ``--trace 1`` the run first measures untraced passes,
then traced passes, and reports the per-layer metrics. The lines before it
print every metric by name with its unit. README.md describes the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import gen  # noqa: E402
import workloads  # noqa: E402
from calibrate import Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUPS = 5


class Measured:
    """Per-call records of the passes of one phase (untraced or traced)."""

    def __init__(self) -> None:
        self.pass_s: list[float] = []  # summed call time per pass
        self.call_s: list[float] = []
        self.call_cost: list[float] = []  # scaled seconds per work unit, per call
        self.calls = 0
        self.nonzero_or_bad = 0  # non-zero exit or failed check: failed_frac
        self.bad = 0  # failed output checks
        self.rounds: list[int] = []  # rounds per pass
        self.device_rounds = 0
        self.round_s = 0.0  # time of the calls that ran at least one round
        self.smallest: tuple[int, object] | None = None  # (units, call) of the smallest engine call
        self.trace_bytes = 0


def import_package():
    """(Re-)import bandalloc from the checkout, so each set-up pays for it."""
    for name in [m for m in sys.modules if m == "bandalloc" or m.startswith("bandalloc.")]:
        del sys.modules[name]
    pkg = importlib.import_module("bandalloc")
    importlib.import_module("bandalloc.cli")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"bandalloc imported from {pkg.__file__}, not from {SRC}")
    return pkg


def call_cli(argv: list[str], sampler: Sampler) -> tuple[int, str, str, float, float]:
    """Exit code, stdout, stderr, and the call's time in seconds, raw (without
    calibration bursts) and scaled to the nominal speed."""
    cli = sys.modules["bandalloc.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mark = sampler.mark()
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed - (sampler.busy - mark[0]), \
        sampler.scale(elapsed, mark)


def set_up(wl, sampler: Sampler) -> list[float]:
    """Scaled times of SETUPS set-ups: import, read the scenario files, warm up."""
    times = []
    for _ in range(SETUPS):
        mark = sampler.mark()
        start = time.perf_counter()
        import_package()
        for call in wl.calls:
            Path(call.argv[1]).read_bytes()
        call_cli(wl.warmup(), sampler)
        times.append(sampler.scale(time.perf_counter() - start, mark))
    return times


def run_pass(wl, m: Measured, outcomes, sampler, tracer=None, selftest=None) -> None:
    total = 0.0
    rounds = 0
    for call in wl.calls:
        if call.trace is not None:
            call.trace.unlink(missing_ok=True)
        if tracer is not None:
            tracer.call += 1
        code, out, err, elapsed, scaled_call = call_cli(call.argv, sampler)
        outcome = wl.check(call, code, out, err)
        units = wl.units(call, outcome)
        substantive = outcome.ok and outcome.stop in ("converged", "diverged", "n/a")
        if selftest is not None and not selftest and substantive:
            # The same check must reject this report with one value changed.
            bad = wl.check(call, code, workloads.corrupt(out, wl.corrupt_key), err)
            selftest.append(not bad.ok)
        if call.trace is not None and call.trace.exists():
            m.trace_bytes += call.trace.stat().st_size
            call.trace.unlink()
        total += elapsed
        rounds += outcome.rounds
        m.call_s.append(elapsed)
        m.calls += 1
        m.bad += not outcome.ok
        m.nonzero_or_bad += code != 0 or not outcome.ok
        if units:
            m.call_cost.append(scaled_call / units)
        if outcome.rounds:
            m.device_rounds += call.n * outcome.rounds
            m.round_s += elapsed
        if call.argv[0] != "oracle" and (m.smallest is None or units < m.smallest[0]):
            m.smallest = (units, call)
        outcomes.append({
            "workload": wl.name, "n": call.n, "seed": call.seed, "eta": call.eta,
            "lambda_max": call.lam_max, "stop": outcome.stop, "rounds": outcome.rounds,
            "exit": code, "ok": outcome.ok, "why": outcome.why, "seconds": elapsed,
            "scaled_s": scaled_call,
        })
    m.pass_s.append(total)
    m.rounds.append(rounds)


def measure(wl, seconds: float, outcomes, sampler, tracer=None, selftest=None) -> Measured:
    """Whole passes over the call list for about ``seconds`` of wall time (at
    least one): a pass starts only if the previous one suggests it ends in time."""
    m = Measured()
    start = time.perf_counter()
    last = 0.0
    while not m.pass_s or time.perf_counter() - start + last <= seconds:
        gc.collect()
        t = time.perf_counter()
        run_pass(wl, m, outcomes, sampler, tracer, selftest)
        last = time.perf_counter() - t
    return m


def end_to_end(wl, m: Measured, setup: list[float]):
    """The end-to-end metrics every workload reports, and the ones listed in
    the workload's ``reports`` that only the human-readable lines carry."""
    out = {
        "setup_s": (statistics.median(setup), "s"),
        "us_per_unit": (1e6 * statistics.median(m.call_cost), "us"),
    }
    extra = {
        "wall_s": (statistics.median(m.pass_s), "s"),
        "op_p50_ms": (1e3 * statistics.median(m.call_s), "ms"),
        "op_samples": (len(m.call_s), "count"),
        "rounds_total": (m.rounds[0], "count"),
        "device_rounds_per_s": (m.device_rounds / m.round_s if m.round_s else 0.0, "1/s"),
        "failed_frac": (m.nonzero_or_bad / m.calls, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if len(m.call_s) >= 1000:
        extra["op_p99_ms"] = (1e3 * statistics.quantiles(m.call_s, n=100)[98], "ms")
    return out, {name: extra[name] for name in wl.reports if name in extra}


def engine_peak_mb(m: Measured) -> float:
    """tracemalloc peak inside engine.run, on the list's smallest engine call
    (tracemalloc slows allocation several-fold)."""
    if m.smallest is None:
        return 0.0
    call = m.smallest[1]
    engine = sys.modules["bandalloc.engine"]
    original, peaks = engine.run, []

    def run(*args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    engine.run = run
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.modules["bandalloc.cli"].main(call.argv)
    finally:
        tracemalloc.stop()
        engine.run = original
        if call.trace is not None:
            call.trace.unlink(missing_ok=True)
    return max(peaks, default=0) / 2**20


def per_layer(wl, plain: Measured, traced: Measured, tracer: Tracer) -> dict[str, tuple[float, str]]:
    k = len(traced.pass_s)
    tot = tracer.totals()
    c = tracer.counts

    def span(name, field):
        return tot[name][field] / k if name in tot else 0.0

    step_s = tot["engine.step"]["s"] if "engine.step" in tot else 0.0
    device_rounds = c["engine.device_rounds"]
    inv = "utility.invert_derivative."
    return {
        "engine.step.self_s": (span("engine.step", "self_s"), "s"),
        "engine.step.calls": (span("engine.step", "calls"), "count"),
        "engine.step.us_per_device_round": (1e6 * step_s / device_rounds if device_rounds else 0.0, "us"),
        "engine.residuals.s": (span("engine.consensus_residual", "s")
                               + span("engine.constraint_residual", "s"), "s"),
        "engine.run.self_s": (span("engine.run", "self_s"), "s"),
        "engine.trace_rows": (c["engine.trace_rows"] / k, "count"),
        "engine.run.peak_mb": (engine_peak_mb(traced), "MB"),
        "engine.init.s": (span("engine.init", "s"), "s"),
        "engine.stop.converged": (c["engine.stop.converged"] / k, "count"),
        "engine.stop.cap": (c["engine.stop.cap"] / k, "count"),
        "engine.stop.diverged": (c["engine.stop.diverged"] / k, "count"),
        "engine.stop.numerical": (c["engine.stop.numerical"] / k, "count"),
        "gossip.messages": (c["gossip.messages"] / k, "count"),
        "utility.invert_derivative.engine_calls": (tracer.hot_count[inv + "engine"] / k, "count"),
        "utility.invert_derivative.oracle_calls": (tracer.hot_count[inv + "oracle"] / k, "count"),
        "utility.invert_derivative.s": ((tracer.hot_time[inv + "engine"]
                                         + tracer.hot_time[inv + "oracle"]) / k, "s"),
        "oracle.solve.self_s": (span("oracle.solve", "self_s"), "s"),
        "oracle.alloc_sum_evals": (c["oracle.alloc_sum_evals"] / k, "count"),
        "scenario.parse_scenario.self_s": (span("scenario.parse_scenario", "self_s"), "s"),
        "topology.build.s": (span("topology.build", "s"), "s"),
        "topology.build.calls": (span("topology.build", "calls"), "count"),
        "admission.admit.s": (span("admission.admit", "s"), "s"),
        "admission.admit.calls": (span("admission.admit", "calls"), "count"),
        "cli.main.self_s": (span("cli.main", "self_s"), "s"),
        "cli.trace_bytes": (traced.trace_bytes / k, "B"),
        "tracing.overhead_frac": (statistics.median(traced.pass_s)
                                  / statistics.median(plain.pass_s) - 1.0, "frac"),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "bandalloc" / "__init__.py").is_file():
        print(f"error: no bandalloc package under {SRC}", file=sys.stderr)
        return 2
    gen.check()
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / name
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{seed}-t{int(traced)}"

    wl = workloads.WORKLOADS[name](ROOT, work, seed)
    wl.build()  # bench-side input generation: not part of set-up
    sampler = Sampler()
    with sampler:
        setup = set_up(wl, sampler)
    wl.prepare(sys.modules["bandalloc"])

    outcomes: list[dict] = []
    selftest: list[bool] = []
    with sampler:
        plain = measure(wl, seconds / 2 if traced else seconds, outcomes, sampler,
                        selftest=selftest)
    metrics, informative = end_to_end(wl, plain, setup)
    bad, calls = plain.bad, plain.calls
    passes = str(len(plain.pass_s))
    tracer_ok = True
    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            # No calibration bursts here: they would land inside the spans.
            layered = measure(wl, seconds / 2, outcomes, sampler, tracer=tracer)
        finally:
            tracer.uninstall()
        bad, calls = bad + layered.bad, calls + layered.calls
        passes += f" untraced + {len(layered.pass_s)} traced"
        tracer_ok = tracer.self_time_error() < 1e-9
        tracer.write(work / f"spans-{tag}.csv")
        informative = {**metrics, **informative}
        metrics = per_layer(wl, plain, layered, tracer)

    with open(work / f"outcomes-{tag}.jsonl", "w", encoding="utf-8") as fh:
        for row in outcomes:
            fh.write(json.dumps(row) + "\n")
    for row in outcomes:
        if not row["ok"]:
            print(f"check failed: {row}", file=sys.stderr)
            break

    selftest_ok = bool(selftest) and all(selftest)
    print(f"workload: {name}  seed: {seed}  unit: {wl.unit}  calls: {calls}  passes: {passes}")
    print(f"self-test: corrupted report {'rejected' if selftest_ok else 'ACCEPTED'}")
    if traced:
        print(f"tracing: self times sum to root spans: {tracer_ok}")
    for key, (value, unit) in {**metrics, **informative}.items():
        print(f"{key}: {value:.6g} {unit}")
    correct = bad == 0 and selftest_ok and tracer_ok
    result = {
        "correct": correct,
        "attempted": calls,
        "failed": bad,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    saved = {**result, "informative": {k: {"value": v, "unit": u} for k, (v, u) in informative.items()}}
    (work / f"result-{tag}.json").write_text(json.dumps(saved, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
