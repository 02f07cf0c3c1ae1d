"""The benchmark's four workloads: their inputs, calls and output checks.

Every call goes through ``bandalloc.cli.main(argv)``. A workload builds its
scenario files from the workload seed, lists the calls of one pass, and
checks each call's report outside the timed region.

A check separates two things. ``ok`` is False when the report is wrong or
inconsistent (a wrong allocation, a trace with the wrong row count, an exit
code that contradicts the report): that is a failed output check. ``stop``
records how the engine ended (``converged``, ``cap``, ``diverged``,
``numerical``), so an honest non-converged report is an outcome, counted in
``failed_frac`` through its exit code, not a failed check.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import gen

# The paper's two-decimal allocations; the engine's lie within 0.01 of them
# (1.6759 for the second), as the repository's acceptance test checks.
S5_ALLOCATIONS = (0.78, 1.67, 2.55)
S5_PASS_CALLS = 100
MESH_N, MESH_COUNT = 200, 4
DEFAULT_GAINS_SIZES = ((20, 4), (60, 8))  # (n, instances); n=60 mostly fails
LARGE_N, LARGE_COUNT = 10_000, 5
# 12 significant digits, as the CLI prints: relative rounding of one value.
PRINT_REL = 5e-12
MAX_ITERS = 10000  # the scenario default; no generated scenario overrides it


@dataclass
class Call:
    argv: list[str]
    n: int
    seed: int | None  # instance seed; None for the bundled paper instance
    eta: float
    lam_max: float | None
    doc: dict = field(repr=False, default_factory=dict)
    trace: Path | None = None
    ref: tuple[float, ...] = ()  # oracle allocations, filled in set-up
    confirmed_total: float = 0.0


@dataclass
class Outcome:
    ok: bool
    stop: str  # converged | cap | diverged | numerical | n/a
    rounds: int
    why: str = ""


class Workload:
    name: str
    # informative metrics printed for this workload besides the JSON ones
    reports: tuple[str, ...]
    unit: str
    # report key the check validates, bumped by ``corrupt`` in the self-test
    corrupt_key: str

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root, self.work = root, work
        self.rng = random.Random(f"{self.name}/{seed}")
        self.calls: list[Call] = []

    def build(self) -> None:
        """Generate the inputs and the call list of one pass."""
        raise NotImplementedError

    def warmup(self) -> list[str]:
        raise NotImplementedError

    def prepare(self, bandalloc) -> None:
        """Untimed set-up that needs the package (oracle references)."""

    def check(self, call: Call, code: int, out: str, err: str) -> Outcome:
        raise NotImplementedError

    def units(self, call: Call, outcome: Outcome) -> int:
        """Work units of one call: device-rounds unless the workload says otherwise."""
        return call.n * outcome.rounds

    # helpers

    def _write(self, name: str, doc: dict) -> Path:
        path = self.work / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def _generated(self, n: int, count: int, auto_eta: bool) -> list[tuple[int, dict, float | None]]:
        out = []
        for k in range(count):
            inst = self.rng.randrange(2**31)
            doc = gen.scenario_doc(n, inst, gen.stratified_extra(n, k, count, self.rng))
            lam = lambda_max(doc) if n <= 1000 else None
            if auto_eta:
                doc["eta"] = 1.0 / lam
            out.append((inst, doc, lam))
        return out


def lambda_max(doc: dict) -> float:
    """Largest Laplacian eigenvalue of the scenario graph (dense numpy)."""
    import numpy as np

    n = len(doc["devices"])
    lap = np.zeros((n, n))
    for i, j in doc["edges"]:
        lap[i, j] = lap[j, i] = -1.0
    lap[np.diag_indices(n)] = -lap.sum(axis=1)
    return float(np.linalg.eigvalsh(lap)[-1])


def parse_report(text: str) -> dict[str, str]:
    rep = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            rep[key] = value
    return rep


def floats(value: str) -> list[float]:
    return [float(v) for v in value.split()]


def engine_stop(code: int, rep: dict[str, str], err: str, max_iters: int) -> tuple[str, int]:
    """Stop reason and rounds run, read from a run/compare report."""
    if code == 3:
        m = re.search(r"at iteration (\d+)", err)
        if m is None:
            raise ValueError("numerical failure without an iteration")
        return "numerical", int(m.group(1))
    rounds = int(rep["iterations"])
    if rep["converged"] == "true":
        return "converged", rounds
    return ("cap" if rounds >= max_iters else "diverged"), rounds


def _checked(fn):
    """Turn a malformed report (missing key, bad number) into a failed check."""

    def wrapper(self, call, code, out, err):
        try:
            return fn(self, call, code, out, err)
        except (KeyError, ValueError, IndexError, OSError) as exc:
            return Outcome(False, "n/a", 0, f"malformed report: {exc!r}")

    return wrapper


class S5Compare(Workload):
    """The paper's instance: n=3, 112 rounds. Fixed per-call costs dominate."""

    name = "s5_compare"
    reports = ("setup_s", "wall_s", "op_p50_ms", "op_p99_ms", "op_samples", "rounds_total",
               "failed_frac", "peak_rss_mb")
    unit = "call"
    corrupt_key = "engine_allocations"

    def build(self) -> None:
        path = self.root / "scenarios" / "paper_s5.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        call = Call(["compare", str(path)], len(doc["devices"]), None, doc["eta"],
                    lambda_max(doc), doc)
        self.calls = [call] * S5_PASS_CALLS

    def warmup(self) -> list[str]:
        return list(self.calls[0].argv)

    @_checked
    def check(self, call, code, out, err):
        rep = parse_report(out)
        stop, rounds = engine_stop(code, rep, err, MAX_ITERS)
        got = floats(rep["engine_allocations"])
        err_max = max(abs(a - b) for a, b in zip(got, S5_ALLOCATIONS, strict=True))
        if code != 0 or err_max > 0.01 or abs(math.fsum(got) - 5.0) > 1e-6:
            return Outcome(False, stop, rounds, f"exit {code}, allocations {got}")
        return Outcome(True, stop, rounds)

    def units(self, call, outcome):
        return 1


class Mesh200Run(Workload):
    """n=200 with stable gains eta = 1/lambda_max(L): engine rounds and the
    in-memory trace dominate; the oracle is never called."""

    name = "mesh200_run"
    reports = ("setup_s", "wall_s", "rounds_total", "device_rounds_per_s",
               "failed_frac", "peak_rss_mb")
    unit = "device-round"
    corrupt_key = "allocations"

    def build(self) -> None:
        for k, (inst, doc, lam) in enumerate(self._generated(MESH_N, MESH_COUNT, True)):
            path = self._write(f"mesh{k}.json", doc)
            self.calls.append(Call(["run", str(path)], MESH_N, inst, doc["eta"], lam, doc))

    def warmup(self) -> list[str]:
        return ["run", self.calls[0].argv[1], "--max-iters", "20"]

    def prepare(self, bandalloc) -> None:
        for call in self.calls:
            scenario = bandalloc.parse_scenario(json.dumps(call.doc))
            confirmed = bandalloc.admit(scenario.demands, scenario.globals.bandwidth)
            call.ref = bandalloc.solve(scenario, confirmed).allocations
            call.confirmed_total = confirmed.total

    @_checked
    def check(self, call, code, out, err):
        rep = parse_report(out)
        stop, rounds = engine_stop(code, rep, err, MAX_ITERS)
        xs = floats(rep["allocations"])
        if code == 2 and stop == "cap":
            # Slow convergence at the iteration cap, reported as such.
            return Outcome(len(xs) == call.n, stop, rounds, "" if len(xs) == call.n else "count")
        tol_cons, tol_constr = 1e-6, 1e-6
        gap = max(abs(a - b) for a, b in zip(xs, call.ref, strict=True))
        total_err = abs(float(rep["allocation_total"]) - call.confirmed_total)
        if code != 0 or stop != "converged":
            return Outcome(False, stop, rounds, f"exit {code}, stop {stop}")
        if gap > 10 * (tol_cons + tol_constr):
            return Outcome(False, stop, rounds, f"allocation gap {gap}")
        if total_err > tol_constr + 2 * PRINT_REL * call.confirmed_total:
            return Outcome(False, stop, rounds, f"total off by {total_err}")
        return Outcome(True, stop, rounds)


class DefaultGainsTrace(Workload):
    """Generator-default gains (eta = mu = 0.2) at n=20 (mostly converges) and
    n=60 (mostly fails), with a CSV trace: divergence, NumericalError, CSV
    writing and the oracle at moderate n."""

    name = "default_gains_trace"
    reports = ("setup_s", "device_rounds_per_s", "failed_frac")
    unit = "device-round"
    corrupt_key = "iterations"

    def build(self) -> None:
        for n, count in DEFAULT_GAINS_SIZES:
            for k, (inst, doc, lam) in enumerate(self._generated(n, count, False)):
                path = self._write(f"dg{n}_{k}.json", doc)
                trace = self.work / f"dg{n}_{k}.csv"
                self.calls.append(Call(["compare", str(path), "--trace", str(trace)],
                                       n, inst, doc["eta"], lam, doc, trace))

    def warmup(self) -> list[str]:
        return ["compare", self.calls[0].argv[1], "--trace", str(self.work / "warmup.csv"),
                "--max-iters", "20"]

    @_checked
    def check(self, call, code, out, err):
        rep = parse_report(out)
        stop, rounds = engine_stop(code, rep, err, MAX_ITERS)
        if code == 3:
            if not err.startswith("numerical failure") or call.trace.exists():
                return Outcome(False, stop, rounds, "numerical failure report")
            return Outcome(True, stop, rounds)
        with open(call.trace, encoding="utf-8") as fh:
            header = fh.readline()
            rows = sum(1 for _ in fh)
        if header.strip() != "iter,device,x,u_prime,zeta,q":
            return Outcome(False, stop, rounds, f"trace header {header!r}")
        if rows != (rounds + 1) * call.n:
            return Outcome(False, stop, rounds, f"trace has {rows} rows, rounds {rounds}")
        passed = stop == "converged" and float(rep["max_gap"]) <= float(rep["gap_threshold"])
        if code != (0 if passed else 2):
            return Outcome(False, stop, rounds, f"exit {code} contradicts the report")
        return Outcome(True, stop, rounds)


class LargeOracle(Workload):
    """n=10^4 through the oracle: JSON parse and validation, topology build,
    admission and bisection. The engine is never called."""

    name = "large_oracle"
    reports = ("setup_s", "wall_s", "op_p50_ms", "op_samples", "failed_frac", "peak_rss_mb")
    unit = "device"
    corrupt_key = "allocations"

    def build(self) -> None:
        for k, (inst, doc, lam) in enumerate(self._generated(LARGE_N, LARGE_COUNT, False)):
            path = self._write(f"large{k}.json", doc)
            self.calls.append(Call(["oracle", str(path)], LARGE_N, inst, doc["eta"], lam, doc))

    def warmup(self) -> list[str]:
        return list(self.calls[0].argv)

    def units(self, call, outcome):
        return call.n

    @_checked
    def check(self, call, code, out, err):
        rep = parse_report(out)
        if code != 0:
            return Outcome(False, "n/a", 0, f"exit {code}")
        doc = call.doc
        c = math.log2(1.0 + doc["snr"])
        price = doc["price"]
        lam = float(rep["lambda"])
        xs = floats(rep["allocations"])
        if len(xs) != call.n:
            return Outcome(False, "n/a", 0, f"{len(xs)} allocations")
        # Each printed x is within PRINT_REL of the solver's; the bisection
        # stops within 1e-12 * max(1, |lambda|) of the common marginal.
        slope_sum = 0.0
        for dev, x in zip(doc["devices"], xs):
            w = dev["omega"]
            curvature = w * c * c / (c * x + 1.0) ** 2 + 2.0 * price
            slope_sum += 1.0 / curvature
            marginal = w * c / (c * x + 1.0) - 2.0 * price * x
            tol = 2 * (curvature * abs(x) + abs(lam)) * PRINT_REL + 1e-14
            if abs(marginal - lam) > tol:
                return Outcome(False, "n/a", 0, f"marginal {marginal} != lambda {lam}")
        total = float(rep["allocation_total"])
        confirmed = float(rep["confirmed_total"])
        tol = slope_sum * 1e-12 * max(1.0, abs(lam)) + 2 * PRINT_REL * abs(confirmed)
        if abs(total - confirmed) > tol:
            return Outcome(False, "n/a", 0, f"total {total} != confirmed {confirmed}")
        return Outcome(True, "n/a", 0)


WORKLOADS = {w.name: w for w in (S5Compare, Mesh200Run, DefaultGainsTrace, LargeOracle)}


def corrupt(out: str, key: str) -> str:
    """``out`` with the first value of ``key`` changed, which the check must reject."""
    lines = out.splitlines()
    for i, line in enumerate(lines):
        name, _, value = line.partition(": ")
        if name == key:
            first, _, rest = value.partition(" ")
            bumped = str(int(first) + 1) if key == "iterations" else repr(float(first) + 0.5)
            lines[i] = f"{key}: {bumped} {rest}".rstrip()
    return "\n".join(lines) + "\n"
