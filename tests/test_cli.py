"""Command-line behavior: reports, exit codes, traces, generation."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import pytest

import bandalloc
from bandalloc import cli, engine
from bandalloc.cli import ExitStatus, main
from bandalloc.scenario import (
    generate_random_scenario,
    parse_scenario,
    scenario_to_dict,
    serialize_scenario,
)
from bandalloc.topology import Topology

from conftest import BENCH_PATH

# sha256 of ``run scenarios/paper_s5.json --trace F``
BENCH_TRACE_SHA256 = "225954c42d430a2bc43bd54bf61a214edc0c4949c5635bd5b5385fc8a8fa1e55"
# sha256 of ``compare G --trace F --stride K`` on ``generate_random_scenario(n, seed)``,
# keyed (n, seed, K), with numpy installed; recorded while the CLI still kept
# every round in memory and wrote it with ``csv.writer``. The scalar kernel
# writes the same bytes.
ARRAY_TRACE_SHA256 = {
    (20, 1, 1): "1a36757028e8681435233add5848368aaf528057b3272b311e5753a3593d4604",
    (60, 3, 7): "2528d721317e5b548806f792aae5bebb6346502ae551972acb855444cb572974",
}
# sha256 of ``oracle`` stdout on ``generate_random_scenario(1000, seed)``
# (numpy installed), recorded before the scenario became columnar and the
# bisection decided its comparisons from numpy sums or skipped the midpoints
# its guards settle; the scalar bisection prints the same
ORACLE_1000_SHA256 = {
    1: "a44ebb1ac226853b108623c3e437d1da9da7eb92f107e4615e7a732f4e7acf4a",
    2: "2263fc2a060c45aa79aa1ee2aaeed12de66c9b2e6809c9c4b3e429fe675b0472",
    3: "82600f00758f860266812271aa1203091a6ba6a9eb6245dfddee241e1a5d77b7",
}
# sha256 of ``oracle`` stdout on ``generate_random_scenario(10_000, 1)`` (numpy
# installed), recorded before the edge list and device columns were checked whole;
# the scalar bisection prints the same
ORACLE_10000_1_SHA256 = "e1192d3fc18a2196b10e476cff7e4050ad453462bc4bebce7dddb643f805fd52"
# ``run G ARGS`` on ``generate_random_scenario(n, seed)`` (numpy installed),
# keyed (n, seed, ARGS): exit code and sha256 of stdout and stderr. A gain
# under 1/lambda_max that converges at n=200 in 344 rounds, and the generator's
# gains at n=60, which diverge after 110 rounds. Recorded before the array
# round decided its stop test and divergence streak from numpy sums; the
# scalar kernel gives the same outputs.
RUN_PINNED = {
    (200, 1, ("--eta", "0.08")): (
        0,
        "1ba6653b72d8a6db8650bedd9e7f9b67966dea56929b0d672a798b27c8161e44",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (60, 1, ()): (
        2,
        "847ee1cf2e1b3ea8507f1549c930645404f0288502d4509dd430341b9a69631b",
        "aae6d656b9d8fac4b941a26904054c74db439e55f680d4199dda738648df46a4",
    ),
}
# sha256 of what ``CMD FILE ARGS`` prints, ARGS from ``SMALL_N_ARGS``, on
# ``scenarios/paper_s5.json`` ("paper_s5") or on ``generate_random_scenario(n,
# seed)`` for seeds 1-8 in turn: for each file its stdout, its stderr, and
# "exit status K" and a newline when K is not 0. Keyed (CMD, "paper_s5" or n).
# Below ``engine.ARRAY_MIN_DEVICES`` only the scalar round and the scalar
# bisection run; every ``run`` diverges, and ``compare`` at n=15 seed 2
# overflows. Recorded before the scalar round wrote the inverse out inline.
SMALL_N_ARGS = {"compare": (), "oracle": (), "run": ("--eta", "0.9")}
SMALL_N_SHA256 = {
    ("compare", "paper_s5"): "801b1ffacf2c36e6483b4dec7d38e4de35cf5eb99a93d9f05f3bbc0535fee994",
    ("compare", 3): "1f48abd8c5c3c66a345f1783a49d5d7b4227da921e72f902c3755d9a530dacf1",
    ("compare", 5): "389c46a243a3e15512ed931cce8b6bbfa16dcb02a5863a688ada4200ec9579ba",
    ("compare", 8): "165a09a46d2198fd3592456450a576b4368136d140a1dc52fee540dc914b474a",
    ("compare", 12): "f5ceb6594261e0c15445fdf787fb6c451eb72106ba7e114fb43e0307912e3a65",
    ("compare", 15): "8b1c6697235e17e41d3f3e5c5e2b4cdce3b96f33ddd281ad4127cb8ffc4170b9",
    ("oracle", "paper_s5"): "322faf34b7d60f08b7ee266340286a86d8d0b9b9c60b5205a157bb7111fbcd99",
    ("oracle", 3): "d7e42b989616133a7c273465250adb50521c6638feab3214623161ee007b10dd",
    ("oracle", 5): "f6febccba5757d9ad8488c3fb99b4de7ae6003d3697caa55776cc19440684b60",
    ("oracle", 8): "22f5d6ea71656bdbb942595aff16ba7d3c6b34306057fe5dfccae558a2740c49",
    ("oracle", 12): "8fae2e6a73a01e28f3721a74f227cd52eb3ee3a9a2d94f35fc27363d9c978732",
    ("oracle", 15): "2405ef2199525ad028ac72758df9ea4a4c412b8fa2a368aaee0e5d5309c5ca59",
    ("run", "paper_s5"): "c6e8047c753ec99ef4be2a15f40bc6d5e0191a4b17ca14b17def2543f7ba3461",
    ("run", 3): "8174ccfde88cbe5a15816b29607c4eb4b69ea1ad709799981eb58139911d4c38",
    ("run", 5): "1c8d31cb3423cb2fec3dd37282c4960bfa6f022bc39421988d875634c19272d1",
    ("run", 8): "89276d3a400872f6dabcab19b90f87d775ca35f5df4d2715094402c1712e3a2c",
    ("run", 12): "0a229d0ae8c792ec1c39c1fa357cb7701fdaa4258ab3374101b21b408f78fc36",
    ("run", 15): "b7a7afb74ab15665a9296792f55f5bc3ea0bd46470e9f3f085c4f4a6aebdd324",
}
# sha256 of ``gen --n 50 --seed 3`` stdout
GEN_50_3_SHA256 = "46786ea305f96701a48b2bd53ccce498c07e67d00915f83de55c5b60534c7f55"


def report_dict(output: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for line in output.strip().splitlines():
        key, _, value = line.partition(": ")
        entries[key] = value
    return entries


def floats(field: str) -> list[float]:
    return [float(v) for v in field.split()]


def read_trace(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_generated(tmp_path, n: int, seed: int) -> pathlib.Path:
    path = tmp_path / f"g{n}-{seed}.json"
    path.write_text(serialize_scenario(generate_random_scenario(n, seed=seed)))
    return path


@pytest.fixture(params=["numpy", "scalar"])
def kernel(request, monkeypatch):
    """The round kernel of an engine run: numpy's, or the scalar one at every size."""
    if request.param == "numpy":
        pytest.importorskip("numpy")
    else:
        monkeypatch.setattr(engine, "ARRAY_MIN_DEVICES", sys.maxsize)
    return request.param


def run_child(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``args``, importing this process's package."""
    package_root = str(pathlib.Path(bandalloc.__file__).resolve().parents[1])
    paths = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )


class TestRunCommand:
    def test_benchmark_report(self, capsys):
        code = main(["run", str(BENCH_PATH)])
        out = capsys.readouterr().out
        assert code == ExitStatus.OK
        report = report_dict(out)
        assert report["command"] == "run"
        assert report["converged"] == "true"
        assert floats(report["confirmed_demands"]) == [1.0, 2.0, 2.0]
        allocations = floats(report["allocations"])
        assert allocations == pytest.approx([0.78, 1.67, 2.55], abs=0.01)
        assert float(report["allocation_total"]) == pytest.approx(5.0, abs=1e-6)
        assert float(report["consensus_residual"]) <= 1e-6
        assert float(report["constraint_residual"]) <= 1e-6
        assert int(report["iterations"]) > 0

    def test_missing_file_names_it(self, capsys):
        code = main(["run", "does_not_exist.json"])
        err = capsys.readouterr().err
        assert code == ExitStatus.INVALID_INPUT
        assert "does_not_exist.json" in err

    def test_invalid_scenario_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bandwidth": -1}')
        code = main(["run", str(bad)])
        err = capsys.readouterr().err
        assert code == ExitStatus.INVALID_INPUT
        assert "bad.json" in err

    def test_iteration_cap_exit_code(self, capsys):
        code = main(["run", str(BENCH_PATH), "--max-iters", "1"])
        out = capsys.readouterr().out
        assert code == ExitStatus.NOT_CONVERGED
        report = report_dict(out)
        assert report["converged"] == "false"
        assert int(report["iterations"]) == 1

    def test_unstable_gain_numerical_failure(self, capsys):
        code = main(["run", str(BENCH_PATH), "--eta", "50"])
        err = capsys.readouterr().err
        assert code == ExitStatus.NUMERICAL_FAILURE
        assert "numerical failure" in err

    def test_slow_divergence_not_converged(self, capsys):
        code = main(["run", str(BENCH_PATH), "--eta", "1.0"])
        captured = capsys.readouterr()
        assert code == ExitStatus.NOT_CONVERGED
        assert "reduce eta and mu" in captured.err

    def test_negative_override_rejected(self, capsys):
        code = main(["run", str(BENCH_PATH), "--mu", "-0.2"])
        err = capsys.readouterr().err
        assert code == ExitStatus.INVALID_INPUT
        assert "mu" in err

    def test_init_override_accepted(self, capsys):
        code = main(["run", str(BENCH_PATH), "--init", "random", "--seed", "4"])
        assert code == ExitStatus.OK

    def test_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(["run", str(BENCH_PATH), "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == ExitStatus.OK
        rows = read_trace(trace)
        assert list(rows[0]) == ["iter", "device", "x", "u_prime", "zeta", "q"]
        iterations = [int(r["iter"]) for r in rows]
        assert iterations == sorted(iterations)
        report = report_dict(out)
        assert len(rows) == 3 * (int(report["iterations"]) + 1)
        for row in rows[:3]:
            float(row["x"]), float(row["u_prime"]), float(row["zeta"]), float(row["q"])

    def test_trace_stride(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(["run", str(BENCH_PATH), "--trace", str(trace), "--stride", "25"])
        capsys.readouterr()
        assert code == ExitStatus.OK
        recorded = sorted({int(r["iter"]) for r in read_trace(trace)})
        assert recorded[0] == 0
        assert all(k % 25 == 0 for k in recorded[:-1])

    def test_bad_stride_rejected(self, capsys):
        code = main(["run", str(BENCH_PATH), "--stride", "0"])
        assert code == ExitStatus.INVALID_INPUT
        capsys.readouterr()

    def test_trace_bytes_pinned(self, capsys, tmp_path):
        # digest of the benchmark trace as first written; any change to the
        # engine arithmetic or the CSV format shows up here
        trace = tmp_path / "trace.csv"
        code = main(["run", str(BENCH_PATH), "--trace", str(trace)])
        capsys.readouterr()
        assert code == ExitStatus.OK
        data = trace.read_bytes()
        assert (len(data), data.count(b"\n")) == (29205, 340)
        assert hashlib.sha256(data).hexdigest() == BENCH_TRACE_SHA256

    def test_numerical_failure_leaves_no_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(["run", str(BENCH_PATH), "--trace", str(trace), "--eta", "50"])
        err = capsys.readouterr().err
        assert code == ExitStatus.NUMERICAL_FAILURE
        assert err.startswith("numerical failure")
        assert list(tmp_path.iterdir()) == []  # no trace, no temporary file

    def test_failed_run_keeps_existing_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"an earlier trace\n")
        code = main(["run", str(BENCH_PATH), "--trace", str(trace), "--eta", "50"])
        capsys.readouterr()
        assert code == ExitStatus.NUMERICAL_FAILURE
        assert trace.read_bytes() == b"an earlier trace\n"
        assert list(tmp_path.iterdir()) == [trace]
        code = main(["run", str(BENCH_PATH), "--trace", str(trace)])
        capsys.readouterr()
        assert code == ExitStatus.OK
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == BENCH_TRACE_SHA256
        assert list(tmp_path.iterdir()) == [trace]

    def test_trace_in_missing_directory(self, capsys, tmp_path):
        trace = tmp_path / "missing" / "trace.csv"
        code = main(["run", str(BENCH_PATH), "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == ExitStatus.INVALID_INPUT
        assert captured.err.startswith(f"error: cannot write trace file {trace}: ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_trace_into_directory_rejected_before_the_run(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "run", lambda *args, **kwargs: calls.append(args))
        code = main(["run", str(BENCH_PATH), "--trace", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == ExitStatus.INVALID_INPUT
        assert captured.err.startswith(f"error: cannot write trace file {tmp_path}: ")
        assert captured.out == ""
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o002], ids=["umask-022", "umask-002"])
    def test_trace_mode_is_that_of_a_new_file(self, capsys, tmp_path, umask):
        # the temporary file is created 0600; the trace must not keep that
        trace, reference = tmp_path / "trace.csv", tmp_path / "reference"
        previous = os.umask(umask)
        try:
            with open(reference, "w"):
                pass
            code = main(["run", str(BENCH_PATH), "--trace", str(trace)])
        finally:
            os.umask(previous)
        capsys.readouterr()
        assert code == ExitStatus.OK
        assert stat.S_IMODE(trace.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    def test_zero_demand_trace_holds_initial_state(self, capsys, tmp_path):
        doc = json.loads(BENCH_PATH.read_text())
        for device in doc["devices"]:
            device["demand"] = 0.0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        trace = tmp_path / "trace.csv"
        code = main(["run", str(path), "--trace", str(trace)])
        capsys.readouterr()
        assert code == ExitStatus.OK
        rows = read_trace(trace)
        assert [(r["iter"], r["device"]) for r in rows] == [("0", "0"), ("0", "1"), ("0", "2")]
        assert all(float(r["x"]) == 0.0 for r in rows)


class TestOracleCommand:
    def test_benchmark_report(self, capsys):
        code = main(["oracle", str(BENCH_PATH)])
        out = capsys.readouterr().out
        assert code == ExitStatus.OK
        report = report_dict(out)
        assert report["command"] == "oracle"
        assert float(report["lambda"]) == pytest.approx(1.0617, abs=1e-3)
        assert floats(report["allocations"]) == pytest.approx(
            [0.778, 1.676, 2.546], abs=1e-3
        )
        assert float(report["objective"]) == pytest.approx(15.3816, abs=1e-3)

    def test_single_device_allocates_demand(self, capsys, tmp_path):
        doc = {
            "bandwidth": 5.0,
            "snr": 100.0,
            "price": 0.01,
            "mu": 0.2,
            "eta": 0.2,
            "devices": [{"omega": 1.0, "demand": 3.0}],
            "edges": [],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        code = main(["oracle", str(path)])
        out = capsys.readouterr().out
        assert code == ExitStatus.OK
        assert floats(report_dict(out)["allocations"]) == pytest.approx([3.0], abs=1e-9)

    def test_invalid_file(self, capsys, tmp_path):
        # not a scenario; not UTF-8; nested too deeply for the JSON decoder
        for content in (b"[]", b"\xff\xfe{}", b"[" * 200_000 + b"]" * 200_000):
            bad = tmp_path / "bad.json"
            bad.write_bytes(content)
            code = main(["oracle", str(bad)])
            captured = capsys.readouterr()
            assert code == ExitStatus.INVALID_INPUT, content[:4]
            assert captured.err.startswith(f"error: invalid scenario {bad}: ")
            assert captured.out == ""

    @pytest.mark.parametrize("digits", [401, 5000])
    def test_oversized_integer_rejected(self, capsys, tmp_path, digits):
        # 401 digits overflows a float; 5000 is past the interpreter's limit for an int
        text = BENCH_PATH.read_text()
        bad = tmp_path / "huge.json"
        bad.write_text(text.replace('"bandwidth": 5.0', '"bandwidth": 1' + "0" * (digits - 1)))
        code = main(["oracle", str(bad)])
        captured = capsys.readouterr()
        assert code == ExitStatus.INVALID_INPUT
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid scenario {bad}: bandwidth ")

    @pytest.mark.parametrize("bandwidth", ["1e20", "1e60", "1e100", "3.4e154", "1e200", "1e300"])
    def test_large_bandwidth_keeps_the_optimum(self, capsys, tmp_path, bandwidth):
        # the paper instance's demands fit, so its optimum does not depend on
        # the bandwidth; the bisection bracket's lower end grows with it, and
        # from about 3.356e154 on, where the inverse overflows there, restarts
        # at the least-omega device's derivative at the confirmed total
        assert main(["oracle", str(BENCH_PATH)]) == ExitStatus.OK
        want = report_dict(capsys.readouterr().out)
        path = tmp_path / "wide.json"
        text = BENCH_PATH.read_text()
        path.write_text(text.replace('"bandwidth": 5.0', f'"bandwidth": {bandwidth}'))
        code = main(["oracle", str(path)])
        report = report_dict(capsys.readouterr().out)
        assert code == ExitStatus.OK
        assert report["bandwidth"] == f"{float(bandwidth):g}"
        assert floats(report["allocations"]) == pytest.approx(floats(want["allocations"]), abs=1e-9)
        assert float(report["lambda"]) == pytest.approx(float(want["lambda"]), abs=1e-9)
        code = main(["compare", str(path)])
        report = report_dict(capsys.readouterr().out)
        assert code == ExitStatus.OK
        assert float(report["max_gap"]) <= float(report["gap_threshold"])

    def test_overflowing_bracket_is_a_numerical_failure(self, capsys, tmp_path):
        # bandwidth * n overflows, and with it the bracket's lower end
        path = tmp_path / "overflow.json"
        path.write_text(BENCH_PATH.read_text().replace('"bandwidth": 5.0', '"bandwidth": 1e308'))
        code = main(["oracle", str(path)])
        captured = capsys.readouterr()
        assert code == ExitStatus.NUMERICAL_FAILURE
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: bisection bracket failure: a bracket end is not finite\n"
        )

    def test_negative_allocations_warned(self, capsys, tmp_path):
        # devices 0 and 2 weigh too little to hold bandwidth at the common marginal
        doc = json.loads(BENCH_PATH.read_text())
        doc["devices"][0]["omega"], doc["devices"][2]["omega"] = 0.001, 0.002
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == ExitStatus.OK
        out, err = capsys.readouterr()
        assert report_dict(out)["allocations"] == "-0.146329667658 5.28880081965 -0.142471151993"
        assert err == "warning: optimal allocation is negative for device(s) 0, 2\n"
        assert main(["oracle", str(BENCH_PATH)]) == ExitStatus.OK
        assert capsys.readouterr().err == ""

    def test_overflowing_inverse_names_device_and_value(self, capsys, tmp_path):
        # the bracket's lower end is finite, but squaring 2*price - v*c overflows
        # there, and at the restart from the confirmed total of 5e155 too
        doc = json.loads(BENCH_PATH.read_text())
        doc["bandwidth"] = 1e300
        for device, demand in zip(doc["devices"], (1e155, 2e155, 2e155)):
            device["demand"] = demand
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code = main(["oracle", str(path)])
        captured = capsys.readouterr()
        assert code == ExitStatus.NUMERICAL_FAILURE
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: bisection failure: arithmetic overflow inverting the "
            "derivative at v = -1e+154, device 0\n"
        )

    def test_stdlib_fallback_agrees(self, capsys, tmp_path):
        # without numpy the scalar inverse runs at every size
        pytest.importorskip("numpy")
        path = str(write_generated(tmp_path, 200, 1))
        code = main(["oracle", path])
        out = capsys.readouterr().out
        child = run_child(
            "-c",
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from bandalloc.cli import main\n"
            "code = main(['oracle', sys.argv[1]])\n"
            "assert 'bandalloc.array_kernel' not in sys.modules\n"
            "raise SystemExit(code)\n",
            path,
        )
        assert child.returncode == code == ExitStatus.OK, child.stderr
        assert child.stdout == out

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("duplicate last edge", "edges[16248]: duplicate edge (996, 4727)"),
            ("last device disconnected", "edges: communication graph is not connected"),
            (
                "endpoint 2**63",
                "edges[16248]: endpoint out of range [0, 10000) in (0, 9223372036854775808)",
            ),
        ],
    )
    def test_edge_errors_agree_without_numpy(self, capsys, tmp_path, fault, message):
        # at n=10^4 numpy's array check and connectivity test run, and
        # without numpy the per-entry loop and the union-find
        pytest.importorskip("numpy")
        doc = scenario_to_dict(generate_random_scenario(10_000, 1))
        edges = doc["edges"]
        if fault == "duplicate last edge":
            edges.append(edges[-1])
        elif fault == "last device disconnected":
            edges[:] = [edge for edge in edges if 9_999 not in edge]
            assert len(edges) >= 9_999  # enough edges that the array test runs
        else:
            edges.append([0, 2**63])
        path = tmp_path / "faulty.json"
        path.write_text(json.dumps(doc))
        code = main(["oracle", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (ExitStatus.INVALID_INPUT, "")
        assert err.endswith(f": {message}\n"), err
        child = run_child(
            "-c",
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from bandalloc.cli import main\n"
            "code = main(['oracle', sys.argv[1]])\n"
            "assert 'bandalloc.array_kernel' not in sys.modules\n"
            "raise SystemExit(code)\n",
            str(path),
        )
        assert (child.returncode, child.stdout, child.stderr) == (code, out, err)

    def test_degenerate_lambda_not_applicable(self, capsys, tmp_path):
        doc = {
            "bandwidth": 5.0,
            "snr": 100.0,
            "price": 0.01,
            "mu": 0.2,
            "eta": 0.2,
            "devices": [{"omega": 1.0, "demand": 0.0}],
            "edges": [],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code = main(["oracle", str(path)])
        out = capsys.readouterr().out
        assert code == ExitStatus.OK
        assert report_dict(out)["lambda"] == "n/a"


class TestCompareCommand:
    def test_all_zero_demands(self, capsys, tmp_path):
        devices = [{"omega": omega, "demand": 0.0} for omega in (1.0, 2.0, 3.0)]
        code = main(["compare", str(write_bench_with(tmp_path, devices=devices))])
        captured = capsys.readouterr()
        assert code == ExitStatus.OK
        assert captured.out == (
            "command: compare\ndevices: 3\nbandwidth: 5\nconfirmed_demands: 0 0 0\n"
            "confirmed_total: 0\nconverged: true\niterations: 0\n"
            "engine_allocations: 0 0 0\noracle_allocations: 0 0 0\nper_device_gap: 0 0 0\n"
            "max_gap: 0\ngap_threshold: 2e-05\nconsensus_value: nan\nlambda: n/a\n"
            "lambda_gap: n/a\n"
        )
        assert captured.err == "warning: all demands are zero; allocation is trivially zero\n"

    def test_benchmark_within_gate(self, capsys):
        code = main(["compare", str(BENCH_PATH)])
        out = capsys.readouterr().out
        assert code == ExitStatus.OK
        report = report_dict(out)
        assert report["converged"] == "true"
        assert float(report["max_gap"]) <= float(report["gap_threshold"])
        assert float(report["max_gap"]) <= 1e-3
        assert float(report["lambda_gap"]) <= 1e-3
        engine_allocations = floats(report["engine_allocations"])
        oracle_allocations = floats(report["oracle_allocations"])
        assert engine_allocations == pytest.approx(oracle_allocations, abs=1e-3)

    def test_generated_scenario_within_gate(self, capsys, tmp_path):
        path = tmp_path / "g10.json"
        path.write_text(serialize_scenario(generate_random_scenario(10, seed=1)))
        code = main(["compare", str(path)])
        capsys.readouterr()
        assert code == ExitStatus.OK

    def test_unstable_gain_fails(self, capsys):
        code = main(["compare", str(BENCH_PATH), "--eta", "50"])
        capsys.readouterr()
        assert code in (ExitStatus.NOT_CONVERGED, ExitStatus.NUMERICAL_FAILURE)

    def test_array_kernel_trace_rows(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        assert 20 >= engine.ARRAY_MIN_DEVICES
        trace = tmp_path / "trace.csv"
        code = main(["compare", str(write_generated(tmp_path, 20, 1)), "--trace", str(trace)])
        report = report_dict(capsys.readouterr().out)
        assert code == ExitStatus.OK
        rows = read_trace(trace)
        assert len(rows) == (int(report["iterations"]) + 1) * 20
        assert [int(r["iter"]) for r in rows[-20:]] == [int(report["iterations"])] * 20
        final = [f"{float(r['x']):.12g}" for r in rows[-20:]]
        assert report["engine_allocations"].split() == final

    @pytest.mark.parametrize("n, seed, stride", sorted(ARRAY_TRACE_SHA256))
    def test_array_kernel_trace_bytes_pinned(self, capsys, tmp_path, n, seed, stride, kernel):
        assert kernel == "scalar" or n >= engine.ARRAY_MIN_DEVICES
        trace = tmp_path / "trace.csv"
        argv = ["compare", str(write_generated(tmp_path, n, seed)), "--trace", str(trace)]
        code = main([*argv, "--stride", str(stride)])
        capsys.readouterr()
        assert code == ExitStatus.OK
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == ARRAY_TRACE_SHA256[n, seed, stride]

    def test_array_kernel_failure_leaves_no_trace_and_no_warning(self, capsys, tmp_path):
        pytest.importorskip("numpy")
        trace = tmp_path / "trace.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["compare", str(write_generated(tmp_path, 20, 14)), "--trace", str(trace)]
            )
        err = capsys.readouterr().err
        assert code == ExitStatus.NUMERICAL_FAILURE
        assert err == (
            "numerical failure: arithmetic overflow at iteration 309, device 1\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["g20-14.json"]

    def test_stdlib_fallback_agrees(self, capsys, tmp_path):
        # without numpy the scalar kernel runs at every size
        pytest.importorskip("numpy")
        path = str(write_generated(tmp_path, 20, 1))
        code = main(["compare", path])
        out = capsys.readouterr().out
        child = run_child(
            "-c",
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from bandalloc.cli import main\n"
            "code = main(['compare', sys.argv[1]])\n"
            "assert 'bandalloc.array_kernel' not in sys.modules\n"
            "raise SystemExit(code)\n",
            path,
        )
        assert child.returncode == code == ExitStatus.OK, child.stderr
        assert child.stdout == out


def test_run_and_compare_admit_once(capsys, monkeypatch):
    # the report header and the oracle reuse the engine's admission
    calls = []
    for module in (engine, cli):
        original = module.admit
        monkeypatch.setattr(
            module, "admit", lambda *args, f=original: calls.append(args) or f(*args)
        )
    for command in ("run", "compare"):
        calls.clear()
        assert main([command, str(BENCH_PATH)]) == ExitStatus.OK
        assert len(calls) == 1, command
    capsys.readouterr()


def test_run_builds_topology_once(capsys, build_calls):
    # parsing builds it; the engine reads it from the scenario
    assert main(["run", str(BENCH_PATH)]) == ExitStatus.OK
    assert len(build_calls) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_overrides_keep_the_topology(capsys, build_calls, command):
    # one build at parse and one at the settings' replacement; an invalid
    # override is named before the scenario is rebuilt
    argv = [command, str(BENCH_PATH), "--eta", "0.1", "--max-iters", "5000", "--init", "uniform"]
    assert main(argv) == ExitStatus.OK
    assert len(build_calls) == 2
    capsys.readouterr()
    assert main([command, str(BENCH_PATH), "--eta", "-0.1"]) == ExitStatus.INVALID_INPUT
    assert capsys.readouterr().err.startswith("error: invalid override: eta ")
    assert len(build_calls) == 3


@pytest.mark.parametrize(
    "flag, value, settings, name, expected",
    [
        ("--eta", "0.15", "globals", "eta", 0.15),
        ("--mu", "0.25", "globals", "mu", 0.25),
        ("--max-iters", "77", "options", "max_iters", 77),
        ("--tol-consensus", "3e-05", "options", "tol_consensus", 3e-5),
        ("--tol-constraint", "4e-05", "options", "tol_constraint", 4e-5),
        ("--init", "uniform", "options", "init_mode", "uniform"),
        ("--init", "random", "options", "init_mode", "seeded-random"),
        ("--seed", "9", "options", "seed", 9),
    ],
)
@pytest.mark.parametrize("command", ["run", "compare"])
def test_engine_flag_reaches_the_engine(
    capsys, monkeypatch, bench, command, flag, value, settings, name, expected
):
    # each flag replaces the setting its dest names, and nothing else
    seen, original = [], engine.run
    monkeypatch.setattr(
        engine, "run", lambda scenario, **kwargs: seen.append(scenario) or original(scenario)
    )
    main([command, str(BENCH_PATH), flag, value])
    capsys.readouterr()
    (scenario,) = seen
    want = dataclasses.replace(getattr(bench, settings), **{name: expected})
    assert getattr(scenario, settings) == want
    other = "options" if settings == "globals" else "globals"
    assert getattr(scenario, other) == getattr(bench, other)
    assert (scenario.omegas, scenario.demands, scenario.edges) == (
        bench.omegas, bench.demands, bench.edges
    )


def test_oracle_output_pinned(capsys, tmp_path):
    # without numpy the scalar bisection prints the same bytes
    for seed, digest in ORACLE_1000_SHA256.items():
        path = write_generated(tmp_path, 1000, seed)
        assert main(["oracle", str(path)]) == ExitStatus.OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, seed


def test_oracle_output_pinned_at_the_top_of_the_ladder(capsys, tmp_path):
    assert main(["oracle", str(write_generated(tmp_path, 10_000, 1))]) == ExitStatus.OK
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (ORACLE_10000_1_SHA256, "")


@pytest.mark.parametrize(
    "values, text",
    [
        (
            (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300),
            "nan inf -inf -0 4.94065645841e-324 1e+300",
        ),
        ((), ""),
        (
            (1.0, 2.5, 1 / 3, -1e-7, 123456789012345.0),
            "1 2.5 0.333333333333 -1e-07 1.23456789012e+14",
        ),
    ],
)
def test_fmt_vec_bytes(values, text):
    # the bytes of a per-value f-string join, pinned
    assert cli._fmt_vec(values) == text == " ".join(f"{v:.12g}" for v in values)


def test_adjacency_built_once_by_the_engine_only(capsys, monkeypatch, tmp_path):
    # oracle reads the edge list alone; run and compare build the adjacency once
    built = []
    build_adjacency = Topology.adjacency.func
    counted = functools.cached_property(lambda topo: built.append(topo) or build_adjacency(topo))
    counted.__set_name__(Topology, "adjacency")
    monkeypatch.setattr(Topology, "adjacency", counted)
    seen, original = [], engine.run
    monkeypatch.setattr(
        engine, "run", lambda scenario, **kwargs: seen.append(scenario) or original(scenario)
    )
    for path in (BENCH_PATH, write_generated(tmp_path, 20, 1)):
        assert main(["oracle", str(path)]) == ExitStatus.OK
        assert built == []
        main(["run", str(path), "--eta", "0.1"])
        main(["compare", str(path)])
        assert list(map(id, built)) == [id(scenario.topology) for scenario in seen]
        assert len(set(map(id, built))) == 2
        built.clear()
        seen.clear()
    capsys.readouterr()


@pytest.mark.parametrize("command, source", list(SMALL_N_SHA256))
def test_small_n_output_pinned(capsys, tmp_path, command, source):
    if source == "paper_s5":
        paths = [BENCH_PATH]
    else:
        assert source < engine.ARRAY_MIN_DEVICES
        paths = [write_generated(tmp_path, source, seed) for seed in range(1, 9)]
    transcript = []
    for path in paths:
        code = main([command, str(path), *SMALL_N_ARGS[command]])
        transcript += [*capsys.readouterr(), f"exit status {code}\n" if code else ""]
    digest = hashlib.sha256("".join(transcript).encode()).hexdigest()
    assert digest == SMALL_N_SHA256[command, source]


@pytest.mark.parametrize("n, seed, args", sorted(RUN_PINNED))
def test_array_run_output_pinned(capsys, tmp_path, n, seed, args, kernel):
    assert kernel == "scalar" or n >= engine.ARRAY_MIN_DEVICES
    code = main(["run", str(write_generated(tmp_path, n, seed)), *args])
    out, err = capsys.readouterr()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    assert (code, *digests) == RUN_PINNED[n, seed, args]


def test_numpy_not_loaded_below_threshold(tmp_path):
    # gen, and engine runs and oracle solves below the threshold, stay on the stdlib
    assert 10 < engine.ARRAY_MIN_DEVICES
    child = run_child(
        "-c",
        "import sys\n"
        "from bandalloc.cli import main\n"
        "assert main(['compare', sys.argv[1]]) == 0\n"
        "assert main(['oracle', sys.argv[2]]) == 0\n"
        "assert main(['gen', '--n', '50', '--seed', '1']) == 0\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n",
        str(BENCH_PATH),
        str(write_generated(tmp_path, 10, 1)),
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == "False\n"


def test_oracle_loads_array_kernel_from_threshold(tmp_path):
    pytest.importorskip("numpy")
    assert 50 >= engine.ARRAY_MIN_DEVICES
    child = run_child(
        "-c",
        "import sys\n"
        "from bandalloc.cli import main\n"
        "assert main(['oracle', sys.argv[1]]) == 0\n"
        "print('bandalloc.array_kernel' in sys.modules, file=sys.stderr)\n",
        str(write_generated(tmp_path, 50, 1)),
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == "True\n"


def test_load_scenario_loads_array_kernel_from_threshold(tmp_path):
    # parsing a document loads the kernels that check its edges on arrays
    pytest.importorskip("numpy")
    assert 50 >= engine.ARRAY_MIN_DEVICES
    child = run_child(
        "-c",
        "import sys\n"
        "from bandalloc import load_scenario\n"
        "load_scenario(sys.argv[1])\n"
        "print('bandalloc.array_kernel' in sys.modules, file=sys.stderr)\n",
        str(write_generated(tmp_path, 50, 1)),
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == "True\n"


def write_bench_with(tmp_path, **changes) -> pathlib.Path:
    doc = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    doc.update(changes)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["run", "oracle", "compare"])
@pytest.mark.parametrize(
    "changes, message",
    [
        (
            {"devices": [{"omega": 1.0, "demand": 1e308}] * 2, "edges": [[0, 1]]},
            "demands: the total overflows a float",
        ),
        ({"snr": 1e-300}, "snr is too small: log2(1 + snr) rounds to 0, got 1e-300"),
    ],
    ids=["demand-total", "snr"],
)
def test_unusable_scenario_is_invalid_input(capsys, tmp_path, command, changes, message):
    path = write_bench_with(tmp_path, **changes)
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == ExitStatus.INVALID_INPUT
    assert captured.err == f"error: invalid scenario {path}: {message}\n"
    assert captured.out == ""


def write_domain_boundary(tmp_path) -> pathlib.Path:
    """An input whose engine and oracle allocations both end at x = -1/c for device 1."""
    return write_bench_with(
        tmp_path,
        bandwidth=1.0,
        snr=1.0,
        price=1.0,
        devices=[{"omega": 1e150, "demand": 0.0}, {"omega": 1e-300, "demand": 1.0}],
        edges=[[0, 1]],
    )


# compare fails in the engine's final-allocation check, before the oracle runs
DOMAIN_BOUNDARY_ERRORS = {
    "oracle": "allocations[1]: bandwidth -1.0 is outside the utility domain (requires x > -1.0)",
    "compare": "allocation -1.0 outside the utility domain at iteration 10000, device 1",
    "run": "allocation -1.0 outside the utility domain at iteration 10000, device 1",
}


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_oracle_domain_boundary_is_numerical_failure(capsys, tmp_path, command):
    code = main([command, str(write_domain_boundary(tmp_path))])
    captured = capsys.readouterr()
    assert code == ExitStatus.NUMERICAL_FAILURE
    assert captured.err == f"numerical failure: {DOMAIN_BOUNDARY_ERRORS[command]}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "compare"])
def test_engine_domain_boundary_writes_no_trace(capsys, tmp_path, command):
    trace = tmp_path / "trace.csv"
    code = main([command, str(write_domain_boundary(tmp_path)), "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == ExitStatus.NUMERICAL_FAILURE
    assert captured.err == f"numerical failure: {DOMAIN_BOUNDARY_ERRORS[command]}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["changed.json"]


class TestGenCommand:
    def test_stdout_matches_library(self, capsys):
        code = main(["gen", "--n", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == ExitStatus.OK
        assert parse_scenario(out) == generate_random_scenario(5, seed=1)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "made.json"
        code = main(["gen", "--n", "3", "--seed", "9", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == ExitStatus.OK
        assert captured.out == ""
        assert parse_scenario(path.read_text()) == generate_random_scenario(3, seed=9)

    def test_stdout_pinned(self, capsys):
        assert main(["gen", "--n", "50", "--seed", "3"]) == ExitStatus.OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GEN_50_3_SHA256

    def test_zero_devices_rejected(self, capsys):
        code = main(["gen", "--n", "0", "--seed", "1"])
        capsys.readouterr()
        assert code == ExitStatus.INVALID_INPUT

    def test_unwritable_out_rejected(self, capsys, tmp_path):
        # into a missing directory, and onto a directory
        for out in (tmp_path / "missing" / "made.json", tmp_path):
            code = main(["gen", "--n", "3", "--seed", "9", "--out", str(out)])
            captured = capsys.readouterr()
            assert code == ExitStatus.INVALID_INPUT
            assert captured.err.startswith(f"error: cannot write {out}: ")
            assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == ExitStatus.INVALID_INPUT

    def test_unknown_flag(self, capsys):
        code = main(["run", str(BENCH_PATH), "--warp", "9"])
        capsys.readouterr()
        assert code == ExitStatus.INVALID_INPUT

    def test_no_arguments(self, capsys):
        code = main([])
        capsys.readouterr()
        assert code == ExitStatus.INVALID_INPUT


class TestRepeatedCalls:
    """``main`` calls in one process share one parser and nothing else."""

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_failed_run_leaves_no_state(self, capsys):
        assert main(["run", str(BENCH_PATH), "--eta", "50"]) == ExitStatus.NUMERICAL_FAILURE
        capsys.readouterr()
        assert main(["run", str(BENCH_PATH)]) == ExitStatus.OK
        again = capsys.readouterr()
        first = run_child("-m", "bandalloc", "run", str(BENCH_PATH))
        assert first.returncode == ExitStatus.OK, first.stderr
        assert (again.out, again.err) == (first.stdout, first.stderr)

    def test_trace_option_not_kept(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(["compare", str(BENCH_PATH), "--trace", str(trace)]) == ExitStatus.OK
        trace.unlink()
        assert main(["compare", str(BENCH_PATH)]) == ExitStatus.OK
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["main", "run"])
    def test_help_unchanged_by_other_calls(self, capsys, argv):
        def help_text():
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 0
            return capsys.readouterr()

        cli._build_parser.cache_clear()
        before = help_text()
        assert before.out.startswith("usage: bandalloc") and before.err == ""
        for other in (
            ["run", str(BENCH_PATH), "--eta", "50", "--stride", "3"],
            ["compare", str(BENCH_PATH), "--max-iters", "5"],
            ["run", str(BENCH_PATH), "--warp", "9"],
            ["gen", "--n", "3", "--seed", "1"],
        ):
            main(other)
        capsys.readouterr()
        assert help_text() == before

    def test_usage_error_text_repeats(self, capsys):
        errors = []
        for _ in range(2):
            assert main(["run", str(BENCH_PATH), "--warp", "9"]) == ExitStatus.INVALID_INPUT
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "error: unrecognized arguments: --warp 9\n"


@contextlib.contextmanager
def collector_state(enabled: bool):
    """The cyclic collector enabled or disabled; its state restored after."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """``main`` pauses the cyclic garbage collector for one command only."""

    EXITS = {
        "ok": (["oracle", str(BENCH_PATH)], ExitStatus.OK),
        "unreadable_file": (["run", "does_not_exist.json"], ExitStatus.INVALID_INPUT),
        "usage_error": (["run", str(BENCH_PATH), "--warp", "9"], ExitStatus.INVALID_INPUT),
        "not_converged": (["run", str(BENCH_PATH), "--max-iters", "1"], ExitStatus.NOT_CONVERGED),
        "numerical_failure": (
            ["run", str(BENCH_PATH), "--eta", "50"],
            ExitStatus.NUMERICAL_FAILURE,
        ),
        "help": (["--help"], SystemExit),
        "uncaught": (["oracle", str(BENCH_PATH)], RuntimeError),
    }

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector_on", "collector_off"])
    @pytest.mark.parametrize("path", list(EXITS))
    def test_state_restored_on_every_exit(self, capsys, monkeypatch, path, enabled):
        argv, expected = self.EXITS[path]
        if path == "uncaught":

            def solve(*args):
                raise RuntimeError("an error that no exit status names")

            monkeypatch.setattr(cli.oracle, "solve", solve)
        with collector_state(enabled):
            if isinstance(expected, int):
                assert main(argv) == expected
            else:
                with pytest.raises(expected):
                    main(argv)
            capsys.readouterr()
            assert gc.isenabled() is enabled

    def test_no_collection_inside_a_command(self, capsys, tmp_path):
        path = write_generated(tmp_path, 2000, 1)
        document = path.read_bytes()
        starts = []  # per collection started: are main and parse_scenario on the stack

        def record(phase, info):
            if phase == "start":
                codes = set()
                frame = sys._getframe(1)
                while frame is not None:
                    codes.add(frame.f_code)
                    frame = frame.f_back
                starts.append((main.__code__ in codes, parse_scenario.__code__ in codes))

        with collector_state(True):
            gc.callbacks.append(record)
            try:
                assert main(["oracle", str(path)]) == ExitStatus.OK
                parse_scenario(document)
            finally:
                gc.callbacks.remove(record)
        capsys.readouterr()
        assert not any(in_main for in_main, _ in starts)
        # the control: the same parse outside a command is collected
        assert any(in_parse for _, in_parse in starts)

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("source", ["paper_s5_scalar", "n20_array"])
    def test_no_cycles_left_per_round(self, capsys, tmp_path, source, traced):
        # the collector runs only between commands, so a round that made
        # reference cycles would leave more of them after a longer run
        if source == "n20_array":
            pytest.importorskip("numpy")
            path = write_generated(tmp_path, 20, 1)
        else:
            path = BENCH_PATH
        trace = ["--trace", str(tmp_path / "trace.csv")] if traced else []
        never_converge = ["--tol-consensus", "1e-300", "--tol-constraint", "1e-300"]

        def unreachable_after(rounds: int) -> int:
            argv = ["run", str(path), "--max-iters", str(rounds), *never_converge]
            gc.collect()
            assert main([*argv, *trace]) == ExitStatus.NOT_CONVERGED
            left = gc.collect()
            assert report_dict(capsys.readouterr().out)["iterations"] == str(rounds)
            return left

        with collector_state(True):
            unreachable_after(20)  # the parser's and lazy imports' one-off cycles
            short, long = unreachable_after(20), unreachable_after(2000)
        assert long <= short


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    result = run_child("-m", "bandalloc", "run", str(BENCH_PATH))
    assert result.returncode == 0
    assert "converged: true" in result.stdout
