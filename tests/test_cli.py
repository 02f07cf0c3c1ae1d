"""Command-line behavior: reports, exit codes, traces, generation."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import bandalloc
from bandalloc import cli, engine
from bandalloc.cli import ExitStatus, main
from bandalloc.scenario import generate_random_scenario, parse_scenario, serialize_scenario

from conftest import BENCH_PATH

# sha256 of ``run scenarios/paper_s5.json --trace F``
BENCH_TRACE_SHA256 = "225954c42d430a2bc43bd54bf61a214edc0c4949c5635bd5b5385fc8a8fa1e55"


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
        assert not trace.exists()

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
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        code = main(["oracle", str(bad)])
        capsys.readouterr()
        assert code == ExitStatus.INVALID_INPUT

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

    def test_stdlib_fallback_agrees(self, capsys, tmp_path):
        # without numpy the scalar inverse runs at every size
        pytest.importorskip("numpy")
        path = str(write_generated(tmp_path, 200, 1))
        code = main(["oracle", path])
        report = report_dict(capsys.readouterr().out)
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
        fallback = report_dict(child.stdout)
        # agreement to the 12 printed significant digits, up to one last-digit rounding
        assert float(fallback["lambda"]) == pytest.approx(float(report["lambda"]), rel=1e-11)
        assert floats(fallback["allocations"]) == pytest.approx(
            floats(report["allocations"]), rel=1e-11
        )

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
        assert not trace.exists()

    def test_stdlib_fallback_agrees(self, capsys, tmp_path):
        # without numpy the scalar kernel runs at every size
        pytest.importorskip("numpy")
        path = str(write_generated(tmp_path, 20, 1))
        code = main(["compare", path])
        report = report_dict(capsys.readouterr().out)
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
        fallback = report_dict(child.stdout)
        assert fallback["iterations"] == report["iterations"]
        # agreement to the 12 printed significant digits, up to one last-digit rounding
        assert floats(fallback["engine_allocations"]) == pytest.approx(
            floats(report["engine_allocations"]), rel=1e-11
        )


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

    def test_zero_devices_rejected(self, capsys):
        code = main(["gen", "--n", "0", "--seed", "1"])
        capsys.readouterr()
        assert code == ExitStatus.INVALID_INPUT


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


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    result = run_child("-m", "bandalloc", "run", str(BENCH_PATH))
    assert result.returncode == 0
    assert "converged: true" in result.stdout
