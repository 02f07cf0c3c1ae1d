"""scripts/plot_trace.py: a gnuplot script from a trace CSV, and its input errors."""

from __future__ import annotations

import subprocess
import sys

import pytest

from bandalloc.cli import ExitStatus, main

from conftest import BENCH_PATH, REPO_ROOT

SCRIPT = REPO_ROOT / "scripts" / "plot_trace.py"
HEADER = "iter,device,x,u_prime,zeta,q\r\n"


def plot(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True
    )


def test_script_plots_every_device_of_the_paper_trace(capsys, tmp_path):
    trace = tmp_path / "s5.csv"
    assert main(["run", str(BENCH_PATH), "--trace", str(trace)]) == ExitStatus.OK
    capsys.readouterr()
    done = plot(trace)
    gp = tmp_path / "s5.gp"
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"gnuplot script written to {gp}\n"
    script = gp.read_text(encoding="utf-8")
    assert f'set output "{tmp_path / "s5.png"}"\n' in script
    # both panels read the CSV, for devices 0 to 2 of the three
    assert script.count(f'"{trace}" every ::1') == 2
    assert script.count("plot for [d=0:2] ") == 2
    assert ":3 with lines" in script and ":4 with lines" in script
    out = tmp_path / "named.gp"
    assert plot(trace, "--out", out).returncode == 0
    assert out.read_text(encoding="utf-8") == script


def test_wrong_header_is_an_error(tmp_path):
    trace = tmp_path / "wrong.csv"
    trace.write_text("iter,device,x\r\n0,0,1.0\r\n", encoding="utf-8")
    done = plot(trace)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: unexpected trace header ['iter', 'device', 'x']\n"
    assert not trace.with_suffix(".gp").exists()


def test_header_without_rows_is_an_error(tmp_path):
    trace = tmp_path / "empty.csv"
    trace.write_text(HEADER, encoding="utf-8")
    done = plot(trace)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "error: trace has no rows\n")
    assert not trace.with_suffix(".gp").exists()


def test_missing_file_is_an_error(tmp_path):
    trace = tmp_path / "missing.csv"
    done = plot(trace)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(f"error: cannot read {trace}: ")
    assert "Traceback" not in done.stderr and done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "rows, line, row",
    [
        ("0,a,1,1,1,1\r\n", 2, "0,a,1,1,1,1"),
        ("0,0,1,1,1,1\r\n0\r\n", 3, "0"),
        ("0,-3,1,1,1,1\r\n", 2, "0,-3,1,1,1,1"),
        # an unclosed quote runs to the end of the file, line breaks included
        ('0,0,1,"1\r\n', 2, "0,0,1,1\r\n"),
    ],
    ids=["device-not-an-int", "short-row", "negative-device", "unclosed-quote"],
)
def test_malformed_row_is_an_error(tmp_path, rows, line, row):
    trace = tmp_path / "bad.csv"
    trace.write_text(HEADER + rows, encoding="utf-8")
    done = plot(trace)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"error: line {line}: expected iter,device,x,u_prime,zeta,q with a device "
        f"index >= 0, got {row!r}\n"
    )
    assert not trace.with_suffix(".gp").exists()


def test_undecodable_trace_is_an_error(tmp_path):
    trace = tmp_path / "latin.csv"
    trace.write_bytes(HEADER.encode() + b"0,0,1,1,1,\xff\r\n")
    done = plot(trace)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(f"error: cannot read {trace}: 'utf-8' codec can't decode")
    assert "Traceback" not in done.stderr and done.stderr.count("\n") == 1
