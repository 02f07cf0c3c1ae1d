"""scripts/same_bytes.py: which differing cases its patterns allow, and which
patterns a change adds to the allow file. The full comparison runs in CI."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess

import pytest

from conftest import REPO_ROOT

spec = importlib.util.spec_from_file_location(
    "same_bytes", REPO_ROOT / "scripts" / "same_bytes.py"
)
same_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bytes)

DIFFER = {
    "run ../in/g20-1.json --trace trace.csv": "run ../in/g20-1.json --trace trace.csv: trace",
    "gen --n 3 --seed 1": "gen --n 3 --seed 1: stdout",
}
TRACE = "run * --trace trace.csv: trace"


def test_no_pattern_fails_every_case(capsys):
    assert same_bytes.report("env", DIFFER) is True
    assert capsys.readouterr().out == (
        "env: 2 differ\n"
        "  differs: run ../in/g20-1.json --trace trace.csv: trace\n"
        "  differs: gen --n 3 --seed 1: stdout\n"
    )


def test_allowed_cases_listed_and_passed(capsys):
    assert same_bytes.report("env", DIFFER, [TRACE, "gen --n 3 *"]) is False
    assert capsys.readouterr().out == (
        "env: 2 differ, 2 allowed\n"
        "  allowed: run ../in/g20-1.json --trace trace.csv: trace\n"
        "  allowed: gen --n 3 --seed 1: stdout\n"
    )


@pytest.mark.parametrize(
    "pattern",
    [
        "gen --n 3",  # names no line whole
        "gen --n 3 --seed 1",  # the case, without the parts that differ
        "gen --n 3 --seed 1: stderr",  # another part
    ],
)
def test_a_second_case_fails_and_patterns_match_whole_lines(capsys, pattern):
    assert same_bytes.report("env", DIFFER, [TRACE, pattern]) is True
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  allowed: run ../in/g20-1.json --trace trace.csv: trace",
        "  differs: gen --n 3 --seed 1: stdout",
    ]


def test_a_pattern_allows_only_the_parts_it_names(capsys):
    name = "run ../in/g20-1.json --trace trace.csv"
    assert same_bytes.report("env", {name: f"{name}: exit, trace"}, [TRACE]) is True
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  differs: run ../in/g20-1.json --trace trace.csv: exit, trace"
    ]


def test_no_case_differs(capsys):
    assert same_bytes.report("env", {}, ["gen *"]) is False
    assert capsys.readouterr().out == "env: all identical\n"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_only_lines_added_since_the_commit_allow(tmp_path, monkeypatch):
    tmp_path = tmp_path.resolve()
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "init", "-q"], check=True)
    allow = tmp_path / "allow"
    allow.write_text(f"# header\n{TRACE}  # an earlier change\n")
    subprocess.run([*git, "add", "allow"], check=True)
    subprocess.run([*git, "commit", "-qm", "base"], check=True)
    base = subprocess.run(
        [*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    monkeypatch.setattr(same_bytes, "REPO", tmp_path)
    assert same_bytes.added_lines(base, "allow") == []
    with allow.open("a") as fh:
        fh.write(f"\n# why\ngen --n 3 *\n{TRACE}  # moved again\n")
    assert same_bytes.added_lines(base, "allow") == ["gen --n 3 *", TRACE]
