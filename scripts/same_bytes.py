#!/usr/bin/env python3
"""Check that the working tree's CLI writes the same bytes as revision REV.

    python scripts/same_bytes.py REV

REV is a local git revision. It is checked out with ``git worktree add``
into a temporary directory, which is removed afterwards. Each case is one
CLI call, run on both trees, each call in its own process. A case compares
exit status, stdout, stderr and, for a traced call, the trace file's bytes.
The case list runs twice: once with every installed package, and once with
numpy, scipy and orjson hidden from the import system.

Cases: ``gen`` at n in {3, 15, 20, 60, 200} for seeds 1 to 3, and at n = 10^4
for seed 1. Then ``run --trace`` and ``compare --trace --stride 7`` on
``scenarios/paper_s5.json`` and on each smaller ``gen`` output, and ``oracle``
on the n = 10^4 output. The inputs are REV's ``gen`` outputs, so both trees
read the same files.

Prints one line per environment, and one line per case that differs. Exits
1 if any case differs.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# label: the packages hidden, comma-separated
ENVIRONMENTS = {"all packages": "", "numpy, scipy and orjson hidden": "numpy,scipy,orjson"}
GEN = [(n, seed) for n in (3, 15, 20, 60, 200) for seed in (1, 2, 3)]
GEN_ORACLE = (10_000, 1)
ENGINE_ARGS = (
    ("run", "--trace", "trace.csv"),
    ("compare", "--trace", "trace.csv", "--stride", "7"),
)
CASES = len(GEN) + 1 + len(ENGINE_ARGS) * (1 + len(GEN)) + 1

# argv: a src directory, the comma-separated names to hide (or ""), the CLI's
# arguments. Runs the CLI from that src directory with those packages unimportable.
BOOT = """\
import sys
src, hide, *argv = sys.argv[1:]
hidden = set(filter(None, hide.split(",")))


class Hide:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in hidden:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


assert hidden.isdisjoint(sys.modules), sorted(hidden & set(sys.modules))
sys.meta_path.insert(0, Hide())
sys.path.insert(0, src)
import bandalloc.cli

assert bandalloc.cli.__file__.startswith(src), (bandalloc.cli.__file__, src)
raise SystemExit(bandalloc.cli.main(argv))
"""


def call(src: Path, hide: str, cwd: Path, argv: list[str]) -> tuple:
    """(exit status, stdout, stderr, trace bytes or None) of one CLI call."""
    proc = subprocess.run(
        [sys.executable, "-c", BOOT, str(src), hide, *argv],
        cwd=cwd,
        capture_output=True,
        timeout=600,
    )
    trace = cwd / "trace.csv"
    data = trace.read_bytes() if trace.exists() else None
    trace.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, proc.stderr, data


def compare_trees(rev: Path, head: Path, hide: str, work: Path) -> list[str]:
    """The cases whose outputs differ between the trees ``rev`` and ``head``,
    each with the parts that differ."""
    for d in ("in", "rev", "head"):
        (work / d).mkdir()
    differ: list[str] = []

    def case(argv: list[str]) -> tuple:
        old = call(rev / "src", hide, work / "rev", argv)
        new = call(head / "src", hide, work / "head", argv)
        if old != new:
            parts = ("exit", "stdout", "stderr", "trace")
            moved = [part for part, a, b in zip(parts, old, new) if a != b]
            differ.append(f"{' '.join(argv)}: {', '.join(moved)}")
        return old

    (work / "in" / "paper_s5.json").write_bytes((REPO / "scenarios" / "paper_s5.json").read_bytes())
    files = ["../in/paper_s5.json"]
    for n, seed in [*GEN, GEN_ORACLE]:
        code, out, err, _ = case(["gen", "--n", str(n), "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"gen --n {n} --seed {seed} failed: {err.decode()}")
        (work / "in" / f"g{n}-{seed}.json").write_bytes(out)
        files.append(f"../in/g{n}-{seed}.json")
    oracle_file = files.pop()  # GEN_ORACLE's, generated last, is for the oracle alone
    for file in files:
        for command, *args in ENGINE_ARGS:
            case([command, file, *args])
    case(["oracle", oracle_file])
    return differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="local git revision to compare the working tree with")
    rev = parser.parse_args().rev
    git = ["git", "-C", str(REPO)]
    commit = subprocess.run(
        [*git, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    if not commit:
        print(f"error: {rev} is not a commit of this repository", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory(prefix="same_bytes.") as tmp:
        checkout = Path(tmp, "rev")
        add = [*git, "worktree", "add", "--detach", "--quiet", str(checkout), commit]
        subprocess.run(add, check=True)
        try:
            for k, (label, hide) in enumerate(ENVIRONMENTS.items()):
                work = Path(tmp, f"env{k}")
                work.mkdir()
                differ = compare_trees(checkout, REPO, hide, work)
                status = f"{len(differ)} differ" if differ else "all identical"
                print(f"{label}: {CASES} cases against {rev} ({commit[:12]}): {status}")
                for line in differ:
                    print(f"  differs: {line}")
                failed |= bool(differ)
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(checkout)], check=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
