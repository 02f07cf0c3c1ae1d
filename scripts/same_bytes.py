#!/usr/bin/env python3
"""Check that the working tree's CLI writes the same bytes as revision REV.

    python scripts/same_bytes.py REV [--allow PATTERN ...]

REV is a local git revision. It is checked out with ``git worktree add``
into a temporary directory, which is removed afterwards. Each case is one
CLI call, run on both trees, each call in its own process. A case compares
exit status, stdout, stderr and, for a traced call, the trace file's bytes
and permission bits (``stat.S_IMODE``), under the umask this script runs with.
The case list runs twice: once with every installed package, and once with
numpy, scipy and orjson hidden from the import system.

The cases: ``gen`` at n in {1, 2, 3, 8, 15, 20, 60, 200, 2000} for seeds 1 to
3, and at n = 10^4 for seed 1. Then ``run``, ``run --trace``, ``compare`` and
``compare --trace --stride 7`` on ``scenarios/paper_s5.json`` and on each
``gen`` output of n <= 200; ``oracle`` and ``compare`` on three extreme
variants of ``paper_s5`` (bandwidth 1e300, omegas times 1e152, omegas 1e308);
two stalled runs that end at their iteration cap, ``compare`` at n = 60 and
``run`` at n = 200, with tolerances of 1e-300 and eta 0.05; ``oracle`` on the
n = 10^4 output; ``run``, ``run --trace``, ``compare`` and ``oracle`` on
``paper_s5`` and on the n = 20, seed 1 output with every demand set to 0;
``run``, ``compare`` and ``oracle`` on ``paper_s5`` with device 0's demand
1e300 and a bandwidth of 1e-30 or 1e-20, whose admission scale is subnormal;
and ``run`` and ``compare`` on ``paper_s5`` and on the n = 20, seed 1 output
with each of ``--mu 0.1``, ``--init uniform`` and ``--init random --seed 5``,
and with the rejected overrides ``--eta -1`` and ``--max-iters 0``. The
inputs are REV's ``gen`` outputs, so both trees read the same files.

Then the working tree's outputs in the two environments are compared case
by case, so that a package that changes an output shows even where REV has
the same fault.

A change that moves some outputs on purpose names them with shell-style
patterns (``fnmatch``), each matched against the whole line the script
prints for a case that differs: the case name, a colon and the parts that
differ, such as ``compare * --trace trace.csv --stride 7: trace``. So a
pattern names the parts that may move as well as the cases. The patterns
are each line of the working tree's ``scripts/same_bytes.allow`` that the
file did not hold at REV (``#`` starts a comment), and each ``--allow
PATTERN``. A line that the file held at REV allows nothing, so a change that
moves a case again adds its pattern again, with a comment of its own. The
patterns apply only to the comparison with REV. The comparison across the
two environments stays strict.

Prints one line per environment and one for the comparison across them, each
followed by one line per allowed case that differs, then one per other case
that differs. Exits 1 if any case differs that no pattern allows.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ALLOW_FILE = "scripts/same_bytes.allow"  # from the repository's root
# label: the packages hidden, comma-separated
ENVIRONMENTS = {"all packages": "", "numpy, scipy and orjson hidden": "numpy,scipy,orjson"}
GEN = [(n, seed) for n in (1, 2, 3, 8, 15, 20, 60, 200, 2000) for seed in (1, 2, 3)]
GEN_ORACLE = (10_000, 1)
ENGINE_MAX_N = 200  # the gen outputs the engine runs on
ENGINE_ARGS = (
    ("run",),
    ("run", "--trace", "trace.csv"),
    ("compare",),
    ("compare", "--trace", "trace.csv", "--stride", "7"),
)
EXTREME_COMMANDS = ("oracle", "compare")  # on each of the three variants of extremes()
# stalled, to the cap: most stop and streak comparisons of the numpy rounds
# fall inside their error bound, and math.fsum decides them
STALLED_ARGS = (
    "--eta", "0.05", "--tol-consensus", "1e-300", "--tol-constraint", "1e-300", "--max-iters", "3000"
)
STALLED = (("compare", "g60-3.json"), ("run", "g200-1.json"))
# every demand set to 0: nothing is admitted, below and from the array threshold
ZERO_DEMAND = ("paper_s5.json", "g20-1.json")
ZERO_DEMAND_ARGS = (("run",), ("run", "--trace", "trace.csv"), ("compare",), ("oracle",))
# device 0's demand 1e300 against these bandwidths: bandwidth / total is subnormal
SUBNORMAL_BANDWIDTHS = (1e-30, 1e-20)
SUBNORMAL_COMMANDS = ("run", "compare", "oracle")
# engine flags, each of which replaces a field of the scenario's Globals or
# SolverOptions; the last two are rejected, with exit 1 and "invalid override: ..."
OVERRIDE_ARGS = (
    ("--mu", "0.1"),
    ("--init", "uniform"),
    ("--init", "random", "--seed", "5"),
    ("--eta", "-1"),
    ("--max-iters", "0"),
)
OVERRIDE = ("paper_s5.json", "g20-1.json")
OVERRIDE_COMMANDS = ("run", "compare")

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
    """(exit status, stdout, stderr, trace bytes, trace permission bits) of
    one CLI call; the trace's parts are None when it wrote no trace."""
    proc = subprocess.run(
        [sys.executable, "-c", BOOT, str(src), hide, *argv],
        cwd=cwd,
        capture_output=True,
        timeout=600,
    )
    trace = cwd / "trace.csv"
    data = mode = None
    if trace.exists():
        data, mode = trace.read_bytes(), stat.S_IMODE(trace.stat().st_mode)
        trace.unlink()
    return proc.returncode, proc.stdout, proc.stderr, data, mode


def differs(case: str, old: tuple, new: tuple) -> str | None:
    """``case`` and the parts in which two outputs of it differ, or None."""
    if old == new:
        return None
    parts = ("exit", "stdout", "stderr", "trace", "trace mode")
    moved = [part for part, a, b in zip(parts, old, new) if a != b]
    return f"{case}: {', '.join(moved)}"


def compare_trees(rev: Path, head: Path, hide: str, work: Path) -> tuple[dict, dict]:
    """The cases whose outputs differ between the trees ``rev`` and ``head``,
    each with the line naming the parts that differ; and ``head``'s outputs by
    case, with sha256 digests in place of output bytes."""
    for d in ("in", "rev", "head"):
        (work / d).mkdir()
    differ: dict[str, str] = {}
    outputs: dict[str, tuple] = {}

    def case(argv: list[str]) -> tuple:
        old = call(rev / "src", hide, work / "rev", argv)
        new = call(head / "src", hide, work / "head", argv)
        name = " ".join(argv)
        if line := differs(name, old, new):
            differ[name] = line
        code, *texts, mode = new
        digests = (hashlib.sha256(part).digest() if part else part for part in texts)
        outputs[name] = (code, *digests, mode)
        return old

    s5 = (REPO / "scenarios" / "paper_s5.json").read_bytes()
    (work / "in" / "paper_s5.json").write_bytes(s5)
    files = ["../in/paper_s5.json"]
    for n, seed in [*GEN, GEN_ORACLE]:
        code, out, err, *_ = case(["gen", "--n", str(n), "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"gen --n {n} --seed {seed} failed: {err.decode()}")
        (work / "in" / f"g{n}-{seed}.json").write_bytes(out)
        if n <= ENGINE_MAX_N:
            files.append(f"../in/g{n}-{seed}.json")
    for file in files:
        for command, *args in ENGINE_ARGS:
            case([command, file, *args])
    for name, doc in extremes(json.loads(s5)).items():
        (work / "in" / name).write_text(json.dumps(doc))
        for command in EXTREME_COMMANDS:
            case([command, f"../in/{name}"])
    for command, name in STALLED:
        case([command, f"../in/{name}", *STALLED_ARGS])
    n, seed = GEN_ORACLE
    case(["oracle", f"../in/g{n}-{seed}.json"])
    for name in ZERO_DEMAND:
        doc = json.loads((work / "in" / name).read_bytes())
        doc["devices"] = [{**device, "demand": 0.0} for device in doc["devices"]]
        (work / "in" / f"zero-{name}").write_text(json.dumps(doc))
        for command, *args in ZERO_DEMAND_ARGS:
            case([command, f"../in/zero-{name}", *args])
    doc = json.loads(s5)
    for bandwidth in SUBNORMAL_BANDWIDTHS:
        devices = [{**doc["devices"][0], "demand": 1e300}, *doc["devices"][1:]]
        name = f"s5-demand-1e300-bandwidth-{bandwidth:g}.json"
        variant = {**doc, "bandwidth": bandwidth, "devices": devices}
        (work / "in" / name).write_text(json.dumps(variant))
        for command in SUBNORMAL_COMMANDS:
            case([command, f"../in/{name}"])
    for name in OVERRIDE:
        for command in OVERRIDE_COMMANDS:
            for args in OVERRIDE_ARGS:
                case([command, f"../in/{name}", *args])
    return differ, outputs


def extremes(doc: dict) -> dict[str, dict]:
    """``doc`` with its bandwidth 1e300, its omegas times 1e152 and its omegas 1e308, by file name."""

    def devices(omega) -> list[dict]:
        return [{**device, "omega": omega(device["omega"])} for device in doc["devices"]]

    return {
        "s5-bandwidth-1e300.json": {**doc, "bandwidth": 1e300},
        "s5-omegas-x1e152.json": {**doc, "devices": devices(lambda w: w * 1e152)},
        "s5-omegas-1e308.json": {**doc, "devices": devices(lambda w: 1e308)},
    }


def report(title: str, differ: dict[str, str], patterns: list[str] = ()) -> bool:
    """Print ``title`` with counts, then each case in ``differ`` that one of
    ``patterns`` allows, then each other one; True if there is another one.
    A pattern is matched against the case's line in ``differ``."""
    allowed = [
        name for name, line in differ.items() if any(fnmatch.fnmatchcase(line, p) for p in patterns)
    ]
    other = [name for name in differ if name not in allowed]
    counts = f"{len(differ)} differ" + (f", {len(allowed)} allowed" if patterns else "")
    print(f"{title}: {counts}" if differ else f"{title}: all identical")
    for kind, names in (("allowed", allowed), ("differs", other)):
        for name in names:
            print(f"  {kind}: {differ[name]}")
    return bool(other)


def added_lines(commit: str, path: str) -> list[str]:
    """The patterns on the lines of the working tree's file ``path`` (from the
    repository's root) that it did not hold at ``commit``; ``#`` starts a
    comment."""
    show = ["git", "-C", str(REPO), "show", f"{commit}:{path}"]
    held = set(subprocess.run(show, capture_output=True, text=True).stdout.splitlines())
    lines = (REPO / path).read_text().splitlines()
    patterns = (line.partition("#")[0].strip() for line in lines if line not in held)
    return [pattern for pattern in patterns if pattern]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="local git revision to compare the working tree with")
    parser.add_argument(
        "--allow",
        action="append",
        default=[],
        metavar="PATTERN",
        help="a shell-style pattern naming cases, and their parts, that may differ "
        f"from REV (repeatable), beside the lines added to {ALLOW_FILE} since REV",
    )
    args = parser.parse_args()
    rev = args.rev
    git = ["git", "-C", str(REPO)]
    commit = subprocess.run(
        [*git, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    if not commit:
        print(f"error: {rev} is not a commit of this repository", file=sys.stderr)
        return 2
    patterns = added_lines(commit, ALLOW_FILE) + args.allow
    for pattern in patterns:
        print(f"allowed to differ from {rev}: {pattern}")
    failed = False
    heads = []
    with tempfile.TemporaryDirectory(prefix="same_bytes.") as tmp:
        checkout = Path(tmp, "rev")
        add = [*git, "worktree", "add", "--detach", "--quiet", str(checkout), commit]
        subprocess.run(add, check=True)
        try:
            for k, (label, hide) in enumerate(ENVIRONMENTS.items()):
                work = Path(tmp, f"env{k}")
                work.mkdir()
                differ, outputs = compare_trees(checkout, REPO, hide, work)
                title = f"{label}: {len(outputs)} cases against {rev} ({commit[:12]})"
                failed |= report(title, differ, patterns)
                heads.append(outputs)
        finally:
            subprocess.run([*git, "worktree", "remove", "--force", str(checkout)], check=True)
    first, second = heads
    across = {name: differs(name, first[name], second[name]) for name in first}
    failed |= report(
        f"working tree, {' against '.join(ENVIRONMENTS)}: {len(first)} cases",
        {name: line for name, line in across.items() if line},
    )
    if patterns and not failed:
        print(f"no case differs from {rev} but those allowed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
