"""Command-line interface: run the engine, the oracle, or both, or
generate scenario files. Reports go to standard output as ``key: value``
lines; warnings and errors go to standard error."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import math
import os
import re
import sys
import tempfile
from enum import IntEnum
from itertools import repeat
from pathlib import Path

from . import engine, oracle
from .admission import ConfirmedDemands, admit
from .scenario import (
    Scenario,
    ScenarioError,
    generate_random_scenario,
    parse_scenario,
    serialize_scenario,
)

__all__ = ["ExitStatus", "main", "entrypoint"]


class ExitStatus(IntEnum):
    OK = 0
    INVALID_INPUT = 1
    NOT_CONVERGED = 2
    NUMERICAL_FAILURE = 3


class _CliError(Exception):
    """Usage or input problem; maps to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _CliError(message)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _fmt_vec(values) -> str:  # one ``%`` formats every value as ``_fmt`` does
    return " ".join(["%.12g"] * len(values)) % tuple(values)


def _emit(key: str, value) -> None:
    print(f"{key}: {value}")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_scenario_file(path: str) -> Scenario:
    try:
        return parse_scenario(Path(path).read_bytes())
    except OSError as exc:
        raise _CliError(f"cannot read scenario file {path}: {exc}") from None
    except ScenarioError as exc:
        raise _CliError(f"invalid scenario {path}: {exc}") from None


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """``scenario`` with each engine flag given in place of the ``Globals`` or
    ``SolverOptions`` field that the flag's ``dest`` names."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    global_kwargs, option_kwargs = (
        {f.name: given[f.name] for f in dataclasses.fields(settings) if f.name in given}
        for settings in (scenario.globals, scenario.options)
    )
    if not global_kwargs and not option_kwargs:
        return scenario
    if option_kwargs.get("init_mode") == "random":
        option_kwargs["init_mode"] = "seeded-random"
    try:
        glob = dataclasses.replace(scenario.globals, **global_kwargs)
        options = dataclasses.replace(scenario.options, **option_kwargs)
    except ScenarioError as exc:
        raise _CliError(f"invalid override: {exc}") from None
    return dataclasses.replace(scenario, globals=glob, options=options)


# floats that ``repr`` formats in about the time that ``import orjson`` takes in a
# fresh process: 7.5 to 13.7 ms against 0.8 to 1 us per float on a 2-vCPU VM
_ORJSON_IMPORT_FLOATS = 10_000
# a round's worth of values, on both sides of every float form that orjson
# writes otherwise than ``repr``
_PROBE = (
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.5e-10, -1e-09, 1e-06, 1e-05, -1.5e-05,
    9.999999999999999e-05, 0.0001, 0.1, 10.00001, -10.000015, 9999999999999998.0, 1e16,
    -1.5e22, 1.7976931348623157e308,
)


def _repr_rows(k: int, idx, x, u_prime, zeta, q) -> bytes:
    """One round's CSV rows, each float written by ``repr``; ``idx`` holds
    the device numbers as strings."""
    fields = zip(
        repeat(str(k)), idx, map(repr, x), map(repr, u_prime), map(repr, zeta), map(repr, q)
    )
    return ("\r\n".join(map(",".join, fields)) + "\r\n").encode()


def _band_repr(match: re.Match) -> bytes:  # b"0.000015" -> b"1.5e-05"
    lead, rest = match.groups()
    return b"%s.%se-05" % (lead, rest) if rest else lead + b"e-05"


def _orjson_rows():
    """``rows(k, devices, x, u_prime, zeta, q)``: ``_repr_rows``'s bytes from
    one ``orjson.dumps``, or None for a round holding a non-finite value;
    ``devices`` is ``range(n)``.

    None in place of ``rows`` when orjson does not import, or when it writes
    ``_PROBE`` in some form that ``rows`` does not turn into ``repr``'s.
    """
    try:
        from orjson import dumps
    except ImportError:
        return None
    e_plus = re.compile(rb"e(?=\d)").sub
    e_one_digit = re.compile(rb"e-(?=\d[,\]])").sub
    # the lookbehind, which skips 10.00001, follows the literal that the search scans for
    band = re.compile(rb"0\.0000(?<=[,-]0\.0000)(\d)(\d*)").sub

    def rows(k, devices, x, u_prime, zeta, q) -> bytes | None:
        data = dumps(list(zip(repeat(k), devices, x, u_prime, zeta, q)))
        if b"null" in data:  # orjson's form of inf and nan
            return None
        data = band(_band_repr, e_one_digit(b"e-0", e_plus(b"e+", data)))
        return data[2:-2].replace(b"],[", b"\r\n") + b"\r\n"

    probe = [_PROBE] * 4
    devices = range(len(_PROBE))
    same = rows(0, devices, *probe) == _repr_rows(0, map(str, devices), *probe)
    return rows if same else None


def _csv_sink(fh, n: int):
    """Engine trace sink: one ``write`` of CSV rows per recorded round, to a
    binary file.

    The rows are ``iter,device,x,u_prime,zeta,q`` with ``\\r\\n`` endings,
    byte for byte what ``csv.writer`` writes for them: each float is its
    ``repr``. A round is one ``orjson.dumps`` of its rows once orjson is
    imported. orjson writes the same shortest round-trip digits as ``repr``,
    in other forms for three kinds of value, which the sink rewrites:

    - from 1e-5 up to 1e-4, ``0.000015`` for ``1.5e-05``;
    - exponents -6 to -9 without the zero: ``1e-6`` for ``1e-06``;
    - positive exponents without the sign: ``1e16`` for ``1e+16``.

    ``repr`` writes a round that holds inf or nan, and every round when orjson
    is missing or writes a probe round in some other form, so the bytes never
    depend on orjson. A sink imports orjson only once ``repr`` has formatted
    ``_ORJSON_IMPORT_FLOATS`` floats, unless it is imported already.
    """
    idx = [str(i) for i in range(n)]
    devices = range(n)
    write = fh.write
    fast = None
    # floats left to format before trying orjson; inf once tried
    left = 0 if "orjson" in sys.modules else _ORJSON_IMPORT_FLOATS

    def record(k, x, u_prime, zeta, q) -> None:
        nonlocal fast, left
        if left <= 0:
            fast, left = _orjson_rows(), math.inf
        data = None if fast is None else fast(k, devices, x, u_prime, zeta, q)
        if data is None:
            data = _repr_rows(k, idx, x, u_prime, zeta, q)
            left -= 4 * n
        write(data)

    return record


def _run_traced(scenario: Scenario, path: str, stride: int) -> engine.RunResult:
    """Run the engine, streaming its trace to a temporary sibling of ``path``.

    The file replaces ``path`` once the run returns; on any exception it is
    removed and ``path`` is left as it was.
    """
    target = Path(path)
    if target.is_dir():
        raise _CliError(f"cannot write trace file {path}: it is a directory")
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp", dir=target.parent)
    except OSError as exc:
        raise _CliError(f"cannot write trace file {path}: {exc}") from None
    try:
        with open(fd, "wb") as fh:
            fh.write(b"iter,device,x,u_prime,zeta,q\r\n")
            result = engine.run(scenario, trace=_csv_sink(fh, scenario.n), trace_stride=stride)
        # the bits ``open(path, "w")`` gives a new file, not mkstemp's 0600
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException as exc:
        Path(tmp).unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _CliError(f"cannot write trace file {path}: {exc}") from None
        raise
    return result


def _run_engine(scenario: Scenario, args: argparse.Namespace) -> engine.RunResult:
    if args.stride < 1:
        raise _CliError(f"--stride must be >= 1, got {args.stride}")
    if args.trace is None:
        return engine.run(scenario)
    return _run_traced(scenario, args.trace, args.stride)


def _emit_common_header(scenario: Scenario, confirmed: ConfirmedDemands) -> None:
    _emit("devices", scenario.n)
    _emit("bandwidth", _fmt(scenario.globals.bandwidth))
    _emit("confirmed_demands", _fmt_vec(confirmed.values))
    _emit("confirmed_total", _fmt(confirmed.total))


def cmd_run(args: argparse.Namespace) -> ExitStatus:
    scenario = _apply_overrides(_load_scenario_file(args.scenario), args)
    result = _run_engine(scenario, args)
    _emit("command", "run")
    _emit_common_header(scenario, result.confirmed)
    _emit("converged", "true" if result.converged else "false")
    _emit("iterations", result.iterations_used)
    _emit("allocations", _fmt_vec(result.allocations))
    _emit("allocation_total", _fmt(math.fsum(result.allocations)))
    _emit("consensus_value", _fmt(result.consensus_value))
    _emit("consensus_residual", _fmt(result.diagnostics.consensus_residual))
    _emit("constraint_residual", _fmt(result.diagnostics.constraint_residual))
    for message in result.diagnostics.warnings:
        _warn(message)
    return ExitStatus.OK if result.converged else ExitStatus.NOT_CONVERGED


def cmd_oracle(args: argparse.Namespace) -> ExitStatus:
    scenario = _load_scenario_file(args.scenario)
    confirmed = admit(scenario.demands, scenario.globals.bandwidth)
    solution = oracle.solve(scenario, confirmed)
    _emit("command", "oracle")
    _emit_common_header(scenario, confirmed)
    _emit("allocations", _fmt_vec(solution.allocations))
    _emit("allocation_total", _fmt(math.fsum(solution.allocations)))
    _emit("lambda", "n/a" if solution.lam is None else _fmt(solution.lam))
    _emit("objective", _fmt(solution.objective))
    if min(solution.allocations) < 0.0:
        negatives = (str(i) for i, x in enumerate(solution.allocations) if x < 0.0)
        _warn(f"optimal allocation is negative for device(s) {', '.join(negatives)}")
    return ExitStatus.OK


def cmd_compare(args: argparse.Namespace) -> ExitStatus:
    scenario = _apply_overrides(_load_scenario_file(args.scenario), args)
    result = _run_engine(scenario, args)
    solution = oracle.solve(scenario, result.confirmed)
    gaps = [abs(a - b) for a, b in zip(result.allocations, solution.allocations)]
    max_gap = max(gaps)
    threshold = 10.0 * (scenario.options.tol_consensus + scenario.options.tol_constraint)
    _emit("command", "compare")
    _emit_common_header(scenario, result.confirmed)
    _emit("converged", "true" if result.converged else "false")
    _emit("iterations", result.iterations_used)
    _emit("engine_allocations", _fmt_vec(result.allocations))
    _emit("oracle_allocations", _fmt_vec(solution.allocations))
    _emit("per_device_gap", _fmt_vec(gaps))
    _emit("max_gap", _fmt(max_gap))
    _emit("gap_threshold", _fmt(threshold))
    _emit("consensus_value", _fmt(result.consensus_value))
    _emit("lambda", "n/a" if solution.lam is None else _fmt(solution.lam))
    if solution.lam is None or math.isnan(result.consensus_value):
        _emit("lambda_gap", "n/a")
    else:
        _emit("lambda_gap", _fmt(abs(result.consensus_value - solution.lam)))
    for message in result.diagnostics.warnings:
        _warn(message)
    passed = result.converged and max_gap <= threshold
    return ExitStatus.OK if passed else ExitStatus.NOT_CONVERGED


def cmd_gen(args: argparse.Namespace) -> ExitStatus:
    try:
        scenario = generate_random_scenario(args.n, args.seed)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    text = serialize_scenario(scenario)
    if args.out is not None:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _CliError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return ExitStatus.OK


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--trace", metavar="FILE", help="write a per-iteration CSV trace")
    parser.add_argument(
        "--stride",
        type=int,
        default=1,
        metavar="K",
        help="record every K-th iteration in the trace (default 1)",
    )
    parser.add_argument("--max-iters", type=int, metavar="K", help="iteration cap override")
    parser.add_argument(
        "--tol-consensus", type=float, metavar="T", help="consensus tolerance override"
    )
    parser.add_argument(
        "--tol-constraint", type=float, metavar="T", help="constraint tolerance override"
    )
    parser.add_argument("--eta", type=float, metavar="E", help="consensus gain override")
    parser.add_argument("--mu", type=float, metavar="M", help="correction step override")
    parser.add_argument(
        "--init",
        dest="init_mode",
        choices=("demand", "uniform", "random"),
        help="initialization mode override",
    )
    parser.add_argument("--seed", type=int, metavar="S", help="seed for random init")


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    ``parse_args`` leaves a parser unchanged, so one parser serves every
    ``main`` call in a process.
    """
    parser = _ArgumentParser(
        prog="bandalloc",
        description="Distributed bandwidth allocation: consensus engine, "
        "centralized oracle, and scenario tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run the distributed engine on a scenario")
    _add_engine_arguments(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    oracle_parser = sub.add_parser("oracle", help="solve a scenario centrally")
    oracle_parser.add_argument("scenario", help="path to a scenario JSON file")
    oracle_parser.set_defaults(handler=cmd_oracle)

    compare_parser = sub.add_parser(
        "compare", help="run engine and oracle, report per-device gaps"
    )
    _add_engine_arguments(compare_parser)
    compare_parser.set_defaults(handler=cmd_compare)

    gen_parser = sub.add_parser("gen", help="generate a random scenario")
    gen_parser.add_argument("--n", type=int, required=True, help="device count")
    gen_parser.add_argument("--seed", type=int, required=True, help="generator seed")
    gen_parser.add_argument("--out", metavar="FILE", help="write to a file instead of stdout")
    gen_parser.set_defaults(handler=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command (``argv``, or ``sys.argv[1:]`` when None); return its
    exit status.

    0: the command succeeded. 1: a usage error, or a scenario or output file
    that cannot be read, parsed or written. 2: the engine stopped without
    converging, or ``compare``'s largest gap exceeds its threshold. 3: a
    numerical failure in the engine or the oracle. ``--help`` raises
    ``SystemExit(0)``, as argparse does.

    The cyclic garbage collector is paused for the command and re-enabled on
    the way out if it was enabled on entry. A command's objects (parsed JSON,
    device lists, edge tuples) hold no reference cycles, so reference
    counting frees them; the collector's passes over them would cost about a
    tenth of an n=10^4 ``oracle`` call. The library functions leave the
    collector alone.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return int(args.handler(args))
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitStatus.INVALID_INPUT)
    except (engine.NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return int(ExitStatus.NUMERICAL_FAILURE)
    finally:
        if gc_was_enabled:
            gc.enable()


def entrypoint() -> None:
    raise SystemExit(main())
