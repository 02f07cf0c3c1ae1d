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


def _csv_sink(fh, n: int):
    """Engine trace sink: one ``write`` of CSV rows per recorded round.

    The rows are ``iter,device,x,u_prime,zeta,q`` with ``\\r\\n`` endings,
    byte for byte what ``csv.writer`` writes for them.
    """
    idx = [str(i) for i in range(n)]
    write = fh.write

    def record(k, x, u_prime, zeta, q) -> None:
        fields = zip(
            repeat(str(k)), idx, map(repr, x), map(repr, u_prime), map(repr, zeta), map(repr, q)
        )
        write("\r\n".join(map(",".join, fields)) + "\r\n")

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
        with open(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write("iter,device,x,u_prime,zeta,q\r\n")
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
