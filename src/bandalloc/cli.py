"""Command-line interface: run the engine, the oracle, or both, or
generate scenario files. Reports go to standard output as ``key: value``
lines; warnings and errors go to standard error."""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import math
import os
import sys
from enum import IntEnum
from itertools import repeat

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
        with open(path, "rb") as fh:
            return parse_scenario(fh.read())
    except OSError as exc:
        raise _CliError(f"cannot read scenario file {path}: {exc}") from None
    except ScenarioError as exc:
        raise _CliError(f"invalid scenario {path}: {exc}") from None


def _apply_overrides(scenario: Scenario, args: argparse.Namespace) -> Scenario:
    """``scenario`` with each engine flag given in place of the ``Globals`` or
    ``SolverOptions`` field that the flag's ``dest`` names."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    global_kwargs, option_kwargs = (
        {name: given[name] for name in settings._names if name in given}
        for settings in (scenario.globals, scenario.options)
    )
    if not global_kwargs and not option_kwargs:
        return scenario
    if option_kwargs.get("init_mode") == "random":
        option_kwargs["init_mode"] = "seeded-random"
    try:
        glob = scenario.globals.replace(**global_kwargs)
        options = scenario.options.replace(**option_kwargs)
    except ScenarioError as exc:
        raise _CliError(f"invalid override: {exc}") from None
    return scenario.replace(globals=glob, options=options)


# floats that ``_stdlib_rows`` formats in about the time that ``import orjson`` takes
# in a fresh process: 5.8 to 9.1 ms against 0.7 to 1.1 us per float on a 2-vCPU VM
_ORJSON_IMPORT_FLOATS = 10_000
# a round's worth of values, on both sides of every float form that ``repr``
# writes otherwise than orjson
_PROBE = (
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.5e-10, -1e-09, 1e-06, 1e-05, -1.5e-05,
    9.999999999999999e-05, 0.0001, 0.1, 10.00001, -10.000015, 9999999999999998.0, 1e16,
    -1.5e22, 1.7976931348623157e308,
)


def _decimal_band(text: str) -> str:
    """``text`` with each ``repr`` float from 1e-5 up to 1e-4 written out:
    ``0.000015`` for ``1.5e-05``."""
    parts = text.split("e-05")
    for i, part in enumerate(parts[:-1]):
        head, _, mantissa = part.rpartition(",")
        j = mantissa[0] == "-"  # the lead digit's index
        parts[i] = f"{head},{mantissa[:j]}0.0000{mantissa[j:].replace('.', '')}"
    return "".join(parts)


def _stdlib_rows(k: int, idx, x, u_prime, zeta, q) -> bytes:
    """One round's CSV rows; ``idx`` holds the device numbers as strings.

    Each float's ``repr`` is respelt as orjson writes it: ``0.000015`` for
    ``1.5e-05`` from 1e-5 up to 1e-4, ``1e-6`` for ``1e-06`` at exponents -6
    to -9, and ``1e16`` for ``1e+16``. The digits are the same.
    """
    fields = zip(
        repeat(str(k)), idx, map(repr, x), map(repr, u_prime), map(repr, zeta), map(repr, q)
    )
    text = "\r\n".join(map(",".join, fields)) + "\r\n"
    # a rewrite runs only on text that holds its trigger, and would change nothing else
    if "e+" in text:
        text = text.replace("e+", "e")
    if "e-05" in text:
        text = _decimal_band(text)
    if "e-0" in text:
        text = text.replace("e-0", "e-")
    return text.encode()


def _orjson_rows():
    """``rows(k, devices, x, u_prime, zeta, q)``: ``_stdlib_rows``'s bytes from
    one ``orjson.dumps``, or None for a round holding a non-finite value;
    ``devices`` is ``range(n)``.

    None in place of ``rows`` when orjson does not import, or when it writes
    ``_PROBE`` otherwise than ``_stdlib_rows``.
    """
    try:
        from orjson import dumps
    except ImportError:
        return None

    def rows(k, devices, x, u_prime, zeta, q) -> bytes | None:
        data = dumps(list(zip(repeat(k), devices, x, u_prime, zeta, q)))
        if b"n" in data:  # orjson writes n only in null, its form of inf and nan
            return None
        return data[2:-2].replace(b"],[", b"\r\n") + b"\r\n"

    probe = [_PROBE] * 4
    devices = range(len(_PROBE))
    same = rows(0, devices, *probe) == _stdlib_rows(0, map(str, devices), *probe)
    return rows if same else None


def _csv_sink(fh, n: int):
    """Engine trace sink: one ``write`` of CSV rows per recorded round, to a
    binary file.

    The rows are ``iter,device,x,u_prime,zeta,q`` with ``\\r\\n`` endings,
    each float in orjson's spelling of ``repr``'s digits (see ``_stdlib_rows``).
    A round is one ``orjson.dumps`` of its rows once orjson is imported.
    ``_stdlib_rows`` writes a round that holds inf or nan (as ``inf`` and
    ``nan``), found by the byte ``n`` of orjson's ``null``, and every round
    when orjson is missing or writes a probe round in some other form, so the
    bytes never depend on orjson. A sink imports orjson only once
    ``_stdlib_rows`` has formatted ``_ORJSON_IMPORT_FLOATS`` floats, unless it
    is imported already.
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
            data = _stdlib_rows(k, idx, x, u_prime, zeta, q)
            left -= 4 * n
        write(data)

    return record


@contextlib.contextmanager
def _trace_sink(args: argparse.Namespace, n: int):
    """The engine's trace sink for the command's body: None without
    ``--trace``, else one that streams CSV rows to a temporary sibling of
    FILE. The sibling is created exclusively under a random name, and that
    ``open`` gives it a new file's permissions; the process's file-creation
    mask is never changed.

    The file replaces FILE once the body returns; on any exception it is
    removed and FILE is left as it was.
    """
    if args.stride < 1:
        raise _CliError(f"--stride must be >= 1, got {args.stride}")
    if args.trace is None:
        yield None
        return
    if os.path.isdir(args.trace):
        raise _CliError(f"cannot write trace file {args.trace}: it is a directory")
    parent, name = os.path.split(args.trace)
    tmp = os.path.join(parent, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        # a buffer of many rounds: at the default 8 KiB a 60-device round,
        # about 5.3 KB, costs a ``write`` call every round or two
        fh = open(tmp, "xb", buffering=1 << 20)
        try:
            with fh:
                fh.write(b"iter,device,x,u_prime,zeta,q\r\n")
                yield _csv_sink(fh, n)
            os.replace(tmp, args.trace)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # the reason alone: the full message names the temporary file, a random name
        raise _CliError(f"cannot write trace file {args.trace}: {exc.strerror or exc}") from None


def _emit_common_header(scenario: Scenario, confirmed: ConfirmedDemands) -> None:
    _emit("devices", scenario.n)
    _emit("bandwidth", _fmt(scenario.globals.bandwidth))
    _emit("confirmed_demands", _fmt_vec(confirmed.values))
    _emit("confirmed_total", _fmt(confirmed.total))


def cmd_run(args: argparse.Namespace) -> ExitStatus:
    scenario = _apply_overrides(_load_scenario_file(args.scenario), args)
    with _trace_sink(args, scenario.n) as trace:
        result = engine.run(scenario, trace=trace, trace_stride=args.stride)
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
    with _trace_sink(args, scenario.n) as trace:
        result = engine.run(scenario, trace=trace, trace_stride=args.stride)
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
    lam = solution.lam
    _emit("lambda", "n/a" if lam is None else _fmt(lam))
    _emit("lambda_gap", "n/a" if lam is None else _fmt(abs(result.consensus_value - lam)))
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
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
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
