"""The benchmark's tracer wraps package functions by name: they must exist."""

from __future__ import annotations

import importlib
import importlib.util
import inspect

from bandalloc import engine, oracle

from conftest import REPO_ROOT


def test_tracer_bindings_resolve():
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", REPO_ROOT / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("bandalloc.cli")
    bindings = [(module, attr) for module, attr, _ in tracer.SPANS + tracer.HOT]
    missing = [
        f"{module}.{attr}"
        for module, attr in bindings
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert bindings and not missing


def test_observed_argument_positions():
    # the tracer's observers read the scenario from these positions
    # (``args[1]`` of ``step``, ``args[0]`` of ``solve``); a move would zero
    # its message and evaluation counts instead of failing
    assert list(inspect.signature(engine.step).parameters)[1] == "scenario"
    assert list(inspect.signature(oracle.solve).parameters)[0] == "scenario"
