"""Shared fixtures: the bundled benchmark scenario and small builders."""

from __future__ import annotations

import pathlib
import sys
from typing import NamedTuple

import pytest

from bandalloc import engine, topology
from bandalloc.scenario import (
    Globals,
    Scenario,
    SolverOptions,
    generate_random_scenario,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
BENCH_PATH = SCENARIO_DIR / "paper_s5.json"


def make_scenario(
    omegas,
    demands,
    edges,
    bandwidth=5.0,
    snr=100.0,
    price=0.01,
    mu=0.2,
    eta=0.2,
    **option_kwargs,
) -> Scenario:
    return Scenario(
        globals=Globals(bandwidth=bandwidth, snr=snr, price=price, mu=mu, eta=eta),
        omegas=tuple(omegas),
        demands=tuple(demands),
        edges=tuple(edges),
        options=SolverOptions(**option_kwargs),
    )


def bench_scenario(**option_kwargs) -> Scenario:
    """The bundled three-device line-graph benchmark, built in code."""
    return make_scenario(
        omegas=(1.0, 2.0, 3.0),
        demands=(1.0, 2.0, 2.0),
        edges=((0, 1), (1, 2)),
        **option_kwargs,
    )


def generated_scenario(seed: int) -> Scenario:
    """The generated instances of acceptance criteria 2, 3 and 7: 2 to 20 devices."""
    return generate_random_scenario(2 + (seed - 1) % 19, seed=seed)


def kernel_thresholds() -> dict[str, int]:
    """``engine.ARRAY_MIN_DEVICES`` for each kernel that can run: the scalar
    loop at every size, and numpy's at every size when it imports."""
    thresholds = {"scalar": sys.maxsize}
    if engine.array_kernel_for(sys.maxsize) is not None:
        thresholds["array"] = 1
    return thresholds


class Recorded(NamedTuple):
    """One round handed to an engine trace sink, its fields as tuples."""

    iteration: int
    x: tuple[float, ...]
    u_prime: tuple[float, ...]
    zeta: tuple[float, ...]
    q: tuple[float, ...]


def recording():
    """``(sink, rounds)``: a trace sink for ``engine.run`` and the list it fills."""
    rounds: list[Recorded] = []

    def sink(iteration, *fields):
        rounds.append(Recorded(iteration, *map(tuple, fields)))

    return sink, rounds


@pytest.fixture
def bench_path() -> pathlib.Path:
    return BENCH_PATH


@pytest.fixture
def bench() -> Scenario:
    return bench_scenario()


@pytest.fixture
def build_calls(monkeypatch) -> list:
    """Topology builds, counted at ``topology.build`` and at the engine's binding of it."""
    calls = []
    original = topology.build

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(topology, "build", counted)
    monkeypatch.setattr(engine, "build_topology", counted)
    return calls
