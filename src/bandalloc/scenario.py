"""Problem-instance data model, JSON parsing, and scenario generation.

A scenario bundles the shared channel and pricing constants, the
per-device weights and demands, the undirected communication edges, and
solver options. Instances are immutable values; every constructor path
validates the full set of invariants and reports the offending field by
name.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from . import topology
from .topology import Topology

__all__ = [
    "ScenarioError",
    "Globals",
    "DeviceParams",
    "SolverOptions",
    "Scenario",
    "INIT_MODES",
    "parse_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "serialize_scenario",
    "load_scenario",
    "generate_random_scenario",
]

INIT_MODES = ("demand", "uniform", "seeded-random")


class ScenarioError(ValueError):
    """A scenario document or field violates its contract."""


def _number(name: str, value: Any) -> float:
    """``value`` as a float: bools, non-numbers and ints beyond float range are errors."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{name} is an integer too large for a float") from None


def _positive(name: str, value: Any) -> float:
    x = _number(name, value)
    if not (math.isfinite(x) and x > 0):
        raise ScenarioError(f"{name} must be a positive finite number, got {x}")
    return x


def _require_int(name: str, value: Any) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Globals:
    """Shared constants: total bandwidth, channel SNR, price, and gains."""

    bandwidth: float
    snr: float
    price: float
    mu: float
    eta: float

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _positive(f.name, getattr(self, f.name)))


@dataclass(frozen=True)
class DeviceParams:
    """One device: priority weight and desired bandwidth."""

    omega: float
    demand: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega", _positive("omega", self.omega))
        d = _number("demand", self.demand)
        if not (math.isfinite(d) and d >= 0):
            raise ScenarioError(f"demand must be a finite number >= 0, got {d}")
        object.__setattr__(self, "demand", d)


@dataclass(frozen=True)
class SolverOptions:
    """Stopping rule, initialization mode, and optional RNG seed."""

    max_iters: int = 10000
    tol_consensus: float = 1e-6
    tol_constraint: float = 1e-6
    init_mode: str = "demand"
    seed: int | None = None

    def __post_init__(self) -> None:
        _require_int("max_iters", self.max_iters)
        if self.max_iters < 1:
            raise ScenarioError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("tol_consensus", "tol_constraint"):
            object.__setattr__(self, name, _positive(name, getattr(self, name)))
        if self.init_mode not in INIT_MODES:
            raise ScenarioError(
                f"init_mode must be one of {', '.join(INIT_MODES)}, got {self.init_mode!r}"
            )
        if self.seed is not None:
            _require_int("seed", self.seed)


@dataclass(frozen=True)
class Scenario:
    """A complete, validated problem instance.

    ``topology`` is the communication graph built from ``edges`` when the
    scenario is constructed; it takes no part in ``==``, ``hash`` or ``repr``.
    """

    globals: Globals
    devices: tuple[DeviceParams, ...]
    edges: tuple[tuple[int, int], ...]
    options: SolverOptions = field(default_factory=SolverOptions)
    topology: Topology = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        if not self.devices:
            raise ScenarioError("devices must contain at least one entry")
        try:
            topo = topology.build(len(self.devices), self.edges)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if not topo.is_connected():
            raise ScenarioError("edges: communication graph is not connected")
        object.__setattr__(self, "topology", topo)

    @property
    def n(self) -> int:
        return len(self.devices)

    @property
    def omegas(self) -> tuple[float, ...]:
        return tuple(d.omega for d in self.devices)

    @property
    def demands(self) -> tuple[float, ...]:
        return tuple(d.demand for d in self.devices)


_GLOBAL_KEYS = [f.name for f in fields(Globals)]
_TOP_KEYS = {*_GLOBAL_KEYS, "devices", "edges", "options"}
_REQUIRED_TOP_KEYS = _TOP_KEYS - {"options"}
_DEVICE_KEYS = {f.name for f in fields(DeviceParams)}
_OPTION_KEYS = {f.name for f in fields(SolverOptions)}


def _check_keys(doc: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s): {', '.join(unknown)}")
    missing = sorted(required - set(doc))
    if missing:
        raise ScenarioError(f"{where}: missing key(s): {', '.join(missing)}")


def scenario_from_dict(doc: Any) -> Scenario:
    """Validate a decoded JSON document and build a :class:`Scenario`.

    This checks the document's shape; the dataclasses check the values.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be a JSON object")
    _check_keys(doc, _TOP_KEYS, _REQUIRED_TOP_KEYS, "top level")
    glob = Globals(**{key: doc[key] for key in _GLOBAL_KEYS})

    raw_devices = doc["devices"]
    if not isinstance(raw_devices, list) or not raw_devices:
        raise ScenarioError("devices: must be a non-empty array")
    devices = []
    for k, entry in enumerate(raw_devices):
        where = f"devices[{k}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{where}: must be an object")
        _check_keys(entry, _DEVICE_KEYS, _DEVICE_KEYS, where)
        try:
            devices.append(DeviceParams(**entry))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}: {exc}") from None

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ScenarioError("edges: must be an array")
    for k, pair in enumerate(raw_edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"edges[{k}]: must be a pair of integer indices")

    raw = doc.get("options", {})
    if not isinstance(raw, dict):
        raise ScenarioError("options: must be an object")
    _check_keys(raw, _OPTION_KEYS, set(), "options")
    # an unset seed is written by leaving the key out, never as null
    if "seed" in raw and raw["seed"] is None:
        raise ScenarioError("options: seed must be an integer, got None")
    try:
        options = SolverOptions(**raw)
    except ScenarioError as exc:
        raise ScenarioError(f"options: {exc}") from None

    return Scenario(globals=glob, devices=devices, edges=raw_edges, options=options)


def _decode_json(text: str) -> Any:
    """``json.loads``, except that an integer literal too long for ``int`` (the
    interpreter's digit limit) reads as +-inf, as a float literal out of float
    range does, so that the field holding it is the one rejected."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the digit limit; malformed text raises JSONDecodeError
        return json.loads(text, parse_int=_int_or_inf)


def _int_or_inf(literal: str) -> int | float:
    try:
        return int(literal)
    except ValueError:
        return float(literal)


def parse_scenario(text: str) -> Scenario:
    """Parse a JSON scenario document.

    The document is an object with required keys ``bandwidth``, ``snr``,
    ``price``, ``mu``, ``eta`` (positive numbers), ``devices`` (array of
    ``{"omega": >0, "demand": >=0}``), ``edges`` (array of ``[i, j]``
    0-based index pairs forming a connected graph), and an optional
    ``options`` object (``max_iters`` default 10000, ``tol_consensus``
    default 1e-6, ``tol_constraint`` default 1e-6, ``init_mode`` default
    ``"demand"``, optional integer ``seed``). Unknown keys are rejected.
    """
    try:
        doc = _decode_json(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from None
    return scenario_from_dict(doc)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-dict form of a scenario, inverse of :func:`scenario_from_dict`."""
    g = scenario.globals
    options: dict[str, Any] = {
        "max_iters": scenario.options.max_iters,
        "tol_consensus": scenario.options.tol_consensus,
        "tol_constraint": scenario.options.tol_constraint,
        "init_mode": scenario.options.init_mode,
    }
    if scenario.options.seed is not None:
        options["seed"] = scenario.options.seed
    return {
        "bandwidth": g.bandwidth,
        "snr": g.snr,
        "price": g.price,
        "mu": g.mu,
        "eta": g.eta,
        "devices": [{"omega": d.omega, "demand": d.demand} for d in scenario.devices],
        "edges": [[i, j] for i, j in scenario.edges],
        "options": options,
    }


def serialize_scenario(scenario: Scenario) -> str:
    """JSON text such that ``parse_scenario(serialize_scenario(s)) == s``."""
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def generate_random_scenario(n: int, seed: int) -> Scenario:
    """Deterministic random instance with ``n`` devices.

    Draws omega in [0.5, 5], demand in [0.5, 3], and the bandwidth so the
    demand-to-budget ratio lands in [0.5, 2], covering both admission
    branches. The topology is a random spanning tree plus up to ``n``
    extra edges, so it is always connected. Channel and solver constants
    are fixed at snr 100, price 0.01, mu 0.2, eta 0.2. Identical (n, seed)
    pairs yield identical scenarios.
    """
    if n < 1:
        raise ValueError(f"device count must be >= 1, got {n}")
    rng = random.Random(seed)
    omegas = [rng.uniform(0.5, 5.0) for _ in range(n)]
    demands = [rng.uniform(0.5, 3.0) for _ in range(n)]
    ratio = rng.uniform(0.5, 2.0)
    bandwidth = math.fsum(demands) / ratio

    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    tree = set(edges)
    candidates = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree
    ]
    n_extra = rng.randint(0, min(n, len(candidates)))
    edges += rng.sample(candidates, n_extra)

    return Scenario(
        globals=Globals(bandwidth=bandwidth, snr=100.0, price=0.01, mu=0.2, eta=0.2),
        devices=tuple(DeviceParams(omega=w, demand=d) for w, d in zip(omegas, demands)),
        edges=tuple(edges),
        options=SolverOptions(seed=seed),
    )
