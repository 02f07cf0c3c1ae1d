"""Problem-instance data model, JSON parsing, and scenario generation.

A scenario bundles the shared channel and pricing constants, the
per-device weights and demands, the undirected communication edges, and
solver options. Instances are immutable values; every constructor path
validates the full set of invariants and reports the offending field by
name.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from typing import Any

from . import topology
from .admission import _floats
from .topology import Topology

__all__ = [
    "ScenarioError",
    "Globals",
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
        if 1.0 + self.snr == 1.0:
            raise ScenarioError(f"snr is too small: log2(1 + snr) rounds to 0, got {self.snr}")


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

    Device ``k`` is ``(omegas[k], demands[k])``, two columns of floats.
    ``topology`` is the communication graph built from ``edges`` when the
    scenario is constructed; it takes no part in ``==``, ``hash`` or ``repr``.
    """

    globals: Globals
    omegas: tuple[float, ...]
    demands: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]
    options: SolverOptions = field(default_factory=SolverOptions)
    topology: Topology = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        omegas, demands = tuple(self.omegas), tuple(self.demands)
        if not omegas:
            raise ScenarioError("devices must contain at least one entry")
        if len(demands) != len(omegas):
            raise ScenarioError(f"demands: {len(demands)} entries for {len(omegas)} omegas")
        # columns of floats in range are accepted whole, in a few passes in C;
        # otherwise each device is checked, and ints and float subclasses converted
        if not (_floats(omegas) and min(omegas) > 0.0 and _floats(demands) and min(demands) >= 0):
            for k, (w, d) in enumerate(zip(omegas, demands)):
                try:
                    _positive("omega", w)
                    if not (math.isfinite(x := _number("demand", d)) and x >= 0):
                        raise ScenarioError(f"demand must be a finite number >= 0, got {x}")
                except ScenarioError as exc:
                    raise ScenarioError(f"devices[{k}]: {exc}") from None
            omegas, demands = tuple(map(float, omegas)), tuple(map(float, demands))
        # admission sums the demands exactly; a plain sum of non-negative
        # floats is within a factor 1 +- n*eps of that, so only a large one needs fsum
        if sum(demands) >= 2.0**1023:
            try:
                math.fsum(demands)
            except OverflowError:
                raise ScenarioError("demands: the total overflows a float") from None
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "demands", demands)
        try:
            topo = topology.build(len(omegas), self.edges)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if not topo.is_connected():
            raise ScenarioError("edges: communication graph is not connected")
        object.__setattr__(self, "edges", topo.edges)
        object.__setattr__(self, "topology", topo)

    @property
    def n(self) -> int:
        return len(self.omegas)


_GLOBAL_KEYS = [f.name for f in fields(Globals)]
_TOP_KEYS = {*_GLOBAL_KEYS, "devices", "edges", "options"}
_REQUIRED_TOP_KEYS = _TOP_KEYS - {"options"}
_DEVICE_KEYS = {"omega", "demand"}
_OMEGA, _DEMAND = itemgetter("omega"), itemgetter("demand")
_OPTION_KEYS = {f.name for f in fields(SolverOptions)}


def _check_keys(doc: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s): {', '.join(unknown)}")
    missing = sorted(required - set(doc))
    if missing:
        raise ScenarioError(f"{where}: missing key(s): {', '.join(missing)}")


def _device_columns(entries: list) -> tuple[Sequence, Sequence]:
    """The ``omega`` and the ``demand`` of every device entry, as two columns.

    Plain objects of two keys, the usual document, are read in a few passes
    in C; any other shape is checked entry by entry, and the first entry that
    is not an object with exactly those keys is named.
    """
    if set(map(type, entries)) == {dict} and set(map(len, entries)) == {2}:
        try:
            return tuple(map(_OMEGA, entries)), tuple(map(_DEMAND, entries))
        except KeyError:
            pass
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ScenarioError(f"devices[{k}]: must be an object")
        _check_keys(entry, _DEVICE_KEYS, _DEVICE_KEYS, f"devices[{k}]")
    return [entry["omega"] for entry in entries], [entry["demand"] for entry in entries]


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
    omegas, demands = _device_columns(raw_devices)

    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ScenarioError("edges: must be an array")

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

    return Scenario(glob, omegas, demands, raw_edges, options)


def _int_or_inf(literal: str) -> int | float:
    try:
        return int(literal)
    except ValueError:
        return float(literal)


def parse_scenario(text: str | bytes) -> Scenario:
    """Parse a JSON scenario document, given as text or as UTF-8 bytes.

    The document is an object with required keys ``bandwidth``, ``snr``,
    ``price``, ``mu``, ``eta`` (positive numbers), ``devices`` (array of
    ``{"omega": >0, "demand": >=0}``), ``edges`` (array of ``[i, j]``
    0-based index pairs forming a connected graph), and an optional
    ``options`` object (``max_iters`` default 10000, ``tol_consensus``
    default 1e-6, ``tol_constraint`` default 1e-6, ``init_mode`` default
    ``"demand"``, optional integer ``seed``). Unknown keys are rejected, and
    so are bytes that are not UTF-8 and nesting too deep for the interpreter.
    """
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            raise
        except ValueError:  # the digit limit; malformed text raises JSONDecodeError
            # an integer literal too long for ``int`` reads as +-inf, as a float
            # literal out of float range does, so the field holding it is rejected
            doc = json.loads(text, parse_int=_int_or_inf)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioError("nested too deeply to read") from None
    return scenario_from_dict(doc)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-dict form of a scenario, inverse of :func:`scenario_from_dict`."""
    options = asdict(scenario.options)
    if options["seed"] is None:  # an unset seed is written by leaving the key out
        del options["seed"]
    return {
        **asdict(scenario.globals),
        "devices": [{"omega": w, "demand": d} for w, d in zip(scenario.omegas, scenario.demands)],
        "edges": [[i, j] for i, j in scenario.edges],
        "options": options,
    }


def serialize_scenario(scenario: Scenario) -> str:
    """JSON text such that ``parse_scenario(serialize_scenario(s)) == s``."""
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a scenario file."""
    return parse_scenario(Path(path).read_bytes())


class _PairsOutside(Sequence):
    """The pairs ``(i, j)``, ``i < j < n``, not in ``tree``, in lexicographic
    order, each computed when it is read: O(n) memory, not O(n**2)."""

    def __init__(self, n: int, tree: list[tuple[int, int]]) -> None:
        # pair (i, j) has rank row_starts[i] + j - i - 1 among all pairs
        self._row_starts = [i * (2 * n - i - 1) // 2 for i in range(n)]
        ranks = sorted(self._row_starts[i] + j - i - 1 for i, j in tree)
        # the k-th pair kept has rank k + (the number of m with ranks[m] - m <= k)
        self._gaps = [r - m for m, r in enumerate(ranks)]
        self._len = n * (n - 1) // 2 - len(ranks)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> tuple[int, int]:
        if not 0 <= k < self._len:
            raise IndexError(k)
        rank = k + bisect.bisect_right(self._gaps, k)
        i = bisect.bisect_right(self._row_starts, rank) - 1
        return (i, rank - self._row_starts[i] + i + 1)


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
    candidates = _PairsOutside(n, edges)
    n_extra = rng.randint(0, min(n, len(candidates)))
    edges += rng.sample(candidates, n_extra)

    return Scenario(
        globals=Globals(bandwidth=bandwidth, snr=100.0, price=0.01, mu=0.2, eta=0.2),
        omegas=tuple(omegas),
        demands=tuple(demands),
        edges=tuple(edges),
        options=SolverOptions(seed=seed),
    )
