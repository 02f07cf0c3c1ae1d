"""The package's records against ``@dataclass(frozen=True)`` twins of themselves.

Every record is a ``bandalloc.record.Record``, and none is a dataclass. Each
record here is checked against a reference twin that
``dataclasses.make_dataclass(..., frozen=True)`` builds from the record's own
``_names`` and ``_defaults``: the same name, fields and defaults, but the
methods that ``dataclass`` generates.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import math
import pickle
import sys

import pytest

import bandalloc.cli  # noqa: F401  (so that every module of the package is loaded)
from bandalloc.admission import ConfirmedDemands
from bandalloc.engine import Diagnostics, EngineState, RunResult
from bandalloc.oracle import OracleSolution
from bandalloc.record import Record
from bandalloc.scenario import Globals, Scenario, ScenarioError, SolverOptions

from conftest import bench_scenario

NAN = math.nan
CONFIRMED = ConfirmedDemands(values=(1.0, 2.0, 2.0))
DIAGNOSTICS = Diagnostics(consensus_residual=1e-7, constraint_residual=2e-7)
GLOBALS = Globals(bandwidth=5.0, snr=100.0, price=0.01, mu=0.2, eta=0.2)

# record: (its fields and defaults, in order; keyword arguments of a few instances)
RECORDS = {
    ConfirmedDemands: (
        [("values", dataclasses.MISSING)],
        [{"values": (1.0, 2.0, 2.0)}, {"values": (1.0, 2.0, 3.0)}, {"values": (NAN,)}],
    ),
    EngineState: (
        [(name, dataclasses.MISSING) for name in ("x", "u_prime", "zeta", "q", "iteration")]
        + [("confirmed", dataclasses.MISSING)],
        [
            {"x": (1.0,), "u_prime": (0.5,), "zeta": (0.0,), "q": (0.0,), "iteration": 0,
             "confirmed": CONFIRMED},
            {"x": (1.0,), "u_prime": (0.5,), "zeta": (0.0,), "q": (0.0,), "iteration": 1,
             "confirmed": CONFIRMED},
        ],
    ),
    Diagnostics: (
        [("consensus_residual", dataclasses.MISSING), ("constraint_residual", dataclasses.MISSING),
         ("diverged", False), ("warnings", ())],
        [
            {"consensus_residual": 1e-7, "constraint_residual": 2e-7},
            {"consensus_residual": 1e-7, "constraint_residual": 2e-7, "diverged": False},
            {"consensus_residual": NAN, "constraint_residual": 2e-7, "diverged": True,
             "warnings": ("w",)},
        ],
    ),
    RunResult: (
        [(name, dataclasses.MISSING) for name in ("allocations", "consensus_value",
         "iterations_used", "converged", "trace", "diagnostics", "confirmed")],
        [
            {"allocations": (1.0, 2.0), "consensus_value": 1.5, "iterations_used": 3,
             "converged": True, "trace": (), "diagnostics": DIAGNOSTICS, "confirmed": CONFIRMED},
            {"allocations": (1.0, 2.0), "consensus_value": NAN, "iterations_used": 0,
             "converged": True, "trace": (0,), "diagnostics": DIAGNOSTICS, "confirmed": CONFIRMED},
        ],
    ),
    OracleSolution: (
        [("allocations", dataclasses.MISSING), ("lam", dataclasses.MISSING),
         ("objective", dataclasses.MISSING)],
        [
            {"allocations": (1.0, 2.0), "lam": 1.0, "objective": 2.5},
            {"allocations": (0.0, 0.0), "lam": None, "objective": 0.0},
        ],
    ),
    Globals: (
        [(name, dataclasses.MISSING) for name in ("bandwidth", "snr", "price", "mu", "eta")],
        [
            {"bandwidth": 5.0, "snr": 100.0, "price": 0.01, "mu": 0.2, "eta": 0.2},
            {"bandwidth": 5.0, "snr": 100.0, "price": 0.01, "mu": 0.2, "eta": 0.3},
        ],
    ),
    SolverOptions: (
        [("max_iters", 10000), ("tol_consensus", 1e-6), ("tol_constraint", 1e-6),
         ("init_mode", "demand"), ("seed", None)],
        [{}, {"max_iters": 10000, "seed": None}, {"max_iters": 5, "seed": 3}],
    ),
    Scenario: (
        [(name, dataclasses.MISSING) for name in ("globals", "omegas", "demands", "edges")]
        + [("options", SolverOptions())],
        [
            {"globals": GLOBALS, "omegas": (1.0, 2.0), "demands": (1.0, 1.0),
             "edges": ((0, 1),)},
            {"globals": GLOBALS, "omegas": (1.0, 2.0), "demands": (1.0, 1.0),
             "edges": [[1, 0]], "options": SolverOptions(seed=1)},
        ],
    ),
}


@functools.cache
def twin(record: type) -> type:
    """A ``@dataclass(frozen=True)`` of the record's name, fields and defaults."""
    spec = [
        (name, record.__annotations__[name], dataclasses.field(default=record._defaults[name]))
        if name in record._defaults
        else (name, record.__annotations__[name])
        for name in record._names
    ]
    return dataclasses.make_dataclass(record.__name__, spec, frozen=True)


def twin_of(instance):
    return twin(type(instance))(**{name: getattr(instance, name) for name in instance._names})


def instances(record):
    return [record(**kwargs) for kwargs in RECORDS[record][1]]


def classes_in_package() -> set[type]:
    """Every class defined in a loaded module of the package."""
    return {
        obj
        for name, module in list(sys.modules.items())
        if name == "bandalloc" or name.startswith("bandalloc.")
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__.startswith("bandalloc")
    }


def test_every_record_inherits_the_methods_of_the_one_base():
    # a record declared with @dataclass, or one that defines any of these
    # methods itself, fails here
    classes = classes_in_package()
    assert {cls for cls in classes if issubclass(cls, Record) and cls is not Record} == set(RECORDS)
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]
    methods = "__init__", "replace", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"
    for record in RECORDS:
        for method in methods:
            assert getattr(record, method) is getattr(Record, method), (record, method)


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
class TestParityWithFrozenDataclass:
    def test_fields_order_and_defaults(self, record):
        expected, _ = RECORDS[record]
        defaults = record._defaults
        got = [(name, defaults.get(name, dataclasses.MISSING)) for name in record._names]
        assert got == expected
        assert [(f.name, f.default) for f in dataclasses.fields(twin(record))] == expected
        assert all(getattr(record, name) is default for name, default in defaults.items())
        assert record.__doc__ and "*args" not in record.__doc__

    def test_eq_repr_and_hash(self, record):
        made = instances(record)
        for a, b in itertools.product(made, repeat=2):
            ta, tb = twin_of(a), twin_of(b)
            assert (a == b) is (ta == tb) and (a != b) is (ta != tb)
            assert repr(a) == repr(ta)
            if a == b:
                assert hash(a) == hash(b)
        assert all(a.__eq__(object()) is NotImplemented for a in made)

    def test_asdict_astuple_and_replace(self, record):
        # a record's ``vars`` and fields against the twin's ``asdict`` and
        # ``astuple``; its ``replace`` against ``dataclasses.replace``
        made = instances(record)
        for a in made:
            assert vars(a) == dataclasses.asdict(twin_of(a))  # every field, defaults included
            assert tuple(getattr(a, name) for name in a._names) == dataclasses.astuple(twin_of(a))
            assert vars(a) == vars(twin_of(a))
            assert a.replace() == a and a.replace() is not a and type(a.replace()) is record
            with pytest.raises(TypeError):
                dataclasses.replace(twin_of(a), other=1)
            with pytest.raises(TypeError, match=rf"^{record.__name__}\(\) takes {a._names[0]}"):
                a.replace(other=1)
        for a, b in itertools.product(made, repeat=2):
            for names in (record._names[:1], record._names[-2:]):
                change = {name: getattr(b, name) for name in names}
                assert twin_of(a.replace(**change)) == dataclasses.replace(twin_of(a), **change)

    def test_frozen(self, record):
        for a in instances(record):
            for name in (*a._names, "other"):
                for act in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
                    with pytest.raises(dataclasses.FrozenInstanceError) as want:
                        act(twin_of(a))
                    with pytest.raises(AttributeError) as got:
                        act(a)
                    assert type(got.value) is AttributeError
                    assert str(got.value) == str(want.value)

    def test_calls_that_do_not_fit_raise_type_error(self, record):
        kwargs = RECORDS[record][1][-1]
        fields = record._names
        values = [kwargs.get(name, record._defaults.get(name)) for name in fields]
        first, rest = fields[0], dict(zip(fields[1:], values[1:]))
        assert record(*values) == record(values[0], **rest) == record(**kwargs)
        bad_calls = [
            ((), {**kwargs, "other": 1}),  # unknown
            ((*values, 1), {}),  # surplus
            (values[:1], {**rest, first: values[0]}),  # repeated
        ]
        required = [name for name in fields if name not in record._defaults]
        if required:
            bad_calls.append(((), {k: v for k, v in kwargs.items() if k != required[-1]}))
        for args, bad in bad_calls:
            with pytest.raises(TypeError):
                twin(record)(*args, **bad)
            with pytest.raises(TypeError, match=rf"^{record.__name__}\(\) takes {first}"):
                record(*args, **bad)

    def test_pickle_and_copy(self, record):
        for a in instances(record):
            for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
                assert type(b) is record and repr(b) == repr(a)
                # a nan unpickled is a new float, unequal to itself, as in the twin
                assert (b == a) is (twin_of(b) == twin_of(a))
                assert b == a or "nan" in repr(a)
                assert hash(b) == hash(a) or b != a


@pytest.mark.parametrize(
    "record, change",
    [(Globals, {"snr": -1.0}), (SolverOptions, {"init_mode": "x"}), (Scenario, {"edges": ()})],
)
def test_replace_checks_again(record, change):
    a = instances(record)[0]
    with pytest.raises(ScenarioError):
        a.replace(**change)


def test_cached_values_take_no_part_in_eq_hash_or_repr():
    a, b = ConfirmedDemands(values=(1.0, 2.0)), ConfirmedDemands(values=(1.0, 2.0))
    assert a.total == 3.0 and "total" in vars(a) and "total" not in vars(b)
    assert a == b and b == a and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != ConfirmedDemands(values=(1.0, 3.0))
    s, t = bench_scenario(), bench_scenario()
    assert s.adjacency and "adjacency" in vars(s)
    assert s == t and t == s and hash(s) == hash(t) and repr(s) == repr(t)
    assert s != t.replace(demands=(1.0, 2.0, 1.0))
    assert "total" not in vars(a.replace()) and "adjacency" not in vars(s.replace())
    assert pickle.loads(pickle.dumps(a)) == a and copy.copy(s) == s
