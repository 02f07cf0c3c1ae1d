"""Scenario parsing, validation, serialization, and generation."""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from bandalloc import engine, oracle
from bandalloc.admission import admit
from bandalloc.scenario import (
    Globals,
    Scenario,
    ScenarioError,
    SolverOptions,
    generate_random_scenario,
    load_scenario,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)
from bandalloc.utility import capacity_coefficient

from conftest import bench_scenario, make_scenario


BASE_DOC = {
    "bandwidth": 5.0,
    "snr": 100.0,
    "price": 0.01,
    "mu": 0.2,
    "eta": 0.2,
    "devices": [
        {"omega": 1.0, "demand": 1.0},
        {"omega": 2.0, "demand": 2.0},
        {"omega": 3.0, "demand": 2.0},
    ],
    "edges": [[0, 1], [1, 2]],
}


def doc_with(**changes) -> str:
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(changes)
    return json.dumps(doc)


class TestParse:
    def test_bundled_benchmark_file(self, bench_path):
        scenario = parse_scenario(bench_path.read_text())
        assert scenario.n == 3
        assert scenario.globals.bandwidth == 5.0
        assert scenario.globals.snr == 100.0
        assert scenario.globals.price == 0.01
        assert scenario.globals.mu == 0.2
        assert scenario.globals.eta == 0.2
        assert scenario.omegas == (1.0, 2.0, 3.0)
        assert scenario.demands == (1.0, 2.0, 2.0)
        assert scenario.edges == ((0, 1), (1, 2))

    def test_options_defaults(self):
        scenario = parse_scenario(doc_with())
        assert scenario.options == SolverOptions(
            max_iters=10000,
            tol_consensus=1e-6,
            tol_constraint=1e-6,
            init_mode="demand",
            seed=None,
        )

    def test_options_parsed(self):
        scenario = parse_scenario(
            doc_with(
                options={
                    "max_iters": 500,
                    "tol_consensus": 1e-8,
                    "init_mode": "seeded-random",
                    "seed": 11,
                }
            )
        )
        assert scenario.options.max_iters == 500
        assert scenario.options.tol_consensus == 1e-8
        assert scenario.options.tol_constraint == 1e-6
        assert scenario.options.init_mode == "seeded-random"
        assert scenario.options.seed == 11

    def test_not_json(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario("{nope")

    def test_top_level_not_object(self):
        with pytest.raises(ScenarioError, match="top level"):
            parse_scenario("[1, 2]")

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="extra"):
            parse_scenario(doc_with(extra=1))

    def test_missing_key_named(self):
        doc = json.loads(doc_with())
        del doc["snr"]
        with pytest.raises(ScenarioError, match="snr"):
            parse_scenario(json.dumps(doc))

    def test_negative_omega_names_field(self):
        bad = [{"omega": -1.0, "demand": 1.0}] + BASE_DOC["devices"][1:]
        with pytest.raises(ScenarioError, match=r"devices\[0\].*omega"):
            parse_scenario(doc_with(devices=bad))

    def test_negative_demand_names_field(self):
        bad = [{"omega": 1.0, "demand": -1.0}] + BASE_DOC["devices"][1:]
        with pytest.raises(ScenarioError, match=r"devices\[0\].*demand"):
            parse_scenario(doc_with(devices=bad))

    def test_unknown_device_key(self):
        bad = [{"omega": 1.0, "demand": 1.0, "watt": 3}] + BASE_DOC["devices"][1:]
        with pytest.raises(ScenarioError, match="watt"):
            parse_scenario(doc_with(devices=bad))

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ScenarioError, match="bandwidth"):
            parse_scenario(doc_with(bandwidth=True))

    @pytest.mark.parametrize("key", ["bandwidth", "snr", "price", "mu", "eta"])
    def test_nonpositive_global_named(self, key):
        with pytest.raises(ScenarioError, match=key):
            parse_scenario(doc_with(**{key: 0}))

    def test_empty_devices(self):
        with pytest.raises(ScenarioError, match="devices"):
            parse_scenario(doc_with(devices=[]))
        glob = bench_scenario().globals
        with pytest.raises(ScenarioError, match="^devices must contain at least one entry$"):
            Scenario(glob, (), (), ())

    def test_disconnected_topology(self):
        with pytest.raises(ScenarioError, match="not connected"):
            parse_scenario(doc_with(edges=[[0, 1]]))

    def test_self_loop_edge(self):
        with pytest.raises(ScenarioError, match="self-loop"):
            parse_scenario(doc_with(edges=[[0, 0], [0, 1], [1, 2]]))

    def test_duplicate_edge_either_orientation(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(doc_with(edges=[[0, 1], [1, 0], [1, 2]]))

    def test_edge_out_of_range(self):
        with pytest.raises(ScenarioError, match=r"edges\[1\]"):
            parse_scenario(doc_with(edges=[[0, 1], [1, 3]]))

    def test_edge_not_a_pair(self):
        with pytest.raises(ScenarioError, match=r"edges\[0\]"):
            parse_scenario(doc_with(edges=[[0, 1, 2]]))
        with pytest.raises(ScenarioError, match="^edges: must be an array$"):
            parse_scenario(doc_with(edges={}))

    def test_unknown_option_key(self):
        with pytest.raises(ScenarioError, match="verbose"):
            parse_scenario(doc_with(options={"verbose": True}))
        with pytest.raises(ScenarioError, match="^options: must be an object$"):
            parse_scenario(doc_with(options=[]))

    def test_bad_init_mode(self):
        with pytest.raises(ScenarioError, match="init_mode"):
            parse_scenario(doc_with(options={"init_mode": "warm"}))

    def test_non_integer_max_iters(self):
        with pytest.raises(ScenarioError, match="max_iters"):
            parse_scenario(doc_with(options={"max_iters": 10.5}))

    def test_non_integer_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            parse_scenario(doc_with(options={"seed": "abc"}))

    def test_null_seed_rejected(self):
        with pytest.raises(ScenarioError, match="options: seed"):
            parse_scenario(doc_with(options={"seed": None}))

    @pytest.mark.parametrize("digits", [401, 5000])
    @pytest.mark.parametrize(
        "changes, where",
        [
            ({"bandwidth": "HUGE"}, "bandwidth"),
            ({"devices": [{"omega": 1.0, "demand": "HUGE"}]}, r"devices\[0\]: demand"),
            ({"options": {"tol_consensus": "HUGE"}}, "options: tol_consensus"),
            ({"edges": [[0, 1], [1, "HUGE"]]}, r"edges\[1\]"),
        ],
    )
    def test_oversized_integer_names_field(self, digits, changes, where):
        # 5000 digits is past the interpreter's limit for reading an int
        huge = "1" + "0" * (digits - 1)
        with pytest.raises(ScenarioError, match=where):
            parse_scenario(doc_with(**changes).replace('"HUGE"', huge))


class TestDirectConstruction:
    def test_single_device_no_edges(self):
        scenario = make_scenario(omegas=(1.0,), demands=(3.0,), edges=())
        assert scenario.n == 1

    def test_zero_demand_allowed(self):
        scenario = make_scenario(omegas=(1.0, 1.0), demands=(0.0, 0.0), edges=((0, 1),))
        assert scenario.demands == (0.0, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ScenarioError, match="mu"):
            Globals(bandwidth=5.0, snr=100.0, price=0.01, mu=math.nan, eta=0.2)

    def test_bad_options(self):
        with pytest.raises(ScenarioError, match="max_iters"):
            SolverOptions(max_iters=0)
        with pytest.raises(ScenarioError, match="tol_consensus"):
            SolverOptions(tol_consensus=0.0)

    def test_device_params_validation(self):
        with pytest.raises(
            ScenarioError, match=r"^devices\[1\]: omega must be a positive finite number, got 0.0$"
        ):
            make_scenario(omegas=(1.0, 0.0), demands=(1.0, 1.0), edges=((0, 1),))
        with pytest.raises(
            ScenarioError, match=r"^devices\[0\]: demand must be a finite number >= 0, got -1.0$"
        ):
            make_scenario(omegas=(1.0, 1.0), demands=(-1.0, 1.0), edges=((0, 1),))

    def test_oversized_integer_names_field(self):
        with pytest.raises(ScenarioError, match="bandwidth"):
            Globals(bandwidth=10**400, snr=100.0, price=0.01, mu=0.2, eta=0.2)
        with pytest.raises(ScenarioError, match=r"devices\[0\]: demand"):
            make_scenario(omegas=(1.0,), demands=(10**400,), edges=())
        with pytest.raises(ScenarioError, match="tol_constraint"):
            SolverOptions(tol_constraint=10**400)

    def test_numbers_stored_as_floats(self):
        g = Globals(bandwidth=5, snr=100, price=1, mu=1, eta=1)
        d = make_scenario(omegas=(2,), demands=(0,), edges=())
        o = SolverOptions(tol_consensus=1, tol_constraint=1)
        values = (*dataclasses.astuple(g), *d.omegas, *d.demands)
        assert all(type(v) is float for v in (*values, o.tol_consensus, o.tol_constraint))

    # the last four are not pairs at all
    @pytest.mark.parametrize(
        "edge", [(0, 1.7), (0.0, 1), (False, True), (0, "1"), (0, 1, 1), 5, (0,), None]
    )
    def test_non_integer_endpoint_rejected(self, edge):
        with pytest.raises(ScenarioError, match=r"edges\[1\]: must be a pair of integer indices"):
            make_scenario(omegas=(1.0, 1.0, 1.0), demands=(1.0, 1.0, 1.0), edges=((1, 2), edge))

    def test_demand_total_overflow_rejected(self):
        # admission sums the demands exactly, and this sum overflows
        with pytest.raises(ScenarioError, match=r"^demands: the total overflows a float$"):
            make_scenario(omegas=(1.0, 2.0), demands=(1e308, 1e308), edges=((0, 1),))

    def test_demand_total_summed_exactly_only_near_overflow(self, monkeypatch):
        calls = []
        real = math.fsum
        monkeypatch.setattr(math, "fsum", lambda v: calls.append(v) or real(v))
        make_scenario(omegas=(1.0, 2.0, 3.0), demands=(1.0, 2.0, 2.0), edges=((0, 1), (1, 2)))
        assert not calls
        scenario = make_scenario(omegas=(1.0, 2.0), demands=(1e308, 7e307), edges=((0, 1),))
        assert len(calls) == 1
        assert admit(scenario.demands, 1.0).total <= 1.0

    def test_snr_without_capacity_rejected(self):
        with pytest.raises(
            ScenarioError, match=r"^snr is too small: log2\(1 \+ snr\) rounds to 0, got 1e-300$"
        ):
            Globals(bandwidth=5.0, snr=1e-300, price=0.01, mu=0.2, eta=0.2)
        with pytest.raises(ScenarioError, match="^snr"):
            Globals(bandwidth=5.0, snr=2.0**-53, price=0.01, mu=0.2, eta=0.2)
        g = Globals(bandwidth=5.0, snr=2.0**-52, price=0.01, mu=0.2, eta=0.2)
        assert capacity_coefficient(g.snr) > 0.0

    def test_price_without_inverse_rejected(self):
        # the inverse derivative divides by 2*price*c; the snr rule comes first
        with pytest.raises(
            ScenarioError,
            match=r"^price is too small: 2\*price\*log2\(1 \+ snr\) rounds to 0, got 5e-324$",
        ):
            Globals(bandwidth=5.0, snr=0.1, price=5e-324, mu=0.2, eta=0.2)
        with pytest.raises(ScenarioError, match="^snr"):
            Globals(bandwidth=5.0, snr=1e-300, price=5e-324, mu=0.2, eta=0.2)
        g = Globals(bandwidth=5.0, snr=1.0, price=5e-324, mu=0.2, eta=0.2)
        assert 2.0 * g.price * capacity_coefficient(g.snr) > 0.0

    def test_column_lengths_must_match(self):
        with pytest.raises(ScenarioError, match=r"^demands: 2 entries for 3 omegas$"):
            make_scenario(omegas=(1.0, 1.0, 1.0), demands=(1.0, 1.0), edges=((0, 1), (1, 2)))

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((0, 1), (1, 3)), r"edges\[1\]: endpoint out of range \[0, 3\) in \(1, 3\)"),
            (((0, 1), (2, 2)), r"edges\[1\]: self-loop \(2, 2\)"),
            (((0, 1), (1, 2), (2, 1)), r"edges\[2\]: duplicate edge \(2, 1\)"),
            (((0, 1),), "edges: communication graph is not connected"),
        ],
    )
    def test_edge_errors_name_the_edge(self, edges, message):
        with pytest.raises(ScenarioError, match=message):
            make_scenario(omegas=(1.0, 1.0, 1.0), demands=(1.0, 1.0, 1.0), edges=edges)


class TestTopologyCarried:
    def test_built_once_per_scenario(self, build_calls, bench_path):
        scenario = parse_scenario(bench_path.read_text())
        assert len(build_calls) == 1
        assert "adjacency" not in vars(scenario)
        assert scenario.adjacency == ((1,), (0, 2), (1,))
        confirmed = admit(scenario.demands, scenario.globals.bandwidth)
        engine.run(scenario)
        oracle.solve(scenario, confirmed)
        assert len(build_calls) == 1

    def test_no_part_in_equality_hash_or_repr(self):
        a, b = bench_scenario(), bench_scenario()
        assert a.adjacency == ((1,), (0, 2), (1,))
        assert "adjacency" in vars(a) and "adjacency" not in vars(b)
        assert a == b and hash(a) == hash(b)
        assert "adjacency" not in repr(a) and repr(a) == repr(b)
        vars(b)["adjacency"] = None
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        with pytest.raises(TypeError):
            Scenario(a.globals, a.omegas, a.demands, a.edges, a.options, a.adjacency)
        with pytest.raises(TypeError):
            Scenario(a.globals, a.omegas, a.demands, a.edges, adjacency=a.adjacency)

    def test_replace_rebuilds_and_validates(self, build_calls):
        scenario = bench_scenario()
        assert scenario.adjacency == ((1,), (0, 2), (1,))
        ring = dataclasses.replace(scenario, edges=((0, 1), (1, 2), (2, 0)))
        assert len(build_calls) == 2
        assert "adjacency" not in vars(ring)
        assert ring.adjacency == ((1, 2), (0, 2), (0, 1))
        assert scenario.adjacency == ((1,), (0, 2), (1,))
        # a copy with the same edges builds its own adjacency on first read
        same = dataclasses.replace(scenario)
        assert "adjacency" not in vars(same)
        assert same.adjacency == scenario.adjacency and same.adjacency is not scenario.adjacency
        with pytest.raises(ScenarioError, match=r"edges\[1\]: duplicate edge"):
            dataclasses.replace(scenario, edges=((0, 1), (1, 0), (1, 2)))
        with pytest.raises(ScenarioError, match="^edges: communication graph is not connected$"):
            dataclasses.replace(scenario, edges=((0, 1),))



class FloatSubclass(float):
    pass


def reference_columns(omegas, demands):
    """Per-device reference: the columns as floats, or the first device's error text."""

    def number(name, value):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioError(f"{name} must be a number, got {value!r}")
        return float(value)

    for k, (w, d) in enumerate(zip(omegas, demands)):
        try:
            if not (math.isfinite(x := number("omega", w)) and x > 0):
                raise ScenarioError(f"omega must be a positive finite number, got {x}")
            if not (math.isfinite(x := number("demand", d)) and x >= 0):
                raise ScenarioError(f"demand must be a finite number >= 0, got {x}")
        except ScenarioError as exc:
            raise ScenarioError(f"devices[{k}]: {exc}") from None
    try:
        math.fsum(map(float, demands))
    except OverflowError:
        raise ScenarioError("demands: the total overflows a float") from None
    return tuple(map(float, omegas)), tuple(map(float, demands))


ODD_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-5.0, max_value=5.0).map(FloatSubclass),
)


@st.composite
def device_columns(draw):
    """Columns of floats in range, with up to two entries replaced by odd values."""
    n = draw(st.integers(min_value=1, max_value=6))
    omegas = draw(st.lists(st.floats(min_value=0.5, max_value=5.0), min_size=n, max_size=n))
    demands = draw(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=n, max_size=n))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        column = draw(st.sampled_from([omegas, demands]))
        column[draw(st.integers(min_value=0, max_value=n - 1))] = draw(ODD_VALUES)
    return omegas, demands


class TestWholeColumnChecks:
    """Whole-column checks accept and reject exactly what a per-entry loop does."""

    @given(device_columns())
    def test_device_columns_match_per_device_reference(self, columns):
        omegas, demands = columns
        edges = [(k, k + 1) for k in range(len(omegas) - 1)]
        try:
            want = reference_columns(omegas, demands)
        except ScenarioError as exc:
            with pytest.raises(ScenarioError) as excinfo:
                make_scenario(omegas=omegas, demands=demands, edges=edges)
            assert str(excinfo.value) == str(exc)
        else:
            scenario = make_scenario(omegas=omegas, demands=demands, edges=edges)
            got = (scenario.omegas, scenario.demands)
            assert [list(map(repr, column)) for column in got] == [
                list(map(repr, column)) for column in want
            ]
            assert all(type(x) is float for column in got for x in column)

    @given(
        st.lists(
            st.one_of(
                st.just({"omega": 1.0, "demand": 1.0}),
                st.just({"demand": 2.0, "omega": 1.5}),
                st.just({"omega": 1.0}),
                st.just({"omega": 1.0, "demand": 1.0, "extra": 0}),
                st.just({"omega": 1.0, "weight": 1.0}),
                st.just([1.0, 1.0]),
                st.just(None),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_device_entries_match_per_entry_reference(self, entries):
        edges = [[k, k + 1] for k in range(len(entries) - 1)]
        doc = {**BASE_DOC, "devices": entries, "edges": edges}
        want = None
        for k, entry in enumerate(entries):
            if not isinstance(entry, dict):
                want = f"devices[{k}]: must be an object"
            elif unknown := sorted(set(entry) - {"omega", "demand"}):
                want = f"devices[{k}]: unknown key(s): {', '.join(unknown)}"
            elif missing := sorted({"omega", "demand"} - set(entry)):
                want = f"devices[{k}]: missing key(s): {', '.join(missing)}"
            if want is not None:
                with pytest.raises(ScenarioError) as excinfo:
                    parse_scenario(json.dumps(doc))
                assert str(excinfo.value) == want
                return
        scenario = parse_scenario(json.dumps(doc))
        assert scenario.omegas == tuple(entry["omega"] for entry in entries)
        assert scenario.demands == tuple(entry["demand"] for entry in entries)

    # the texts of the per-entry check, which the two-column read falls back to
    @pytest.mark.parametrize(
        "entry, want",
        [
            (5, "devices[1]: must be an object"),
            (None, "devices[1]: must be an object"),
            ("ab", "devices[1]: must be an object"),
            ([1.0, 1.0], "devices[1]: must be an object"),
            ({"omega": 1.0, "weight": 2.0}, "devices[1]: unknown key(s): weight"),
            ({"omega": 1.0, "demand": 1.0, "watt": 3}, "devices[1]: unknown key(s): watt"),
            ({"demand": 1.0}, "devices[1]: missing key(s): omega"),
            ({"omega": 1.0, "watt": 1.0, "volt": 1.0}, "devices[1]: unknown key(s): volt, watt"),
            ({}, "devices[1]: missing key(s): demand, omega"),
            (collections.OrderedDict(omega=2.0, demand=2.0), None),
        ],
        ids=[
            "number", "null", "string", "list", "missing key", "extra key", "one key",
            "three keys", "no keys", "dict subclass",
        ],
    )
    def test_device_entry_errors(self, entry, want):
        devices = [*BASE_DOC["devices"]]
        devices[1] = entry
        doc = {**BASE_DOC, "devices": devices}
        if want is None:
            assert scenario_from_dict(doc) == parse_scenario(json.dumps(BASE_DOC))
            return
        with pytest.raises(ScenarioError) as excinfo:
            scenario_from_dict(doc)
        assert str(excinfo.value) == want

    @pytest.mark.parametrize(
        "entry, want",
        [
            ({"omega": 1.0}, "devices[9999]: missing key(s): demand"),
            ({"omega": 1.0, "Demand": 1.0}, "devices[9999]: unknown key(s): Demand"),
            ([1.0, 1.0], "devices[9999]: must be an object"),
        ],
        ids=["one key", "renamed key", "list"],
    )
    def test_last_of_ten_thousand_devices_named(self, entry, want):
        doc = scenario_to_dict(generate_random_scenario(10_000, 1))
        doc["devices"][-1] = entry
        with pytest.raises(ScenarioError) as excinfo:
            scenario_from_dict(doc)
        assert str(excinfo.value) == want
        # the first bad entry is named, after a good run of them
        doc["devices"][5000] = {"omega": 1.0, "demand": 1.0, "x": 1}
        with pytest.raises(ScenarioError, match=r"^devices\[5000\]: unknown key\(s\): x$"):
            scenario_from_dict(doc)

def handwritten_dict(scenario: Scenario) -> dict:
    """The serializer's dict written out field by field, as it was before it
    was derived from the dataclasses."""
    g, o = scenario.globals, scenario.options
    options = {
        "max_iters": o.max_iters,
        "tol_consensus": o.tol_consensus,
        "tol_constraint": o.tol_constraint,
        "init_mode": o.init_mode,
    }
    if o.seed is not None:
        options["seed"] = o.seed
    return {
        "bandwidth": g.bandwidth,
        "snr": g.snr,
        "price": g.price,
        "mu": g.mu,
        "eta": g.eta,
        "devices": [{"omega": w, "demand": d} for w, d in zip(scenario.omegas, scenario.demands)],
        "edges": [[i, j] for i, j in scenario.edges],
        "options": options,
    }


class TestRoundTrip:
    def test_benchmark_round_trip(self, bench_path):
        scenario = parse_scenario(bench_path.read_text())
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    @pytest.mark.parametrize(
        "options",
        [
            SolverOptions(
                max_iters=321,
                tol_consensus=3e-7,
                tol_constraint=4e-8,
                init_mode="seeded-random",
                seed=17,
            ),
            SolverOptions(),
        ],
        ids=["every-field-set", "seed-unset"],
    )
    def test_serialized_bytes_unchanged(self, options):
        scenario = Scenario(
            Globals(bandwidth=6.5, snr=40.0, price=0.03, mu=0.15, eta=0.05),
            (1.5, 2.0, 0.75),
            (1.0, 0.0, 2.5),
            ((0, 2), (2, 1)),
            options,
        )
        text = serialize_scenario(scenario)
        assert text == json.dumps(handwritten_dict(scenario), indent=2) + "\n"
        assert ('"seed"' in text) == (options.seed is not None)
        assert parse_scenario(text) == scenario

    def test_dict_form_matches_schema(self, bench):
        doc = scenario_to_dict(bench)
        assert set(doc) == {
            "bandwidth", "snr", "price", "mu", "eta", "devices", "edges", "options",
        }
        assert doc["devices"][0] == {"omega": 1.0, "demand": 1.0}
        assert doc["edges"] == [[0, 1], [1, 2]]

    @given(
        n=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    def test_round_trip_random_scenarios(self, n, data):
        omegas = data.draw(
            st.lists(
                st.floats(min_value=0.5, max_value=5.0),
                min_size=n,
                max_size=n,
            )
        )
        demands = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=3.0),
                min_size=n,
                max_size=n,
            )
        )
        # random spanning tree keeps the instance valid
        edges = []
        for v in range(1, n):
            u = data.draw(st.integers(min_value=0, max_value=v - 1))
            edges.append((u, v))
        seed = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=99)))
        scenario = make_scenario(
            omegas=omegas, demands=demands, edges=edges, seed=seed
        )
        assert parse_scenario(serialize_scenario(scenario)) == scenario


class TestLoadScenario:
    def test_reads_a_file(self, bench_path, bench):
        assert load_scenario(bench_path) == bench
        assert load_scenario(str(bench_path)) == bench

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scenario(tmp_path / "missing.json")

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"\xff\xfe{}", "not UTF-8 text: "),
            (b"[" * 200_000 + b"]" * 200_000, "nested too deeply to read"),
            (b'{"bandwidth": 5', "not valid JSON: "),
        ],
        ids=["not-utf8", "nested-deep", "truncated"],
    )
    def test_bad_file_raises_scenario_error(self, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ScenarioError, match=f"^{message}"):
            load_scenario(path)
        with pytest.raises(ScenarioError, match=f"^{message}"):
            parse_scenario(content)


def list_drawn_scenario(n: int, seed: int) -> Scenario:
    """The generator as it was, drawing extra edges from a list of every non-tree pair."""
    rng = random.Random(seed)
    omegas = [rng.uniform(0.5, 5.0) for _ in range(n)]
    demands = [rng.uniform(0.5, 3.0) for _ in range(n)]
    ratio = rng.uniform(0.5, 2.0)
    bandwidth = math.fsum(demands) / ratio
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    tree = set(edges)
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    edges += rng.sample(candidates, rng.randint(0, min(n, len(candidates))))
    return Scenario(
        globals=Globals(bandwidth=bandwidth, snr=100.0, price=0.01, mu=0.2, eta=0.2),
        omegas=tuple(omegas),
        demands=tuple(demands),
        edges=tuple(edges),
        options=SolverOptions(seed=seed),
    )


class TestGenerator:
    def test_matches_list_drawn_reference(self):
        for n in [*range(1, 40), 60, 200]:
            for seed in range(1, 8):
                assert generate_random_scenario(n, seed) == list_drawn_scenario(n, seed), (n, seed)

    @pytest.mark.parametrize(
        "n, digest",
        [
            (2000, "cf3503647df97dad6bc65ea180fe617be7c6d4aaf391bbedd16a5fd97338551b"),
            (10_000, "b5bd5e00ff84868b7665544d229092fcae389f55ae2ca28db9b8ad191f42a051"),
        ],
    )
    def test_pinned_digest_beyond_the_reference(self, n, digest):
        # sizes whose list of every non-tree pair is too large to draw from
        text = serialize_scenario(generate_random_scenario(n, 1))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_memory_linear_in_devices(self):
        # a list of every non-tree pair peaked near 190 MB at this size
        tracemalloc.start()
        try:
            generate_random_scenario(2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_single_device(self):
        scenario = generate_random_scenario(1, seed=7)
        assert scenario.n == 1
        assert scenario.edges == ()

    def test_deterministic(self):
        assert generate_random_scenario(5, seed=1) == generate_random_scenario(5, seed=1)

    def test_seed_changes_output(self):
        assert generate_random_scenario(5, seed=1) != generate_random_scenario(5, seed=2)

    def test_connected_and_ratio_bounds(self):
        scenario = generate_random_scenario(20, seed=3)
        assert scenario.n == 20
        # independent breadth-first search, not the package's own check
        adjacency = {i: set() for i in range(20)}
        for i, j in scenario.edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert seen == set(range(20))
        ratio = math.fsum(scenario.demands) / scenario.globals.bandwidth
        assert 0.5 <= ratio <= 2.0

    def test_parameter_ranges(self):
        for seed in range(1, 11):
            scenario = generate_random_scenario(2 + seed, seed=seed)
            assert all(0.5 <= w <= 5.0 for w in scenario.omegas)
            assert all(0.5 <= d <= 3.0 for d in scenario.demands)
            ratio = math.fsum(scenario.demands) / scenario.globals.bandwidth
            assert 0.5 <= ratio <= 2.0

    def test_generated_scenarios_survive_parsing(self):
        for seed in range(1, 11):
            scenario = generate_random_scenario(1 + seed, seed=seed)
            assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_rejects_zero_devices(self):
        with pytest.raises(ValueError):
            generate_random_scenario(0, seed=1)
