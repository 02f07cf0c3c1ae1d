"""Scenario parsing, validation, serialization, and generation."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from bandalloc import engine, oracle
from bandalloc.admission import admit
from bandalloc.scenario import (
    DeviceParams,
    Globals,
    Scenario,
    ScenarioError,
    SolverOptions,
    generate_random_scenario,
    parse_scenario,
    scenario_to_dict,
    serialize_scenario,
)

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

    def test_unknown_option_key(self):
        with pytest.raises(ScenarioError, match="verbose"):
            parse_scenario(doc_with(options={"verbose": True}))

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
        with pytest.raises(ScenarioError, match="omega"):
            DeviceParams(omega=0.0, demand=1.0)

    def test_oversized_integer_names_field(self):
        with pytest.raises(ScenarioError, match="bandwidth"):
            Globals(bandwidth=10**400, snr=100.0, price=0.01, mu=0.2, eta=0.2)
        with pytest.raises(ScenarioError, match="demand"):
            DeviceParams(omega=1.0, demand=10**400)
        with pytest.raises(ScenarioError, match="tol_constraint"):
            SolverOptions(tol_constraint=10**400)

    def test_numbers_stored_as_floats(self):
        g = Globals(bandwidth=5, snr=100, price=1, mu=1, eta=1)
        d = DeviceParams(omega=2, demand=0)
        o = SolverOptions(tol_consensus=1, tol_constraint=1)
        values = (*dataclasses.astuple(g), *dataclasses.astuple(d))
        assert all(type(v) is float for v in (*values, o.tol_consensus, o.tol_constraint))

    @pytest.mark.parametrize("edge", [(0, 1.7), (0.0, 1), (False, True), (0, "1")])
    def test_non_integer_endpoint_rejected(self, edge):
        with pytest.raises(ScenarioError, match=r"edges\[1\]: must be a pair of integer indices"):
            make_scenario(omegas=(1.0, 1.0, 1.0), demands=(1.0, 1.0, 1.0), edges=((1, 2), edge))

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
        assert scenario.topology.adjacency == ((1,), (0, 2), (1,))
        confirmed = admit(scenario.demands, scenario.globals.bandwidth)
        engine.run(scenario)
        oracle.solve(scenario, confirmed)
        assert len(build_calls) == 1

    def test_no_part_in_equality_hash_or_repr(self):
        a, b = bench_scenario(), bench_scenario()
        object.__setattr__(b, "topology", None)
        assert a == b and hash(a) == hash(b)
        assert "topology" not in repr(a) and repr(a) == repr(b)
        with pytest.raises(TypeError):
            Scenario(a.globals, a.devices, a.edges, a.options, a.topology)

    def test_replace_rebuilds_and_validates(self, build_calls):
        scenario = bench_scenario()
        ring = dataclasses.replace(scenario, edges=((0, 1), (1, 2), (2, 0)))
        assert len(build_calls) == 2
        assert ring.topology.adjacency == ((1, 2), (0, 2), (0, 1))
        assert scenario.topology.adjacency == ((1,), (0, 2), (1,))
        with pytest.raises(ScenarioError, match=r"edges\[1\]: duplicate edge"):
            dataclasses.replace(scenario, edges=((0, 1), (1, 0), (1, 2)))


class TestRoundTrip:
    def test_benchmark_round_trip(self, bench_path):
        scenario = parse_scenario(bench_path.read_text())
        assert parse_scenario(serialize_scenario(scenario)) == scenario

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


class TestGenerator:
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
