"""Edge-list checks, connectivity, and adjacency."""

from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from bandalloc import engine, topology
from bandalloc.topology import adjacency, build

from conftest import make_scenario

DISCONNECTED = "^edges: communication graph is not connected$"

# ``engine.ARRAY_MIN_DEVICES`` for each path of ``build`` that can run: the
# per-entry loop and the union-find at every size, and numpy's arrays from one
# device on when numpy imports. ``build`` never imports the array kernel
# itself, so this does.
EDGE_PATHS = {"stdlib": sys.maxsize}
if engine.array_kernel_for(sys.maxsize) is not None:
    EDGE_PATHS["array"] = 1


def build_on(path, n, edges):
    """``build`` on the path named, as in ``EDGE_PATHS``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "ARRAY_MIN_DEVICES", EDGE_PATHS[path])
        return build(n, edges)


def test_line_graph_neighbors():
    neighbors = adjacency(3, build(3, [(0, 1), (1, 2)]))
    assert neighbors[0] == (1,)
    assert neighbors[1] == (0, 2)
    assert neighbors[2] == (1,)


def test_single_device():
    assert build(1, []) == ()
    assert adjacency(1, ()) == ((),)


def test_complete_graph_neighbors():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pairs = build(4, edges)
    assert adjacency(4, pairs)[2] == (0, 1, 3)
    assert len(pairs) == 6


def test_duplicate_edges_rejected():
    # either orientation, named by the index of the repeat
    with pytest.raises(ValueError, match=r"edges\[2\]: duplicate edge \(0, 1\)"):
        build(3, [(0, 1), (1, 2), (0, 1)])
    with pytest.raises(ValueError, match=r"edges\[1\]: duplicate edge \(1, 0\)"):
        build(3, [(0, 1), (1, 0)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError, match=r"\(0, 3\)"):
        build(3, [(0, 3)])


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        build(3, [(1, 1)])


def test_bad_device_count_rejected():
    with pytest.raises(ValueError):
        build(0, [])


def test_connectivity():
    assert build(3, [(0, 1), (1, 2)]) == ((0, 1), (1, 2))
    for n, edges in ((3, [(0, 1)]), (4, [(0, 1), (2, 3)]), (2, [])):
        with pytest.raises(ValueError, match=DISCONNECTED):
            build(n, edges)


@st.composite
def random_graphs(draw):
    """Up to 8 devices on any edges, or 16 to 40 in one to four components."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=8))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(
            st.lists(st.sampled_from(possible), max_size=12, unique=True)
            if possible
            else st.just([])
        )
        return n, edges
    # each component a random tree on shuffled ids, with up to one extra edge
    # per device inside it: graphs of several components reach the n - 1
    # edges below which the array check leaves a list to the loop
    n = draw(st.integers(min_value=16, max_value=40))
    ids = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=3)))
    edges = set()
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        part = ids[lo:hi]
        edges.update((part[draw(st.integers(0, k - 1))], part[k]) for k in range(1, len(part)))
        for _ in range(draw(st.integers(min_value=0, max_value=len(part)))):
            i, j = draw(st.sampled_from(part)), draw(st.sampled_from(part))
            if i != j and (j, i) not in edges:
                edges.add((i, j))
    return n, sorted(edges)


@given(random_graphs())
def test_symmetry_and_degree_sum(graph):
    # on any checked edge list, connected or not
    n, edges = graph
    neighbors = adjacency(n, edges)
    assert len(neighbors) == n
    for i in range(n):
        assert list(neighbors[i]) == sorted(neighbors[i])
        for j in neighbors[i]:
            assert i in neighbors[j]
            assert i != j
    degree_sum = sum(len(neighbors[i]) for i in range(n))
    assert degree_sum == 2 * len(edges)
    assert len(edges) == len({(min(i, j), max(i, j)) for i, j in edges})
    for path in EDGE_PATHS:
        if reference_connected(n, edges):
            assert build_on(path, n, edges) == tuple(edges), path
        else:
            with pytest.raises(ValueError, match=DISCONNECTED):
                build_on(path, n, edges)


def test_adjacency_built_on_first_read():
    scenario = make_scenario(omegas=(1.0,) * 3, demands=(1.0,) * 3, edges=[(0, 1), [2, 1]])
    assert "adjacency" not in vars(scenario)
    neighbors = scenario.adjacency
    assert neighbors == ((1,), (0, 2), (1,)) == adjacency(3, scenario.edges)
    assert scenario.adjacency is neighbors
    assert scenario.edges == ((0, 1), (2, 1))


def reference_build(n, edges):
    """Per-entry reference: the adjacency, or the first bad entry's ``edges[k]`` error."""
    neighbor_sets = [set() for _ in range(n)]
    for k, edge in enumerate(edges):
        try:
            i, j = edge
        except (TypeError, ValueError):
            i = j = None
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"edges[{k}]: must be a pair of integer indices")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edges[{k}]: endpoint out of range [0, {n}) in ({i}, {j})")
        if i == j:
            raise ValueError(f"edges[{k}]: self-loop ({i}, {j})")
        if j in neighbor_sets[i]:
            raise ValueError(f"edges[{k}]: duplicate edge ({i}, {j})")
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    return tuple(tuple(sorted(s)) for s in neighbor_sets)


def reference_connected(n, edges):
    """Breadth-first search from device 0."""
    adjacency = reference_build(n, edges)
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [j for i in frontier for j in adjacency[i] if j not in seen]
        seen.update(frontier)
    return len(seen) == n


@st.composite
def oriented_graphs(draw):
    """Graphs on up to 8 devices, connected or not, in any edge order and orientation."""
    n, edges = draw(random_graphs())
    edges = draw(st.permutations(edges))
    return n, [(j, i) if draw(st.booleans()) else (i, j) for i, j in edges]


@st.composite
def mixed_edge_lists(draw):
    """Valid edge lists, entries as lists or tuples, with up to two bad entries or
    repeats, and maybe a reversed repeat at the last index."""
    n, pairs = draw(oriented_graphs())
    edges = [list(edge) if draw(st.booleans()) else edge for edge in pairs]
    index = st.integers(min_value=0, max_value=n - 1)
    bad_end = st.one_of(
        st.integers(min_value=-3, max_value=-1),
        st.integers(min_value=n, max_value=n + 2),
        st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True),
        # beyond int64 on either side, and not ints at all
        st.sampled_from([2**63, -(2**63) - 1, 10**30, True, 1.0, None, "1"]),
    )
    odd = st.one_of(
        st.tuples(index, index),  # a self-loop, a repeat or a new edge
        index.map(lambda i: [i, i]),
        st.tuples(index, bad_end),
        st.tuples(bad_end, index).map(list),
        st.integers(min_value=0, max_value=n),
        st.lists(index, max_size=3),
        st.tuples(index, index, index),
        st.just("01"),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if edges and draw(st.booleans()):  # a repeat, in either orientation
            entry = draw(st.sampled_from(edges))
            if isinstance(entry, (list, tuple)) and draw(st.booleans()):
                entry = type(entry)(reversed(entry))
        else:
            entry = draw(odd)
        edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), entry)
    if pairs and draw(st.booleans()):  # a repeat at the last index, reversed
        i, j = draw(st.sampled_from(pairs))
        edges.append((j, i))
    return n, edges


@given(mixed_edge_lists())
def test_build_matches_per_entry_reference(case):
    n, edges = case
    try:
        want = reference_build(n, edges)
    except ValueError as exc:
        for path in EDGE_PATHS:
            with pytest.raises(ValueError) as excinfo:
                build_on(path, n, edges)
            assert str(excinfo.value) == str(exc), path
    else:
        for path in EDGE_PATHS:
            if not reference_connected(n, edges):
                with pytest.raises(ValueError, match=DISCONNECTED):
                    build_on(path, n, edges)
                continue
            pairs = build_on(path, n, edges)
            assert adjacency(n, pairs) == want, path
            assert pairs == tuple(map(tuple, edges)), path
            assert all(type(edge) is tuple for edge in pairs), path


@pytest.mark.parametrize(
    "entry",
    [
        (0, 2**63),
        (-(2**63) - 1, 0),
        [0, 10**30],
        (True, 1),
        (0, 1.0),
        (None, 0),
        ("1", 0),
        (3, 3),
        (0, 20),
        [-1, 0],
        (19, 18),
        [0, 1, 2],
        5,
    ],
    ids=repr,
)
def test_bad_last_entry_named_on_both_paths(entry):
    # 19 valid edges first, enough for the array check to run at n=20
    edges = [(k, k + 1) for k in range(19)] + [entry]
    with pytest.raises(ValueError) as want:
        reference_build(20, edges)
    for path in EDGE_PATHS:
        with pytest.raises(ValueError) as excinfo:
            build_on(path, 20, edges)
        assert str(excinfo.value) == str(want.value), path


@given(oriented_graphs())
def test_connectivity_matches_breadth_first_search(graph):
    n, edges = graph
    want = reference_connected(n, edges)
    for path in EDGE_PATHS:
        if want:
            assert build_on(path, n, edges) == tuple(edges), path
        else:
            with pytest.raises(ValueError, match=DISCONNECTED):
                build_on(path, n, edges)


def test_array_path_settles_connectivity_at_build(monkeypatch):
    # the array check tests connectivity from its own arrays; the union-find
    # runs only on lists the loop checks
    if "array" not in EDGE_PATHS:
        pytest.skip("numpy is not installed")
    calls, union_find = [], topology._connected
    monkeypatch.setattr(
        topology, "_connected", lambda *args: calls.append(args) or union_find(*args)
    )
    edges = [(k, k + 1) for k in range(19)]
    assert build_on("array", 20, edges) == tuple(edges)
    with pytest.raises(ValueError, match=DISCONNECTED):
        build_on("array", 20, edges[:9] + edges[10:] + [(0, 2)])
    assert calls == []
    assert build_on("stdlib", 20, edges) == tuple(edges)
    with pytest.raises(ValueError, match=DISCONNECTED):  # too few edges for the array check
        build_on("array", 20, edges[1:])
    want = [(20, tuple(edges)), (20, tuple(edges[1:]))]
    assert [(n, tuple(pairs)) for n, pairs in calls] == want


def shapes(n: int) -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """Graphs whose labels fall slowly under hooking, and disconnected ones."""
    rng = random.Random(20)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    zigzag = [k // 2 if k % 2 == 0 else n - 1 - k // 2 for k in range(n)]
    tree_ids = list(range(n))
    rng.shuffle(tree_ids)
    half = n // 2
    return {
        "path sorted": (n, [(k, k + 1) for k in range(n - 1)]),
        "path reversed": (n, [(k + 1, k) for k in reversed(range(n - 1))]),
        "path shuffled": (n, list(zip(shuffled, shuffled[1:]))),
        "path zigzag": (n, list(zip(zigzag, zigzag[1:]))),
        "star on n-1": (n, [(n - 1, k) for k in range(n - 1)]),
        "random recursive tree": (
            n,
            [(tree_ids[rng.randrange(k)], tree_ids[k]) for k in range(1, n)],
        ),
        "two halves": (
            n,
            [(k, k + 1) for k in range(half - 1)] + [(k, k + 1) for k in range(half, n - 1)],
        ),
        "last device isolated": (n, [(k, k + 1) for k in range(n - 2)]),
        "no edges at n=16": (16, []),
    }


@pytest.mark.parametrize("shape", list(shapes(10_000)))
def test_component_labels_on_adversarial_shapes(shape):
    np = pytest.importorskip("numpy")
    from bandalloc.array_kernel import component_labels

    n, edges = shapes(10_000)[shape]
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    labels, hooks, jumps = component_labels(n, ends.min(axis=1), ends.max(axis=1))
    neighbors = adjacency(n, edges)
    # each device's label is the least device of its component
    want = [None] * n
    for start in range(n):  # breadth-first from each least device, in order
        frontier = [start] if want[start] is None else []
        while frontier:
            for i in frontier:
                want[i] = start
            frontier = [j for i in frontier for j in neighbors[i] if want[j] is None]
    assert labels.tolist() == want
    # and the union-find agrees
    assert (not labels.any()) is (set(want) == {0}) is topology._connected(n, tuple(edges))
    rounds = math.ceil(math.log2(n))
    assert hooks <= 2 * rounds + 2
    assert jumps <= hooks * (rounds + 1)
