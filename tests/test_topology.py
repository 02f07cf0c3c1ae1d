"""Graph construction, adjacency, and connectivity."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bandalloc.topology import build


def test_line_graph_neighbors():
    topo = build(3, [(0, 1), (1, 2)])
    assert topo.adjacency[0] == (1,)
    assert topo.adjacency[1] == (0, 2)
    assert topo.adjacency[2] == (1,)


def test_single_device():
    topo = build(1, [])
    assert topo.adjacency[0] == ()
    assert len(topo.edges) == 0
    assert topo.is_connected()


def test_complete_graph_neighbors():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    topo = build(4, edges)
    assert topo.adjacency[2] == (0, 1, 3)
    assert len(topo.edges) == 6


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
    assert build(3, [(0, 1), (1, 2)]).is_connected()
    assert not build(3, [(0, 1)]).is_connected()
    assert not build(4, [(0, 1), (2, 3)]).is_connected()


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=12, unique=True) if possible else st.just([])
    )
    return n, edges


@given(random_graphs())
def test_symmetry_and_degree_sum(graph):
    n, edges = graph
    topo = build(n, edges)
    for i in range(n):
        for j in topo.adjacency[i]:
            assert i in topo.adjacency[j]
            assert i != j
    degree_sum = sum(len(topo.adjacency[i]) for i in range(n))
    assert degree_sum == 2 * len(topo.edges)
    assert len(topo.edges) == len({(min(i, j), max(i, j)) for i, j in edges})


def test_adjacency_built_on_first_read():
    topo = build(3, [(0, 1), (2, 1)])
    assert "adjacency" not in vars(topo)
    adjacency = topo.adjacency
    assert adjacency == ((1,), (0, 2), (1,))
    assert topo.adjacency is adjacency
    assert topo.edges == ((0, 1), (2, 1))


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
    """Valid edge lists, entries as lists or tuples, with up to two bad entries or repeats."""
    n, edges = draw(oriented_graphs())
    edges = [list(edge) if draw(st.booleans()) else edge for edge in edges]
    index = st.integers(min_value=0, max_value=n - 1)
    bad_end = st.one_of(
        st.integers(min_value=-3, max_value=-1),
        st.integers(min_value=n, max_value=n + 2),
        st.booleans(),
        st.floats(allow_nan=True, allow_infinity=True),
        st.just(None),
    )
    odd = st.one_of(
        st.tuples(index, index),  # a self-loop, a repeat or a new edge
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
    return n, edges


@given(mixed_edge_lists())
def test_build_matches_per_entry_reference(case):
    n, edges = case
    try:
        want = reference_build(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            build(n, edges)
        assert str(excinfo.value) == str(exc)
    else:
        topo = build(n, edges)
        assert topo.adjacency == want
        assert topo.edges == tuple(map(tuple, edges))
        assert all(type(edge) is tuple for edge in topo.edges)


@given(oriented_graphs())
def test_connectivity_matches_breadth_first_search(graph):
    n, edges = graph
    assert build(n, edges).is_connected() == reference_connected(n, edges)
