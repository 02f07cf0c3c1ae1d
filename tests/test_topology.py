"""Graph construction, neighbor queries, and connectivity."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bandalloc.topology import build


def test_line_graph_neighbors():
    topo = build(3, [(0, 1), (1, 2)])
    assert topo.neighbors(0) == (1,)
    assert topo.neighbors(1) == (0, 2)
    assert topo.neighbors(2) == (1,)


def test_single_device():
    topo = build(1, [])
    assert topo.neighbors(0) == ()
    assert topo.edge_count == 0
    assert topo.is_connected()


def test_complete_graph_neighbors():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    topo = build(4, edges)
    assert topo.neighbors(2) == (0, 1, 3)
    assert topo.edge_count == 6


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


def test_neighbors_index_out_of_range():
    topo = build(2, [(0, 1)])
    with pytest.raises(IndexError):
        topo.neighbors(2)


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
        for j in topo.neighbors(i):
            assert i in topo.neighbors(j)
            assert i != j
    degree_sum = sum(len(topo.neighbors(i)) for i in range(n))
    assert degree_sum == 2 * topo.edge_count
    assert topo.edge_count == len({(min(i, j), max(i, j)) for i, j in edges})
