"""Undirected communication graph over device indices: the check of an edge
list and its connectivity, and the neighbor lists the engine gossips over."""

from __future__ import annotations

import sys
from collections.abc import Iterable
from operator import eq

__all__ = ["adjacency", "build"]


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor indices of every device of a checked edge list."""
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    return tuple(tuple(sorted(nbrs)) for nbrs in neighbors)


def _connected(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """True when the checked ``edges`` join all ``n`` devices, by union-find."""
    parent = list(range(n))
    for i, j in edges:
        while (p := parent[i]) != i:  # path halving
            parent[i] = i = parent[p]
        while (p := parent[j]) != j:
            parent[j] = j = parent[p]
        if i < j:  # the smaller root stays a root, whatever the edge order
            parent[j] = i
        else:
            parent[i] = j
    return sum(map(eq, parent, range(n))) == 1


def build(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The pairs of an edge list that connects ``n`` devices, as tuples in order.

    The one check of an edge list: a non-pair, endpoints that are not ints
    (bools included) or lie outside ``[0, n)``, self-loops, and an edge
    repeated in either orientation raise ``ValueError`` naming ``edges[k]``;
    a valid list that leaves a device unreached raises ``ValueError("edges:
    communication graph is not connected")``. Where
    ``engine.array_kernel_for(n)`` would pick the numpy kernel and it is
    already imported, it checks the list and decides connectivity on arrays;
    building never imports it. A per-entry loop checks the list otherwise, and
    names the first bad entry, and a union-find decides connectivity.
    """
    if n < 1:
        raise ValueError(f"device count must be >= 1, got {n}")
    edges = tuple(edges)
    kernel = sys.modules.get(f"{__package__}.array_kernel")
    on_arrays = kernel is not None and n >= kernel.engine.ARRAY_MIN_DEVICES
    checked = kernel.checked_graph(n, edges) if on_arrays else None
    if checked is None:
        seen: dict[tuple[int, int], None] = {}  # the pairs, in order
        for k, edge in enumerate(edges):
            try:
                i, j = edge
            except (TypeError, ValueError):  # not a pair
                i = j = None
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"edges[{k}]: must be a pair of integer indices")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edges[{k}]: endpoint out of range [0, {n}) in ({i}, {j})")
            if i == j:
                raise ValueError(f"edges[{k}]: self-loop ({i}, {j})")
            if (i, j) in seen or (j, i) in seen:
                raise ValueError(f"edges[{k}]: duplicate edge ({i}, {j})")
            seen[i, j] = None
        checked = tuple(seen), _connected(n, seen)
    pairs, connected = checked
    if not connected:
        raise ValueError("edges: communication graph is not connected")
    return pairs
