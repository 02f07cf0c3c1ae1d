"""Undirected communication graph over device indices."""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from operator import eq

__all__ = ["Topology", "build"]


@dataclass(frozen=True)
class Topology:
    """A checked edge list over ``n`` devices, fixed for a whole run."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor indices of every device, built on first read."""
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            neighbors[i].append(j)
            neighbors[j].append(i)
        return tuple(tuple(sorted(nbrs)) for nbrs in neighbors)

    def is_connected(self) -> bool:
        """True when the edges join all devices into one component."""
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        """Connectivity by union-find, unless :func:`build`'s array check settled it."""
        parent = list(range(self.n))
        for i, j in self.edges:
            while (p := parent[i]) != i:  # path halving
                parent[i] = i = parent[p]
            while (p := parent[j]) != j:
                parent[j] = j = parent[p]
            if i < j:  # the smaller root stays a root, whatever the edge order
                parent[j] = i
            else:
                parent[i] = j
        return sum(map(eq, parent, range(self.n))) == 1


def build(n: int, edges: Iterable[tuple[int, int]]) -> Topology:
    """Build a :class:`Topology` from undirected edge pairs.

    The one check of an edge list: a non-pair, endpoints that are not ints
    (bools included) or lie outside ``[0, n)``, self-loops, and an edge
    repeated in either orientation raise ``ValueError`` naming ``edges[k]``.
    Where ``engine.array_kernel_for(n)`` would pick the numpy kernel and it
    is already imported, it checks the list and settles connectivity on
    arrays; building a topology never imports it. A per-entry loop checks
    the list otherwise, and names the first bad entry.
    """
    if n < 1:
        raise ValueError(f"device count must be >= 1, got {n}")
    edges = tuple(edges)
    kernel = sys.modules.get(f"{__package__}.array_kernel")
    if kernel is not None and n >= kernel.engine.ARRAY_MIN_DEVICES:
        checked = kernel.checked_graph(n, edges)
        if checked is not None:
            pairs, connected = checked
            topo = Topology(n=n, edges=pairs)
            vars(topo)["_connected"] = connected
            return topo
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
    return Topology(n=n, edges=tuple(seen))
