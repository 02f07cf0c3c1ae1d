"""Undirected communication graph over device indices."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

__all__ = ["Topology", "build"]


@dataclass(frozen=True)
class Topology:
    """Symmetric neighbor lists for ``n`` devices, fixed for a whole run."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def neighbors(self, i: int) -> tuple[int, ...]:
        """Sorted neighbor indices of device ``i``."""
        if not 0 <= i < self.n:
            raise IndexError(f"device index {i} out of range [0, {self.n})")
        return self.adjacency[i]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def is_connected(self) -> bool:
        """True when every device is reachable from device 0."""
        if self.n <= 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j in self.adjacency[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return len(seen) == self.n


def build(n: int, edges: Iterable[tuple[int, int]]) -> Topology:
    """Build a :class:`Topology` from undirected edge pairs.

    The one check of an edge list: a non-pair, endpoints that are not ints
    (bools included) or lie outside ``[0, n)``, self-loops, and an edge
    repeated in either orientation raise ``ValueError`` naming ``edges[k]``.
    """
    if n < 1:
        raise ValueError(f"device count must be >= 1, got {n}")
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
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
        if j in neighbor_sets[i]:
            raise ValueError(f"edges[{k}]: duplicate edge ({i}, {j})")
        neighbor_sets[i].add(j)
        neighbor_sets[j].add(i)
    return Topology(n=n, adjacency=tuple(tuple(sorted(s)) for s in neighbor_sets))
