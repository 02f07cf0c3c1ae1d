"""Benchmark-side scenario generator.

Draws from the distributions documented for
``bandalloc.generate_random_scenario`` (omega U[0.5, 5], demand U[0.5, 3],
demand-to-budget ratio U[0.5, 2], a random spanning tree plus U{0..n}
extra edges, snr 100, price 0.01, eta = mu = 0.2), but samples the extra
edges by rejection in O(n) instead of listing all O(n^2) candidate pairs,
so n = 10^4 fits in a few megabytes.

It is deliberately a copy of those distributions rather than a call to the
package: a change to the package generator must not silently change the
benchmark's inputs. ``PINNED`` records digests of known outputs; ``check``
fails when this file's output drifts from them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# (n, seed, n_extra) -> sha256 of the canonical JSON document.
PINNED = {
    (3, 1, None): "6344bdf98c111fa4214630dd3ffadfdf25d024d7f9b0ed6c1063d68f9d3de1ca",
    (50, 7, None): "f5349b090a194980c1c1fb4e9916e764a1aed8f5b31ab22e0c40148baf611dd7",
    (200, 11, 40): "235bb1a841c552e6966f1488e239f2192e89abfd00fb6bbabe32dc4d3226cea1",
}


def scenario_doc(n: int, seed: int, n_extra: int | None = None) -> dict:
    """Scenario document for ``n`` devices drawn from ``seed``.

    ``n_extra`` fixes the number of extra (non-tree) edges; by default it is
    drawn from U{0..n}, capped by the number of non-tree pairs.
    """
    if n < 1:
        raise ValueError(f"device count must be >= 1, got {n}")
    rng = random.Random(seed)
    omegas = [rng.uniform(0.5, 5.0) for _ in range(n)]
    demands = [rng.uniform(0.5, 3.0) for _ in range(n)]
    ratio = rng.uniform(0.5, 2.0)
    bandwidth = math.fsum(demands) / ratio

    edges = [(rng.randrange(v), v) for v in range(1, n)]
    taken = {(min(i, j), max(i, j)) for i, j in edges}
    spare = n * (n - 1) // 2 - len(edges)
    if n_extra is None:
        n_extra = rng.randint(0, n)
    n_extra = min(n_extra, spare)
    while n_extra > 0:
        i, j = rng.randrange(n), rng.randrange(n)
        key = (min(i, j), max(i, j))
        if i == j or key in taken:
            continue
        taken.add(key)
        edges.append(key)
        n_extra -= 1

    return {
        "bandwidth": bandwidth,
        "snr": 100.0,
        "price": 0.01,
        "mu": 0.2,
        "eta": 0.2,
        "devices": [{"omega": w, "demand": d} for w, d in zip(omegas, demands)],
        "edges": [[i, j] for i, j in edges],
    }


def stratified_extra(n: int, k: int, count: int, rng: random.Random) -> int:
    """Extra-edge count for instance ``k`` of ``count``: uniform on the k-th of
    ``count`` equal slices of {0..n}. Over a random k this is U{0..n}, as in
    ``scenario_doc``; across a list it spans sparse to dense graphs, so list
    totals vary less from seed to seed."""
    lo = k * (n + 1) // count
    hi = (k + 1) * (n + 1) // count - 1
    return rng.randint(lo, max(lo, hi))


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check() -> None:
    """Raise ``RuntimeError`` if the generator's output drifted from ``PINNED``."""
    for (n, seed, n_extra), want in PINNED.items():
        got = digest(scenario_doc(n, seed, n_extra))
        if got != want:
            raise RuntimeError(
                f"generator output changed for n={n} seed={seed} n_extra={n_extra}: "
                f"{got} != {want}; the workloads would change with it"
            )
