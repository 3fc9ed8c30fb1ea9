"""Shared test utilities for the Spade reproduction suite."""
from __future__ import annotations

import random
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import SpadeEngine, validate_peeling
from repro.core.peel import best_community


def random_edges(
    seed: int, n: int = 8, m: int = 20, continuous: bool = False
) -> List[Tuple[str, str, float]]:
    """A reproducible random multigraph edge list (no self-loops)."""
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            v = (v + 1) % n
        amt = rng.uniform(0.1, 10.0)
        if not continuous:
            amt = round(amt, 2)
        edges.append((f"v{u}", f"v{v}", amt))
    return edges


def assert_engine_valid(eng: SpadeEngine) -> None:
    """The engine's maintained sequence is a valid greedy peel and its
    detection state is consistent with that sequence.

    The community check asserts the detected suffix *achieves* the
    maximum suffix density rather than matching one canonical argmax:
    several suffixes can tie exactly, and float-epsilon differences
    between the engine's accumulated ``f_total`` and a recomputed one
    may flip which tied index ``argmax`` returns.
    """
    import numpy as np

    n, adj, a = eng.snapshot_graph()
    order_ext = eng.order_external()
    order = [eng._vid_of[x] for x in order_ext]
    delta = np.asarray(eng.deltas())
    validate_peeling(n, adj, a, order, list(delta))
    f_total = float(sum(a)) + 0.5 * float(sum(sum(d.values()) for d in adj))
    assert abs(f_total - eng.f_total) <= 1e-6 * max(1.0, abs(f_total))
    if n == 0:
        return
    f = eng.f_total - np.concatenate(([0.0], np.cumsum(delta[:-1])))
    g_all = f / np.arange(n, 0, -1, dtype=float)
    g_max = float(g_all.max())
    tol = 1e-6 * max(1.0, abs(g_max))
    assert abs(g_max - eng.best_density) <= tol
    comm = {eng._vid_of[x] for x in eng.community_external()}
    i_eng = n - len(comm)
    assert set(order[i_eng:]) == comm, "community is not a sequence suffix"
    assert g_all[i_eng] >= g_max - tol, "community does not achieve max density"


def brute_force_best_density(
    n: int, adj: Sequence[Dict[int, float]], a: Sequence[float]
) -> float:
    """Exhaustive ``max_S g(S)`` for tiny graphs (n <= 12)."""
    best = 0.0
    for k in range(1, n + 1):
        for S in combinations(range(n), k):
            sset = set(S)
            f = sum(a[v] for v in S)
            f += 0.5 * sum(
                c for v in S for u, c in adj[v].items() if u in sset
            )
            best = max(best, f / k)
    return best


def grouping_flush_sizes(
    urgent: Sequence[bool], max_buffer: Optional[int] = None
) -> List[int]:
    """Group sizes of edge grouping, derived from the urgent flags alone.

    The rule of §4.3 applied to a stream: an urgent edge flushes the
    pending edges with it, a benign edge flushes them once ``max_buffer``
    are pending, and the trailing benign edges flush at end of stream.
    """
    sizes: List[int] = []
    pending = 0
    for u in urgent:
        pending += 1
        if u or (max_buffer is not None and pending >= max_buffer):
            sizes.append(pending)
            pending = 0
    if pending:
        sizes.append(pending)
    return sizes
