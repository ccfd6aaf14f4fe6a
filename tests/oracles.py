"""Reference oracles for the tests: scalar or explicit forms of rules that
`pwesim` implements in vectorized or graph-backed form.

- `segment_clear`: the scalar segment test behind `segments_clear_batch`.
- `SimpleGraph`: an explicit adjacency-set graph, input to `bfs_shortest_path`.
- `select_last_ris`: the lastRIS claim for an explicit candidate list, by
  the same `nearest_ris` rule that `get_routes` applies.
"""

import numpy as np

from pwesim.geometry import ENDPOINT_EPS, PARALLEL_EPS
from pwesim.routing import nearest_ris


def segment_clear(a, b, walls, openings=()):
    """True iff the open segment (a, b) is not blocked by any wall rectangle.

    A crossing inside a declared opening on that wall does not block;
    crossings within ENDPOINT_EPS of either endpoint are ignored (an RIS
    sits on its own wall).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    length = float(np.linalg.norm(ab))
    if length == 0.0:
        raise ValueError("segment endpoints must differ")
    for wall in walls:
        denom = float(np.dot(ab, wall.n))
        if abs(denom) < PARALLEL_EPS:
            continue
        t = float(np.dot(wall.p0 - a, wall.n)) / denom
        if t * length < ENDPOINT_EPS or (1.0 - t) * length < ENDPOINT_EPS:
            continue
        p = a + t * ab
        if not wall.contains(p):
            continue
        u, v = wall.local_uv(p)
        if any(op.wall_id == wall.id and op.contains_uv(u, v) for op in openings):
            continue
        return False
    return True


class SimpleGraph:
    """Explicit adjacency-set graph for tests and ad-hoc path queries."""

    def __init__(self, n, edges):
        self.vertex_count = n
        self._adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError("self loops not allowed")
            self._adj[u].add(v)
            self._adj[v].add(u)

    def neighbors(self, v):
        return sorted(self._adj[v])

    def has_edge(self, u, v):
        return v in self._adj[u]


def select_last_ris(point, candidates, antenna_index, graph):
    """Candidate RIS with LoS to the antenna that is nearest to `point`.

    Ties break toward the smallest RIS id. Returns None when no candidate
    has a graph edge to the antenna.
    """
    by_id = {r.id: r for r in candidates}
    available = np.zeros(graph.n_ris, dtype=bool)
    available[[graph.ris_vertex(rid) - 1 for rid in by_id]] = True
    available &= graph.row(graph.antenna_vertex(antenna_index))[1:1 + graph.n_ris]
    j = nearest_ris(point, graph.ris_centers, available)
    return None if j is None else by_id[graph.ris_ids[j]]
