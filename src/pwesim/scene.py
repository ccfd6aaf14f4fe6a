"""Scene container and the LoS visibility graph with minimum-hop paths.

A RIS unit is a row of `Scene.ris_centers`, and its id is that row index;
`Scene.ris_walls` holds the id of each row's host wall. The graph's vertices
are the possible hops of a path: a vertex is an index into
`PweGraph.positions`, 0 the transmitter and 1 + j RIS j. An edge exists iff
the open segment between the two vertex positions crosses no wall outside a
declared opening. Antennas are never hops, so they are not vertices: antenna
i's visibility is `PweGraph.antenna_row(i)`, one bool per RIS id. Rows are
computed lazily (vectorized over all endpoints) and cached, so large scenes
stay tractable.

The Tx -> lastRIS path rule is `PweGraph.min_hop_path`: the direct edge when
Tx sees lastRIS, else [Tx, u, lastRIS] with u the smallest RIS vertex visible
from both, else `bfs_shortest_path` (also the test oracle) from lastRIS. It
returns exactly what that BFS returns, reversed, and is memoized per lastRIS
on the graph, so one graph per scene shares its paths across trials.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import AntennaArray, WallTable, segments_clear_batch


# Tx-visible RIS tested per segments_clear_batch call when looking for the
# middle hop of a two-hop path; the search stops at the first chunk with a
# clear segment instead of testing every Tx-visible RIS
PATH_CHUNK = 64


class SceneError(Exception):
    """The scene cannot support routing (e.g. transmitter sees no RIS)."""


@dataclass
class Scene:
    walls: list
    openings: list
    ris_centers: np.ndarray    # (n_ris, 3), read-only copy; RIS id j is row j
    ris_walls: np.ndarray      # (n_ris,), read-only copy; host wall id per row
    tx: np.ndarray
    rx: AntennaArray

    def __post_init__(self):
        self.tx = np.asarray(self.tx, dtype=float)
        # trace_walls keeps the first wall hit in column order: ascending id
        self.walls = sorted(self.walls, key=lambda w: w.id)
        self.wall_table = WallTable(self.walls, self.openings)
        self.ris_centers = np.array(self.ris_centers, dtype=float)
        self.ris_walls = np.array(self.ris_walls, dtype=int)
        self.ris_centers.setflags(write=False)
        self.ris_walls.setflags(write=False)
        if self.ris_walls.ndim != 1 or self.ris_centers.shape != (len(self.ris_walls), 3):
            raise SceneError("ris_centers must be (n, 3) with one ris_walls entry per row")
        unknown = np.flatnonzero(~np.isin(self.ris_walls, [w.id for w in self.walls]))
        if len(unknown):
            raise SceneError(f"RIS {unknown[0]} names no wall: {self.ris_walls[unknown[0]]}")
        for wall in self.walls:
            rows = np.flatnonzero(self.ris_walls == wall.id)
            off = rows[np.abs((self.ris_centers[rows] - wall.p0) @ wall.n) > 1e-9]
            if len(off):
                raise SceneError(f"RIS {off[0]} center is off its host wall")


class PweGraph:
    """Immutable LoS graph over Tx and the RIS units of a scene; adjacency
    rows, antenna visibility rows and Tx paths cached."""

    def __init__(self, scene):
        self.scene = scene
        self.n_ris = len(scene.ris_centers)
        self.positions = np.vstack([scene.tx, scene.ris_centers])
        self._rows = {}
        self._antenna_rows = {}
        self._paths = {}

    @property
    def tx_vertex(self):
        return 0

    def ris_vertex(self, ris_id):
        return 1 + ris_id

    def antenna_row(self, index):
        """Read-only bool row, one entry per RIS id: which RIS units antenna
        `index` sees (cached)."""
        cached = self._antenna_rows.get(index)
        if cached is None:
            cached = segments_clear_batch(self.scene.rx.antennas[index], self.scene.ris_centers,
                                          self.scene.walls, self.scene.openings)
            cached.setflags(write=False)
            self._antenna_rows[index] = cached
        return cached

    def row(self, v):
        """Boolean adjacency row of vertex v (cached)."""
        cached = self._rows.get(v)
        if cached is None:
            cached = segments_clear_batch(self.positions[v], self.positions,
                                          self.scene.walls, self.scene.openings)
            cached[v] = False
            cached.setflags(write=False)
            self._rows[v] = cached
        return cached

    def has_edge(self, u, v):
        if u == v:
            return False
        cached = self._rows.get(u)
        if cached is None:
            cached = self._rows.get(v)
            u, v = v, u
        if cached is not None:
            return bool(cached[v])
        return bool(segments_clear_batch(self.positions[u],
                                         self.positions[v][None, :],
                                         self.scene.walls, self.scene.openings)[0])

    def min_hop_path(self, last):
        """Minimum-hop Tx -> `last` path as a vertex tuple, Tx first, or None.

        Every vertex past Tx is a RIS unit, so only RIS units serve as hops.
        Ties resolve as in `bfs_shortest_path(self, last, tx)`: the direct
        edge if Tx sees `last`; else the smallest RIS vertex u seen by both,
        found by testing Tx's visible RIS against `last` in ascending chunks;
        else that BFS itself. Results, None included, are memoized per `last`.
        """
        if last not in self._paths:
            self._paths[last] = self._search_path(last)
        return self._paths[last]

    def _search_path(self, last):
        tx = self.tx_vertex
        tx_row = self.row(tx)
        if tx_row[last]:
            return (tx, last)
        seen_by_tx = np.flatnonzero(tx_row)
        for lo in range(0, len(seen_by_tx), PATH_CHUNK):
            chunk = seen_by_tx[lo:lo + PATH_CHUNK]
            clear = segments_clear_batch(self.positions[last], self.positions[chunk],
                                         self.scene.walls, self.scene.openings)
            if clear.any():
                return (tx, int(chunk[np.argmax(clear)]), last)
        found = bfs_shortest_path(self, last, tx)
        return None if found is None else tuple(reversed(found))

    def neighbors(self, v):
        """Neighbor indices of v in ascending order."""
        return np.flatnonzero(self.row(v))


def build_graph(scene):
    """Build the LoS graph; fault if the transmitter sees no RIS unit."""
    if not len(scene.ris_centers):
        raise SceneError("scene contains no RIS units")
    graph = PweGraph(scene)
    if not graph.row(graph.tx_vertex).any():
        raise SceneError("transmitter has no LoS to any RIS unit")
    return graph


def bfs_shortest_path(graph, source, target, banned=()):
    """Minimum-hop path from source to target avoiding banned vertices.

    Neighbors are expanded in ascending vertex order, so ties resolve
    deterministically. Returns the vertex list or None when unreachable.
    """
    if source == target:
        raise ValueError("source and target must differ")
    banned = set(banned)
    if source in banned or target in banned:
        raise ValueError("source and target must not be banned")
    parent = {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        # target adjacency is checked at dequeue time: the first dequeued
        # vertex adjacent to the target is exactly the BFS parent the
        # ascending expansion order would pick, and this avoids computing
        # full adjacency rows past the target's depth.
        if graph.has_edge(u, target):
            path = [target, u]
            while parent[u] is not None:
                u = parent[u]
                path.append(u)
            path.reverse()
            return path
        for v in graph.neighbors(u):
            v = int(v)
            if v in parent or v in banned or v == target:
                continue
            parent[v] = u
            queue.append(v)
    return None
