"""Scene container and the LoS visibility graph with minimum-hop paths.

A RIS unit is a row of `Scene.ris_centers`, and its id is that row index;
`Scene.ris_walls` holds the id of each row's host wall. A scene built with
`ris_grid` = d_r, the pitch its units were laid at, also holds `ris_cells`
(`RisCells`): per wall, the cell -> RIS row table of the d_r lattice through
its units, read off their centers, which ranks the units nearest a wall
point for the lastRIS claim.

The graph's vertices are the possible hops of a path: a vertex is an index
into `PweGraph.positions`, 0 the transmitter and 1 + j RIS j. An edge exists
iff the open segment between the two vertex positions crosses no wall
outside a declared opening. Antennas are never hops, so they are not
vertices: antenna i's visibility is row i of `PweGraph.visibility`, one
bool per RIS id, computed for the whole array on first read. The graph
answers one query, `PweGraph.row(v)`: v's adjacency row, computed lazily
(vectorized over all endpoints) and cached, so large scenes stay tractable.

The Tx -> lastRIS path rule is `PweGraph.min_hop_paths`, for a list of
lastRIS ids at once: the direct edge when Tx sees lastRIS, else
[Tx, u, lastRIS] with u the smallest RIS vertex visible from both, read off
a relay array filled lazily from the cached rows of Tx's visible units,
else `bfs_shortest_path` (also the test oracle) from lastRIS. As a segment
is clear from either end, it returns exactly that BFS's path, reversed, as
vertex tuples. Callers name units by RIS id; only this module maps an id to
its vertex.
"""

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import AntennaArray, WallTable, array_visibility, segments_clear_batch


# antenna x RIS pairs per segments_clear_batch call for the units the
# whole-array decision leaves open: bounds the (L, N, 3) temporaries
VISIBILITY_CHUNK = 1 << 12
# a RIS center may lie this far off its host wall's plane, meters
PLANE_TOL = 1e-9
# a unit of a RisCells table lies within GRID_TOL * d_r of its lattice point
GRID_TOL = 1e-6
# cell offsets of the 3 x 3 block RisCells.candidates ranks, u inner
_BLOCK_U = np.array([-1, 0, 1] * 3)
_BLOCK_V = np.repeat([-1, 0, 1], 3)


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
    # pitch d_r of the lattice ris_centers lie on, wall by wall, or None
    ris_grid: float = None

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
        t = self.wall_table
        # per wall: the matrix taking a point less p0 to its (u, v, n), and
        # the bounds on a hosted center's |u|, |v|, |n|
        frames = np.stack([t.u_axis, t.v_axis, t.n], axis=2)
        limits = np.stack([t.u_limit, t.v_limit, np.full(len(t.ids), PLANE_TOL)], axis=1)
        cells = None
        if self.ris_grid is not None:
            cells = RisCells(t.p0, frames, limits, self.ris_centers, self.ris_grid)
        for k, wall in enumerate(self.walls):
            rows = np.flatnonzero(self.ris_walls == wall.id)
            local = (self.ris_centers[rows] - wall.p0) @ frames[k]
            out = np.abs(local) > limits[k]
            if out.any():
                if out[:, 2].any():
                    raise SceneError(f"RIS {rows[out[:, 2]][0]} center is off its host wall")
                raise SceneError(f"RIS {rows[out.any(axis=1)][0]} center lies outside its host wall")
            if cells is not None and len(rows):
                cells.add_wall(k, rows, local[:, 0], local[:, 1])
        self.ris_cells = cells


class RisCells:
    """Cell -> RIS row table of the d_r lattices a scene's units lie on,
    for `Scene.ris_grid` = d_r.

    Per `WallTable` column k: the table's lower-left corner (u0[k], v0[k])
    in wall coordinates and its n_u[k] x n_v[k] cells of side d_r (0 x 0
    where the wall hosts no unit), one unit at most at each cell's center;
    its row-major (v outer, u inner) block of RIS rows, -1 for a cell
    without a unit, starts at rows[start[k]].
    """

    def __init__(self, p0, frames, limits, centers, d_r):
        """p0, frames, limits: per wall, its point, the (3, 3) matrix taking
        p - p0 to (u, v, n) and the (3,) bounds on a hosted unit's |u|,
        |v|, |n|."""
        w = len(p0)
        self.centers = centers
        self.d_r = d_r
        self.u0, self.v0 = np.zeros(w), np.zeros(w)
        self.n_u = np.zeros(w, dtype=int)
        self.n_v = np.zeros(w, dtype=int)
        self.start = np.zeros(w, dtype=int)
        self.rows = np.empty(0, dtype=int)
        # (p @ axes).reshape(W, 3) - origin: p's (u, v, n) on every wall
        self.axes = frames.transpose(1, 0, 2).reshape(3, -1)
        self.origin = (p0[:, None, :] @ frames)[:, 0]
        self.limits = limits

    def add_wall(self, k, rows, u, v):
        """Enter column k's table, hosting RIS `rows` at in-plane coordinates
        (u, v). Its lattice of pitch d_r passes through the lowest u and the
        lowest v; SceneError unless every unit lies within GRID_TOL * d_r of
        its own lattice point, distinct from every other unit's."""
        d_r = self.d_r
        u0, v0 = u.min(), v.min()
        iu = np.rint((u - u0) / d_r)
        iv = np.rint((v - v0) / d_r)
        tol = GRID_TOL * d_r
        off = (np.abs(u - u0 - iu * d_r) > tol) | (np.abs(v - v0 - iv * d_r) > tol)
        if off.any():
            raise SceneError(f"RIS {rows[off][0]} is off its wall's d_r = {d_r} lattice")
        iu, iv = iu.astype(int), iv.astype(int)
        block = np.full((iv.max() + 1, iu.max() + 1), -1)
        block[iv, iu] = rows
        if np.count_nonzero(block >= 0) < len(rows):
            lost = block[iv, iu] != rows
            raise SceneError(f"RIS {rows[lost][0]} shares its d_r = {d_r} lattice point "
                             f"with RIS {block[iv, iu][lost][0]}")
        self.u0[k], self.v0[k] = u0 - d_r / 2.0, v0 - d_r / 2.0
        self.n_v[k], self.n_u[k] = block.shape
        self.start[k] = len(self.rows)
        self.rows = np.concatenate([self.rows, block.ravel()])

    def candidates(self, points, cols):
        """(block, count) for `trace_walls`' (N, 3) hit points and (N,)
        `WallTable` columns of the hit walls (NaN and -1 for none) of the
        N = T x M rays of a batch: each (N, 9) block row ranks the units of
        the 3 x 3 cells around its point's cell on its wall by distance, -1
        for a cell without one, and its first count[n] units are each nearer
        than every unit after them and every unit outside the block, so the
        first free visible one of them is the lastRIS claim (count 0 on a
        miss). Any other unit of that wall lies 1.5 d_r or more away, as
        each unit sits at its own cell's center; a unit of another wall lies
        inside that wall's rectangle, padded by `limits`. The count stops at
        the first unit whose distance does not beat the next one's and both
        bounds by a margin of 1e-9 (1 + |p|^2), which no rounding of the
        distances reaches, so ties and near-ties end it.
        """
        w = len(self.n_u)
        local = (points @ self.axes).reshape(len(points), w, 3) - self.origin    # (N, W, 3)
        gap = (np.maximum(np.abs(local) - self.limits, 0.0) ** 2).sum(axis=2)
        gap[:, self.n_u == 0] = np.inf                # walls without units
        at = np.arange(len(points))
        gap[at, cols] = np.inf
        d_r = self.d_r
        # (1.5 d_r)^2 less slack: the hit wall's units outside the 3 x 3 block
        bound = np.minimum(gap.min(axis=1, initial=np.inf), 2.0 * d_r * d_r)[:, None]
        n_u, n_v, start = self.n_u[cols][:, None], self.n_v[cols][:, None], self.start[cols][:, None]
        iu = np.floor((local[at, cols, 0] - self.u0[cols]) / d_r)[:, None] + _BLOCK_U
        iv = np.floor((local[at, cols, 1] - self.v0[cols]) / d_r)[:, None] + _BLOCK_V
        inside = (iu >= 0) & (iu < n_u) & (iv >= 0) & (iv < n_v)
        block = np.where(inside, self.rows[np.where(inside, start + iv * n_u + iu, 0).astype(int)],
                         -1)
        diff = self.centers[block] - points[:, None, :]
        d2 = np.where(block >= 0, np.vecdot(diff, diff), np.inf)       # (N, 9)
        order = np.argsort(d2, axis=1, kind="stable")
        block = np.take_along_axis(block, order, axis=1)
        d2 = np.take_along_axis(d2, order, axis=1)
        beaten = np.minimum(np.concatenate([d2[:, 1:], bound], axis=1), bound)
        guard = 1e-9 * (1.0 + np.vecdot(points, points))[:, None]
        return block, np.logical_and.accumulate(d2 + guard < beaten, axis=1).sum(axis=1)


class PweGraph:
    """LoS graph over Tx and the RIS units of a scene; adjacency rows, the
    antenna visibility matrix and the two-hop relays filled in on first use."""

    def __init__(self, scene):
        self.scene = scene
        self.n_ris = len(scene.ris_centers)
        self.positions = np.vstack([scene.tx, scene.ris_centers])
        self._rows = {}

    @cached_property
    def visibility(self):
        """Read-only (M, n_ris) bool matrix: row i holds which RIS units
        antenna i (row i of `scene.rx.antennas`) sees, one column per RIS
        id. Computed once, on first read: `array_visibility` decides most
        units for the whole array, and only the undecided ones get the
        segment test from every antenna, stacked `VISIBILITY_CHUNK` pairs a
        call; both give each antenna's own `segments_clear_batch` row."""
        antennas, centers = self.scene.rx.antennas, self.scene.ris_centers
        table = self.scene.wall_table
        seen, hidden = array_visibility(antennas, centers, table)
        out = np.repeat(seen[None, :], len(antennas), axis=0)
        undecided = np.flatnonzero(~seen & ~hidden)
        if len(undecided):
            step = max(1, VISIBILITY_CHUNK // len(undecided))
            for lo in range(0, len(antennas), step):
                out[lo:lo + step, undecided] = segments_clear_batch(
                    antennas[lo:lo + step, None, :], centers[undecided], table)
        out.setflags(write=False)
        return out

    def row(self, v):
        """Boolean adjacency row of vertex v (cached); False at v itself, as a
        zero-length segment is no line of sight."""
        cached = self._rows.get(v)
        if cached is None:
            cached = segments_clear_batch(self.positions[v], self.positions,
                                          self.scene.wall_table)
            cached.setflags(write=False)
            self._rows[v] = cached
        return cached

    @cached_property
    def _hop(self):
        """Relay array of `min_hop_paths`: hop[v] is 0 if Tx sees vertex v,
        else the smallest Tx-visible u whose row, once read, sees v; else -1."""
        return np.where(self.row(0), 0, -1)

    @cached_property
    def _relays(self):
        """Tx's visible RIS vertices, ascending, each row read once."""
        return iter(np.flatnonzero(self.row(0)).tolist())

    def min_hop_paths(self, ris_ids):
        """Minimum-hop Tx -> RIS j path per RIS id j of `ris_ids`, in order:
        a vertex tuple, 0 (Tx) first and 1 + j last, or None.

        Every vertex past Tx is a RIS unit, so only RIS units serve as hops.
        Ties resolve as in `bfs_shortest_path(self, 1 + j, 0)`: the direct
        edge if Tx sees RIS j; else (0, hop[1 + j], 1 + j), the rows of Tx's
        visible RIS read in ascending order while an asked unit lacks a
        relay; else, once they run out, that BFS itself.
        """
        lasts = [1 + j for j in ris_ids]
        hop = self._hop
        while (hop[lasts] < 0).any() and (u := next(self._relays, None)) is not None:
            hop[(hop < 0) & self.row(u)] = u
        paths = []
        for last, u in zip(lasts, hop[lasts].tolist()):
            if u < 0:
                found = bfs_shortest_path(self, last, 0)
                paths.append(None if found is None else tuple(reversed(found)))
            else:
                paths.append((0, last) if u == 0 else (0, u, last))
        return paths


def build_graph(scene):
    """Build the LoS graph; fault if the transmitter sees no RIS unit."""
    if not len(scene.ris_centers):
        raise SceneError("scene contains no RIS units")
    graph = PweGraph(scene)
    if not graph.row(0).any():
        raise SceneError("transmitter has no LoS to any RIS unit")
    return graph


def bfs_shortest_path(graph, source, target):
    """Minimum-hop path from source to target.

    `graph` answers `row(v)`, v's boolean adjacency row. Neighbors are
    expanded in ascending vertex order, so ties resolve deterministically.
    Returns the vertex list or None when unreachable.
    """
    if source == target:
        raise ValueError("source and target must differ")
    parent = {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        row = graph.row(u)
        # target adjacency is checked at dequeue time: the first dequeued
        # vertex adjacent to the target is exactly the BFS parent the
        # ascending expansion order would pick, and only that vertex's row
        # is computed without being expanded
        if row[target]:
            path = [target, u]
            while parent[u] is not None:
                u = parent[u]
                path.append(u)
            path.reverse()
            return path
        for v in np.flatnonzero(row).tolist():
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return None
