"""Reference oracles for the tests: scalar or explicit forms of rules that
`pwesim` implements in vectorized or graph-backed form.

- `segment_clear`: the scalar segment test behind `segments_clear_batch`;
  `local_uv` gives a point's in-plane wall coordinates.
- `SimpleGraph`: an explicit adjacency-set graph, input to `bfs_shortest_path`.
- `select_last_ris`: the lastRIS claim for an explicit candidate list, by
  the same `nearest_ris` rule that `get_routes` applies.
- `claim_loop`: the lastRIS claims of T wavefronts one antenna at a time,
  the sequential form of `claim_rounds`.
- `tile_wall_loop` and `antenna_grid_loop`: one unit or antenna per loop
  step, the scalar forms of `tile_wall` and `build_scene`'s antenna grid.
- `ray_wall_scale` and `_ref_hit_point`: the scalar ray/plane scale and the
  first-hit wall scan, one wall at a time, behind `trace_walls`;
  `first_hits` lists a `trace_walls` result in the scan's form.
- `sample_wavefront_loop`: the rejection rule that `sample_wavefront` runs
  in passes over the waiting antennas of T wavefronts, here one wavefront,
  one antenna and one scalar trace at a time; both read the same stream of
  normal 3-vectors per wavefront, so the DoAs, the hits and the final rng
  states must match.
- `scalar_deviation`: one route's realized DoA and deviation angle with
  scalar norm and dot, the per-antenna form of `get_routes`' angle step.
- `reference_get_routes`: the routing algorithm for a one-wavefront spec,
  written against its textual rules only (first-hit wall scan, nearest unclaimed LoS unit with
  smallest-id tie break, minimum-hop path with ascending neighbor expansion
  and antennas excluded), over adjacency sets from `segment_clear`.
- `read_phi_dictreader`: the `phi_deg` column of a CSV file read one dict
  per row with `csv.DictReader`, the form `pwesim fit` reads in one column.
"""

import csv
import itertools
from collections import deque

import numpy as np

from pwesim import routing
from pwesim.experiment import MAX_REJECTIONS
from pwesim.geometry import ENDPOINT_EPS, EXTENT_SLACK, PARALLEL_EPS, trace_walls, unit
from pwesim.routing import NO_CANDIDATE, NO_HIT, deviation_angle, nearest_ris


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
        u, v = local_uv(wall, p)
        if not _on_wall(wall, u, v) or _in_opening(wall, u, v, openings):
            continue
        return False
    return True


def local_uv(wall, p):
    """In-plane coordinates of p relative to the wall center."""
    d = np.asarray(p, dtype=float) - wall.p0
    return float(np.dot(d, wall.u_axis)), float(np.dot(d, wall.v_axis))


def _on_wall(wall, u, v):
    """Whether wall coordinates (u, v) lie on the wall rectangle, edges
    included within EXTENT_SLACK."""
    return abs(u) <= wall.u_extent + EXTENT_SLACK and abs(v) <= wall.v_extent + EXTENT_SLACK


def _in_opening(wall, u, v, openings):
    """Whether wall coordinates (u, v) lie in an opening declared on `wall`,
    edges included within EXTENT_SLACK."""
    return any(op.wall_id == wall.id
               and abs(u - op.u_center) <= op.u_half + EXTENT_SLACK
               and abs(v - op.v_center) <= op.v_half + EXTENT_SLACK for op in openings)


class SimpleGraph:
    """Explicit adjacency-matrix graph for tests and ad-hoc path queries;
    answers `row(v)` like `PweGraph`."""

    def __init__(self, n, edges):
        self._adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            if u == v:
                raise ValueError("self loops not allowed")
            self._adj[u, v] = self._adj[v, u] = True

    def row(self, v):
        """Boolean adjacency row of vertex v."""
        return self._adj[v]


def read_phi_dictreader(path):
    """The `phi_deg` samples of the CSV file at `path`, one `csv.DictReader`
    dict per row: the BOM-stripped header names the fields, blank rows are
    skipped and fields past the header ignored.

    Raises ValueError when the header lacks `phi_deg` or repeats it;
    TypeError, ValueError or csv.Error when a row cannot be read (a short
    row's missing field is None).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "phi_deg" not in reader.fieldnames:
            raise ValueError("no phi_deg column")
        if reader.fieldnames.count("phi_deg") > 1:
            raise ValueError("repeated phi_deg column")
        return np.array([float(row["phi_deg"]) for row in reader])


def select_last_ris(point, candidates, antenna_index, graph):
    """Row (RIS id) among `candidates` with LoS to the antenna that is
    nearest to `point`.

    Ties break toward the smallest id. Returns None when no candidate has a
    graph edge to the antenna.
    """
    available = np.zeros(graph.n_ris, dtype=bool)
    available[list(candidates)] = True
    available &= graph.visibility[antenna_index]
    return nearest_ris(point, graph.scene.ris_centers, available)


def claim_loop(graph, first, points):
    """(T, M) lastRIS claims, -1 for none, of `trace_walls`' (T, M) columns
    and (T, M, 3) wall points, one antenna at a time: each wavefront from a
    full pool, each antenna that hits a wall taking the first free visible
    unit of its `RisCells.candidates` ranking, else the full scan
    `routing.nearest_ris` (looked up at call time, so a spy sees it)."""
    n_t, m = first.shape
    first, points = first.ravel(), points.reshape(-1, 3)
    cells = graph.scene.ris_cells
    near = [()] * len(first)
    if cells is not None:
        block, count = cells.candidates(points, first)
        near = [row[:n] for row, n in zip(block.tolist(), count.tolist())]
    claims = np.full(len(first), -1)
    for e, k in enumerate(first.tolist()):
        if e % m == 0:      # each wavefront claims from a full pool
            free = np.ones(graph.n_ris, dtype=bool)
        if k < 0:
            continue
        visible = graph.visibility[e % m]
        j = next((j for j in near[e] if free[j] and visible[j]), None)
        if j is None:
            j = routing.nearest_ris(points[e], graph.scene.ris_centers, free & visible)
        if j is not None:
            free[j] = False
            claims[e] = j
    return claims.reshape(n_t, m)


def tile_wall_loop(wall, d_r, margin=0.0, openings=()):
    """`tile_wall` one unit at a time: (n, 3) centers, v outer, u inner."""
    n_u = int(np.floor((2.0 * wall.u_extent - 2.0 * margin) / d_r + 1e-12))
    n_v = int(np.floor((2.0 * wall.v_extent - 2.0 * margin) / d_r + 1e-12))
    if n_u < 1 or n_v < 1:
        return np.empty((0, 3))
    u0 = -(n_u * d_r) / 2.0
    v0 = -(n_v * d_r) / 2.0
    centers = []
    for iv in range(n_v):
        for iu in range(n_u):
            u_lo = u0 + iu * d_r
            v_lo = v0 + iv * d_r
            if any(op.wall_id == wall.id
                   and u_lo < op.u_center + op.u_half and u_lo + d_r > op.u_center - op.u_half
                   and v_lo < op.v_center + op.v_half and v_lo + d_r > op.v_center - op.v_half
                   for op in openings):
                continue
            uc = u_lo + d_r / 2.0
            vc = v_lo + d_r / 2.0
            centers.append(wall.p0 + uc * wall.u_axis + vc * wall.v_axis)
    return np.array(centers).reshape(-1, 3)


def antenna_grid_loop(center, m_side, spacing):
    """`build_scene`'s m_side x m_side antennas one at a time, row-major, in
    the y-z plane: columns step along +y, rows along -z."""
    ey, ez = np.eye(3)[1:]
    center = np.asarray(center, dtype=float)
    antennas = []
    for r in range(m_side):
        for c in range(m_side):
            dy = (c - (m_side - 1) / 2.0) * spacing
            dz = ((m_side - 1) / 2.0 - r) * spacing
            antennas.append(center + dy * ey + dz * ez)
    return np.array(antennas)


def ray_wall_scale(ant, doa, wall):
    """Scaling factor d of the ray ant + d*doa at the wall plane.

    Returns None when the ray is parallel to the plane or the intersection
    lies behind the antenna (d <= 0).
    """
    denom = float(np.dot(doa, wall.n))
    if abs(denom) < PARALLEL_EPS:
        return None
    d = float(np.dot(wall.p0 - ant, wall.n)) / denom
    if d <= 0.0:
        return None
    return d


def _ref_hit_point(ant, doa, walls, openings):
    """(point, wall id) of the first wall, by id, that the forward ray hits
    outside an opening, or None."""
    ant = np.asarray(ant, dtype=float)
    doa = np.asarray(doa, dtype=float)
    for wall in sorted(walls, key=lambda w: w.id):
        d = ray_wall_scale(ant, doa, wall)
        if d is None:
            continue
        p = ant + d * doa
        u = float(np.dot(p - wall.p0, wall.u_axis))
        v = float(np.dot(p - wall.p0, wall.v_axis))
        if not _on_wall(wall, u, v) or _in_opening(wall, u, v, openings):
            continue
        return p, wall.id
    return None


def first_hits(points, dirs, table):
    """`trace_walls` as a list, one entry per ray, in `_ref_hit_point`'s
    form: (point, wall id) of the first wall hit, or None on a miss."""
    first, hits = trace_walls(points, dirs, table)
    return [None if k < 0 else (p, int(table.ids[k])) for k, p in zip(first, hits)]


def sample_wavefront_loop(scene, rng):
    """(doas, hits) as `sample_wavefront` draws them, one antenna at a time
    with scalar norms and dots: each antenna redraws until its direction,
    flipped onto the boresight hemisphere, traces to a wall."""
    doas, hits = [], []
    for ant in scene.rx.antennas:
        for _ in range(MAX_REJECTIONS):
            v = rng.standard_normal(3)
            norm = np.linalg.norm(v)
            if norm == 0.0:
                continue
            v = v / norm
            d = float(np.dot(v, scene.rx.boresight))
            if d < 0.0:
                v = -v
            elif d == 0.0:
                continue
            hit = _ref_hit_point(ant, v, scene.walls, scene.openings)
            if hit is not None:
                doas.append(v)
                hits.append(hit)
                break
        else:
            raise AssertionError("no direction traced to a wall")
    return doas, hits


def scalar_deviation(doa, ant, center):
    """(realized DoA, phi in degrees) of the antenna at `ant` served by the
    RIS at `center`, one vector at a time."""
    realized = (center - ant) / np.linalg.norm(center - ant)
    c = float(np.clip(np.dot(doa, realized), -1.0, 1.0))
    return realized, float(np.degrees(np.arccos(c)))


def _ref_bfs(adj, source, target, banned):
    parent = {source: None}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in sorted(adj[u]):
            if v in parent or v in banned:
                continue
            parent[v] = u
            if v == target:
                path = [v]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            q.append(v)
    return None


def _ref_routes(scene):
    """(n_ris, positions, adjacency sets, banned antenna vertices) of the
    scene's vertices: Tx, the RIS rows, then the antennas."""
    n_ris = len(scene.ris_centers)
    n_v = 1 + n_ris + scene.rx.m
    pos = [np.asarray(scene.tx, float)]
    pos += [np.asarray(c, float) for c in scene.ris_centers]
    pos += [np.asarray(a, float) for a in scene.rx.antennas]
    adj = {i: set() for i in range(n_v)}
    for i, j in itertools.combinations(range(n_v), 2):
        if segment_clear(pos[i], pos[j], scene.walls, scene.openings):
            adj[i].add(j)
            adj[j].add(i)
    banned = set(range(1 + n_ris, n_v))
    return n_ris, pos, adj, banned


def reference_get_routes(scene, spec):
    """(last_ris_id | reason, path, phi) per antenna of the one wavefront of
    `spec`, straight from the rules."""
    (doas,) = spec.doas
    n_ris, pos, adj, banned = _ref_routes(scene)
    centers = scene.ris_centers
    used = set()
    out = []
    for i, ant in enumerate(scene.rx.antennas):
        ant = np.asarray(ant, float)
        hit = _ref_hit_point(ant, doas[i], scene.walls, scene.openings)
        if hit is None:
            out.append((NO_HIT, None, None))
            continue
        point = hit[0]
        ant_v = 1 + n_ris + i
        cand = [j for j in range(n_ris) if j not in used and 1 + j in adj[ant_v]]
        if not cand:
            out.append((NO_CANDIDATE, None, None))
            continue
        best = min(cand, key=lambda j: (float(np.linalg.norm(centers[j] - point)), j))
        used.add(best)
        path = _ref_bfs(adj, 1 + best, 0, banned)
        if path is not None:
            path = path[::-1]
        phi = deviation_angle(doas[i], unit(centers[best] - ant))
        out.append((best, None if path is None else tuple(path), phi))
    return out
