"""3-D primitives for indoor ray geometry.

Vectors are numpy arrays of shape (3,), or (N, 3) stacks of them, lengths in
meters. Walls are bounded rectangles described by a point, a unit normal and
two in-plane unit axes with half-extents. All predicates here are pure
functions.

There is one ray trace rule, `trace_walls`: a broadcast over (rays x walls)
of the slab-style ray/plane test (Williams et al., "An Efficient and Robust
Ray-Box Intersection Algorithm", JGT 2005) that keeps each ray's first wall
in id order, as arrays of wall columns and points. There is one wall
test, `WallTable.solid`: on the wall rectangle and outside every opening,
edges counted within EXTENT_SLACK. The trace and the line-of-sight test
`segments_clear_batch` both read a `WallTable` and ask it. The trace, `norm`,
`unit` and `is_unit` take every 3-vector dot product through `np.vecdot`,
which rounds exactly as a scalar `np.dot` of the same two vectors (einsum,
`@` and axis sums do not), so a batched result equals the one-vector result
bit for bit.

Line of sight from a whole antenna array is decided once per endpoint b by
`array_visibility`, wall by wall, from the signed plane distances s of the
corners of the array's axis-aligned box and of b (conservative from-region
visibility, Cohen-Or et al., IEEE TVCG 2003). It is exact: s is affine, so
the corners bound it over the convex box, and every antenna a in the box
shares their side. A box on b's side never crosses the plane, and b on the
plane is crossed within ENDPOINT_EPS of itself. A box on the far side is
crossed at t with t |ab| >= |s_a|, so every crossing is interior; the
central projection through b maps the convex box into the hull of its
projected corners, whose bounding box `WallTable.box_solid` tests against
the same bounds as `solid`. Every test keeps ARRAY_MARGIN, and a bound on
the rounding of one plane distance, to spare; what it cannot decide is left
to `segments_clear_batch`.

There is one RIS tiling rule, `tile_wall`: the d_r grid centered on a wall,
less the cells an opening overlaps. `grid_shape` counts its units before
any is laid.
"""

import itertools
from dataclasses import dataclass

import numpy as np

# Tolerances shared across the geometry predicates.
EXTENT_SLACK = 1e-9      # inclusive slack for wall-membership tests, meters
PARALLEL_EPS = 1e-12     # |doa . n| below this counts as parallel
ENDPOINT_EPS = 1e-9      # segment intersections this close to an endpoint are ignored, meters
UNIT_TOL = 1e-9
# a whole-array decision keeps this far from every bound it tests, meters:
# far above ENDPOINT_EPS, EXTENT_SLACK and the rounding of one segment test
ARRAY_MARGIN = 1e-7


def norm(v):
    """Euclidean length of a vector, or of each row of an (N, 3) array."""
    return np.sqrt(np.vecdot(v, v))


def unit(v):
    """Normalize a vector, or each row of an (N, 3) array, to unit length."""
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize the zero vector")
    return v / np.expand_dims(n, -1)


def is_unit(v, tol=UNIT_TOL):
    """Whether a vector, or each row of an (N, 3) array, has unit length."""
    with np.errstate(over="ignore", invalid="ignore"):    # inf and NaN are not unit
        return np.abs(norm(v) - 1.0) <= tol


@dataclass(frozen=True)
class WallPlane:
    """Bounded rectangular wall: point p0, unit normal n, in-plane axes."""

    id: int
    p0: np.ndarray
    n: np.ndarray
    u_axis: np.ndarray
    v_axis: np.ndarray
    u_extent: float
    v_extent: float

    def __post_init__(self):
        object.__setattr__(self, "p0", np.asarray(self.p0, dtype=float))
        object.__setattr__(self, "n", np.asarray(self.n, dtype=float))
        object.__setattr__(self, "u_axis", np.asarray(self.u_axis, dtype=float))
        object.__setattr__(self, "v_axis", np.asarray(self.v_axis, dtype=float))
        if self.u_extent <= 0 or self.v_extent <= 0:
            raise ValueError("wall extents must be positive")
        for a, b in ((self.n, self.u_axis), (self.n, self.v_axis), (self.u_axis, self.v_axis)):
            if abs(float(np.dot(a, b))) > 1e-9:
                raise ValueError("wall frame must be orthonormal")
        for a in (self.n, self.u_axis, self.v_axis):
            if not is_unit(a):
                raise ValueError("wall frame vectors must be unit length")


@dataclass(frozen=True)
class Aperture:
    """Axis-aligned rectangular opening (doorway) in a wall, in wall uv coords."""

    wall_id: int
    u_center: float
    v_center: float
    u_half: float
    v_half: float

    def overlaps_uv_rect(self, u_lo, u_hi, v_lo, v_hi):
        """Open-interval overlap test against a uv-aligned rectangle; takes
        scalars or broadcastable arrays."""
        return ((u_lo < self.u_center + self.u_half) & (u_hi > self.u_center - self.u_half)
                & (v_lo < self.v_center + self.v_half) & (v_hi > self.v_center - self.v_half))


@dataclass(frozen=True)
class AntennaArray:
    """Receiver array; `antennas` is a read-only (M, 3) array, antenna i is
    row i."""

    antennas: np.ndarray
    boresight: np.ndarray

    def __post_init__(self):
        antennas = np.array(self.antennas, dtype=float)
        if antennas.ndim != 2 or antennas.shape[1] != 3:
            raise ValueError("antennas must be an (M, 3) array")
        antennas.setflags(write=False)
        object.__setattr__(self, "antennas", antennas)
        object.__setattr__(self, "boresight", unit(self.boresight))

    @property
    def m(self):
        return len(self.antennas)


class WallTable:
    """`walls` stacked into arrays for `trace_walls` and `segments_clear_batch`,
    with `solid`, the one wall test of both; column k is walls[k].

    Each opening keeps a boolean mask of the columns whose wall it pierces.
    """

    def __init__(self, walls, openings=()):
        self.ids = np.array([w.id for w in walls], dtype=int)
        self.n = np.array([w.n for w in walls], dtype=float).reshape(-1, 3)
        self.p0 = np.array([w.p0 for w in walls], dtype=float).reshape(-1, 3)
        self.u_axis = np.array([w.u_axis for w in walls], dtype=float).reshape(-1, 3)
        self.v_axis = np.array([w.v_axis for w in walls], dtype=float).reshape(-1, 3)
        self.u_limit = np.array([w.u_extent for w in walls], dtype=float) + EXTENT_SLACK
        self.v_limit = np.array([w.v_extent for w in walls], dtype=float) + EXTENT_SLACK
        self.openings = [(self.ids == op.wall_id, op) for op in openings]

    def solid(self, cols, u, v):
        """Whether wall coordinates (u, v) are wall: on the rectangle and off
        every opening, edges within EXTENT_SLACK. cols: one column, or a
        column index (`slice(None)`: all) over the last axis of u and v."""
        out = (np.abs(u) <= self.u_limit[cols]) & (np.abs(v) <= self.v_limit[cols])
        for pierced, op in self.openings:
            if pierced[cols].any():
                out = out & ~(pierced[cols] & (np.abs(u - op.u_center) <= op.u_half + EXTENT_SLACK)
                              & (np.abs(v - op.v_center) <= op.v_half + EXTENT_SLACK))
        return out

    def box_solid(self, k, lo, hi):
        """Whether every point, and whether no point, of each uv box is wall
        of column k by `solid`, with ARRAY_MARGIN to spare past every bound.
        lo, hi: (2, N) lower and upper (u, v) corners; returns two bool (N,)."""
        (u_lo, v_lo), (u_hi, v_hi) = lo, hi
        margin = ARRAY_MARGIN
        u_lim, v_lim = self.u_limit[k], self.v_limit[k]
        every = ((np.maximum(-u_lo, u_hi) <= u_lim - margin)
                 & (np.maximum(-v_lo, v_hi) <= v_lim - margin))
        none = ((u_lo > u_lim + margin) | (u_hi < -u_lim - margin)
                | (v_lo > v_lim + margin) | (v_hi < -v_lim - margin))
        for pierced, op in self.openings:
            if pierced[k]:
                du = np.maximum(np.abs(u_lo - op.u_center), np.abs(u_hi - op.u_center))
                dv = np.maximum(np.abs(v_lo - op.v_center), np.abs(v_hi - op.v_center))
                u_half, v_half = op.u_half + EXTENT_SLACK, op.v_half + EXTENT_SLACK
                every &= ((u_hi < op.u_center - u_half - margin)
                          | (u_lo > op.u_center + u_half + margin)
                          | (v_hi < op.v_center - v_half - margin)
                          | (v_lo > op.v_center + v_half + margin))
                none |= (du <= u_half - margin) & (dv <= v_half - margin)
        return every, none


def trace_walls(points, dirs, table):
    """First wall hit by each forward ray points[i] + d * dirs[i], d > 0.

    points, dirs: (M, 3). Every ray meets every wall in one (M, W) pass;
    of the walls a ray hits, the first in `table` column order counts, so
    the columns must be ascending by id (`Scene` sorts its walls so). A ray
    parallel to a wall's plane (|dir . n| < PARALLEL_EPS) never hits it. A
    hit inside a declared opening is not wall membership (a doorway is a
    hole, not wall), so the ray effectively continues into the next room.
    Returns (first, hits): the (M,) column of each ray's first wall, -1 on
    a miss, and the (M, 3) hit points, NaN on a miss.
    """
    points = np.asarray(points, dtype=float)[:, None, :]     # (M, 1, 3)
    dirs = np.asarray(dirs, dtype=float)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = np.vecdot(dirs, table.n)                     # (M, W)
        d = np.vecdot(table.p0 - points, table.n) / denom
        p = points + d[..., None] * dirs                     # (M, W, 3)
        q = p - table.p0
        hit = (~(np.abs(denom) < PARALLEL_EPS) & ~(d <= 0.0)
               & table.solid(slice(None), np.vecdot(q, table.u_axis), np.vecdot(q, table.v_axis)))
    if not hit.shape[1]:
        return np.full(len(hit), -1), np.full((len(hit), 3), np.nan)
    rows = np.arange(len(hit))
    first = hit.argmax(axis=1)
    found = hit[rows, first]
    return np.where(found, first, -1), np.where(found[:, None], p[rows, first], np.nan)


# the name bench/tracer.py wraps; nothing in the package calls it
ray_wall_point = trace_walls


def segments_clear_batch(a, bs, table):
    """Segment test from one origin, or a stack of origins, to many endpoints.

    a: (3,) origin or (L, 1, 3) origins; bs: (N, 3) endpoints; table: a
    `WallTable`. Returns a bool (N,) or (L, N) array, True where the open
    segment (a, b) has a positive length and crosses no `table.solid` point:
    a point is no line of sight to itself. Each origin's row equals its own
    (N,) call bit for bit: the (N, 3) products stay stacked per origin, and
    `np.vecdot` rounds the plane term like the scalar dot.
    """
    a = np.asarray(a, dtype=float)
    bs = np.asarray(bs, dtype=float)
    ab = bs - a                                  # (N, 3) or (L, N, 3)
    lengths = np.linalg.norm(ab, axis=-1)
    clear = lengths > 0.0
    for k, (n, p0) in enumerate(zip(table.n, table.p0)):
        denom = ab @ n                           # (N,) or (L, N)
        crossing = np.abs(denom) >= PARALLEL_EPS
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(crossing, np.vecdot(p0 - a, n) / np.where(crossing, denom, 1.0), 0.0)
        interior = crossing & (t * lengths >= ENDPOINT_EPS) & ((1.0 - t) * lengths >= ENDPOINT_EPS)
        if not interior.any():
            continue
        q = a + t[..., None] * ab - p0
        clear &= ~(interior & table.solid(k, q @ table.u_axis[k], q @ table.v_axis[k]))
    return clear


def array_visibility(points, bs, table):
    """Whole-array form of `segments_clear_batch`: per endpoint, whether
    every origin sees it and whether none does, decided once for the box
    around the origins; where neither holds, the endpoint is undecided.

    points: (M, 3) origins, M >= 1; bs: (N, 3) endpoints; table: a
    `WallTable`. Returns (seen, hidden), two bool (N,) arrays: where either
    is True, every row of `segments_clear_batch(points[:, None, :], bs,
    table)` holds that answer in that column.
    """
    points = np.asarray(points, dtype=float)
    bs = np.asarray(bs, dtype=float)
    box = np.stack([points.min(axis=0), points.max(axis=0)])
    corners = np.array(sorted(set(itertools.product(*box.T.tolist()))))    # (K <= 8, 3)
    # the longest segment from the box to each endpoint ends at a corner
    reach = norm(np.maximum(np.abs(bs - box[0]), np.abs(bs - box[1])))
    scale = max(np.abs(table.p0).max(initial=1.0), np.abs(bs).max(initial=1.0),
                np.abs(box).max())
    # bounds, with room to spare, the rounding of one computed plane distance
    rounding = 32.0 * np.finfo(float).eps * scale
    # a zero-length segment is no line of sight
    seen = ((bs < box[0] - ARRAY_MARGIN) | (bs > box[1] + ARRAY_MARGIN)).any(axis=1)
    hidden = np.zeros(len(bs), dtype=bool)
    for k, (n, p0) in enumerate(zip(table.n, table.p0)):
        s_c = np.vecdot(corners - p0, n)
        side = 1.0 if s_c.min() >= ARRAY_MARGIN else -1.0 if s_c.max() <= -ARRAY_MARGIN else 0.0
        if not side:            # the box meets the plane
            seen[:] = False
            continue
        s_c = side * s_c
        s_b = side * np.vecdot(bs - p0, n)    # > 0 on the box's side
        gap = s_c.min() - s_b                 # least |s_a - s_b| over the box
        # b on the box's side; or b on the plane, crossed |s_b| |ab| / |s_a -
        # s_b| from itself, under ENDPOINT_EPS / 2 with the rounding included
        clear = (s_b >= ARRAY_MARGIN) | ((np.abs(s_b) + rounding) * reach
                                         <= 0.5 * ENDPOINT_EPS * gap)
        # b on the far side, where rounding moves a crossing by about
        # rounding * reach / gap: under ARRAY_MARGIN / 2
        far = np.flatnonzero((s_b <= -ARRAY_MARGIN)
                             & (rounding * reach <= 0.5 * ARRAY_MARGIN * gap))
        axes = np.stack([table.u_axis[k], table.v_axis[k]], axis=1)    # (3, 2)
        uv_b = ((bs[far] - p0) @ axes).T                                 # (2, F)
        s_f = s_b[far]
        lo, hi = np.full_like(uv_b, np.inf), np.full_like(uv_b, -np.inf)
        for s, uv_c in zip(s_c, (corners - p0) @ axes):
            # where the segment from endpoint b to this corner crosses the plane
            uv = uv_b + s_f / (s_f - s) * (uv_c[:, None] - uv_b)
            lo, hi = np.minimum(lo, uv), np.maximum(hi, uv)
        every, none = table.box_solid(k, lo, hi)
        hidden[far[every]] = True
        clear[far[none]] = True
        seen &= clear
    return seen, hidden


def grid_shape(wall, d_r, margin=0.0):
    """(n_u, n_v): units per row and rows of the d_r x d_r grid `tile_wall`
    lays on `wall` keeping >= margin to its edges, or (0, 0) when no unit
    fits. Floats, so a tiny d_r gives a count to compare, not an overflow.
    """
    if d_r <= 0:
        raise ValueError("d_r must be positive")
    if margin < 0:
        raise ValueError("margin must be non-negative")
    n_u = float(np.floor((2.0 * wall.u_extent - 2.0 * margin) / d_r + 1e-12))
    n_v = float(np.floor((2.0 * wall.v_extent - 2.0 * margin) / d_r + 1e-12))
    if n_u < 1 or n_v < 1:
        return 0.0, 0.0
    return n_u, n_v


def tile_wall(wall, d_r, margin=0.0, openings=()):
    """Centers of the maximal regular grid of d_r x d_r RIS units on the wall.

    The grid of `grid_shape` is centered on the wall, and a cell that an
    opening declared on this wall overlaps gets no unit. Returns an (n, 3)
    array in row-major order (v outer, u inner); n is 0 when the wall cannot
    host a single unit.
    """
    n_u, n_v = grid_shape(wall, d_r, margin)
    u_lo = -(n_u * d_r) / 2.0 + np.arange(int(n_u)) * d_r                # (n_u,)
    v_lo = (-(n_v * d_r) / 2.0 + np.arange(int(n_v)) * d_r)[:, None]     # (n_v, 1)
    keep = np.ones((int(n_v), int(n_u)), dtype=bool)
    for op in openings:
        if op.wall_id == wall.id:
            keep &= ~op.overlaps_uv_rect(u_lo, u_lo + d_r, v_lo, v_lo + d_r)
    uc = u_lo + d_r / 2.0
    vc = v_lo + d_r / 2.0
    centers = wall.p0 + uc[:, None] * wall.u_axis + vc[:, :, None] * wall.v_axis
    return centers[keep]
