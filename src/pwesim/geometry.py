"""3-D primitives for indoor ray geometry.

Vectors are numpy arrays of shape (3,), or (N, 3) stacks of them, lengths in
meters. Walls are bounded rectangles described by a point, a unit normal and
two in-plane unit axes with half-extents. All predicates here are pure
functions.

There is one ray trace rule, `trace_walls`: a broadcast over (rays x walls)
of the slab-style ray/plane test (Williams et al., "An Efficient and Robust
Ray-Box Intersection Algorithm", JGT 2005) that keeps each ray's first wall
in id order. `ray_wall_point` lists its result per ray. The trace, `norm`,
`unit` and `is_unit` take every 3-vector dot product through `np.vecdot`,
which rounds exactly as a scalar `np.dot` of the same two vectors (einsum,
`@` and axis sums do not), so a batched result equals the one-vector result
bit for bit.

There is one RIS tiling rule, `tile_wall`: the d_r grid centered on a wall,
less the cells an opening overlaps. `grid_shape` counts its units before
any is laid.
"""

from dataclasses import dataclass

import numpy as np

# Tolerances shared across the geometry predicates.
EXTENT_SLACK = 1e-9      # inclusive slack for wall-membership tests, meters
PARALLEL_EPS = 1e-12     # |doa . n| below this counts as parallel
ENDPOINT_EPS = 1e-9      # segment intersections this close to an endpoint are ignored, meters
UNIT_TOL = 1e-9


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
    """Planar rows x cols receiver array; `antennas` is a read-only
    (rows*cols, 3) array, row-major: antenna i is row i."""

    antennas: np.ndarray
    rows: int
    cols: int
    boresight: np.ndarray

    def __post_init__(self):
        antennas = np.array(self.antennas, dtype=float)
        if antennas.shape != (self.rows * self.cols, 3):
            raise ValueError("antenna count must equal rows*cols")
        antennas.setflags(write=False)
        object.__setattr__(self, "antennas", antennas)
        object.__setattr__(self, "boresight", unit(self.boresight))

    @property
    def m(self):
        return self.rows * self.cols


class WallTable:
    """`walls` stacked into arrays for `trace_walls`; column k is walls[k].

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
        u = np.vecdot(p - table.p0, table.u_axis)
        v = np.vecdot(p - table.p0, table.v_axis)
        hit = (~(np.abs(denom) < PARALLEL_EPS) & ~(d <= 0.0)
               & (np.abs(u) <= table.u_limit) & (np.abs(v) <= table.v_limit))
        for cols, op in table.openings:
            hit[:, cols] &= ~((np.abs(u[:, cols] - op.u_center) <= op.u_half + EXTENT_SLACK)
                              & (np.abs(v[:, cols] - op.v_center) <= op.v_half + EXTENT_SLACK))
    if not hit.shape[1]:
        return np.full(len(hit), -1), np.full((len(hit), 3), np.nan)
    rows = np.arange(len(hit))
    first = hit.argmax(axis=1)
    found = hit[rows, first]
    return np.where(found, first, -1), np.where(found[:, None], p[rows, first], np.nan)


def ray_wall_point(points, dirs, table):
    """`trace_walls` as a list, one entry per ray: (point, wall_id) of the
    first wall hit, or None on a miss."""
    first, hits = trace_walls(points, dirs, table)
    return [None if k < 0 else (p, int(table.ids[k])) for k, p in zip(first, hits)]


def segments_clear_batch(a, bs, walls, openings=()):
    """Segment test from one origin, or a stack of origins, to many endpoints.

    a: (3,) origin or (L, 1, 3) origins; bs: (N, 3) endpoints. Returns a bool
    (N,) or (L, N) array, True where the open segment (a, b) crosses no wall
    outside an opening. Each origin's row equals its own (N,) call bit for
    bit: the (N, 3) products stay stacked per origin, and `np.vecdot` rounds
    the plane term like the scalar dot.
    """
    a = np.asarray(a, dtype=float)
    bs = np.asarray(bs, dtype=float)
    ab = bs - a                                  # (N, 3) or (L, N, 3)
    lengths = np.linalg.norm(ab, axis=-1)
    clear = np.ones(ab.shape[:-1], dtype=bool)
    for wall in walls:
        denom = ab @ wall.n                      # (N,) or (L, N)
        crossing = np.abs(denom) >= PARALLEL_EPS
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(crossing, np.vecdot(wall.p0 - a, wall.n) / np.where(crossing, denom, 1.0),
                         0.0)
        interior = crossing & (t * lengths >= ENDPOINT_EPS) & ((1.0 - t) * lengths >= ENDPOINT_EPS)
        if not interior.any():
            continue
        p = a + t[..., None] * ab
        du = (p - wall.p0) @ wall.u_axis
        dv = (p - wall.p0) @ wall.v_axis
        on_wall = interior & (np.abs(du) <= wall.u_extent + EXTENT_SLACK) \
                           & (np.abs(dv) <= wall.v_extent + EXTENT_SLACK)
        for op in openings:
            if op.wall_id != wall.id:
                continue
            in_open = (np.abs(du - op.u_center) <= op.u_half + EXTENT_SLACK) \
                    & (np.abs(dv - op.v_center) <= op.v_half + EXTENT_SLACK)
            on_wall &= ~in_open
        clear &= ~on_wall
    return clear


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
