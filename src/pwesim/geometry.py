"""3-D primitives for indoor ray geometry.

Vectors are plain numpy arrays of shape (3,), lengths in meters. Walls are
bounded rectangles described by a point, a unit normal and two in-plane unit
axes with half-extents. All predicates here are pure functions.
"""

from dataclasses import dataclass

import numpy as np

# Tolerances shared across the geometry predicates.
EXTENT_SLACK = 1e-9      # inclusive slack for wall-membership tests, meters
PARALLEL_EPS = 1e-12     # |doa . n| below this counts as parallel
ENDPOINT_EPS = 1e-9      # segment intersections this close to an endpoint are ignored, meters
UNIT_TOL = 1e-9


def unit(v):
    """Normalize v to unit length."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def is_unit(v, tol=UNIT_TOL):
    return abs(np.linalg.norm(v) - 1.0) <= tol


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

    def local_uv(self, p):
        """In-plane coordinates of p relative to the wall center."""
        d = np.asarray(p, dtype=float) - self.p0
        return float(np.dot(d, self.u_axis)), float(np.dot(d, self.v_axis))

    def contains(self, p, slack=EXTENT_SLACK):
        u, v = self.local_uv(p)
        return abs(u) <= self.u_extent + slack and abs(v) <= self.v_extent + slack


@dataclass(frozen=True)
class Aperture:
    """Axis-aligned rectangular opening (doorway) in a wall, in wall uv coords."""

    wall_id: int
    u_center: float
    v_center: float
    u_half: float
    v_half: float

    def contains_uv(self, u, v, slack=EXTENT_SLACK):
        return (abs(u - self.u_center) <= self.u_half + slack
                and abs(v - self.v_center) <= self.v_half + slack)

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


def ray_wall_point(ant, doa, walls, openings=()):
    """First wall containing the forward ray intersection.

    `walls` are scanned in the order given, which must be ascending by id
    (`Scene` sorts its walls so). A hit inside a declared opening is not
    wall membership (a doorway is a hole, not wall), so the scan moves on
    and the ray effectively continues into the next room. Returns
    (point, wall_id) or None when no wall contains a hit.
    """
    for wall in walls:
        d = ray_wall_scale(ant, doa, wall)
        if d is None:
            continue
        p = np.asarray(ant, dtype=float) + d * np.asarray(doa, dtype=float)
        if not wall.contains(p):
            continue
        u, v = wall.local_uv(p)
        if any(op.wall_id == wall.id and op.contains_uv(u, v) for op in openings):
            continue
        return p, wall.id
    return None


def segments_clear_batch(a, bs, walls, openings=()):
    """Segment test from one origin to many endpoints, vectorized.

    a: (3,) origin; bs: (N, 3) endpoints. Returns a bool array of length N,
    True where the open segment (a, b) crosses no wall outside an opening.
    """
    a = np.asarray(a, dtype=float)
    bs = np.asarray(bs, dtype=float)
    if bs.size == 0:
        return np.zeros(0, dtype=bool)
    ab = bs - a                                  # (N, 3)
    lengths = np.linalg.norm(ab, axis=1)
    clear = np.ones(len(bs), dtype=bool)
    for wall in walls:
        denom = ab @ wall.n                      # (N,)
        crossing = np.abs(denom) >= PARALLEL_EPS
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(crossing, ((wall.p0 - a) @ wall.n) / np.where(crossing, denom, 1.0), 0.0)
        interior = crossing & (t * lengths >= ENDPOINT_EPS) & ((1.0 - t) * lengths >= ENDPOINT_EPS)
        if not interior.any():
            continue
        p = a + t[:, None] * ab                  # (N, 3)
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

    The grid of `grid_shape` is centered on the wall; cells overlapping any
    opening declared on this wall are skipped. Returns an (n, 3) array in
    row-major order (v outer, u inner); n is 0 when the wall cannot host a
    single unit.
    """
    n_u, n_v = grid_shape(wall, d_r, margin)
    if not n_u:
        return np.empty((0, 3))
    # center the grid inside the usable area
    u0 = -(n_u * d_r) / 2.0
    v0 = -(n_v * d_r) / 2.0
    u_lo = u0 + np.arange(int(n_u)) * d_r           # (n_u,)
    v_lo = (v0 + np.arange(int(n_v)) * d_r)[:, None]  # (n_v, 1)
    keep = np.ones((int(n_v), int(n_u)), dtype=bool)
    for op in openings:
        if op.wall_id == wall.id:
            keep &= ~op.overlaps_uv_rect(u_lo, u_lo + d_r, v_lo, v_lo + d_r)
    uc = u_lo + d_r / 2.0
    vc = v_lo + d_r / 2.0
    centers = wall.p0 + uc[:, None] * wall.u_axis + vc[:, :, None] * wall.v_axis
    return centers[keep]
