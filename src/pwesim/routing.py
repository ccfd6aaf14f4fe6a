"""Per-antenna wavefront routing: wall-point tracing, nearest-RIS selection
with exclusivity, minimum-hop route assembly and deviation angles.

Desired DoAs point from the antenna toward the incoming wave's source, so the
traced ray ant + d*doa runs outward along the reversed arrival direction. The
realized DoA is the unit vector from the antenna to the chosen RIS center,
which puts both vectors in the same convention and makes the collinear case
give exactly zero deviation.

The claims run antenna by antenna, because a claimed RIS leaves the pool.
No claim depends on a path (an unreachable unit stays claimed), so the paths
come after all claims, in one `PweGraph.min_hop_paths` call (a lookup in
the graph's relay array); the realized DoAs and angles are computed for all
antennas of a spec at once.

A claim is the nearest free unit the antenna sees, by the full scan
`nearest_ris`, unless a cheaper test proves the answer first: one broadcast
per spec (`RisCells.candidates`) ranks the units of the 3 x 3 grid cells
around each hit point, as far as bounds on every other unit prove that
ranking, and an antenna takes the first free visible unit of its ranking.
Only an antenna whose ranking runs out scans every unit.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import is_unit, trace_walls, unit

NO_HIT = "no_hit"              # desired ray exits the wall model
NO_CANDIDATE = "no_candidate"  # no remaining RIS has LoS to the antenna
UNREACHABLE = "unreachable"    # no path from Tx to the chosen RIS


@dataclass(frozen=True)
class WavefrontSpec:
    """One desired unit DoA per receiver antenna, in antenna order; `doas`
    is a read-only (M, 3) array, row i for antenna i. `trace`, if given, is
    the routing scene's `trace_walls(antennas, doas, wall_table)`, kept as
    read-only copies: (M,) first-wall columns, -1 on a miss, and (M, 3)
    wall points."""

    doas: np.ndarray
    trace: tuple = None

    def __post_init__(self):
        doas = np.array(self.doas, dtype=float)
        if doas.ndim != 2 or doas.shape[1] != 3:
            raise ValueError("desired DoAs must be 3-vectors")
        if not np.all(is_unit(doas, tol=1e-6)):
            raise ValueError("desired DoAs must be unit vectors")
        doas.setflags(write=False)
        object.__setattr__(self, "doas", doas)
        if self.trace is not None:
            first, points = self.trace
            first, points = np.array(first, dtype=int), np.array(points, dtype=float)
            if first.shape != (len(doas),) or points.shape != doas.shape:
                raise ValueError("trace shapes must match the DoAs")
            first.setflags(write=False)
            points.setflags(write=False)
            object.__setattr__(self, "trace", (first, points))


@dataclass(frozen=True)
class Route:
    antenna_index: int
    last_ris_id: int
    path: tuple           # vertex indices, Tx first, lastRIS last
    realized_doa: np.ndarray
    phi_deg: float


@dataclass(frozen=True)
class RouteSet:
    routes: tuple
    failures: tuple       # (antenna_index, reason) pairs


def deviation_angle(desired, realized):
    """Angle between two unit vectors, degrees in [0, 180]; for two (N, 3)
    arrays, the angle between each pair of rows."""
    return np.degrees(np.arccos(np.clip(np.vecdot(desired, realized), -1.0, 1.0)))


def nearest_ris(point, centers, available):
    """Row of the available RIS center nearest to `point`, or None.

    A row is a RIS id, so argmin's first-hit rule is the smallest-id tie
    break.
    """
    diff = centers - point
    d2 = np.einsum("ij,ij->i", diff, diff)
    j = int(np.argmin(np.where(available, d2, np.inf)))
    return j if available[j] else None


def get_routes(graph, spec):
    """Run the wavefront routing algorithm: claims first, then one path step.

    In index order, each antenna traces its desired ray to a wall point and
    claims the nearest LoS RIS (removed from the pool, even when no path
    reaches it). The wall points are `spec.trace`, or one `trace_walls`
    pass over all rays when the spec carries none. The claim is the first
    free visible unit among the point's `RisCells.candidates`, and the full
    scan `nearest_ris` where there is none; both give the same unit,
    smallest id first on ties.
    Then each claimed unit gets a minimum-hop Tx -> ... -> lastRIS path whose
    hops are RIS units only, all from one `graph.min_hop_paths` call, whose
    relay array is filled from the graph's cached rows, so calls that share
    one graph (the trials of one scene) read each relay row once.
    Per-antenna failures are recorded in antenna order, never fatal. The
    scene is `graph.scene`.
    """
    scene = graph.scene
    antennas = scene.rx.antennas
    if len(spec.doas) != len(antennas):
        raise ValueError("spec length must match antenna count")
    first, points = (trace_walls(antennas, spec.doas, scene.wall_table) if spec.trace is None
                     else spec.trace)
    centers = scene.ris_centers
    cells = scene.ris_cells
    near = [()] * len(first) if cells is None else cells.candidates(points, first)
    free = np.ones(graph.n_ris, dtype=bool)
    claims = []    # (antenna, claimed RIS row)
    failures = []
    for i, k in enumerate(first.tolist()):
        if k < 0:
            failures.append((i, NO_HIT))
            continue
        visible = graph.visibility[i]
        j = next((j for j in near[i] if free[j] and visible[j]), None)
        if j is None:
            j = nearest_ris(points[i], centers, free & visible)
        if j is None:
            failures.append((i, NO_CANDIDATE))
            continue
        free[j] = False
        claims.append((i, j))
    routed, rows, paths = [], [], []    # antenna, claimed RIS row, Tx path
    for (i, j), path in zip(claims, graph.min_hop_paths([j for _, j in claims])):
        if path is None:
            failures.append((i, UNREACHABLE))
            continue
        routed.append(i)
        rows.append(j)
        paths.append(path)
    failures.sort()
    realized = unit(centers[rows] - antennas[routed])
    phis = deviation_angle(spec.doas[routed], realized).tolist()
    routes = tuple(Route(antenna_index=i, last_ris_id=j, path=path,
                         realized_doa=r, phi_deg=phi)
                   for i, j, path, r, phi in zip(routed, rows, paths, realized, phis))
    return RouteSet(routes=routes, failures=tuple(failures))
