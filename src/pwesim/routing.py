"""Per-antenna wavefront routing: wall-point tracing, nearest-RIS selection
with exclusivity, minimum-hop route assembly and deviation angles.

Desired DoAs point from the antenna toward the incoming wave's source, so the
traced ray ant + d*doa runs outward along the reversed arrival direction. The
realized DoA is the unit vector from the antenna to the chosen RIS center,
which puts both vectors in the same convention and makes the collinear case
give exactly zero deviation.

A spec holds T wavefronts, and each is copied from a fresh pool of units.
Its claims run antenna by antenna, because a claimed RIS leaves the pool.
No claim depends on a path (an unreachable unit stays claimed), so the paths
come after the claims of all T wavefronts, in one `PweGraph.min_hop_paths`
call (a lookup in the graph's relay array); the realized DoAs and angles are
computed for all routed antenna-trials at once.

A claim is the nearest free unit the antenna sees, by the full scan
`nearest_ris`, unless a cheaper test proves the answer first: one broadcast
per spec (`RisCells.candidates`) ranks the units of the 3 x 3 grid cells
around each of the T x M hit points, as far as bounds on every other unit
prove that ranking, and an antenna takes the first free visible unit of its
ranking. Only an antenna whose ranking runs out scans every unit.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import is_unit, trace_walls, unit

NO_HIT = "no_hit"              # desired ray exits the wall model
NO_CANDIDATE = "no_candidate"  # no remaining RIS has LoS to the antenna
UNREACHABLE = "unreachable"    # no path from Tx to the chosen RIS


@dataclass(frozen=True)
class WavefrontSpec:
    """T wavefronts of one desired unit DoA per receiver antenna: `doas` is
    a read-only (T, M, 3) array, [t, i] for antenna i of wavefront t; an
    (M, 3) input is one wavefront. `trace`, if given, is the routing scene's
    `trace_walls` of the antennas along `doas`, kept as read-only copies:
    (T, M) first-wall columns, -1 on a miss, and (T, M, 3) wall points."""

    doas: np.ndarray
    trace: tuple = None

    def __post_init__(self):
        doas = np.array(self.doas, dtype=float, ndmin=3)
        if doas.ndim != 3 or doas.shape[2] != 3:
            raise ValueError("desired DoAs must be 3-vectors")
        if not np.all(is_unit(doas, tol=1e-6)):
            raise ValueError("desired DoAs must be unit vectors")
        doas.setflags(write=False)
        object.__setattr__(self, "doas", doas)
        if self.trace is not None:
            first, points = self.trace
            first = np.array(first, dtype=int, ndmin=2)
            points = np.array(points, dtype=float, ndmin=3)
            if first.shape != doas.shape[:2] or points.shape != doas.shape:
                raise ValueError("trace shapes must match the DoAs")
            first.setflags(write=False)
            points.setflags(write=False)
            object.__setattr__(self, "trace", (first, points))


@dataclass(frozen=True)
class Route:
    trial: int            # wavefront index within the spec
    antenna_index: int
    last_ris_id: int
    path: tuple           # vertex indices, Tx first, lastRIS last
    realized_doa: np.ndarray
    phi_deg: float


@dataclass(frozen=True)
class RouteSet:
    routes: tuple         # in (trial, antenna_index) order
    failures: tuple       # sorted (trial, antenna_index, reason) triples


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
    """Run the wavefront routing algorithm on the T wavefronts of `spec`:
    claims first, then one path step.

    Each wavefront starts from a full pool. In index order, each of its
    antennas traces its desired ray to a wall point and claims the nearest
    LoS RIS (removed from that wavefront's pool, even when no path reaches
    it). The wall points are `spec.trace`, or one `trace_walls` pass over
    all T x M rays when the spec carries none. The claim is the first free
    visible unit among the point's `RisCells.candidates`, ranked for all
    T x M points in one call, and the full scan `nearest_ris` where there
    is none; both give the same unit, smallest id first on ties.
    Then each claimed unit gets a minimum-hop Tx -> ... -> lastRIS path whose
    hops are RIS units only, all from one `graph.min_hop_paths` call, whose
    relay array is filled from the graph's cached rows, so calls that share
    one graph (the trials of one scene) read each relay row once.
    Per-antenna failures are recorded as sorted (trial, antenna, reason)
    triples, never fatal. The scene is `graph.scene`.
    """
    scene = graph.scene
    antennas = scene.rx.antennas
    n_t, m = spec.doas.shape[:2]
    if m != len(antennas):
        raise ValueError("spec length must match antenna count")
    doas = spec.doas.reshape(-1, 3)     # row t * m + i: antenna i of wavefront t
    first, points = spec.trace or trace_walls(np.tile(antennas, (n_t, 1)), doas, scene.wall_table)
    first, points = first.ravel(), points.reshape(-1, 3)
    centers = scene.ris_centers
    cells = scene.ris_cells
    near = [()] * len(first) if cells is None else cells.candidates(points, first)
    claims = []    # (antenna-trial row, claimed RIS row)
    failures = []
    for e, k in enumerate(first.tolist()):
        if e % m == 0:      # each wavefront claims from a full pool
            free = np.ones(graph.n_ris, dtype=bool)
        if k < 0:
            failures.append((e, NO_HIT))
            continue
        visible = graph.visibility[e % m]
        j = next((j for j in near[e] if free[j] and visible[j]), None)
        if j is None:
            j = nearest_ris(points[e], centers, free & visible)
        if j is None:
            failures.append((e, NO_CANDIDATE))
            continue
        free[j] = False
        claims.append((e, j))
    routed, rows, paths = [], [], []    # antenna-trial row, claimed RIS row, Tx path
    for (e, j), path in zip(claims, graph.min_hop_paths([j for _, j in claims])):
        if path is None:
            failures.append((e, UNREACHABLE))
            continue
        routed.append(e)
        rows.append(j)
        paths.append(path)
    realized = unit(centers[rows] - antennas[np.array(routed, dtype=int) % m])
    phis = deviation_angle(doas[routed], realized).tolist()
    routes = tuple(Route(trial=e // m, antenna_index=e % m, last_ris_id=j, path=path,
                         realized_doa=r, phi_deg=phi)
                   for e, j, path, r, phi in zip(routed, rows, paths, realized, phis))
    failures = tuple((*divmod(e, m), why) for e, why in sorted(failures))
    return RouteSet(routes=routes, failures=failures)
