"""Per-antenna wavefront routing: wall-point tracing, nearest-RIS selection
with exclusivity, minimum-hop route assembly and deviation angles.

Desired DoAs point from the antenna toward the incoming wave's source, so the
traced ray ant + d*doa runs outward along the reversed arrival direction. The
realized DoA is the unit vector from the antenna to the chosen RIS center,
which puts both vectors in the same convention and makes the collinear case
give exactly zero deviation.

A spec holds T wavefronts, each copied from a fresh pool of units antenna
by antenna, as a claimed RIS leaves the pool; `claim_rounds` makes exactly
those claims for all T wavefronts at once, in rounds. No claim depends on a
path (an unreachable unit stays claimed), so the paths come after the
claims, in one `PweGraph.min_hop_paths` call (a lookup in the graph's relay
array); the realized DoAs and angles of all routed antenna-trials are
computed at once, as `RouteSet` columns.

A claim is the nearest free unit the antenna sees, by the full scan
`nearest_ris`, unless a cheaper test proves the answer first: one broadcast
per spec (`RisCells.candidates`) ranks the units of the 3 x 3 grid cells
around each of the T x M hit points, as far as bounds on every other unit
prove that ranking, and an antenna takes the first free visible unit of its
ranking. Only an antenna whose ranking runs out scans every unit, at its turn.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import is_unit, trace_walls, unit

NO_HIT = "no_hit"              # desired ray exits the wall model
NO_CANDIDATE = "no_candidate"  # no remaining RIS has LoS to the antenna
UNREACHABLE = "unreachable"    # no path from Tx to the chosen RIS
SCAN, NONE = -1, -2    # claim_rounds picks: full scan due; no claim


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
    """Columns of the routed antenna-trials, in (trial, antenna_index) order:
    `Route`'s fields, one array or tuple each, and the failures."""

    trials: np.ndarray
    antenna_indices: np.ndarray
    last_ris_ids: np.ndarray
    paths: tuple
    realized_doas: np.ndarray     # (n, 3)
    phi_deg: np.ndarray
    failures: tuple               # sorted (trial, antenna_index, reason) triples

    @property
    def routes(self):
        """One `Route` per routed antenna-trial, built on each read."""
        return tuple(map(Route, self.trials.tolist(), self.antenna_indices.tolist(),
                         self.last_ris_ids.tolist(), self.paths, self.realized_doas,
                         self.phi_deg.tolist()))


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


def _ranked_pick(ranked, usable):
    """Per row, the first ranked RIS row that is usable, else SCAN."""
    return np.where(usable.any(axis=1), ranked[np.arange(len(ranked)), usable.argmax(axis=1)],
                    SCAN)


def claim_rounds(graph, first, points):
    """(T, M) lastRIS claims of T wavefronts, -1 for none, from `trace_walls`'
    (T, M) first-wall columns and (T, M, 3) wall points.

    Each waiting antenna holds a pick: its first free visible ranked unit,
    SCAN if none (the full scan `nearest_ris`, made once it is its
    wavefront's first waiting antenna), NONE after a miss. A round commits,
    per wavefront, the waiting antennas before the first whose pick is SCAN
    or repeats an earlier one. As the pool only shrinks, each gets its
    antenna-by-antenna claim, and only picks whose unit was taken change.
    """
    n_t, m = first.shape
    first, points = first.ravel(), points.reshape(-1, 3)
    trial, antenna = np.divmod(np.arange(n_t * m), m)
    visible = graph.visibility
    cells = graph.scene.ris_cells
    ranked, count = ((np.full((n_t * m, 1), -1), np.zeros(n_t * m, dtype=int)) if cells is None
                     else cells.candidates(points, first))
    # ranked[e, k] may be row e's claim: proven, and seen by its antenna
    seen = (np.arange(ranked.shape[1]) < count[:, None]) & visible[antenna[:, None], ranked]
    free = np.ones((n_t, graph.n_ris), dtype=bool)      # one pool per wavefront
    pick = np.where(first < 0, NONE, _ranked_pick(ranked, seen & free[trial[:, None], ranked]))
    head = np.zeros(n_t, dtype=int)                     # first waiting antenna
    at = np.arange(m)
    while (live := np.flatnonzero(head < m)).size:
        heads = live * m + head[live]
        for e in heads[pick[heads] == SCAN].tolist():
            j = nearest_ris(points[e], graph.scene.ris_centers, free[e // m] & visible[e % m])
            pick[e] = NONE if j is None else j
        waiting = (at >= head[:, None]).ravel()
        w = np.flatnonzero(waiting & (pick >= 0))
        key = trial[w] * graph.n_ris + pick[w]
        order = np.argsort(key, kind="stable")     # a wavefront's first pick of a unit first
        stop = waiting & (pick == SCAN)
        stop[w[order[1:][key[order[1:]] == key[order[:-1]]]]] = True
        stop = stop.reshape(n_t, m)
        head = np.where(stop.any(axis=1), stop.argmax(axis=1), m)
        still = (at >= head[:, None]).ravel()        # waiting after this round
        took = np.flatnonzero(waiting & ~still & (pick >= 0))
        free[trial[took], pick[took]] = False
        stale = np.flatnonzero(still & (pick >= 0))
        stale = stale[~free[trial[stale], pick[stale]]]
        pick[stale] = _ranked_pick(ranked[stale],
                                   seen[stale] & free[trial[stale, None], ranked[stale]])
    return np.maximum(pick, -1).reshape(n_t, m)


def get_routes(graph, spec):
    """Run the wavefront routing algorithm on the T wavefronts of `spec`:
    claims first, then one path step.

    Each wavefront starts from a full pool. In index order, each of its
    antennas traces its desired ray to a wall point and claims the nearest
    LoS RIS (removed from that wavefront's pool, even when no path reaches
    it). The wall points are `spec.trace`, or one `trace_walls` pass over
    all T x M rays when the spec carries none. The claims of all T
    wavefronts come from `claim_rounds`, smallest id first on ties.
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
    claims = claim_rounds(graph, first.reshape(n_t, m), points.reshape(n_t, m, 3)).ravel()
    claimed = np.flatnonzero(claims >= 0)
    paths = graph.min_hop_paths(claims[claimed].tolist())
    reached = np.array([path is not None for path in paths], dtype=bool)
    routed = claimed[reached]
    realized = unit(scene.ris_centers[claims[routed]] - antennas[routed % m])
    failures = [(e, UNREACHABLE) for e in claimed[~reached].tolist()]
    failures += [(e, NO_HIT if first.flat[e] < 0 else NO_CANDIDATE)
                 for e in np.flatnonzero(claims < 0).tolist()]
    return RouteSet(routed // m, routed % m, claims[routed], tuple(filter(None, paths)), realized,
                    deviation_angle(doas[routed], realized),
                    tuple((*divmod(e, m), why) for e, why in sorted(failures)))
