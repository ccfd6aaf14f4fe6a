"""Monte-Carlo engine: default two-room scene, wavefront sampling and the
(d_r, M) sweep that pools deviation angles and fits both models.

The room dimensions, doorway size and array placement are simulator defaults
(the study's own scene is unpublished); absolute fit values depend on them,
the qualitative trends do not. All of them are overridable via SceneParams.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import (AntennaArray, Aperture, WallPlane, grid_shape, norm,
                       tile_wall, trace_walls)
from .routing import WavefrontSpec, get_routes
from .scene import Scene, SceneError, build_graph
from .statfit import (DegenerateDataError, DeviationDataset, Fit, fit_gamma_mle,
                      fit_rayleigh_mle, gamma_pdf, kld_empirical, make_histogram, rayleigh_pdf)

MAX_REJECTIONS = 10_000
# antenna-trials per run_cell batch: bounds the (batch, walls) temporaries
TRIAL_BATCH = 1 << 10
# config bounds: refuse absurd values up front, but bound no memory (~336 B per routed row)
MAX_TRIALS = 1_000_000
MAX_M_SIDE = 64
MAX_BINS = 10_000
# RIS units one scene may tile; d_r = 0.02 lays 380,790 on the default walls
MAX_RIS_UNITS = 1_000_000
# antenna x RIS unit pairs one scene may hold: the graph's visibility matrix
# holds one bool per pair, so this keeps it under ~100 MB and about a minute
# of work; M = 64 at d_r = 0.15 on the default walls is ~27 M
MAX_ANTENNA_RIS_PAIRS = 100_000_000
# every antenna lies this far inside room 2's walls and the Tx inside room 1's, meters:
# far above the geometry's ENDPOINT_EPS and ARRAY_MARGIN, so neither sits on a wall plane
RX_WALL_CLEARANCE = 1e-6


class CellFitError(Exception):
    """A sweep cell's pooled deviations cannot be fitted (too few or degenerate)."""


class WorkerLostError(Exception):
    """A sweep worker process died (e.g. killed or out of memory)."""


@dataclass(frozen=True)
class SceneParams:
    """Two equal rooms sharing a doorway wall; receiver array in room 2."""

    room_length: float = 5.0    # each room, along x
    room_width: float = 5.0     # along y
    room_height: float = 3.0    # along z
    door_width: float = 1.2
    door_height: float = 2.2
    # default: near the far wall of room 1, mid-height
    tx_position: tuple[float, float, float] = None
    # array center; default: low corner of room 2
    rx_position: tuple[float, float, float] = None
    rx_spacing: float = 0.05
    ris_margin: float = 0.0

    def __post_init__(self):
        for key in ("room_length", "room_width", "room_height", "rx_spacing"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive")
        for key in ("door_width", "door_height", "ris_margin"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    d_r_values: tuple[float, ...] = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55)
    m_sides: tuple[int, ...] = (4, 6, 8, 10)
    n_trials: int = 100
    seed: int = 0
    n_bins: int = 10
    scene: SceneParams = field(default_factory=SceneParams)

    def __post_init__(self):
        if not 1 <= self.n_trials <= MAX_TRIALS:
            raise ValueError(f"n_trials must be between 1 and {MAX_TRIALS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if any(d <= 0 for d in self.d_r_values):
            raise ValueError("d_r_values must be positive")
        if any(not 1 <= m <= MAX_M_SIDE for m in self.m_sides):
            raise ValueError(f"m_sides must be between 1 and {MAX_M_SIDE}")
        for key in ("d_r_values", "m_sides"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{key} must not repeat a value")
        if not 2 <= self.n_bins <= MAX_BINS:
            raise ValueError(f"n_bins must be between 2 and {MAX_BINS}")


@dataclass(frozen=True)
class CellResult:
    d_r: float
    m_side: int
    dataset: DeviationDataset
    n_failures: int
    # one row per routed antenna: (trial, antenna_index, phi_deg, last_ris_id, path_len)
    records: tuple
    fit: Fit


def build_scene(params, d_r, m_side):
    """Construct the two-room scene for one (d_r, M) cell.

    Wall ids put the room-2 boundary first so the first-hit wall scan from
    any point inside room 2 lands on the unique room-2 boundary crossing.
    Raises SceneError, before any wall is tiled, past the unit or pair
    bound, when an antenna does not lie inside room 2 or when the
    transmitter does not lie inside room 1, each by RX_WALL_CLEARANCE.
    """
    length, width, height = params.room_length, params.room_width, params.room_height
    ex, ey, ez = np.eye(3)
    hw, hh, hl = width / 2.0, height / 2.0, length / 2.0

    def wall(wid, p0, n, u_axis, v_axis, u_extent, v_extent):
        return WallPlane(id=wid, p0=p0, n=n, u_axis=u_axis, v_axis=v_axis,
                         u_extent=u_extent, v_extent=v_extent)

    walls = [
        # room 2 boundary
        wall(0, (length, hw, hh), ex, ey, ez, hw, hh),                       # divider
        wall(1, (1.5 * length, 0.0, hh), ey, ex, ez, hl, hh),
        wall(2, (1.5 * length, width, hh), ey, ex, ez, hl, hh),
        wall(3, (2.0 * length, hw, hh), ex, ey, ez, hw, hh),
        wall(4, (1.5 * length, hw, 0.0), ez, ex, ey, hl, hw),                # floor
        wall(5, (1.5 * length, hw, height), ez, ex, ey, hl, hw),             # ceiling
        # room 1 boundary (divider shared)
        wall(6, (0.0, hw, hh), ex, ey, ez, hw, hh),
        wall(7, (0.5 * length, 0.0, hh), ey, ex, ez, hl, hh),
        wall(8, (0.5 * length, width, hh), ey, ex, ez, hl, hh),
        wall(9, (0.5 * length, hw, 0.0), ez, ex, ey, hl, hw),
        wall(10, (0.5 * length, hw, height), ez, ex, ey, hl, hw),
    ]
    # doorway centered in the divider; a zero width or height closes it
    openings = []
    if params.door_width > 0 and params.door_height > 0:
        openings = [Aperture(wall_id=0, u_center=0.0, v_center=0.0,
                             u_half=params.door_width / 2.0,
                             v_half=params.door_height / 2.0)]

    tiled = walls[:9]    # room-2 boundary, room-1 walls
    n_grid = sum(math.prod(grid_shape(w, d_r, params.ris_margin)) for w in tiled)
    if n_grid > MAX_RIS_UNITS:
        raise SceneError(f"RIS units of side {d_r} would number more than {MAX_RIS_UNITS}")
    if m_side * m_side * n_grid > MAX_ANTENNA_RIS_PAIRS:
        raise SceneError(f"{m_side * m_side} antennas x {int(n_grid)} RIS units would "
                         f"make more than {MAX_ANTENNA_RIS_PAIRS} visibility pairs")

    # the off-center default spreads antenna-to-wall distances widely, which
    # is what shapes the deviation statistics; a dead-center array sees
    # near-equal distances everywhere and degenerate (Rayleigh-like) spreads
    rx_center = params.rx_position
    if rx_center is None:
        rx_center = (2.0 * length - 1.5, 0.8, 0.8)
    center = np.asarray(rx_center, dtype=float)
    # antenna r * m_side + c sits at row r (top first), column c
    steps = np.arange(m_side)
    dy = ((steps - (m_side - 1) / 2.0) * params.rx_spacing)[:, None]          # by c
    dz = (((m_side - 1) / 2.0 - steps) * params.rx_spacing)[:, None, None]    # by r
    antennas = (center + dy * ey + dz * ez).reshape(-1, 3)
    room2_lo = np.array([length, 0.0, 0.0]) + RX_WALL_CLEARANCE
    room2_hi = np.array([2.0 * length, width, height]) - RX_WALL_CLEARANCE
    if not (np.all(antennas.min(axis=0) > room2_lo) and np.all(antennas.max(axis=0) < room2_hi)):
        raise SceneError(f"the {m_side} x {m_side} antenna array at spacing {params.rx_spacing} "
                         f"around {tuple(rx_center)} does not lie inside room 2 (x {length}.."
                         f"{2.0 * length}, y 0..{width}, z 0..{height}) by {RX_WALL_CLEARANCE} m")
    rx = AntennaArray(antennas=antennas, boresight=-ex)
    tx = params.tx_position
    if tx is None:
        tx = (0.3, hw, hh)
    room1_hi = np.array([length, width, height]) - RX_WALL_CLEARANCE
    if not (np.all(np.asarray(tx) > RX_WALL_CLEARANCE) and np.all(np.asarray(tx) < room1_hi)):
        raise SceneError(f"the transmitter at {tuple(tx)} does not lie inside room 1 (x 0.."
                         f"{length}, y 0..{width}, z 0..{height}) by {RX_WALL_CLEARANCE} m")

    per_wall = [tile_wall(w, d_r, margin=params.ris_margin, openings=openings)
                for w in tiled]
    # a RIS id is its row in ris_centers: wall order, then v outer, u inner
    ris_centers = np.concatenate(per_wall)
    ris_walls = np.repeat([w.id for w in tiled], [len(c) for c in per_wall])
    if not len(ris_centers):
        raise SceneError(f"no RIS unit of side {d_r} fits any tiled wall")

    return Scene(walls=walls, openings=openings, ris_centers=ris_centers,
                 ris_walls=ris_walls, tx=tx, rx=rx, ris_grid=d_r)


def sample_wavefront(scene, rngs):
    """Draw T wavefronts, wavefront t from generator `rngs[t]`: one desired
    unit DoA per antenna, uniform over the boresight hemisphere, rejecting
    directions whose traced ray misses every wall.

    The rule reads one stream of normal 3-vectors per wavefront: each
    antenna in turn takes the next vector, normalizes it and flips it onto
    the boresight hemisphere, and takes another while the vector is zero,
    lies on the boresight plane or its ray misses every wall. The first
    pass traces the first candidate of every antenna of every wavefront in
    one `trace_walls` call. Each wavefront keeps its leading run of accepted
    ones; its first rejected candidate is dropped, and those after it move
    up one antenna, topped up by one fresh draw from its own generator. A
    wavefront that met a rejection then goes one antenna per pass, so each
    candidate is traced at most twice. M draws of 3 take the same stream as
    one draw of (M, 3), so every candidate is the vector the per-antenna
    rule reads. The accepted directions' traces come with the spec as
    `WavefrontSpec.trace`, so `get_routes` traces nothing.
    """
    antennas, boresight = scene.rx.antennas, scene.rx.boresight
    m = len(antennas)
    # draws[t, a]: wavefront t's candidate for antenna a >= done[t]
    draws = np.array([rng.standard_normal((m, 3)) for rng in rngs]).reshape(len(rngs), m, 3)
    doas, points = np.empty(draws.shape), np.empty(draws.shape)
    first = np.empty(draws.shape[:2], dtype=int)
    done = np.zeros(len(rngs), dtype=int)       # antennas accepted
    misses = np.zeros(len(rngs), dtype=int)     # wall misses of antenna done[t]
    live, w = np.arange(len(rngs)), m           # the first pass traces m antennas, later ones 1
    while len(live):
        tt, aa = np.broadcast_arrays(live[:, None], done[live, None] + np.arange(w))
        c = draws[tt, aa]
        n = norm(c)
        with np.errstate(invalid="ignore"):     # a zero draw becomes NaN, rejected below
            v = c / n[..., None]
        d = np.vecdot(v, boresight)
        v = np.where((d < 0.0)[..., None], -v, v)
        k, p = trace_walls(antennas[aa.ravel()], v.reshape(-1, 3), scene.wall_table)
        k, p = k.reshape(aa.shape), p.reshape(c.shape)
        drawn = (n != 0.0) & (d != 0.0)
        # per wavefront: the column of its first rejection, or w
        run = np.where(drawn & (k >= 0), w, np.arange(w)).min(axis=1)
        keep = np.arange(w) < run[:, None]
        tk, ak = tt[keep], aa[keep]
        doas[tk, ak], first[tk, ak], points[tk, ak] = v[keep], k[keep], p[keep]
        done[live] += run
        misses[live[run > 0]] = 0
        rejected = np.flatnonzero(run < w)
        for t, missed in zip(live[rejected].tolist(), drawn[rejected, run[rejected]].tolist()):
            if missed:                          # its ray missed every wall
                misses[t] += 1
                if misses[t] >= MAX_REJECTIONS:
                    raise SceneError(f"wavefront sampling rejected {MAX_REJECTIONS} directions "
                                     "in a row for one antenna; scene geometry looks malformed")
            draws[t, done[t]:-1] = draws[t, done[t] + 1:]
            draws[t, -1] = rngs[t].standard_normal((1, 3))
        live, w = live[done[live] < m], 1
    return WavefrontSpec(doas=doas, trace=(first, points))


def run_cell(config, d_r, m_side):
    """Run all trials of one (d_r, M) cell and fit both deviation models.

    Trial t draws from the cell's t-th stream. The trials are sampled and
    routed in batches of about TRIAL_BATCH antenna-trials, whose size
    changes no result.
    A SceneError or CellFitError it raises names the cell.
    """
    d_idx = config.d_r_values.index(d_r)
    m_idx = config.m_sides.index(m_side)
    streams = np.random.SeedSequence([config.seed, m_idx, d_idx]).spawn(config.n_trials)
    batch = max(1, TRIAL_BATCH // (m_side * m_side))
    phis = []
    records = []
    n_failures = 0
    try:
        scene = build_scene(config.scene, d_r, m_side)
        graph = build_graph(scene)
        for lo in range(0, len(streams), batch):
            rngs = [np.random.Generator(np.random.PCG64(ss)) for ss in streams[lo:lo + batch]]
            spec = sample_wavefront(scene, rngs)
            routes = get_routes(graph, spec)
            n_failures += len(routes.failures)
            phi = routes.phi_deg.tolist()
            phis += phi
            records += zip((routes.trials + lo).tolist(), routes.antenna_indices.tolist(), phi,
                           routes.last_ris_ids.tolist(), map(len, routes.paths))
    except SceneError as exc:
        raise SceneError(f"cell (d_r={d_r}, M={m_side}): {exc}") from exc
    dataset = DeviationDataset(samples=np.array(phis), d_r=d_r, m=m_side * m_side)
    try:
        fit = fit_models(dataset, config.n_bins)
    except (ValueError, DegenerateDataError) as exc:
        raise CellFitError(f"cell (d_r={d_r}, M={m_side}): {exc}") from exc
    return CellResult(d_r=d_r, m_side=m_side, dataset=dataset, n_failures=n_failures,
                      records=tuple(records), fit=fit)


def fit_models(dataset, n_bins):
    """The `Fit` of `dataset`: both models' MLE fits, its n_bins histogram
    and each fitted density's KLD against that histogram.

    Raises ValueError or DegenerateDataError for data that cannot be fitted.
    """
    gamma = fit_gamma_mle(dataset)
    rayleigh = fit_rayleigh_mle(dataset)
    hist = make_histogram(dataset, n_bins)
    kld_gamma = kld_empirical(hist, lambda x: gamma_pdf(x, gamma.k_hat, gamma.theta_hat))
    kld_rayleigh = kld_empirical(hist, lambda x: rayleigh_pdf(x, rayleigh.sigma_hat))
    return Fit(gamma, rayleigh, hist, kld_gamma, kld_rayleigh)


def _cell_weight(cell):
    """Relative run time of an (M, d_r) cell: antennas times RIS units."""
    m_side, d_r = cell
    return m_side * m_side / (d_r * d_r)


def run_sweep(config, threads=1):
    """Every (M, d_r) cell of the sweep, in (M, d_r) order.

    With threads > 1 the cells run in forked worker processes, at most one
    per usable core and one per cell, heaviest first. Each cell owns its rng
    streams, so the results are identical for any worker count.
    """
    cells = [(m, d) for m in config.m_sides for d in config.d_r_values]
    workers = min(threads, len(cells))
    if workers > 1:
        # sched_getaffinity exists only on Linux
        cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
        workers = min(workers, cores)
    if workers <= 1:
        return [run_cell(config, d, m) for m, d in cells]
    # imported here: multiprocessing adds ~20 ms to every start of the
    # program, which the in-process path and `fit` and `route` need not pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork: workers inherit the imported modules (and any wrapper installed
    # on run_cell) instead of importing numpy afresh
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context("fork"))
    futures = {}
    try:
        for cell in sorted(cells, key=_cell_weight, reverse=True):
            futures[cell] = pool.submit(run_cell, config, cell[1], cell[0])
        # read in (M, d_r) order so a failing sweep reports the same cell
        # as the in-process loop
        return [futures[cell].result() for cell in cells]
    except BrokenProcessPool:
        got = {cell for cell, f in futures.items() if f.done() and f.exception() is None}
        lost = ", ".join(f"(d_r={d}, M={m})" for m, d in cells if (m, d) not in got)
        raise WorkerLostError(f"a worker process died; no result for cells {lost}") from None
    finally:
        pool.shutdown(cancel_futures=True)
