"""Monte-Carlo engine: default two-room scene, wavefront sampling and the
(d_r, M) sweep that pools deviation angles and fits both models.

The room dimensions, doorway size and array placement are simulator defaults
(the study's own scene is unpublished); absolute fit values depend on them,
the qualitative trends do not. All of them are overridable via SceneParams.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .geometry import (AntennaArray, Aperture, WallPlane, grid_shape, norm,
                       tile_wall, trace_walls)
from .routing import WavefrontSpec, get_routes
from .scene import Scene, SceneError, build_graph
from .statfit import (DegenerateDataError, DeviationDataset, fit_gamma_mle,
                      fit_rayleigh_mle, gamma_pdf, kld_empirical, rayleigh_pdf)

MAX_REJECTIONS = 10_000
# config bounds: past them a sweep exhausts memory instead of failing up front
MAX_TRIALS = 1_000_000
MAX_M_SIDE = 64
MAX_BINS = 10_000
# RIS units one scene may tile; d_r = 0.02 lays 380,790 on the default walls
MAX_RIS_UNITS = 1_000_000
# antenna x RIS unit pairs one scene may hold: each antenna caches one bool
# per unit, so this keeps the rows under ~100 MB and about a minute of work;
# M = 64 at d_r = 0.15 on the default walls is ~27 M
MAX_ANTENNA_RIS_PAIRS = 100_000_000


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
class FitReport:
    d_r: float
    m_side: int
    gamma: object
    rayleigh: object
    kld_gamma: float
    kld_rayleigh: float
    n_samples: int
    n_failures: int


@dataclass(frozen=True)
class CellResult:
    dataset: DeviationDataset
    report: FitReport
    # one row per routed antenna: (trial, antenna_index, phi_deg, last_ris_id, path_len)
    records: tuple


def build_scene(params, d_r, m_side):
    """Construct the two-room scene for one (d_r, M) cell.

    Wall ids put the room-2 boundary first so the first-hit wall scan from
    any point inside room 2 lands on the unique room-2 boundary crossing.
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
    # doorway centered in the divider
    openings = [Aperture(wall_id=0, u_center=0.0, v_center=0.0,
                         u_half=params.door_width / 2.0,
                         v_half=params.door_height / 2.0)]

    tiled = walls[:9]    # room-2 boundary, room-1 walls
    n_grid = sum(np.prod(grid_shape(w, d_r, params.ris_margin)) for w in tiled)
    if n_grid > MAX_RIS_UNITS:
        raise SceneError(f"RIS units of side {d_r} would number more than {MAX_RIS_UNITS}")
    if m_side * m_side * n_grid > MAX_ANTENNA_RIS_PAIRS:
        raise SceneError(f"{m_side * m_side} antennas x {int(n_grid)} RIS units would "
                         f"make more than {MAX_ANTENNA_RIS_PAIRS} visibility pairs")
    per_wall = [tile_wall(w, d_r, margin=params.ris_margin, openings=openings)
                for w in tiled]
    # a RIS id is its row in ris_centers: wall order, then v outer, u inner
    ris_centers = np.concatenate(per_wall)
    ris_walls = np.repeat([w.id for w in tiled], [len(c) for c in per_wall])
    if not len(ris_centers):
        raise SceneError(f"no RIS unit of side {d_r} fits any tiled wall")

    tx = params.tx_position
    if tx is None:
        tx = (0.3, hw, hh)

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
    rx = AntennaArray(antennas=antennas, rows=m_side, cols=m_side, boresight=-ex)
    return Scene(walls=walls, openings=openings, ris_centers=ris_centers,
                 ris_walls=ris_walls, tx=tx, rx=rx, ris_grid=d_r)


def sample_wavefront(scene, rng, hits=None):
    """Draw one desired unit DoA per antenna, uniform over the boresight
    hemisphere, rejecting directions whose traced ray misses every wall.

    The rule reads one stream of normal 3-vectors from `rng`: each antenna
    in turn takes the next vector, normalizes it and flips it onto the
    boresight hemisphere, and takes another while the vector is zero, lies
    on the boresight plane or its ray misses every wall. The waiting
    antennas go in passes, each tracing the next candidates of several
    antennas in one `trace_walls` call and keeping the leading run of
    accepted ones; the first rejected candidate is dropped, and those after
    it move up one antenna, topped up by one fresh draw. M draws of 3 take
    the same stream as one draw of (M, 3), so every candidate is the vector
    the per-antenna rule reads.

    When `hits` is a list, each accepted direction's traced
    (wall point, wall id) is appended to it, ready for
    get_routes(..., hits=hits).
    """
    antennas = scene.rx.antennas
    m = len(antennas)
    doas, points = np.empty((m, 3)), np.empty((m, 3))
    first = np.empty(m, dtype=int)
    draws = rng.standard_normal((m, 3))     # row j: the candidate of antenna i + j
    i = misses = 0          # antennas accepted; wall misses of antenna i
    w = m                   # candidates traced in this pass
    while True:
        n = norm(draws[:w])
        with np.errstate(invalid="ignore"):     # a zero draw becomes NaN, rejected below
            v = draws[:w] / n[:, None]
        d = np.vecdot(v, scene.rx.boresight)
        v = np.where((d < 0.0)[:, None], -v, v)
        k, p = trace_walls(antennas[i:i + w], v, scene.wall_table)
        ok = (n != 0.0) & (d != 0.0) & (k >= 0)
        run = len(ok) if ok.all() else int(ok.argmin())
        doas[i:i + run], first[i:i + run], points[i:i + run] = v[:run], k[:run], p[:run]
        i += run
        if i == m:
            break
        if run:
            misses = 0
        draws = draws[run:]
        if run < len(ok):       # draws[0] was rejected
            if n[run] != 0.0 and d[run] != 0.0:     # its ray missed every wall
                misses += 1
                if misses >= MAX_REJECTIONS:
                    raise SceneError("wavefront sampling rejected 10^4 directions; "
                                     "scene geometry looks malformed")
            draws = np.concatenate((draws[1:], rng.standard_normal((1, 3))))
        # candidates traced past a rejection are traced again for their new
        # antenna; tracing at most twice the last run keeps that work linear
        w = 2 * run + 1
    if hits is not None:
        hits.extend(zip(points, scene.wall_table.ids[first].tolist()))
    return WavefrontSpec(doas=doas)


def run_cell(config, d_r, m_side):
    """Run all trials of one (d_r, M) cell and fit both deviation models.

    A SceneError or CellFitError it raises names the cell.
    """
    d_idx = config.d_r_values.index(d_r)
    m_idx = config.m_sides.index(m_side)
    streams = np.random.SeedSequence([config.seed, m_idx, d_idx]).spawn(config.n_trials)
    phis = []
    records = []
    n_failures = 0
    try:
        scene = build_scene(config.scene, d_r, m_side)
        graph = build_graph(scene)
        for trial, ss in enumerate(streams):
            rng = np.random.Generator(np.random.PCG64(ss))
            hits = []
            spec = sample_wavefront(scene, rng, hits)
            routes = get_routes(scene, graph, spec, hits=hits)
            n_failures += len(routes.failures)
            for route in routes.routes:
                phis.append(route.phi_deg)
                records.append((trial, route.antenna_index, route.phi_deg,
                                route.last_ris_id, len(route.path)))
    except SceneError as exc:
        raise SceneError(f"cell (d_r={d_r}, M={m_side}): {exc}") from exc
    dataset = DeviationDataset(samples=np.array(phis), d_r=d_r, m=m_side * m_side)
    try:
        gamma, rayleigh, kld_gamma, kld_rayleigh = fit_models(dataset, config.n_bins)
    except (ValueError, DegenerateDataError) as exc:
        raise CellFitError(f"cell (d_r={d_r}, M={m_side}): {exc}") from exc
    report = FitReport(d_r=d_r, m_side=m_side, gamma=gamma, rayleigh=rayleigh,
                       kld_gamma=kld_gamma, kld_rayleigh=kld_rayleigh,
                       n_samples=dataset.n, n_failures=n_failures)
    return CellResult(dataset=dataset, report=report, records=tuple(records))


def fit_models(dataset, n_bins):
    """(gamma, rayleigh, kld_gamma, kld_rayleigh): both models' MLE fits of
    `dataset` and each fitted density's KLD against its n_bins histogram.

    Raises ValueError or DegenerateDataError for data that cannot be fitted.
    """
    gamma = fit_gamma_mle(dataset)
    rayleigh = fit_rayleigh_mle(dataset)
    return (gamma, rayleigh,
            kld_empirical(dataset, lambda x: gamma_pdf(x, gamma.k_hat, gamma.theta_hat),
                          n_bins),
            kld_empirical(dataset, lambda x: rayleigh_pdf(x, rayleigh.sigma_hat), n_bins))


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
