"""In-memory span tracer for one pwesim call, and the per-layer summary.

The tracer wraps the module-level names the program looks up at call time,
so the program itself is unchanged. Each wrapped call records a span
``[name, start, end, parent, cell, trial]``; spans stay in memory and are
written out once, when the call ends. A span's self time is its duration
minus the part of that interval its child spans cover.

Span names are ``<layer>.<function>``, where the layer is the pwesim module
that defines the function: geometry, scene, routing, statfit, experiment or
cli.
"""

import functools
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("geometry", "scene", "routing", "statfit", "experiment", "cli")

NAME, START, END, PARENT, CELL, TRIAL = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _context(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = self._main_stack if threading.current_thread() is self._main else []
            loc.cell = None
            loc.trial = None
        return loc

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def span(self, name, fn, before=None, after=None):
        """Wrap fn so that each call records one span.

        before(loc, args) runs first and may set the cell/trial context;
        after(args, result) runs last and may add counts.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = tracer._context()
            if before is not None:
                before(loc, args)
            stack = loc.stack
            # a pool thread starts with an empty stack: its spans belong to
            # whatever the main thread has open (run_sweep)
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else -1)
            rec = [name, 0.0, 0.0, parent, loc.cell, loc.trial]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(rec)
            stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper


def _enter_cell(loc, args):
    # run_cell(config, d_r, m_side)
    loc.cell = [args[1], args[2]]
    loc.trial = -1


def _next_trial(loc, args):
    loc.trial = (loc.trial if loc.trial is not None else -1) + 1


def install(tracer):
    """Wrap every traced name in the imported pwesim modules."""
    import pwesim.cli as cli
    import pwesim.experiment as experiment
    import pwesim.geometry as geometry
    import pwesim.routing as routing
    import pwesim.scene as scene
    import pwesim.statfit as statfit

    t = tracer

    def ray_after(args, result):
        if result is None:
            t.count("geometry.ray_wall_point.misses")

    ray = t.span("geometry.ray_wall_point", geometry.ray_wall_point, after=ray_after)
    routing.ray_wall_point = ray
    geometry.ray_wall_point = ray    # the sampler imports it at call time

    def seg_after(args, result):
        t.count("geometry.segments_clear_batch.endpoints", len(result))

    scene.segments_clear_batch = t.span("geometry.segments_clear_batch",
                                        geometry.segments_clear_batch, after=seg_after)
    routing.bfs_shortest_path = t.span("scene.bfs_shortest_path", scene.bfs_shortest_path)

    # only rows that are computed get a span; cached lookups are counted
    orig_row = scene.PweGraph.row
    computed_row = t.span("scene.row", orig_row)

    def row(self, v):
        if v in self._rows:
            t.count("scene.row.calls")
            return orig_row(self, v)
        t.count("scene.row.calls")
        t.count("scene.row.computed")
        return computed_row(self, v)

    scene.PweGraph.row = row

    def routes_after(args, result):
        with t._lock:
            c = t.counts
            c["routing.routes"] += len(result.routes)
            for _i, reason in result.failures:
                c["routing.failures." + reason] += 1
            for r in result.routes:
                n = len(r.path)
                c["routing.path_len." + (str(n) if n <= 3 else "gt3")] += 1

    def sample_after(args, result):
        t.count("experiment.sample_wavefront.doas", len(result.doas))

    experiment.tile_wall = t.span("geometry.tile_wall", geometry.tile_wall)
    experiment.build_scene = t.span("experiment.build_scene", experiment.build_scene)
    experiment.build_graph = t.span("scene.build_graph", scene.build_graph)
    experiment.sample_wavefront = t.span("experiment.sample_wavefront",
                                         experiment.sample_wavefront,
                                         before=_next_trial, after=sample_after)
    experiment.get_routes = t.span("routing.get_routes", routing.get_routes,
                                   after=routes_after)
    experiment.run_cell = t.span("experiment.run_cell", experiment.run_cell,
                                 before=_enter_cell)
    cli.run_sweep = t.span("experiment.run_sweep", experiment.run_sweep)

    fits = {name: t.span("statfit." + name, getattr(statfit, name))
            for name in ("fit_gamma_mle", "fit_rayleigh_mle", "kld_empirical",
                         "make_histogram")}
    for name in ("fit_gamma_mle", "fit_rayleigh_mle", "kld_empirical"):
        setattr(experiment, name, fits[name])
    for name, fn in fits.items():
        setattr(cli, name, fn)

    orig_digamma = statfit.digamma

    def digamma(x):
        t.count("statfit.digamma.calls")
        return orig_digamma(x)

    statfit.digamma = digamma
    cli.cmd_sweep = t.span("cli.cmd_sweep", cli.cmd_sweep)
    cli.cmd_fit = t.span("cli.cmd_fit", cli.cmd_fit)
    return t.span("cli.main", cli.main)


# -- summary -----------------------------------------------------------------

def self_times(spans):
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s[START]), min(hi, s[END])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s[END] - s[START] - covered)
    return out


def _quantile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    k = min(len(sorted_vals) - 1, max(0, int(round(q * (len(sorted_vals) - 1)))))
    return sorted_vals[k]


def summarize(spans, counts, threads):
    """Per-layer metrics (name -> (value, unit)) from one traced call."""
    counts = Counter(counts)
    selfs = self_times(spans)
    calls = Counter()
    total = Counter()
    self_sum = Counter()
    layer_self = Counter()
    for s, st in zip(spans, selfs):
        calls[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        self_sum[s[NAME]] += st
        layer_self[s[NAME].split(".", 1)[0]] += st

    def ratio(num, den):
        return num / den if den else 0.0

    # a trial is one sample_wavefront call and the get_routes call after it
    trial_start = {}
    trial_end = {}
    for s in spans:
        if s[TRIAL] is None:
            continue
        key = (tuple(s[CELL]), s[TRIAL])
        if s[NAME] == "experiment.sample_wavefront":
            trial_start[key] = s[START]
        elif s[NAME] == "routing.get_routes":
            trial_end[key] = s[END]
    trial_ms = sorted(1e3 * (trial_end[k] - trial_start[k])
                      for k in trial_start if k in trial_end)

    sampler_traces = sum(1 for s in spans if s[NAME] == "geometry.ray_wall_point"
                         and s[PARENT] >= 0
                         and spans[s[PARENT]][NAME] == "experiment.sample_wavefront")
    cells = [s[END] - s[START] for s in spans if s[NAME] == "experiment.run_cell"]
    sweep_wall = total["experiment.run_sweep"]
    routes = counts["routing.routes"]

    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = (layer_self[layer], "s")
    m.update({
        "scene.bfs_shortest_path.calls": (calls["scene.bfs_shortest_path"], "count"),
        "scene.bfs_shortest_path.self_s": (self_sum["scene.bfs_shortest_path"], "s"),
        "scene.row.calls": (counts["scene.row.calls"], "count"),
        "scene.row.computed": (counts["scene.row.computed"], "count"),
        "scene.path_cache.hit_ratio": (
            1.0 - ratio(calls["scene.bfs_shortest_path"], routes) if routes else 0.0, "ratio"),
        "scene.build_graph.s": (total["scene.build_graph"], "s"),
        "geometry.ray_wall_point.calls": (calls["geometry.ray_wall_point"], "count"),
        "geometry.ray_wall_point.self_s": (self_sum["geometry.ray_wall_point"], "s"),
        "geometry.ray_wall_point.miss_ratio": (
            ratio(counts["geometry.ray_wall_point.misses"], calls["geometry.ray_wall_point"]),
            "ratio"),
        "geometry.segments_clear_batch.calls": (calls["geometry.segments_clear_batch"], "count"),
        "geometry.segments_clear_batch.endpoints": (
            counts["geometry.segments_clear_batch.endpoints"], "count"),
        "geometry.segments_clear_batch.self_s": (self_sum["geometry.segments_clear_batch"], "s"),
        "geometry.tile_wall.self_s": (self_sum["geometry.tile_wall"], "s"),
        "routing.get_routes.calls": (calls["routing.get_routes"], "count"),
        "routing.get_routes.self_s": (self_sum["routing.get_routes"], "s"),
        "routing.routes": (routes, "count"),
        "routing.failures.no_hit": (counts["routing.failures.no_hit"], "count"),
        "routing.failures.no_candidate": (counts["routing.failures.no_candidate"], "count"),
        "routing.failures.unreachable": (counts["routing.failures.unreachable"], "count"),
        "routing.path_len.2": (counts["routing.path_len.2"], "count"),
        "routing.path_len.3": (counts["routing.path_len.3"], "count"),
        "routing.path_len.gt3": (counts["routing.path_len.gt3"], "count"),
        "experiment.sample_wavefront.calls": (calls["experiment.sample_wavefront"], "count"),
        "experiment.sample_wavefront.self_s": (self_sum["experiment.sample_wavefront"], "s"),
        "experiment.sample_wavefront.rejections": (
            sampler_traces - counts["experiment.sample_wavefront.doas"], "count"),
        "experiment.build_scene.s": (total["experiment.build_scene"], "s"),
        "experiment.trial_ms_p50": (_quantile(trial_ms, 0.50), "ms"),
        "experiment.trial_ms_p99": (_quantile(trial_ms, 0.99), "ms"),
        "experiment.trial_ms.samples": (len(trial_ms), "count"),
        "experiment.run_cell.s_max": (max(cells, default=0.0), "s"),
        "experiment.run_cell.s_sum": (sum(cells), "s"),
        "experiment.run_sweep.busy_frac": (ratio(sum(cells), threads * sweep_wall), "ratio"),
        "statfit.fit_gamma_mle.s": (total["statfit.fit_gamma_mle"], "s"),
        "statfit.digamma.calls": (counts["statfit.digamma.calls"], "count"),
        "statfit.fit_rayleigh_mle.s": (total["statfit.fit_rayleigh_mle"], "s"),
        "statfit.kld_empirical.s": (total["statfit.kld_empirical"], "s"),
        "cli.cmd_fit.self_s": (self_sum["cli.cmd_fit"], "s"),
        "cli.cmd_sweep.self_s": (self_sum["cli.cmd_sweep"], "s"),
    })
    return m
