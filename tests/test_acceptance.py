"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with ``pytest -s`` or in captured output on failure).
The heavyweight parameter sweep is shared module-wide by criteria 8-10.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from pwesim.cli import main as cli_main
from pwesim.experiment import ExperimentConfig, run_sweep
from pwesim.geometry import tile_wall, unit
from pwesim.routing import WavefrontSpec, get_routes
from pwesim.scene import Scene, bfs_shortest_path, build_graph
from pwesim.statfit import (DeviationDataset, digamma, fit_gamma_mle,
                            fit_rayleigh_mle, gamma_pdf, kld_empirical,
                            make_histogram)

from conftest import box_walls, tiled_ris
from oracles import SimpleGraph
from test_routing import grid_array

SWEEP_D_R = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55)
SWEEP_M = (4, 10)
SWEEP_CONFIG = ExperimentConfig(d_r_values=SWEEP_D_R, m_sides=SWEEP_M,
                                n_trials=100, seed=0)

SWEEP_CONFIG_TEXT = """\
d_r_values = [0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55]
m_sides = [4, 10]
n_trials = 100
seed = 0
"""


def report(num, name, ok):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    results = run_sweep(SWEEP_CONFIG)
    elapsed = time.perf_counter() - start
    by_cell = {(c.m_side, c.d_r): c for c in results}
    return by_cell, elapsed


def test_criterion_1_gamma_mle_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    x = rng.gamma(shape=2.0, scale=3.0, size=100_000)
    # sampler sanity before using it as an oracle: Gamma(2,3) has
    # mean 6 and variance 18
    assert abs(np.mean(x) - 6.0) < 0.1
    assert abs(np.var(x) - 18.0) < 0.6
    fit = fit_gamma_mle(DeviationDataset(samples=x, d_r=0.0, m=0))
    elapsed = time.perf_counter() - start
    ok = (abs(fit.k_hat - 2.0) / 2.0 <= 0.02
          and abs(fit.theta_hat - 3.0) / 3.0 <= 0.02
          and elapsed < 5.0)
    report(1, "gamma MLE recovery", ok)


def test_criterion_2_rayleigh_exactness():
    fit = fit_rayleigh_mle(DeviationDataset(samples=np.array([3.0, 4.0]),
                                            d_r=0.0, m=0))
    report(2, "rayleigh MLE exactness", abs(fit.sigma_hat - 2.5) <= 1e-12)


def test_criterion_3_root_quality():
    rng = np.random.default_rng(27182)
    ok = True
    for _ in range(50):
        x = rng.gamma(rng.uniform(0.5, 6.0), rng.uniform(0.5, 6.0),
                      size=int(rng.integers(50, 5000)))
        fit = fit_gamma_mle(DeviationDataset(samples=x, d_r=0.0, m=0))
        resid = abs(np.log(fit.k_hat) - digamma(fit.k_hat)
                    - np.log(np.mean(x)) + np.mean(np.log(x)))
        ok = ok and resid <= 1e-10
    report(3, "gamma score-root quality", ok)


def test_criterion_4_kld_sanity():
    rng = np.random.default_rng(161803)
    data = DeviationDataset(samples=rng.gamma(2.0, 2.0, size=5000),
                            d_r=0.0, m=0)
    hist = make_histogram(data, 10)

    def self_pdf(x):
        b = np.clip(np.searchsorted(hist.bin_edges, x, side="right") - 1,
                    0, len(hist.densities) - 1)
        return hist.densities[b]

    ok = kld_empirical(hist, self_pdf) <= 1e-9
    for _ in range(1000):
        ds = DeviationDataset(
            samples=rng.gamma(rng.uniform(0.5, 5), rng.uniform(0.5, 5), size=100),
            d_r=0.0, m=0)
        k, theta = rng.uniform(0.5, 5, size=2)
        ok = ok and kld_empirical(make_histogram(ds), lambda x: gamma_pdf(x, k, theta)) >= 0.0
    report(4, "KLD self-zero and non-negativity", ok)


def test_criterion_5_zero_deviation_witness():
    walls = box_walls((5, 4, 3))
    ris = tile_wall(walls[1], 0.4)   # ceiling grid
    rx = grid_array((2.5, 1.0, 1.2), 2)
    scene = Scene(walls=walls, openings=[], ris_centers=ris,
                  ris_walls=[walls[1].id] * len(ris), tx=(1.0, 3.0, 1.5), rx=rx)
    graph = build_graph(scene)
    # each antenna aims exactly through a distinct RIS center
    targets = [7 * i + 3 for i in range(4)]
    doas = tuple(unit(ris[t] - np.asarray(a))
                 for t, a in zip(targets, scene.rx.antennas))
    routes = get_routes(graph, WavefrontSpec(doas=doas))
    ok = (len(routes.routes) == 4
          and [r.last_ris_id for r in routes.routes] == targets
          and all(r.phi_deg <= 1e-6 for r in routes.routes))
    report(5, "zero-deviation witness", ok)


def _hop_counts_by_matrix_power(n, edges, banned):
    """Minimum hop counts from boolean adjacency powers (exhaustive oracle)."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    for b in banned:
        adj[b, :] = adj[:, b] = 0
    hops = np.full((n, n), np.inf)
    np.fill_diagonal(hops, 0)
    reach = np.eye(n, dtype=np.int64)
    for step in range(1, n):
        reach = np.minimum(reach @ adj, 1)
        newly = (reach > 0) & ~np.isfinite(hops)
        hops[newly] = step
    return hops


def test_criterion_6_bfs_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(577215)
    ok = True
    for _ in range(200):
        n = int(rng.integers(4, 31))
        edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
                 if rng.random() < 3.0 / n]
        s, t = (int(v) for v in rng.choice(n, size=2, replace=False))
        banned = {int(v) for v in rng.choice(n, size=3)} - {s, t}
        hops = _hop_counts_by_matrix_power(n, edges, banned)
        # the BFS sees the graph with the banned vertices' edges dropped
        g = SimpleGraph(n, [e for e in edges if not banned.intersection(e)])
        path = bfs_shortest_path(g, s, t)
        if path is None:
            ok = ok and not np.isfinite(hops[s, t])
        else:
            ok = ok and hops[s, t] == len(path) - 1
    elapsed = time.perf_counter() - start
    report(6, "BFS hop-count oracle equivalence", ok and elapsed < 10.0)


def test_criterion_7_exclusivity():
    walls = box_walls((5, 4, 3))
    scene = Scene(walls=walls, openings=[], **tiled_ris((walls[1], walls[3]), 0.45),
                  tx=(1.0, 3.0, 1.5), rx=grid_array((2.5, 1.0, 1.2), 3))
    graph = build_graph(scene)
    rng = np.random.default_rng(141421)
    ok = True
    for _ in range(1000):
        spec = WavefrontSpec(doas=tuple(unit(rng.normal(size=3))
                                        for _ in range(scene.rx.m)))
        ids = [r.last_ris_id
               for r in get_routes(graph, spec).routes]
        ok = ok and len(ids) == len(set(ids))
    report(7, "lastRIS exclusivity", ok)


def test_criterion_8_parameter_trends(sweep):
    by_cell, elapsed = sweep
    ok = elapsed < 120.0
    for m in SWEEP_M:
        first = by_cell[(m, SWEEP_D_R[0])].fit
        last = by_cell[(m, SWEEP_D_R[-1])].fit
        ok = ok and last.gamma.k_hat < first.gamma.k_hat
        ok = ok and last.gamma.theta_hat > first.gamma.theta_hat
        ok = ok and last.rayleigh.sigma_hat > first.rayleigh.sigma_hat
    report(8, "parameter trends versus d_r", ok)


def test_criterion_9_gamma_beats_rayleigh(sweep):
    by_cell, _ = sweep
    ok = all(c.fit.kld_gamma < c.fit.kld_rayleigh
             for c in by_cell.values())
    report(9, "gamma model wins every cell", ok)


def test_criterion_10_histogram_shape(sweep):
    by_cell, _ = sweep
    cell = by_cell[(4, 0.4)]
    hist = make_histogram(cell.dataset, 10)
    mode = int(np.argmax(hist.counts))
    mass_below_7th_edge = float(np.sum(hist.counts[:6])) / cell.dataset.n
    # unimodal up to Poisson-level counting noise: past the mode, no bin may
    # exceed the running minimum by more than ~3 standard deviations
    run_min = float(hist.counts[mode])
    unimodal = True
    for c in hist.counts[mode + 1:]:
        if c > run_min + 3.0 * np.sqrt(run_min + 1.0):
            unimodal = False
        run_min = min(run_min, float(c))
    ok = mode <= 1 and mass_below_7th_edge >= 0.80 and unimodal
    report(10, "deviation histogram shape", ok)


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(SWEEP_CONFIG_TEXT, encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    rc1 = cli_main(["sweep", "--config", str(cfg), "--out", str(out1),
                    "--threads", "1"])
    rc2 = cli_main(["sweep", "--config", str(cfg), "--out", str(out2),
                    "--threads", "4"])
    ok = rc1 == 0 and rc2 == 0
    for name in ("deviations.csv", "fits.csv"):
        ok = ok and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report(11, "byte-identical reruns", ok)
