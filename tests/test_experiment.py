import collections
import os
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from pwesim import experiment
from pwesim.experiment import (ExperimentConfig, SceneParams, build_scene,
                               run_cell, run_sweep, sample_wavefront)
from pwesim.geometry import tile_wall, trace_walls
from pwesim.routing import get_routes
from pwesim.scene import Scene, SceneError, build_graph

from conftest import rotate_scene
from oracles import antenna_grid_loop, local_uv, sample_wavefront_loop, tile_wall_loop


def tiny_config(**kw):
    base = dict(d_r_values=(0.5,), m_sides=(2,), n_trials=5, seed=42)
    base.update(kw)
    return ExperimentConfig(**base)


def fit_row(cell):
    """A cell's fits.csv and histograms.csv values, comparable with ==."""
    fit = cell.fit
    return (cell.d_r, cell.m_side, cell.dataset.n, cell.n_failures, fit.gamma, fit.rayleigh,
            fit.kld_gamma, fit.kld_rayleigh, fit.histogram.bin_edges.tolist(),
            fit.histogram.counts.tolist(), fit.histogram.densities.tolist())


# a 64 x 64 array that fits room 2: 1.89 m square, centered in it
ARRAY_64_FITS = SceneParams(rx_position=(7.5, 2.5, 1.5), rx_spacing=0.03)


class TestSceneParams:
    def test_defaults(self):
        scene = build_scene(SceneParams(), d_r=0.5, m_side=4)
        assert len(scene.walls) == 11
        assert len(scene.openings) == 1
        assert scene.rx.m == 16
        # receiver is inside room 2
        for a in scene.rx.antennas:
            assert 5.0 < a[0] < 10.0

    def test_wall_ids_room2_first(self):
        scene = build_scene(SceneParams(), d_r=0.5, m_side=2)
        ids = [w.id for w in scene.walls]
        assert ids == list(range(11))
        # divider wall hosts the doorway
        assert scene.openings[0].wall_id == 0
        np.testing.assert_allclose(scene.walls[0].p0[0], 5.0)

    def test_ris_avoid_doorway(self):
        scene = build_scene(SceneParams(), d_r=0.3, m_side=2)
        door = scene.openings[0]
        divider = scene.walls[0]
        for center, wall_id in zip(scene.ris_centers, scene.ris_walls):
            if wall_id != 0:
                continue
            u, v = local_uv(divider, center)
            h = 0.3 / 2
            overlap_u = abs(u - door.u_center) < h + door.u_half
            overlap_v = abs(v - door.v_center) < h + door.v_half
            assert not (overlap_u and overlap_v)

    @pytest.mark.parametrize("width, height", [(0.0, 0.0), (0.0, 2.2), (1.2, 0.0)])
    def test_zero_size_door_closes_divider(self, width, height):
        # a door with a zero side is no opening: at d_r 0.55 the divider
        # keeps all 9 x 5 units, and a ray at the door center stops on it
        scene = build_scene(SceneParams(door_width=width, door_height=height), 0.55, 2)
        assert scene.openings == []
        assert np.count_nonzero(scene.ris_walls == 0) == 45
        first, _ = trace_walls(np.array([(7.5, 2.5, 1.5)]), np.array([(-1.0, 0.0, 0.0)]),
                               scene.wall_table)
        assert scene.wall_table.ids[first].tolist() == [0]

    def test_ris_ids_unique_ascending(self):
        # a RIS id is its row: rows run in wall order, then v outer, u inner
        scene = build_scene(SceneParams(), d_r=0.4, m_side=2)
        assert list(scene.ris_walls) == sorted(scene.ris_walls)
        assert set(scene.ris_walls) == set(range(9))
        for wall in scene.walls[:9]:
            uvs = [local_uv(wall, c) for c in scene.ris_centers[scene.ris_walls == wall.id]]
            assert uvs == sorted(uvs, key=lambda t: (t[1], t[0]))

    def test_antenna_grid_spacing(self):
        scene = build_scene(SceneParams(rx_spacing=0.07), d_r=0.5, m_side=3)
        a = np.array(scene.rx.antennas).reshape(3, 3, 3)
        np.testing.assert_allclose(a[0, 1] - a[0, 0], (0, 0.07, 0), atol=1e-12)
        np.testing.assert_allclose(a[1, 0] - a[0, 0], (0, 0, -0.07), atol=1e-12)

    def test_oversized_unit_faults(self):
        with pytest.raises(SceneError):
            build_scene(SceneParams(), d_r=50.0, m_side=2)

    def test_custom_positions(self):
        scene = build_scene(SceneParams(tx_position=(1, 1, 1),
                                        rx_position=(7, 2, 1)),
                            d_r=0.5, m_side=2)
        np.testing.assert_allclose(scene.tx, (1, 1, 1))
        center = np.mean(scene.rx.antennas, axis=0)
        np.testing.assert_allclose(center, (7, 2, 1), atol=1e-12)

    def test_ris_unit_bound(self, monkeypatch):
        monkeypatch.setattr(experiment, "MAX_RIS_UNITS", 1000)
        with pytest.raises(SceneError, match="more than 1000"):
            build_scene(SceneParams(), d_r=0.15, m_side=2)

    @pytest.mark.parametrize("d_r", [0.001, 1e-320])
    def test_tiny_unit_faults_before_tiling(self, d_r):
        with pytest.raises(SceneError, match="RIS units of side"):
            build_scene(SceneParams(), d_r=d_r, m_side=2)

    def test_fine_tiling_within_bound(self):
        assert len(build_scene(SceneParams(), d_r=0.02, m_side=1).ris_centers) == 380_790

    def test_antenna_ris_pair_bound_before_tiling(self, monkeypatch):
        # 4,096 antennas x 387,500 grid cells: 1.6e9 pairs, refused before any
        # wall is tiled
        def no_tiling(*args, **kwargs):
            raise AssertionError("tile_wall called past the pair bound")
        monkeypatch.setattr(experiment, "tile_wall", no_tiling)
        with pytest.raises(SceneError, match="more than 100000000 visibility pairs"):
            build_scene(ARRAY_64_FITS, d_r=0.02, m_side=64)

    def test_largest_default_cell_within_pair_bound(self):
        # M = 64 at the smallest default d_r: ~27 M pairs, admitted
        scene = build_scene(ARRAY_64_FITS, d_r=0.15, m_side=64)
        assert 2e7 < len(scene.ris_centers) * scene.rx.m <= experiment.MAX_ANTENNA_RIS_PAIRS

    @pytest.mark.parametrize("params, m_side", [
        (SceneParams(), 33),                                    # reaches the floor and y = 0
        (SceneParams(), 64),
        (SceneParams(rx_position=(10.0, 0.25, 0.25)), 1),       # on the far wall
        (SceneParams(rx_position=(5.0, 2.5, 1.5)), 2),          # on the divider
        (SceneParams(rx_position=(2.5, 2.5, 1.5)), 2),          # in room 1
        (SceneParams(rx_position=(1e6, 1e6, 1e6)), 1),          # outside the building
        (SceneParams(rx_position=(7.5, 2.5, 1.5), rx_spacing=0.05), 64),   # taller than 3 m
        (SceneParams(rx_position=(9.0, 4.9999995, 1.5)), 1),    # within the clearance
    ], ids=["m33", "m64", "far_wall", "divider", "room_1", "outside", "too_tall", "clearance"])
    def test_array_must_lie_inside_room_2(self, monkeypatch, params, m_side):
        def no_tiling(*args, **kwargs):
            raise AssertionError("tile_wall called for an array outside room 2")
        monkeypatch.setattr(experiment, "tile_wall", no_tiling)
        with pytest.raises(SceneError, match=f"{m_side} x {m_side} antenna array .* "
                                             "does not lie inside room 2"):
            build_scene(params, d_r=0.5, m_side=m_side)

    @pytest.mark.parametrize("tx", [
        (-0.3, 2.5, 1.5),           # behind wall 6
        (7.5, 2.5, 1.5),            # in room 2
        (5.0, 2.5, 1.5),            # on the divider plane, in the doorway
        (1e6, 1e6, 1e6),            # outside the building
        (2.5, 4.9999995, 1.5),      # within the clearance
    ], ids=["behind_wall_6", "room_2", "divider", "outside", "clearance"])
    def test_tx_must_lie_inside_room_1(self, monkeypatch, tx):
        def no_tiling(*args, **kwargs):
            raise AssertionError("tile_wall called for a transmitter outside room 1")
        monkeypatch.setattr(experiment, "tile_wall", no_tiling)
        with pytest.raises(SceneError, match=r"transmitter at \(.*\) does not lie inside room 1"):
            build_scene(SceneParams(tx_position=tx), d_r=0.5, m_side=2)

    @pytest.mark.parametrize("params, m_side", [
        (SceneParams(), 32),
        (SceneParams(rx_position=(9.0, 4.9985, 1.5)), 1),
    ], ids=["default_m32", "near_wall"])
    def test_array_inside_room_2_builds(self, params, m_side):
        antennas = build_scene(params, d_r=0.5, m_side=m_side).rx.antennas
        assert len(antennas) == m_side * m_side
        assert np.all(antennas > (5.0, 0.0, 0.0)) and np.all(antennas < (10.0, 5.0, 3.0))

    def test_pair_bound_checked_before_array_fit(self):
        # both faults: the pair bound, the cheaper refusal, names the cell's size
        with pytest.raises(SceneError, match="visibility pairs"):
            build_scene(SceneParams(), d_r=0.02, m_side=64)


def assert_same_bits(got, want):
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


class TestAgainstScalarLoops:
    @pytest.mark.parametrize("margin", [0.0, 0.1])
    @pytest.mark.parametrize("d_r", ExperimentConfig().d_r_values)
    def test_tiling(self, d_r, margin):
        scene = build_scene(SceneParams(ris_margin=margin), d_r, 1)
        tiled = scene.walls[:9]
        expected = [tile_wall_loop(w, d_r, margin, scene.openings) for w in tiled]
        for wall, want in zip(tiled, expected):
            assert_same_bits(tile_wall(wall, d_r, margin, scene.openings), want)
        assert_same_bits(scene.ris_centers, np.concatenate(expected))
        assert list(scene.ris_walls) == [w.id for w, want in zip(tiled, expected)
                                         for _ in want]

    @pytest.mark.parametrize("m_side", [1, 4, 10, 64])
    def test_antenna_grid(self, m_side):
        # the default placement fits room 2 up to M = 32 at 0.05 m
        default = ((8.5, 0.8, 0.8), 0.05 if m_side <= 32 else 0.02)
        for center, spacing in (default, ((7.0, 2.5, 1.5), 0.03)):
            params = SceneParams(rx_position=center, rx_spacing=spacing)
            want = antenna_grid_loop(center, m_side, spacing)
            assert_same_bits(build_scene(params, 0.5, m_side).rx.antennas, want)


class TestConfigValidation:
    def test_bad_trials(self):
        with pytest.raises(ValueError, match="n_trials"):
            tiny_config(n_trials=0)

    def test_bad_d_r(self):
        with pytest.raises(ValueError, match="d_r_values"):
            tiny_config(d_r_values=(0.3, -0.1))

    def test_bad_m(self):
        with pytest.raises(ValueError, match="m_sides"):
            tiny_config(m_sides=(0,))

    def test_bad_bins(self):
        with pytest.raises(ValueError, match="n_bins"):
            tiny_config(n_bins=1)

    def test_repeated_sweep_values(self):
        with pytest.raises(ValueError, match="d_r_values"):
            tiny_config(d_r_values=(0.5, 0.5))
        with pytest.raises(ValueError, match="m_sides"):
            tiny_config(m_sides=(2, 3, 2))

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            tiny_config(seed=-1)


def scene_without(dropped, m_side):
    """The default d_r = 0.5 scene with the walls `dropped` and their RIS
    units removed."""
    full = build_scene(SceneParams(), d_r=0.5, m_side=m_side)
    keep = ~np.isin(full.ris_walls, dropped)
    return Scene(walls=[w for w in full.walls if w.id not in dropped],
                 openings=full.openings, ris_centers=full.ris_centers[keep],
                 ris_walls=full.ris_walls[keep], tx=full.tx, rx=full.rx)


class StubNormal:
    """An rng whose standard_normal(size) serves the next 3-vectors of a
    fixed stream, in order."""

    def __init__(self, stream):
        self.stream = np.array(stream, dtype=float)
        self.served = 0

    def standard_normal(self, size):
        n = int(np.prod(size)) // 3
        out = self.stream[self.served:self.served + n]
        assert len(out) == n, "stream exhausted"
        self.served += n
        return out.reshape(size).copy()


def assert_trace_is(scene, spec, hits, t=0):
    """`spec.trace` of wavefront t names the walls and points of `hits`,
    (point, wall id) pairs."""
    first, points = (a[t] for a in spec.trace)
    assert scene.wall_table.ids[first].tolist() == [w for _p, w in hits]
    assert np.array_equal(points, np.array([p for p, _w in hits]))


class TestSampleWavefront:
    def test_boresight_hemisphere(self):
        scene = build_scene(SceneParams(), d_r=0.5, m_side=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = sample_wavefront(scene, [rng])
            assert len(spec.doas[0]) == 9
            for d in spec.doas[0]:
                assert float(np.dot(d, scene.rx.boresight)) > 0.0
                assert np.linalg.norm(d) == pytest.approx(1.0)

    def test_determinism(self):
        scene = build_scene(SceneParams(), d_r=0.5, m_side=2)
        a = sample_wavefront(scene, [np.random.default_rng(5)])
        b = sample_wavefront(scene, [np.random.default_rng(5)])
        np.testing.assert_array_equal(np.array(a.doas[0]), np.array(b.doas[0]))

    def test_hits_reused_by_routing(self):
        # the sampler's traced wall points route exactly like a fresh trace
        scene = build_scene(SceneParams(), d_r=0.5, m_side=3)
        graph = build_graph(scene)
        rng = np.random.default_rng(3)
        for _ in range(5):
            spec = sample_wavefront(scene, [rng])
            reused = get_routes(graph, spec)
            traced = get_routes(graph, replace(spec, trace=None))
            assert reused.failures == traced.failures
            assert [(r.antenna_index, r.last_ris_id, r.path, r.phi_deg)
                    for r in reused.routes] == \
                   [(r.antenna_index, r.last_ris_id, r.path, r.phi_deg)
                    for r in traced.routes]

    @pytest.mark.parametrize("dropped", [(), (4, 6), (0, 1, 4, 6), "rotated"],
                             ids=["default", "floor_and_far_wall_gone",
                                  "divider_side_floor_and_far_wall_gone", "rotated"])
    def test_trace_equals_fresh_trace(self, dropped):
        # the spec carries the sampler's own trace, bit for bit
        if dropped == "rotated":
            R, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(3, 3)))
            scene = rotate_scene(build_scene(SceneParams(), d_r=0.5, m_side=4), R)
        else:
            scene = scene_without(dropped, m_side=4)
        for seed in range(20):
            spec = sample_wavefront(scene, [np.random.default_rng(seed)])
            first, points = spec.trace
            first, points = first[0], points[0]
            want_first, want_points = trace_walls(scene.rx.antennas, spec.doas[0],
                                                  scene.wall_table)
            assert first.dtype == want_first.dtype and np.array_equal(first, want_first)
            assert points.tobytes() == want_points.tobytes()

    @pytest.mark.parametrize("dropped", [(), (4, 6), (0, 1, 4, 6)],
                             ids=["default", "floor_and_far_wall_gone",
                                  "divider_side_floor_and_far_wall_gone"])
    def test_batched_matches_loop(self, dropped):
        # without some walls, rays escape and antennas redraw: the pass that
        # traces the waiting antennas runs more than once per trial
        scene = scene_without(dropped, m_side=4)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            spec = sample_wavefront(scene, [rng])
            want_doas, want_hits = sample_wavefront_loop(scene, ref)
            assert np.array_equal(spec.doas[0], np.array(want_doas))
            assert_trace_is(scene, spec, want_hits)
            assert rng.bit_generator.state == ref.bit_generator.state
            # one (16, 3) draw is the whole stream exactly when no draw is rejected
            once = np.random.default_rng(seed)
            once.standard_normal((16, 3))
            rejected = rng.bit_generator.state != once.bit_generator.state
            assert rejected == bool(dropped)

    def test_zero_and_boresight_plane_draws_skipped(self):
        # boresight is -x: a draw with x == 0 lies on the boresight plane
        scene = build_scene(SceneParams(), d_r=0.5, m_side=2)
        stream = [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-0.3, 0.2, 0.1), (0.5, -0.1, 0.2),
                  (0.0, 0.0, 0.0), (0.0, -2.0, 0.5), (-1.0, 0.3, -0.4),
                  (0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.7, 0.7, -0.1), (1.0, 2.0, 3.0)]
        got, want = StubNormal(stream), StubNormal(stream)
        spec = sample_wavefront(scene, [got])
        want_doas, want_hits = sample_wavefront_loop(scene, want)
        assert np.array_equal(spec.doas[0], np.array(want_doas))
        assert_trace_is(scene, spec, want_hits)
        assert got.served == want.served == len(stream) - 1

    def test_traced_rays_linear_in_draws(self, monkeypatch):
        # a candidate traced past a rejection is traced again for its new
        # antenna; after its first rejection a wavefront traces one antenna
        # per pass, which keeps the rays traced within 4 per draw, where
        # retracing every waiting antenna after each rejection would trace
        # ~M/2 per rejection
        traced = []
        trace = experiment.trace_walls
        monkeypatch.setattr(experiment, "trace_walls",
                            lambda points, dirs, table:
                            traced.append(len(points)) or trace(points, dirs, table))
        scene = scene_without((0, 1, 4, 6), m_side=16)
        for seed in range(5):
            traced.clear()
            rng = StubNormal(np.random.default_rng(seed).standard_normal((2000, 3)))
            sample_wavefront(scene, [rng])
            assert rng.served > 256 + 50     # many rejections
            assert sum(traced) <= 4 * rng.served

    def test_miss_budget_per_antenna(self, monkeypatch):
        # (-0.1, -1, 0) escapes where wall 1 is gone; each antenna may miss
        # MAX_REJECTIONS - 1 times, and zero or boresight-plane draws do not
        # count as misses
        monkeypatch.setattr(experiment, "MAX_REJECTIONS", 2)
        scene = scene_without((0, 1, 4, 6), m_side=2)
        miss, hit = (-0.1, -1.0, 0.0), (-0.3, 0.2, 0.1)
        zero, plane = (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)
        stream = [zero, plane, miss, hit] + [miss, hit] * 3
        got, want = StubNormal(stream), StubNormal(stream)
        spec = sample_wavefront(scene, [got])
        want_doas, _ = sample_wavefront_loop(scene, want)
        assert np.array_equal(spec.doas[0], np.array(want_doas))
        assert got.served == want.served == len(stream)
        with pytest.raises(SceneError, match="rejected 2 directions in a row for one antenna"):
            sample_wavefront(scene, [StubNormal([hit, miss, zero, plane, miss, hit, hit])])

    def test_cosine_of_polar_angle_uniformity(self):
        # uniform on the hemisphere: cos(angle to boresight) ~ U(0, 1),
        # checked by decile occupancy over a large pooled draw
        scene = build_scene(SceneParams(), d_r=0.5, m_side=4)
        rng = np.random.default_rng(99)
        cos = []
        for _ in range(700):
            spec = sample_wavefront(scene, [rng])
            cos.extend(float(np.dot(d, scene.rx.boresight)) for d in spec.doas[0])
        cos = np.array(cos)   # ~11200 draws
        counts, _ = np.histogram(cos, bins=10, range=(0.0, 1.0))
        expect = len(cos) / 10
        # 5-sigma binomial band per decile
        band = 5 * np.sqrt(expect * 0.9)
        assert np.all(np.abs(counts - expect) < band)


class TestSampleBatch:
    """T wavefronts in one call draw as T calls of the per-antenna rule."""

    @pytest.mark.parametrize("dropped", [(), (4, 6), (0, 1, 4, 6)],
                             ids=["default", "floor_and_far_wall_gone",
                                  "divider_side_floor_and_far_wall_gone"])
    def test_batch_matches_loops(self, dropped):
        scene = scene_without(dropped, m_side=4)
        for seed in range(10):
            rngs = [np.random.default_rng([seed, t]) for t in range(7)]
            twins = [np.random.default_rng([seed, t]) for t in range(7)]
            spec = sample_wavefront(scene, rngs)
            assert spec.doas.shape == (7, 16, 3)
            for t, (rng, twin) in enumerate(zip(rngs, twins)):
                want_doas, want_hits = sample_wavefront_loop(scene, twin)
                assert np.array_equal(spec.doas[t], np.array(want_doas))
                assert_trace_is(scene, spec, want_hits, t)
                assert rng.bit_generator.state == twin.bit_generator.state

    def test_rejections_at_different_antennas(self):
        # each wavefront's one escaping draw comes at another antenna, so
        # one pass traces runs of different widths
        scene = scene_without((0, 1, 4, 6), m_side=2)
        miss, hit = (-0.1, -1.0, 0.0), (-0.3, 0.2, 0.1)
        streams = [[hit] * a + [miss] + [hit] * (4 - a) for a in range(4)]
        streams += [[hit] * 4, [miss, miss, (0.0, 0.0, 0.0), hit, miss, hit, hit, hit]]
        got = [StubNormal(s) for s in streams]
        want = [StubNormal(s) for s in streams]
        spec = sample_wavefront(scene, got)
        for t, (g, w) in enumerate(zip(got, want)):
            want_doas, want_hits = sample_wavefront_loop(scene, w)
            assert np.array_equal(spec.doas[t], np.array(want_doas))
            assert_trace_is(scene, spec, want_hits, t)
            assert g.served == w.served == len(streams[t])

    def test_traced_rays_linear_in_draws(self, monkeypatch):
        traced = []
        trace = experiment.trace_walls
        monkeypatch.setattr(experiment, "trace_walls",
                            lambda points, dirs, table:
                            traced.append(len(points)) or trace(points, dirs, table))
        scene = scene_without((0, 1, 4, 6), m_side=16)
        rngs = [StubNormal(np.random.default_rng(seed).standard_normal((2000, 3)))
                for seed in range(5)]
        sample_wavefront(scene, rngs)
        served = sum(rng.served for rng in rngs)
        assert served > 5 * (256 + 50)     # many rejections
        assert sum(traced) <= 4 * served

    @pytest.mark.parametrize("dropped, m_side", [((0, 1, 4, 6), 16), ((4, 6), 4)],
                             ids=["divider_side_floor_and_far_wall_gone",
                                  "floor_and_far_wall_gone"])
    def test_each_candidate_traced_at_most_twice(self, monkeypatch, dropped, m_side):
        # a candidate is traced in the first pass for its first antenna and,
        # if a rejection before it moves it up, once more for its last one
        traced = collections.Counter()
        trace = experiment.trace_walls

        def count_rows(points, dirs, table):
            traced.update(row.tobytes() for row in dirs)
            return trace(points, dirs, table)
        monkeypatch.setattr(experiment, "trace_walls", count_rows)
        scene = scene_without(dropped, m_side=m_side)
        rngs = [StubNormal(np.random.default_rng([seed, m_side]).standard_normal((2000, 3)))
                for seed in range(5)]
        sample_wavefront(scene, rngs)
        assert sum(rng.served for rng in rngs) > 5 * m_side * m_side     # rejections
        assert sorted(set(traced.values())) == [1, 2]


class TestRunCell:
    def test_accounting(self):
        cfg = tiny_config()
        cell = run_cell(cfg, 0.5, 2)
        assert cell.dataset.n + cell.n_failures == 5 * 4
        assert len(cell.records) == cell.dataset.n

    def test_determinism(self):
        cfg = tiny_config()
        a = run_cell(cfg, 0.5, 2)
        b = run_cell(cfg, 0.5, 2)
        np.testing.assert_array_equal(a.dataset.samples, b.dataset.samples)
        assert a.records == b.records
        assert a.fit.gamma == b.fit.gamma

    def test_seed_changes_samples(self):
        a = run_cell(tiny_config(seed=1), 0.5, 2)
        b = run_cell(tiny_config(seed=2), 0.5, 2)
        assert not np.array_equal(a.dataset.samples, b.dataset.samples)

    def test_records_fields(self):
        cell = run_cell(tiny_config(), 0.5, 2)
        for trial, ant, phi, rid, plen in cell.records:
            assert 0 <= trial < 5
            assert 0 <= ant < 4
            assert phi >= 0.0
            assert rid >= 0
            assert plen >= 2

    def test_fit_fields_finite(self):
        rep = run_cell(tiny_config(n_trials=10), 0.5, 2).fit
        for v in (rep.gamma.k_hat, rep.gamma.theta_hat, rep.rayleigh.sigma_hat,
                  rep.kld_gamma, rep.kld_rayleigh):
            assert np.isfinite(v) and v > 0.0


    @pytest.mark.parametrize("batch", [lambda m_side: 1, lambda m_side: 3 * m_side**2 + 1],
                             ids=["one_trial", "short_last_batch"])
    def test_trial_batch_size_changes_nothing(self, monkeypatch, batch):
        cfg = tiny_config(d_r_values=(0.25,), m_sides=(3,), n_trials=10)
        want = run_cell(cfg, 0.25, 3)
        monkeypatch.setattr(experiment, "TRIAL_BATCH", batch(3))
        got = run_cell(cfg, 0.25, 3)
        assert got.records == want.records
        assert fit_row(got) == fit_row(want)


class TestRunSweep:
    def test_cell_order_and_isolation(self):
        cfg = tiny_config(d_r_values=(0.45, 0.55), m_sides=(2, 3), n_trials=4)
        cells = run_sweep(cfg)
        got = [(c.m_side, c.d_r) for c in cells]
        assert got == [(2, 0.45), (2, 0.55), (3, 0.45), (3, 0.55)]
        # each cell independently reproducible
        lone = run_cell(cfg, 0.55, 3)
        np.testing.assert_array_equal(cells[3].dataset.samples,
                                      lone.dataset.samples)

    def test_threaded_matches_sequential(self):
        cfg = tiny_config(d_r_values=(0.45, 0.55), m_sides=(2, 3), n_trials=4)
        seq = run_sweep(cfg, threads=1)
        par = run_sweep(cfg, threads=4)
        for a, b in zip(seq, par):
            np.testing.assert_array_equal(a.dataset.samples, b.dataset.samples)
            assert fit_row(a) == fit_row(b)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and the order of
    the submitted cells, and runs each cell at once in this process."""

    def __init__(self, pools, max_workers, mp_context):
        self.max_workers = max_workers
        self.cells = []
        pools.append(self)

    def submit(self, fn, config, d_r, m_side):
        self.cells.append((m_side, d_r))
        future = Future()
        future.set_result(fn(config, d_r, m_side))
        return future

    def shutdown(self, cancel_futures=False):
        pass


class TestWorkerPool:
    CFG = tiny_config(d_r_values=(0.45, 0.55), m_sides=(2, 3), n_trials=2)

    @pytest.fixture
    def pools(self, monkeypatch):
        pools = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            lambda **kw: InlinePool(pools, **kw))
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2})
        return pools

    @pytest.mark.parametrize("threads, cores, workers", [(2, 3, 2), (8, 3, 3), (8, 16, 4)],
                             ids=["threads", "cores", "cells"])
    def test_workers_capped_at_cores_and_cells(self, pools, monkeypatch, threads, cores,
                                               workers):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cores)))
        cells = run_sweep(self.CFG, threads=threads)
        assert [p.max_workers for p in pools] == [workers]
        assert [(c.m_side, c.d_r) for c in cells] == \
            [(2, 0.45), (2, 0.55), (3, 0.45), (3, 0.55)]
        for got, want in zip(cells, run_sweep(self.CFG, threads=1)):
            assert fit_row(got) == fit_row(want) and got.records == want.records

    def test_workers_capped_at_cpu_count_without_affinity(self, pools, monkeypatch):
        # os.sched_getaffinity exists only on Linux; elsewhere all cores count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        cells = run_sweep(self.CFG, threads=8)
        assert [p.max_workers for p in pools] == [3]
        assert [(c.m_side, c.d_r) for c in cells] == \
            [(2, 0.45), (2, 0.55), (3, 0.45), (3, 0.55)]

    def test_heaviest_cell_first(self, pools):
        run_sweep(self.CFG, threads=2)
        # more antennas and smaller units cost more
        assert pools[0].cells == [(3, 0.45), (3, 0.55), (2, 0.45), (2, 0.55)]

    @pytest.mark.parametrize("threads", [-1, 0, 1])
    def test_one_worker_starts_no_pool(self, pools, threads):
        run_sweep(self.CFG, threads=threads)
        assert pools == []

    def test_one_cell_starts_no_pool(self, pools):
        run_sweep(tiny_config(n_trials=2), threads=8)
        assert pools == []
