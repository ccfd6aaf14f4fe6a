from dataclasses import replace

import numpy as np
import pytest

from pwesim import routing
from pwesim.experiment import (TRIAL_BATCH, ExperimentConfig, SceneParams, build_scene,
                               run_cell, sample_wavefront)
from pwesim.geometry import (AntennaArray, Aperture, WallPlane, segments_clear_batch,
                             trace_walls, unit)
from pwesim.routing import (NO_CANDIDATE, NO_HIT, UNREACHABLE, WavefrontSpec,
                            claim_last_ris, deviation_angle, get_routes)
from pwesim.scene import PweGraph, Scene, bfs_shortest_path, build_graph

from conftest import box_walls, ris_on_wall, rotate_scene, single_antenna_array, tiled_ris
from oracles import claim_loop, reference_get_routes, scalar_deviation, select_last_ris
from test_experiment import scene_without
from test_scene_graph import two_room_scene


def grid_array(center, m_side, spacing=0.05):
    center = np.asarray(center, dtype=float)
    ants = []
    for r in range(m_side):
        for c in range(m_side):
            dx = (c - (m_side - 1) / 2.0) * spacing
            dz = ((m_side - 1) / 2.0 - r) * spacing
            ants.append(center + np.array([dx, 0.0, dz]))
    return AntennaArray(antennas=tuple(ants), boresight=(0.0, 1.0, 0.0))


def tiled_box_scene(m_side=2, d_r=0.5):
    """Box room with RIS tiled on the ceiling and the y=4 wall."""
    walls = box_walls((5, 4, 3))
    rx = grid_array((2.5, 1.0, 1.2), m_side)
    return Scene(walls=walls, openings=[], **tiled_ris((walls[1], walls[3]), d_r),
                 tx=(1.0, 3.0, 1.5), rx=rx)


def three_room_scene(m_side=2, d_r=0.5):
    """Three rooms in a row, doorways at opposite ends of the two dividers.

    RIS tile the two end walls and both dividers; with the transmitter in
    room 1 and the array in room 3, some paths need three hops.
    """
    walls = box_walls((9, 3, 2.5))
    for wid, x in ((6, 3.0), (7, 6.0)):
        walls.append(WallPlane(id=wid, p0=(x, 1.5, 1.25), n=(1.0, 0, 0),
                               u_axis=(0, 1.0, 0), v_axis=(0, 0, 1.0),
                               u_extent=1.5, v_extent=1.25))
    openings = [Aperture(wall_id=6, u_center=-0.9, v_center=-0.25,
                         u_half=0.3, v_half=1.0),
                Aperture(wall_id=7, u_center=0.9, v_center=-0.25,
                         u_half=0.3, v_half=1.0)]
    ris = tiled_ris((walls[4], walls[6], walls[7], walls[5]), d_r, openings)
    return Scene(walls=walls, openings=openings, **ris,
                 tx=(0.5, 2.5, 1.25), rx=grid_array((7.5, 1.5, 1.2), m_side))


class TestDeviationAngle:
    def test_identical(self):
        assert deviation_angle((1.0, 0, 0), (1.0, 0, 0)) == 0.0

    def test_orthogonal(self):
        assert deviation_angle((1.0, 0, 0), (0, 1.0, 0)) == pytest.approx(90.0)

    def test_known_angle(self):
        a = np.radians(5.0)
        got = deviation_angle((1.0, 0, 0), (np.cos(a), np.sin(a), 0))
        assert got == pytest.approx(5.0, abs=1e-9)

    def test_opposite(self):
        assert deviation_angle((0, 0, 1.0), (0, 0, -1.0)) == pytest.approx(180.0)

    def test_symmetry_random(self, rng):
        for _ in range(100):
            a, b = unit(rng.normal(size=3)), unit(rng.normal(size=3))
            assert deviation_angle(a, b) == pytest.approx(deviation_angle(b, a))
            assert 0.0 <= deviation_angle(a, b) <= 180.0

    def test_rows(self):
        a = unit(np.array([(1.0, 0, 0), (0, 1.0, 0), (1.0, 1.0, 0)]))
        b = unit(np.array([(1.0, 0, 0), (1.0, 0, 0), (0, 0, 1.0)]))
        np.testing.assert_allclose(deviation_angle(a, b), [0.0, 90.0, 90.0], atol=1e-12)

    def test_default_cell_matches_scalar(self):
        # every route of the default (0.5, 4) cell, as run_cell draws them
        config = ExperimentConfig()
        d_idx, m_idx = config.d_r_values.index(0.5), config.m_sides.index(4)
        scene = build_scene(config.scene, 0.5, 4)
        graph = build_graph(scene)
        streams = np.random.SeedSequence([config.seed, m_idx, d_idx]).spawn(config.n_trials)
        phis = []
        for ss in streams:
            spec = sample_wavefront(scene, [np.random.Generator(np.random.PCG64(ss))])
            for r in get_routes(graph, spec).routes:
                i = r.antenna_index
                realized, phi = scalar_deviation(spec.doas[0][i], scene.rx.antennas[i],
                                                 scene.ris_centers[r.last_ris_id])
                assert np.array_equal(r.realized_doa, realized)
                assert type(r.phi_deg) is float and r.phi_deg == phi
                phis.append(phi)
        assert len(phis) == 1600
        assert phis == [rec[2] for rec in run_cell(config, 0.5, 4).records]


class TestWavefrontSpec:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            WavefrontSpec(doas=((1.0, 1.0, 0.0),))

    def test_accepts_unit(self):
        WavefrontSpec(doas=(unit((1.0, 1.0, 0.0)),))

    def test_trace_shape_mismatch(self):
        doas = ((0, 0, 1.0),) * 2
        first, points = np.array([0, -1]), np.zeros((2, 3))
        for bad in [(first[:1], points), (first, points[:1]), (first[:, None], points),
                    (first, points[:, :2]), (first, points.ravel())]:
            with pytest.raises(ValueError, match="trace shapes"):
                WavefrontSpec(doas=doas, trace=bad)

    def test_trace_kept_as_read_only_copy(self):
        first, points = np.array([3, -1]), np.ones((2, 3))
        spec = WavefrontSpec(doas=((0, 0, 1.0),) * 2, trace=(first, points))
        first[0], points[0, 0] = 0, 5.0
        got_first, got_points = spec.trace
        assert got_first.shape == (1, 2) and got_points.shape == (1, 2, 3)
        assert got_first.tolist() == [[3, -1]] and got_points[0, 0, 0] == 1.0
        assert not got_first.flags.writeable and not got_points.flags.writeable
        assert WavefrontSpec(doas=spec.doas).trace is None


class TestGetRoutes:
    def test_zero_deviation_witness(self):
        # aim exactly at the only RIS center: realized == desired
        walls = box_walls((4, 4, 3))
        ris = [ris_on_wall(walls[1], 0.5, -0.5)]
        rx = single_antenna_array((1.0, 1.0, 1.0))
        scene = Scene(walls=walls, openings=[], ris_centers=ris, ris_walls=[walls[1].id],
                      tx=(3.0, 3.0, 1.0), rx=rx)
        graph = build_graph(scene)
        doa = unit(ris[0] - np.asarray(rx.antennas[0]))
        routes = get_routes(graph, WavefrontSpec(doas=(doa,)))
        assert not routes.failures
        assert routes.routes[0].phi_deg <= 1e-6

    def test_antenna_at_ris_center_claims_floor_unit(self):
        # the antenna sits on the center of unit 156 of the x = 10 wall (a
        # hand-built scene: build_scene keeps every antenna inside room 2);
        # the ray below it hits the floor where that unit ties with floor
        # unit 225 for nearest. A zero-length segment is no line of sight, so
        # the antenna does not see its own unit and claims the floor unit
        base = build_scene(SceneParams(), 0.5, 1)
        scene = replace(base, rx=single_antenna_array((10.0, 0.25, 0.25), (-1.0, 0, 0)))
        np.testing.assert_array_equal(scene.ris_centers[156], scene.rx.antennas[0])
        routes = get_routes(build_graph(scene), WavefrontSpec(doas=((0.0, 0.0, -1.0),)))
        assert routes.failures == ()
        assert [r.last_ris_id for r in routes.routes] == [225]
        np.testing.assert_array_equal(scene.ris_centers[225], (9.75, 0.25, 0.0))

    def test_spec_length_mismatch(self):
        scene = tiled_box_scene(m_side=2)
        graph = build_graph(scene)
        with pytest.raises(ValueError):
            get_routes(graph, WavefrontSpec(doas=((0, 0, 1.0),)))

    def test_no_hit_failure(self):
        # a lone wall with a hole: the ray through the hole hits nothing
        wall = WallPlane(id=0, p0=(0.0, 2.0, 1.5), n=(0, 1.0, 0),
                         u_axis=(1.0, 0, 0), v_axis=(0, 0, 1.0),
                         u_extent=3.0, v_extent=1.5)
        door = Aperture(wall_id=0, u_center=0.0, v_center=0.0,
                        u_half=0.5, v_half=0.5)
        scene = Scene(walls=[wall], openings=[door],
                      ris_centers=[ris_on_wall(wall, 2.0, 0.5)], ris_walls=[wall.id],
                      tx=(0.0, 1.0, 1.5),
                      rx=single_antenna_array((0.0, 0.0, 1.5), (0, 1.0, 0)))
        graph = build_graph(scene)
        routes = get_routes(graph, WavefrontSpec(doas=((0, 1.0, 0),)))
        assert routes.failures == ((0, 0, NO_HIT),)
        assert not routes.routes

    def test_contention_second_choice(self):
        # both antennas aim at the same ceiling point; the second one must
        # settle for the second-nearest visible unit
        scene = tiled_box_scene(m_side=2, d_r=0.5)
        graph = build_graph(scene)
        target = np.array([2.5, 1.0, 3.0])
        doas = tuple(unit(target - np.asarray(a)) for a in scene.rx.antennas)
        routes = get_routes(graph, WavefrontSpec(doas=doas))
        assert len(routes.routes) == 4
        chosen = [r.last_ris_id for r in routes.routes]
        assert len(set(chosen)) == 4
        # oracle for antenna 1: nearest unclaimed unit to its own hit point
        ant1 = np.asarray(scene.rx.antennas[1])
        hits = {}
        for i, (ant, doa) in enumerate(zip(scene.rx.antennas, doas)):
            d = (3.0 - ant[2]) / doa[2]
            hits[i] = np.asarray(ant) + d * doa
        ranked = sorted(range(len(scene.ris_centers)),
                        key=lambda j: (np.linalg.norm(scene.ris_centers[j] - hits[1]), j))
        ranked = [j for j in ranked if j != chosen[0]]
        assert chosen[1] == ranked[0]

    def test_exclusivity_random(self, rng):
        scene = tiled_box_scene(m_side=3, d_r=0.4)
        graph = build_graph(scene)
        for _ in range(60):
            spec = WavefrontSpec(doas=tuple(
                unit(rng.normal(size=3)) for _ in range(scene.rx.m)))
            routes = get_routes(graph, spec)
            ids = [r.last_ris_id for r in routes.routes]
            assert len(ids) == len(set(ids))

    def test_path_shape(self):
        scene = tiled_box_scene(m_side=2)
        graph = build_graph(scene)
        rng = np.random.default_rng(7)
        spec = WavefrontSpec(doas=tuple(
            unit(rng.normal(size=3)) for _ in range(scene.rx.m)))
        routes = get_routes(graph, spec)
        for r in routes.routes:
            assert r.path[0] == 0
            assert r.path[-1] == 1 + r.last_ris_id
            assert all(1 <= v <= graph.n_ris for v in r.path[1:])
            for u, v in zip(r.path, r.path[1:]):
                assert graph.row(u)[v]

    def test_path_cache_transparent(self):
        scene = tiled_box_scene(m_side=2)
        graph = build_graph(scene)
        rng = np.random.default_rng(11)
        spec = WavefrontSpec(doas=tuple(
            unit(rng.normal(size=3)) for _ in range(scene.rx.m)))

        def key(routes):
            return [(r.antenna_index, r.last_ris_id, r.path, r.phi_deg)
                    for r in routes.routes], routes.failures

        fresh = key(get_routes(build_graph(scene), spec))
        for _ in range(3):
            assert key(get_routes(graph, spec)) == fresh


class TestAgainstReference:
    def test_twenty_seeded_wavefronts(self):
        scene = tiled_box_scene(m_side=3, d_r=0.45)
        graph = build_graph(scene)
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            spec = WavefrontSpec(doas=tuple(
                unit(rng.normal(size=3)) for _ in range(scene.rx.m)))
            got = get_routes(graph, spec)
            expected = reference_get_routes(scene, spec)
            by_ant = {r.antenna_index: r for r in got.routes}
            fail_by_ant = {i: why for _t, i, why in got.failures}
            for i, (rid, path, phi) in enumerate(expected):
                if isinstance(rid, str):
                    assert fail_by_ant[i] == rid
                    continue
                r = by_ant[i]
                assert r.last_ris_id == rid
                assert r.path == path
                assert r.phi_deg == pytest.approx(phi, abs=1e-9)

    def test_three_rooms_deep_paths(self):
        scene = three_room_scene()
        graph = build_graph(scene)
        lengths = set()
        for seed in range(8):
            rng = np.random.default_rng(2000 + seed)
            spec = WavefrontSpec(doas=tuple(
                unit(rng.normal(size=3)) for _ in range(scene.rx.m)))
            got = get_routes(graph, spec)
            expected = reference_get_routes(scene, spec)
            assert not got.failures
            for r in got.routes:
                rid, path, phi = expected[r.antenna_index]
                assert (r.last_ris_id, r.path) == (rid, path)
                assert r.phi_deg == pytest.approx(phi, abs=1e-9)
                lengths.add(len(r.path))
        assert max(lengths) >= 4     # three hops: the BFS fallback ran

    def test_three_rooms_min_hop_path_matches_bfs(self):
        graph = build_graph(three_room_scene())
        lengths = set()
        ids = list(range(graph.n_ris))
        for j, path in zip(ids, graph.min_hop_paths(ids)):
            oracle = bfs_shortest_path(graph, 1 + j, 0)
            assert path == tuple(reversed(oracle))
            lengths.add(len(path))
        assert lengths == {2, 3, 4}

    def test_bfs_computes_one_row_past_its_expansions(self, monkeypatch):
        # a dequeued vertex's row answers both the target test and its
        # expansion; only the last vertex dequeued, the target's BFS parent,
        # is not expanded
        scene = three_room_scene()
        full = build_graph(scene)
        n = len(full.positions)
        adj = np.array([full.row(v) for v in range(n)])
        tx = 0
        origins = []

        def counting(a, bs, *args):
            origins.append(int(np.flatnonzero((full.positions == a).all(axis=1))[0]))
            assert len(bs) == n        # whole rows only, no single segments
            return segments_clear_batch(a, bs, *args)

        monkeypatch.setattr("pwesim.scene.segments_clear_batch", counting)
        lengths = set()
        for last in range(1, n, 3):
            del origins[:]
            path = bfs_shortest_path(PweGraph(scene), last, tx)
            hops = len(path) - 1
            lengths.add(hops)
            depth = np.full(n, n)        # hop count from last, by the full rows
            depth[last], level = 0, 0
            while (depth == level).any():
                depth[adj[depth == level].any(axis=0) & (depth == n)] = level + 1
                level += 1
            computed = set(origins)
            expanded = computed - {path[-2]}
            assert len(origins) == len(computed) == len(expanded) + 1
            assert not adj[sorted(expanded), tx].any()    # none could end the search
            assert set(np.flatnonzero(depth < hops - 1).tolist()) <= expanded
            assert depth[sorted(computed)].max() == hops - 1
        assert lengths == {1, 2, 3}


class TestPathStep:
    """`get_routes` claims for every antenna first, then looks up all the
    claimed units' paths in one `PweGraph.min_hop_paths` call."""

    def test_failures_stay_in_antenna_order(self):
        # doorless rooms, the divider unit removed: antenna 0 lies outside
        # and misses every wall, antenna 1 claims the cut-off room-2 unit,
        # and antenna 2 finds that unit taken
        scene = two_room_scene(with_door=False)
        keep = [0, 1, 3]
        rx = AntennaArray(antennas=[(20.0, 2.0, 1.5), (7.0, 2.0, 1.5), (7.0, 2.5, 1.5)],
                          boresight=(1.0, 0, 0))
        scene = replace(scene, ris_centers=scene.ris_centers[keep],
                        ris_walls=scene.ris_walls[keep], rx=rx)
        spec = WavefrontSpec(doas=[(1.0, 0, 0)] * 3)
        routes = get_routes(build_graph(scene), spec)
        assert routes.failures == ((0, 0, NO_HIT), (0, 1, UNREACHABLE), (0, 2, NO_CANDIDATE))
        assert not routes.routes

    def test_batch_mixes_every_kind_of_path(self):
        # the three rooms plus a closed closet beyond them, whose one unit no
        # other vertex sees
        scene = three_room_scene()
        closet = [replace(w, id=8 + w.id, p0=w.p0 + (20.0, 0, 0)) for w in box_walls((1, 1, 1))]
        scene = replace(scene, walls=scene.walls + closet,
                        ris_centers=np.vstack([scene.ris_centers, ris_on_wall(closet[5], 0, 0)]),
                        ris_walls=np.append(scene.ris_walls, closet[5].id), ris_grid=None)
        graph = build_graph(scene)
        ids = list(range(graph.n_ris))
        expected = []
        for j in ids:
            found = bfs_shortest_path(graph, 1 + j, 0)
            expected.append(None if found is None else tuple(reversed(found)))
        graph = build_graph(scene)
        memo = ids[::4]
        assert graph.min_hop_paths(memo) == [expected[j] for j in memo]
        got = graph.min_hop_paths(ids[::-1])
        assert got == expected[::-1]
        assert {None if path is None else len(path) for path in got} == {2, 3, 4, None}
        assert graph.min_hop_paths(ids[::-1]) == got

    def test_no_segment_test_after_first_trial(self, monkeypatch):
        # the first batch of trials reads the visibility matrix and the relay
        # rows; later batches find every path in the graph's relay array
        calls = []

        def counting(*args):
            calls.append(args)
            return segments_clear_batch(*args)

        monkeypatch.setattr("pwesim.scene.segments_clear_batch", counting)
        scene = build_scene(SceneParams(), 0.15, 8)
        graph = build_graph(scene)
        lengths = set()
        streams = np.random.SeedSequence(0).spawn(8)
        for k in range(4):
            spec = sample_wavefront(scene, [np.random.default_rng(ss)
                                            for ss in streams[2 * k:2 * k + 2]])
            del calls[:]
            routes = get_routes(graph, spec)
            assert bool(calls) == (k == 0)
            lengths.update(len(r.path) for r in routes.routes)
        assert lengths == {2, 3}

    @pytest.mark.parametrize("which", ["default", "rotated", "three_rooms"])
    def test_adjacency_is_symmetric(self, which):
        # the relay array reads the segment from a relay to a unit, the BFS
        # the segment from the unit to the relay
        if which == "three_rooms":
            scene = three_room_scene()
        else:
            scene = build_scene(SceneParams(), 0.3, 4)
        if which == "rotated":
            R, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
            scene = rotate_scene(scene, R)
        P = build_graph(scene).positions
        # stacked 256 origins a call, to bound the (L, N, 3) temporaries
        adj = np.vstack([segments_clear_batch(P[lo:lo + 256, None], P, scene.wall_table)
                         for lo in range(0, len(P), 256)])
        assert adj.any()
        np.testing.assert_array_equal(adj, adj.T)


def route_rows(routes):
    """Every field of each route, comparable with ==."""
    return [(r.trial, r.antenna_index, r.last_ris_id, r.path, r.realized_doa.tobytes(), r.phi_deg)
            for r in routes.routes]


class TestBatchRoutes:
    """T wavefronts in one `get_routes` call route as T one-wavefront calls,
    each from a full pool."""

    def assert_batch_is_singles(self, scene, spec):
        got = get_routes(build_graph(scene), spec)
        graph = build_graph(scene)
        rows, failures = [], []
        for t in range(len(spec.doas)):
            trace = None if spec.trace is None else tuple(a[t] for a in spec.trace)
            one = get_routes(graph, WavefrontSpec(doas=spec.doas[t], trace=trace))
            assert {r.trial for r in one.routes} <= {0}
            rows += [(t, *row[1:]) for row in route_rows(one)]
            failures += [(t, i, why) for _t, i, why in one.failures]
        assert route_rows(got) == rows
        assert got.failures == tuple(failures)
        return got

    @pytest.mark.parametrize("rotated", [False, True], ids=["default", "rotated"])
    def test_sampled_wavefronts(self, rotated):
        scene = build_scene(SceneParams(), 0.35, 4)
        if rotated:
            R, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(3, 3)))
            scene = rotate_scene(scene, R)
        spec = sample_wavefront(scene, [np.random.default_rng([5, t]) for t in range(9)])
        got = self.assert_batch_is_singles(scene, spec)
        assert len(got.routes) == 9 * 16
        self.assert_batch_is_singles(scene, replace(spec, trace=None))

    def test_three_rooms(self):
        scene = three_room_scene(m_side=3)
        doas = unit(np.random.default_rng(2).normal(size=(9, scene.rx.m, 3)))
        got = self.assert_batch_is_singles(scene, WavefrontSpec(doas=doas))
        assert max(len(r.path) for r in got.routes) >= 4

    def test_failures_in_several_trials(self):
        # rays escape where walls are gone: no_hit failures in many trials
        scene = scene_without((0, 1, 4, 6), m_side=3)
        doas = unit(np.random.default_rng(4).normal(size=(9, scene.rx.m, 3)))
        got = self.assert_batch_is_singles(scene, WavefrontSpec(doas=doas))
        assert len({t for t, _i, _why in got.failures}) >= 2
        assert got.routes


class TestRotationInvariance:
    def test_phi_invariant_under_rotation(self, rng):
        # a rigid rotation of everything (scene + desired DoAs) must leave
        # the deviation angles unchanged
        scene = tiled_box_scene(m_side=2, d_r=0.5)
        graph = build_graph(scene)
        theta = 0.7
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        rot = rotate_scene(scene, R)
        rot_graph = build_graph(rot)
        for _ in range(10):
            doas = tuple(unit(rng.normal(size=3)) for _ in range(scene.rx.m))
            a = get_routes(graph, WavefrontSpec(doas=doas))
            b = get_routes(rot_graph, WavefrontSpec(doas=tuple(R @ d for d in doas)))
            assert [r.antenna_index for r in a.routes] == \
                   [r.antenna_index for r in b.routes]
            assert [r.last_ris_id for r in a.routes] == \
                   [r.last_ris_id for r in b.routes]
            for ra, rb in zip(a.routes, b.routes):
                assert rb.phi_deg == pytest.approx(ra.phi_deg, abs=1e-6)


class TestSelectLastRis:
    def test_nearest_and_tie_break(self):
        walls = box_walls((4, 4, 3))
        ris = [ris_on_wall(walls[1], -1.0, 0.0),
               ris_on_wall(walls[1], 1.0, 0.0)]
        scene = Scene(walls=walls, openings=[], ris_centers=ris,
                      ris_walls=[walls[1].id] * 2,
                      tx=(2.0, 2.0, 1.0),
                      rx=single_antenna_array((2.0, 2.0, 1.5)))
        graph = build_graph(scene)
        # equidistant point: tie goes to id 0
        assert select_last_ris(np.array([2.0, 2.0, 3.0]), [0, 1], 0, graph) == 0
        near1 = np.array([3.0, 2.0, 3.0])
        assert select_last_ris(near1, [0, 1], 0, graph) == 1
        assert select_last_ris(near1, [], 0, graph) is None


def route_key(routes):
    return ([(r.antenna_index, r.last_ris_id, r.path, r.phi_deg) for r in routes.routes],
            routes.failures)


@pytest.fixture
def scans(monkeypatch):
    """Counts the full-scan `nearest_ris` claims `get_routes` makes."""
    calls = []

    def counting(point, centers, available):
        calls.append(1)
        return nearest_ris(point, centers, available)

    nearest_ris = routing.nearest_ris
    monkeypatch.setattr(routing, "nearest_ris", counting)
    return calls


class TestCellClaim:
    """The claim from `RisCells.candidates` is the full scan's unit, always."""

    def assert_like_full_scan(self, scene, trials, seed, scans):
        graph = build_graph(scene)
        no_cells = build_graph(replace(scene, ris_grid=None))    # every claim a full scan
        claims = 0
        for ss in np.random.SeedSequence(seed).spawn(trials):
            spec = sample_wavefront(scene, [np.random.default_rng(ss)])
            fast = get_routes(graph, spec)
            claims += len(spec.doas[0])
            before = len(scans)
            assert route_key(fast) == route_key(get_routes(no_cells, spec))
            assert len(scans) - before == len(spec.doas[0])
            del scans[before:]
        assert len(scans) < claims / 2     # the cell claim served most of them

    @pytest.mark.parametrize("d_r, m_side", [(0.15, 4), (0.2, 8), (0.55, 10)])
    def test_default_cells(self, d_r, m_side, scans):
        self.assert_like_full_scan(build_scene(SceneParams(), d_r, m_side), 3, 7, scans)

    def test_rotated_rooms(self, rng, scans):
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rot = rotate_scene(build_scene(SceneParams(), 0.45, 4), R)
        assert rot.ris_cells is not None
        self.assert_like_full_scan(rot, 10, 3, scans)

    @pytest.mark.parametrize("shift, margin", [(1e-6, 0.0), (0.0, 0.3)],
                             ids=["shifted", "margin"])
    def test_lattice_read_off_the_units(self, shift, margin, scans):
        # the table's lattice passes through each wall's own units, so the
        # units of a grid moved off the wall's center, or laid with a margin
        # the scene is not told of, are claimed as exactly
        scene = build_scene(SceneParams(), 0.5, 4)
        laid = build_scene(SceneParams(ris_margin=margin), 0.5, 4)
        centers = laid.ris_centers.copy()
        centers[laid.ris_walls == 0, 1] += shift      # in the divider's plane
        scene = replace(scene, ris_centers=centers, ris_walls=laid.ris_walls)
        assert scene.ris_cells.u0[0] == centers[0, 1] - scene.walls[0].p0[1] - 0.25
        self.assert_like_full_scan(scene, 5, 11, scans)

    def test_cell_edge_tie_takes_smaller_id(self, scans):
        # 1 m cells on the ceiling; the hit point lies on the shared edge of
        # cells 9 and 10 (row 2, columns 1 and 2), equidistant from both
        walls = box_walls((4, 4, 3))
        scene = Scene(walls=walls, openings=[], **tiled_ris([walls[1]], 1.0),
                      tx=(1.0, 1.0, 1.0), rx=single_antenna_array((2.0, 2.5, 1.5)))
        point = np.array([[2.0, 2.5, 3.0]])
        centers = scene.ris_centers
        assert np.linalg.norm(centers[9] - point) == np.linalg.norm(centers[10] - point)
        block, count = scene.ris_cells.candidates(point, np.array([1]))
        assert block.shape == (1, 9) and count.tolist() == [0]
        routes = get_routes(build_graph(scene), WavefrontSpec(doas=[(0.0, 0.0, 1.0)]))
        assert [r.last_ris_id for r in routes.routes] == [9]
        assert len(scans) == 1
        # a hair inside cell 10, it comes first, then cell 9
        block, count = scene.ris_cells.candidates(point + (1e-3, 0.0, 0.0), np.array([1]))
        assert block[0, :count[0]].tolist() == [10, 9]

    def test_every_center_is_its_own_first_candidate(self):
        scene = build_scene(SceneParams(), 0.25, 2)
        cols = np.searchsorted(scene.wall_table.ids, scene.ris_walls)
        block, count = scene.ris_cells.candidates(scene.ris_centers, cols)
        assert (count >= 1).all()
        assert block[:, 0].tolist() == list(range(len(scene.ris_centers)))

    def test_off_lattice_units_route_as_reference(self, rng, scans):
        # units at random wall points: no grid, so every claim is a full scan
        walls = box_walls((5, 4, 3))
        on = [walls[1], walls[3], walls[5]]
        ris = [ris_on_wall(w, rng.uniform(-0.9, 0.9) * w.u_extent,
                           rng.uniform(-0.9, 0.9) * w.v_extent) for w in on for _ in range(8)]
        scene = Scene(walls=walls, openings=[], ris_centers=ris,
                      ris_walls=[w.id for w in on for _ in range(8)],
                      tx=(1.0, 3.0, 1.5), rx=grid_array((2.5, 1.0, 1.2), 3))
        assert scene.ris_cells is None
        graph = build_graph(scene)
        claims = 0
        for _ in range(5):
            spec = WavefrontSpec(doas=[unit(rng.normal(size=3)) for _ in range(scene.rx.m)])
            got = get_routes(graph, spec)
            expected = reference_get_routes(scene, spec)
            claims += sum(rid != NO_HIT for rid, _, _ in expected)
            assert got.failures == tuple((0, i, rid) for i, (rid, _, _) in enumerate(expected)
                                         if isinstance(rid, str))
            for r in got.routes:
                rid, path, phi = expected[r.antenna_index]
                assert (r.last_ris_id, r.path) == (rid, path)
                assert r.phi_deg == pytest.approx(phi, abs=1e-9)
        assert len(scans) == claims


def test_full_scan_is_rare_on_a_default_cell(scans):
    # guard: the cell claim must not silently switch off (it serves ~94% here)
    result = run_cell(ExperimentConfig(d_r_values=(0.15,), m_sides=(4,), n_trials=10), 0.15, 4)
    claims = len(result.records) + result.n_failures
    assert claims == 160
    assert len(scans) <= 0.15 * claims


def sealed_floor_scene(m_side, ris_grid=None):
    """`scene_without` the room-2 walls but the floor and the divider, the
    doorway closed and the divider's units removed: a ray that misses the
    floor and the divider escapes, the array sees only the 100 floor units,
    and none of them has a path from Tx."""
    scene = scene_without((1, 2, 3, 5), m_side)
    keep = scene.ris_walls != 0
    return replace(scene, openings=[], ris_centers=scene.ris_centers[keep],
                   ris_walls=scene.ris_walls[keep], ris_grid=ris_grid)


class TestClaimRounds:
    """`claim_last_ris` claims for every antenna-trial of a batch what
    `claim_loop` claims one wavefront at a time, with the same full scans,
    and `get_routes` reports each claim's route or the reason it has none."""

    def assert_claims_are_loop(self, scene, spec, scans):
        graph = build_graph(scene)
        shape = spec.doas.shape[:2]
        first, points = spec.trace or trace_walls(np.tile(scene.rx.antennas, (shape[0], 1)),
                                                  spec.doas.reshape(-1, 3), scene.wall_table)
        first, points = np.reshape(first, shape), np.reshape(points, (*shape, 3))
        want = claim_loop(graph, first, points)
        loop_scans = len(scans)
        del scans[:]
        got = claim_last_ris(graph, first, points)
        np.testing.assert_array_equal(got, want)
        assert len(scans) == loop_scans
        routes, failures = [], []
        for (t, i), j in np.ndenumerate(want):
            if j < 0:
                failures.append((t, i, NO_HIT if first[t, i] < 0 else NO_CANDIDATE))
            elif (path := graph.min_hop_paths([j])[0]) is None:
                failures.append((t, i, UNREACHABLE))
            else:
                routes.append((t, i, j, path))
        got = get_routes(build_graph(scene), spec)
        assert [(r.trial, r.antenna_index, r.last_ris_id, r.path) for r in got.routes] == routes
        assert got.failures == tuple(failures)
        return loop_scans, got

    @pytest.mark.parametrize("d_r, m_side", [(0.15, 4), (0.2, 8), (0.55, 10)])
    def test_default_cells(self, d_r, m_side, scans):
        # one run_cell batch of wavefronts
        scene = build_scene(SceneParams(), d_r, m_side)
        streams = np.random.SeedSequence(7).spawn(TRIAL_BATCH // (m_side * m_side))
        spec = sample_wavefront(scene, [np.random.default_rng(ss) for ss in streams])
        self.assert_claims_are_loop(scene, spec, scans)

    def test_rotated_scene(self, rng, scans):
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        scene = rotate_scene(build_scene(SceneParams(), 0.45, 4), R)
        spec = sample_wavefront(scene, [np.random.default_rng([3, t]) for t in range(20)])
        self.assert_claims_are_loop(scene, spec, scans)

    def test_three_rooms(self, scans):
        scene = three_room_scene(m_side=3)
        doas = unit(np.random.default_rng(2).normal(size=(9, scene.rx.m, 3)))
        _, got = self.assert_claims_are_loop(scene, WavefrontSpec(doas=doas), scans)
        assert max(len(r.path) for r in got.routes) >= 4

    def test_every_claim_a_full_scan(self, scans):
        scene = replace(build_scene(SceneParams(), 0.35, 4), ris_grid=None)
        spec = sample_wavefront(scene, [np.random.default_rng([9, t]) for t in range(20)])
        n_scans, _ = self.assert_claims_are_loop(scene, spec, scans)
        assert n_scans == 20 * 16

    @pytest.mark.parametrize("ris_grid", [None, 0.5], ids=["scans", "cells"])
    def test_failures_of_every_kind_in_several_trials(self, ris_grid, scans):
        # more antennas a trial hit the floor than it has units (100): every
        # unit of a pool is claimed until the pool runs out
        scene = sealed_floor_scene(18, ris_grid)
        doas = unit(np.random.default_rng(4).normal(size=(6, scene.rx.m, 3)))
        _, got = self.assert_claims_are_loop(scene, WavefrontSpec(doas=doas), scans)
        trials = {why: {t for t, _i, w in got.failures if w == why}
                  for why in (NO_HIT, NO_CANDIDATE, UNREACHABLE)}
        assert all(len(t) >= 2 for t in trials.values())
