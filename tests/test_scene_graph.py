import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwesim import scene as scene_module
from pwesim.experiment import SceneParams, build_scene
from pwesim.geometry import AntennaArray, Aperture, WallPlane, grid_shape, segments_clear_batch
from pwesim.scene import PweGraph, Scene, SceneError, bfs_shortest_path, build_graph

from conftest import box_walls, ris_on_wall, rotate_scene, single_antenna_array
from oracles import SimpleGraph, segment_clear


def one_room_scene():
    walls = box_walls((4, 4, 3))
    ris = [ris_on_wall(walls[1], 0.0, 0.0)]   # ceiling center
    return Scene(walls=walls, openings=[], ris_centers=ris, ris_walls=[walls[1].id],
                 tx=(1.0, 1.0, 1.0), rx=single_antenna_array((3.0, 3.0, 1.0)))


def two_room_scene(with_door):
    walls = box_walls((8, 4, 3))
    divider = WallPlane(id=6, p0=(4.0, 2.0, 1.5), n=(1.0, 0, 0),
                        u_axis=(0, 1.0, 0), v_axis=(0, 0, 1.0),
                        u_extent=2.0, v_extent=1.5)
    walls = walls + [divider]
    openings = ([Aperture(wall_id=6, u_center=0.0, v_center=-0.2,
                          u_half=0.6, v_half=1.1)] if with_door else [])
    ris = [
        (walls[4], -1.0, 0.0),   # x=0 wall (room 1)
        (walls[4], 1.0, 0.0),
        (divider, -1.0, 0.0),    # divider
        (walls[5], 0.0, 0.0),    # x=8 wall (room 2)
    ]
    return Scene(walls=walls, openings=openings,
                 ris_centers=[ris_on_wall(*r) for r in ris], ris_walls=[r[0].id for r in ris],
                 tx=(1.0, 2.0, 1.5), rx=single_antenna_array((7.0, 2.0, 1.5)))


def edges(g):
    """Full edge set of g as (u, v) pairs with u < v. O(V^2) segment tests."""
    return {(u, int(v)) for u in range(len(g.positions))
            for v in np.flatnonzero(g.row(u)) if u < v}


class TestBuildGraph:
    def test_small_scene_fully_connected(self):
        g = build_graph(one_room_scene())
        assert len(g.positions) == 2
        assert edges(g) == {(0, 1)}
        assert g.visibility[0].tolist() == [True]

    def test_vertex_ordering(self):
        g = build_graph(two_room_scene(with_door=True))
        scene = g.scene
        # vertex 0 is Tx and vertex 1 + j RIS j; antennas are no vertices
        np.testing.assert_array_equal(g.positions, [scene.tx, *scene.ris_centers])
        assert g.positions.shape == (1 + g.n_ris, 3)

    def test_no_door_no_cross_room_edges(self):
        # the divider-mounted RIS (id 2) sits on the shared plane and sees
        # both sides, so only strictly interior vertices are partitioned
        g = build_graph(two_room_scene(with_door=False))
        room1 = {0, 1, 2}      # Tx, RIS 0 and 1
        room2 = {4}            # RIS 3
        for u, v in edges(g):
            assert not (u in room1 and v in room2) and not (u in room2 and v in room1)
        # the antenna in room 2 sees the divider unit and the room-2 unit
        assert g.visibility[0].tolist() == [False, False, True, True]

    def test_edges_match_bruteforce(self):
        scene = two_room_scene(with_door=True)
        g = build_graph(scene)
        expected = set()
        pos = g.positions
        for u, v in itertools.combinations(range(len(pos)), 2):
            if segment_clear(pos[u], pos[v], scene.walls, scene.openings):
                expected.add((u, v))
        assert edges(g) == expected

    def test_e_subsets(self):
        # every row agrees with every other row on their shared edge
        g = build_graph(two_room_scene(with_door=True))
        adj = np.array([g.row(v) for v in range(len(g.positions))])
        np.testing.assert_array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_determinism(self):
        g1 = build_graph(two_room_scene(with_door=True))
        g2 = build_graph(two_room_scene(with_door=True))
        assert g1.n_ris == g2.n_ris
        np.testing.assert_array_equal(g1.positions, g2.positions)
        assert edges(g1) == edges(g2)

    def test_fault_when_tx_blind(self):
        scene = two_room_scene(with_door=False)
        # keep only room-2 RIS: the transmitter cannot see it
        scene = Scene(walls=scene.walls, openings=scene.openings,
                      ris_centers=scene.ris_centers[3:], ris_walls=scene.ris_walls[3:],
                      tx=scene.tx, rx=scene.rx)
        with pytest.raises(SceneError):
            build_graph(scene)

    def test_fault_without_ris(self):
        scene = one_room_scene()
        scene = Scene(walls=scene.walls, openings=[], ris_centers=np.empty((0, 3)),
                      ris_walls=[],
                      tx=scene.tx, rx=scene.rx)
        with pytest.raises(SceneError):
            build_graph(scene)


class TestAntennaRow:
    """`visibility[i]` is the segment test from antenna i to every RIS."""

    def assert_rows_like_oracle(self, scene):
        g = build_graph(scene)
        for i, ant in enumerate(scene.rx.antennas):
            want = [segment_clear(ant, c, scene.walls, scene.openings)
                    for c in scene.ris_centers]
            assert g.visibility[i].tolist() == want
        return g

    def test_default_two_room_scene(self):
        g = self.assert_rows_like_oracle(build_scene(SceneParams(), 0.45, 4))
        assert g.visibility[0].any() and not g.visibility[0].all()

    def test_rotated_rooms(self, rng):
        # tilted walls: no dot product is exact in every summation order
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        self.assert_rows_like_oracle(rotate_scene(build_scene(SceneParams(), 0.45, 4), R))

    def test_computed_once_read_only(self):
        g = build_graph(two_room_scene(with_door=True))
        vis = g.visibility
        assert g.visibility is vis and vis.shape == (g.scene.rx.m, g.n_ris)
        with pytest.raises(ValueError):
            vis[0, 0] = False


def planar_array(center, axes, m_side, spacing):
    """m_side x m_side antennas `spacing` apart, centered on `center`, rows
    along axes[0] and columns along axes[1]."""
    steps = (np.arange(m_side) - (m_side - 1) / 2.0) * spacing
    grid = center + steps[:, None, None] * axes[0] + steps[None, :, None] * axes[1]
    return AntennaArray(antennas=grid.reshape(-1, 3), boresight=np.cross(axes[0], axes[1]))


def antenna_rows(scene):
    """Each antenna's own segment test to every RIS unit, stacked."""
    return np.array([segments_clear_batch(a, scene.ris_centers, scene.wall_table)
                     for a in scene.rx.antennas])


def count_segment_tests(monkeypatch):
    """Spy on the scene module's segment test: a list of (origins, endpoints)
    per call, filled as calls are made."""
    calls = []
    inner = scene_module.segments_clear_batch

    def counting(a, bs, table):
        calls.append((np.asarray(a), np.asarray(bs)))
        return inner(a, bs, table)

    monkeypatch.setattr(scene_module, "segments_clear_batch", counting)
    return calls


class TestVisibility:
    """The whole-array decision gives each antenna's own rows, decides most
    units without a per-antenna test, and runs only when first read."""

    @settings(max_examples=40, deadline=None)
    @given(three_rooms=st.booleans(), m_side=st.integers(1, 6),
           spacing=st.sampled_from([0.01, 0.05, 0.3, 1.0]),
           where=st.sampled_from(["room", "plane", "doorway"]),
           offset=st.sampled_from([0.0, 1e-9, -1e-9, 1e-7, -1e-6, 1e-3, -0.05, 0.2]),
           tilted=st.booleans(), rotated=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_rows_match_each_antenna(self, three_rooms, m_side, spacing, where, offset,
                                     tilted, rotated, seed):
        from test_routing import three_room_scene    # test_routing imports this module
        rng = np.random.default_rng(seed)
        scene = three_room_scene(d_r=0.5) if three_rooms else build_scene(SceneParams(), 0.5, 1)
        lo = np.min([w.p0 for w in scene.walls], axis=0)
        hi = np.max([w.p0 for w in scene.walls], axis=0)
        if where == "room":
            center = rng.uniform(lo, hi)
        else:
            # on a wall plane, or on a doorway's, then moved off it by `offset`
            wall = (next(w for w in scene.walls if w.id == scene.openings[0].wall_id)
                    if where == "doorway" else scene.walls[rng.integers(len(scene.walls))])
            u, v = rng.uniform(-1.0, 1.0, 2) * (wall.u_extent, wall.v_extent)
            center = ris_on_wall(wall, u, v) + offset * wall.n
        axes = (np.linalg.qr(rng.normal(size=(3, 3)))[0] if tilted else np.eye(3)[[1, 2]])[:2]
        scene = replace(scene, rx=planar_array(center, axes, m_side, spacing))
        if rotated:
            scene = rotate_scene(scene, np.linalg.qr(rng.normal(size=(3, 3)))[0])
        vis = PweGraph(scene).visibility
        np.testing.assert_array_equal(vis, antenna_rows(scene))
        # the scalar oracle rounds differently; off the axes, an antenna 1e-9
        # off a plane may cross it in one form and not in the other
        if three_rooms and m_side <= 3 and not rotated and not tilted:
            want = [[not np.array_equal(a, c)
                     and segment_clear(a, c, scene.walls, scene.openings)
                     for c in scene.ris_centers] for a in scene.rx.antennas]
            assert vis.tolist() == want

    def test_default_cell_decides_almost_every_unit(self, monkeypatch):
        g = build_graph(build_scene(SceneParams(), 0.15, 10))
        calls = count_segment_tests(monkeypatch)
        vis = g.visibility
        tested = sum(len(bs) * (len(a) if a.ndim == 3 else 1) for a, bs in calls)
        assert 0 < tested <= 0.05 * vis.size
        np.testing.assert_array_equal(vis, antenna_rows(g.scene))

    def test_box_at_door_edge_is_undecided(self, monkeypatch):
        # divider x = 4 with a doorway over y in [1.4, 2.6]. Unit 0 on the
        # x = 0 wall and antenna 0 share y = 2.6 + 5e-10: that antenna's
        # segment crosses the divider inside the doorway's EXTENT_SLACK, the
        # others' cross solid wall past its edge. Unit 1 sits 6e-8 past the
        # edge, so every crossing is wall, but its projected box lies within
        # ARRAY_MARGIN of the edge. Both units go to the segment test.
        scene = two_room_scene(with_door=True)
        centers = np.array([[0.0, 2.6 + 5e-10, 1.0], [0.0, 2.6 + 6e-8, 1.0]])
        rx = AntennaArray(antennas=[(7.0, 2.6 + 5e-10 + dy, 1.0) for dy in (0.0, 0.1, 0.2, 0.3)],
                          boresight=(-1.0, 0, 0))
        scene = replace(scene, ris_centers=centers, ris_walls=[scene.walls[4].id] * 2, rx=rx)
        calls = count_segment_tests(monkeypatch)
        vis = PweGraph(scene).visibility
        tested = np.concatenate([bs for _, bs in calls])
        assert all((tested == c).all(axis=1).any() for c in centers)
        want = [[segment_clear(a, c, scene.walls, scene.openings) for c in centers]
                for a in scene.rx.antennas]
        assert want == [[True, False], [False, False], [False, False], [False, False]]
        assert vis.tolist() == want

    def test_not_computed_by_build_graph(self, monkeypatch):
        runs = []
        inner = scene_module.array_visibility
        monkeypatch.setattr(scene_module, "array_visibility",
                            lambda *args: runs.append(args) or inner(*args))
        g = build_graph(build_scene(SceneParams(), 0.5, 4))
        assert runs == []
        vis = g.visibility
        assert len(runs) == 1
        assert g.visibility is vis and len(runs) == 1     # computed once


class TestSceneChecks:
    def test_off_wall_center(self):
        scene = one_room_scene()
        with pytest.raises(SceneError, match="RIS 0 center is off"):
            replace(scene, ris_centers=scene.ris_centers + (0.0, 0.0, -0.1))

    def test_center_outside_host_wall(self):
        scene = one_room_scene()
        ceiling = scene.walls[1]
        corner = ris_on_wall(ceiling, ceiling.u_extent, -ceiling.v_extent)
        replace(scene, ris_centers=[corner])          # on the edge: still on the wall
        for u, v in ((50.0, 0.0), (0.0, -ceiling.v_extent - 1e-6)):
            with pytest.raises(SceneError, match="RIS 0 center lies outside its host wall"):
                replace(scene, ris_centers=[ris_on_wall(ceiling, u, v)])

    def test_unknown_host_wall(self):
        scene = one_room_scene()
        with pytest.raises(SceneError, match="RIS 0 names no wall"):
            replace(scene, ris_walls=[99])

    def test_length_mismatch(self):
        scene = one_room_scene()
        with pytest.raises(SceneError, match="one ris_walls entry per row"):
            replace(scene, ris_walls=[1, 1])

    def test_ris_arrays_read_only_copies(self):
        # the graph copies the centers once; the scene must not drift from it
        centers = one_room_scene().ris_centers.copy()
        scene = replace(one_room_scene(), ris_centers=centers)
        centers[0, 2] += 0.1
        assert scene.ris_centers[0, 2] != centers[0, 2]
        for a in (scene.ris_centers, scene.ris_walls):
            with pytest.raises(ValueError):
                a[0] = 0


class TestRisCells:
    """`Scene.ris_grid` gives the scene its cell -> RIS row table."""

    def test_each_center_maps_to_its_row(self):
        scene = build_scene(SceneParams(), 0.3, 2)
        cells, t = scene.ris_cells, scene.wall_table
        col = np.searchsorted(t.ids, scene.ris_walls)
        rel = scene.ris_centers - t.p0[col]
        iu = np.floor((np.vecdot(rel, t.u_axis[col]) - cells.u0[col]) / cells.d_r).astype(int)
        iv = np.floor((np.vecdot(rel, t.v_axis[col]) - cells.v0[col]) / cells.d_r).astype(int)
        got = cells.rows[cells.start[col] + iv * cells.n_u[col] + iu]
        assert got.tolist() == list(range(len(scene.ris_centers)))
        # each table spans its wall's tile_wall grid; the doorway's skipped
        # cells are the only empty ones
        shapes = [grid_shape(w, 0.3) for w in scene.walls[:9]]
        assert list(zip(cells.n_u[:9], cells.n_v[:9])) == shapes
        assert len(cells.rows) == (cells.n_u * cells.n_v).sum()
        assert (cells.rows < 0).sum() == len(cells.rows) - len(scene.ris_centers) > 0
        assert (cells.n_u > 0).tolist() == [True] * 9 + [False] * 2

    def test_no_grid_no_table(self):
        assert one_room_scene().ris_cells is None

    @pytest.mark.parametrize("pitch, shift, match", [
        (0.4, 0.0, "RIS 1 is off its wall's d_r = 0.4 lattice"),
        (0.5, 1e-3, "RIS 5 is off its wall's d_r = 0.5 lattice"),
        (0.5, -0.5, "RIS [45] shares its d_r = 0.5 lattice point with RIS [45]"),
    ], ids=["pitch", "moved", "shared"])
    def test_centers_off_the_grid_rejected(self, pitch, shift, match):
        # units 4 and 5 are neighbours on the divider, 0.5 apart along u = y
        scene = build_scene(SceneParams(), 0.5, 2)
        centers = scene.ris_centers.copy()
        centers[5, 1] += shift
        assert scene.ris_walls[5] == scene.ris_walls[4] == 0
        replace(scene, ris_centers=centers, ris_grid=None)    # fine without a grid
        with pytest.raises(SceneError, match=match):
            replace(scene, ris_centers=centers, ris_grid=pitch)


class TestBfs:
    def test_path_graph(self):
        g = SimpleGraph(3, [(0, 1), (1, 2)])
        assert bfs_shortest_path(g, 0, 2) == [0, 1, 2]

    def test_banned_blocks(self):
        # banning a vertex is dropping its edges
        g = SimpleGraph(3, [e for e in [(0, 1), (1, 2)] if 1 not in e])
        assert bfs_shortest_path(g, 0, 2) is None

    def test_direct_edge(self):
        g = SimpleGraph(4, [(0, 1), (1, 2), (0, 3), (3, 2), (0, 2)])
        assert bfs_shortest_path(g, 0, 2) == [0, 2]

    def test_tie_break_ascending(self):
        # two 2-hop routes; the smaller intermediate vertex wins
        g = SimpleGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        assert bfs_shortest_path(g, 0, 3) == [0, 1, 3]

    def test_source_target_checks(self):
        g = SimpleGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            bfs_shortest_path(g, 0, 0)

    def _enumerate_min_hops(self, g, s, t, max_depth):
        best = [None]

        def dfs(u, depth, seen):
            if best[0] is not None and depth >= best[0]:
                return
            if g.row(u)[t]:
                best[0] = depth + 1
                return
            if depth + 1 >= max_depth:
                return
            for v in np.flatnonzero(g.row(u)).tolist():
                if v not in seen and v != t:
                    dfs(v, depth + 1, seen | {v})

        dfs(s, 0, {s})
        return best[0]

    def test_random_graphs_match_enumeration(self, rng):
        for _ in range(60):
            n = int(rng.integers(4, 13))
            edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < 2.5 / n]
            g = SimpleGraph(n, edges)
            s, t = rng.choice(n, size=2, replace=False)
            path = bfs_shortest_path(g, int(s), int(t))
            oracle = self._enumerate_min_hops(g, int(s), int(t), max_depth=6)
            if path is None:
                assert oracle is None
            elif len(path) - 1 <= 6:
                assert oracle == len(path) - 1

    def test_path_validity(self, rng):
        for _ in range(40):
            n = int(rng.integers(5, 20))
            edges = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if rng.random() < 3.0 / n]
            s, t = rng.choice(n, size=2, replace=False)
            banned = {int(v) for v in rng.choice(n, size=2)} - {int(s), int(t)}
            g = SimpleGraph(n, [e for e in edges if not banned.intersection(e)])
            path = bfs_shortest_path(g, int(s), int(t))
            if path is None:
                continue
            assert path[0] == int(s) and path[-1] == int(t)
            assert not banned.intersection(path)
            for u, v in zip(path, path[1:]):
                assert g.row(u)[v]
            assert len(set(path)) == len(path)

    def test_bfs_on_pwe_graph(self):
        g = build_graph(two_room_scene(with_door=True))
        last = 4       # RIS 3
        path = bfs_shortest_path(g, last, 0)
        assert path is not None and path[0] == last and path[-1] == 0
        for u, v in zip(path, path[1:]):
            assert g.row(u)[v]


class TestMinHopPath:
    @pytest.mark.parametrize("which, d_r, m_side",
                             [("default", 0.5, 4), ("default", 0.2, 8), ("rotated", 0.3, 4)],
                             ids=["0.5-4", "0.2-8", "rotated-0.3-4"])
    def test_matches_bfs_oracle_on_default_scene(self, which, d_r, m_side):
        scene = build_scene(SceneParams(), d_r, m_side)
        if which == "rotated":
            R, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
            scene = rotate_scene(scene, R)
        g = build_graph(scene)
        ids = list(range(g.n_ris))
        for j, path in zip(ids, g.min_hop_paths(ids)):
            oracle = bfs_shortest_path(g, 1 + j, 0)
            assert path == tuple(reversed(oracle))

    def test_unreachable_is_none(self):
        # no doorway and no divider unit: the room-2 unit is cut off
        scene = two_room_scene(with_door=False)
        keep = [0, 1, 3]
        g = build_graph(replace(scene, ris_centers=scene.ris_centers[keep],
                                ris_walls=scene.ris_walls[keep]))
        assert bfs_shortest_path(g, 3, 0) is None       # RIS 2
        assert g.min_hop_paths([2]) == [None]
