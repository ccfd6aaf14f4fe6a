import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwesim.experiment import SceneParams, build_scene
from pwesim.geometry import (ARRAY_MARGIN, ENDPOINT_EPS, EXTENT_SLACK, PARALLEL_EPS, Aperture,
                             WallPlane, WallTable, array_visibility, segments_clear_batch,
                             tile_wall, trace_walls, unit)
from pwesim.scene import build_graph

from conftest import box_walls, ris_on_wall, rotate_scene
from oracles import (_in_opening, _on_wall, _ref_hit_point, first_hits, local_uv,
                     ray_wall_scale, segment_clear)
from test_routing import three_room_scene


def trace_one(ant, doa, walls, openings=()):
    """`first_hits` for the one ray ant + d * doa."""
    return first_hits(np.reshape(ant, (1, 3)), np.reshape(doa, (1, 3)),
                      WallTable(walls, openings))[0]


def zwall(z, wid=0, u_extent=5.0, v_extent=5.0):
    return WallPlane(id=wid, p0=(0.0, 0.0, z), n=(0, 0, 1.0),
                     u_axis=(1.0, 0, 0), v_axis=(0, 1.0, 0),
                     u_extent=u_extent, v_extent=v_extent)


class TestRayWallScale:
    def test_axis_aligned(self):
        assert ray_wall_scale((0, 0, 0), (0, 0, 1.0), zwall(3)) == pytest.approx(3.0)

    def test_parallel_ray(self):
        assert ray_wall_scale((0, 0, 0), (1.0, 0, 0), zwall(3)) is None

    def test_behind_antenna(self):
        assert ray_wall_scale((0, 0, 5.0), (0, 0, 1.0), zwall(3)) is None

    def test_oblique(self):
        # (4 - 0) / 0.8
        d = ray_wall_scale((1, 2, 0), (0, 0.6, 0.8), zwall(4))
        assert d == pytest.approx(5.0, abs=1e-12)

    def test_in_plane_shift_invariance(self, rng):
        wall = zwall(4)
        for _ in range(100):
            ant = rng.uniform(-1, 1, 3)
            doa = unit(rng.normal(size=3))
            if abs(doa[2]) < 1e-6:
                continue
            t = rng.uniform(-3, 3)
            shifted = WallPlane(id=0, p0=wall.p0 + t * wall.u_axis, n=wall.n,
                                u_axis=wall.u_axis, v_axis=wall.v_axis,
                                u_extent=wall.u_extent, v_extent=wall.v_extent)
            d0 = ray_wall_scale(ant, doa, wall)
            d1 = ray_wall_scale(ant, doa, shifted)
            if d0 is None:
                assert d1 is None
            else:
                assert d1 == pytest.approx(d0, abs=1e-9)


class TestRayWallPoint:
    def test_ceiling_hit(self):
        walls = box_walls((4, 4, 3))
        p, wid = trace_one((2, 2, 1.5), (0, 0, 1.0), walls)
        assert wid == 1
        np.testing.assert_allclose(p, (2, 2, 3), atol=1e-12)

    def test_boundary_point_included(self):
        wall = zwall(4.0, u_extent=1.0, v_extent=1.0)
        doa = unit((1.0, 0.0, 4.0))  # hits exactly u = 1.0 on the extent edge
        p, wid = trace_one((0, 0, 0), doa, [wall])
        assert wid == 0
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_no_hit(self):
        wall = zwall(4.0, u_extent=1.0, v_extent=1.0)
        assert trace_one((0, 0, 0), unit((4.0, 0, 1.0)), [wall]) is None

    def test_opening_is_not_wall(self):
        wall = zwall(4.0)
        opening = Aperture(wall_id=0, u_center=0.0, v_center=0.0,
                           u_half=0.5, v_half=0.5)
        assert trace_one((0, 0, 0), (0, 0, 1.0), [wall], [opening]) is None

    def test_march_oracle(self, rng):
        # brute-force: march the ray in 1 mm steps until a wall plane is
        # crossed inside its extents; compare to the returned point
        walls = box_walls((4, 4, 3))
        for _ in range(50):
            ant = rng.uniform((0.5, 0.5, 0.5), (3.5, 3.5, 2.5))
            doa = unit(rng.normal(size=3))
            res = trace_one(ant, doa, walls)
            assert res is not None
            p, wid = res
            step = 1e-3
            t = 0.0
            marched = None
            while t < 20.0:
                t += step
                q = ant + t * doa
                if not (0 <= q[0] <= 4 and 0 <= q[1] <= 4 and 0 <= q[2] <= 3):
                    marched = ant + (t - step / 2) * doa
                    break
            assert marched is not None
            assert np.linalg.norm(marched - p) <= 2e-3

    def test_reconstruction_invariants(self, rng):
        walls = box_walls((4, 4, 3))
        for _ in range(200):
            ant = rng.uniform((0.2, 0.2, 0.2), (3.8, 3.8, 2.8))
            doa = unit(rng.normal(size=3))
            p, wid = trace_one(ant, doa, walls)
            wall = walls[wid]
            assert abs(float(np.dot(p - wall.p0, wall.n))) <= 1e-9
            d = ray_wall_scale(ant, doa, wall)
            np.testing.assert_allclose(ant + d * doa, p, atol=1e-9)


class TestTraceWalls:
    """`trace_walls` equals the scalar first-hit scan bit for bit."""

    scene = build_scene(SceneParams(), d_r=0.5, m_side=10)

    def assert_like_scan(self, points, dirs, walls=scene.walls, openings=scene.openings):
        """Trace the rays both ways; the walls hit, by id (None on a miss)."""
        first, hits = trace_walls(points, dirs, WallTable(walls, openings))
        assert first.shape == (len(points),) and hits.shape == (len(points), 3)
        ids = []
        for k, p, point, doa in zip(first, hits, points, dirs):
            want = _ref_hit_point(point, doa, walls, openings)
            if want is None:
                assert k == -1 and np.isnan(p).all()
                ids.append(None)
            else:
                assert walls[k].id == want[1]
                assert np.array_equal(p, want[0]) and p.tobytes() == want[0].tobytes()
                ids.append(want[1])
        return ids

    def test_random_rays_from_antennas(self, rng):
        ants = self.scene.rx.antennas
        for _ in range(20):
            self.assert_like_scan(ants, unit(rng.normal(size=(len(ants), 3))))

    def test_random_rays_in_rotated_rooms(self, rng):
        # tilted walls: no dot product is exact in every summation order
        R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        walls = [WallPlane(id=w.id, p0=R @ w.p0, n=R @ w.n, u_axis=R @ w.u_axis,
                           v_axis=R @ w.v_axis, u_extent=w.u_extent, v_extent=w.v_extent)
                 for w in self.scene.walls]
        ants = self.scene.rx.antennas @ R.T
        for _ in range(20):
            ids = self.assert_like_scan(ants, unit(rng.normal(size=(len(ants), 3))),
                                        walls, self.scene.openings)
            assert None not in ids

    def test_parallel_rays(self):
        # each axis is parallel to the planes of two of the three wall families
        ants = self.scene.rx.antennas[:6]
        dirs = np.repeat(np.vstack([np.eye(3), -np.eye(3)]), len(ants), axis=0)
        ids = self.assert_like_scan(np.tile(ants, (6, 1)), dirs)
        assert None not in ids

    def test_rays_pointing_away(self):
        # every plane crossing lies behind the origin: no wall is hit
        points = np.array([(12.0, 2.5, 1.5), (-2.0, 2.5, 1.5), (5.0, 2.5, 4.0),
                           (5.0, -1.0, 1.5)])
        dirs = np.array([(1.0, 0, 0), (-1.0, 0, 0), (0, 0, 1.0), unit((0.0, -1.0, -0.1))])
        assert self.assert_like_scan(points, dirs) == [None] * 4

    def test_rays_through_doorway(self, rng):
        # into the doorway, its edges included: the ray continues into room 1
        ant = self.scene.rx.antennas[0]
        door = self.scene.openings[0]
        divider = self.scene.walls[0]
        uv = [(u, v) for u in (-door.u_half, 0.0, door.u_half)
              for v in (-door.v_half, 0.0, door.v_half)]
        uv += list(rng.uniform((-door.u_half, -door.v_half), (door.u_half, door.v_half),
                               size=(20, 2)))
        targets = np.array([divider.p0 + u * divider.u_axis + v * divider.v_axis
                            for u, v in uv])
        ids = self.assert_like_scan(np.tile(ant, (len(targets), 1)), unit(targets - ant))
        assert all(i in (6, 7, 8, 9, 10) for i in ids)

    def test_one_ray_form(self, rng):
        walls = box_walls((4, 4, 3))
        for _ in range(50):
            ant = rng.uniform((0.5, 0.5, 0.5), (3.5, 3.5, 2.5))
            doa = unit(rng.normal(size=3))
            p, wid = trace_one(ant, doa, walls)
            want_p, want_id = _ref_hit_point(ant, doa, walls, ())
            assert wid == want_id and np.array_equal(p, want_p)

    def test_list_form(self, rng):
        # one entry per ray of one call: the scan's (point, wall id) or None
        points = np.vstack([self.scene.rx.antennas, [(12.0, 2.5, 1.5)]])
        dirs = np.vstack([unit(rng.normal(size=(len(points) - 1, 3))), [(1.0, 0, 0)]])
        got = first_hits(points, dirs, self.scene.wall_table)
        assert len(got) == len(points) and got[-1] is None
        for res, point, doa in zip(got[:-1], points, dirs):
            want_p, want_id = _ref_hit_point(point, doa, self.scene.walls, self.scene.openings)
            p, wid = res
            assert type(wid) is int and wid == want_id and p.tobytes() == want_p.tobytes()


def segment_determined(a, b, walls, openings, rounding):
    """Whether rounding cannot change the answer for the open segment (a, b):
    each plane distance may be off by `rounding`, which moves a crossing by
    up to `rounding` times (1 + |ab| / |ab . n|). Every crossing must lie
    farther than that from the ENDPOINT_EPS cut at both endpoints and, where
    it counts, from every wall and opening edge; no |ab . n| may lie within
    `rounding` of PARALLEL_EPS."""
    ab = b - a
    length = float(np.linalg.norm(ab))
    for wall in walls:
        denom = float(np.dot(ab, wall.n))
        if abs(abs(denom) - PARALLEL_EPS) <= rounding:
            return False
        if abs(denom) < PARALLEL_EPS:
            continue
        t = float(np.dot(wall.p0 - a, wall.n)) / denom
        slack = rounding * (1.0 + length / abs(denom))
        if min(abs(t * length - ENDPOINT_EPS), abs((1.0 - t) * length - ENDPOINT_EPS)) <= slack:
            return False
        if t * length < ENDPOINT_EPS or (1.0 - t) * length < ENDPOINT_EPS:
            continue            # ignored by both forms
        u, v = local_uv(wall, a + t * ab)
        edges = [(u, wall.u_extent), (v, wall.v_extent)]
        edges += [(x - center, half) for op in openings if op.wall_id == wall.id
                  for x, center, half in ((u, op.u_center, op.u_half),
                                          (v, op.v_center, op.v_half))]
        if any(abs(abs(x) - half - EXTENT_SLACK) <= slack for x, half in edges):
            return False
    return True


class TestSegmentClear:
    def test_same_room(self):
        walls = box_walls((4, 4, 3))
        assert segment_clear((1, 1, 1), (3, 3, 2), walls)

    def test_blocked_by_divider(self):
        divider = WallPlane(id=0, p0=(2.0, 2.0, 1.5), n=(1.0, 0, 0),
                            u_axis=(0, 1.0, 0), v_axis=(0, 0, 1.0),
                            u_extent=2.0, v_extent=1.5)
        assert not segment_clear((1, 2, 1.5), (3, 2, 1.5), [divider])

    def test_through_doorway(self):
        divider = WallPlane(id=0, p0=(2.0, 2.0, 1.5), n=(1.0, 0, 0),
                            u_axis=(0, 1.0, 0), v_axis=(0, 0, 1.0),
                            u_extent=2.0, v_extent=1.5)
        door = Aperture(wall_id=0, u_center=0.0, v_center=0.0,
                        u_half=0.6, v_half=1.1)
        # straight through the doorway center
        assert segment_clear((1, 2, 1.5), (3, 2, 1.5), [divider], [door])
        # off to the side, through solid wall
        assert not segment_clear((1, 0.5, 1.5), (3, 0.5, 1.5), [divider], [door])

    def test_endpoint_on_wall_ignored(self):
        wall = zwall(2.0)
        # endpoint exactly on the wall: not a blocking crossing
        assert segment_clear((0, 0, 2.0), (0, 0, 0.5), [wall])

    def test_symmetry(self, rng):
        walls = box_walls((4, 4, 3))
        divider = WallPlane(id=6, p0=(2.0, 2.0, 1.5), n=(1.0, 0, 0),
                            u_axis=(0, 1.0, 0), v_axis=(0, 0, 1.0),
                            u_extent=2.0, v_extent=1.5)
        walls = walls + [divider]
        door = [Aperture(wall_id=6, u_center=0.0, v_center=0.0,
                         u_half=0.5, v_half=0.8)]
        for _ in range(200):
            a = rng.uniform(0.1, 3.9, 3) * (1, 1, 0.7)
            b = rng.uniform(0.1, 3.9, 3) * (1, 1, 0.7)
            if np.allclose(a, b):
                continue
            assert segment_clear(a, b, walls, door) == segment_clear(b, a, walls, door)

    def test_zero_length_segment_not_clear(self):
        # a point is no line of sight to itself, in the one-origin and the
        # stacked form alike
        walls = box_walls((4, 4, 3))
        bs = np.array([[1.0, 1.0, 1.0], [3.0, 3.0, 2.0]])
        table = WallTable(walls)
        assert segments_clear_batch(bs[0], bs, table).tolist() == [False, True]
        stacked = segments_clear_batch(bs[:, None, :], bs, table)
        assert stacked.tolist() == [[False, True], [True, False]]

    def test_batch_matches_scalar(self, rng):
        walls = box_walls((4, 4, 3))
        door = [Aperture(wall_id=4, u_center=0.0, v_center=0.0,
                         u_half=0.5, v_half=0.5)]
        a = np.array([1.0, 1.0, 1.0])
        bs = rng.uniform((-1, 0.1, 0.1), (5, 3.9, 2.9), size=(100, 3))
        batch = segments_clear_batch(a, bs, WallTable(walls, door))
        for b, got in zip(bs, batch):
            assert got == segment_clear(a, b, walls, door)

    @pytest.mark.parametrize("which", ["default", "rotated", "three_rooms"])
    def test_origin_stack_matches_rows_and_oracle(self, which):
        # a stacked (L, C) call: origins are the RIS units Tx does not see,
        # Tx, the antennas and a point behind the x = 0 wall; endpoints are
        # the first 64 Tx-visible units and the corners and edge midpoints
        # of each doorway
        if which == "three_rooms":
            scene = three_room_scene()
        else:
            scene = build_scene(SceneParams(), 0.3, 2)
        outside = np.array([-1.0, *scene.tx[1:]])
        if which == "rotated":
            R, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
            scene = rotate_scene(scene, R)
            outside = R @ outside
        tx_row = build_graph(scene).row(0)[1:]
        walls = {w.id: w for w in scene.walls}
        door_edges = [walls[op.wall_id].p0 + du * walls[op.wall_id].u_axis
                      + dv * walls[op.wall_id].v_axis
                      for op in scene.openings
                      for du in (op.u_center - op.u_half, op.u_center, op.u_center + op.u_half)
                      for dv in (op.v_center - op.v_half, op.v_center, op.v_center + op.v_half)
                      if (du, dv) != (op.u_center, op.v_center)]
        ends = np.vstack([scene.ris_centers[np.flatnonzero(tx_row)[:64]], door_edges])
        origins = np.vstack([scene.ris_centers[~tx_row][::3], scene.tx, scene.rx.antennas,
                             outside])
        got = segments_clear_batch(origins[:, None, :], ends, scene.wall_table)
        assert got.shape == (len(origins), len(ends))
        rows = [segments_clear_batch(a, ends, scene.wall_table) for a in origins]
        np.testing.assert_array_equal(got, rows)
        for a, row in zip(origins, got):
            assert row.tolist() == [segment_clear(a, b, scene.walls, scene.openings)
                                    for b in ends]
        assert (~got[:, :-len(door_edges)]).all(axis=1).any()   # an origin that sees no unit

    @pytest.mark.parametrize("turn", ["rotated", "tilted"])
    @pytest.mark.parametrize("which", ["default", "three_rooms"])
    def test_determined_segments_match_oracle_near_planes(self, which, turn):
        # origins 1e-9 and 3e-9 m to either side of every wall plane, to RIS
        # units, in a scene turned off the axes; wherever rounding cannot
        # change the answer, the batch test gives the oracle's
        rng = np.random.default_rng(10)
        scene = three_room_scene() if which == "three_rooms" else build_scene(SceneParams(), 0.5, 1)
        origins = [ris_on_wall(w, *rng.uniform(-1.0, 1.0, 2) * (w.u_extent, w.v_extent))
                   + offset * np.asarray(w.n) for w in scene.walls for _ in range(2)
                   for offset in (1e-9, -1e-9, 3e-9, -3e-9)]
        turns = {"rotated": rng.normal(size=(3, 3)),
                 "tilted": np.eye(3) + 1e-3 * rng.normal(size=(3, 3))}
        Q, upper = np.linalg.qr(turns[turn])
        R = Q * np.sign(np.diag(upper))     # a tilt stays near the identity
        scene = rotate_scene(scene, R)
        origins = np.array([R @ a for a in origins])
        ends = scene.ris_centers[::4]
        scale = max(np.abs(scene.wall_table.p0).max(), np.abs(origins).max(),
                    np.abs(ends).max(), 1.0)
        rounding = 32.0 * np.finfo(float).eps * scale
        got = segments_clear_batch(origins[:, None, :], ends, scene.wall_table)
        determined = 0
        for a, row in zip(origins, got.tolist()):
            for b, clear in zip(ends, row):
                if segment_determined(a, b, scene.walls, scene.openings, rounding):
                    determined += 1
                    assert clear == segment_clear(a, b, scene.walls, scene.openings)
        # undetermined: mostly an origin and a unit on one plane, about 1 in 7
        assert determined >= 0.8 * got.size


class TestWallTest:
    """`WallTable.solid`, the wall test of `trace_walls` and
    `segments_clear_batch`, against the scalar oracles."""

    scene = build_scene(SceneParams(), d_r=0.5, m_side=4)
    # 0.5 slack inside an edge's tolerance, 2 slack past it, either side
    NEAR = [s * f * EXTENT_SLACK for s in (-1.0, 1.0) for f in (0.5, 2.0)]
    CASES = ["door", "no_door", "three_rooms"]

    def case(self, name):
        """(walls, openings of the table, openings whose edges to probe)."""
        scene = three_room_scene() if name == "three_rooms" else self.scene
        return scene.walls, [] if name == "no_door" else scene.openings, scene.openings

    @classmethod
    def near_edges(cls, wall, openings):
        """The u values, then the v values, near the edges of `wall` and of
        every opening, on that wall or not."""
        u_edges = [wall.u_extent, -wall.u_extent] + [op.u_center + s * op.u_half
                                                     for op in openings for s in (-1.0, 1.0)]
        v_edges = [wall.v_extent, -wall.v_extent] + [op.v_center + s * op.v_half
                                                     for op in openings for s in (-1.0, 1.0)]
        return [[e + d for e in edges for d in cls.NEAR] for edges in (u_edges, v_edges)]

    @staticmethod
    def assert_like_oracle(walls, openings, u, v):
        """solid on (n, W) coordinates, column k of u and v on walls[k],
        for all columns at once, one column and one point."""
        table = WallTable(walls, openings)
        want = [[_on_wall(w, a, b) and not _in_opening(w, a, b, openings)
                 for w, a, b in zip(walls, ru, rv)] for ru, rv in zip(u.tolist(), v.tolist())]
        assert table.solid(slice(None), u, v).tolist() == want
        for k in range(len(walls)):
            assert table.solid(k, u[:, k], v[:, k]).tolist() == [row[k] for row in want]
            assert bool(table.solid(k, float(u[0, k]), float(v[0, k]))) == want[0][k]

    @pytest.mark.parametrize("name", CASES)
    def test_every_edge_point(self, name):
        walls, openings, probed = self.case(name)
        grids = [np.meshgrid(*self.near_edges(w, probed)) for w in walls]
        u = np.stack([g[0].ravel() for g in grids], axis=1)
        v = np.stack([g[1].ravel() for g in grids], axis=1)
        self.assert_like_oracle(walls, openings, u, v)

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(CASES), data=st.data())
    def test_edge_and_random_points(self, name, data):
        walls, openings, probed = self.case(name)
        n = data.draw(st.integers(1, 4))
        uv = np.array([[[data.draw(st.sampled_from(near) | st.floats(-4.0, 4.0))
                         for near in self.near_edges(w, probed)] for w in walls]
                       for _ in range(n)])     # (n, W, 2)
        self.assert_like_oracle(walls, openings, uv[..., 0], uv[..., 1])

    # divider boxes (u_lo, u_hi, v_lo, v_hi) with (every point wall, no point
    # wall), ARRAY_MARGIN to spare: the doorway spans |u| <= 0.6, |v| <= 1.1
    # and the wall |u| <= 2.5; an edge lies EXTENT_SLACK past each
    BOXES = [((1.0, 2.0, -1.0, 1.0), (True, False)),
             ((-0.5, 0.5, -1.0, 1.0), (False, True)),
             ((3.0, 4.0, 0.0, 0.0), (False, True)),
             ((0.5, 1.0, 0.0, 0.0), (False, False)),
             ((0.6 + EXTENT_SLACK + 0.5 * ARRAY_MARGIN, 1.0, 0.0, 0.0), (False, False)),
             ((0.6 + EXTENT_SLACK + 2.0 * ARRAY_MARGIN, 1.0, 0.0, 0.0), (True, False)),
             ((2.0, 2.5 + EXTENT_SLACK - 0.5 * ARRAY_MARGIN, 0.0, 0.0), (False, False)),
             ((2.0, 2.5 + EXTENT_SLACK - 2.0 * ARRAY_MARGIN, 0.0, 0.0), (True, False)),
             ((2.5 + EXTENT_SLACK + 0.5 * ARRAY_MARGIN, 3.0, 0.0, 0.0), (False, False)),
             ((2.5 + EXTENT_SLACK + 2.0 * ARRAY_MARGIN, 3.0, 0.0, 0.0), (False, True)),
             ((0.0, 0.0, 1.1 + EXTENT_SLACK + 2.0 * ARRAY_MARGIN, 1.4), (True, False)),
             ((0.0, 0.0, 1.1 + EXTENT_SLACK - 2.0 * ARRAY_MARGIN, 1.4), (False, False))]

    def test_box_solid(self):
        table = self.scene.wall_table
        boxes = np.array([b for b, _ in self.BOXES])
        lo, hi = boxes[:, [0, 2]].T, boxes[:, [1, 3]].T
        every, none = table.box_solid(0, lo, hi)
        assert list(zip(every.tolist(), none.tolist())) == [want for _, want in self.BOXES]
        # where decided, the answer holds at each corner of the box
        for u in (lo[0], hi[0]):
            for v in (lo[1], hi[1]):
                solid = table.solid(0, u, v)
                assert (solid[every]).all() and not solid[none].any()
        # the side walls have no opening: the doorway's box is wall there
        every, none = table.box_solid(1, lo[:, 1:2], hi[:, 1:2])
        assert every.tolist() == [True] and none.tolist() == [False]

    def test_trace_and_line_of_sight_agree_at_the_door(self):
        # rays from the antennas to divider points near the door's edges and
        # corners: the trace stops on the divider exactly when the segment to
        # the point 1 mm past it is blocked
        (op,) = self.scene.openings
        divider = self.scene.walls[0]
        assert divider.id == op.wall_id == 0
        uv = [(op.u_center + du * op.u_half + (eu if du else 0.0),
               op.v_center + dv * op.v_half + (ev if dv else 0.0))
              for du in (-1, 0, 1) for dv in (-1, 0, 1) if du or dv
              for eu in self.NEAR for ev in self.NEAR]
        points = np.array([divider.p0 + u * divider.u_axis + v * divider.v_axis
                           for u, v in sorted(set(uv))])
        table = self.scene.wall_table
        blocked_seen = set()
        for a in self.scene.rx.antennas:
            dirs = unit(points - a)
            first, _ = trace_walls(np.tile(a, (len(points), 1)), dirs, table)
            ends = a + (np.linalg.norm(points - a, axis=1) + 1e-3)[:, None] * dirs
            blocked = ~segments_clear_batch(a, ends, table)
            assert ((first == 0) == blocked).all()
            blocked_seen.update(blocked.tolist())
        assert blocked_seen == {False, True}


class TestArrayVisibility:
    """`array_visibility` decides nothing it cannot prove for every origin."""

    def test_endpoint_at_an_origin_is_undecided(self):
        # no walls: every segment is clear except the zero-length one
        points = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        ends = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [3.0, 0.0, 0.0]])
        seen, hidden = array_visibility(points, ends, WallTable([]))
        assert seen.tolist() == [False, False, True] and not hidden.any()
        rows = segments_clear_batch(points[:, None, :], ends, WallTable([]))
        assert rows.tolist() == [[False, True, True], [True, True, True]]


class TestTileWall:
    def wall_4x3(self):
        return WallPlane(id=0, p0=(0, 0, 0), n=(0, 0, 1.0),
                         u_axis=(1.0, 0, 0), v_axis=(0, 1.0, 0),
                         u_extent=2.0, v_extent=1.5)

    def test_grid_counts(self):
        assert len(tile_wall(self.wall_4x3(), 1.0)) == 12
        assert len(tile_wall(self.wall_4x3(), 0.5)) == 48

    def test_too_small_wall(self):
        assert tile_wall(self.wall_4x3(), 5.0).shape == (0, 3)

    def test_margin(self):
        # 4x3 wall, margin 0.5 -> usable 3x2 -> 3x2 units of 1.0
        assert len(tile_wall(self.wall_4x3(), 1.0, margin=0.5)) == 6

    def test_doorway_skip_matches_bruteforce(self):
        wall = self.wall_4x3()
        door = Aperture(wall_id=0, u_center=0.0, v_center=-0.5,
                        u_half=0.5, v_half=1.0)
        d_r = 0.5
        units = tile_wall(wall, d_r, openings=[door])
        # brute-force overlap enumeration over the full grid
        n_u, n_v = 8, 6
        u0, v0 = -2.0, -1.5
        expect = 0
        for iv in range(n_v):
            for iu in range(n_u):
                u_lo, v_lo = u0 + iu * d_r, v0 + iv * d_r
                if not (u_lo < 0.5 and u_lo + d_r > -0.5
                        and v_lo < 0.5 and v_lo + d_r > -1.5):
                    expect += 1
        assert len(units) == expect

    def test_units_disjoint_and_inside(self):
        wall = self.wall_4x3()
        for d_r in (0.3, 0.7, 1.1):
            units = tile_wall(wall, d_r)
            uvs = [local_uv(wall, c) for c in units]
            h = d_r / 2
            for u, v in uvs:
                assert abs(u) + h <= wall.u_extent + 1e-9
                assert abs(v) + h <= wall.v_extent + 1e-9
            for i in range(len(uvs)):
                for j in range(i + 1, len(uvs)):
                    du = abs(uvs[i][0] - uvs[j][0])
                    dv = abs(uvs[i][1] - uvs[j][1])
                    assert du >= d_r - 1e-9 or dv >= d_r - 1e-9

    def test_ids_row_major(self):
        units = tile_wall(self.wall_4x3(), 1.0)
        assert units.shape == (12, 3)
        uvs = [local_uv(self.wall_4x3(), c) for c in units]
        # v ascends in the outer loop, u in the inner
        assert uvs == sorted(uvs, key=lambda t: (t[1], t[0]))


@given(st.floats(0.05, 2.0), st.floats(0.0, 0.5))
@settings(max_examples=50, deadline=None)
def test_tile_wall_never_exceeds_extents(d_r, margin):
    wall = WallPlane(id=0, p0=(0, 0, 0), n=(0, 0, 1.0), u_axis=(1.0, 0, 0),
                     v_axis=(0, 1.0, 0), u_extent=1.7, v_extent=1.2)
    for c in tile_wall(wall, d_r, margin=margin):
        u, v = local_uv(wall, c)
        assert abs(u) + d_r / 2 <= wall.u_extent - margin + 1e-9
        assert abs(v) + d_r / 2 <= wall.v_extent - margin + 1e-9
