import numpy as np
import pytest

from pwesim.geometry import AntennaArray, WallPlane, tile_wall
from pwesim.scene import Scene


def box_walls(size=(4.0, 4.0, 3.0), id_start=0):
    """Six walls of a closed axis-aligned box [0,sx]x[0,sy]x[0,sz]."""
    sx, sy, sz = size
    ex, ey, ez = np.eye(3)
    cx, cy, cz = sx / 2, sy / 2, sz / 2
    i = id_start
    return [
        WallPlane(id=i + 0, p0=(cx, cy, 0.0), n=ez, u_axis=ex, v_axis=ey,
                  u_extent=cx, v_extent=cy),
        WallPlane(id=i + 1, p0=(cx, cy, sz), n=ez, u_axis=ex, v_axis=ey,
                  u_extent=cx, v_extent=cy),
        WallPlane(id=i + 2, p0=(cx, 0.0, cz), n=ey, u_axis=ex, v_axis=ez,
                  u_extent=cx, v_extent=cz),
        WallPlane(id=i + 3, p0=(cx, sy, cz), n=ey, u_axis=ex, v_axis=ez,
                  u_extent=cx, v_extent=cz),
        WallPlane(id=i + 4, p0=(0.0, cy, cz), n=ex, u_axis=ey, v_axis=ez,
                  u_extent=cy, v_extent=cz),
        WallPlane(id=i + 5, p0=(sx, cy, cz), n=ex, u_axis=ey, v_axis=ez,
                  u_extent=cy, v_extent=cz),
    ]


def single_antenna_array(position, boresight=(0.0, 0.0, 1.0)):
    return AntennaArray(antennas=(np.asarray(position, dtype=float),),
                        rows=1, cols=1, boresight=boresight)


def ris_on_wall(wall, u, v):
    """Center of a RIS unit at in-plane offset (u, v) on `wall`."""
    return wall.p0 + u * wall.u_axis + v * wall.v_axis


def tiled_ris(walls, d_r, openings=()):
    """`Scene` RIS keywords for `tile_wall` grids on `walls`, in wall order;
    `ris_grid` gives the scene their cell table."""
    per_wall = [tile_wall(w, d_r, openings=openings) for w in walls]
    return dict(ris_centers=np.concatenate(per_wall),
                ris_walls=np.repeat([w.id for w in walls], [len(c) for c in per_wall]),
                ris_grid=d_r)


def rotate_scene(scene, R):
    """`scene` rotated rigidly by the orthogonal matrix R; ids unchanged.
    `ris_grid` is a pitch in wall coordinates, so it carries over as it is."""
    def rw(w):
        return WallPlane(id=w.id, p0=R @ w.p0, n=R @ w.n,
                         u_axis=R @ w.u_axis, v_axis=R @ w.v_axis,
                         u_extent=w.u_extent, v_extent=w.v_extent)

    ris = [R @ c for c in scene.ris_centers]
    rx = AntennaArray(antennas=tuple(R @ np.asarray(a) for a in scene.rx.antennas),
                      rows=scene.rx.rows, cols=scene.rx.cols,
                      boresight=R @ np.asarray(scene.rx.boresight, float))
    return Scene(walls=[rw(w) for w in scene.walls], openings=list(scene.openings),
                 ris_centers=ris, ris_walls=scene.ris_walls,
                 tx=R @ np.asarray(scene.tx, float), rx=rx, ris_grid=scene.ris_grid)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
