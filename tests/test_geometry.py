"""Hex grid arithmetic, cell lookup, coloring and pose geometry."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from optomac.geometry import (
    SQRT3,
    HexGrid,
    NodePose,
    cell_of,
    neighbors,
    working_mode_of,
)
from optomac.timebase import Subcycle
from oracles import geometry_between


def test_centers():
    grid = HexGrid(1.0, ((0, 0, 3),))
    assert grid.center((0, 0)) == (0.0, 0.0)
    assert grid.center((1, 0)) == pytest.approx((SQRT3, 0.0))
    assert grid.center((0, 1)) == pytest.approx((SQRT3 / 2, 1.5))
    assert grid.center((2, -1)) == pytest.approx((1.5 * SQRT3, -1.5))


def test_center_scales_with_radius():
    grid = HexGrid(2.5, ((0, 0, 1),))
    x, y = grid.center((1, 1))
    assert (x, y) == pytest.approx((2.5 * SQRT3 * 1.5, 2.5 * 1.5))


def test_grid_validation():
    with pytest.raises(ValueError):
        HexGrid(0.0, ((0, 0, 1),))
    with pytest.raises(ValueError):
        HexGrid(1.0, ((0, 2, 1),))       # empty q span
    with pytest.raises(ValueError):
        HexGrid(1.0, ((1, 0, 1), (0, 0, 1)))  # rows not increasing


def test_scan_order_is_row_major():
    grid = HexGrid(1.0, ((-1, 0, 1), (0, -1, 1), (2, 3, 3)))
    assert grid.scan_cells() == [(0, -1), (1, -1),
                                 (-1, 0), (0, 0), (1, 0),
                                 (3, 2)]


def test_contains_respects_ragged_rows():
    grid = HexGrid(1.0, ((0, 0, 2), (1, 1, 1)))
    assert grid.contains((2, 0))
    assert grid.contains((1, 1))
    assert not grid.contains((0, 1))
    assert not grid.contains((0, -1))


def test_rect_builder():
    grid = HexGrid.rect(1.0, 0, 2, 0, 1)
    assert grid.rows == ((0, 0, 2), (1, 0, 2))
    assert len(grid.scan_cells()) == 6


def test_cell_of_center_roundtrip():
    grid = HexGrid(0.8, ((-2, -2, 2), (0, 0, 3), (5, -1, 1)))
    for cell in grid.scan_cells():
        x, y = grid.center(cell)
        assert cell_of((x, y, 0.0), grid) == cell


@given(st.integers(-6, 6), st.integers(-6, 6),
       st.floats(-0.35, 0.35), st.floats(-0.35, 0.35))
def test_cell_of_roundtrip_with_offset(q, r, dx, dy):
    # any point well inside a hex (inradius is ~0.866 of the radius) maps back
    grid = HexGrid(1.0, tuple((rr, -8, 8) for rr in range(-8, 9)))
    cx, cy = grid.center((q, r))
    assert cell_of((cx + dx, cy + dy, 0.0), grid) == (q, r)


def test_cell_of_tie_breaks_to_smaller_cell():
    grid = HexGrid(1.0, ((0, 0, 1),))
    # midpoint between the (0,0) and (1,0) centers is equidistant to both
    midpoint = (SQRT3 / 2, 0.0, 0.0)
    assert cell_of(midpoint, grid) == (0, 0)


def test_working_modes():
    assert working_mode_of((0, 0)) is Subcycle.T1
    assert working_mode_of((1, 0)) is Subcycle.T2
    assert working_mode_of((2, 0)) is Subcycle.T3
    assert working_mode_of((0, 1)) is Subcycle.T3
    assert working_mode_of((-1, -1)) is Subcycle.T1


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_coloring_is_proper_on_neighbours(q, r):
    mode = working_mode_of((q, r))
    for other in neighbors((q, r)):
        assert working_mode_of(other) is not mode


def test_neighbors_are_adjacent_centers():
    grid = HexGrid(1.0, ((0, 0, 0),))
    cx, cy = grid.center((3, -2))
    for cell in neighbors((3, -2)):
        nx, ny = grid.center(cell)
        assert math.hypot(nx - cx, ny - cy) == pytest.approx(SQRT3)
    assert len(set(neighbors((3, -2)))) == 6


def test_normal_is_normalized():
    pose = NodePose((0.0, 0.0, 0.0), normal=(0.0, 0.0, 2.0))
    assert pose.normal == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        NodePose((0.0, 0.0, 0.0), normal=(0.0, 0.0, 0.0))


def test_geometry_between_distance_and_direction():
    a = NodePose((0.0, 0.0, 0.0))
    b = NodePose((3.0, 0.0, 4.0))
    geo = geometry_between(a, b)
    assert geo.distance == pytest.approx(5.0)
    assert geo.direction == pytest.approx((0.6, 0.0, 0.8))


def test_detector_side_selection():
    below = NodePose((0.0, 0.0, -1.0))
    above = NodePose((0.0, 0.0, 1.0))
    rx = NodePose((0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0))
    assert geometry_between(above, rx).side_at_b == "top"
    assert geometry_between(below, rx).side_at_b == "bottom"
    # grazing incidence (signal in the detector plane) counts as top
    level = NodePose((1.0, 0.0, 0.0))
    assert geometry_between(level, rx).side_at_b == "top"


def test_geometry_between_rejects_coincident_poses():
    a = NodePose((1.0, 2.0, 3.0))
    b = NodePose((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        geometry_between(a, b)
