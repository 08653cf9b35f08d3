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


@st.composite
def ragged_grids(draw):
    """Rows at distinct, possibly negative r, each with its own q span."""
    rs = sorted(draw(st.sets(st.integers(-12, 12), min_size=1, max_size=6)))
    rows = []
    for r in rs:
        q0 = draw(st.integers(-12, 12))
        rows.append((r, q0, q0 + draw(st.integers(0, 8))))
    return HexGrid(draw(st.sampled_from((0.25, 0.8, 1.0, 3.5))), tuple(rows))


@given(ragged_grids(), st.integers(-14, 14), st.integers(-14, 14))
def test_position_of_is_the_scan_index(grid, q, r):
    scan = grid.scan_cells()
    for idx, cell in enumerate(scan):
        assert grid.position_of(grid.center(cell) + (0.0,)) == idx
        assert grid.scan_index(cell) == idx
    want = scan.index((q, r)) if (q, r) in scan else -1
    assert grid.position_of(grid.center((q, r)) + (2.0,)) == want
    assert grid.contains((q, r)) == (want >= 0)


def test_position_of_a_wide_row_needs_no_scan():
    # 2 * 10**12 + 1 cells: counting, not listing, finds the index
    grid = HexGrid(1.0, ((-1, 0, 0), (0, -10**12, 10**12)))
    assert grid.position_of(grid.center((10**12 - 5, 0))) == 2 * 10**12 - 4
    assert grid.position_of(grid.center((0, -1))) == 0
    assert grid.position_of(grid.center((1, -1))) == -1


def test_position_of_a_cell_past_float_range_is_minus_one():
    # on a subnormal radius the cell coordinates of any point off the origin
    # overflow
    grid = HexGrid(1e-320, ((0, -1, 1),))
    assert grid.position_of((2.0, 0.0, 0.0)) == -1
    assert grid.position_of((0.0, -3.0, 0.0)) == -1
    assert cell_of((2.0, 0.0, 0.0), grid) is None
    # the cell coordinates of the largest float are finite on a unit grid,
    # but every candidate centre around them overflows
    big = HexGrid(1.0, ((0, 0, 1),))
    assert cell_of((0.0, 1.7976931348623157e308, 0.0), big) is None
    assert big.position_of((0.0, 1.7976931348623157e308, 0.0)) == -1


def test_cell_of_tie_breaks_to_smaller_cell():
    grid = HexGrid(1.0, ((0, 0, 1),))
    # midpoint between the (0,0) and (1,0) centers is equidistant to both
    midpoint = (SQRT3 / 2, 0.0, 0.0)
    assert cell_of(midpoint, grid) == (0, 0)


def test_a_grid_finer_than_the_tie_tolerance_positions_its_cells():
    # ties are within a share of the radius: on a 1e-13 grid, an absolute
    # 1e-12 would tie all nine candidates and map every point to the
    # smallest, which no row holds
    grid = HexGrid(1e-13, ((0, 0, 1),))
    assert grid.position_of(grid.center((0, 0)) + (0.0,)) == 0
    assert grid.position_of(grid.center((1, 0)) + (0.0,)) == 1
    assert cell_of((SQRT3 / 2 * 1e-13, 0.0, 0.0), grid) == (0, 0)


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


def test_normal_norm_neither_underflows_nor_overflows():
    # the squares of these components leave float range; their norm does not
    tiny = NodePose((0.0, 0.0, 0.0), normal=(0.0, 0.0, 1e-200))
    assert tiny.normal == (0.0, 0.0, 1.0)
    huge = NodePose((0.0, 0.0, 0.0), normal=(1e200, 0.0, -1e200))
    assert huge.normal == pytest.approx((math.sqrt(0.5), 0.0, -math.sqrt(0.5)))
    rx = NodePose((0.0, 0.0, 0.0), normal=(1e200, 0.0, 0.0))
    assert rx.normal == (1.0, 0.0, 0.0)
    assert geometry_between(NodePose((1.0, 0.0, 0.0)), rx).side_at_b == "top"
    assert geometry_between(NodePose((-1.0, 0.0, 0.0)), rx).side_at_b == "bottom"


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
