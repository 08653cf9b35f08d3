"""Hexagonal deployment grid and node poses.

The signal laser divides the treated area into hexagonal cells (axial
coordinates, pointy-top).  Cell coloring by (q - r) mod 3 three-colors the
grid so adjacent cells never share a transmit subcycle.  Position ids come
from a row-major scan of the grid extent, mirroring the order in which the
controller's laser spot visits cells.

Node poses are 3D: the lateral (x, y) position selects the cell, depth (z) is
free.  Each node has a surface normal separating its two detectors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .timebase import Subcycle

SQRT3 = math.sqrt(3.0)

Cell = tuple[int, int]


@dataclass(frozen=True)
class HexGrid:
    """Pointy-top axial grid.

    rows gives the scanned extent as (r, q_min, q_max) spans, one per row,
    r strictly increasing.  cell_radius is center-to-vertex in world units.
    """

    cell_radius: float
    rows: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.cell_radius <= 0:
            raise ValueError("cell_radius must be positive")
        last_r = None
        for r, q0, q1 in self.rows:
            if q1 < q0:
                raise ValueError(f"row r={r} has empty q span")
            if last_r is not None and r <= last_r:
                raise ValueError("row r values must be strictly increasing")
            last_r = r

    @classmethod
    def rect(cls, cell_radius: float, q0: int, q1: int, r0: int, r1: int) -> "HexGrid":
        return cls(cell_radius, tuple((r, q0, q1) for r in range(r0, r1 + 1)))

    def scan_cells(self) -> list[Cell]:
        """Cells in row-major scan order (r ascending, then q ascending)."""
        return [(q, r) for r, q0, q1 in self.rows for q in range(q0, q1 + 1)]

    def scan_index(self, cell: Cell) -> int:
        """Index of the cell in ``scan_cells()``, or -1 if no row holds it."""
        q, r = cell
        start = 0
        for row_r, q0, q1 in self.rows:
            if row_r == r:
                return start + q - q0 if q0 <= q <= q1 else -1
            start += q1 - q0 + 1
        return -1

    def contains(self, cell: Cell) -> bool:
        return self.scan_index(cell) >= 0

    def position_of(self, point: tuple[float, ...]) -> int:
        """Position id of a point: the scan index of its ``cell_of``, or -1
        if the grid does not scan that cell or the cell is not finite."""
        cell = _nearest_cell(self, point[0], point[1])
        return -1 if cell is None else self.scan_index(cell)

    def center(self, cell: Cell) -> tuple[float, float]:
        q, r = cell
        s = self.cell_radius
        return s * SQRT3 * (q + r / 2.0), s * 1.5 * r


def cell_of(point: tuple[float, ...], grid: HexGrid) -> Cell | None:
    """Nearest-center cell of a point's lateral (x, y) projection, or None
    when its cell coordinates overflow (a point far out on a fine grid).

    Equidistant points break toward the lexicographically smaller (q, r).
    Nodes and clusters do not move, so every run asks again for the same
    points: answers are kept in a bounded memo.
    """
    return _nearest_cell(grid, point[0], point[1])


@functools.lru_cache(maxsize=1024)
def _nearest_cell(grid: HexGrid, x: float, y: float) -> Cell | None:
    s = grid.cell_radius
    rf = y / (1.5 * s)
    qf = x / (SQRT3 * s) - rf / 2.0
    if not (math.isfinite(qf) and math.isfinite(rf)):
        return None
    q0, r0 = round(qf), round(rf)
    # distances within this of each other tie, on a grid of any scale
    tie = 1e-12 * s
    best: Cell | None = None
    best_d = math.inf
    for dq in (-1, 0, 1):
        for dr in (-1, 0, 1):
            cand = (q0 + dq, r0 + dr)
            cx, cy = grid.center(cand)
            d = math.hypot(x - cx, y - cy)
            if d < best_d - tie or (abs(d - best_d) <= tie
                                    and (best is None or cand < best)):
                best, best_d = cand, d
    return best


def working_mode_of(cell: Cell) -> Subcycle:
    """Three-coloring: (q - r) mod 3 -> T1/T2/T3.  Adjacent cells differ."""
    q, r = cell
    return Subcycle((q - r) % 3 + 1)


def neighbors(cell: Cell) -> list[Cell]:
    q, r = cell
    return [(q + 1, r), (q - 1, r), (q, r + 1), (q, r - 1), (q + 1, r - 1), (q - 1, r + 1)]


@dataclass
class NodePose:
    position: tuple[float, float, float]
    normal: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        n = math.hypot(*self.normal)
        if n == 0:
            raise ValueError("normal must be nonzero")
        self.normal = tuple(c / n for c in self.normal)  # type: ignore[assignment]
