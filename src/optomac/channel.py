"""On-off-keyed optical channel with two detectors per node.

Light from simultaneous transmitters adds, so a detector's bit is the OR of
any sufficiently strong arrivals: power can only raise a bit, never lower it.
Each node carries one detector per side of its plane (top/bottom), which is
what lets frames arriving from distinct sides be separated.  Wavelength
filters split the medium into three logical channels: first-layer frames,
second-layer fluorescence, and the simplex second-layer command channel.

Nodes are stationary, so ``build_power_map`` precomputes the channel as
plain float tables indexed in config order, in pure Python: each pair's
distance and exponential attenuation are taken once for both directions,
and each link's place among the transmitter's gain samples once for all of
its patterns.  The engine reads each detector's bit and collision evidence
straight from the table rows, summing the emitters' entries per side and
counting the individually strong ones.
``superpose`` builds the full reading of one detector from ``Arrival``
values; it is the reference the tests and the scorecard check the tables
against.

Collision evidence (two individually strong arrivals at one detector) is a
simulator-side observation used by metrics and tests; protocol code only ever
sees detector bits and frame-format failures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .antenna import SampledPatternTable
from .geometry import NodePose


@dataclass(frozen=True)
class ChannelConfig:
    mu: float = 0.5             # attenuation exponent per unit distance
    theta_detect: float = 0.01  # first-layer detector threshold
    theta_fluor: float = 1e-4   # fluorescence detection threshold
    tx_power: float = 1.0       # first-layer emitter power

    def __post_init__(self) -> None:
        for name in ("mu", "theta_detect", "theta_fluor", "tx_power"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite number, "
                                 f"got {value!r}")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if not 0 < self.theta_fluor < self.theta_detect:
            raise ValueError("need 0 < theta_fluor < theta_detect")
        if self.tx_power <= 0:
            raise ValueError("tx_power must be positive")


def received_power(tx_power: float, gain: float, distance: float, mu: float) -> float:
    """Spherical spreading with exponential tissue attenuation."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    if tx_power < 0 or gain < 0:
        raise ValueError("tx_power and gain must be non-negative")
    return tx_power * gain * math.exp(-mu * distance) / (4.0 * math.pi * distance * distance)


@dataclass(frozen=True)
class Arrival:
    """One transmitter's contribution at one receiver, fixed by geometry."""
    source: str
    power: float
    side: str  # "top" | "bottom"


@dataclass(frozen=True)
class DetectorReading:
    power: float = 0.0
    bit: int = 0
    strong: tuple[str, ...] = ()   # sources individually >= theta_detect
    evidence: bool = False         # >= 2 distinct strong first-layer sources


def superpose(arrivals: list[Arrival], cfg: ChannelConfig) -> tuple[DetectorReading, DetectorReading]:
    """Combine simultaneous 1-bit arrivals into per-detector readings."""
    readings = []
    for side in ("top", "bottom"):
        power = 0.0
        strong: list[str] = []
        for a in arrivals:
            if a.side != side:
                continue
            power += a.power
            if a.power >= cfg.theta_detect:
                strong.append(a.source)
        readings.append(DetectorReading(
            power=power,
            bit=1 if power >= cfg.theta_detect else 0,
            strong=tuple(sorted(set(strong))),
            evidence=len(set(strong)) >= 2,
        ))
    return readings[0], readings[1]


@dataclass
class PowerMap:
    """Per-(tx, pattern, rx) arrival power and side, precomputed once.

    Nodes are stationary, so the channel inside the clock loop reduces to
    table reads.  Nodes are indexed in config order (``index``):
    ``power[tx][pattern][rx]`` is the power a pattern of ``tx`` delivers at
    ``rx``, 0.0 at ``tx`` itself, and ``top[tx][rx]`` whether that light
    lands on ``rx``'s top detector.
    """
    index: dict[str, int]
    power: list[list[list[float]]]
    top: list[list[bool]]

    def arrival(self, tx: str, pattern: int, rx: str) -> Arrival:
        i, j = self.index[tx], self.index[rx]
        rows = self.power[i]
        if i == j or not 0 <= pattern < len(rows):
            raise KeyError((tx, pattern, rx))
        return Arrival(tx, rows[pattern][j],
                       "top" if self.top[i][j] else "bottom")


def build_power_map(poses: dict[str, NodePose],
                    tables: dict[str, SampledPatternTable],
                    cfg: ChannelConfig) -> PowerMap:
    """Precompute the power tables for all pairs; ``tables`` maps each node
    to its own gain table.

    Per unordered pair, the distance, ``exp(-mu d)`` and ``4 pi d^2`` are
    taken once: the reverse link's offsets are the negated ones, and
    negation is exact, so both directions have the same ``d``.  Per link,
    the azimuth is placed among the transmitter's samples once
    (``SampledPatternTable.bracket``), and every pattern's gain is read
    there.  Each entry repeats the IEEE operations of the link geometry (the
    reference ``geometry_between`` in ``tests/oracles.py``), ``azimuth_deg``
    and ``received_power`` in their order, so it equals
    ``received_power(tx_power, table.gain(p, direction), distance, mu)`` bit
    for bit.
    """
    names = tuple(poses)
    n = len(names)
    pose_list = [poses[name] for name in names]
    tx_power, mu = cfg.tx_power, cfg.mu
    top = [[True] * n for _ in names]
    # (azimuth, exp(-mu d), 4 pi d^2) of each transmitter's links, in
    # receiver order
    links: list[list[tuple[float, float, float]]] = [[] for _ in names]
    for i, a in enumerate(pose_list):
        ax, ay, az = a.position
        for j in range(i + 1, n):
            b = pose_list[j]
            bx, by, bz = b.position
            dx, dy, dz = bx - ax, by - ay, bz - az
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if d == 0:
                raise ValueError("poses are coincident")
            ux, uy, uz = dx / d, dy / d, dz / d
            e, den = math.exp(-mu * d), 4.0 * math.pi * d * d
            nx, ny, nz = b.normal
            top[i][j] = -ux * nx + -uy * ny + -uz * nz >= 0
            nx, ny, nz = a.normal
            top[j][i] = ux * nx + uy * ny + uz * nz >= 0
            # ``azimuth_deg`` of the link and of its reverse
            if ux != 0.0 or uy != 0.0:
                fwd = math.degrees(math.atan2(uy, ux)) % 360.0
                back = math.degrees(math.atan2(-uy, -ux)) % 360.0
            else:
                fwd = back = 0.0
            links[i].append((fwd, e, den))
            links[j].append((back, e, den))
    power: list[list[list[float]]] = []
    for i, tx in enumerate(names):
        table = tables[tx]
        # links run in receiver order, so each row takes its 0.0 at ``i``
        cells = [(*table.bracket(x), e, den) for x, e, den in links[i]]
        rows = []
        for ys, slopes in zip(table.rows, table.slopes):
            # the gain is ``table.gain_at``'s formula at the shared bracket
            row = [tx_power * (ys[k] if t is None else slopes[k] * t + ys[k])
                   * e / den for k, t, e, den in cells]
            row.insert(i, 0.0)
            rows.append(row)
        power.append(rows)
    return PowerMap({name: i for i, name in enumerate(names)}, power, top)


def best_pattern(pm: PowerMap, tx: str, rx: str) -> int:
    """Index of the transmit pattern with the highest power at ``rx``.

    Ties resolve to the lowest index, matching what a node learns from
    pattern trials.
    """
    j = pm.index[rx]
    powers = [row[j] for row in pm.power[pm.index[tx]]]
    best = 0
    for p, value in enumerate(powers):
        if value > powers[best]:
            best = p
    return best
