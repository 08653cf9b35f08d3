"""On-off-keyed optical channel with two detectors per node.

Light from simultaneous transmitters adds, so a detector's bit is the OR of
any sufficiently strong arrivals: power can only raise a bit, never lower it.
Each node carries one detector per side of its plane (top/bottom), which is
what lets frames arriving from distinct sides be separated.  Wavelength
filters split the medium into three logical channels: first-layer frames,
second-layer fluorescence, and the simplex second-layer command channel.

Collision evidence (two individually strong arrivals at one detector) is a
simulator-side observation used by metrics and tests; protocol code only ever
sees detector bits and frame-format failures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .antenna import SampledPatternTable, azimuth_deg
from .geometry import NodePose, geometry_between


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


@dataclass(frozen=True)
class ChannelTick:
    """What one node's detectors see during one clock cycle."""
    top: DetectorReading = DetectorReading()
    bottom: DetectorReading = DetectorReading()


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

    Nodes are stationary, so channel evaluation inside the clock loop reduces
    to dictionary lookups.
    """
    arrivals: dict[tuple[str, int, str], Arrival] = field(default_factory=dict)

    def arrival(self, tx: str, pattern: int, rx: str) -> Arrival:
        return self.arrivals[(tx, pattern, rx)]


def build_power_map(poses: dict[str, NodePose],
                    tables: dict[str, SampledPatternTable],
                    cfg: ChannelConfig) -> PowerMap:
    """Precompute arrivals for all pairs; ``tables`` maps each node to its
    own gain table.

    Per transmitter, the receivers' geometry is taken once and each pattern's
    gain toward all of them comes from one ``gains_at`` interpolation; the
    power of each entry is then the scalar ``received_power``, so every entry
    equals ``received_power(tx_power, table.gain(p, direction), ...)``.
    """
    pm = PowerMap()
    for tx, tx_pose in poses.items():
        table = tables[tx]
        links = [(rx, geometry_between(tx_pose, rx_pose))
                 for rx, rx_pose in poses.items() if rx != tx]
        azimuths = [azimuth_deg(geo.direction) for _, geo in links]
        gains = [table.gains_at(p, azimuths).tolist()
                 for p in range(table.n_patterns)]
        for i, (rx, geo) in enumerate(links):
            for p, row in enumerate(gains):
                power = received_power(cfg.tx_power, row[i], geo.distance,
                                       cfg.mu)
                pm.arrivals[(tx, p, rx)] = Arrival(tx, power, geo.side_at_b)
    return pm


def reachable(pm: PowerMap, tables, tx: str, rx: str, cfg: ChannelConfig) -> bool:
    """Ground-truth physical reachability: any pattern delivers a detectable bit."""
    return any(pm.arrival(tx, p, rx).power >= cfg.theta_detect
               for p in range(tables[tx].n_patterns))


def best_pattern(pm: PowerMap, tables, tx: str, rx: str) -> int:
    """Index of the transmit pattern with the highest power at ``rx``.

    Ties resolve to the lowest index, matching what a node learns from
    pattern trials.
    """
    powers = [pm.arrival(tx, p, rx).power
              for p in range(tables[tx].n_patterns)]
    best = 0
    for p, value in enumerate(powers):
        if value > powers[best]:
            best = p
    return best
