"""Voltage-controlled optical antenna model and pattern synthesis.

Element amplitude follows the applied control voltage up to saturation, so
switching elements between 0 and v_sat reshapes the radiated pattern of an
emitter array; ``synthesize_pattern`` finds the on/off mask that steers it
toward a target.  A node's selectable patterns reach the channel through one
table type, ``SampledPatternTable``: sampled azimuth gain profiles, which the
channel asks for one pattern's gains toward many azimuths at once.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

EXHAUSTIVE_LIMIT = 12  # full mask search up to 2^12 weight vectors


@dataclass(frozen=True)
class ElementConfig:
    a_off: float = 0.0
    a_on: float = 1.0
    v_sat: float = 1.0

    def __post_init__(self) -> None:
        if self.v_sat <= 0:
            raise ValueError("v_sat must be positive")
        if self.a_on < self.a_off:
            raise ValueError("a_on must be >= a_off")


def element_amplitude(voltage: float, cfg: ElementConfig = ElementConfig()) -> float:
    """Amplitude of one element vs control voltage: linear ramp, then saturation."""
    if voltage < 0:
        raise ValueError("voltage must be non-negative")
    return cfg.a_off + (cfg.a_on - cfg.a_off) * min(voltage / cfg.v_sat, 1.0)


class ElementArray:
    """Emitting elements at fixed positions sharing one carrier wavelength."""

    def __init__(self, positions, wavelength: float, element: ElementConfig = ElementConfig()):
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be an (n, 3) array")
        if len(self.positions) == 0:
            raise ValueError("array needs at least one element")
        if wavelength <= 0:
            raise ValueError("wavelength must be positive")
        self.wavelength = wavelength
        self.element = element

    def __len__(self) -> int:
        return len(self.positions)


def array_factor(arr: ElementArray, weights, direction) -> complex:
    """Coherent sum of element contributions toward a unit direction."""
    w = np.asarray(weights, dtype=float)
    u = np.asarray(direction, dtype=float)
    phases = (2.0 * math.pi / arr.wavelength) * (arr.positions @ u)
    return complex(np.sum(w * np.exp(1j * phases)))


def gain(arr: ElementArray, weights, direction) -> float:
    """|AF|^2 normalized by the active weight budget; 1.0 at perfect coherence."""
    w = np.asarray(weights, dtype=float)
    denom = np.sum(np.abs(w)) ** 2
    if denom == 0:
        return 0.0
    return abs(array_factor(arr, w, direction)) ** 2 / denom


def _steered_power(arr: ElementArray, mask: np.ndarray, direction, on_amp: float) -> float:
    # Synthesis objective: absolute power toward the target for a fixed element
    # budget, |AF|^2 / n_total^2.  Normalizing by active weights instead would
    # rate any single element a perfect pattern.
    af = array_factor(arr, mask * on_amp, direction)
    return abs(af) ** 2 / (len(arr) * on_amp) ** 2


@dataclass
class SynthesizedPattern:
    mask: tuple[int, ...]  # 1 = element at v_sat, 0 = off
    target: tuple[float, float, float] | None
    target_power: float


def synthesize_pattern(arr: ElementArray, target) -> SynthesizedPattern:
    """Best on/off mask toward one target direction.

    Exhaustive over all masks up to EXHAUSTIVE_LIMIT elements (ties resolve to
    the lexicographically smallest mask); deterministic greedy flips beyond.
    """
    on_amp = element_amplitude(arr.element.v_sat, arr.element)
    u = np.asarray(target, dtype=float)
    n = len(arr)
    if n <= EXHAUSTIVE_LIMIT:
        best_mask: tuple[int, ...] | None = None
        best_p = -1.0
        for bits in product((0, 1), repeat=n):
            p = _steered_power(arr, np.array(bits, dtype=float), u, on_amp)
            if p > best_p + 1e-15:
                best_mask, best_p = bits, p
        assert best_mask is not None
        return SynthesizedPattern(best_mask, tuple(u), best_p)
    mask = np.ones(n)
    best_p = _steered_power(arr, mask, u, on_amp)
    improved = True
    while improved:
        improved = False
        for k in range(n):
            mask[k] = 1.0 - mask[k]
            p = _steered_power(arr, mask, u, on_amp)
            if p > best_p + 1e-15:
                best_p = p
                improved = True
            else:
                mask[k] = 1.0 - mask[k]
    return SynthesizedPattern(tuple(int(m) for m in mask), tuple(u), best_p)


def azimuth_deg(direction) -> float:
    """Lateral azimuth of a 3D direction in [0, 360); straight up/down maps to 0."""
    az = math.degrees(math.atan2(direction[1], direction[0]))
    return az % 360.0 if (direction[0], direction[1]) != (0.0, 0.0) else 0.0


class SampledPatternTable:
    """Azimuth-sampled gain profiles with periodic linear interpolation.

    Gain is taken over the lateral azimuth of the direction; elevation is not
    resolved (detector sides handle the vertical dimension separately).  The
    period is closed once, at construction: the first sample is repeated at
    ``azimuths[0] + 360``, so ``gain`` and ``gains_at`` interpolate over the
    same arrays and give the same value for the same azimuth.
    """

    def __init__(self, azimuths_deg, gains):
        self.azimuths = np.asarray(azimuths_deg, dtype=float)
        self.gains = np.asarray(gains, dtype=float)
        if self.gains.ndim != 2 or self.gains.shape[1] != len(self.azimuths):
            raise ValueError("gains must be (n_patterns, n_azimuths)")
        if np.any(np.diff(self.azimuths) <= 0):
            raise ValueError("azimuths must be strictly increasing")
        if np.any(self.gains < 0):
            raise ValueError("gains must be non-negative")
        self.n_patterns = self.gains.shape[0]
        self._xs = np.append(self.azimuths, self.azimuths[0] + 360.0)
        self._ys = np.concatenate([self.gains, self.gains[:, :1]], axis=1)

    def gain(self, pattern: int, direction) -> float:
        return float(self.gains_at(pattern, azimuth_deg(direction)))

    def gains_at(self, pattern: int, azimuths) -> np.ndarray:
        """Gain of ``pattern`` toward each of ``azimuths`` (degrees in
        [0, 360)) in one interpolation; a scalar azimuth gives a scalar."""
        return np.interp(azimuths, self._xs, self._ys[pattern])

    def to_text(self) -> str:
        """Dump as `pattern <id> mask -` blocks with one azimuth/gain row
        every 5 degrees."""
        out = io.StringIO()
        azs = np.arange(0.0, 360.0, 5.0)
        for p in range(self.n_patterns):
            out.write(f"pattern {p} mask -\n")
            for az in azs:
                rad = math.radians(az)
                g = self.gain(p, (math.cos(rad), math.sin(rad), 0.0))
                out.write(f"{az:.1f} {g:.9e}\n")
            out.write("\n")
        return out.getvalue()
