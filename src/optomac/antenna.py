"""Voltage-controlled optical antenna model and pattern synthesis.

Element amplitude follows the applied control voltage up to saturation, so
switching elements between 0 and v_sat reshapes the radiated pattern of an
emitter array; ``synthesize_pattern`` finds the on/off mask that steers it
toward a target.  Synthesis works on numpy arrays and imports numpy on first
use; no simulation run calls it.

A node's selectable patterns reach the channel through one table type,
``SampledPatternTable``: sampled azimuth gain profiles held as plain floats.
The channel finds each link's place among the samples once (``bracket``) and
reads every pattern's gain there.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, product
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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
        import numpy as np

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
    import numpy as np

    w = np.asarray(weights, dtype=float)
    u = np.asarray(direction, dtype=float)
    phases = (2.0 * math.pi / arr.wavelength) * (arr.positions @ u)
    return complex(np.sum(w * np.exp(1j * phases)))


def gain(arr: ElementArray, weights, direction) -> float:
    """|AF|^2 normalized by the active weight budget; 1.0 at perfect coherence."""
    import numpy as np

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
    import numpy as np

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
    ``azimuths[0] + 360``.  Samples, gains and each segment's slope are
    plain floats.  An azimuth below the first sample is taken one period
    up, into the closing segment, and a lookup then gives what
    ``np.interp`` gives over the closed samples, bit for bit: the slope of
    segment ``k`` is ``(y[k+1] - y[k]) / (x[k+1] - x[k])`` and the gain
    ``slope * (x - x[k]) + y[k]``, and a sample itself gives its own gain.
    """

    def __init__(self, azimuths_deg, gains):
        try:
            self.azimuths = tuple(map(float, azimuths_deg))
            self.gains = tuple(tuple(map(float, row)) for row in gains)
        except TypeError:
            raise ValueError("gains must be (n_patterns, n_azimuths)") from None
        n = len(self.azimuths)
        if n == 0 or not self.gains or any(len(row) != n for row in self.gains):
            raise ValueError("gains must be (n_patterns, n_azimuths)")
        if not all(map(math.isfinite, chain(self.azimuths, *self.gains))):
            raise ValueError("azimuths and gains must be finite")
        xs = self.azimuths + (self.azimuths[0] + 360.0,)
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError("azimuths must be strictly increasing and "
                             "span less than 360 degrees")
        if any(g < 0 for row in self.gains for g in row):
            raise ValueError("gains must be non-negative")
        self.n_patterns = len(self.gains)
        self._xs = xs
        self._last = n  # index of the closing sample
        # each pattern's gains over the closed samples, and its slope on
        # each segment between them
        self.rows = tuple(row + row[:1] for row in self.gains)
        self.slopes = tuple(tuple((ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
                                  for k in range(n)) for ys in self.rows)
        self._text: str | None = None

    def bracket(self, azimuth: float) -> tuple[int, float | None]:
        """Where ``azimuth`` falls among the closed samples, found as
        ``np.interp`` finds it once an azimuth below the first sample is
        taken one period up: ``(k, t)`` stands for the gain ``slopes[p][k]
        * t + rows[p][k]`` of each pattern ``p``, or ``rows[p][k]`` itself
        when ``t`` is None (on a sample, at the closing one, or more than a
        period below the first)."""
        xs = self._xs
        if azimuth < xs[0]:
            azimuth += 360.0
        k = bisect_right(xs, azimuth) - 1
        if k < 0:
            return 0, None
        if k < self._last:
            return (k, azimuth - xs[k]) if xs[k] != azimuth else (k, None)
        # NaN sorts past every sample too; np.interp returns it, and a NaN
        # ``t`` carries it through the segment formula
        return (k, None) if azimuth == azimuth else (0, azimuth)

    def gain_at(self, pattern: int, azimuth: float) -> float:
        """Gain of ``pattern`` toward ``azimuth`` in degrees.
        ``channel.build_power_map`` applies the same formula to a bracket
        shared by all patterns."""
        k, t = self.bracket(azimuth)
        ys = self.rows[pattern]
        return ys[k] if t is None else self.slopes[pattern][k] * t + ys[k]

    def gain(self, pattern: int, direction) -> float:
        return self.gain_at(pattern, azimuth_deg(direction))

    def to_text(self) -> str:
        """Dump as `pattern <id> mask -` blocks with one azimuth/gain row
        every 5 degrees; built on the first call and kept, since a table
        does not change."""
        if self._text is None:
            out = io.StringIO()
            for p in range(self.n_patterns):
                out.write(f"pattern {p} mask -\n")
                for az in range(0, 360, 5):
                    rad = math.radians(az)
                    g = self.gain(p, (math.cos(rad), math.sin(rad), 0.0))
                    out.write(f"{az:.1f} {g:.9e}\n")
                out.write("\n")
            self._text = out.getvalue()
        return self._text
