"""Shared laser clock: subcycle arithmetic, missing-pulse events, seeded RNG.

Every in-vivo node recovers its clock from the same pulsed laser, so simulated
time is a single integer cycle counter.  An instruction cycle is four subcycles
(T1..T4); each subcycle carries one frame plus guard bits.  A frame is two
node addresses and a 3-bit opcode, so its length ``FRAME_BITS`` follows from
the address width ``ADDRESS_BITS`` and is not a setting.  Gaps in the pulse
train are not data: a short gap resynchronizes the frame phase, a long gap
marks the toggle between learning and working mode.  The simulator runs
learning once, before the World starts, so the engine only traces a long gap
(as ``mode_toggle``) and restarts the phase.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

SUBCYCLES_PER_ICYCLE = 4
ADDRESS_BITS = 4
FRAME_BITS = 2 * ADDRESS_BITS + 3   # recipient, opcode, transmitter


class Subcycle(enum.IntEnum):
    T1 = 1
    T2 = 2
    T3 = 3
    T4 = 4


# Subcycle by index, looked up without calling the enum
SUBCYCLES = tuple(Subcycle)
# Each member bound once, for code that runs per subcycle or per frame: as
# ``EnumType`` defines ``__getattr__``, a read through the class (such as
# ``Subcycle.T4``) takes the interpreter's slow attribute path
T1, T2, T3, T4 = SUBCYCLES


class NonClockEvent(enum.Enum):
    NONE = "none"
    FRAME_SYNC = "frame_sync"
    MODE_TOGGLE = "mode_toggle"


NONE, FRAME_SYNC, MODE_TOGGLE = NonClockEvent


@dataclass(frozen=True)
class ClockConfig:
    guard_bits: int = 1
    g_sync: int = 8
    g_mode: int = 32

    def __post_init__(self) -> None:
        for name in ("guard_bits", "g_sync", "g_mode"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.guard_bits < 0:
            raise ValueError("guard_bits must be non-negative")
        if not 0 < self.g_sync < self.g_mode:
            raise ValueError("need 0 < g_sync < g_mode")

    @functools.cached_property
    def subcycle_len(self) -> int:
        return FRAME_BITS + self.guard_bits

    @functools.cached_property
    def icycle_len(self) -> int:
        return SUBCYCLES_PER_ICYCLE * self.subcycle_len


def detect_nonclock(missing_run: int, cfg: ClockConfig) -> NonClockEvent:
    """Classify a completed run of missing pulses.

    Runs shorter than g_sync are tolerated (receivers flywheel through them);
    g_sync..g_mode-1 resynchronize the frame phase; g_mode and longer are the
    learning/working mode toggle.
    """
    if missing_run < 0:
        raise ValueError("missing_run must be non-negative")
    if missing_run >= cfg.g_mode:
        return MODE_TOGGLE
    if missing_run >= cfg.g_sync:
        return FRAME_SYNC
    return NONE


def overlapping_gaps(gaps) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """The first two clock gaps, each ``(start_cycle, length)``, of which the
    earlier still runs when the later starts, taken in a stable sort by
    start; None when no two overlap."""
    ordered = sorted(gaps, key=lambda g: g[0])
    for earlier, later in zip(ordered, ordered[1:]):
        if earlier[0] + earlier[1] > later[0]:
            return earlier, later
    return None


# SplitMix64 constants.
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _stream_base(seed: int, stream: int) -> int:
    return _mix64((_mix64(seed * _GAMMA + 1) ^ _mix64(stream * _GAMMA + 2)) + _GAMMA)


class Rng:
    """Counter-based generator with independent streams.

    A draw is a pure function of (seed, stream, draw index), so per-node
    streams are independent of the order in which nodes are stepped and a
    rerun with the same seed reproduces every value exactly.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.counter = 0
        self._base = _stream_base(seed, stream)

    def next_u64(self) -> int:
        value = _mix64(self._base + self.counter * _GAMMA)
        self.counter += 1
        return value

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self.next_u64() * bound) >> 64

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_below(hi - lo + 1)

    def next_float(self) -> float:
        return self.next_u64() / float(1 << 64)
