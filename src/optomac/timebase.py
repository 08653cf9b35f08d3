"""Shared laser clock: subcycle arithmetic, missing-pulse events, seeded RNG.

Every in-vivo node recovers its clock from the same pulsed laser, so simulated
time is a single integer cycle counter.  An instruction cycle is four subcycles
(T1..T4); each subcycle carries one frame plus guard bits.  A frame is two
node addresses and a 3-bit opcode, so its length ``FRAME_BITS`` follows from
the address width ``ADDRESS_BITS`` and is not a setting.  Gaps in the pulse
train are not data: a short gap resynchronizes the frame phase, a long gap
toggles between learning and working mode.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

SUBCYCLES_PER_ICYCLE = 4
ADDRESS_BITS = 4
FRAME_BITS = 2 * ADDRESS_BITS + 3   # recipient, opcode, transmitter


class Subcycle(enum.IntEnum):
    T1 = 1
    T2 = 2
    T3 = 3
    T4 = 4


class NonClockEvent(enum.Enum):
    NONE = "none"
    FRAME_SYNC = "frame_sync"
    MODE_TOGGLE = "mode_toggle"


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

    @property
    def subcycle_len(self) -> int:
        return FRAME_BITS + self.guard_bits

    @property
    def icycle_len(self) -> int:
        return SUBCYCLES_PER_ICYCLE * self.subcycle_len


def subcycle_of(cycle: int, cfg: ClockConfig) -> tuple[Subcycle, int]:
    """Map a cycle index to (subcycle, bit offset).  Pure and periodic."""
    if cycle < 0:
        raise ValueError("cycle must be non-negative")
    k, offset = divmod(cycle % cfg.icycle_len, cfg.subcycle_len)
    return Subcycle(k + 1), offset


def detect_nonclock(missing_run: int, cfg: ClockConfig) -> NonClockEvent:
    """Classify a completed run of missing pulses.

    Runs shorter than g_sync are tolerated (receivers flywheel through them);
    g_sync..g_mode-1 resynchronize the frame phase; g_mode and longer toggle
    learning/working mode.
    """
    if missing_run < 0:
        raise ValueError("missing_run must be non-negative")
    if missing_run >= cfg.g_mode:
        return NonClockEvent.MODE_TOGGLE
    if missing_run >= cfg.g_sync:
        return NonClockEvent.FRAME_SYNC
    return NonClockEvent.NONE


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
    """Counter-based splittable generator.

    A draw is a pure function of (seed, stream, draw index), so per-node
    streams are independent of the order in which nodes are stepped and a
    rerun with the same seed reproduces every value exactly.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed
        self.stream = stream
        self.counter = 0
        self._base = _stream_base(seed, stream)

    def split(self, stream: int) -> "Rng":
        return Rng(self.seed, stream)

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
