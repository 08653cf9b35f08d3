"""Frame codec, address space, node memory and backoff.

A frame is recipient | opcode | transmitter, MSB first: ``FRAME_BITS`` = 11
bits at the fixed 4-bit address width, both defined in ``timebase``.  The
address MSB separates sensors (0) from actuators (1); all-ones broadcasts,
all-ones-minus-one is the ex-vivo controller.  Documents and traces write an
address as a 4-bit binary string (``format_address``/``parse_address``).

The codec is memoised.  ``parse_mask`` keeps each decoded ``Frame`` and
``frame_bits`` and ``Frame.describe`` keep each frame's bits and text, in
module-level tables filled lazily as runs meet frames, so each holds at most
2^``FRAME_BITS`` entries.  Every call validates its input before it consults
a table, and only valid results are stored, so a cached answer is never given
for an input the codec rejects.

The frame format serves bit-serial arbitration, which each node runs
(``nodes.Agent``) over the OR channel: a transmitter listens during each of
its own 0-bits and exits the subcycle the moment it hears a foreign 1, so
among mutually visible contenders the lexicographically greatest frame
survives untouched.  A BLOCK (broadcast recipient + opcode 111) opens with a run of
ones no other frame kind can match, which is what gives it priority.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from .timebase import ADDRESS_BITS, FRAME_BITS, Subcycle

Bits = tuple[int, ...]


class Opcode(enum.IntEnum):
    BLOCK = 0b111
    ACK = 0b110
    NOTIFY = 0b101
    COMMAND = 0b100
    PAT_TRIAL = 0b011
    PROBE = 0b010
    RELAY = 0b001
    POSN = 0b000


def broadcast_address() -> int:
    return (1 << ADDRESS_BITS) - 1


def controller_address() -> int:
    return (1 << ADDRESS_BITS) - 2


def is_actuator_address(addr: int) -> bool:
    return bool(addr >> (ADDRESS_BITS - 1) & 1)


def parse_address(text: Any) -> int:
    """Addresses appear in documents as fixed-width binary strings."""
    if (not isinstance(text, str) or len(text) != ADDRESS_BITS
            or any(c not in "01" for c in text)):
        raise ValueError(f"address must be a {ADDRESS_BITS}-bit binary "
                         f"string, got {text!r}")
    return int(text, 2)


def format_address(addr: int) -> str:
    return f"{addr:0{ADDRESS_BITS}b}"


@dataclass(frozen=True)
class Frame:
    recipient: int
    opcode: Opcode
    transmitter: int

    def describe(self) -> str:
        return _cached(_TEXT_OF_FRAME, _describe, self)


# The mask of bit ``k`` of a frame, MSB first: a frame's bits as one integer.
BIT_MASK = tuple(1 << (FRAME_BITS - 1 - k) for k in range(FRAME_BITS))

# Codec tables, filled lazily; see the module docstring.
_ADDRESSES = 1 << ADDRESS_BITS
_FRAME_OF_MASK: dict[int, Frame] = {}
_BITS_OF_FRAME: dict[Frame, Bits] = {}
_TEXT_OF_FRAME: dict[Frame, str] = {}


def _cached(table: dict, compute, frame: Frame):
    """``compute(frame)``, kept in ``table`` once it succeeds.

    Only a frame the codec can carry uses the table: int addresses that fit
    ``ADDRESS_BITS`` and an ``Opcode``, so a table holds at most
    2^``FRAME_BITS`` entries.  A frame with fields of other types is
    computed afresh, because ``1.0 == 1`` and ``6 == Opcode.ACK`` compare and
    hash equal, yet neither formats as the other.
    """
    r, t = frame.recipient, frame.transmitter
    if not (type(r) is int and type(t) is int and 0 <= r < _ADDRESSES
            and 0 <= t < _ADDRESSES and type(frame.opcode) is Opcode):
        return compute(frame)
    value = table.get(frame)
    if value is None:
        value = table[frame] = compute(frame)
    return value


def _describe(frame: Frame) -> str:
    return (f"{format_address(frame.recipient)} {frame.opcode.value:03b} "
            f"{format_address(frame.transmitter)}")


def frame_bits(frame: Frame) -> Bits:
    """Serialize MSB first: recipient, opcode, transmitter."""
    return _cached(_BITS_OF_FRAME, _frame_bits, frame)


def _frame_bits(frame: Frame) -> Bits:
    w = ADDRESS_BITS
    for name, value, width in (("recipient", frame.recipient, w),
                               ("opcode", int(frame.opcode), 3),
                               ("transmitter", frame.transmitter, w)):
        if not 0 <= value < (1 << width):
            raise ValueError(f"{name} {value} does not fit in {width} bits")
    text = f"{frame.recipient:0{w}b}{int(frame.opcode):03b}{frame.transmitter:0{w}b}"
    return tuple(int(c) for c in text)


def parse_mask(mask: int) -> Frame:
    """Decode a frame from its ``FRAME_BITS`` bits as one integer, MSB first."""
    if type(mask) is not int or not 0 <= mask < 1 << FRAME_BITS:
        raise ValueError("malformed frame bits")
    frame = _FRAME_OF_MASK.get(mask)
    if frame is None:
        w = ADDRESS_BITS
        frame = _FRAME_OF_MASK[mask] = Frame(
            mask >> (w + 3), Opcode(mask >> w & 0b111), mask & (_ADDRESSES - 1))
    return frame


def posn_frame(payload: int) -> Frame:
    """POSN repurposes both address fields as a payload (position id or mode)."""
    w = ADDRESS_BITS
    if not 0 <= payload < (1 << (2 * w)):
        raise ValueError(f"payload {payload} does not fit in {2 * w} bits")
    return Frame(payload >> w, Opcode.POSN, payload & ((1 << w) - 1))


def posn_payload(frame: Frame) -> int:
    return (frame.recipient << ADDRESS_BITS) | frame.transmitter


class Verdict(enum.Enum):
    OK = "ok"
    NOT_FOR_ME = "not-for-me"
    COLLISION_SUSPECT = "collision-suspect"
    MALFORMED = "malformed"


@dataclass
class NodeMemory:
    """Per-node learned state; everything the protocol may consult.

    ``physical`` holds the recipients this node can reach under at least one
    antenna pattern (the union over patterns, so the table has the most
    connectors).  The same single table doubles as the plausibility filter
    for claimed transmitter addresses on receive.  ``recognized`` is the
    configured subset this node exchanges commands with; it is deployment
    input, not learned, and must stay within ``physical``.
    ``optimal_pattern`` has an entry for every physical recipient; absent
    addresses fall back to the all-elements-on default pattern 0.
    """
    address: int
    is_actuator: bool = False
    working_mode: Subcycle = Subcycle.T1
    position_id: int = -1
    physical: set[int] = field(default_factory=set)
    recognized: set[int] = field(default_factory=set)
    optimal_pattern: dict[int, int] = field(default_factory=dict)

    def pattern_toward(self, addr: int) -> int:
        return self.optimal_pattern.get(addr, 0)


@dataclass(frozen=True)
class DecodeResult:
    frame: Frame | None
    verdict: Verdict


def decode_verify(mask: int, mem: NodeMemory) -> DecodeResult:
    """Parse a received stream, given as a bit mask (see ``parse_mask``),
    and vet it against local knowledge.

    A frame claiming a transmitter this node cannot physically hear is the
    signature of an OR-merged collision, hence collision-suspect.  Frames for
    other recipients still parse (third parties observe BLOCK/ACK traffic) but
    are flagged not-for-me.
    """
    try:
        frame = parse_mask(mask)
    except ValueError:
        return DecodeResult(None, Verdict.MALFORMED)
    if frame.transmitter not in mem.physical \
            and frame.transmitter != controller_address():
        return DecodeResult(frame, Verdict.COLLISION_SUSPECT)
    if frame.recipient not in (mem.address, broadcast_address()):
        return DecodeResult(frame, Verdict.NOT_FOR_ME)
    return DecodeResult(frame, Verdict.OK)


# Transmit-queue priorities: reservation replies preempt everything, then
# acknowledgements, then ordinary data (NOTIFY/COMMAND/RELAY/...).
PRIORITY_BLOCK = 0
PRIORITY_ACK = 1
PRIORITY_DATA = 2


@dataclass
class Backoff:
    """Binary exponential backoff in instruction cycles.

    Each failure draws uniformly from [1, CW] and then doubles CW, up to
    cw_max.  A chain owns its backoff and is dropped once delivered, so the
    window never needs resetting.
    """
    cw_max: int = 16
    cw: int = 2

    def draw(self, rng) -> int:
        delay = rng.next_int(1, self.cw)
        self.cw = min(self.cw * 2, self.cw_max)
        return delay
