"""Frame codec, address space, backoff, and bit-serial arbitration.

A frame is recipient | opcode | transmitter, MSB first: ``FRAME_BITS`` = 11
bits at the fixed 4-bit address width, both defined in ``timebase``.  The
address MSB separates sensors (0) from actuators (1); all-ones broadcasts,
all-ones-minus-one is the ex-vivo controller.  Documents and traces write an
address as a 4-bit binary string (``format_address``/``parse_address``).

Arbitration exploits the OR channel: a transmitter listens during each of its
own 0-bits and exits the subcycle the moment it hears a foreign 1, so among
mutually visible contenders the lexicographically greatest frame survives
untouched.  A BLOCK (broadcast recipient + opcode 111) opens with a run of
ones no other frame kind can match, which is what gives it priority.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable

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
        return (f"{format_address(self.recipient)} {self.opcode.value:03b} "
                f"{format_address(self.transmitter)}")


def frame_bits(frame: Frame) -> Bits:
    """Serialize MSB first: recipient, opcode, transmitter."""
    w = ADDRESS_BITS
    for name, value, width in (("recipient", frame.recipient, w),
                               ("opcode", int(frame.opcode), 3),
                               ("transmitter", frame.transmitter, w)):
        if not 0 <= value < (1 << width):
            raise ValueError(f"{name} {value} does not fit in {width} bits")
    text = f"{frame.recipient:0{w}b}{int(frame.opcode):03b}{frame.transmitter:0{w}b}"
    return tuple(int(c) for c in text)


def parse_bits(bits: Bits) -> Frame:
    w = ADDRESS_BITS
    if len(bits) != FRAME_BITS or any(b not in (0, 1) for b in bits):
        raise ValueError("malformed frame bits")
    as_int = lambda chunk: int("".join(map(str, chunk)), 2)
    return Frame(as_int(bits[:w]), Opcode(as_int(bits[w:w + 3])), as_int(bits[w + 3:]))


def is_block_bits(bits: Bits) -> bool:
    return len(bits) == FRAME_BITS and all(bits[: ADDRESS_BITS + 3])


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


def decode_verify(bits: Bits, mem: NodeMemory) -> DecodeResult:
    """Parse a received stream and vet it against local knowledge.

    A frame claiming a transmitter this node cannot physically hear is the
    signature of an OR-merged collision, hence collision-suspect.  Frames for
    other recipients still parse (third parties observe BLOCK/ACK traffic) but
    are flagged not-for-me.
    """
    try:
        frame = parse_bits(bits)
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
    cw_max; success resets to cw_min.
    """
    cw_min: int = 2
    cw_max: int = 16
    cw: int = 2

    def draw(self, rng) -> int:
        delay = rng.next_int(1, self.cw)
        self.cw = min(self.cw * 2, self.cw_max)
        return delay

    def reset(self) -> None:
        self.cw = self.cw_min


@dataclass(frozen=True)
class TransmitOutcome:
    completed: bool
    exit_bit: int | None = None


def arbitration_winner(frames: Iterable[Bits]) -> Bits:
    """Reference model: the lexicographically greatest bit string survives."""
    frames = list(frames)
    if not frames:
        raise ValueError("no contenders")
    return max(frames)


def contention_round(frames: dict[str, Bits], hears: dict[str, set[str]] | None = None,
                     ) -> tuple[dict[str, TransmitOutcome], Bits]:
    """Bit-serial arbitration among synchronized transmitters.

    hears[a] is the set of senders a can carrier-sense (full clique when
    omitted).  Returns per-sender outcomes plus the OR stream an omniscient
    receiver would see.  A sender exits when it emits a 0 while an active,
    audible sender emits a 1; its already-sent prefix is untouched and it
    stays silent for the rest of the subcycle.
    """
    names = sorted(frames)
    length = {len(b) for b in frames.values()}
    if len(length) != 1:
        raise ValueError("contending frames must share one length")
    n_bits = length.pop()
    if hears is None:
        hears = {a: set(names) - {a} for a in names}
    active = set(names)
    outcome: dict[str, TransmitOutcome] = {}
    or_stream: list[int] = []
    for k in range(n_bits):
        ones = {a for a in active if frames[a][k] == 1}
        or_stream.append(1 if ones else 0)
        exiting = [a for a in active
                   if frames[a][k] == 0 and any(o in hears[a] for o in ones)]
        for a in exiting:
            outcome[a] = TransmitOutcome(False, k)
            active.discard(a)
    for a in active:
        outcome[a] = TransmitOutcome(True)
    return outcome, tuple(or_stream)
