"""Sensor and actuator protocol engines.

Each node runs the same slotted MAC: it transmits frames only during its own
working subcycle, listens during the other two data subcycles, and treats the
fourth subcycle as the second-layer (fluorescence / deep-command) slot.  Two
delivery variants are supported:

* ``basic``: a triggered sensor sends COMMAND directly and waits for an ACK.
* ``handshake``: the sensor first sends NOTIFY; the actuator answers with a
  broadcast BLOCK that silences every other node in range; the sensor then
  sends COMMAND under that reservation and the actuator confirms with ACK.

Contention within a subcycle is decided bit-by-bit on the shared optical
channel: a transmitter that is mute for its own 0-bit but senses a foreign
pulse exits the subcycle and requeues the frame.  The frame with the highest
bit pattern survives unmodified.

A node builds each distinct frame it sends once, in one memo keyed by
recipient, opcode and transmitter (``Agent._outgoing``; exact, since the
memory does not change once the node exists), and queues that object again.
An ACK's count and a chain's link ride on a new ``Outgoing`` over the memo's.

Code run per subcycle or per frame reads enum members through their module
constants (``BACKOFF`` and ``SEND_NOTIFY`` here, ``NOTIFY`` and ``OK`` from
``protocol``, ``T4`` from ``timebase``), because a metaclass ``__getattr__``
(``EnumType``'s) makes each class-attribute read such as
``ChainState.BACKOFF`` about five times slower on Python 3.11; for the same
reason no per-frame table is keyed by a plain ``Enum`` member, whose hash
runs in Python (the memo's opcode is an ``Opcode``, an ``int``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .metrics import Metrics
from .protocol import (
    ACK,
    BIT_MASK,
    BLOCK,
    COLLISION_SUSPECT,
    COMMAND,
    NOTIFY,
    OK,
    PRIORITY_ACK,
    PRIORITY_BLOCK,
    PRIORITY_DATA,
    RELAY,
    Backoff,
    Frame,
    NodeMemory,
    Opcode,
    Verdict,
    broadcast_address,
    controller_address,
    parse_mask,
    vet,
)
from .timebase import FRAME_BITS, T4, Rng, Subcycle
from .trace import TraceWriter

# Liveness backstop: a node that saw a foreign BLOCK stays quiet until it sees
# the matching ACK, or at most this many instruction cycles.
BLOCKED_BACKSTOP_ICS = 4
# After finishing NOTIFY or COMMAND, the sender waits this many of its
# receiving subcycles for the BLOCK / ACK reply before backing off.
AWAIT_WINDOW_SUBCYCLES = 2
# A latched sensor that relays requests to the controller repeats the request
# at this period until the stimulus clears.
REQUEST_RETRY_ICS = 8


class Variant(enum.Enum):
    BASIC = "basic"
    HANDSHAKE = "handshake"


BASIC, HANDSHAKE = Variant


class ChainState(enum.Enum):
    SEND_NOTIFY = "send_notify"
    AWAIT_BLOCK = "await_block"
    SEND_COMMAND = "send_command"
    AWAIT_ACK = "await_ack"
    BACKOFF = "backoff"


SEND_NOTIFY, AWAIT_BLOCK, SEND_COMMAND, AWAIT_ACK, BACKOFF = ChainState

_AWAIT_STATES = (AWAIT_BLOCK, AWAIT_ACK)
# the reason an ``rx_reject`` of bits that vet as a collision gives
_COLLISION_SUSPECT = COLLISION_SUSPECT.value


@dataclass
class CommandChain:
    """One sensor-to-actuator delivery attempt (NOTIFY/COMMAND + replies)."""

    target: int
    tag: str = ""
    state: ChainState = SEND_NOTIFY
    window: int = 0
    retry_ic: int = 0
    started_cycle: int = 0
    backoff: Backoff = field(default_factory=Backoff)
    # the frame each ``SEND_*`` state sends, by opcode: the agent's memo
    # entry linked to this chain, built on first use
    sends: dict[Opcode, Outgoing] = field(
        default_factory=dict, repr=False, compare=False)


@dataclass
class Outgoing:
    """A frame queued for transmission in the node's own subcycle; an ACK's
    ``count`` is the number of commands its recipient sent."""

    frame: Frame
    pattern: int
    priority: int
    chain: CommandChain | None = None
    count: int = 0


@dataclass
class _Inflight:
    """The frame being sent: ``mask`` is its wire form (``Frame.mask``),
    and ``exited_at`` the offset at which it lost arbitration, if it did."""
    out: Outgoing
    mask: int
    exited_at: int | None = None


class Hooks:
    """Scenario callbacks.  The default implementation does nothing."""

    def on_trigger(self, agent: "Agent", ic: int) -> None:
        pass

    def on_actuation(self, agent: "Agent", commander: int, count: int,
                     cycle: int) -> None:
        pass

    def on_chain_done(self, agent: "Agent", chain: CommandChain,
                      cycle: int) -> None:
        pass


class Agent:
    """Protocol state machine for one in-vivo node.

    It owns the tests the engine asks before a call (``next_due``, the
    one send-work rule, and ``has_subcycle_work``), carrier sense (either
    detector's bit) and its receive buffers, which it clears once decoded;
    the engine clears them only when a laser gap abandons a subcycle.  The
    World's poll moves the shared wake time (see ``engine``) ahead; only
    the two public entry points, ``start_chain`` and ``start_request``, set
    it back to 0.  Every other transition runs in ``end_subcycle``, which
    the World calls only once the wake time is reached.
    """

    def __init__(self, name: str, memory: NodeMemory, rng: Rng,
                 variant: Variant, trace: TraceWriter, metrics: Metrics,
                 hooks: Hooks | None = None):
        self.name = name
        self.mem = memory
        # learning fixes the working mode before any agent exists
        self.mode: Subcycle = memory.working_mode
        self.rng = rng
        self.variant = variant
        self.trace = trace
        self.metrics = metrics
        self.hooks = hooks if hooks is not None else Hooks()

        self.queue: list[Outgoing] = []
        self.inflight: _Inflight | None = None
        # receive buffers of the current subcycle as bit masks (see
        # ``protocol.BIT_MASK``), cleared once decoded; 0 on a side that
        # saw no bit
        self._rx_top = 0
        self._rx_bottom = 0
        # frame mask -> (frame, verdict), filled on first sight; exact since
        # the memory does not change once the agent exists
        self._heard: dict[int, tuple[Frame, Verdict]] = {}
        self.chains: list[CommandChain] = []
        self.blocked_by: int | None = None
        self.blocked_since_ic = 0
        # actuator bookkeeping
        self.command_counts: dict[int, int] = {}
        # sensor second-layer latch
        self.latched = False
        self.request_target: int | None = None
        self.request_next_ic = 0
        self.wake = [0]  # the World's wake time, a cell it shares
        # (recipient, opcode, transmitter) -> the frame sent, built once
        self._memo: dict[tuple[int, Opcode, int], Outgoing] = {}

    # -- identity helpers ------------------------------------------------

    @property
    def address(self) -> int:
        return self.mem.address

    @property
    def is_actuator(self) -> bool:
        return self.mem.is_actuator

    def next_due(self) -> float:
        """The first icycle at which ``emit`` at offset 0 of the own subcycle
        can change anything, the one send-work rule: 0 while a frame is in
        flight or ``_next_out`` names one, else the earliest ``BACKOFF``
        retry or set request's next one, else ``math.inf``.  A call before
        it changes nothing."""
        if self.inflight is not None or (
                (self.queue or self.chains) and self._next_out() is not None):
            return 0
        due = (self.request_next_ic if self.request_target is not None
               else math.inf)
        for chain in self.chains:
            if chain.state is BACKOFF and chain.retry_ic < due:
                due = chain.retry_ic
        return due

    @property
    def has_subcycle_work(self) -> bool:
        """Whether ``end_subcycle`` can change anything: a frame in flight,
        a receive side written this subcycle, a chain awaiting a reply
        whose window may run out, or a block whose backstop may fire.
        When False, that call changes nothing.

        Only ``end_subcycle`` itself moves a chain into an ``AWAIT_*``
        state or sets a block; chains that scenario hooks start are in a
        ``SEND_*`` state."""
        if (self.inflight is not None or self._rx_top != 0
                or self._rx_bottom != 0 or self.blocked_by is not None):
            return True
        for chain in self.chains:
            if chain.state in _AWAIT_STATES:
                return True
        return False

    # -- scenario entry points -------------------------------------------

    def start_chain(self, target: int, tag: str = "",
                    cycle: int = 0) -> CommandChain:
        """Begin a delivery attempt toward ``target`` (actuator address)."""
        chain = CommandChain(target=target, tag=tag,
                             state=self._first_state(), started_cycle=cycle)
        self.chains.append(chain)
        self.wake[0] = 0
        self.trace.chain(cycle, self.name, chain.state.value, target, tag)
        return chain

    def start_request(self, target: int, ic: int) -> None:
        """Begin periodic RELAY requests toward the controller via ``target``.

        ``target`` is either the controller address (direct reach) or a
        neighbour sensor that forwards the request.
        """
        self.request_target = target
        self.request_next_ic = ic
        self.wake[0] = 0

    def clear_requests(self) -> None:
        self.request_target = None

    # -- per-cycle interface (driven by the engine) -----------------------

    def emit(self, sub: Subcycle, offset: int, ic: int,
             cycle: int) -> tuple[int, int] | None:
        """Return ``(bit, pattern)`` for this clock cycle, or None if silent.

        At offset 0 of the own subcycle it refreshes the chains and the
        relay request and loads the next frame, writing ``tx_start``.  This
        is the one call the engine makes: it reads the frame's bits from
        ``inflight.mask`` and asks ``sense`` for carrier sense.  The
        per-bit reference engine in the tests calls it at every offset,
        where a 0-bit return marks a transmitter that is mute and therefore
        carrier-sensing.
        """
        if sub != self.mode:
            return None
        if offset == 0:
            self._refresh_chains(ic)
            if self.inflight is None:
                self._load_next(cycle)
        fl = self.inflight
        if fl is None or offset >= FRAME_BITS or fl.exited_at is not None:
            return None
        return fl.mask >> (FRAME_BITS - 1 - offset) & 1, fl.out.pattern

    def observe(self, top: bool, bottom: bool, sub: Subcycle, offset: int,
                ic: int, cycle: int) -> None:
        """Process one clock cycle of detector input: the top and bottom
        detector bits.  This is the per-bit entry point of the reference
        engine in the tests; the live engine calls ``sense`` and
        ``receive`` directly, and the benchmark wraps this method by name."""
        if sub == self.mode:
            if top or bottom:
                self.sense(offset, cycle)
            return
        if offset < FRAME_BITS:
            bit = BIT_MASK[offset]
            self.receive(sub, bit if top else 0, bit if bottom else 0)

    def sense(self, offset: int, cycle: int) -> bool:
        """Carrier sense in the own subcycle, when either detector sees a
        bit at ``offset``: a frame in flight that is mute there (an own
        0-bit) exits the subcycle.  Return whether it exited now."""
        fl = self.inflight
        if (fl is None or fl.exited_at is not None
                or fl.mask & BIT_MASK[offset]):
            return False
        fl.exited_at = offset
        self.trace.tx_exit(cycle, self.name, offset, fl.mask)
        return True

    def receive(self, sub: Subcycle, top: int, bottom: int) -> None:
        """Take the bits each detector saw in subcycle ``sub``, as masks
        (see ``protocol.BIT_MASK``): one cycle's or a whole frame's.  A node
        receives only in the data subcycles it listens in; in its own it
        only senses the carrier (``sense``), and the fourth carries no
        frame."""
        if sub != self.mode and sub != T4:
            self._rx_top |= top
            self._rx_bottom |= bottom

    def clear_receive_buffers(self) -> None:
        """Drop whatever the receive buffers hold, a partial frame too."""
        self._rx_top = self._rx_bottom = 0

    def end_subcycle(self, sub: Subcycle, ic: int, cycle: int) -> None:
        if sub == self.mode:
            self._finish_own_subcycle(cycle)
        elif sub != T4:
            if self._rx_top != 0 or self._rx_bottom != 0:
                self._receive_subcycle(ic, cycle)
            self._tick_windows(ic, cycle)
        if (self.blocked_by is not None
                and ic - self.blocked_since_ic >= BLOCKED_BACKSTOP_ICS):
            self.trace.unblocked(cycle, self.name, self.blocked_by, "timeout")
            self.blocked_by = None

    def on_second_layer(self, detected: bool, ic: int, cycle: int) -> None:
        """End of the fourth subcycle: sensor fluorescence latch update."""
        if self.is_actuator:
            return
        if detected and not self.latched:
            self.latched = True
            self.trace.event(cycle, "trigger", node=self.name)
            self.hooks.on_trigger(self, ic)
        elif not detected and self.latched:
            self.latched = False
            self.clear_requests()

    # -- transmit side -----------------------------------------------------

    def _first_state(self) -> ChainState:
        """Where a chain starts, and restarts after a backoff: the basic
        variant commands at once, the handshake first reserves the channel."""
        return SEND_COMMAND if self.variant is BASIC else SEND_NOTIFY

    def _refresh_chains(self, ic: int) -> None:
        for chain in self.chains:
            if chain.state is BACKOFF and ic >= chain.retry_ic:
                chain.state = self._first_state()
        # its own request is a queued RELAY it transmits; see _forward_relay
        target = self.request_target
        if (target is not None and ic >= self.request_next_ic
                and not (self.queue and any(
                    o.frame.opcode is RELAY
                    and o.frame.transmitter == self.address
                    for o in self.queue))):
            self.queue.append(self._outgoing(target, RELAY, self.address))
            self.request_next_ic = ic + REQUEST_RETRY_ICS

    def _load_next(self, cycle: int) -> None:
        out = self._pick()
        if out is None:
            return
        fl = self.inflight = _Inflight(out=out, mask=out.frame.mask)
        self.trace.tx_start(cycle, self.name, fl.mask, out.pattern)

    def _next_out(self) -> Outgoing | None:
        """The frame ``emit`` loads next, left in place: the first queued
        frame of the highest priority, else the one of the first chain in a
        ``SEND_*`` state.  A blocked node sends only BLOCK and ACK frames."""
        blocked = self.blocked_by is not None
        best = None
        for out in self.queue:
            if best is None or out.priority < best.priority:
                best = out
        if best is not None and not (blocked and best.priority == PRIORITY_DATA):
            return best
        if blocked:
            return None
        for chain in self.chains:
            state = chain.state
            if state is SEND_NOTIFY:
                op = NOTIFY
            elif state is SEND_COMMAND:
                op = COMMAND
            else:
                continue
            out = chain.sends.get(op)
            if out is None:
                memo = self._outgoing(chain.target, op, self.address)
                out = chain.sends[op] = Outgoing(
                    memo.frame, memo.pattern, memo.priority, chain=chain)
            return out
        return None

    def _pick(self) -> Outgoing | None:
        """Take what ``_next_out`` names, off the queue if it was queued."""
        out = self._next_out()
        for i, queued in enumerate(self.queue):
            if queued is out:
                del self.queue[i]
                break
        return out

    def _finish_own_subcycle(self, cycle: int) -> None:
        fl = self.inflight
        self.inflight = None
        if fl is None:
            return
        out = fl.out
        if fl.exited_at is not None:
            # lost arbitration: requeue at the head and retry next own slot
            self.metrics.exits += 1
            self.queue.insert(0, out)
            return
        self.trace.tx_done(cycle, self.name, fl.mask)
        op = out.frame.opcode
        chain = out.chain
        if op == NOTIFY and chain is not None:
            chain.state = AWAIT_BLOCK
            chain.window = AWAIT_WINDOW_SUBCYCLES
        elif op == COMMAND and chain is not None:
            self.metrics.issued += 1
            chain.state = AWAIT_ACK
            chain.window = AWAIT_WINDOW_SUBCYCLES
        elif op == BLOCK:
            self.metrics.blocks_sent += 1
        elif op == ACK:
            self.metrics.acks_sent += 1
            # every ACK answers a command: its recipient is the commander
            self.hooks.on_actuation(self, out.frame.recipient, out.count, cycle)

    # -- receive side ------------------------------------------------------

    def _receive_subcycle(self, ic: int, cycle: int) -> None:
        top, bottom = self._rx_top, self._rx_bottom
        self._rx_top = self._rx_bottom = 0
        # (side, frame, addressed, mask) of each clean decode
        decoded: list[tuple[str, Frame, bool, int]] = []
        for side, mask in (("top", top), ("bottom", bottom)):
            if mask == 0:
                continue
            entry = self._heard.get(mask)
            if entry is None:
                frame = parse_mask(mask)
                entry = self._heard[mask] = (frame, vet(frame, self.mem))
            frame, verdict = entry
            if verdict is COLLISION_SUSPECT:
                self.metrics.rx_rejects += 1
                self.trace.rx_reject_bits(cycle, self.name, side,
                                          _COLLISION_SUSPECT, mask)
                continue
            addressed = verdict is OK
            self.trace.rx_frame(cycle, self.name, side, mask, addressed)
            decoded.append((side, frame, addressed, mask))
        # Two clean NOTIFYs on opposite detectors in one subcycle are a
        # collision the recipient can see directly; it serves neither.
        if (len(decoded) == 2 and self.is_actuator
                and all(d[1].opcode == NOTIFY and d[2]
                        for d in decoded)):
            for side, _, _, mask in decoded:
                self.metrics.rx_rejects += 1
                self.trace.rx_reject_frame(cycle, self.name, side,
                                           "notify_contention", mask)
            return
        for _side, frame, addressed, _mask in decoded:
            self._route(frame, addressed, ic, cycle)

    def _route(self, frame: Frame, addressed: bool, ic: int,
               cycle: int) -> None:
        op = frame.opcode
        if op == BLOCK:
            self._on_block(frame, ic, cycle)
        elif op == ACK:
            self._on_ack(frame, addressed, cycle)
        elif op == NOTIFY and addressed and self.is_actuator:
            self._on_notify()
        elif op == COMMAND and addressed and self.is_actuator:
            self._on_command(frame)
        elif op == RELAY and addressed:
            self._forward_relay(frame)

    def _on_block(self, frame: Frame, ic: int, cycle: int) -> None:
        for chain in self.chains:
            if (chain.state is AWAIT_BLOCK
                    and frame.transmitter == chain.target):
                chain.state = SEND_COMMAND
                self.trace.block_cleared(cycle, self.name, chain.target)
                return
        self.blocked_by = frame.transmitter
        self.blocked_since_ic = ic
        self.trace.blocked(cycle, self.name, frame.transmitter)

    def _on_ack(self, frame: Frame, addressed: bool, cycle: int) -> None:
        if addressed:
            for chain in self.chains:
                if (chain.state is AWAIT_ACK
                        and frame.transmitter == chain.target):
                    self.metrics.delivered += 1
                    self.chains.remove(chain)
                    self.trace.chain(cycle, self.name, "done", chain.target,
                                     chain.tag)
                    self.hooks.on_chain_done(self, chain, cycle)
                    break
        if self.blocked_by is not None and frame.transmitter == self.blocked_by:
            self.trace.unblocked(cycle, self.name, self.blocked_by, "ack")
            self.blocked_by = None

    def _on_notify(self) -> None:
        if self.variant is HANDSHAKE:
            self._queue_once(
                self._outgoing(broadcast_address(), BLOCK, self.address))

    def _on_command(self, frame: Frame) -> None:
        commander = frame.transmitter
        count = self.command_counts[commander] = (
            self.command_counts.get(commander, 0) + 1)
        ack = self._outgoing(commander, ACK, self.address)
        self.queue.append(
            Outgoing(ack.frame, ack.pattern, ack.priority, count=count))

    def _forward_relay(self, frame: Frame) -> None:
        self._queue_once(
            self._outgoing(controller_address(), RELAY, frame.transmitter))

    def _queue_once(self, out: Outgoing) -> None:
        """Queue ``out`` unless it is queued; the memo gives one object per
        frame, so identity is frame equality here."""
        for queued in self.queue:
            if queued is out:
                return
        self.queue.append(out)

    def _outgoing(self, recipient: int, op: Opcode,
                  transmitter: int) -> Outgoing:
        """The memo's one ``Outgoing`` for this frame, built on first use.
        Its pattern is the one toward ``recipient`` (0 for the broadcast
        address, which no node learns), and its priority follows ``op``."""
        key = (recipient, op, transmitter)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = Outgoing(
                Frame(recipient, op, transmitter),
                self.mem.pattern_toward(recipient),
                PRIORITY_BLOCK if op == BLOCK
                else PRIORITY_ACK if op == ACK else PRIORITY_DATA)
        return out

    # -- timers --------------------------------------------------------------

    def _tick_windows(self, ic: int, cycle: int) -> None:
        for chain in self.chains:
            if chain.state not in _AWAIT_STATES:
                continue
            chain.window -= 1
            if chain.window > 0:
                continue
            waited = chain.state.value
            chain.state = BACKOFF
            chain.retry_ic = ic + chain.backoff.draw(self.rng)
            self.metrics.retries += 1
            self.trace.timeout(cycle, self.name, waited, chain.target,
                               chain.retry_ic)
            self.metrics.timeouts.append(
                {"node": self.name, "waited": waited, "cycle": cycle})
