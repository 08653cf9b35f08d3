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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .metrics import Metrics
from .protocol import (
    PRIORITY_ACK,
    PRIORITY_BLOCK,
    PRIORITY_DATA,
    BIT_MASK,
    Backoff,
    Bits,
    Frame,
    NodeMemory,
    Opcode,
    Verdict,
    broadcast_address,
    controller_address,
    decode_verify,
    frame_bits,
)
from .timebase import FRAME_BITS, Rng, Subcycle
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


class ChainState(enum.Enum):
    SEND_NOTIFY = "send_notify"
    AWAIT_BLOCK = "await_block"
    SEND_COMMAND = "send_command"
    AWAIT_ACK = "await_ack"
    BACKOFF = "backoff"


_SEND_STATES = (ChainState.SEND_NOTIFY, ChainState.SEND_COMMAND)
_AWAIT_STATES = (ChainState.AWAIT_BLOCK, ChainState.AWAIT_ACK)


@dataclass
class CommandChain:
    """One sensor-to-actuator delivery attempt (NOTIFY/COMMAND + replies)."""

    target: int
    tag: str = ""
    state: ChainState = ChainState.SEND_NOTIFY
    window: int = 0
    retry_ic: int = 0
    started_cycle: int = 0
    backoff: Backoff = field(default_factory=Backoff)


@dataclass
class Outgoing:
    """A frame queued for transmission in the node's own subcycle."""

    frame: Frame
    pattern: int
    priority: int
    chain: CommandChain | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class _Inflight:
    out: Outgoing
    bits: Bits
    exited_at: int | None = None
    sent_bit: int | None = None


class Hooks:
    """Scenario callbacks.  The default implementation does nothing."""

    def on_trigger(self, agent: "Agent", ic: int) -> None:
        pass

    def on_stimulus_cleared(self, agent: "Agent", ic: int) -> None:
        pass

    def on_actuation(self, agent: "Agent", commander: int, meta: dict,
                     cycle: int) -> None:
        pass

    def on_chain_done(self, agent: "Agent", chain: CommandChain,
                      cycle: int) -> None:
        pass


class Agent:
    """Protocol state machine for one in-vivo node.

    It owns the tests the engine asks before a call (``has_send_work``,
    ``has_subcycle_work``), carrier sense (either detector's bit) and its
    receive buffers, which it clears once decoded; the engine clears them
    only when a laser gap abandons a subcycle.
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
        self.chains: list[CommandChain] = []
        self.blocked_by: int | None = None
        self.blocked_since_ic = 0
        # actuator bookkeeping
        self.command_counts: dict[int, int] = {}
        # sensor second-layer latch
        self.latched = False
        self.request_target: int | None = None
        self.request_next_ic = 0

    # -- identity helpers ------------------------------------------------

    @property
    def address(self) -> int:
        return self.mem.address

    @property
    def is_actuator(self) -> bool:
        return self.mem.is_actuator

    def has_send_work(self, ic: int) -> bool:
        """Whether ``emit`` at offset 0 of the own subcycle in instruction
        cycle ``ic`` can load or hold a frame, or refresh a chain or a
        request: one in flight, a chain whose backoff has ended, a relay
        request that falls due, a queued BLOCK or ACK, and, unless the node
        is blocked, queued data or a chain in a ``SEND_*`` state.  When
        False, that call changes nothing."""
        if self.inflight is not None:
            return True
        blocked = self.blocked_by is not None
        for out in self.queue:
            if not blocked or out.priority != PRIORITY_DATA:
                return True
        for chain in self.chains:
            if chain.state is ChainState.BACKOFF:
                if ic >= chain.retry_ic:
                    return True
            elif chain.state in _SEND_STATES and not blocked:
                return True
        return (self.request_target is not None
                and ic >= self.request_next_ic)

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
        self.trace.event(cycle, "chain", node=self.name,
                         state=chain.state.value, target=target, tag=tag)
        return chain

    def start_request(self, target: int, ic: int) -> None:
        """Begin periodic RELAY requests toward the controller via ``target``.

        ``target`` is either the controller address (direct reach) or a
        neighbour sensor that forwards the request.
        """
        self.request_target = target
        self.request_next_ic = ic

    def clear_requests(self) -> None:
        self.request_target = None

    # -- per-cycle interface (driven by the engine) -----------------------

    def emit(self, sub: Subcycle, offset: int, ic: int,
             cycle: int) -> tuple[int, int] | None:
        """Return ``(bit, pattern)`` for this clock cycle, or None if silent.

        A 0-bit return still matters: it marks the node as an active
        transmitter that is currently mute and therefore carrier-sensing.
        """
        if sub != self.mode:
            return None
        if offset == 0:
            self._refresh_chains(ic)
            if self.inflight is None:
                self._load_next(cycle)
        fl = self.inflight
        if fl is None or offset >= FRAME_BITS:
            return None
        if fl.exited_at is not None:
            fl.sent_bit = None
            return None
        fl.sent_bit = fl.bits[offset]
        return fl.bits[offset], fl.out.pattern

    def observe(self, top: bool, bottom: bool, sub: Subcycle, offset: int,
                ic: int, cycle: int) -> None:
        """Process one clock cycle of detector input: the top and bottom
        detector bits."""
        if sub == self.mode:
            fl = self.inflight
            # carrier sense: either detector sees a bit
            if (fl is not None and fl.sent_bit == 0 and fl.exited_at is None
                    and (top or bottom)):
                fl.exited_at = offset
                self.trace.event(cycle, "tx_exit", node=self.name,
                                 bit=offset, frame=fl.out.frame.describe())
            return
        if sub == Subcycle.T4 or offset >= FRAME_BITS:
            return
        if top:
            self._rx_top |= BIT_MASK[offset]
        if bottom:
            self._rx_bottom |= BIT_MASK[offset]

    def clear_receive_buffers(self) -> None:
        """Drop whatever the receive buffers hold, a partial frame too."""
        self._rx_top = self._rx_bottom = 0

    def end_subcycle(self, sub: Subcycle, ic: int, cycle: int) -> None:
        if sub == self.mode:
            self._finish_own_subcycle(cycle)
        elif sub != Subcycle.T4:
            if self._rx_top != 0 or self._rx_bottom != 0:
                self._receive_subcycle(ic, cycle)
            self._tick_windows(ic, cycle)
        if (self.blocked_by is not None
                and ic - self.blocked_since_ic >= BLOCKED_BACKSTOP_ICS):
            self.trace.event(cycle, "unblocked", node=self.name,
                             by=self.blocked_by, reason="timeout")
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
            self.hooks.on_stimulus_cleared(self, ic)

    # -- transmit side -----------------------------------------------------

    def _first_state(self) -> ChainState:
        """Where a chain starts, and restarts after a backoff: the basic
        variant commands at once, the handshake first reserves the channel."""
        return (ChainState.SEND_COMMAND if self.variant is Variant.BASIC
                else ChainState.SEND_NOTIFY)

    def _refresh_chains(self, ic: int) -> None:
        for chain in self.chains:
            if chain.state is ChainState.BACKOFF and ic >= chain.retry_ic:
                chain.state = self._first_state()
        if (self.request_target is not None and ic >= self.request_next_ic
                and not any(o.meta.get("request") for o in self.queue)):
            frame = Frame(self.request_target, Opcode.RELAY, self.address)
            pattern = self.mem.pattern_toward(self.request_target)
            self.queue.append(Outgoing(frame, pattern, PRIORITY_DATA,
                                       meta={"request": True}))
            self.request_next_ic = ic + REQUEST_RETRY_ICS

    def _load_next(self, cycle: int) -> None:
        out = self._pick()
        if out is None:
            return
        bits = frame_bits(out.frame)
        self.inflight = _Inflight(out=out, bits=bits)
        self.trace.event(cycle, "tx_start", node=self.name,
                         frame=out.frame.describe(),
                         pattern=out.pattern)

    def _pick(self) -> Outgoing | None:
        for priority in (PRIORITY_BLOCK, PRIORITY_ACK):
            for out in self.queue:
                if out.priority == priority:
                    self.queue.remove(out)
                    return out
        if self.blocked_by is not None:
            return None
        for out in self.queue:
            if out.priority == PRIORITY_DATA:
                self.queue.remove(out)
                return out
        for chain in self.chains:
            if chain.state is ChainState.SEND_NOTIFY:
                frame = Frame(chain.target, Opcode.NOTIFY, self.address)
            elif chain.state is ChainState.SEND_COMMAND:
                frame = Frame(chain.target, Opcode.COMMAND, self.address)
            else:
                continue
            pattern = self.mem.pattern_toward(chain.target)
            return Outgoing(frame, pattern, PRIORITY_DATA, chain=chain)
        return None

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
        self.trace.event(cycle, "tx_done", node=self.name,
                         frame=out.frame.describe())
        op = out.frame.opcode
        chain = out.chain
        if op == Opcode.NOTIFY and chain is not None:
            chain.state = ChainState.AWAIT_BLOCK
            chain.window = AWAIT_WINDOW_SUBCYCLES
        elif op == Opcode.COMMAND and chain is not None:
            self.metrics.issued += 1
            chain.state = ChainState.AWAIT_ACK
            chain.window = AWAIT_WINDOW_SUBCYCLES
        elif op == Opcode.BLOCK:
            self.metrics.blocks_sent += 1
        elif op == Opcode.ACK:
            self.metrics.acks_sent += 1
            if out.meta.get("actuate_for") is not None:
                self.hooks.on_actuation(self, out.meta["actuate_for"],
                                        out.meta, cycle)

    # -- receive side ------------------------------------------------------

    def _receive_subcycle(self, ic: int, cycle: int) -> None:
        decoded: list[tuple[str, Frame, bool]] = []
        for side, mask in (("top", self._rx_top),
                           ("bottom", self._rx_bottom)):
            if mask == 0:
                continue
            result = decode_verify(mask, self.mem)
            if result.verdict in (Verdict.MALFORMED, Verdict.COLLISION_SUSPECT):
                self.metrics.rx_rejects += 1
                self.trace.event(cycle, "rx_reject", node=self.name,
                                 side=side, reason=result.verdict.value,
                                 bits=f"{mask:0{FRAME_BITS}b}")
                continue
            frame = result.frame
            assert frame is not None
            addressed = result.verdict is Verdict.OK
            self.trace.event(cycle, "rx_frame", node=self.name, side=side,
                             frame=frame.describe(), addressed=addressed)
            decoded.append((side, frame, addressed))
        self.clear_receive_buffers()
        if self.is_actuator:
            # Two clean NOTIFYs on opposite detectors in one subcycle are a
            # collision the recipient can see directly; it serves neither.
            notifies = [d for d in decoded
                        if d[1].opcode == Opcode.NOTIFY and d[2]]
            if len(notifies) >= 2:
                for side, frame, _ in notifies:
                    self.metrics.rx_rejects += 1
                    self.trace.event(cycle, "rx_reject", node=self.name,
                                     side=side, reason="notify_contention",
                                     frame=frame.describe())
                decoded = [d for d in decoded if d not in notifies]
        for _side, frame, addressed in decoded:
            self._route(frame, addressed, ic, cycle)

    def _route(self, frame: Frame, addressed: bool, ic: int,
               cycle: int) -> None:
        op = frame.opcode
        if op == Opcode.BLOCK:
            self._on_block(frame, ic, cycle)
        elif op == Opcode.ACK:
            self._on_ack(frame, addressed, cycle)
        elif op == Opcode.NOTIFY and addressed and self.is_actuator:
            self._on_notify()
        elif op == Opcode.COMMAND and addressed and self.is_actuator:
            self._on_command(frame)
        elif op == Opcode.RELAY and addressed:
            self._forward_relay(frame)

    def _on_block(self, frame: Frame, ic: int, cycle: int) -> None:
        for chain in self.chains:
            if (chain.state is ChainState.AWAIT_BLOCK
                    and frame.transmitter == chain.target):
                chain.state = ChainState.SEND_COMMAND
                self.trace.event(cycle, "block_cleared", node=self.name,
                                 target=chain.target)
                return
        self.blocked_by = frame.transmitter
        self.blocked_since_ic = ic
        self.trace.event(cycle, "blocked", node=self.name,
                         by=frame.transmitter)

    def _on_ack(self, frame: Frame, addressed: bool, cycle: int) -> None:
        if addressed:
            for chain in self.chains:
                if (chain.state is ChainState.AWAIT_ACK
                        and frame.transmitter == chain.target):
                    self.metrics.delivered += 1
                    self.chains.remove(chain)
                    self.trace.event(cycle, "chain", node=self.name,
                                     state="done", target=chain.target,
                                     tag=chain.tag)
                    self.hooks.on_chain_done(self, chain, cycle)
                    break
        if self.blocked_by is not None and frame.transmitter == self.blocked_by:
            self.trace.event(cycle, "unblocked", node=self.name,
                             by=self.blocked_by, reason="ack")
            self.blocked_by = None

    def _on_notify(self) -> None:
        if self.variant is not Variant.HANDSHAKE:
            return
        if not any(o.frame.opcode == Opcode.BLOCK for o in self.queue):
            block = Frame(broadcast_address(), Opcode.BLOCK, self.address)
            self.queue.append(Outgoing(block, 0, PRIORITY_BLOCK))

    def _on_command(self, frame: Frame) -> None:
        commander = frame.transmitter
        self.command_counts[commander] = self.command_counts.get(commander, 0) + 1
        ack = Frame(commander, Opcode.ACK, self.address)
        meta = {"actuate_for": commander,
                "count": self.command_counts[commander]}
        self.queue.append(Outgoing(ack, self.mem.pattern_toward(commander),
                                   PRIORITY_ACK, meta=meta))

    def _forward_relay(self, frame: Frame) -> None:
        onward = Frame(controller_address(), Opcode.RELAY, frame.transmitter)
        if any(o.frame == onward for o in self.queue):
            return
        self.queue.append(Outgoing(onward, self.mem.pattern_toward(
            controller_address()), PRIORITY_DATA, meta={"forwarded": True}))

    # -- timers --------------------------------------------------------------

    def _tick_windows(self, ic: int, cycle: int) -> None:
        for chain in self.chains:
            if chain.state not in _AWAIT_STATES:
                continue
            chain.window -= 1
            if chain.window > 0:
                continue
            waited = chain.state.value
            chain.state = ChainState.BACKOFF
            chain.retry_ic = ic + chain.backoff.draw(self.rng)
            self.metrics.retries += 1
            self.trace.event(cycle, "timeout", node=self.name, waited=waited,
                             target=chain.target, retry_ic=chain.retry_ic)
            self.metrics.timeouts.append(
                {"node": self.name, "waited": waited, "cycle": cycle})
