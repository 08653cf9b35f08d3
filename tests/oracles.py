"""Reference models the tests check the live simulator against.

Each restates one rule of the model in its simplest form, apart from the
code a run executes: the geometry of one link, a frame's bits as a tuple
and decoding a frame from them, arbitration as a maximum and as a
bit-serial round over carrier sense of summed light, reachability from the
power map, the phase of a cycle and of a World, an engine that polls
every agent for work and steps every bit, the live engine checking its
wake time, and the live engine walking every race it carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from optomac.channel import ChannelConfig, PowerMap
from optomac.engine import World
from optomac.geometry import NodePose
from optomac.nodes import Agent
from optomac.protocol import BIT_MASK, Frame, frame_mask, parse_mask
from optomac.timebase import FRAME_BITS, SUBCYCLES, ClockConfig, Subcycle


@dataclass(frozen=True)
class PathGeometry:
    distance: float
    direction: tuple[float, float, float]  # unit vector a -> b
    side_at_b: str  # "top" | "bottom"


def geometry_between(a: NodePose, b: NodePose) -> PathGeometry:
    """Distance, unit direction a->b, and which of b's detectors faces a.

    side_at_b is "top" when the arriving signal comes from the half-space b's
    normal points into (grazing incidence counts as top).
    """
    d = tuple(bb - aa for aa, bb in zip(a.position, b.position))
    dist = math.sqrt(sum(c * c for c in d))
    if dist == 0:
        raise ValueError("poses are coincident")
    u = tuple(c / dist for c in d)
    incoming = sum(-uc * nc for uc, nc in zip(u, b.normal))
    side = "top" if incoming >= 0 else "bottom"
    return PathGeometry(dist, u, side)  # type: ignore[arg-type]


def phase(world: World) -> tuple[Subcycle, int, int]:
    """The subcycle, bit offset and icycle of ``world``'s current cycle,
    from its phase origin and the icycle count before it."""
    ics, rel = divmod(world.cycle - world.phase_origin,
                      world.clock.icycle_len)
    k, off = divmod(rel, world.clock.subcycle_len)
    return SUBCYCLES[k], off, world._ic_base + ics


def subcycle_of(cycle: int, cfg: ClockConfig) -> tuple[Subcycle, int]:
    """Map a cycle index to (subcycle, bit offset) from cycle 0, as a run
    without laser gaps keeps its phase.  Pure and periodic."""
    if cycle < 0:
        raise ValueError("cycle must be non-negative")
    k, offset = divmod(cycle % cfg.icycle_len, cfg.subcycle_len)
    return SUBCYCLES[k], offset


Bits = tuple[int, ...]


def frame_bits(frame: Frame) -> Bits:
    """A frame's ``FRAME_BITS`` bits as a tuple, MSB first."""
    return tuple(frame_mask(frame) >> (FRAME_BITS - 1 - k) & 1
                 for k in range(FRAME_BITS))


def parse_bits(bits: Bits) -> Frame:
    """Decode a frame from its ``FRAME_BITS`` bits as a tuple, MSB first."""
    if len(bits) != FRAME_BITS or any(b not in (0, 1) for b in bits):
        raise ValueError("malformed frame bits")
    # str() also rejects elements equal to 0 or 1 that are not integers,
    # such as True and 1.0
    return parse_mask(int("".join(map(str, bits)), 2))


@dataclass(frozen=True)
class TransmitOutcome:
    completed: bool
    exit_bit: int | None = None


def arbitration_winner(frames: Iterable[Bits]) -> Bits:
    """The lexicographically greatest bit string survives."""
    frames = list(frames)
    if not frames:
        raise ValueError("no contenders")
    return max(frames)


def contention_round(frames: dict[str, Bits],
                     hears: Callable[[str, frozenset[str]], bool] | None = None,
                     ) -> tuple[dict[str, TransmitOutcome], Bits]:
    """Bit-serial arbitration among synchronized transmitters.

    ``hears(a, ones)`` tells whether sender ``a`` carrier-senses the active
    senders ``ones`` pulsing together at one bit (never empty, never
    holding ``a``); a detector sums their light, so faint senders may be
    heard together where none is alone.  When omitted, any pulse is heard
    (a full clique).  Returns per-sender outcomes plus the OR stream an
    omniscient receiver would see.  A sender exits when it emits a 0 while
    it hears the active senders emitting a 1; its already-sent prefix is
    untouched and it stays silent for the rest of the subcycle.
    """
    names = sorted(frames)
    length = {len(b) for b in frames.values()}
    if len(length) != 1:
        raise ValueError("contending frames must share one length")
    n_bits = length.pop()
    if hears is None:
        def hears(a: str, ones: frozenset[str]) -> bool:
            return True
    active = set(names)
    outcome: dict[str, TransmitOutcome] = {}
    or_stream: list[int] = []
    for k in range(n_bits):
        ones = frozenset(a for a in active if frames[a][k] == 1)
        or_stream.append(1 if ones else 0)
        exiting = [a for a in active
                   if frames[a][k] == 0 and ones and hears(a, ones)]
        for a in exiting:
            outcome[a] = TransmitOutcome(False, k)
            active.discard(a)
    for a in active:
        outcome[a] = TransmitOutcome(True)
    return outcome, tuple(or_stream)


def reachable(pm: PowerMap, tx: str, rx: str, cfg: ChannelConfig) -> bool:
    """Ground-truth physical reachability: any pattern delivers a detectable
    bit."""
    return any(pm.arrival(tx, p, rx).power >= cfg.theta_detect
               for p in range(len(pm.power[pm.index[tx]])))


def polled_send_work(agent: Agent) -> bool:
    """The broad offset-0 test: a frame in flight, a queue, any chain or a
    relay request, due or not."""
    return (agent.inflight is not None or bool(agent.queue)
            or bool(agent.chains) or agent.request_target is not None)


def polled_subcycle_work(agent: Agent) -> bool:
    """The broad end-of-subcycle test: a frame in flight, a receive side
    written, any chain or a block."""
    return (agent.inflight is not None or agent._rx_top != 0
            or agent._rx_bottom != 0 or bool(agent.chains)
            or agent.blocked_by is not None)


class PollingWorld(World):
    """The World that keeps no set of agents to close and takes no step
    longer than a subcycle or, while a frame is sent, a bit.

    Like the live World it is stepped one instruction cycle (or the part
    of one before a cut) per call, but it runs every subcycle of every
    instruction cycle, inert or not, taking its phase from ``phase``, and
    emits and observes every bit of a frame, whether sent alone or against
    other senders (``_emit_cycle``, ``Agent.emit`` and ``Agent.observe``):
    it is the per-bit reference for carrier sense, exits and collision
    evidence.  At offset 0 it asks every sender of the subcycle
    ``polled_send_work``, and at each subcycle's end it asks every agent,
    in agent order and each just before its turn, ``polled_subcycle_work``.
    The live World must give the same runs with its exact tests, its
    pending set, its one-step inert icycles, and its one walk over the
    frames, which it starts at offset 0 once the frames are loaded, replays
    from the race memo and counts collision evidence as a bit mask.  It
    reads no memo: it computes each cycle's lit set (``World._lit_for``)
    and hands every lit agent its bits (``Agent.observe``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # never 0, so that every subcycle's end reaches ``_close_agents``
        self._pending = -1
        self._index = {agent: i for i, agent in enumerate(self._order)}

    def _run_icycle(self, stop: int) -> None:
        while True:
            sub, off, ic = phase(self)
            start = self.cycle - off
            last = start + self.clock.subcycle_len - 1
            senders = [a for a in self._order if a.mode is sub]
            first = self.cycle
            if off == 0:
                self._begin_subcycle(sub, ic)
                self._emit_cycle([a for a in senders if polled_send_work(a)],
                                 sub, 0, ic)
                first += 1
            transmitters = [a for a in senders if a.inflight is not None]
            if transmitters:
                for cycle in range(first, min(start + FRAME_BITS, stop)):
                    self.cycle = cycle
                    self._emit_cycle(transmitters, sub, cycle - start, ic)
            if stop > last:
                self.cycle = last
                self._end_subcycle(sub, ic)
            self.cycle = min(stop, last + 1)
            if self.cycle == stop or sub is Subcycle.T4:
                return

    def _emit_cycle(self, transmitters: list[Agent], sub: Subcycle, off: int,
                    ic: int) -> None:
        """Step one cycle bit by bit: each transmitter emits its bit, and
        each agent whose detectors see one observes it."""
        emitters, emissions = [], []
        for agent in transmitters:
            sent = agent.emit(sub, off, ic, self.cycle)
            if sent is not None and sent[0] == 1:
                emitters.append(agent.name)
                emissions.append((self._index[agent], sent[1]))
        if not emissions or self.cycle < self._dark_until:
            return
        if any(tx in self.controller_hears for tx in emitters):
            self._controller_bits |= BIT_MASK[off]
        lit, lit_mask = self._lit_for(tuple(emissions))
        self._pending |= lit_mask
        for i, top, bottom, evidence in lit:
            agent = self._order[i]
            if evidence and not self._evidence_seen >> i & 1:
                self._evidence_seen |= 1 << i
                self.metrics.collisions += 1
            agent.observe(top, bottom, sub, off, ic, self.cycle)
        if self.trace.wants("power"):
            self.trace.power(self.cycle, sorted(emitters))

    def _close_agents(self, sub: Subcycle, ic: int) -> None:
        for agent in self.agents.values():
            if polled_subcycle_work(agent):
                agent.end_subcycle(sub, ic, self.cycle)


class WakeCheckingWorld(World):
    """The live World, checking its wake time at offset 0 of every
    subcycle, T1 included, once ``on_icycle_start`` has run: while the wake
    time is ahead of the instruction cycle, no agent has send work.  It
    also checks that no close pass runs before the wake time, since agents
    do not reset it for the send work a close creates."""

    def _close_agents(self, sub: Subcycle, ic: int) -> None:
        assert ic >= self._wake[0], (f"a close in icycle {ic}, before the "
                                     f"wake time {self._wake[0]}")
        super()._close_agents(sub, ic)

    def _begin_subcycle(self, sub: Subcycle, ic: int) -> None:
        super()._begin_subcycle(sub, ic)
        if ic < self._wake[0]:
            busy = [a.name for a in self._order if ic >= a.next_due()]
            assert not busy, (f"{busy} have send work in icycle {ic}, "
                              f"before the wake time {self._wake[0]}")


class _Forgetful(dict):
    """A memo that stores nothing it is given."""

    def __setitem__(self, key, value) -> None:
        pass


class WalkingWorld(World):
    """The live World with a private, empty store whose race memo never
    stores, so every carry walks its race (``World._walk``) and replays
    what it just walked; it counts the walks.  The live World must give the
    same runs while it walks each distinct race once per deployment."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **{**kwargs, "memos": {}})
        self._carries = _Forgetful()
        self.walks = 0

    def _walk(self, key: tuple) -> tuple:
        self.walks += 1
        return super()._walk(key)
