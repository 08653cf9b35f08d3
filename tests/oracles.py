"""Reference models the tests check the live simulator against.

Each restates one rule of the model in its simplest form, apart from the
code a run executes: the geometry of one link, decoding a frame from its bit
tuple, arbitration as a maximum and as a bit-serial round over pairwise
carrier sense, reachability from the power map, and an engine that polls
every agent for work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from optomac.channel import ChannelConfig, PowerMap
from optomac.engine import World
from optomac.geometry import NodePose
from optomac.nodes import Agent
from optomac.protocol import Bits, Frame, parse_mask
from optomac.timebase import FRAME_BITS, Subcycle


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
    """The World that keeps no set of agents to close.

    At offset 0 it asks every sender of the subcycle ``polled_send_work``,
    and at each subcycle's end it asks every agent, in agent order and each
    just before its turn, ``polled_subcycle_work``.  The live World must
    give the same runs with its exact tests and its pending set.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # never 0, so that every subcycle's end reaches ``_close_agents``
        self._pending = -1

    def _run_subcycle(self, stop: int) -> None:
        sub, off, ic = self._phase()
        start = self.cycle - off
        last = start + self.clock.subcycle_len - 1
        senders = [a for a, _ in self._senders[sub]]
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

    def _close_agents(self, sub: Subcycle, ic: int) -> None:
        for agent in self.agents.values():
            if polled_subcycle_work(agent):
                agent.end_subcycle(sub, ic, self.cycle)
