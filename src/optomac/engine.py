"""World simulation, stepped one subcycle at a time.

Frames are aligned to subcycles and a node starts one only at offset 0 of
its own working subcycle, so at offset 0 the engine asks only those nodes
that have something to send in this instruction cycle
(``Agent.has_send_work``) for a bit and, for the rest of the frame, only
the ones that then hold a frame.  Each cycle that carries light runs in two
phases: the transmitters present their bit, then the channel superposes the
simultaneous pulses and the nodes whose detectors see a bit observe the
result.  Each detector's bit comes from summing the emitters' entries in
the power tables per side, and its collision evidence from counting the
emitters whose own entry reaches the threshold; a node observes its two
detector bits, and no per-arrival reading is built.  A cycle in which a
node's detectors see no bit leaves that node unchanged, so it is not asked
to observe.  A subcycle without a transmitter, and the guard bits
of one with a transmitter, carry no light and are passed over to the
subcycle's last cycle.  There only the pending nodes close the subcycle:
the World keeps them as one int bit mask in node order, setting the bits
of the transmitters after offset 0 and of the nodes that saw a bit, and
keeping a node's bit after its close only while it still has work
(``Agent.has_subcycle_work``: a chain awaiting a reply or a block).  A node
clears its receive buffers once it has decoded them, and a sensor gets a
second-layer update only when its fluorescence reading differs from its
latch; every call left out would change nothing.  Which nodes see a bit,
and what they see, is memoised per set of simultaneous emissions with its
bit mask, and each sensor's fluorescence reading per stimulus state.  No
node ever sees a partial cycle, so runs are reproducible bit-for-bit given
the same seed and configuration.

Timekeeping is phase-relative.  A gap in the external laser clock shorter
than ``g_sync`` is flywheeled: the phase holds and its cycles run as usual,
except that no light reaches a detector or the controller.  A longer gap
restarts the subcycle phase and drops every node's partial frame.  A still
longer gap is the learning/working mode toggle; learning runs once before
the World starts, so the World traces such a gap as ``mode_toggle`` and
otherwise treats it as a frame sync.  Instruction-cycle indices stay
monotonic across gaps so protocol timers keep their meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, PowerMap, build_power_map, received_power
from .channel import superpose  # noqa: F401  bench/layers.py wraps engine.superpose
from .geometry import NodePose
from .metrics import Metrics
from .nodes import Agent
from .protocol import BIT_MASK, Frame, controller_address, parse_mask
from .timebase import (
    FRAME_BITS,
    ClockConfig,
    NonClockEvent,
    Subcycle,
    detect_nonclock,
    subcycle_of,
)
from .trace import NullTrace, TraceWriter


@dataclass
class Stimulus:
    """An isotropic fluorescence source somewhere in the tissue."""

    name: str
    position: np.ndarray
    intensity: float
    active: bool = True


@dataclass
class LaserGap:
    """A scripted pause of the external clock starting at ``cycle``."""

    cycle: int
    length: int


class ScenarioHooks:
    """World-level callbacks; scenarios override what they need."""

    def on_icycle_start(self, world: "World", ic: int) -> None:
        pass

    def on_icycle_end(self, world: "World", ic: int) -> None:
        pass

    def on_controller_frame(self, world: "World", frame: Frame,
                            cycle: int) -> None:
        pass


class World:
    """Channel, clock and node ensemble for one simulation run."""

    def __init__(self, poses: dict[str, NodePose], tables, agents: list[Agent],
                 clock: ClockConfig, channel_cfg: ChannelConfig,
                 trace: TraceWriter | None = None,
                 metrics: Metrics | None = None,
                 scenario: ScenarioHooks | None = None,
                 laser_gaps: list[LaserGap] | None = None,
                 controller_hears: set[str] | None = None):
        self.poses = poses
        self.clock = clock
        self.channel_cfg = channel_cfg
        self.trace = trace if trace is not None else NullTrace()
        self.metrics = metrics if metrics is not None else Metrics()
        self.scenario = scenario if scenario is not None else ScenarioHooks()
        self.agents = {a.name: a for a in agents}
        self.by_address = {a.address: a for a in agents}
        # bit i of an agent set (``_pending``, the lit masks) is _order[i]
        self._order = list(self.agents.values())
        # working modes are fixed by learning, before the World exists
        self._senders = {sub: [(a, 1 << i) for i, a in enumerate(self._order)
                               if a.mode == sub]
                         for sub in Subcycle}
        # the agents to close at the end of the current subcycle
        self._pending = 0
        self._sensors = [a for a in agents if not a.is_actuator]
        self.power_map: PowerMap = build_power_map(poses, tables, channel_cfg)
        # each agent with its column in the power map
        self._columns = [(a, 1 << i, self.power_map.index[a.name])
                         for i, a in enumerate(self._order)]
        self.stimuli: dict[str, Stimulus] = {}
        self.laser_gaps = sorted(laser_gaps or [], key=lambda g: g.cycle)
        for earlier, later in zip(self.laser_gaps, self.laser_gaps[1:]):
            if earlier.cycle + earlier.length > later.cycle:
                raise ValueError("laser gaps overlap")

        self.cycle = 0
        self.phase_origin = 0
        self._ic_base = 0
        # cycles before this one are in a short laser gap and carry no light
        self._dark_until = 0
        self.controller_frames: list[tuple[int, Frame]] = []
        self._controller_hears = (set(controller_hears)
                                  if controller_hears is not None else None)
        # what the controller saw this subcycle, as a bit mask
        self._controller_bits = 0
        self._evidence_seen: set[tuple[str, int, int]] = set()
        # emissions -> (agent, top bit, bottom bit, collision evidence) of
        # each agent that sees a bit, and those agents as a bit mask
        self._lit: dict[tuple, tuple[list[tuple[Agent, bool, bool, bool]],
                                     int]] = {}
        # sensor name -> fluorescence detected, for the current stimuli
        self._detected: dict[str, bool] = {}

    # -- time ----------------------------------------------------------------

    @property
    def current_ic(self) -> int:
        return self._ic_base + (self.cycle - self.phase_origin) // self.clock.icycle_len

    def _phase(self) -> tuple[Subcycle, int, int]:
        rel = self.cycle - self.phase_origin
        sub, off = subcycle_of(rel, self.clock)
        return sub, off, self._ic_base + rel // self.clock.icycle_len

    def _apply_gap(self, gap: LaserGap) -> None:
        event = detect_nonclock(gap.length, self.clock)
        self.trace.event(self.cycle, "laser_gap", length=gap.length,
                         event=event.name.lower())
        if event is NonClockEvent.NONE:
            self._dark_until = self.cycle + gap.length
            return
        # the abandoned subcycle is never closed, so nothing decodes what
        # its listeners heard
        for agent in self.agents.values():
            agent.clear_receive_buffers()
        self._ic_base = self.current_ic + 1
        self.cycle += gap.length
        self.phase_origin = self.cycle

    # -- stimuli ---------------------------------------------------------------

    def add_stimulus(self, name: str, position, intensity: float) -> None:
        self.stimuli[name] = Stimulus(name, np.asarray(position, dtype=float),
                                      intensity)
        self._detected.clear()

    def set_stimulus(self, name: str, active: bool) -> None:
        """Switch a stimulus on or off; the only way to change ``active``."""
        self.stimuli[name].active = active
        self._detected.clear()

    def _fluorescence_at(self, agent: Agent) -> float:
        total = 0.0
        for stim in self.stimuli.values():
            if stim.active:
                total += self.fluor_from(agent.name, stim)
        return total

    def fluor_from(self, rx: str, stim: Stimulus) -> float:
        """Fluorescence power one stimulus delivers at ``rx``.

        A lit source at the node's own position (a cluster inside the cell
        that carries the node) floods its detector: the power is infinite.
        """
        d = float(np.linalg.norm(self.poses[rx].position - stim.position))
        if d > 0.0:
            return received_power(stim.intensity, 1.0, d, self.channel_cfg.mu)
        return math.inf if stim.intensity > 0.0 else 0.0

    # -- main loop -------------------------------------------------------------

    def run(self, n_icycles: int) -> Metrics:
        self.run_cycles(n_icycles * self.clock.icycle_len)
        return self.metrics

    def run_cycles(self, n_cycles: int) -> None:
        end = self.cycle + n_cycles
        gaps = [g for g in self.laser_gaps if g.cycle >= self.cycle]
        while self.cycle < end:
            if gaps and gaps[0].cycle == self.cycle:
                self._apply_gap(gaps.pop(0))
                continue
            self._run_subcycle(min(end, gaps[0].cycle) if gaps else end)

    def _run_subcycle(self, stop: int) -> None:
        """Run from the current cycle to the end of its subcycle or ``stop``.

        Only the nodes whose working mode is this subcycle and that have
        something to send emit at offset 0, and afterwards only those that
        then hold a frame, over the frame's bits.  Nothing else can happen
        before the subcycle's last cycle, so a subcycle without a
        transmitter and the guard bits are passed over.  A subcycle cut
        short by ``stop`` skips its end-of-subcycle work.
        """
        sub, off, ic = self._phase()
        start = self.cycle - off
        last = start + self.clock.subcycle_len - 1
        senders = self._senders[sub]
        first = self.cycle
        if off == 0:
            self._begin_subcycle(sub, ic)
            # a sender with nothing to send loads nothing and stays silent
            ready = [a for a, _ in senders if a.has_send_work(ic)]
            if ready:
                self._emit_cycle(ready, sub, 0, ic)
            first += 1
        transmitters = []
        for agent, bit in senders:
            if agent.inflight is not None:
                transmitters.append(agent)
                self._pending |= bit
        if transmitters:
            for cycle in range(first, min(start + FRAME_BITS, stop)):
                self.cycle = cycle
                self._emit_cycle(transmitters, sub, cycle - start, ic)
        if stop > last:
            self.cycle = last
            self._end_subcycle(sub, ic)
        self.cycle = min(stop, last + 1)

    def _begin_subcycle(self, sub: Subcycle, ic: int) -> None:
        self._controller_bits = 0
        if sub is Subcycle.T1:
            self.scenario.on_icycle_start(self, ic)

    def _emit_cycle(self, transmitters: list[Agent], sub: Subcycle, off: int,
                    ic: int) -> None:
        emissions = []
        for agent in transmitters:
            sent = agent.emit(sub, off, ic, self.cycle)
            if sent is not None and sent[0] == 1:
                emissions.append((agent.name, sent[1]))
        if not emissions or self.cycle < self._dark_until:
            return
        if any(self._controller_hears is None or tx in self._controller_hears
               for tx, _ in emissions):
            self._controller_bits |= BIT_MASK[off]
        lit, lit_mask = self._lit_for(tuple(emissions))
        self._pending |= lit_mask
        for agent, top, bottom, evidence in lit:
            if evidence:
                seen = (agent.name, ic, int(sub))
                if seen not in self._evidence_seen:
                    self._evidence_seen.add(seen)
                    self.metrics.collisions += 1
            agent.observe(top, bottom, sub, off, ic, self.cycle)
        if self.trace.wants("power"):
            self.trace.event(self.cycle, "power",
                             sources=sorted(n for n, _ in emissions))

    def _end_subcycle(self, sub: Subcycle, ic: int) -> None:
        if self._pending:
            self._close_agents(sub, ic)
        if self._controller_bits != 0:
            self._controller_decode()
        if sub is Subcycle.T4:
            for agent in self._sensors:
                detected = self._detected.get(agent.name)
                if detected is None:
                    detected = (self._fluorescence_at(agent)
                                >= self.channel_cfg.theta_fluor)
                    self._detected[agent.name] = detected
                if detected != agent.latched:
                    agent.on_second_layer(detected, ic, self.cycle)
            self.scenario.on_icycle_end(self, ic)

    def _close_agents(self, sub: Subcycle, ic: int) -> None:
        """Close the subcycle on the pending agents, in agent order.

        An agent stays pending while it still has work (a reply window or a
        block to time out).  Only an agent's own ``end_subcycle`` can give
        it such work; a hook it runs may hand another agent something to
        send, which the offset-0 test finds, but nothing to close.
        """
        order = self._order
        todo = self._pending
        while todo:
            bit = todo & -todo
            agent = order[bit.bit_length() - 1]
            agent.end_subcycle(sub, ic, self.cycle)
            if not agent.has_subcycle_work:
                self._pending &= ~bit
            todo = self._pending & ~((bit << 1) - 1)

    def _lit_for(self, emissions: tuple[tuple[str, int], ...]
                 ) -> tuple[list[tuple[Agent, bool, bool, bool]], int]:
        """The agents whose detectors see a bit while ``emissions`` pulse,
        in agent order, each with its top and bottom bit and whether either
        side has collision evidence, and the same agents as a bit mask;
        memoised per world.

        A side's bit is the sum of the emitters' entries reaching
        ``theta_detect``, as in ``superpose``; its evidence is two or more
        emitters whose own entry reaches it, ``superpose``'s "two distinct
        strong sources", since the emitters of one cycle are distinct.  An
        agent without a bit is left out: observing nothing changes nothing,
        and evidence implies a bit.
        """
        entry = self._lit.get(emissions)
        if entry is None:
            pm = self.power_map
            theta = self.channel_cfg.theta_detect
            rows = []
            for tx, pattern in emissions:
                i = pm.index[tx]
                rows.append((pm.power[i][pattern], pm.top[i]))
            lit = []
            mask = 0
            for agent, bit, j in self._columns:
                # the same sums in the same order as ``superpose``; an
                # emitter's own entry is 0.0, adds nothing and is not strong
                top = bottom = 0.0
                strong_top = strong_bottom = 0
                for power, tops in rows:
                    p = power[j]
                    if tops[j]:
                        top += p
                        if p >= theta:
                            strong_top += 1
                    else:
                        bottom += p
                        if p >= theta:
                            strong_bottom += 1
                if top >= theta or bottom >= theta:
                    lit.append((agent, top >= theta, bottom >= theta,
                                strong_top >= 2 or strong_bottom >= 2))
                    mask |= bit
            entry = self._lit[emissions] = (lit, mask)
        return entry

    def _controller_decode(self) -> None:
        """Decode the frame the ex-vivo controller saw this subcycle.

        The controller photodetector integrates over the whole body, so it
        receives the OR of every pulse emitted by the nodes it can hear
        (all of them unless ``controller_hears`` narrows the set, modelling
        deep nodes whose light does not reach the skin).
        """
        frame = parse_mask(self._controller_bits)
        if frame.recipient != controller_address():
            return
        self.controller_frames.append((self.cycle, frame))
        self.trace.event(self.cycle, "controller", frame=frame.describe())
        self.scenario.on_controller_frame(self, frame, self.cycle)
