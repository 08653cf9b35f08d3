"""World simulation, stepped one subcycle at a time.

Frames are aligned to subcycles and a node starts one only at offset 0 of
its own working subcycle, so the engine asks only those nodes for a bit at
offset 0 and, for the rest of the frame, only the ones that then hold a
frame.  Each cycle that carries light runs in two phases: the transmitters
present their bit, then the channel superposes the simultaneous pulses and
the nodes whose detectors see a bit observe the result.  A cycle in which a
node's detectors see no bit leaves that node unchanged, so it is not asked
to observe.  A subcycle without a transmitter, and the guard bits of one
with a transmitter, carry no light and are passed over to the subcycle's
last cycle, where every node closes the subcycle.  Which nodes see a bit,
and what they see, is memoised per set of simultaneous emissions.  No node
ever sees a partial cycle, so runs are reproducible bit-for-bit given the
same seed and configuration.

Timekeeping is phase-relative: a gap in the external laser clock restarts
the subcycle phase.  A still longer gap is the learning/working mode toggle;
learning runs once before the World starts, so the World traces such a gap
as ``mode_toggle`` and otherwise treats it as a frame sync.
Instruction-cycle indices stay monotonic across gaps so protocol timers keep
their meaning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelConfig,
    ChannelTick,
    PowerMap,
    build_power_map,
    received_power,
    superpose,
)
from .geometry import NodePose
from .metrics import Metrics
from .nodes import Agent
from .protocol import Frame, controller_address, parse_bits
from .timebase import (
    FRAME_BITS,
    ClockConfig,
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
        self.power_map: PowerMap = build_power_map(poses, tables, channel_cfg)
        self.stimuli: dict[str, Stimulus] = {}
        self.laser_gaps = sorted(laser_gaps or [], key=lambda g: g.cycle)
        for earlier, later in zip(self.laser_gaps, self.laser_gaps[1:]):
            if earlier.cycle + earlier.length > later.cycle:
                raise ValueError("laser gaps overlap")

        self.cycle = 0
        self.phase_origin = 0
        self._ic_base = 0
        self.controller_frames: list[tuple[int, Frame]] = []
        self._controller_hears = (set(controller_hears)
                                  if controller_hears is not None else None)
        self._controller_bits: list[int] = []
        self._controller_active = False
        self._evidence_seen: set[tuple[str, int, int]] = set()
        # emissions -> the (agent, tick) pairs whose tick has a bit
        self._lit: dict[tuple, list[tuple[Agent, ChannelTick]]] = {}
        self._fluor: dict[tuple[str, str], float] = {}

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
        self._ic_base = self.current_ic + 1
        self.cycle += gap.length
        self.phase_origin = self.cycle

    # -- stimuli ---------------------------------------------------------------

    def add_stimulus(self, name: str, position, intensity: float) -> None:
        self.stimuli[name] = Stimulus(name, np.asarray(position, dtype=float),
                                      intensity)
        self._fluor = {k: v for k, v in self._fluor.items() if k[1] != name}

    def set_stimulus(self, name: str, active: bool) -> None:
        self.stimuli[name].active = active

    def _fluorescence_at(self, agent: Agent) -> float:
        total = 0.0
        for stim in self.stimuli.values():
            if stim.active:
                total += self.fluor_from(agent.name, stim)
        return total

    def fluor_from(self, rx: str, stim: Stimulus) -> float:
        """Fluorescence power one stimulus delivers at ``rx``, computed once.

        A lit source at the node's own position (a cluster inside the cell
        that carries the node) floods its detector: the power is infinite.
        """
        key = (rx, stim.name)
        power = self._fluor.get(key)
        if power is None:
            d = float(np.linalg.norm(self.poses[rx].position - stim.position))
            if d > 0.0:
                power = received_power(stim.intensity, 1.0, d,
                                       self.channel_cfg.mu)
            else:
                power = math.inf if stim.intensity > 0.0 else 0.0
            self._fluor[key] = power
        return power

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

        Only the nodes whose working mode is this subcycle emit at offset 0,
        and afterwards only those that then hold a frame, over the frame's
        bits.  Nothing else can happen before the subcycle's last cycle, so
        a subcycle without a transmitter and the guard bits are passed over.
        A subcycle cut short by ``stop`` skips its end-of-subcycle work.
        """
        sub, off, ic = self._phase()
        start = self.cycle - off
        last = start + self.clock.subcycle_len - 1
        senders = [a for a in self.agents.values() if a.mode == sub]
        first = self.cycle
        if off == 0:
            self._begin_subcycle(sub, ic)
            self._emit_cycle(senders, sub, 0, ic)
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

    def _begin_subcycle(self, sub: Subcycle, ic: int) -> None:
        for agent in self.agents.values():
            agent.begin_subcycle(sub)
        self._controller_bits = [0] * FRAME_BITS
        self._controller_active = False
        if sub == Subcycle.T1:
            self.scenario.on_icycle_start(self, ic)

    def _emit_cycle(self, transmitters: list[Agent], sub: Subcycle, off: int,
                    ic: int) -> None:
        emissions = []
        for agent in transmitters:
            sent = agent.emit(sub, off, ic, self.cycle)
            if sent is not None and sent[0] == 1:
                emissions.append((agent.name, sent[1]))
        if not emissions:
            return
        if any(self._controller_hears is None or tx in self._controller_hears
               for tx, _ in emissions):
            self._controller_bits[off] = 1
            self._controller_active = True
        for agent, tick in self._lit_for(tuple(emissions)):
            if tick.top.evidence or tick.bottom.evidence:
                seen = (agent.name, ic, int(sub))
                if seen not in self._evidence_seen:
                    self._evidence_seen.add(seen)
                    self.metrics.collisions += 1
            agent.observe(tick, sub, off, ic, self.cycle)
        if self.trace.wants("power"):
            self.trace.event(self.cycle, "power",
                             sources=sorted(n for n, _ in emissions))

    def _end_subcycle(self, sub: Subcycle, ic: int) -> None:
        agents = self.agents.values()
        for agent in agents:
            agent.end_subcycle(sub, ic, self.cycle)
        if self._controller_active:
            self._controller_decode()
        if sub == Subcycle.T4:
            for agent in agents:
                if not agent.is_actuator:
                    detected = (self._fluorescence_at(agent)
                                >= self.channel_cfg.theta_fluor)
                    agent.on_second_layer(detected, ic, self.cycle)
            self.scenario.on_icycle_end(self, ic)

    def _lit_for(self, emissions: tuple[tuple[str, int], ...]
                 ) -> list[tuple[Agent, ChannelTick]]:
        """The agents whose detectors see a bit while ``emissions`` pulse,
        each with what it sees, in agent order; memoised per world.

        An agent whose tick has no bit is left out: observing such a tick
        changes nothing, and collision evidence implies a bit.
        """
        lit = self._lit.get(emissions)
        if lit is None:
            lit = []
            for agent in self.agents.values():
                arrivals = [self.power_map.arrival(tx, pattern, agent.name)
                            for tx, pattern in emissions if tx != agent.name]
                if not arrivals:
                    continue
                tick = ChannelTick(*superpose(arrivals, self.channel_cfg))
                if tick.top.bit or tick.bottom.bit:
                    lit.append((agent, tick))
            self._lit[emissions] = lit
        return lit

    def _controller_decode(self) -> None:
        """Decode the frame the ex-vivo controller saw this subcycle.

        The controller photodetector integrates over the whole body, so it
        receives the OR of every pulse emitted by the nodes it can hear
        (all of them unless ``controller_hears`` narrows the set, modelling
        deep nodes whose light does not reach the skin).
        """
        bits = tuple(self._controller_bits)
        try:
            frame = parse_bits(bits)
        except ValueError:
            return
        if frame.recipient != controller_address():
            return
        self.controller_frames.append((self.cycle, frame))
        self.trace.event(self.cycle, "controller", frame=frame.describe())
        self.scenario.on_controller_frame(self, frame, self.cycle)
