"""World simulation, stepped one instruction cycle at a time.

``World.run_cycles`` runs one instruction cycle per step
(``World._run_icycle``), or the part of one before a laser gap or the end
of the span it was asked for; the next step resumes mid-icycle.  A step
finds its phase once, and each subcycle's senders by the subcycle's
position in the icycle.

Frames are aligned to subcycles and a node starts one only at offset 0 of
its own working subcycle.  There the engine asks the nodes that have
something to send (``ic >= Agent.next_due()``) to load a frame
(``Agent.emit``), and then carries every bit of the frames loaded from
their masks, with no per-bit call to a node.  Send work is a wake time,
not a poll: nodes are asked for it only from the wake time on.  The poll
of an inert instruction cycle, and nothing else, moves it ahead, to the
nodes' first ``next_due``, and only while no node is pending.  No node
becomes pending before one sends, so every close, and any send work a close
creates, comes once the wake time is reached.  So only ``Agent.start_chain``
and ``start_request``, which scenario hooks call outside a close, set it
back to 0.  A laser gap gives no node send work and keeps icycle indices
monotonic, so it leaves the wake time alone.

A detector's bit is the sum of the emitters' power-table entries on its
side, and its collision evidence the count of emitters whose own entry
reaches the threshold; a node whose detectors see no bit is left
unchanged.  One walk carries every frame (``World._walk``): while two or
more race, each offset's emissions come from the frames still in the race
and a sender lit on its own 0-bit exits there (``Agent.sense``); once one
frame is left, alone from the start or not, the rest of it is one step.
Each lit listener takes what it saw as one mask (``Agent.receive``).
Subcycles without a transmitter and guard bits carry no light and are
passed over to the subcycle's last cycle, where only the pending nodes
close it: a bit mask in node order of the transmitters, the nodes that
saw a bit and those with work left (``Agent.has_subcycle_work``).
Sensors get fluorescence readings at the end of T4 only after a stimulus
changed, as only that pass moves a latch.  So an instruction cycle in
which, once ``on_icycle_start`` has run, no node is pending or has send
work, and that no laser gap or ``run_cycles`` boundary cuts, is one step:
its T4 end, with the sensor pass and ``on_icycle_end``.  Which nodes see
a bit, and what, is memoised per set of simultaneous emissions.  No node
ever sees a partial cycle, so runs are reproducible bit-for-bit given the
same seed and configuration.

Each distinct race is walked once per World (``World._carry``).  A race is
keyed by its window, its first and end cycle relative to the subcycle's
start, and by the (agent, mask, pattern) of each sender still in it, in
transmitter order, the order in which a detector sums their light.  The
walk changes no state and writes no line; it returns the outcome that
``_carry`` then replays: each exit through ``Agent.sense`` and, at the
``power`` level, each power line, in cycle order with an exit before its
cycle's line; collision evidence, counted once per agent per subcycle; the
lit agents and the controller's bits, ORed into the subcycle's; and each
lit listener's masks, through ``Agent.receive``.  The memo is exact for
the World's life, because the walk reads nothing else that can change: the
power map, ``controller_hears``, the working modes, ``theta_detect`` and
the trace level are fixed when the World is built; a short laser gap
enters through the window's first cycle and a ``run_cycles`` stop or a
gap's start through its end; and a frame that has already exited does not
race.

Timekeeping is phase-relative.  A gap in the external laser clock shorter
than ``g_sync`` is flywheeled: the phase holds and its cycles run as usual,
except that no light reaches a detector or the controller.  A longer gap
restarts the subcycle phase and drops every node's partial frame.  A still
longer gap is the learning/working mode toggle; learning runs once before
the World starts, so the World traces such a gap as ``mode_toggle`` and
otherwise treats it as a frame sync.  Instruction-cycle indices stay
monotonic across gaps so protocol timers keep their meaning.

Code run per subcycle or per frame reads enum members through their module
constants (``T1``, ``T4`` and ``NONE`` from ``timebase``), because a
metaclass ``__getattr__`` (``EnumType``'s) makes each class-attribute read
such as ``Subcycle.T4`` about five times slower on Python 3.11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ChannelConfig, PowerMap, build_power_map, received_power
from .channel import superpose  # noqa: F401  bench/layers.py wraps engine.superpose
from .geometry import NodePose
from .metrics import Metrics
from .nodes import Agent
from .protocol import BIT_MASK, Frame, controller_address, parse_mask
from .timebase import (
    FRAME_BITS,
    NONE,
    SUBCYCLES,
    T1,
    T4,
    ClockConfig,
    Subcycle,
    detect_nonclock,
    overlapping_gaps,
)
from .trace import NullTrace, TraceWriter


@dataclass
class Stimulus:
    """An isotropic fluorescence source somewhere in the tissue."""

    name: str
    position: tuple[float, float, float]
    intensity: float
    active: bool = True


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
                 laser_gaps: tuple[tuple[int, int], ...] = (),
                 controller_hears: set[str] | None = None):
        self.poses = poses
        self.clock = clock
        self._icycle_len = clock.icycle_len
        self._subcycle_len = clock.subcycle_len
        self.channel_cfg = channel_cfg
        self.trace = trace if trace is not None else NullTrace()
        # whether ``_carry`` writes a line per lit cycle
        self._trace_power = self.trace.wants("power")
        self.metrics = metrics if metrics is not None else Metrics()
        self.scenario = scenario if scenario is not None else ScenarioHooks()
        self.agents = {a.name: a for a in agents}
        self.by_address = {a.address: a for a in agents}
        # bit i of an agent set (``_pending``, the lit masks) is _order[i]
        self._order = list(self.agents.values())
        # the senders of each subcycle, by its position in the icycle;
        # working modes are fixed by learning, before the World exists
        self._senders = [[(a, 1 << i) for i, a in enumerate(self._order)
                          if a.mode == sub] for sub in SUBCYCLES]
        # the agents to close at the end of the current subcycle
        self._pending = 0
        # no agent has send work in an icycle before this wake time
        self._wake = [0]
        for agent in agents:
            agent.wake = self._wake
        self._sensors = [a for a in agents if not a.is_actuator]
        self.power_map: PowerMap = build_power_map(poses, tables, channel_cfg)
        # each agent with its column in the power map
        self._columns = [(a, 1 << i, self.power_map.index[a.name])
                         for i, a in enumerate(self._order)]
        self.stimuli: dict[str, Stimulus] = {}
        # how many stimuli are active; only add/set_stimulus change that
        self.lit_stimuli = 0
        gaps = sorted(laser_gaps, key=lambda g: g[0])  # ties keep their order
        clash = overlapping_gaps(gaps)
        if clash is not None:
            raise ValueError(f"laser gaps {list(clash[0])} and "
                             f"{list(clash[1])} overlap")
        # the gaps not yet applied, the next one last
        self._gaps_ahead = [g for g in gaps[::-1] if g[0] >= 0]

        self.cycle = 0
        self.phase_origin = 0
        self._ic_base = 0
        # cycles before this one are in a short laser gap and carry no light
        self._dark_until = 0
        self.controller_frames: list[tuple[int, Frame]] = []
        # the names whose light reaches the controller: every agent's unless
        # ``controller_hears`` narrows them
        self.controller_hears = frozenset(controller_hears
                                          if controller_hears is not None
                                          else self.agents)
        # what the controller saw this subcycle, as a bit mask
        self._controller_bits = 0
        # the agents whose collision evidence this subcycle was counted
        self._evidence_seen: set[str] = set()
        # emissions -> (agent, top bit, bottom bit, collision evidence) of
        # each agent that sees a bit, and those agents as a bit mask
        self._lit: dict[tuple, tuple[list[tuple[Agent, bool, bool, bool]],
                                     int]] = {}
        # race key -> its outcome; see ``_carry`` and ``_walk``
        self._carries: dict[tuple, tuple] = {}
        # a stimulus changed since the last T4 sensor pass; before any, each
        # reading is 0, below theta_fluor, and each latch is off
        self._stimuli_changed = False

    # -- time ----------------------------------------------------------------

    @property
    def current_ic(self) -> int:
        return (self._ic_base
                + (self.cycle - self.phase_origin) // self._icycle_len)

    def _apply_gap(self, length: int) -> None:
        event = detect_nonclock(length, self.clock)
        self.trace.event(self.cycle, "laser_gap", length=length,
                         event=event.name.lower())
        if event is NONE:
            self._dark_until = self.cycle + length
            return
        # the abandoned subcycle is never closed, so nothing decodes what
        # its listeners heard
        for agent in self.agents.values():
            agent.clear_receive_buffers()
        self._ic_base = self.current_ic + 1
        self.cycle += length
        self.phase_origin = self.cycle

    # -- stimuli ---------------------------------------------------------------

    def add_stimulus(self, name: str, position, intensity: float) -> None:
        x, y, z = position
        old = self.stimuli.get(name)
        self.lit_stimuli += old is None or not old.active
        self.stimuli[name] = Stimulus(name, (float(x), float(y), float(z)),
                                      intensity)
        self._stimuli_changed = True

    def set_stimulus(self, name: str, active: bool) -> None:
        """Switch a stimulus on or off; the only way to change ``active``."""
        stim = self.stimuli[name]
        self.lit_stimuli += bool(active) - bool(stim.active)
        stim.active = active
        self._stimuli_changed = True

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
        (px, py, pz), (sx, sy, sz) = self.poses[rx].position, stim.position
        dx, dy, dz = px - sx, py - sy, pz - sz
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        if d > 0.0:
            return received_power(stim.intensity, 1.0, d, self.channel_cfg.mu)
        return math.inf if stim.intensity > 0.0 else 0.0

    # -- main loop -------------------------------------------------------------

    def run(self, n_icycles: int) -> Metrics:
        self.run_cycles(n_icycles * self._icycle_len)
        return self.metrics

    def run_cycles(self, n_cycles: int) -> None:
        end = self.cycle + n_cycles
        gaps = self._gaps_ahead
        while self.cycle < end:
            if gaps and gaps[-1][0] == self.cycle:
                self._apply_gap(gaps.pop()[1])
                continue
            self._run_icycle(min(end, gaps[-1][0]) if gaps else end)

    def _run_icycle(self, stop: int) -> None:
        """Run from the current cycle to the end of its instruction cycle or
        ``stop``, subcycle by subcycle.

        An instruction cycle that is inert once ``on_icycle_start`` has run
        (no agent to close, none with send work, and ``stop`` beyond it) is
        run to its end in one step: only the T4 end has work then.  Before
        the wake time no agent has send work, so no agent is asked.

        Otherwise, at offset 0 of each subcycle only the nodes whose working
        mode it is and that have something to send load a frame.  Then
        ``_carry`` carries the frames not yet out of the race, where carrier
        sense may make one exit at any bit while two or more race.  Nothing
        else can happen before the subcycle's last cycle, so a subcycle
        without a transmitter and the guard bits are passed over.  A
        subcycle cut short by ``stop`` skips its end-of-subcycle work.
        """
        ics, rel = divmod(self.cycle - self.phase_origin, self._icycle_len)
        ic = self._ic_base + ics
        sub_len = self._subcycle_len
        k, off = divmod(rel, sub_len)
        start = self.cycle - off
        if rel == 0:
            self._begin_subcycle(T1, ic)
            end = start + self._icycle_len
            if (not self._pending and stop >= end
                    and (ic < self._wake[0] or not self._any_send_work(ic))):
                self.cycle = end - 1
                self._end_subcycle(T4, ic)
                self.cycle = end
                return
        while True:
            sub = SUBCYCLES[k]
            senders = self._senders[k]
            if off == 0:
                if k:
                    self._begin_subcycle(sub, ic)
                # ``emit`` at offset 0 loads the frame; the walk carries its
                # bits.  A sender with nothing to send loads nothing
                if ic >= self._wake[0]:
                    for agent, _ in senders:
                        if ic >= agent.next_due():
                            agent.emit(sub, 0, ic, self.cycle)
            last = start + sub_len - 1
            # (agent, mask, pattern) of each sender whose frame is still in
            # the race, in transmitter order; one that exited is mute
            racers = ()
            for agent, bit in senders:
                fl = agent.inflight
                if fl is not None:
                    self._pending |= bit
                    if fl.exited_at is None:
                        racers += agent, fl.mask, fl.out.pattern
            if racers:
                self._carry(racers, sub, start,
                            max(self.cycle, self._dark_until),
                            min(start + FRAME_BITS, stop))
            if stop <= last:
                self.cycle = stop
                return
            self.cycle = last
            self._end_subcycle(sub, ic)
            self.cycle = start = last + 1
            k += 1
            if k == len(SUBCYCLES) or start == stop:
                return
            off = 0

    def _any_send_work(self, ic: int) -> bool:
        """Whether an agent has send work in ``ic``; if none, set the wake."""
        wake = math.inf
        for agent in self._order:
            due = agent.next_due()
            if ic >= due:
                return True
            if due < wake:
                wake = due
        self._wake[0] = wake
        return False

    def _begin_subcycle(self, sub: Subcycle, ic: int) -> None:
        self._controller_bits = 0
        self._evidence_seen.clear()
        if sub is T1:
            self.scenario.on_icycle_start(self, ic)

    def _carry(self, racers: tuple, sub: Subcycle, start: int, first: int,
               end: int) -> None:
        """Carry the frames of ``racers``, the flat (agent, mask, pattern)
        of each sender still in the race, over cycles ``first`` to
        ``end - 1``, which no laser gap darkens: replay the outcome of their
        race, walked the first time the World meets it.  The module
        docstring gives the key, the replay order and why it is exact.
        """
        key = (first - start, end - start) + racers
        outcome = self._carries.get(key)
        if outcome is None:
            outcome = self._carries[key] = self._walk(key, sub)
        events, evidence, lit_mask, controller_bits, listeners = outcome
        for off, agent, sources in events:
            if agent is None:
                self.trace.power(start + off, sources)
            else:
                agent.sense(off, start + off)
        if evidence:
            seen = self._evidence_seen
            for name in evidence:
                if name not in seen:
                    seen.add(name)
                    self.metrics.collisions += 1
        self._pending |= lit_mask
        self._controller_bits |= controller_bits
        for agent, (top, bottom) in listeners:
            agent.receive(sub, top, bottom)

    def _walk(self, key: tuple, sub: Subcycle) -> tuple:
        """The outcome of the race ``key`` names (see ``_carry``), with
        offsets relative to the subcycle's start; it reads its senders from
        the key, changes no state and writes no trace line.

        While two or more frames race it walks offset by offset.  Each
        offset's emissions are the 1-bits of the frames still in the race,
        and a lit sender mute on its own 0-bit exits there.  Once one frame
        is left, the rest of it is one step: with no other emitter nothing
        can make it exit or give evidence, and each of its 1-bits lights the
        same detectors.  The outcome holds the exits ``(offset, agent,
        None)`` and, at the ``power`` level, the power lines ``(offset,
        None, sources)``, in cycle order with each exit before its cycle's
        line; the names of the agents with collision evidence; the lit
        agents as a bit mask; the bits the controller saw; and each lit
        listener with its ``(top, bottom)`` masks.
        """
        hears = self.controller_hears
        power = self._trace_power
        # the senders still in the race, in transmitter order, each with
        # its frame's mask and its emission
        racing = {}
        for i in range(2, len(key), 3):
            agent = key[i]
            racing[agent] = key[i + 1], (agent.name, key[i + 2])
        events, evidence, heard = [], [], {}
        lit_all = controller = 0
        off, end = key[0], key[1]
        exited = True
        while off < end:
            if exited:
                # the masks of the racers the controller hears, ORed
                audible = 0
                for mask, (name, _) in racing.values():
                    if name in hears:
                        audible |= mask
                exited = False
            alone = len(racing) == 1
            if alone:
                # the rest of the lone frame: its 1-bits up to ``end``
                (mask, emission), = racing.values()
                bits = mask & (((1 << (end - off)) - 1) << (FRAME_BITS - end))
                emissions = (emission,) if bits else ()
                at, off = off, end
            else:
                bits = BIT_MASK[off]
                emissions = tuple([emission for mask, emission
                                   in racing.values() if mask & bits])
                at, off = off, off + 1
            if not emissions:
                continue
            controller |= audible & bits
            lit, lit_mask = self._lit_for(emissions)
            lit_all |= lit_mask
            for agent, top, bottom, strong in lit:
                if strong and agent.name not in evidence:
                    evidence.append(agent.name)
                if agent.mode is not sub:
                    seen_top, seen_bottom = heard.get(agent, (0, 0))
                    heard[agent] = (seen_top | (bits if top else 0),
                                    seen_bottom | (bits if bottom else 0))
                elif not alone:
                    # carrier sense: a racer mute on this bit exits
                    entry = racing.get(agent)
                    if entry is not None and not entry[0] & bits:
                        del racing[agent]
                        events.append((at, agent, None))
                        exited = True
            if power:
                sources = tuple(sorted(name for name, _ in emissions))
                for c in range(at, off):
                    if bits & BIT_MASK[c]:
                        events.append((c, None, sources))
        return (tuple(events), tuple(evidence), lit_all, controller,
                tuple(heard.items()))

    def _end_subcycle(self, sub: Subcycle, ic: int) -> None:
        if self._pending:
            self._close_agents(sub, ic)
        if self._controller_bits != 0:
            self._controller_decode()
        if sub is T4:
            # only this pass moves a latch; the flag is cleared first, so a
            # change a hook makes during the walk is sensed at the next T4
            if self._stimuli_changed:
                self._stimuli_changed = False
                for agent in self._sensors:
                    agent.on_second_layer(
                        self._fluorescence_at(agent)
                        >= self.channel_cfg.theta_fluor, ic, self.cycle)
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
        self.trace.controller_frame(self.cycle, self._controller_bits)
        self.scenario.on_controller_frame(self, frame, self.cycle)
