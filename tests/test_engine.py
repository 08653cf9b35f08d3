"""World engine: end-to-end delivery, arbitration, gaps, second layer."""

import hashlib
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optomac.antenna import SampledPatternTable
from optomac.channel import ChannelConfig
from optomac.engine import ScenarioHooks, World
from optomac.geometry import NodePose
from optomac.metrics import Metrics
from optomac.nodes import Agent, Hooks, Outgoing, Variant
from optomac.protocol import (
    BIT_MASK,
    PRIORITY_DATA,
    Frame,
    NodeMemory,
    Opcode,
    controller_address,
)
from optomac.timebase import ClockConfig, Rng, Subcycle
from optomac.trace import TraceWriter
from oracles import (
    PollingWorld,
    WakeCheckingWorld,
    contention_round,
    frame_bits,
    phase,
    subcycle_of,
)


class DoneRecorder(Hooks):
    def __init__(self):
        self.done = []
        self.triggers = []

    def on_chain_done(self, agent, chain, cycle):
        self.done.append((agent.name, cycle))

    def on_trigger(self, agent, ic):
        self.triggers.append((agent.name, ic))


class FrameRecorder(ScenarioHooks):
    def __init__(self):
        self.frames = []

    def on_controller_frame(self, world, frame, cycle):
        self.frames.append((cycle, frame))


def make_world(node_specs, variant=Variant.BASIC, trace=None,
               controller_hears=None, laser_gaps=(), scenario=None,
               gain=5.0, world_cls=World):
    """node_specs: (name, address, is_actuator, mode, position) tuples."""
    poses, agents = {}, []
    metrics = Metrics()
    tracer = trace if trace is not None else TraceWriter("summary")
    hooks = DoneRecorder()
    addresses = [spec[1] for spec in node_specs]
    for name, address, is_act, mode, position in node_specs:
        poses[name] = NodePose(position)
        mem = NodeMemory(address=address, is_actuator=is_act,
                         working_mode=mode,
                         physical=set(addresses) - {address})
        agents.append(Agent(name, mem, Rng(0, address), variant, tracer,
                            metrics, hooks=hooks))
    # every node gets four patterns of one gain toward every azimuth
    tables = {name: SampledPatternTable([0.0], [[gain]] * 4) for name in poses}
    world = world_cls(poses, tables, agents, ClockConfig(),
                      ChannelConfig(), trace=tracer, metrics=metrics,
                      scenario=scenario, laser_gaps=laser_gaps,
                      controller_hears=controller_hears)
    return world, hooks


def pair_specs():
    return [("s", 0b0001, False, Subcycle.T1, (0.0, 0.0, 0.0)),
            ("a", 0b1000, True, Subcycle.T2, (2.0, 0.0, 0.0))]


def test_basic_variant_delivers_in_one_icycle():
    world, hooks = make_world(pair_specs(), Variant.BASIC)
    world.agents["s"].start_chain(0b1000)
    world.run(2)
    m = world.metrics
    assert (m.issued, m.delivered, m.lost) == (1, 1, 0)
    assert m.acks_sent == 1 and m.blocks_sent == 0
    assert hooks.done == [("s", 23)]   # ACK lands at the end of T2
    assert m.delivery_ratio() == 1.0


def test_handshake_variant_full_exchange():
    world, hooks = make_world(pair_specs(), Variant.HANDSHAKE)
    world.agents["s"].start_chain(0b1000)
    world.run(3)
    m = world.metrics
    assert (m.issued, m.delivered) == (1, 1)
    assert m.blocks_sent == 1 and m.acks_sent == 1
    # NOTIFY in T1, BLOCK in T2, COMMAND next T1, ACK next T2
    assert hooks.done == [("s", 71)]


def test_live_arbitration_matches_contention_oracle():
    side = 2.0
    specs = [
        ("s1", 0b0001, False, Subcycle.T1, (0.0, 0.0, 0.0)),
        ("s2", 0b0010, False, Subcycle.T1, (side, 0.0, 0.0)),
        ("s3", 0b0011, False, Subcycle.T1, (side / 2, side * math.sqrt(3) / 2,
                                            0.0)),
        ("a", 0b1000, True, Subcycle.T2, (side / 2, side * math.sqrt(3) / 6,
                                          0.0)),
    ]
    trace = TraceWriter("events")
    world, hooks = make_world(specs, Variant.BASIC, trace=trace)
    frames = {}
    for name in ("s1", "s2", "s3"):
        agent = world.agents[name]
        agent.start_chain(0b1000)
        frames[name] = frame_bits(Frame(0b1000, Opcode.COMMAND,
                                        agent.address))
    oracle, merged = contention_round(frames)
    world.run(1)

    # the first subcycle's live exits agree with the reference round
    events = [json.loads(line) for line in trace.getvalue().splitlines()]
    exits = {e["node"]: e["bit"] for e in events
             if e["kind"] == "tx_exit" and e["cycle"] < 12}
    assert exits == {name: o.exit_bit for name, o in oracle.items()
                     if not o.completed}
    assert exits == {"s1": 9, "s2": 10}
    # the actuator decoded the merged stream as the winner's frame, intact
    rx = [e for e in events if e["kind"] == "rx_frame" and e["node"] == "a"]
    assert rx[0]["frame"] == Frame(0b1000, Opcode.COMMAND, 0b0011).describe()
    assert tuple(int(c) for c in rx[0]["frame"].replace(" ", "")) == merged

    # losers retry in address order on later cycles until all deliver
    world.run(3)
    m = world.metrics
    assert (m.issued, m.delivered, m.exits) == (3, 3, 3)
    assert [name for name, _ in hooks.done] == ["s3", "s2", "s1"]
    assert m.collisions > 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                min_size=2, max_size=4, unique=True),
       st.floats(0.5, 20.0))
def test_live_arbitration_matches_oracle_on_random_deployments(points, gain):
    # every T1 subcycle of the first four icycles: the senders that start a
    # frame there contend, and each exits where the oracle says, with a
    # sender hearing the light of the pulsing senders summed per detector
    sensors = [f"s{i + 1}" for i in range(len(points))]
    specs = [(name, i + 1, False, Subcycle.T1, (x / 2, y / 2, 0.0))
             for i, (name, (x, y)) in enumerate(zip(sensors, points))]
    specs.append(("a", 0b1000, True, Subcycle.T2, (0.0, 0.0, 5.0)))
    trace = TraceWriter("events")
    world, _ = make_world(specs, Variant.BASIC, trace=trace, gain=gain)
    theta = world.channel_cfg.theta_detect
    for name in sensors:
        world.agents[name].start_chain(0b1000)
    n_icycles = 4
    world.run(n_icycles)

    events = [json.loads(line) for line in trace.getvalue().splitlines()]
    icycle_len = world.clock.icycle_len
    contended = 0
    for ic in range(n_icycles):
        lo, hi = ic * icycle_len, ic * icycle_len + world.clock.subcycle_len
        frames, patterns = {}, {}
        for e in events:
            if e["kind"] == "tx_start" and lo <= e["cycle"] < hi:
                frames[e["node"]] = tuple(
                    int(c) for c in e["frame"].replace(" ", ""))
                patterns[e["node"]] = e["pattern"]
        if not frames:
            continue

        def hears(rx, ones):
            # in agent order, as a detector sums its arrivals
            power = {"top": 0.0, "bottom": 0.0}
            for tx in sorted(ones):
                arrival = world.power_map.arrival(tx, patterns[tx], rx)
                power[arrival.side] += arrival.power
            return max(power.values()) >= theta

        oracle, _ = contention_round(frames, hears)
        exits = {e["node"]: e["bit"] for e in events
                 if e["kind"] == "tx_exit" and lo <= e["cycle"] < hi}
        assert exits == {name: o.exit_bit for name, o in oracle.items()
                         if not o.completed}, ic
        contended += len(frames) > 1
    assert contended


def test_collision_evidence_counted_once_per_subcycle():
    specs = pair_specs() + [("s2", 0b0010, False, Subcycle.T1,
                             (0.0, 2.0, 0.0))]
    world, _ = make_world(specs, Variant.BASIC)
    for name in ("s", "s2"):
        world.agents[name].start_chain(0b1000)
    world.run(1)
    # both sensors pulse bit 0 together: one evidence event at the actuator,
    # recorded once for the whole subcycle
    assert world.metrics.collisions == 1


def test_controller_hears_everything_by_default():
    world, _ = make_world(pair_specs(), Variant.BASIC)
    assert world.controller_hears == {"s", "a"}
    recorder = FrameRecorder()
    world.scenario = recorder
    relay = Frame(controller_address(), Opcode.RELAY, 0b0001)
    world.agents["s"].queue.append(Outgoing(relay, 0, PRIORITY_DATA))
    world.run(1)
    assert [f for _, f in world.controller_frames] == [relay]
    assert [f for _, f in recorder.frames] == [relay]


def test_controller_visibility_can_be_narrowed():
    world, _ = make_world(pair_specs(), Variant.BASIC,
                          controller_hears={"a"})
    relay = Frame(controller_address(), Opcode.RELAY, 0b0001)
    world.agents["s"].queue.append(Outgoing(relay, 0, PRIORITY_DATA))
    world.run(1)
    assert world.controller_frames == []


def test_controller_ignores_frames_for_other_recipients():
    world, _ = make_world(pair_specs(), Variant.BASIC)
    world.agents["s"].start_chain(0b1000)
    world.run(2)
    assert world.controller_frames == []   # COMMAND/ACK are not for it


def gap_events(trace):
    return [e["event"] for e in map(json.loads, trace.getvalue().splitlines())
            if e["kind"] == "laser_gap"]


def test_frame_sync_gap_restarts_phase():
    trace = TraceWriter("events")
    world, _ = make_world(pair_specs(), trace=trace,
                          laser_gaps=[(5, 8)])
    world.run_cycles(20)
    # the 8-cycle pause is part of the 20 cycles run
    assert world.cycle == 20
    assert world.phase_origin == 13
    assert gap_events(trace) == ["frame_sync"]
    # instruction cycles stay monotonic across the gap
    assert world.current_ic == 1


def test_phase_agrees_with_subcycle_of_without_gaps(monkeypatch):
    # without a gap the phase runs from cycle 0, so the World's phase from
    # its cached lengths at each subcycle start is ``subcycle_of``'s, and
    # its icycle the cycle's quotient; runs end inside icycles and subcycles
    starts = []
    begin = World._begin_subcycle

    def checking_begin(world, sub, ic):
        starts.append(world.cycle)
        assert phase(world) == (sub, 0, ic)
        assert (sub, 0) == subcycle_of(world.cycle, world.clock)
        assert ic == world.cycle // world.clock.icycle_len
        begin(world, sub, ic)

    monkeypatch.setattr(World, "_begin_subcycle", checking_begin)
    world, _ = make_world(clique_specs(), Variant.HANDSHAKE)
    for name in ("s1", "s2", "s3"):
        world.agents[name].start_chain(0b1000)
    for n in (5, 43, 7, 200, 1000):
        world.run_cycles(n)
    assert world.metrics.delivered == 3
    # every subcycle start of an icycle with traffic, and each T1 start
    icycle_len = world.clock.icycle_len
    assert {c % icycle_len for c in starts} == {0, 12, 24, 36}
    assert [c for c in starts if c % icycle_len == 0] == list(
        range(0, world.cycle, icycle_len))


@pytest.mark.parametrize("length", [3, 8, 32])
def test_a_gap_leaves_the_wake(length):
    # with nothing to send, an inert icycle's poll puts the wake time out
    # of reach; a laser gap of any kind gives no node send work and leaves
    # it there, and a chain started after the gap still wakes the World
    world, hooks = make_world(pair_specs(), laser_gaps=[(96, length)])
    world.run(2)
    assert world._wake[0] == math.inf
    world.run_cycles(1)
    assert not world._gaps_ahead
    assert world._wake[0] == math.inf
    world.agents["s"].start_chain(0b1000)
    world.run(3)
    assert world.metrics.delivered == 1
    assert [name for name, _ in hooks.done] == ["s"]


def test_short_gap_keeps_phase():
    # a gap shorter than g_sync is flywheeled: no restart, no new icycle
    trace = TraceWriter("events")
    world, _ = make_world(pair_specs(), trace=trace,
                          laser_gaps=[(5, 3)])
    world.run_cycles(20)
    assert world.cycle == 20
    assert world.phase_origin == 0
    assert world.current_ic == 0
    assert gap_events(trace) == ["none"]


def test_short_gap_darkens_its_cycles():
    # s steps through its COMMAND across the gap at cycles 4-6, but the
    # opcode's 1-bit at offset 4 reaches no one: the actuator decodes
    # opcode 000, s times out and delivers on its retry
    trace = TraceWriter("events")
    world, hooks = make_world(pair_specs(), Variant.BASIC, trace=trace,
                              laser_gaps=[(4, 3)])
    world.agents["s"].start_chain(0b1000)
    world.run(2)
    events = [json.loads(line) for line in trace.getvalue().splitlines()]
    done = [e["cycle"] for e in events
            if e["kind"] == "tx_done" and e["node"] == "s"]
    rx = [(e["cycle"], e["frame"]) for e in events
          if e["kind"] == "rx_frame" and e["node"] == "a"]
    assert done == [11, 59]
    assert rx == [(11, "1000 000 0001"), (59, "1000 100 0001")]
    assert hooks.done == [("s", 71)]


def test_mode_toggle_gap_flips_learning():
    # learning runs before the World starts; the World labels the gap
    trace = TraceWriter("events")
    world, _ = make_world(pair_specs(), trace=trace,
                          laser_gaps=[(0, 32)])
    world.run_cycles(10)
    assert gap_events(trace) == ["mode_toggle"]
    assert world.phase_origin == 32


def test_frame_sync_gap_drops_partial_frames():
    # x's RELAY is cut after five bits by a gap in T2; the phase restarts at
    # T1, where y sends another frame.  The listener must decode y's frame
    # alone, not ORed with the stale head of x's
    trace = TraceWriter("events")
    specs = [("x", 0b0010, False, Subcycle.T2, (0.0, 0.0, 0.0)),
             ("y", 0b0001, False, Subcycle.T1, (2.0, 0.0, 0.0)),
             ("l", 0b0100, False, Subcycle.T3, (1.0, math.sqrt(3.0), 0.0))]
    world, _ = make_world(specs, trace=trace, laser_gaps=[(17, 8)])
    relay = Frame(controller_address(), Opcode.RELAY, 0b0010)
    world.agents["x"].queue.append(Outgoing(relay, 0, PRIORITY_DATA))
    world.run_cycles(17)
    notify = Frame(0b0100, Opcode.NOTIFY, 0b0001)
    world.agents["y"].queue.append(Outgoing(notify, 0, PRIORITY_DATA))
    world.run_cycles(8 + 12)
    events = [json.loads(line) for line in trace.getvalue().splitlines()]
    assert gap_events(trace) == ["frame_sync"]
    heard = [(e["kind"], e.get("frame")) for e in events
             if e["kind"] in ("rx_frame", "rx_reject") and e["node"] == "l"]
    assert heard == [("rx_frame", notify.describe())]


def test_overlapping_gaps_rejected():
    with pytest.raises(ValueError):
        make_world(pair_specs(),
                   laser_gaps=[(0, 10), (5, 10)])


def test_gaps_starting_together_keep_the_order_given():
    # length-0 gaps are valid, so two gaps can start in one cycle; sorted on
    # the start alone they apply in the order given, and, as in config, a
    # gap still running when the next one starts overlaps it
    trace = TraceWriter("events")
    world, _ = make_world(pair_specs(), trace=trace,
                          laser_gaps=[(5, 0), (5, 3)])
    world.run_cycles(20)
    assert [e["length"] for e in map(json.loads, trace.getvalue().splitlines())
            if e["kind"] == "laser_gap"] == [0, 3]
    with pytest.raises(ValueError, match=r"\[5, 3\] and \[5, 0\] overlap"):
        make_world(pair_specs(), laser_gaps=[(5, 3), (5, 0)])


def test_gap_defers_traffic_but_not_delivery():
    world, hooks = make_world(pair_specs(), Variant.BASIC,
                              laser_gaps=[(3, 8)])
    world.agents["s"].start_chain(0b1000)
    world.run(2)
    assert world.metrics.delivered == 1
    assert hooks.done and hooks.done[0][0] == "s"


def test_fluorescence_latch_and_release():
    world, hooks = make_world(pair_specs(), Variant.BASIC)
    world.add_stimulus("lesion", (0.0, 0.0, 1.0), 0.01)
    world.run(1)
    assert world.agents["s"].latched
    assert not world.agents["a"].latched   # actuators have no latch
    assert hooks.triggers == [("s", 0)]
    world.run(1)
    assert hooks.triggers == [("s", 0)]    # level does not re-trigger
    world.set_stimulus("lesion", False)
    world.run(1)
    assert not world.agents["s"].latched


def test_weak_stimulus_stays_below_latch_threshold():
    world, hooks = make_world(pair_specs(), Variant.BASIC)
    world.add_stimulus("faint", (0.0, 0.0, 8.0), 0.01)
    world.run(1)
    assert not world.agents["s"].latched
    assert hooks.triggers == []


STIMULUS_CALLS = st.lists(st.tuples(
    st.sampled_from(("add", "set")), st.sampled_from(("a", "b", "c")),
    st.booleans()), max_size=12)


@settings(max_examples=100, deadline=None)
@given(STIMULUS_CALLS)
def test_lit_count_matches_a_recount(calls):
    # adding a stimulus again replaces it, lit, and setting one to the value
    # it has changes nothing
    world, _ = make_world(pair_specs())
    for call, name, active in calls:
        if call == "add":
            world.add_stimulus(name, (0.0, 0.0, 1.0), 0.01)
        elif name in world.stimuli:
            world.set_stimulus(name, active)
        assert world.lit_stimuli == sum(s.active
                                        for s in world.stimuli.values())


def test_run_returns_shared_metrics():
    world, _ = make_world(pair_specs())
    out = world.run(1)
    assert out is world.metrics
    assert world.cycle == 48
    assert world.current_ic == 1


def test_only_lit_listeners_observe(monkeypatch):
    # a node far from the clique never sees a bit, so it is never asked to
    # sense or receive one.  Each lit cycle's bit reaches every node that
    # listens in its subcycle exactly once, on the side that sees it, through
    # ``receive``: from a lone sender with its whole frame, from contending
    # ones with the whole walk.  A node in its own subcycle is asked to
    # sense only cycles it sees a bit in, each once at most
    specs = clique_specs() + [("far", 0b0100, False, Subcycle.T3,
                               (40.0, 0.0, 0.0))]
    trace = TraceWriter("power")
    world, _ = make_world(specs, Variant.HANDSHAKE, trace=trace)
    sub_len = world.clock.subcycle_len
    sensed, received = [], []
    sense, receive = Agent.sense, Agent.receive

    def counting_sense(agent, offset, cycle):
        sensed.append((agent.name, cycle))
        return sense(agent, offset, cycle)

    def counting_receive(agent, sub, top, bottom):
        # no gap here: the phase starts at cycle 0
        start = world.cycle - world.cycle % sub_len
        for side, mask in (("top", top), ("bottom", bottom)):
            for off, bit in enumerate(BIT_MASK):
                if mask & bit and sub != agent.mode:
                    received.append((agent.name, start + off, side))
        return receive(agent, sub, top, bottom)

    monkeypatch.setattr(Agent, "sense", counting_sense)
    monkeypatch.setattr(Agent, "receive", counting_receive)
    for name in ("s1", "s2", "s3"):
        world.agents[name].start_chain(0b1000)
    world.run(4)

    theta = world.channel_cfg.theta_detect
    listening, sensing = [], set()
    for event in map(json.loads, trace.getvalue().splitlines()):
        if event["kind"] != "power":
            continue
        cycle = event["cycle"]
        sub, _ = subcycle_of(cycle, world.clock)
        for rx, agent in world.agents.items():
            power = {"top": 0.0, "bottom": 0.0}
            for tx in world.agents:
                if tx in event["sources"] and tx != rx:
                    # every pattern of the flat tables has the same gain
                    arrival = world.power_map.arrival(tx, 0, rx)
                    power[arrival.side] += arrival.power
            for side, p in power.items():
                if p < theta:
                    continue
                if agent.mode == sub:
                    sensing.add((rx, cycle))
                else:
                    listening.append((rx, cycle, side))
    assert "far" not in {name for name, _, _ in listening}
    assert "far" not in {name for name, _ in sensed}
    assert world.metrics.exits > 0
    assert listening and sorted(received) == sorted(listening)
    own = [(name, cycle) for name, cycle in sensed
           if world.agents[name].mode == subcycle_of(cycle, world.clock)[0]]
    assert own and len(own) == len(set(own)) and set(own) <= sensing


def test_blocked_node_with_only_data_queued_is_not_asked(monkeypatch):
    # a blocked node sends only BLOCK and ACK frames, so while it holds
    # nothing but data the engine does not ask it for a bit
    world, _ = make_world(clique_specs())
    s1 = world.agents["s1"]
    s1.blocked_by = 0b1000
    s1.queue.append(Outgoing(Frame(0b1000, Opcode.RELAY, s1.address), 0,
                             PRIORITY_DATA))
    asked = []
    emit = Agent.emit

    def counting_emit(agent, *args):
        asked.append(agent.name)
        return emit(agent, *args)

    monkeypatch.setattr(Agent, "emit", counting_emit)
    world.run(3)
    assert asked == []
    assert len(s1.queue) == 1


def test_only_nodes_with_work_close_the_subcycle(monkeypatch):
    # the far node never sends, hears or waits, so it never closes a
    # subcycle; every node that sends or hears in a subcycle closes it
    specs = clique_specs() + [("far", 0b0100, False, Subcycle.T3,
                               (40.0, 0.0, 0.0))]
    world, _ = make_world(specs, Variant.HANDSHAKE)
    sub_len = world.clock.subcycle_len
    closed, active = [], set()
    end_subcycle, emit, receive = (Agent.end_subcycle, Agent.emit,
                                   Agent.receive)

    def counting_end(agent, sub, ic, cycle):
        closed.append((agent.name, cycle // sub_len))
        return end_subcycle(agent, sub, ic, cycle)

    def counting_emit(agent, sub, offset, ic, cycle):
        sent = emit(agent, sub, offset, ic, cycle)
        if agent.inflight is not None:
            active.add((agent.name, cycle // sub_len))
        return sent

    def counting_receive(agent, sub, top, bottom):
        if sub != agent.mode:             # in its own, a node only senses
            active.add((agent.name, world.cycle // sub_len))
        return receive(agent, sub, top, bottom)

    monkeypatch.setattr(Agent, "end_subcycle", counting_end)
    monkeypatch.setattr(Agent, "emit", counting_emit)
    monkeypatch.setattr(Agent, "receive", counting_receive)
    for name in ("s1", "s2", "s3"):
        world.agents[name].start_chain(0b1000)
    world.run(6)

    assert world.metrics.delivered == 3
    assert "far" not in {name for name, _ in closed}
    assert len(closed) == len(set(closed))       # once per subcycle at most
    assert active <= set(closed)


def test_inert_icycle_and_lone_frame_take_one_step_each(monkeypatch):
    # an icycle in which nothing has work ends with its T4 close alone, and
    # a frame sent alone is emitted at offset 0 only: the engine carries its
    # other bits in one step
    world, hooks = make_world(pair_specs())
    ends, emits = [], []
    end_subcycle, emit = World._end_subcycle, Agent.emit

    def counting_end(self, sub, ic):
        ends.append((sub, ic))
        return end_subcycle(self, sub, ic)

    def counting_emit(agent, sub, offset, ic, cycle):
        emits.append((agent.name, offset))
        return emit(agent, sub, offset, ic, cycle)

    monkeypatch.setattr(World, "_end_subcycle", counting_end)
    monkeypatch.setattr(Agent, "emit", counting_emit)
    world.run(5)
    assert ends == [(Subcycle.T4, ic) for ic in range(5)]
    assert emits == []
    assert world.cycle == 5 * world.clock.icycle_len

    ends.clear()
    world.agents["s"].start_chain(0b1000)
    world.run(2)
    # s commands in T1 and a acknowledges in T2, each alone
    assert hooks.done and world.metrics.delivered == 1
    assert emits == [("s", 0), ("a", 0)]
    assert ends[0][0] is Subcycle.T1 and ends[-1] == (Subcycle.T4, 6)


def test_contended_frames_are_emitted_at_offset_0_only(monkeypatch):
    # three clique senders contend in T1: the live engine asks each for a
    # bit only at offset 0, where its frame loads, carries every bit of the
    # race in one walk and asks no node to observe.  The polling oracle
    # emits and observes every bit, and gives the same trace, exits and
    # evidence
    emits, observes = [], []
    emit, observe = Agent.emit, Agent.observe

    def counting_emit(agent, sub, offset, ic, cycle):
        emits.append(offset)
        return emit(agent, sub, offset, ic, cycle)

    def counting_observe(agent, top, bottom, sub, offset, ic, cycle):
        observes.append(offset)
        return observe(agent, top, bottom, sub, offset, ic, cycle)

    monkeypatch.setattr(Agent, "emit", counting_emit)
    monkeypatch.setattr(Agent, "observe", counting_observe)
    runs = []
    for world_cls in (World, PollingWorld):
        emits.clear()
        observes.clear()
        trace = TraceWriter("power")
        world, _ = make_world(clique_specs(), Variant.BASIC, trace=trace,
                              world_cls=world_cls)
        for name in ("s1", "s2", "s3"):
            world.agents[name].start_chain(0b1000)
        world.run(4)
        runs.append((trace.getvalue(), world.metrics.exits,
                     world.metrics.collisions))
        if world_cls is World:
            assert emits and set(emits) == {0}
            assert observes == []
    assert max(emits) > 0
    lit = {e["cycle"] % world.clock.subcycle_len
           for e in map(json.loads, runs[1][0].splitlines())
           if e["kind"] == "power"}
    assert len(lit) > 1 and set(observes) == lit
    assert runs[0] == runs[1]
    assert world.metrics.exits == 3 and world.metrics.collisions > 0


def test_frame_left_alone_carries_its_rest_in_one_step(monkeypatch):
    # s1 commands a (1000 100 0001) while s2 relays to the controller
    # (1110 001 0010): both pulse offset 0, and s1 exits on its 0-bit at
    # offset 1.  From there s2's frame races alone.  The live engine asks a
    # node to sense only where it exits, so not at offset 0 nor at s2's
    # bits at offsets 2, 6 and 9.  The polling oracle observes every bit
    # and gives the same trace
    specs = [spec for spec in clique_specs() if spec[0] != "s3"]
    sensed = []
    sense = Agent.sense

    def counting_sense(agent, offset, cycle):
        sensed.append(offset)
        return sense(agent, offset, cycle)

    monkeypatch.setattr(Agent, "sense", counting_sense)
    runs = []
    for world_cls in (World, PollingWorld):
        sensed.clear()
        trace = TraceWriter("power")
        world, _ = make_world(specs, Variant.BASIC, trace=trace,
                              world_cls=world_cls)
        s1, s2 = world.agents["s1"], world.agents["s2"]
        s1.queue.append(Outgoing(Frame(0b1000, Opcode.COMMAND, s1.address),
                                 0, PRIORITY_DATA))
        s2.queue.append(Outgoing(Frame(controller_address(), Opcode.RELAY,
                                       s2.address), 0, PRIORITY_DATA))
        world.run_cycles(world.clock.subcycle_len)
        runs.append((trace.getvalue(), world.metrics.to_json(),
                     world.controller_frames))
        if world_cls is World:
            assert sorted(set(sensed)) == [1]
    events = [json.loads(line) for line in runs[0][0].splitlines()]
    assert [(e["node"], e["bit"]) for e in events
            if e["kind"] == "tx_exit"] == [("s1", 1)]
    assert [e["cycle"] for e in events if e["kind"] == "power"] == [
        0, 1, 2, 6, 9]
    assert runs[0] == runs[1]


def random_specs(kind, side, gain):
    """The pair or the clique with its sides scaled by ``side``."""
    specs = pair_specs() if kind == "pair" else clique_specs()
    return [(name, address, is_act, mode, tuple(c * side / 2.0 for c in pos))
            for name, address, is_act, mode, pos in specs]


GAP_LENGTHS = st.one_of(st.integers(1, 7), st.integers(8, 31),
                        st.integers(32, 40))


@st.composite
def gap_lists(draw):
    gaps, cycle = [], 0
    for _ in range(draw(st.integers(0, 3))):
        cycle += draw(st.integers(0, 150))
        length = draw(GAP_LENGTHS)
        gaps.append((cycle, length))
        cycle += length
    return gaps


# run some cycles, run to a drawn offset inside an icycle, or start a chain
# or a relay request on one sensor
STEPS = st.lists(st.one_of(
    st.tuples(st.just("run"), st.integers(1, 70)),
    st.tuples(st.just("mid"), st.integers(1, 47)),
    st.tuples(st.sampled_from(("chain", "request")), st.integers(0, 2))),
    min_size=1, max_size=12)
# at the T1 of an icycle, start a chain or a relay request on one sensor
STARTS = st.lists(st.tuples(st.integers(0, 12),
                            st.sampled_from(("chain", "request")),
                            st.integers(0, 2)), max_size=4)


def start_work(world, agent, step):
    if step == "chain":
        agent.start_chain(0b1000, cycle=world.cycle)
    else:
        agent.start_request(controller_address(), world.current_ic)


class StartAtIcycle(ScenarioHooks):
    """Starts work on a sensor from ``on_icycle_start``, in an icycle that
    would otherwise be inert."""

    def __init__(self, starts, sensors):
        self.starts = starts
        self.sensors = sensors

    def on_icycle_start(self, world, ic):
        for at, step, arg in self.starts:
            if at == ic:
                start_work(world, world.agents[
                    self.sensors[arg % len(self.sensors)]], step)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("pair", "clique")), st.floats(1.0, 4.0),
       st.floats(0.5, 20.0), st.sampled_from(list(Variant)), gap_lists(),
       STEPS, STARTS)
# s's command goes unheard and its relay request repeats: polls in inert
# icycles set the wake time to its BACKOFF retry in icycle 4 and to a relay
# retry in 16, and each falls due in an icycle nothing else makes busy
@example("pair", 4.0, 0.5, Variant.BASIC, [],
         [("chain", 0), ("request", 0)] + [("run", 70)] * 10, [])
def test_pending_set_matches_polling_oracle(kind, side, gain, variant, gaps,
                                            steps, starts):
    # the World closes only the agents in its pending set, asks for send
    # work only once its wake time is reached and then only the senders
    # with exact send work at offset 0, runs an inert icycle in one step
    # and a lone sender's frame in one step; the oracle polls every agent
    # with the broad tests, every subcycle and every bit.  Hooks start work
    # at T1, and run chunks end inside icycles and subcycles.  Runs,
    # power-level traces and clocks must agree, and the live World checks
    # that no agent has send work while its wake time is ahead
    specs = random_specs(kind, side, gain)
    sensors = [name for name, _, is_act, _, _ in specs if not is_act]
    runs = []
    for world_cls in (WakeCheckingWorld, PollingWorld):
        trace = TraceWriter("power")
        world, _ = make_world(specs, variant, trace=trace, gain=gain,
                              laser_gaps=gaps, world_cls=world_cls,
                              scenario=StartAtIcycle(starts, sensors))
        icycle_len = world.clock.icycle_len
        for step, arg in steps:
            if step == "run":
                world.run_cycles(arg)
            elif step == "mid":
                at = (world.cycle - world.phase_origin) % icycle_len
                world.run_cycles((arg - at) % icycle_len or icycle_len)
            else:
                start_work(world, world.agents[sensors[arg % len(sensors)]],
                           step)
        world.run_cycles(3 * icycle_len)
        runs.append((trace.getvalue(), world.metrics.to_json(), world.cycle,
                     world.phase_origin, world.current_ic,
                     world.controller_frames))
    assert runs[0] == runs[1]


# -- subcycle stepping edge cases ----------------------------------------------
#
# The engine passes over silent subcycles and guard bits in one step.  Each
# case below pins the power-level trace, the metrics and the final clock of
# a run whose jumps must stop at a gap, at a ``run_cycles`` boundary or
# around an external ``start_chain``; the digests were recorded with an
# engine that stepped every clock cycle of every node, and recomputed with
# the engine unchanged when the hashed final state dropped a mode flag that
# nothing read.


def clique_specs():
    side = 2.0
    return [
        ("s1", 0b0001, False, Subcycle.T1, (0.0, 0.0, 0.0)),
        ("s2", 0b0010, False, Subcycle.T1, (side, 0.0, 0.0)),
        ("s3", 0b0011, False, Subcycle.T1, (side / 2, side * math.sqrt(3) / 2,
                                            0.0)),
        ("a", 0b1000, True, Subcycle.T2, (side / 2, side * math.sqrt(3) / 6,
                                          0.0)),
    ]


def world_digest(world, trace):
    h = hashlib.sha256()
    h.update(trace.getvalue().encode())
    h.update(world.metrics.to_json().encode())
    h.update(repr((world.cycle, world.phase_origin, world.current_ic,
                   world.controller_frames)).encode())
    return h.hexdigest()


def traced_world(specs, variant=Variant.HANDSHAKE, **kwargs):
    trace = TraceWriter("power")
    world, _ = make_world(specs, variant, trace=trace, **kwargs)
    return world, trace


def test_gap_inside_silent_subcycle():
    # cycle 29 is inside T3, where no node of the pair has a working mode
    world, trace = traced_world(pair_specs(),
                                laser_gaps=[(29, 8)])
    world.agents["s"].start_chain(0b1000)
    world.run(4)
    assert world.metrics.delivered == 1
    assert world_digest(world, trace) == (
        "a5e801173d39015f6a7727750614aebd7b9836706d7d3c523a64759035645376")


def test_gap_inside_busy_subcycle_skips_its_end():
    # s is mid-NOTIFY at cycle 5; the gap cuts T1 short, so no end_subcycle
    # runs for it and the frame stays in flight into the next T1
    world, trace = traced_world(pair_specs(),
                                laser_gaps=[(5, 8)])
    world.agents["s"].start_chain(0b1000)
    world.run(4)
    events = [json.loads(line) for line in trace.getvalue().splitlines()]
    assert [e["cycle"] for e in events if e["kind"] == "tx_start"][0] == 0
    assert not any(e["kind"] == "tx_done" and e["cycle"] < 13 for e in events)
    assert world_digest(world, trace) == (
        "a65312b8ba995ac70204c47f83af07b109a5c0b360e4a3ad5bf1314f5fba1bb4")


def test_uneven_run_chunks_match_one_call():
    digests = []
    for chunks in ((5, 7, 13) * 8, (sum((5, 7, 13) * 8),)):
        world, trace = traced_world(clique_specs(), Variant.BASIC,
                                    laser_gaps=[(62, 9)])
        for name in ("s1", "s2", "s3"):
            world.agents[name].start_chain(0b1000)
        for n in chunks:
            world.run_cycles(n)
        digests.append(world_digest(world, trace))
    assert digests[0] == digests[1] == (
        "fe461e2838368930b0110e37843bf835ad9bbc7ee9cb8fbbd6f238f4fd7756eb")


def test_start_chain_between_run_calls():
    world, trace = traced_world(clique_specs())
    world.run_cycles(30)                       # stops inside T3
    world.agents["s2"].start_chain(0b1000, cycle=world.cycle)
    world.run_cycles(17)                       # stops inside the next T1
    world.agents["s1"].start_chain(0b1000, cycle=world.cycle)
    world.run_cycles(300)
    assert world.metrics.delivered == 2
    assert world_digest(world, trace) == (
        "590d9800e2c12288dc921445ce18a715b049a616aa857c108139c354200850a3")
