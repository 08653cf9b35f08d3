"""World engine: end-to-end delivery, arbitration, gaps, second layer."""

import hashlib
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optomac.antenna import SampledPatternTable
from optomac.channel import ChannelConfig
from optomac.engine import LaserGap, ScenarioHooks, World
from optomac.geometry import NodePose
from optomac.metrics import Metrics
from optomac.nodes import Agent, Hooks, Outgoing, Variant
from optomac.protocol import (
    PRIORITY_DATA,
    Frame,
    NodeMemory,
    Opcode,
    controller_address,
    frame_bits,
)
from optomac.timebase import ClockConfig, Rng, Subcycle
from optomac.trace import TraceWriter
from oracles import PollingWorld, contention_round


class DoneRecorder(Hooks):
    def __init__(self):
        self.done = []
        self.triggers = []
        self.cleared = []

    def on_chain_done(self, agent, chain, cycle):
        self.done.append((agent.name, cycle))

    def on_trigger(self, agent, ic):
        self.triggers.append((agent.name, ic))

    def on_stimulus_cleared(self, agent, ic):
        self.cleared.append((agent.name, ic))


class FrameRecorder(ScenarioHooks):
    def __init__(self):
        self.frames = []

    def on_controller_frame(self, world, frame, cycle):
        self.frames.append((cycle, frame))


def make_world(node_specs, variant=Variant.BASIC, trace=None,
               controller_hears=None, laser_gaps=None, scenario=None,
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
    sensors = [f"s{i + 1}" for i in range(len(points))]
    specs = [(name, i + 1, False, Subcycle.T1, (x / 2, y / 2, 0.0))
             for i, (name, (x, y)) in enumerate(zip(sensors, points))]
    specs.append(("a", 0b1000, True, Subcycle.T2, (0.0, 0.0, 5.0)))
    trace = TraceWriter("events")
    world, _ = make_world(specs, Variant.BASIC, trace=trace, gain=gain)
    theta = world.channel_cfg.theta_detect
    hears = {}
    for rx in sensors:
        hears[rx] = set()
        weak = {"top": 0.0, "bottom": 0.0}
        for tx in sensors:
            if tx == rx:
                continue
            arrival = world.power_map.arrival(tx, 0, rx)
            if arrival.power >= theta:
                hears[rx].add(tx)
            else:
                weak[arrival.side] += arrival.power
        # a detector sums its arrivals, so faint senders together can be
        # heard where none is alone; the pairwise oracle does not model that
        assume(max(weak.values()) < theta)
    frames = {}
    for name in sensors:
        agent = world.agents[name]
        agent.start_chain(0b1000)
        frames[name] = frame_bits(Frame(0b1000, Opcode.COMMAND,
                                        agent.address))
    oracle, _ = contention_round(frames, hears)
    world.run_cycles(world.clock.subcycle_len)

    events = [json.loads(line) for line in trace.getvalue().splitlines()]
    exits = {e["node"]: e["bit"] for e in events if e["kind"] == "tx_exit"}
    assert exits == {name: o.exit_bit for name, o in oracle.items()
                     if not o.completed}


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
                          laser_gaps=[LaserGap(5, 8)])
    world.run_cycles(20)
    # the 8-cycle pause is part of the 20 cycles run
    assert world.cycle == 20
    assert world.phase_origin == 13
    assert gap_events(trace) == ["frame_sync"]
    # instruction cycles stay monotonic across the gap
    assert world.current_ic == 1


def test_short_gap_keeps_phase():
    # a gap shorter than g_sync is flywheeled: no restart, no new icycle
    trace = TraceWriter("events")
    world, _ = make_world(pair_specs(), trace=trace,
                          laser_gaps=[LaserGap(5, 3)])
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
                              laser_gaps=[LaserGap(4, 3)])
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
                          laser_gaps=[LaserGap(0, 32)])
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
    world, _ = make_world(specs, trace=trace, laser_gaps=[LaserGap(17, 8)])
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
                   laser_gaps=[LaserGap(0, 10), LaserGap(5, 10)])


def test_gap_defers_traffic_but_not_delivery():
    world, hooks = make_world(pair_specs(), Variant.BASIC,
                              laser_gaps=[LaserGap(3, 8)])
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
    assert hooks.cleared == [("s", 2)]


def test_weak_stimulus_stays_below_latch_threshold():
    world, hooks = make_world(pair_specs(), Variant.BASIC)
    world.add_stimulus("faint", (0.0, 0.0, 8.0), 0.01)
    world.run(1)
    assert not world.agents["s"].latched
    assert hooks.triggers == []


def test_run_returns_shared_metrics():
    world, _ = make_world(pair_specs())
    out = world.run(1)
    assert out is world.metrics
    assert world.cycle == 48
    assert world.current_ic == 1


def test_only_lit_listeners_observe(monkeypatch):
    # a node far from the clique never sees a bit, so it is never asked to
    # observe; every node that does see one is asked exactly once per cycle
    specs = clique_specs() + [("far", 0b0100, False, Subcycle.T3,
                               (40.0, 0.0, 0.0))]
    trace = TraceWriter("power")
    world, _ = make_world(specs, Variant.HANDSHAKE, trace=trace)
    calls = []
    observe = Agent.observe

    def counting(agent, top, bottom, *args):
        calls.append(agent.name)
        return observe(agent, top, bottom, *args)

    monkeypatch.setattr(Agent, "observe", counting)
    for name in ("s1", "s2", "s3"):
        world.agents[name].start_chain(0b1000)
    world.run(4)

    theta = world.channel_cfg.theta_detect
    lit = []
    for event in map(json.loads, trace.getvalue().splitlines()):
        if event["kind"] != "power":
            continue
        for rx in world.agents:
            power = {"top": 0.0, "bottom": 0.0}
            for tx in world.agents:
                if tx in event["sources"] and tx != rx:
                    # every pattern of the flat tables has the same gain
                    arrival = world.power_map.arrival(tx, 0, rx)
                    power[arrival.side] += arrival.power
            if max(power.values()) >= theta:
                lit.append(rx)
    assert "far" not in lit
    assert world.metrics.exits > 0
    assert sorted(calls) == sorted(lit)


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
    end_subcycle, emit, observe = (Agent.end_subcycle, Agent.emit,
                                   Agent.observe)

    def counting_end(agent, sub, ic, cycle):
        closed.append((agent.name, cycle // sub_len))
        return end_subcycle(agent, sub, ic, cycle)

    def counting_emit(agent, sub, offset, ic, cycle):
        sent = emit(agent, sub, offset, ic, cycle)
        if agent.inflight is not None:
            active.add((agent.name, cycle // sub_len))
        return sent

    def counting_observe(agent, top, bottom, sub, offset, ic, cycle):
        if sub != agent.mode:             # in its own, a node only senses
            active.add((agent.name, cycle // sub_len))
        return observe(agent, top, bottom, sub, offset, ic, cycle)

    monkeypatch.setattr(Agent, "end_subcycle", counting_end)
    monkeypatch.setattr(Agent, "emit", counting_emit)
    monkeypatch.setattr(Agent, "observe", counting_observe)
    for name in ("s1", "s2", "s3"):
        world.agents[name].start_chain(0b1000)
    world.run(6)

    assert world.metrics.delivered == 3
    assert "far" not in {name for name, _ in closed}
    assert len(closed) == len(set(closed))       # once per subcycle at most
    assert active <= set(closed)


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
        gaps.append(LaserGap(cycle, length))
        cycle += length
    return gaps


# run some cycles, or start a chain or a relay request on one sensor
STEPS = st.lists(st.one_of(
    st.tuples(st.just("run"), st.integers(1, 70)),
    st.tuples(st.sampled_from(("chain", "request")), st.integers(0, 2))),
    min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("pair", "clique")), st.floats(1.0, 4.0),
       st.floats(0.5, 20.0), st.sampled_from(list(Variant)), gap_lists(),
       STEPS)
def test_pending_set_matches_polling_oracle(kind, side, gain, variant, gaps,
                                            steps):
    # the World closes only the agents in its pending set and asks only the
    # senders with exact send work at offset 0; the oracle polls every
    # agent with the broad tests.  Runs, traces and clocks must agree
    specs = random_specs(kind, side, gain)
    sensors = [name for name, _, is_act, _, _ in specs if not is_act]
    runs = []
    for world_cls in (World, PollingWorld):
        trace = TraceWriter("power")
        world, _ = make_world(specs, variant, trace=trace, gain=gain,
                              laser_gaps=list(gaps), world_cls=world_cls)
        for step, arg in steps:
            if step == "run":
                world.run_cycles(arg)
                continue
            agent = world.agents[sensors[arg % len(sensors)]]
            if step == "chain":
                agent.start_chain(0b1000, cycle=world.cycle)
            else:
                agent.start_request(controller_address(), world.current_ic)
        world.run_cycles(3 * world.clock.icycle_len)
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
                                laser_gaps=[LaserGap(29, 8)])
    world.agents["s"].start_chain(0b1000)
    world.run(4)
    assert world.metrics.delivered == 1
    assert world_digest(world, trace) == (
        "a5e801173d39015f6a7727750614aebd7b9836706d7d3c523a64759035645376")


def test_gap_inside_busy_subcycle_skips_its_end():
    # s is mid-NOTIFY at cycle 5; the gap cuts T1 short, so no end_subcycle
    # runs for it and the frame stays in flight into the next T1
    world, trace = traced_world(pair_specs(),
                                laser_gaps=[LaserGap(5, 8)])
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
                                    laser_gaps=[LaserGap(62, 9)])
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
