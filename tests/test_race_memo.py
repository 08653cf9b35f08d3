"""The World's race memo: each distinct race is walked once and replayed.

``World._carry`` keys a race by its window and by the (agent, mask,
pattern) of each sender still in it, in transmitter order, and replays the
outcome ``World._walk`` gave the first time.  These tests hold the replay
to a World that walks every carry (``oracles.WalkingWorld``) on whole
scenario runs, and to the per-bit ``PollingWorld`` where only one part of
the key tells two races apart.
"""

import json
import math
from pathlib import Path

import pytest

from optomac import scenarios
from optomac.antenna import SampledPatternTable
from optomac.channel import ChannelConfig
from optomac.config import load_path
from optomac.engine import World
from optomac.geometry import NodePose
from optomac.metrics import Metrics
from optomac.nodes import Agent, Outgoing, Variant
from optomac.protocol import PRIORITY_DATA, Frame, NodeMemory, Opcode
from optomac.timebase import FRAME_BITS, ClockConfig, Rng, Subcycle
from optomac.trace import TraceWriter
from oracles import PollingWorld, WalkingWorld

DATA = Path(__file__).with_name("data")


def _scenario_run(monkeypatch, world_cls, cfg, protocol, seed):
    monkeypatch.setattr(scenarios, "World", world_cls)
    trace = TraceWriter("power")
    result = scenarios.run_scenario(cfg=cfg, protocol=protocol, seed=seed,
                                    trace=trace)
    return result.world, (trace.getvalue(), result.metrics.to_json(),
                          result.world.controller_frames)


@pytest.mark.parametrize("source,protocol", [
    ("hidden_terminal", "basic"), ("hidden_terminal", "handshake"),
    ("clique_contention", "basic"), ("clique_contention", "handshake"),
    ("hidden_terminal_gaps.json", "basic"),
    ("hidden_terminal_gaps.json", "handshake"),
    ("photothermal", "handshake"),
    ("photothermal_hold.json", "handshake"),
])
def test_replayed_races_match_walked_ones(monkeypatch, source, protocol):
    # the power-level trace, metrics.json and the controller's frames of a
    # run that replays each race it walked once equal those of a run that
    # walks every carry.  The short scenarios replay a few races at most,
    # the hold document all but three of its ~380
    cfg = (load_path(DATA / source) if source.endswith(".json")
           else scenarios.default_config(source))
    for seed in range(4):
        live, ran = _scenario_run(monkeypatch, World, cfg, protocol, seed)
        walking, walked = _scenario_run(monkeypatch, WalkingWorld, cfg,
                                        protocol, seed)
        assert ran == walked
        assert len(live._carries) <= walking.walks
        summary = json.loads(ran[1])["summary"]
        if source == "clique_contention":
            assert summary["exits"] > 0 and summary["collisions"] > 0
        if source == "hidden_terminal_gaps.json":
            # a laser gap cut or darkened the window of some race
            assert any(key[:2] != (0, FRAME_BITS) for key in live._carries)


def test_a_hold_run_walks_each_race_once(monkeypatch):
    # the hold document's steady state repeats the same few lone frames:
    # each distinct race is walked once, and a replay reads no lit set
    counts = {"carries": 0, "walks": 0, "lit_outside_walks": 0}
    walking = [False]
    carry, walk, lit_for = World._carry, World._walk, World._lit_for

    def counting_carry(self, *args):
        counts["carries"] += 1
        return carry(self, *args)

    def counting_walk(self, *args):
        counts["walks"] += 1
        walking[0] = True
        try:
            return walk(self, *args)
        finally:
            walking[0] = False

    def checked_lit_for(self, emissions):
        counts["lit_outside_walks"] += not walking[0]
        return lit_for(self, emissions)

    monkeypatch.setattr(World, "_carry", counting_carry)
    monkeypatch.setattr(World, "_walk", counting_walk)
    monkeypatch.setattr(World, "_lit_for", checked_lit_for)
    result = scenarios.run_scenario(
        cfg=load_path(DATA / "photothermal_hold.json"), seed=0)
    assert result.status == "ok"
    assert counts["walks"] == len(result.world._carries) <= 3
    assert counts["carries"] > 100 * counts["walks"]
    assert counts["lit_outside_walks"] == 0


def _live_and_polled(build, steps):
    """The power-level trace, metrics.json and controller frames of the
    live World and of the per-bit ``PollingWorld`` built by ``build`` and
    stepped by ``steps(world)``, and the live World."""
    runs = []
    for world_cls in (World, PollingWorld):
        trace = TraceWriter("power")
        world = build(world_cls, trace)
        steps(world)
        runs.append((trace.getvalue(), world.metrics.to_json(),
                     world.controller_frames))
        if world_cls is World:
            live = world
    return runs[0], runs[1], live


def _world(world_cls, trace, specs, tables, channel=ChannelConfig()):
    """specs: (name, address, is_actuator, mode, position) tuples."""
    metrics = Metrics()
    addresses = [spec[1] for spec in specs]
    poses, agents = {}, []
    for name, address, is_act, mode, position in specs:
        poses[name] = NodePose(position)
        mem = NodeMemory(address=address, is_actuator=is_act,
                         working_mode=mode,
                         physical=set(addresses) - {address})
        agents.append(Agent(name, mem, Rng(0, address), Variant.BASIC,
                            trace, metrics))
    return world_cls(poses, tables, agents, ClockConfig(), channel,
                     trace=trace, metrics=metrics)


def test_one_frame_under_two_patterns_is_two_races():
    # s sends one COMMAND twice, first under a pattern that reaches a, then
    # under one that does not: same sender, same mask, another race.  a
    # acts on the first only
    specs = [("s", 0b0001, False, Subcycle.T1, (0.0, 0.0, 0.0)),
             ("a", 0b1000, True, Subcycle.T2, (2.0, 0.0, 0.0))]
    tables = {"s": SampledPatternTable([0.0], [[5.0], [0.0], [5.0], [5.0]]),
              "a": SampledPatternTable([0.0], [[5.0]] * 4)}

    def steps(world):
        s = world.agents["s"]
        icycle = world.clock.icycle_len
        for pattern in (0, 1):
            s.queue.append(Outgoing(Frame(0b1000, Opcode.COMMAND, s.address),
                                    pattern, PRIORITY_DATA))
            world.run_cycles(icycle)

    live, polled, world = _live_and_polled(
        lambda cls, trace: _world(cls, trace, specs, tables), steps)
    assert live == polled
    s = world.agents["s"]
    assert sorted(key[4] for key in world._carries
                  if key[2] is s) == [0, 1]
    heard = [e for e in map(json.loads, live[0].splitlines())
             if e["kind"] == "rx_frame" and e["node"] == "a"]
    assert len(heard) == 1 and heard[0]["cycle"] < world.clock.icycle_len


def test_racers_sum_their_light_in_transmitter_order():
    # three T1 senders pulse together; a's detector sums their light in
    # emission order, and float addition makes that order matter at the
    # threshold: transmitter order (0.2 + 0.3 + 0.1) stays below it, name
    # order and either address order reach it.  So the race key, and the
    # walk that reads its senders from it, must keep transmitter order for
    # the live World to light what the per-bit oracle lights
    theta = math.nextafter(0.6, 1.0)
    # transmitter order; name and descending address order; ascending
    assert (0.2 + 0.3) + 0.1 < theta <= (0.3 + 0.1) + 0.2
    assert (0.2 + 0.1) + 0.3 >= theta
    specs = [("s3", 0b0001, False, Subcycle.T1, (0.0, 0.0, 0.0)),
             ("s1", 0b0011, False, Subcycle.T1, (2.0, 0.0, 0.0)),
             ("s2", 0b0010, False, Subcycle.T1, (1.0, 2.0, 0.0)),
             ("a", 0b1000, True, Subcycle.T2, (1.0, 0.5, 0.0))]
    tables = {name: SampledPatternTable([0.0], [[5.0]] * 4)
              for name, *_ in specs}
    toward_a = {"s3": 0.2, "s1": 0.3, "s2": 0.1}

    def build(world_cls, trace):
        world = _world(world_cls, trace, specs, tables,
                       ChannelConfig(theta_detect=theta))
        pm = world.power_map
        for tx, i in pm.index.items():
            for row in pm.power[i]:
                for rx, j in pm.index.items():
                    if i != j:
                        row[j] = toward_a[tx] if rx == "a" else 1.0
        return world

    def steps(world):
        for name in ("s3", "s1", "s2"):
            world.agents[name].start_chain(0b1000)
        world.run(1)

    live, polled, world = _live_and_polled(build, steps)
    assert live == polled
    # a saw no bit of the race, so it decoded nothing
    assert '"node": "a"' not in live[0]
    assert [key[2::3] for key in world._carries][0] == tuple(
        world.agents[name] for name in ("s3", "s1", "s2"))
