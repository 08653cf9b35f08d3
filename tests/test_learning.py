"""Four-phase self-configuration against the packaged reference deployment."""

import copy

from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from optomac.antenna import SampledPatternTable
from optomac.channel import ChannelConfig, best_pattern, build_power_map
from optomac.config import build_parts
from optomac.geometry import HexGrid, NodePose
from optomac.learning import run_learning, snapshot_text
from optomac.protocol import NodeMemory
from optomac.timebase import Subcycle
from oracles import reachable


def golden_snapshot() -> str:
    ref = resources.files("optomac").joinpath("fixtures")
    return ref.joinpath("nine_node_memory.txt").read_text()


def test_nine_node_learning_matches_golden(nine_node_learned):
    parts, _report = nine_node_learned
    assert snapshot_text(parts.memories) == golden_snapshot()


def test_nine_node_key_tables(nine_node_learned):
    parts, _ = nine_node_learned
    s1 = parts.memories["s1"]
    assert s1.physical == {0b0010, 0b1000, 0b1001}
    assert s1.optimal_pattern == {0b0010: 1, 0b1000: 3, 0b1001: 2}
    a1 = parts.memories["a1"]
    assert a1.physical == {0b0000, 0b0001, 0b1001}
    assert a1.optimal_pattern == {0b0000: 2, 0b0001: 1, 0b1001: 3}


def test_learning_is_idempotent(nine_node_cfg):
    parts = build_parts(nine_node_cfg)
    run_learning(nine_node_cfg.grid, parts.poses, parts.memories,
                 parts.tables, nine_node_cfg.channel)
    first = snapshot_text(parts.memories)
    run_learning(nine_node_cfg.grid, parts.poses, parts.memories,
                 parts.tables, nine_node_cfg.channel)
    assert snapshot_text(parts.memories) == first


def test_learning_writes_only_memories(nine_node_cfg):
    parts = build_parts(nine_node_cfg)
    before = {name: dict(vars(pose)) for name, pose in parts.poses.items()}
    run_learning(nine_node_cfg.grid, parts.poses, parts.memories,
                 parts.tables, nine_node_cfg.channel)
    assert {name: vars(pose) for name, pose in parts.poses.items()} == before


# -- hand-built micro-deployments ---------------------------------------------


def flat_table(g: float, n_patterns: int = 2) -> SampledPatternTable:
    return SampledPatternTable([0.0, 180.0], [[g, g]] * n_patterns)


def test_unpositioned_node_is_flagged():
    grid = HexGrid(1.0, ((0, 0, 1),))
    poses = {"in": NodePose((0.0, 0.0, 0.0)),
             "out": NodePose((40.0, 0.0, 0.0))}
    memories = {"in": NodeMemory(address=1), "out": NodeMemory(address=2)}
    tables = {"in": flat_table(0.0), "out": flat_table(0.0)}
    report = run_learning(grid, poses, memories, tables, ChannelConfig())
    assert memories["out"].position_id == -1
    assert memories["out"].working_mode is Subcycle.T1
    assert memories["in"].position_id == 0
    assert any("out" in f and "unpositioned" in f for f in report.flags)
    assert any("mode defaults" in f for f in report.flags)


def test_unreachable_recognized_recipient_is_flagged():
    grid = HexGrid(1.0, ((0, 0, 3),))
    poses = {"s": NodePose((0.0, 0.0, 0.0)),
             "a": NodePose((30.0, 0.0, 0.0))}     # far out of optical reach
    memories = {"s": NodeMemory(address=0b0001, recognized={0b1000}),
                "a": NodeMemory(address=0b1000, is_actuator=True)}
    tables = {"s": flat_table(1.0), "a": flat_table(1.0)}
    report = run_learning(grid, poses, memories, tables, ChannelConfig())
    assert 0b1000 not in memories["s"].physical
    assert any("not physically reachable" in f for f in report.flags)


def test_topology_is_union_over_patterns():
    # only pattern 1 reaches: the union must still include the peer, and
    # direction learning must store that pattern id
    grid = HexGrid(1.0, ((0, 0, 3),))
    poses = {"s": NodePose((0.0, 0.0, 0.0)), "a": NodePose((2.0, 0.0, 0.0))}
    memories = {"s": NodeMemory(address=0b0001),
                "a": NodeMemory(address=0b1000, is_actuator=True)}
    tables = {"s": SampledPatternTable([0.0, 180.0], [[0.0, 0.0], [5.0, 5.0]]),
              "a": flat_table(0.0)}
    cfg = ChannelConfig()
    run_learning(grid, poses, memories, tables, cfg)
    assert memories["s"].physical == {0b1000}
    assert memories["s"].optimal_pattern == {0b1000: 1}
    assert memories["a"].physical == set()


def test_learning_reuses_a_prebuilt_power_map():
    grid = HexGrid(1.0, ((0, 0, 3),))
    poses = {"s": NodePose((0.0, 0.0, 0.0)), "a": NodePose((2.0, 0.0, 0.0))}
    tables = {"s": flat_table(5.0), "a": flat_table(5.0)}
    cfg = ChannelConfig()
    pm = build_power_map(poses, tables, cfg)
    memories = {"s": NodeMemory(address=0b0001),
                "a": NodeMemory(address=0b1000, is_actuator=True)}
    baseline = copy.deepcopy(memories)
    run_learning(grid, poses, memories, tables, cfg, power_map=pm)
    run_learning(grid, poses, baseline, tables, cfg)
    assert snapshot_text(memories) == snapshot_text(baseline)


# -- random deployments against the channel oracle ----------------------------


@st.composite
def deployments(draw):
    """2-5 nodes on distinct half-unit grid points, each with four sampled
    patterns over four azimuths."""
    points = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                                     st.integers(-1, 1)),
                           min_size=2, max_size=5, unique=True))
    row = st.lists(st.floats(0.0, 20.0), min_size=4, max_size=4)
    gains = draw(st.lists(st.lists(row, min_size=4, max_size=4),
                          min_size=len(points), max_size=len(points)))
    names = [f"n{i}" for i in range(len(points))]
    poses = {name: NodePose(tuple(0.5 * c for c in point))
             for name, point in zip(names, points)}
    tables = {name: SampledPatternTable([0.0, 90.0, 180.0, 270.0], rows)
              for name, rows in zip(names, gains)}
    return poses, tables


@settings(max_examples=150, deadline=None)
@given(deployments())
def test_learning_matches_channel_oracle(deployment):
    # learning must find exactly the links and the best patterns the
    # channel itself defines
    poses, tables = deployment
    memories = {name: NodeMemory(address=i + 1)
                for i, name in enumerate(poses)}
    cfg = ChannelConfig()
    run_learning(HexGrid(1.0, ((0, 0, 0),)), poses, memories, tables, cfg)
    pm = build_power_map(poses, tables, cfg)
    for tx, mem in memories.items():
        for rx in poses:
            if rx == tx:
                continue
            addr = memories[rx].address
            linked = reachable(pm, tx, rx, cfg)
            assert (addr in mem.physical) == linked
            assert mem.optimal_pattern.get(addr) == (
                best_pattern(pm, tx, rx) if linked else None)
