"""Optical channel: path loss, OR superposition, power maps."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomac.antenna import SampledPatternTable
from optomac.channel import (
    Arrival,
    ChannelConfig,
    DetectorReading,
    best_pattern,
    build_power_map,
    received_power,
    superpose,
)
from optomac.engine import World
from optomac.geometry import NodePose
from optomac.metrics import Metrics
from optomac.nodes import Agent, Variant
from optomac.protocol import NodeMemory
from optomac.timebase import ClockConfig, Rng
from optomac.trace import NullTrace
from oracles import geometry_between, reachable

# Pinned path-loss values (tx_power=1, gain=1, mu=0.5).  The first one is the
# e^{-1/2}/(4 pi) landmark; the others are the lattice distances sqrt(3),
# 2 sqrt(3) and 3 sqrt(3) that the synthetic deployments are built around.
ATTENUATION_POINTS = [
    (1.0, 0.04826617631502696),
    (math.sqrt(3.0), 0.011157292718325698),
    (2.0 * math.sqrt(3.0), 0.0011732451884688853),
    (3.0 * math.sqrt(3.0), 0.00021932907632962097),
]


@pytest.mark.parametrize("distance,expected", ATTENUATION_POINTS)
def test_received_power_pinned_values(distance, expected):
    assert received_power(1.0, 1.0, distance, 0.5) == \
        pytest.approx(expected, rel=1e-12)


def test_received_power_scales_linearly():
    base = received_power(1.0, 1.0, 2.0, 0.5)
    assert received_power(3.0, 1.0, 2.0, 0.5) == pytest.approx(3 * base)
    assert received_power(1.0, 0.25, 2.0, 0.5) == pytest.approx(base / 4)


def test_received_power_validation():
    with pytest.raises(ValueError):
        received_power(1.0, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        received_power(-1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        received_power(1.0, -0.1, 1.0, 0.5)


def test_attenuation_is_monotone_in_distance():
    distances = [0.05 + 0.05 * k for k in range(1000)]
    for mu in (0.0, 0.5, 2.0):
        powers = [received_power(1.0, 1.0, d, mu) for d in distances]
        assert all(a > b for a, b in zip(powers, powers[1:]))


def test_channel_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(mu=-0.1)
    with pytest.raises(ValueError):
        ChannelConfig(theta_fluor=0.02)           # above theta_detect
    for tx_power in (0.0, -1.0):
        with pytest.raises(ValueError, match="tx_power"):
            ChannelConfig(tx_power=tx_power)


def test_superpose_sums_subthreshold_power():
    cfg = ChannelConfig()
    arrivals = [Arrival("a", 0.006, "top"), Arrival("b", 0.006, "top")]
    top, bottom = superpose(arrivals, cfg)
    assert top.bit == 1                  # 0.012 clears the 0.01 threshold
    assert top.power == pytest.approx(0.012)
    assert top.strong == ()              # but neither arrival alone is strong
    assert not top.evidence
    assert bottom == DetectorReading()


def test_superpose_collision_evidence():
    cfg = ChannelConfig()
    arrivals = [Arrival("b", 0.02, "top"), Arrival("a", 0.05, "top"),
                Arrival("c", 0.5, "bottom")]
    top, bottom = superpose(arrivals, cfg)
    assert top.strong == ("a", "b")      # sorted
    assert top.evidence
    assert bottom.strong == ("c",)
    assert not bottom.evidence


def test_superpose_separates_sides():
    cfg = ChannelConfig()
    top, bottom = superpose([Arrival("x", 0.3, "bottom")], cfg)
    assert top.bit == 0 and bottom.bit == 1


@given(st.lists(
    st.tuples(st.floats(0.0, 0.05), st.sampled_from(["top", "bottom"])),
    max_size=6),
    st.floats(0.001, 0.05), st.sampled_from(["top", "bottom"]))
def test_superpose_is_or_monotone(base, extra_power, extra_side):
    """Adding an arrival can raise bits and powers, never lower them."""
    cfg = ChannelConfig()
    arrivals = [Arrival(f"n{i}", p, side) for i, (p, side) in enumerate(base)]
    before = superpose(arrivals, cfg)
    after = superpose(arrivals + [Arrival("extra", extra_power, extra_side)],
                      cfg)
    for b, a in zip(before, after):
        assert a.bit >= b.bit
        assert a.power >= b.power
        assert set(a.strong) >= set(b.strong)


def flat_table(gain=1.0):
    """Four patterns of one gain toward every azimuth."""
    return SampledPatternTable([0.0], [[gain]] * 4)


def two_node_poses():
    return {
        "lo": NodePose((0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0)),
        "hi": NodePose((0.0, 0.0, 2.0), normal=(0.0, 0.0, 1.0)),
    }


def test_power_map_sides_follow_geometry():
    cfg = ChannelConfig()
    poses = two_node_poses()
    pm = build_power_map(poses, {name: flat_table() for name in poses}, cfg)
    lo, hi = pm.index["lo"], pm.index["hi"]
    # "hi" sits above "lo", so its light lands on lo's top detector;
    # lo's light approaches hi from below
    assert pm.top[hi][lo] is True
    assert pm.top[lo][hi] is False
    assert pm.arrival("hi", 0, "lo").side == "top"
    assert pm.arrival("lo", 0, "hi").side == "bottom"
    expected = received_power(cfg.tx_power, 1.0, 2.0, cfg.mu)
    assert pm.power[lo][0][hi] == pytest.approx(expected)
    assert pm.arrival("lo", 0, "hi").power == pm.power[lo][0][hi]
    # a node does not light its own detectors
    for x in (lo, hi):
        assert [row[x] for row in pm.power[x]] == [0.0] * 4
    for name in poses:
        with pytest.raises(KeyError):
            pm.arrival(name, 0, name)


NORMALS = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
           (0.6, -0.3, 0.8)]


@st.composite
def sampled_deployments(draw, max_nodes=20):
    """2 to ``max_nodes`` nodes on distinct grid points, each with a table of
    1-4 patterns over 3-80 distinct azimuths."""
    points = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                                     st.integers(-2, 2)),
                           min_size=2, max_size=max_nodes, unique=True))
    spacing = draw(st.floats(0.25, 3.0))
    poses, tables = {}, {}
    for i, point in enumerate(points):
        name = f"n{i}"
        poses[name] = NodePose(tuple(spacing * c for c in point),
                               normal=draw(st.sampled_from(NORMALS)))
        tenths = draw(st.lists(st.integers(0, 3599), min_size=3, max_size=80,
                               unique=True))
        row = st.lists(st.floats(0.0, 20.0), min_size=len(tenths),
                       max_size=len(tenths))
        gains = draw(st.lists(row, min_size=1, max_size=4))
        tables[name] = SampledPatternTable([t / 10 for t in sorted(tenths)],
                                           gains)
    return poses, tables


@settings(max_examples=40, deadline=None)
@given(sampled_deployments(), st.floats(0.0, 2.0), st.floats(0.1, 10.0))
def test_power_map_is_the_scalar_formula_bit_for_bit(deployment, mu,
                                                     tx_power):
    # the map takes each link's geometry and attenuation once and all
    # receivers of a pattern in one interpolation; every entry must still be
    # exactly what the scalar formula with one gain lookup gives
    poses, tables = deployment
    cfg = ChannelConfig(mu=mu, tx_power=tx_power)
    pm = build_power_map(poses, tables, cfg)
    assert pm.index == {name: i for i, name in enumerate(poses)}
    assert len(pm.power) == len(pm.top) == len(poses)
    for tx, table in tables.items():
        i = pm.index[tx]
        assert len(pm.power[i]) == table.n_patterns
        assert all(len(row) == len(poses) for row in pm.power[i])
        assert len(pm.top[i]) == len(poses)
        for rx in poses:
            j = pm.index[rx]
            if rx == tx:
                for p, row in enumerate(pm.power[i]):
                    assert row[i] == 0.0 and type(row[i]) is float
                    with pytest.raises(KeyError):
                        pm.arrival(tx, p, rx)
                continue
            geo = geometry_between(poses[tx], poses[rx])
            assert pm.top[i][j] is (geo.side_at_b == "top")
            for p in range(table.n_patterns):
                power = pm.power[i][p][j]
                assert power == received_power(
                    cfg.tx_power, table.gain(p, geo.direction),
                    geo.distance, cfg.mu)
                assert type(power) is float
                assert pm.arrival(tx, p, rx) == Arrival(tx, power,
                                                        geo.side_at_b)


def test_reachable_and_best_pattern():
    cfg = ChannelConfig()
    poses = {
        "tx": NodePose((0.0, 0.0, 0.0)),
        "rx": NodePose((2.0, 0.0, 0.0)),
    }
    # pattern 1 strongest toward azimuth 0, pattern 2 matches it exactly,
    # pattern 0 and 3 are dead: ties must resolve to the lowest index (1)
    tables = {
        "tx": SampledPatternTable([0.0, 180.0], [[0.0, 0.0],
                                                 [4.0, 0.0],
                                                 [4.0, 0.0],
                                                 [0.1, 0.0]]),
        "rx": flat_table(),
    }
    pm = build_power_map(poses, tables, cfg)
    assert reachable(pm, "tx", "rx", cfg)
    assert best_pattern(pm, "tx", "rx") == 1
    # the weak pattern alone would not cross the detector threshold
    assert pm.arrival("tx", 3, "rx").power < cfg.theta_detect
    # the isotropic unit-gain return path stays below threshold at d=2
    assert not reachable(pm, "rx", "tx", cfg)


def scalar_arrival(poses, tables, cfg, tx, pattern, rx):
    """One arrival from the geometry and the scalar formula alone."""
    geo = geometry_between(poses[tx], poses[rx])
    power = received_power(cfg.tx_power, tables[tx].gain(pattern,
                                                         geo.direction),
                           geo.distance, cfg.mu)
    return Arrival(tx, power, geo.side_at_b)


@settings(max_examples=60, deadline=None)
@given(sampled_deployments(max_nodes=14), st.floats(0.0, 2.0), st.data())
def test_lit_set_matches_superpose_oracle(deployment, mu, data):
    # the World reads each lit receiver's bits and collision evidence from
    # the power-table rows; the oracle superposes every receiver's scalar
    # arrivals and keeps the readings with a bit
    poses, tables = deployment
    names = list(poses)
    order = data.draw(st.lists(st.sampled_from(names), min_size=1,
                               unique=True), label="emitters")
    emissions = tuple(
        (tx, data.draw(st.integers(0, tables[tx].n_patterns - 1),
                       label=f"pattern of {tx}"))
        for tx in order)

    def arrivals_at(cfg, rx):
        return [scalar_arrival(poses, tables, cfg, tx, p, rx)
                for tx, p in emissions if tx != rx]

    cfg = ChannelConfig(mu=mu)
    # half the time, put the threshold exactly on one node's power: on a
    # detector's sum, so that the detector sits on the boundary; on the sum
    # of both, which neither detector reaches alone when both see light; on
    # one arrival, which is then just strong; on the second strongest
    # arrival of a side, which makes exactly two strong sources there; or
    # on the weaker of the strongest top and the strongest bottom arrival,
    # which makes one strong source on each side
    pin = data.draw(st.one_of(st.none(), st.sampled_from(names)), label="pin")
    if pin is not None:
        arrivals = arrivals_at(cfg, pin)
        top, bottom = superpose(arrivals, cfg)
        sides = {side: sorted((a.power for a in arrivals if a.side == side),
                              reverse=True) for side in ("top", "bottom")}
        candidates = [top.power, bottom.power, top.power + bottom.power]
        candidates += [a.power for a in arrivals]
        candidates += [powers[1] for powers in sides.values()
                       if len(powers) >= 2]
        if sides["top"] and sides["bottom"]:
            candidates.append(min(sides["top"][0], sides["bottom"][0]))
        theta = data.draw(st.sampled_from(candidates), label="threshold")
        if theta > 1e-12:
            cfg = ChannelConfig(mu=mu, theta_detect=theta,
                                theta_fluor=theta / 2)
    agents = [Agent(name, NodeMemory(address=i + 1), Rng(0, i + 1),
                    Variant.BASIC, NullTrace(), Metrics())
              for i, name in enumerate(names)]
    world = World(poses, tables, agents, ClockConfig(), cfg)
    expected = []
    for name in names:
        top, bottom = superpose(arrivals_at(cfg, name), cfg)
        if top.bit or bottom.bit:
            expected.append((name, top.bit == 1, bottom.bit == 1,
                             top.evidence or bottom.evidence))
    lit, mask = world._lit_for(emissions)
    assert [(agent.name, top, bottom, evidence)
            for agent, top, bottom, evidence in lit] == expected
    # the mask holds the same agents, bit i for the i-th
    assert mask == sum(1 << names.index(name) for name, *_ in expected)


def test_lit_evidence_needs_two_strong_emitters_on_one_side():
    # a receiver at the origin faces up; "a" and "b" sit above it and "c"
    # below, each 1.0 away, and every table is flat, so every arrival has
    # the same power and the threshold is put exactly on it
    poses = {"rx": NodePose((0.0, 0.0, 0.0)),
             "a": NodePose((0.0, 0.0, 1.0)),
             "b": NodePose((0.6, 0.0, 0.8)),
             "c": NodePose((0.0, 0.0, -1.0))}
    tables = {name: flat_table() for name in poses}
    theta = received_power(1.0, 1.0, 1.0, 0.5)
    cfg = ChannelConfig(theta_detect=theta, theta_fluor=theta / 2)
    agents = [Agent(name, NodeMemory(address=i + 1), Rng(0, i + 1),
                    Variant.BASIC, NullTrace(), Metrics())
              for i, name in enumerate(poses)]
    world = World(poses, tables, agents, ClockConfig(), cfg)

    def seen_at_rx(*emitters):
        lit, _ = world._lit_for(tuple((tx, 0) for tx in emitters))
        return [entry[1:] for entry in lit if entry[0].name == "rx"]

    # (top bit, bottom bit, evidence)
    assert seen_at_rx("a") == [(True, False, False)]
    assert seen_at_rx("a", "b") == [(True, False, True)]
    # one strong source per side is no evidence
    assert seen_at_rx("a", "c") == [(True, True, False)]
    assert seen_at_rx("c", "a") == [(True, True, False)]
    # a receiver that emits adds neither light nor a source of its own
    assert seen_at_rx("rx", "a") == [(True, False, False)]
    assert seen_at_rx("a", "rx") == [(True, False, False)]
    assert seen_at_rx("a", "rx", "b") == [(True, False, True)]
