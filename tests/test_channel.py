"""Optical channel: path loss, OR superposition, power maps."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomac.antenna import SampledPatternTable
from optomac.channel import (
    Arrival,
    ChannelConfig,
    ChannelTick,
    DetectorReading,
    best_pattern,
    build_power_map,
    carrier_sense,
    reachable,
    received_power,
    superpose,
)
from optomac.geometry import NodePose, geometry_between

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


def test_carrier_sense_uses_either_detector():
    cfg = ChannelConfig()
    quiet = ChannelTick()
    assert not carrier_sense(quiet, cfg)
    loud_bottom = ChannelTick(bottom=DetectorReading(power=0.02, bit=1))
    assert carrier_sense(loud_bottom, cfg)
    faint = ChannelTick(top=DetectorReading(power=0.005))
    assert not carrier_sense(faint, cfg)


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
    # "hi" sits above "lo", so its light lands on lo's top detector;
    # lo's light approaches hi from below
    assert pm.arrival("hi", 0, "lo").side == "top"
    assert pm.arrival("lo", 0, "hi").side == "bottom"
    expected = received_power(cfg.tx_power, 1.0, 2.0, cfg.mu)
    assert pm.arrival("lo", 0, "hi").power == pytest.approx(expected)
    assert ("lo", 0, "lo") not in pm.arrivals


NORMALS = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
           (0.6, -0.3, 0.8)]


@st.composite
def sampled_deployments(draw):
    """2-20 nodes on distinct grid points, each with a table of 1-4 patterns
    over 3-80 distinct azimuths."""
    points = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6),
                                     st.integers(-2, 2)),
                           min_size=2, max_size=20, unique=True))
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
@given(sampled_deployments(), st.floats(0.0, 2.0))
def test_power_map_is_the_scalar_formula_bit_for_bit(deployment, mu):
    # the map interpolates all receivers of a pattern at once; every entry
    # must still be exactly what one scalar gain lookup gives
    poses, tables = deployment
    cfg = ChannelConfig(mu=mu)
    pm = build_power_map(poses, tables, cfg)
    entries = 0
    for tx, table in tables.items():
        for rx in poses:
            if rx == tx:
                continue
            geo = geometry_between(poses[tx], poses[rx])
            for p in range(table.n_patterns):
                arrival = pm.arrival(tx, p, rx)
                assert arrival.power == received_power(
                    cfg.tx_power, table.gain(p, geo.direction),
                    geo.distance, cfg.mu)
                assert type(arrival.power) is float
                assert (arrival.source, arrival.side) == (tx, geo.side_at_b)
                entries += 1
    assert len(pm.arrivals) == entries


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
    assert reachable(pm, tables, "tx", "rx", cfg)
    assert best_pattern(pm, tables, "tx", "rx") == 1
    # the weak pattern alone would not cross the detector threshold
    assert pm.arrival("tx", 3, "rx").power < cfg.theta_detect
    # the isotropic unit-gain return path stays below threshold at d=2
    assert not reachable(pm, tables, "rx", "tx", cfg)


def test_data_power_is_max_of_sides():
    tick = ChannelTick(top=DetectorReading(power=0.2),
                       bottom=DetectorReading(power=0.7))
    assert tick.data_power() == pytest.approx(0.7)
