"""Antenna element model, array factor, synthesis and pattern tables."""

import math
import struct
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optomac.antenna import (
    ElementArray,
    ElementConfig,
    SampledPatternTable,
    array_factor,
    azimuth_deg,
    element_amplitude,
    gain,
    synthesize_pattern,
)


def test_element_amplitude_ramp_and_saturation():
    cfg = ElementConfig(a_off=0.1, a_on=0.9, v_sat=2.0)
    assert element_amplitude(0.0, cfg) == pytest.approx(0.1)
    assert element_amplitude(1.0, cfg) == pytest.approx(0.5)
    assert element_amplitude(2.0, cfg) == pytest.approx(0.9)
    assert element_amplitude(5.0, cfg) == pytest.approx(0.9)  # saturated
    with pytest.raises(ValueError):
        element_amplitude(-0.1, cfg)


def test_element_config_validation():
    with pytest.raises(ValueError):
        ElementConfig(v_sat=0.0)
    with pytest.raises(ValueError):
        ElementConfig(a_off=1.0, a_on=0.5)


def test_element_array_validation():
    with pytest.raises(ValueError):
        ElementArray([], wavelength=1.0)
    with pytest.raises(ValueError):
        ElementArray([(0.0, 0.0)], wavelength=1.0)  # not 3D
    with pytest.raises(ValueError):
        ElementArray([(0.0, 0.0, 0.0)], wavelength=0.0)


def two_element_half_wave() -> ElementArray:
    return ElementArray([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)], wavelength=1.0)


def test_half_wave_pair_broadside_and_endfire():
    arr = two_element_half_wave()
    weights = (1.0, 1.0)
    assert gain(arr, weights, (0.0, 1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert gain(arr, weights, (1.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)


def test_array_factor_sums_in_phase():
    arr = ElementArray([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], wavelength=1.0)
    # one full wavelength of path difference keeps the pair in phase
    af = array_factor(arr, (1.0, 1.0), (1.0, 0.0, 0.0))
    assert af == pytest.approx(2.0 + 0.0j, abs=1e-12)


def test_gain_of_silent_array_is_zero():
    arr = two_element_half_wave()
    assert gain(arr, (0.0, 0.0), (0.0, 1.0, 0.0)) == 0.0


@given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
       st.floats(0.0, 2.0 * math.pi), st.floats(-1.0, 1.0))
def test_gain_is_bounded(weights, az, uz):
    n = len(weights)
    arr = ElementArray([(0.37 * k, 0.11 * k, 0.0) for k in range(n)],
                       wavelength=0.8)
    lateral = math.sqrt(max(0.0, 1.0 - uz * uz))
    u = (lateral * math.cos(az), lateral * math.sin(az), uz)
    g = gain(arr, weights, u)
    assert 0.0 <= g <= 1.0 + 1e-9


def exhaustive_best(arr: ElementArray, target) -> float:
    """Independent oracle: brute-force the synthesis objective over masks."""
    on_amp = element_amplitude(arr.element.v_sat, arr.element)
    best = -1.0
    for mask in product((0, 1), repeat=len(arr)):
        af = array_factor(arr, np.array(mask, dtype=float) * on_amp, target)
        best = max(best, abs(af) ** 2 / (len(arr) * on_amp) ** 2)
    return best


@pytest.mark.parametrize("positions,target", [
    ([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0)], (1.0, 0.0, 0.0)),
    ([(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (1.0, 0.0, 0.0)], (0.0, 1.0, 0.0)),
    ([(0.25 * k, 0.0, 0.0) for k in range(5)],
     (math.cos(0.3), math.sin(0.3), 0.0)),
    ([(0.5 * k, 0.13 * (k % 2), 0.0) for k in range(7)], (0.0, 1.0, 0.0)),
])
def test_synthesis_matches_exhaustive_search(positions, target):
    arr = ElementArray(positions, wavelength=1.0)
    syn = synthesize_pattern(arr, target)
    assert syn.target_power == pytest.approx(exhaustive_best(arr, target),
                                             abs=1e-9)


def test_endfire_synthesis_picks_a_single_element():
    # a half-wave pair cancels endfire, so the best mask is one element at
    # a quarter of the coherent budget; ties resolve to the smallest mask
    syn = synthesize_pattern(two_element_half_wave(), (1.0, 0.0, 0.0))
    assert syn.mask == (0, 1)
    assert syn.target_power == pytest.approx(0.25, abs=1e-12)


def test_greedy_path_beyond_exhaustive_limit():
    # 13 elements falls through to the greedy flipper; toward broadside the
    # all-on mask is already coherent, so greedy must keep it
    arr = ElementArray([(0.5 * k, 0.0, 0.0) for k in range(13)],
                       wavelength=1.0)
    syn = synthesize_pattern(arr, (0.0, 1.0, 0.0))
    assert syn.mask == (1,) * 13
    assert syn.target_power == pytest.approx(1.0)


def test_azimuth_deg():
    assert azimuth_deg((1.0, 0.0, 0.0)) == pytest.approx(0.0)
    assert azimuth_deg((0.0, 1.0, 0.0)) == pytest.approx(90.0)
    assert azimuth_deg((-1.0, 0.0, 0.0)) == pytest.approx(180.0)
    assert azimuth_deg((0.0, -1.0, 0.0)) == pytest.approx(270.0)
    assert azimuth_deg((0.0, 0.0, 1.0)) == 0.0  # straight up has no azimuth


def test_sampled_table_interpolates_and_wraps():
    table = SampledPatternTable([0.0, 90.0, 180.0, 270.0],
                                [[1.0, 0.5, 0.0, 0.5]])
    assert table.gain(0, (1.0, 0.0, 0.0)) == pytest.approx(1.0)
    assert table.gain(0, (0.0, 1.0, 0.0)) == pytest.approx(0.5)
    # halfway between samples
    mid = math.radians(45.0)
    assert table.gain(0, (math.cos(mid), math.sin(mid), 0.0)) == \
        pytest.approx(0.75)
    # wrap segment 270 -> 360 interpolates toward the 0-degree sample
    back = math.radians(315.0)
    assert table.gain(0, (math.cos(back), math.sin(back), 0.0)) == \
        pytest.approx(0.75)


def test_pattern_text_is_built_once_per_table(monkeypatch):
    # a table does not change, so a second dump (one per seed in a CLI
    # sweep) gives the same text without a gain lookup
    table = SampledPatternTable([0.0, 90.0, 180.0, 270.0],
                                [[1.0, 0.5, 0.0, 0.5], [0.2, 0.4, 0.6, 0.8]])
    first = table.to_text()
    assert first.count("mask -") == 2 and len(first.splitlines()) == 2 * 74
    calls = []
    gain = SampledPatternTable.gain

    def counting_gain(self, *args):
        calls.append(args)
        return gain(self, *args)

    monkeypatch.setattr(SampledPatternTable, "gain", counting_gain)
    assert table.to_text() == first
    assert calls == []
    fresh = SampledPatternTable(table.azimuths, table.gains)
    assert fresh.to_text() == first and len(calls) == 2 * 72


def test_sampled_table_validation():
    with pytest.raises(ValueError):
        SampledPatternTable([0.0, 0.0], [[1.0, 1.0]])     # not increasing
    with pytest.raises(ValueError):
        SampledPatternTable([0.0, 90.0], [[1.0, -0.1]])   # negative gain
    with pytest.raises(ValueError):
        SampledPatternTable([0.0, 90.0], [[1.0]])         # ragged row


def test_sampled_table_rejects_what_it_cannot_close():
    with pytest.raises(ValueError):
        SampledPatternTable([0.0, 90.0], [[1.0, math.nan]])
    with pytest.raises(ValueError):
        SampledPatternTable([0.0, 90.0], [[math.inf, 1.0]])
    with pytest.raises(ValueError):
        SampledPatternTable([0.0, math.inf], [[1.0, 1.0]])
    with pytest.raises(ValueError):
        SampledPatternTable([10.0, 370.0], [[1.0, 1.0]])  # a full period
    with pytest.raises(ValueError):
        SampledPatternTable([], [[]])
    with pytest.raises(ValueError):
        SampledPatternTable([0.0], [])


# a few gains recur, so that rows hold flat segments and repeated values
_GAINS = st.one_of(st.sampled_from([0.0, 0.02, 1.0]), st.floats(0.0, 1e6))


@st.composite
def closed_tables(draw):
    """1-80 samples starting anywhere in [0, 360) and spanning less than
    one period, with 1-4 patterns."""
    first = draw(st.floats(0.0, 360.0, exclude_max=True))
    offsets = draw(st.lists(st.floats(0.0, 360.0, exclude_max=True),
                            max_size=79))
    azimuths = sorted({first} | {first + o for o in offsets
                                 if first + o < first + 360.0})
    gains = draw(st.lists(st.lists(_GAINS, min_size=len(azimuths),
                                   max_size=len(azimuths)),
                          min_size=1, max_size=4))
    return azimuths, gains


def _bits(x: float) -> bytes:
    return struct.pack("d", x)


@settings(max_examples=200, deadline=None)
@given(closed_tables(),
       st.lists(st.floats(0.0, 360.0, exclude_min=True), max_size=5),
       st.lists(st.floats(0.0, 360.0, exclude_max=True), max_size=20))
# a segment's formula at its right end is off by one ulp here, so a
# bracket found with bisect_left would miss the closing sample's own gain
@example(([0.0, 3.0], [[0.1, 0.7]]), [], [])
# a table whose first sample is above 0: 0 degrees is 360, in the closing
# segment, and does not take the first gain
@example(([10.0, 100.0, 190.0, 280.0], [[1.0, 0.0, 0.0, 0.5]]), [], [])
def test_sampled_table_is_np_interp_bit_for_bit(closed, below, uniform):
    azimuths, gains = closed
    table = SampledPatternTable(azimuths, gains)
    xp = np.append(azimuths, azimuths[0] + 360.0)
    first = azimuths[0]
    queries = [*azimuths, first + 360.0, -0.0, 0.0,
               *(first - b for b in below), *uniform]

    def wrapped(x):
        # one period up from below the first sample
        return x + 360.0 if x < first else x

    for p, row in enumerate(gains):
        fp = np.append(row, row[0])
        for x in queries:
            got = table.gain_at(p, x)
            want = float(np.interp(wrapped(x), xp, fp))
            assert _bits(got) == _bits(want), (p, x, got, want)
            assert type(got) is float
        # ``gain`` takes a direction's azimuth
        for x in queries:
            rad = math.radians(x)
            direction = (math.cos(rad), math.sin(rad), 0.0)
            want = float(np.interp(wrapped(azimuth_deg(direction)), xp, fp))
            assert _bits(table.gain(p, direction)) == _bits(want)


def test_table_text_roundtrip():
    table = SampledPatternTable([0.0, 120.0, 240.0],
                                [[0.25, 1.0, 0.0], [0.5, 0.5, 0.125]])
    blocks = table.to_text().split("\n\n")
    assert blocks[-1] == ""
    assert len(blocks) == 3
    for p, block in enumerate(blocks[:2]):
        header, *rows = block.splitlines()
        assert header == f"pattern {p} mask -"
        # one row every 5 degrees; read back, each is the table's own gain
        assert [float(r.split()[0]) for r in rows] == \
            [5.0 * k for k in range(72)]
        for row in rows:
            az, g = map(float, row.split())
            rad = math.radians(az)
            assert g == pytest.approx(
                table.gain(p, (math.cos(rad), math.sin(rad), 0.0)), rel=1e-9)
    assert "0.0 2.500000000e-01" in blocks[0].splitlines()
    assert "60.0 6.250000000e-01" in blocks[0].splitlines()
    assert "240.0 1.250000000e-01" in blocks[1].splitlines()
