"""Clock arithmetic, missing-pulse classification and the seeded RNG."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from optomac.timebase import (
    ClockConfig,
    NonClockEvent,
    Rng,
    Subcycle,
    detect_nonclock,
)
from oracles import subcycle_of


def test_default_lengths():
    cfg = ClockConfig()
    assert cfg.subcycle_len == 12
    assert cfg.icycle_len == 48


def test_subcycle_of_walks_the_icycle():
    cfg = ClockConfig()
    assert subcycle_of(0, cfg) == (Subcycle.T1, 0)
    assert subcycle_of(11, cfg) == (Subcycle.T1, 11)
    assert subcycle_of(12, cfg) == (Subcycle.T2, 0)
    assert subcycle_of(24, cfg) == (Subcycle.T3, 0)
    assert subcycle_of(36, cfg) == (Subcycle.T4, 0)
    assert subcycle_of(47, cfg) == (Subcycle.T4, 11)
    assert subcycle_of(48, cfg) == (Subcycle.T1, 0)


@given(st.integers(min_value=0, max_value=10**9))
def test_subcycle_of_is_periodic(cycle):
    cfg = ClockConfig()
    assert subcycle_of(cycle, cfg) == subcycle_of(cycle + cfg.icycle_len, cfg)


def test_subcycle_of_rejects_negative_cycles():
    with pytest.raises(ValueError):
        subcycle_of(-1, ClockConfig())


@pytest.mark.parametrize("kwargs", [
    {"guard_bits": 1.5},
    {"guard_bits": -1},
    {"g_sync": 0},
    {"g_sync": 32, "g_mode": 32},
    {"g_sync": 40, "g_mode": 32},
    {"g_sync": True},
])
def test_clock_config_validation(kwargs):
    with pytest.raises(ValueError):
        ClockConfig(**kwargs)


@pytest.mark.parametrize("run,event", [
    (0, NonClockEvent.NONE),
    (7, NonClockEvent.NONE),
    (8, NonClockEvent.FRAME_SYNC),
    (31, NonClockEvent.FRAME_SYNC),
    (32, NonClockEvent.MODE_TOGGLE),
    (1000, NonClockEvent.MODE_TOGGLE),
])
def test_detect_nonclock_boundaries(run, event):
    assert detect_nonclock(run, ClockConfig()) is event


def test_detect_nonclock_rejects_negative_runs():
    with pytest.raises(ValueError):
        detect_nonclock(-1, ClockConfig())


# -- RNG ----------------------------------------------------------------------

# Frozen draws pin the generator: a library change that alters any stream
# would silently break trace reproducibility, so regressions must be loud.
RNG_0_0_FIRST = (13149026515261084533, 14953182051356210418,
                 13133973176695784329)
RNG_1_2_FIRST = (10353104475759123500, 7981732791540669002,
                 6306776756084916382)


def test_rng_frozen_draws():
    assert tuple(Rng(0, 0).next_u64() for _ in range(3))[0] == RNG_0_0_FIRST[0]
    r = Rng(0, 0)
    assert tuple(r.next_u64() for _ in range(3)) == RNG_0_0_FIRST
    r = Rng(1, 2)
    assert tuple(r.next_u64() for _ in range(3)) == RNG_1_2_FIRST


def test_rng_streams_are_independent_of_interleaving():
    # counter-based: values depend only on (seed, stream, draw index)
    a, b = Rng(5, 1), Rng(5, 2)
    interleaved = [a.next_u64(), b.next_u64(), a.next_u64(), b.next_u64()]
    ra, rb = Rng(5, 1), Rng(5, 2)
    seq_a = [ra.next_u64(), ra.next_u64()]
    seq_b = [rb.next_u64(), rb.next_u64()]
    assert interleaved == [seq_a[0], seq_b[0], seq_a[1], seq_b[1]]


def test_rng_distinct_streams_differ():
    assert Rng(3, 0).next_u64() != Rng(3, 1).next_u64()
    assert Rng(3, 0).next_u64() != Rng(4, 0).next_u64()


@given(st.integers(min_value=0, max_value=2**32), st.integers(0, 255),
       st.integers(min_value=1, max_value=10**6))
def test_next_below_stays_in_range(seed, stream, bound):
    r = Rng(seed, stream)
    for _ in range(5):
        assert 0 <= r.next_below(bound) < bound


@given(st.integers(min_value=0, max_value=2**32),
       st.integers(min_value=-50, max_value=50),
       st.integers(min_value=0, max_value=100))
def test_next_int_is_inclusive(seed, lo, span):
    r = Rng(seed, 0)
    for _ in range(5):
        assert lo <= r.next_int(lo, lo + span) <= lo + span


def test_rng_bound_validation():
    r = Rng(0, 0)
    with pytest.raises(ValueError):
        r.next_below(0)
    with pytest.raises(ValueError):
        r.next_int(5, 4)


def test_next_float_in_unit_interval():
    r = Rng(42, 0)
    values = [r.next_float() for _ in range(100)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert len(set(values)) > 90  # not collapsing to a few values
