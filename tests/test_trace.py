"""Trace writer: the bytes of every line, levels and the set of event kinds."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomac import protocol, trace
from optomac.config import SCENARIO_NAMES, load_path
from optomac.protocol import frame_text
from optomac.scenarios import run_scenario
from optomac.timebase import FRAME_BITS
from optomac.trace import _KIND_LEVEL, LEVELS, NullTrace, TraceWriter

# names with quotes, backslashes, control and non-ASCII characters
NAMES = st.text(max_size=6) | st.sampled_from(
    ('a"b', "back\\slash", "tab\there", "ñodo", "节点", "\U0001f52c", ""))
SCALARS = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
           | st.floats() | st.sampled_from((float("inf"), float("-inf"),
                                            float("nan"), -0.0, 1e-300))
           | NAMES)
VALUES = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4)
    | st.dictionaries(NAMES, inner, max_size=4)), max_leaves=12)
PAYLOADS = st.dictionaries(NAMES.filter(lambda k: k not in ("cycle", "kind")),
                           VALUES, max_size=5)
EVENTS = st.lists(st.tuples(st.integers(0, 10**9),
                            st.sampled_from(sorted(_KIND_LEVEL)), PAYLOADS),
                  max_size=6)


@settings(max_examples=100, deadline=None)
@given(EVENTS)
def test_lines_equal_json_dumps_with_sorted_keys(events):
    writer = TraceWriter("power")
    for cycle, kind, payload in events:
        writer.event(cycle, kind, **payload)
    want = "".join(json.dumps({"cycle": cycle, "kind": kind, **payload},
                              sort_keys=True) + "\n"
                   for cycle, kind, payload in events)
    assert writer.getvalue() == want
    assert writer.count == len(events)


CYCLES = st.integers(0, 10**9)
INTS = st.integers(-10**20, 10**20)
MASKS = st.integers(0, (1 << FRAME_BITS) - 1)

# each per-kind writer: the kind it writes, a strategy for its arguments
# after the cycle, and the payload ``event`` writes for them
WRITERS = {
    "tx_start": ("tx_start", st.tuples(NAMES, MASKS, INTS),
                 lambda node, mask, pattern: {
                     "node": node, "frame": frame_text(mask),
                     "pattern": pattern}),
    "tx_done": ("tx_done", st.tuples(NAMES, MASKS),
                lambda node, mask: {"node": node, "frame": frame_text(mask)}),
    "tx_exit": ("tx_exit", st.tuples(NAMES, INTS, MASKS),
                lambda node, bit, mask: {
                    "node": node, "bit": bit, "frame": frame_text(mask)}),
    "rx_frame": ("rx_frame", st.tuples(NAMES, NAMES, MASKS, st.booleans()),
                 lambda node, side, mask, addressed: {
                     "node": node, "side": side, "frame": frame_text(mask),
                     "addressed": addressed}),
    "rx_reject_bits": ("rx_reject", st.tuples(NAMES, NAMES, NAMES, MASKS),
                       lambda node, side, reason, mask: {
                           "node": node, "side": side, "reason": reason,
                           "bits": f"{mask:0{FRAME_BITS}b}"}),
    "rx_reject_frame": ("rx_reject", st.tuples(NAMES, NAMES, NAMES, MASKS),
                        lambda node, side, reason, mask: {
                            "node": node, "side": side, "reason": reason,
                            "frame": frame_text(mask)}),
    "chain": ("chain", st.tuples(NAMES, NAMES, INTS, NAMES),
              lambda node, state, target, tag: {
                  "node": node, "state": state, "target": target,
                  "tag": tag}),
    "blocked": ("blocked", st.tuples(NAMES, INTS),
                lambda node, by: {"node": node, "by": by}),
    "unblocked": ("unblocked", st.tuples(NAMES, INTS, NAMES),
                  lambda node, by, reason: {
                      "node": node, "by": by, "reason": reason}),
    "block_cleared": ("block_cleared", st.tuples(NAMES, INTS),
                      lambda node, target: {"node": node, "target": target}),
    "timeout": ("timeout", st.tuples(NAMES, NAMES, INTS, INTS),
                lambda node, waited, target, retry_ic: {
                    "node": node, "waited": waited, "target": target,
                    "retry_ic": retry_ic}),
    "controller_frame": ("controller", st.tuples(MASKS),
                         lambda mask: {"frame": frame_text(mask)}),
    "power": ("power", st.tuples(st.lists(NAMES, max_size=4)),
              lambda sources: {"sources": sources}),
}


@pytest.mark.parametrize("method", sorted(WRITERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_kind_writer_writes_what_event_writes(method, data):
    # a per-kind writer's line is ``json.dumps`` of its record with sorted
    # keys, at every level that wants its kind, and nothing at the others
    kind, args, payload_of = WRITERS[method]
    calls = data.draw(st.lists(st.tuples(CYCLES, args), max_size=4))
    for writer in [TraceWriter(level) for level in LEVELS] + [NullTrace()]:
        for cycle, values in calls:
            getattr(writer, method)(cycle, *values)
        want = []
        if writer.wants(kind):
            want = [json.dumps({"cycle": cycle, "kind": kind,
                                **payload_of(*values)}, sort_keys=True) + "\n"
                    for cycle, values in calls]
        assert writer.getvalue() == "".join(want)
        assert writer.count == len(want)


def test_a_level_that_drops_frames_looks_up_no_frame_text(monkeypatch):
    # at the summary level no per-frame line is written, so a contended
    # handshake run never turns a frame into its text
    want = TraceWriter("summary")
    run_scenario("clique_contention", protocol="handshake", seed=0, trace=want)

    def no_text(*args):
        raise AssertionError("frame text looked up")

    monkeypatch.setattr(trace, "frame_text", no_text)
    monkeypatch.setattr(protocol, "frame_text", no_text)
    writer = TraceWriter("summary")
    run_scenario("clique_contention", protocol="handshake", seed=0,
                 trace=writer)
    assert writer.getvalue() == want.getvalue()
    assert writer.count == want.count


def test_a_value_json_has_no_form_for_raises_type_error():
    writer = TraceWriter("power")
    with pytest.raises(TypeError):
        writer.event(0, "power", sources={"a"})


@pytest.mark.parametrize("level", LEVELS)
def test_each_level_writes_the_kinds_at_or_below_it(level):
    writer = TraceWriter(level)
    for kind in sorted(_KIND_LEVEL):
        writer.event(3, kind)
    written = [json.loads(line)["kind"] for line in writer.getvalue().splitlines()]
    want = sorted(k for k, at in _KIND_LEVEL.items()
                  if at <= LEVELS.index(level))
    assert written == want
    assert writer.count == len(want)
    assert [k for k in sorted(_KIND_LEVEL) if writer.wants(k)] == want


@pytest.mark.parametrize("writer", [TraceWriter(level) for level in LEVELS]
                         + [NullTrace()], ids=[*LEVELS, "null"])
def test_unknown_kind_is_rejected(writer):
    with pytest.raises(ValueError, match="unknown trace event kind"):
        writer.event(0, "tx_strat", node="s1")
    with pytest.raises(ValueError, match="unknown trace event kind"):
        writer.wants("tx_strat")
    assert writer.getvalue() == ""
    assert writer.count == 0


@pytest.mark.parametrize("protocol", ("basic", "handshake"))
@pytest.mark.parametrize("scenario", sorted(SCENARIO_NAMES))
def test_every_emitted_kind_has_a_level(scenario, protocol):
    writer = TraceWriter("power")
    run_scenario(scenario, protocol=protocol, seed=0, trace=writer)
    kinds = {json.loads(line)["kind"] for line in writer.getvalue().splitlines()}
    assert kinds and kinds <= set(_KIND_LEVEL)


DATA = Path(__file__).with_name("data")
# (scenario, --config document) of every packaged scenario and test document
RUNS = ([(scenario, None) for scenario in sorted(SCENARIO_NAMES)]
        + [(None, doc.name) for doc in sorted(DATA.glob("*.json"))])


@pytest.mark.parametrize("protocol", ("basic", "handshake"))
@pytest.mark.parametrize("scenario,doc", RUNS)
def test_each_level_is_a_projection_of_the_next(scenario, doc, protocol):
    # a run writes the same events at every level: the events trace is the
    # power trace without its power lines, the summary trace is the events
    # trace without its level-1 kinds, and metrics.json does not change.
    # The golden digests pin the power level; this ties the others to it
    cfg = load_path(DATA / doc) if doc is not None else None
    for seed in range(4):
        traces, metrics = {}, set()
        for level in LEVELS:
            writer = TraceWriter(level)
            result = run_scenario(scenario, cfg=cfg, protocol=protocol,
                                  seed=seed, trace=writer)
            traces[level] = writer.getvalue().splitlines(keepends=True)
            metrics.add(result.metrics.to_json())
        for coarse, fine in zip(LEVELS, LEVELS[1:]):
            rank = LEVELS.index(coarse)
            assert len(traces[coarse]) < len(traces[fine])
            assert traces[coarse] == [
                line for line in traces[fine]
                if _KIND_LEVEL[json.loads(line)["kind"]] <= rank]
        assert len(metrics) == 1
