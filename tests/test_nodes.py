"""Agent state machine driven cycle by cycle with hand-built channel input."""

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optomac.metrics import Metrics
from optomac.nodes import (
    AWAIT_WINDOW_SUBCYCLES,
    BLOCKED_BACKSTOP_ICS,
    REQUEST_RETRY_ICS,
    Agent,
    ChainState,
    CommandChain,
    Hooks,
    Outgoing,
    Variant,
    _Inflight,
)
from optomac.protocol import (
    PRIORITY_ACK,
    PRIORITY_BLOCK,
    PRIORITY_DATA,
    Frame,
    NodeMemory,
    Opcode,
    broadcast_address,
    controller_address,
    frame_bits,
)
from optomac.timebase import FRAME_BITS, ClockConfig, Rng, Subcycle
from optomac.trace import NullTrace, TraceWriter

SENSOR = 0b0001
PEER = 0b0010
ACTUATOR = 0b1000
SUBCYCLE_LEN = ClockConfig().subcycle_len


class RecordingHooks(Hooks):
    def __init__(self):
        self.triggers = []
        self.cleared = []
        self.actuations = []
        self.done = []

    def on_trigger(self, agent, ic):
        self.triggers.append(ic)

    def on_stimulus_cleared(self, agent, ic):
        self.cleared.append(ic)

    def on_actuation(self, agent, commander, meta, cycle):
        self.actuations.append((commander, meta["count"], cycle))

    def on_chain_done(self, agent, chain, cycle):
        self.done.append((chain.tag, cycle))


def make_agent(address=SENSOR, is_actuator=False, mode=Subcycle.T1,
               variant=Variant.HANDSHAKE, physical=None, recognized=None):
    mem = NodeMemory(
        address=address, is_actuator=is_actuator, working_mode=mode,
        physical=set(physical or {SENSOR, PEER, ACTUATOR} - {address}),
        recognized=set(recognized or ()))
    hooks = RecordingHooks()
    agent = Agent(f"n{address}", mem, Rng(0, address), variant, NullTrace(),
                  Metrics(), hooks=hooks)
    return agent, hooks


def run_own_subcycle(agent: Agent, ic: int = 0, base_cycle: int = 0,
                     jam_at: int | None = None, jam_side: str = "top") -> list:
    """One transmit subcycle; optionally jam one detector at one bit offset."""
    sub = agent.mode
    sent = []
    for off in range(SUBCYCLE_LEN):
        cycle = base_cycle + off
        sent.append(agent.emit(sub, off, ic, cycle))
        if jam_at is not None and off == jam_at:
            agent.observe(jam_side == "top", jam_side == "bottom", sub, off,
                          ic, cycle)
    agent.end_subcycle(sub, ic, base_cycle + SUBCYCLE_LEN - 1)
    return sent


def feed_subcycle(agent: Agent, sub: Subcycle, ic: int = 0,
                  base_cycle: int = 0, top=None, bottom=None) -> None:
    """One receive subcycle delivering whole frames per detector side."""
    for off in range(SUBCYCLE_LEN):
        top_bit = top[off] if top is not None and off < len(top) else 0
        bot_bit = bottom[off] if bottom is not None and off < len(bottom) else 0
        agent.observe(bool(top_bit), bool(bot_bit), sub, off, ic,
                      base_cycle + off)
    agent.end_subcycle(sub, ic, base_cycle + SUBCYCLE_LEN - 1)


def test_silent_outside_own_subcycle():
    agent, _ = make_agent(mode=Subcycle.T1, variant=Variant.BASIC)
    agent.start_chain(ACTUATOR)
    assert agent.emit(Subcycle.T2, 0, 0, 12) is None
    assert agent.emit(Subcycle.T4, 0, 0, 36) is None
    sent = run_own_subcycle(agent)
    frame = frame_bits(Frame(ACTUATOR, Opcode.COMMAND, SENSOR))
    assert [s[0] for s in sent[:11]] == list(frame)
    assert sent[11] is None   # guard bit


def test_clean_command_enters_await_ack():
    agent, _ = make_agent(variant=Variant.BASIC)
    chain = agent.start_chain(ACTUATOR, tag="t")
    run_own_subcycle(agent)
    assert agent.metrics.issued == 1
    assert chain.state is ChainState.AWAIT_ACK
    assert chain.window == AWAIT_WINDOW_SUBCYCLES


def test_handshake_starts_with_notify():
    agent, _ = make_agent(variant=Variant.HANDSHAKE)
    chain = agent.start_chain(ACTUATOR)
    sent = run_own_subcycle(agent)
    notify = frame_bits(Frame(ACTUATOR, Opcode.NOTIFY, SENSOR))
    assert [s[0] for s in sent[:11]] == list(notify)
    assert chain.state is ChainState.AWAIT_BLOCK
    assert agent.metrics.issued == 0   # NOTIFY is not a command


def test_cdwm_exit_requeues_at_head():
    # COMMAND toward 1000 from 0001 opens 1000100...; bit 1 is a mute bit,
    # so a foreign pulse there, on either detector, must force an exit
    for jam_side in ("top", "bottom"):
        agent, _ = make_agent(variant=Variant.BASIC)
        agent.start_chain(ACTUATOR)
        sent = run_own_subcycle(agent, jam_at=1, jam_side=jam_side)
        assert sent[1][0] == 0
        assert [s for s in sent[2:] if s is not None] == []
        assert agent.metrics.exits == 1
        assert agent.queue and agent.queue[0].frame.opcode is Opcode.COMMAND
        assert agent.metrics.issued == 0
        # the requeued frame goes out untouched next own subcycle
        sent = run_own_subcycle(agent, ic=1, base_cycle=48)
        assert [s[0] for s in sent[:11]] == \
            list(frame_bits(Frame(ACTUATOR, Opcode.COMMAND, SENSOR)))
        assert agent.metrics.issued == 1


def test_own_pulse_does_not_trigger_exit():
    agent, _ = make_agent(variant=Variant.BASIC)
    agent.start_chain(ACTUATOR)
    sent = agent.emit(Subcycle.T1, 0, 0, 0)
    assert sent[0] == 1
    # carrier sensing is only armed while the node is mute
    agent.observe(True, False, Subcycle.T1, 0, 0, 0)
    assert agent.inflight.exited_at is None


def test_transmit_queue_priorities():
    agent, _ = make_agent()
    data = Outgoing(Frame(ACTUATOR, Opcode.RELAY, SENSOR), 0, PRIORITY_DATA)
    ack = Outgoing(Frame(PEER, Opcode.ACK, SENSOR), 0, PRIORITY_ACK)
    block = Outgoing(Frame(broadcast_address(), Opcode.BLOCK, SENSOR), 0,
                     PRIORITY_BLOCK)
    agent.queue.extend([data, ack, block])
    assert agent._pick() is block
    assert agent._pick() is ack
    assert agent._pick() is data


def test_blocked_node_withholds_data_but_not_replies():
    agent, _ = make_agent()
    agent.blocked_by = ACTUATOR
    data = Outgoing(Frame(ACTUATOR, Opcode.RELAY, SENSOR), 0, PRIORITY_DATA)
    ack = Outgoing(Frame(PEER, Opcode.ACK, SENSOR), 0, PRIORITY_ACK)
    agent.queue.extend([data, ack])
    assert agent._pick() is ack
    assert agent._pick() is None
    assert data in agent.queue


def test_blocked_node_with_only_data_to_send_has_no_send_work():
    # a blocked node loads only BLOCK and ACK frames, so queued data and a
    # chain waiting to send give it nothing to do at offset 0
    agent, _ = make_agent()
    agent.blocked_by = ACTUATOR
    agent.queue.append(
        Outgoing(Frame(ACTUATOR, Opcode.RELAY, SENSOR), 0, PRIORITY_DATA))
    assert not agent.has_send_work(0)
    agent.start_chain(ACTUATOR)
    assert not agent.has_send_work(0)
    agent.queue.append(Outgoing(Frame(PEER, Opcode.ACK, SENSOR), 0,
                                PRIORITY_ACK))
    assert agent.has_send_work(0)
    agent.queue.pop()
    agent.blocked_by = None
    assert agent.has_send_work(0)


def test_foreign_block_sets_blocked_until_ack():
    agent, _ = make_agent()
    block = frame_bits(Frame(broadcast_address(), Opcode.BLOCK, ACTUATOR))
    feed_subcycle(agent, Subcycle.T2, ic=0, top=block)
    assert agent.blocked_by == ACTUATOR
    # the ACK that closes the reservation is addressed to the winner, not to
    # this node, but it still lifts the block
    ack = frame_bits(Frame(PEER, Opcode.ACK, ACTUATOR))
    feed_subcycle(agent, Subcycle.T2, ic=1, base_cycle=60, top=ack)
    assert agent.blocked_by is None


def test_block_backstop_expires():
    agent, _ = make_agent()
    block = frame_bits(Frame(broadcast_address(), Opcode.BLOCK, ACTUATOR))
    feed_subcycle(agent, Subcycle.T2, ic=2, top=block)
    assert agent.blocked_by == ACTUATOR
    feed_subcycle(agent, Subcycle.T2, ic=2 + BLOCKED_BACKSTOP_ICS - 1)
    assert agent.blocked_by == ACTUATOR
    feed_subcycle(agent, Subcycle.T2, ic=2 + BLOCKED_BACKSTOP_ICS)
    assert agent.blocked_by is None


def test_awaited_block_advances_chain():
    agent, _ = make_agent(variant=Variant.HANDSHAKE)
    chain = agent.start_chain(ACTUATOR)
    run_own_subcycle(agent)
    assert chain.state is ChainState.AWAIT_BLOCK
    block = frame_bits(Frame(broadcast_address(), Opcode.BLOCK, ACTUATOR))
    feed_subcycle(agent, Subcycle.T2, top=block)
    assert chain.state is ChainState.SEND_COMMAND
    assert agent.blocked_by is None


def test_ack_completes_chain_and_fires_hook():
    agent, hooks = make_agent(variant=Variant.BASIC)
    chain = agent.start_chain(ACTUATOR, tag="job")
    run_own_subcycle(agent)
    ack = frame_bits(Frame(SENSOR, Opcode.ACK, ACTUATOR))
    feed_subcycle(agent, Subcycle.T3, base_cycle=24, top=ack)
    assert agent.metrics.delivered == 1
    assert agent.chains == []
    assert hooks.done == [("job", 35)]


def test_await_timeout_backs_off():
    agent, _ = make_agent(variant=Variant.BASIC)
    chain = agent.start_chain(ACTUATOR)
    run_own_subcycle(agent, ic=0)
    for k in range(AWAIT_WINDOW_SUBCYCLES):
        assert chain.state is ChainState.AWAIT_ACK
        feed_subcycle(agent, Subcycle.T2 if k == 0 else Subcycle.T3, ic=0)
    assert chain.state is ChainState.BACKOFF
    assert chain.retry_ic >= 1
    assert agent.metrics.retries == 1
    assert agent.metrics.timeouts[0]["waited"] == "await_ack"
    # once the drawn delay expires the chain re-arms
    sent = run_own_subcycle(agent, ic=chain.retry_ic,
                            base_cycle=48 * chain.retry_ic)
    assert sent[0] is not None
    assert chain.state is ChainState.AWAIT_ACK


# -- actuator side ------------------------------------------------------------


def test_notify_reserves_and_queues_block():
    agent, _ = make_agent(address=ACTUATOR, is_actuator=True,
                          mode=Subcycle.T3)
    notify = frame_bits(Frame(ACTUATOR, Opcode.NOTIFY, SENSOR))
    feed_subcycle(agent, Subcycle.T1, top=notify)
    blocks = [o for o in agent.queue if o.frame.opcode is Opcode.BLOCK]
    assert len(blocks) == 1
    assert blocks[0].frame.recipient == broadcast_address()
    # a second NOTIFY before the BLOCK goes out must not double-queue it
    feed_subcycle(agent, Subcycle.T1, ic=1, base_cycle=48, top=notify)
    assert len([o for o in agent.queue
                if o.frame.opcode is Opcode.BLOCK]) == 1


def test_notify_is_inert_in_basic_variant():
    agent, _ = make_agent(address=ACTUATOR, is_actuator=True,
                          mode=Subcycle.T3, variant=Variant.BASIC)
    notify = frame_bits(Frame(ACTUATOR, Opcode.NOTIFY, SENSOR))
    feed_subcycle(agent, Subcycle.T1, top=notify)
    assert agent.queue == []


def test_command_acks_count_and_actuate():
    agent, hooks = make_agent(address=ACTUATOR, is_actuator=True,
                              mode=Subcycle.T3, variant=Variant.BASIC)
    command = frame_bits(Frame(ACTUATOR, Opcode.COMMAND, SENSOR))
    feed_subcycle(agent, Subcycle.T1, top=command)
    assert agent.command_counts == {SENSOR: 1}
    acks = [o for o in agent.queue if o.frame.opcode is Opcode.ACK]
    assert len(acks) == 1 and acks[0].meta["count"] == 1
    # the actuation hook fires when the ACK is actually on the channel
    run_own_subcycle(agent, base_cycle=24)
    assert agent.metrics.acks_sent == 1
    assert hooks.actuations == [(SENSOR, 1, 35)]
    feed_subcycle(agent, Subcycle.T1, ic=1, base_cycle=48, top=command)
    assert agent.command_counts == {SENSOR: 2}


def test_cross_detector_notify_contention_serves_neither():
    agent, _ = make_agent(address=ACTUATOR, is_actuator=True,
                          mode=Subcycle.T3)
    n1 = frame_bits(Frame(ACTUATOR, Opcode.NOTIFY, SENSOR))
    n2 = frame_bits(Frame(ACTUATOR, Opcode.NOTIFY, PEER))
    feed_subcycle(agent, Subcycle.T1, top=n1, bottom=n2)
    assert agent.queue == []
    assert agent.metrics.rx_rejects == 2


def test_cross_detector_mixed_traffic_still_routes():
    # NOTIFY on one side plus an unrelated ACK on the other is not contention
    agent, _ = make_agent(address=ACTUATOR, is_actuator=True,
                          mode=Subcycle.T3)
    n1 = frame_bits(Frame(ACTUATOR, Opcode.NOTIFY, SENSOR))
    other = frame_bits(Frame(PEER, Opcode.ACK, PEER))
    feed_subcycle(agent, Subcycle.T1, top=n1, bottom=other)
    assert [o.frame.opcode for o in agent.queue] == [Opcode.BLOCK]


def test_collision_suspect_is_rejected():
    agent, _ = make_agent(address=ACTUATOR, is_actuator=True,
                          mode=Subcycle.T3)
    ghost = frame_bits(Frame(ACTUATOR, Opcode.NOTIFY, 0b0111))
    feed_subcycle(agent, Subcycle.T1, top=ghost)
    assert agent.metrics.rx_rejects == 1
    assert agent.queue == []


def test_relay_forwarding_keeps_origin():
    agent, _ = make_agent(address=ACTUATOR, is_actuator=True,
                          mode=Subcycle.T3)
    relay = frame_bits(Frame(ACTUATOR, Opcode.RELAY, PEER))
    feed_subcycle(agent, Subcycle.T1, top=relay)
    forwarded = [o for o in agent.queue if o.meta.get("forwarded")]
    assert len(forwarded) == 1
    assert forwarded[0].frame == Frame(controller_address(), Opcode.RELAY,
                                       PEER)
    # the same request again while one copy is queued is dropped
    feed_subcycle(agent, Subcycle.T1, ic=1, base_cycle=48, top=relay)
    assert len([o for o in agent.queue if o.meta.get("forwarded")]) == 1


def test_request_stream_repeats_until_cleared():
    agent, _ = make_agent()
    agent.start_request(controller_address(), ic=0)
    agent._refresh_chains(0)
    requests = [o for o in agent.queue if o.meta.get("request")]
    assert len(requests) == 1
    assert requests[0].frame == Frame(controller_address(), Opcode.RELAY,
                                      SENSOR)
    # while one request is queued no second one is generated
    agent._refresh_chains(REQUEST_RETRY_ICS)
    assert len([o for o in agent.queue if o.meta.get("request")]) == 1
    # once it went out, the next one appears only after the retry period
    agent.queue.clear()
    agent._refresh_chains(REQUEST_RETRY_ICS - 1)
    assert agent.queue == []
    agent._refresh_chains(REQUEST_RETRY_ICS)
    assert len(agent.queue) == 1
    agent.clear_requests()
    agent.queue.clear()
    agent._refresh_chains(3 * REQUEST_RETRY_ICS)
    assert agent.queue == []


def test_second_layer_latch_edges():
    agent, hooks = make_agent()
    agent.on_second_layer(True, 0, 47)
    agent.on_second_layer(True, 1, 95)
    assert agent.latched
    assert hooks.triggers == [0]       # edge-triggered, not level
    agent.on_second_layer(False, 2, 143)
    assert not agent.latched
    assert hooks.cleared == [2]
    agent.on_second_layer(True, 3, 191)
    assert hooks.triggers == [0, 3]


def test_actuators_ignore_second_layer_latch():
    agent, hooks = make_agent(address=ACTUATOR, is_actuator=True)
    agent.on_second_layer(True, 0, 47)
    assert not agent.latched
    assert hooks.triggers == []


RX_BITS = st.integers(0, (1 << FRAME_BITS) - 1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(Subcycle)), st.integers(0, FRAME_BITS),
       st.one_of(st.none(),
                 st.tuples(st.sampled_from((0, 1, None)),
                           st.one_of(st.none(),
                                     st.integers(0, FRAME_BITS - 1)))),
       RX_BITS, RX_BITS)
def test_dark_tick_changes_nothing(sub, offset, inflight, top, bottom):
    # the engine asks only nodes whose detectors see a bit to observe; a
    # cycle in which neither detector sees a bit must leave a node as it
    # was, in its own subcycle or any other
    agent, _ = make_agent(variant=Variant.BASIC)
    agent.trace = trace = TraceWriter("power")
    if inflight is not None:
        sent_bit, exited_at = inflight
        frame = Frame(ACTUATOR, Opcode.COMMAND, SENSOR)
        agent.inflight = _Inflight(Outgoing(frame, 0, PRIORITY_DATA),
                                   frame_bits(frame), exited_at=exited_at,
                                   sent_bit=sent_bit)
    agent._rx_top, agent._rx_bottom = top, bottom

    def state():
        return (agent._rx_top, agent._rx_bottom,
                agent.inflight and agent.inflight.exited_at)

    before = state()
    agent.observe(False, False, sub, offset, 0, 17)
    assert state() == before
    assert trace.getvalue() == ""


# -- calls the engine skips ---------------------------------------------------
#
# The engine leaves out calls that cannot change a node: closing a subcycle
# without work, offset 0 of its own subcycle with nothing to send, and a
# second-layer update that matches the latch.  Each case below draws the
# rest of the node's state at random and checks that the call changes none
# of it.

ADDRESSES = st.sampled_from((PEER, ACTUATOR, controller_address()))
QUEUED = st.lists(st.builds(
    lambda to, op, priority: Outgoing(Frame(to, op, SENSOR), 0, priority),
    ADDRESSES, st.sampled_from(list(Opcode)),
    st.sampled_from((PRIORITY_BLOCK, PRIORITY_ACK, PRIORITY_DATA))),
    min_size=1, max_size=3)


def near(ic: int):
    """An instruction cycle just before, at or just after ``ic``."""
    return st.integers(max(0, ic - 2), ic + 2)


def chains_near(ic: int):
    """Chains in any state, with retry times on both sides of ``ic``."""
    return st.lists(st.builds(
        CommandChain, ADDRESSES, st.just("t"),
        st.sampled_from(list(ChainState)),
        st.integers(0, AWAIT_WINDOW_SUBCYCLES), near(ic)),
        min_size=1, max_size=3)


@st.composite
def node_states(draw, *, inflight=True, rx=True, blocked=True, queue=True):
    """A sensor or actuator, its other state drawn at random, and the
    instruction cycle of the call under test; each flag set to False keeps
    that part empty.  Chains in every state and a relay request are always
    drawn, with their due times around that instruction cycle."""
    ic = draw(st.integers(0, 60))
    address = draw(st.sampled_from((SENSOR, ACTUATOR)))
    agent, hooks = make_agent(
        address=address, is_actuator=address == ACTUATOR,
        mode=draw(st.sampled_from((Subcycle.T1, Subcycle.T2, Subcycle.T3))),
        variant=draw(st.sampled_from(list(Variant))))
    agent.trace = TraceWriter("power")
    if inflight and draw(st.booleans()):
        frame = Frame(ACTUATOR, Opcode.COMMAND, SENSOR)
        agent.inflight = _Inflight(
            Outgoing(frame, 0, PRIORITY_DATA), frame_bits(frame),
            exited_at=draw(st.none() | st.integers(0, FRAME_BITS - 1)),
            sent_bit=draw(st.sampled_from((0, 1, None))))
    if rx:
        agent._rx_top, agent._rx_bottom = draw(RX_BITS), draw(RX_BITS)
    if draw(st.booleans()):
        agent.chains = draw(chains_near(ic))
    if blocked and draw(st.booleans()):
        agent.blocked_by = draw(ADDRESSES)
    agent.blocked_since_ic = draw(st.integers(0, 40))
    if queue and draw(st.booleans()):
        agent.queue = draw(QUEUED)
    if draw(st.booleans()):
        agent.request_target = draw(ADDRESSES)
    agent.request_next_ic = draw(near(ic))
    agent.latched = draw(st.booleans())
    return agent, hooks, ic


def node_state(agent: Agent, hooks: RecordingHooks) -> tuple:
    """Everything a skipped call must leave as it was."""
    return (agent._rx_top, agent._rx_bottom,
            copy.deepcopy(agent.queue), copy.deepcopy(agent.chains),
            copy.deepcopy(agent.inflight), agent.blocked_by,
            agent.blocked_since_ic, agent.latched, agent.request_target,
            agent.request_next_ic, dict(agent.command_counts),
            agent.metrics.to_json(), agent.rng.counter,
            agent.trace.getvalue(), copy.deepcopy(vars(hooks)))


@settings(max_examples=300, deadline=None)
@given(node_states(inflight=False, rx=False, blocked=False),
       st.sampled_from(list(Subcycle)), st.integers(0, 3000))
def test_end_subcycle_without_work_changes_nothing(node, sub, cycle):
    # chains that wait for nothing, queued frames and relay requests are no
    # reason to close a subcycle
    agent, hooks, ic = node
    assume(not agent.has_subcycle_work)
    before = node_state(agent, hooks)
    agent.end_subcycle(sub, ic, cycle)
    assert node_state(agent, hooks) == before


@settings(max_examples=300, deadline=None)
@given(node_states(inflight=False, queue=False), st.integers(0, 3000))
def test_first_bit_with_nothing_to_send_changes_nothing(node, cycle):
    # chains that wait for a reply or for their backoff to end, and a relay
    # request not yet due, are nothing to send; the engine asks a node at
    # offset 0 of its own subcycle only
    agent, hooks, ic = node
    assume(not agent.has_send_work(ic))
    before = node_state(agent, hooks)
    assert agent.emit(agent.mode, 0, ic, cycle) is None
    assert node_state(agent, hooks) == before


@settings(max_examples=300, deadline=None)
@given(node_states(inflight=False), st.integers(0, 3000))
def test_first_bit_without_send_work_changes_nothing_with_a_queue(node,
                                                                  cycle):
    # queued data and chains waiting to send are nothing to send while the
    # node is blocked
    agent, hooks, ic = node
    assume(not agent.has_send_work(ic))
    before = node_state(agent, hooks)
    assert agent.emit(agent.mode, 0, ic, cycle) is None
    assert node_state(agent, hooks) == before


@settings(max_examples=150, deadline=None)
@given(node_states(), st.integers(0, 3000))
def test_second_layer_matching_the_latch_changes_nothing(node, cycle):
    agent, hooks, ic = node
    before = node_state(agent, hooks)
    agent.on_second_layer(agent.latched, ic, cycle)
    assert node_state(agent, hooks) == before
