"""Agent state machine driven cycle by cycle with hand-built channel input."""

import copy
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optomac.config import SCENARIO_NAMES
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
    BIT_MASK,
    PRIORITY_ACK,
    PRIORITY_BLOCK,
    PRIORITY_DATA,
    Frame,
    NodeMemory,
    Opcode,
    broadcast_address,
    controller_address,
    frame_mask,
)
from optomac.scenarios import run_scenario
from optomac.timebase import FRAME_BITS, ClockConfig, Rng, Subcycle
from optomac.trace import NullTrace, TraceWriter
from oracles import frame_bits, parse_bits

SENSOR = 0b0001
PEER = 0b0010
ACTUATOR = 0b1000
SUBCYCLE_LEN = ClockConfig().subcycle_len


class RecordingHooks(Hooks):
    def __init__(self):
        self.triggers = []
        self.actuations = []
        self.done = []

    def on_trigger(self, agent, ic):
        self.triggers.append(ic)

    def on_actuation(self, agent, commander, count, cycle):
        self.actuations.append((commander, count, cycle))

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
    ack = Outgoing(Frame(PEER, Opcode.ACK, SENSOR), 0, PRIORITY_ACK,
                   count=1)
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
    ack = Outgoing(Frame(PEER, Opcode.ACK, SENSOR), 0, PRIORITY_ACK,
                   count=1)
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
    assert agent.next_due() == math.inf
    agent.start_chain(ACTUATOR)
    assert agent.next_due() == math.inf
    agent.queue.append(Outgoing(Frame(PEER, Opcode.ACK, SENSOR), 0,
                                PRIORITY_ACK, count=1))
    assert agent.next_due() == 0
    agent.queue.pop()
    agent.blocked_by = None
    assert agent.next_due() == 0


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
    assert len(acks) == 1 and acks[0].count == 1
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
    onward = Frame(controller_address(), Opcode.RELAY, PEER)
    assert [o.frame for o in agent.queue] == [onward]
    # the same request again while one copy is queued is dropped
    feed_subcycle(agent, Subcycle.T1, ic=1, base_cycle=48, top=relay)
    assert [o.frame for o in agent.queue] == [onward]


# -- frames built once --------------------------------------------------------
#
# An agent builds each distinct frame it sends once, in one memo keyed by
# recipient, opcode and transmitter, and sends that object again: its RELAY
# request per target, each chain's frame per state, a forward per origin,
# its BLOCK and an ACK's frame per commander.  Each test below fails if the
# memo ignores a part of its key, if a BLOCK or forward is queued twice, or
# if an ACK's count or a chain's link is shared.


def sent_frame(sent: list) -> tuple[Frame, int]:
    """The frame and pattern ``run_own_subcycle`` saw go out."""
    return parse_bits(tuple(s[0] for s in sent[:FRAME_BITS])), sent[0][1]


def test_a_request_to_a_new_target_sends_the_new_relay():
    agent, _ = make_agent()
    agent.mem.optimal_pattern = {PEER: 2, controller_address(): 3}
    agent.start_request(PEER, ic=0)
    assert sent_frame(run_own_subcycle(agent, ic=0)) == (
        Frame(PEER, Opcode.RELAY, SENSOR), 2)
    agent.start_request(controller_address(), ic=1)
    assert sent_frame(run_own_subcycle(agent, ic=1, base_cycle=48)) == (
        Frame(controller_address(), Opcode.RELAY, SENSOR), 3)
    # back to the first target, after its retry period
    agent.start_request(PEER, ic=2)
    assert sent_frame(run_own_subcycle(agent, ic=2, base_cycle=96)) == (
        Frame(PEER, Opcode.RELAY, SENSOR), 2)


def test_a_chain_sends_the_frame_of_its_current_state():
    # NOTIFY, BLOCK heard, COMMAND, no ACK, BACKOFF, and NOTIFY again
    agent, _ = make_agent(variant=Variant.HANDSHAKE)
    chain = agent.start_chain(ACTUATOR)
    notify = (Frame(ACTUATOR, Opcode.NOTIFY, SENSOR), 0)
    assert sent_frame(run_own_subcycle(agent, ic=0)) == notify
    block = frame_bits(Frame(broadcast_address(), Opcode.BLOCK, ACTUATOR))
    feed_subcycle(agent, Subcycle.T2, ic=0, base_cycle=12, top=block)
    assert chain.state is ChainState.SEND_COMMAND
    assert sent_frame(run_own_subcycle(agent, ic=1, base_cycle=48)) == (
        Frame(ACTUATOR, Opcode.COMMAND, SENSOR), 0)
    for k in range(AWAIT_WINDOW_SUBCYCLES):
        feed_subcycle(agent, Subcycle.T2 if k == 0 else Subcycle.T3, ic=1)
    assert chain.state is ChainState.BACKOFF
    ic = chain.retry_ic
    assert sent_frame(run_own_subcycle(agent, ic=ic,
                                       base_cycle=48 * ic)) == notify


def test_each_chain_sends_its_own_frame():
    agent, _ = make_agent(variant=Variant.BASIC)
    agent.mem.optimal_pattern = {ACTUATOR: 1, 0b1001: 2}
    first = agent.start_chain(ACTUATOR)
    assert sent_frame(run_own_subcycle(agent, ic=0)) == (
        Frame(ACTUATOR, Opcode.COMMAND, SENSOR), 1)
    agent.chains.remove(first)
    agent.start_chain(0b1001)
    assert sent_frame(run_own_subcycle(agent, ic=1, base_cycle=48)) == (
        Frame(0b1001, Opcode.COMMAND, SENSOR), 2)


def test_relays_queue_one_forward_per_origin():
    agent, _ = make_agent(address=ACTUATOR, is_actuator=True,
                          mode=Subcycle.T3)
    from_peer = frame_bits(Frame(ACTUATOR, Opcode.RELAY, PEER))
    from_sensor = frame_bits(Frame(ACTUATOR, Opcode.RELAY, SENSOR))
    feed_subcycle(agent, Subcycle.T1, ic=0, top=from_peer)
    feed_subcycle(agent, Subcycle.T2, ic=0, base_cycle=12, top=from_peer)
    feed_subcycle(agent, Subcycle.T1, ic=1, base_cycle=48, top=from_sensor)
    assert [o.frame for o in agent.queue] == [
        Frame(controller_address(), Opcode.RELAY, PEER),
        Frame(controller_address(), Opcode.RELAY, SENSOR)]
    # once the first is sent, the same origin queues it again
    run_own_subcycle(agent, ic=1, base_cycle=72)
    feed_subcycle(agent, Subcycle.T1, ic=2, base_cycle=96, top=from_peer)
    assert [o.frame for o in agent.queue] == [
        Frame(controller_address(), Opcode.RELAY, SENSOR),
        Frame(controller_address(), Opcode.RELAY, PEER)]


def test_ack_counts_rise_per_command():
    agent, hooks = make_agent(address=ACTUATOR, is_actuator=True,
                              mode=Subcycle.T3, variant=Variant.BASIC)
    agent.mem.optimal_pattern = {SENSOR: 1, PEER: 2}
    from_sensor = frame_bits(Frame(ACTUATOR, Opcode.COMMAND, SENSOR))
    from_peer = frame_bits(Frame(ACTUATOR, Opcode.COMMAND, PEER))
    feed_subcycle(agent, Subcycle.T1, ic=0, top=from_sensor)
    feed_subcycle(agent, Subcycle.T2, ic=0, base_cycle=12, top=from_peer)
    feed_subcycle(agent, Subcycle.T1, ic=1, base_cycle=48, top=from_sensor)
    assert [(o.frame, o.pattern, o.count) for o in agent.queue] == [
        (Frame(SENSOR, Opcode.ACK, ACTUATOR), 1, 1),
        (Frame(PEER, Opcode.ACK, ACTUATOR), 2, 1),
        (Frame(SENSOR, Opcode.ACK, ACTUATOR), 1, 2)]
    for k in range(3):
        run_own_subcycle(agent, ic=1 + k, base_cycle=72 + 48 * k)
    assert [(by, count) for by, count, _ in hooks.actuations] == [
        (SENSOR, 1), (PEER, 1), (SENSOR, 2)]


def test_chains_to_one_target_each_move_their_own_state():
    agent, _ = make_agent(variant=Variant.BASIC)
    first = agent.start_chain(ACTUATOR)
    run_own_subcycle(agent, ic=0)
    assert first.state is ChainState.AWAIT_ACK
    second = agent.start_chain(ACTUATOR)
    assert sent_frame(run_own_subcycle(agent, ic=1, base_cycle=48)) == (
        Frame(ACTUATOR, Opcode.COMMAND, SENSOR), 0)
    assert second.state is ChainState.AWAIT_ACK
    assert agent.metrics.issued == 2


def test_a_frame_sent_twice_is_one_object():
    sensor, _ = make_agent()
    sensor.start_request(controller_address(), ic=0)
    sensor._refresh_chains(0)
    request = sensor.queue.pop()
    sensor._refresh_chains(REQUEST_RETRY_ICS)
    assert sensor.queue == [request] and sensor.queue[0] is request
    sensor.queue.clear()
    sensor.start_chain(ACTUATOR)
    assert sensor._next_out() is sensor._next_out()

    actuator, _ = make_agent(address=ACTUATOR, is_actuator=True,
                             mode=Subcycle.T3)
    queued = []
    for k, opcode in enumerate(2 * [Opcode.NOTIFY, Opcode.RELAY,
                                    Opcode.COMMAND]):
        feed_subcycle(actuator, Subcycle.T1, ic=k, base_cycle=48 * k,
                      top=frame_bits(Frame(ACTUATOR, opcode, SENSOR)))
        queued.append(actuator.queue[-1])
        run_own_subcycle(actuator, ic=k, base_cycle=48 * k + 24)
    block, forward, ack = queued[:3]
    assert (queued[3] is block and queued[4] is forward
            and queued[5].frame is ack.frame)
    # an ACK's count rides on a new Outgoing over the memo's
    assert (ack.count, queued[5].count) == (1, 2)
    assert actuator.queue == []


def test_one_memo_holds_every_frame_a_handshake_run_sends():
    kinds = set()
    for scenario in SCENARIO_NAMES:
        trace = TraceWriter("events")
        result = run_scenario(scenario, protocol="handshake", seed=0,
                              trace=trace)
        sent = {}
        for line in trace.getvalue().splitlines():
            event = json.loads(line)
            if event["kind"] == "tx_done":
                sent.setdefault(event["node"], set()).add(event["frame"])
        for name, agent in result.world.agents.items():
            memo = {out.frame.describe(): out.frame.opcode
                    for out in agent._memo.values()}
            assert sent.get(name, set()) <= memo.keys(), (scenario, name)
            kinds.update(memo[text] for text in sent.get(name, ()))
    # the five kinds of frame a node sends after learning
    assert kinds == {Opcode.NOTIFY, Opcode.BLOCK, Opcode.COMMAND, Opcode.ACK,
                     Opcode.RELAY}


ASLEEP = 10**6


def _asleep(agent):
    """Put the agent's wake time far ahead, as a World does once no agent
    has send work."""
    agent.wake[0] = ASLEEP
    return agent


def _requeue_after_exit(agent):
    agent.start_chain(ACTUATOR)
    _asleep(agent)
    run_own_subcycle(agent, jam_at=1)


def _block_cleared(agent):
    agent.start_chain(ACTUATOR)
    run_own_subcycle(agent)
    feed_subcycle(_asleep(agent), Subcycle.T2, top=frame_bits(
        Frame(broadcast_address(), Opcode.BLOCK, ACTUATOR)))


def _unblocked(agent, by_ack):
    feed_subcycle(agent, Subcycle.T2, top=frame_bits(
        Frame(broadcast_address(), Opcode.BLOCK, ACTUATOR)))
    if by_ack:
        feed_subcycle(_asleep(agent), Subcycle.T2, ic=1, top=frame_bits(
            Frame(PEER, Opcode.ACK, ACTUATOR)))
    else:
        feed_subcycle(_asleep(agent), Subcycle.T2, ic=BLOCKED_BACKSTOP_ICS)


def _heard_by_actuator(opcode):
    def step(agent):
        feed_subcycle(_asleep(agent), Subcycle.T1,
                      top=frame_bits(Frame(ACTUATOR, opcode, SENSOR)))
    return step


def _backoff(agent):
    agent.start_chain(ACTUATOR)
    run_own_subcycle(agent)
    _asleep(agent)
    for sub in (Subcycle.T2, Subcycle.T3):
        feed_subcycle(agent, sub)
    assert agent.chains[0].state is ChainState.BACKOFF


SENSOR_AGENT = {"variant": Variant.BASIC}
HANDSHAKE_SENSOR = {"variant": Variant.HANDSHAKE}
ACTUATOR_AGENT = {"address": ACTUATOR, "is_actuator": True,
                  "mode": Subcycle.T3, "variant": Variant.HANDSHAKE}
# entry point -> (the agent, what reaches it); all but the two public ones,
# which scenario hooks call outside a close pass, run inside ``end_subcycle``
PUBLIC_WAKERS = ("start_chain", "start_request")
WAKERS = {
    "start_chain": (SENSOR_AGENT,
                    lambda a: _asleep(a).start_chain(ACTUATOR)),
    "start_request": (SENSOR_AGENT, lambda a: _asleep(a).start_request(
        controller_address(), 0)),
    "requeue_after_exit": (SENSOR_AGENT, _requeue_after_exit),
    "block_cleared": (HANDSHAKE_SENSOR, _block_cleared),
    "unblocked_by_ack": (SENSOR_AGENT, lambda a: _unblocked(a, True)),
    "unblocked_by_backstop": (SENSOR_AGENT, lambda a: _unblocked(a, False)),
    "notify_queues_block": (ACTUATOR_AGENT,
                            _heard_by_actuator(Opcode.NOTIFY)),
    "command_queues_ack": (ACTUATOR_AGENT,
                           _heard_by_actuator(Opcode.COMMAND)),
    "relay_forwarded": (ACTUATOR_AGENT, _heard_by_actuator(Opcode.RELAY)),
    "backoff": (SENSOR_AGENT, _backoff),
}


@pytest.mark.parametrize("entry", sorted(WAKERS))
def test_entry_points_that_can_create_send_work_wake_the_world(entry):
    # the World asks for send work only from its wake time on.  The two
    # public entry points run outside a close pass and set the wake time to
    # 0 themselves.  Every other transition that can give an agent send
    # work runs inside ``end_subcycle``, which the World calls only once
    # the wake time is reached, so the agent leaves it alone there
    kwargs, step = WAKERS[entry]
    agent, _ = make_agent(**kwargs)
    step(agent)
    assert agent.wake[0] == (0 if entry in PUBLIC_WAKERS else ASLEEP)


def test_request_stream_repeats_until_cleared():
    agent, _ = make_agent()
    agent.start_request(controller_address(), ic=0)
    agent._refresh_chains(0)
    request = Frame(controller_address(), Opcode.RELAY, SENSOR)
    assert [o.frame for o in agent.queue] == [request]
    # while one request is queued no second one is generated
    agent._refresh_chains(REQUEST_RETRY_ICS)
    assert [o.frame for o in agent.queue] == [request]
    # once it went out, the next one appears only after the retry period; a
    # forwarded RELAY keeps its origin, so it is not this node's request
    forwarded = Outgoing(Frame(controller_address(), Opcode.RELAY, PEER), 0,
                         PRIORITY_DATA)
    agent.queue[:] = [forwarded]
    agent._refresh_chains(REQUEST_RETRY_ICS - 1)
    assert agent.queue == [forwarded]
    agent._refresh_chains(REQUEST_RETRY_ICS)
    assert [o.frame for o in agent.queue] == [forwarded.frame, request]
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
    agent.start_request(controller_address(), 1)
    agent.on_second_layer(False, 2, 143)
    assert not agent.latched
    assert agent.request_target is None
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
       st.booleans(), st.none() | st.integers(0, FRAME_BITS - 1),
       RX_BITS, RX_BITS)
def test_dark_tick_changes_nothing(sub, offset, inflight, exited_at, top,
                                   bottom):
    # the engine asks only nodes whose detectors see a bit to observe; a
    # cycle in which neither detector sees a bit must leave a node as it
    # was, in its own subcycle or any other
    agent, _ = make_agent(variant=Variant.BASIC)
    agent.trace = trace = TraceWriter("power")
    if inflight:
        frame = Frame(ACTUATOR, Opcode.COMMAND, SENSOR)
        agent.inflight = _Inflight(Outgoing(frame, 0, PRIORITY_DATA),
                                   frame_mask(frame), exited_at=exited_at)
    agent._rx_top, agent._rx_bottom = top, bottom

    def state():
        return (agent._rx_top, agent._rx_bottom,
                agent.inflight and agent.inflight.exited_at)

    before = state()
    agent.observe(False, False, sub, offset, 0, 17)
    assert state() == before
    assert trace.getvalue() == ""


# -- a frame's bits as masks --------------------------------------------------
#
# The engine hands each lit listener its detector bits as masks, one
# cycle's or a whole frame's.  Each must equal what the per-bit calls give.


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(Subcycle)), RX_BITS, RX_BITS, RX_BITS, RX_BITS)
def test_receiving_masks_equals_observing_their_bits(sub, top, bottom,
                                                     held_top, held_bottom):
    agents = []
    for _ in range(2):
        agent, _ = make_agent(mode=Subcycle.T2)
        agent._rx_top, agent._rx_bottom = held_top, held_bottom
        agents.append(agent)
    by_bit, by_mask = agents
    for off, bit in enumerate(BIT_MASK):
        if (top | bottom) & bit:
            by_bit.observe(bool(top & bit), bool(bottom & bit), sub, off, 0,
                           off)
    by_mask.receive(sub, top, bottom)
    assert ((by_mask._rx_top, by_mask._rx_bottom)
            == (by_bit._rx_top, by_bit._rx_bottom))


# -- calls the engine skips ---------------------------------------------------
#
# The engine leaves out calls that cannot change a node: closing a subcycle
# without work, offset 0 of its own subcycle with nothing to send, and a
# second-layer update that matches the latch.  Each case below draws the
# rest of the node's state at random and checks that the call changes none
# of it.

ADDRESSES = st.sampled_from((PEER, ACTUATOR, controller_address()))
# an ACK carries the count its actuation hook reads, as ``_on_command`` sets
QUEUED = st.lists(st.builds(
    lambda to, op, priority: Outgoing(
        Frame(to, op, SENSOR), 0, priority,
        count=1 if op is Opcode.ACK else 0),
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
            Outgoing(frame, 0, PRIORITY_DATA), frame_mask(frame),
            exited_at=draw(st.none() | st.integers(0, FRAME_BITS - 1)))
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
    assume(ic < agent.next_due())
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
    assume(ic < agent.next_due())
    before = node_state(agent, hooks)
    assert agent.emit(agent.mode, 0, ic, cycle) is None
    assert node_state(agent, hooks) == before


@settings(max_examples=300, deadline=None)
@given(node_states(inflight=False))
def test_next_due_is_exact_without_a_frame_to_send(node):
    # with no frame in flight and none that ``_next_out`` names, send work
    # comes only from a timer: ``next_due`` is the first BACKOFF retry or
    # relay request, and the first bit of every icycle before it changes
    # nothing; the World's wake time rests on this
    agent, hooks, ic = node
    assume(agent._next_out() is None)
    due = agent.next_due()
    timers = [c.retry_ic for c in agent.chains
              if c.state is ChainState.BACKOFF]
    if agent.request_target is not None:
        timers.append(agent.request_next_ic)
    assert due == min(timers, default=math.inf)
    before = node_state(agent, hooks)
    # every due time is drawn within 2 of ``ic``
    for t in range(ic, min(due, ic + 4)):
        assert agent.emit(agent.mode, 0, t, 4 * t) is None
    assert node_state(agent, hooks) == before


def test_next_due_is_0_with_a_frame_to_send():
    agent, _ = make_agent(variant=Variant.BASIC)
    agent.start_chain(ACTUATOR)
    assert agent.next_due() == 0
    run_own_subcycle(agent, jam_at=1)
    assert agent.inflight is None and agent.queue
    assert agent.next_due() == 0
    agent.emit(agent.mode, 0, 1, 48)
    assert agent.inflight is not None and not agent.queue
    assert agent.next_due() == 0


@settings(max_examples=300, deadline=None)
@given(node_states(inflight=False))
def test_pick_takes_what_next_out_names(node):
    # the one rule for the next frame: naming it changes nothing, loading
    # takes that frame, off the queue when it was queued
    agent, hooks, _ = node
    before = node_state(agent, hooks)
    named = agent._next_out()
    assert node_state(agent, hooks) == before
    if agent.blocked_by is not None:
        assert named is None or named.priority != PRIORITY_DATA
    queued = list(agent.queue)
    taken = agent._pick()
    assert taken == named
    assert agent.queue == [o for o in queued if o is not taken]


@settings(max_examples=150, deadline=None)
@given(node_states(), st.integers(0, 3000))
def test_second_layer_matching_the_latch_changes_nothing(node, cycle):
    agent, hooks, ic = node
    before = node_state(agent, hooks)
    agent.on_second_layer(agent.latched, ic, cycle)
    assert node_state(agent, hooks) == before


# frames between the addresses around the node under test, and raw masks
FRAME_MASKS = st.builds(
    lambda to, op, by: frame_mask(Frame(to, op, by)),
    st.sampled_from((SENSOR, PEER, ACTUATOR, broadcast_address())),
    st.sampled_from(list(Opcode)),
    st.sampled_from((SENSOR, PEER, ACTUATOR, 0b0100, controller_address())))
HEARD = st.just(0) | FRAME_MASKS | RX_BITS


@settings(max_examples=300, deadline=None)
@given(node_states(inflight=False, rx=False), HEARD, HEARD, st.data())
def test_masks_heard_before_do_not_change_a_decode(node, top, bottom, data):
    # a node decodes each mask once and keeps the frame and its verdict;
    # one that first heard an unrelated sequence of masks, the ones it is
    # about to hear among them at times, ends a receiving subcycle in the
    # same state as a fresh copy of it
    agent, hooks, ic = node
    sub = data.draw(st.sampled_from(
        [s for s in (Subcycle.T1, Subcycle.T2, Subcycle.T3)
         if s != agent.mode]))
    cycle = data.draw(st.integers(0, 3000))
    fresh, fresh_hooks = copy.deepcopy((agent, hooks))
    earlier = copy.deepcopy(agent)
    for heard in data.draw(st.lists(st.tuples(
            HEARD | st.sampled_from((top, bottom)),
            HEARD | st.sampled_from((top, bottom))), max_size=4)):
        earlier.receive(sub, *heard)
        earlier.end_subcycle(sub, ic, cycle)
    agent._heard = dict(earlier._heard)
    for each in (agent, fresh):
        each.receive(sub, top, bottom)
        each.end_subcycle(sub, ic, cycle)
    assert node_state(agent, hooks) == node_state(fresh, fresh_hooks)
