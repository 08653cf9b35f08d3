"""Frame codec, receive vetting, backoff and bit-serial arbitration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from optomac import protocol
from optomac.protocol import (
    Backoff,
    Frame,
    NodeMemory,
    Opcode,
    Verdict,
    broadcast_address,
    controller_address,
    decode_verify,
    frame_bits,
    is_actuator_address,
    parse_mask,
    posn_frame,
    posn_payload,
)
from optomac.timebase import FRAME_BITS, Rng
from oracles import arbitration_winner, contention_round, parse_bits


def bits(text: str) -> tuple:
    return tuple(int(c) for c in text)


def mask(frame: Frame) -> int:
    """A frame's bits as one integer, MSB first, as receivers hold them."""
    return int("".join(map(str, frame_bits(frame))), 2)


def test_address_constants():
    assert broadcast_address() == 0b1111
    assert controller_address() == 0b1110
    assert is_actuator_address(0b1000)
    assert not is_actuator_address(0b0111)


def test_frame_bits_pinned_vectors():
    # NOTIFY from sensor 0001 to actuator 1000, and the broadcast BLOCK the
    # actuator answers with: the two live frames of the handshake opening
    notify = Frame(0b1000, Opcode.NOTIFY, 0b0001)
    assert frame_bits(notify) == bits("10001010001")
    assert notify.describe() == "1000 101 0001"
    block = Frame(broadcast_address(), Opcode.BLOCK, 0b1000)
    assert frame_bits(block) == bits("11111111000")
    assert block.describe() == "1111 111 1000"


# Each malformed input below equals, or nearly equals, one the codec has
# already answered: a cached answer must never stand in for the check
# (True == 1, 1.0 == 1), so every check runs twice.


def test_frame_bits_field_validation():
    notify = Frame(0b1000, Opcode.NOTIFY, 0b0001)
    assert frame_bits(notify) == bits("10001010001")
    assert notify.describe() == "1000 101 0001"
    twin = Frame(8.0, Opcode.NOTIFY, 1)
    assert twin == notify
    for _ in range(2):
        # describe() formats what does not fit, but does not keep it
        wide = Frame(16, Opcode.ACK, 0)
        assert wide.describe() == "10000 110 0000"
        assert wide not in protocol._TEXT_OF_FRAME
        with pytest.raises(ValueError):
            frame_bits(wide)
        with pytest.raises(ValueError):
            frame_bits(Frame(0, Opcode.ACK, -1))
        with pytest.raises(ValueError):
            frame_bits(twin)
        with pytest.raises(ValueError):
            twin.describe()


def reference_fields(text: str) -> tuple[int, int, int]:
    """Recipient, opcode and transmitter of a frame written as 11 bits."""
    return int(text[:4], 2), int(text[4:7], 2), int(text[7:], 2)


def test_codec_roundtrip():
    # every bit pattern, twice: the second pass is answered from the
    # codec's tables
    for _ in range(2):
        for value in range(1 << FRAME_BITS):
            text = f"{value:011b}"
            recipient, opcode, transmitter = reference_fields(text)
            want = Frame(recipient, Opcode(opcode), transmitter)
            frame = parse_bits(bits(text))
            assert frame == want
            assert parse_mask(value) == want
            assert frame_bits(frame) == frame_bits(want) == bits(text)
            assert frame.describe() == f"{text[:4]} {text[4:7]} {text[7:]}"


def test_parse_bits_rejects_malformed():
    good = bits("10001010001")
    assert parse_bits(good) == parse_mask(0b10001010001)
    for _ in range(2):
        for bad in (bits("1010"), good + (0,), good[:2] + (2,) + good[3:],
                    (True,) + good[1:], good[:10] + (1.0,)):
            with pytest.raises(ValueError):
                parse_bits(bad)
        for bad in (True, 1.0, float(0b10001010001), -1, 1 << FRAME_BITS):
            with pytest.raises(ValueError):
                parse_mask(bad)


@given(st.integers(0, 255))
def test_posn_payload_roundtrip(payload):
    assert posn_payload(posn_frame(payload)) == payload


def test_posn_frame_validation():
    with pytest.raises(ValueError):
        posn_frame(256)
    with pytest.raises(ValueError):
        posn_frame(-1)


# -- receive vetting ----------------------------------------------------------


def make_memory() -> NodeMemory:
    return NodeMemory(address=0b1000, is_actuator=True,
                      physical={0b0001, 0b0010})


def test_decode_verify_accepts_known_sender():
    mem = make_memory()
    result = decode_verify(mask(Frame(0b1000, Opcode.NOTIFY, 0b0001)), mem)
    assert result.verdict is Verdict.OK
    assert result.frame == Frame(0b1000, Opcode.NOTIFY, 0b0001)


def test_decode_verify_broadcast_is_ok():
    mem = make_memory()
    result = decode_verify(
        mask(Frame(broadcast_address(), Opcode.BLOCK, 0b0010)), mem)
    assert result.verdict is Verdict.OK


def test_decode_verify_not_for_me():
    mem = make_memory()
    result = decode_verify(mask(Frame(0b0010, Opcode.ACK, 0b0001)), mem)
    assert result.verdict is Verdict.NOT_FOR_ME
    assert result.frame is not None


def test_decode_verify_collision_suspect_before_addressing():
    # an implausible transmitter outranks the recipient check: the OR of two
    # colliding frames usually claims a sender nobody can hear
    mem = make_memory()
    merged = mask(Frame(0b0110, Opcode.ACK, 0b0111))
    result = decode_verify(merged, mem)
    assert result.verdict is Verdict.COLLISION_SUSPECT


def test_decode_verify_controller_is_always_plausible():
    mem = make_memory()
    frame = Frame(0b1000, Opcode.POSN, controller_address())
    assert decode_verify(mask(frame), mem).verdict is Verdict.OK


def test_decode_verify_check_physical_off():
    # a node with no learned topology can hear nobody: every transmitter
    # but the controller is implausible
    mem = NodeMemory(address=0b1000, is_actuator=True)
    frame = Frame(0b1000, Opcode.PROBE, 0b0001)
    assert decode_verify(mask(frame), mem).verdict is \
        Verdict.COLLISION_SUSPECT


def test_decode_verify_malformed_first():
    mem = make_memory()
    for malformed in (1 << FRAME_BITS, -1, True, bits("10001010001")):
        assert decode_verify(malformed, mem).verdict is Verdict.MALFORMED
        assert decode_verify(malformed, mem).frame is None


# -- backoff -------------------------------------------------------------------


class DrawRecorder:
    """Stands in for the node RNG; records the requested ranges."""

    def __init__(self, values):
        self.values = list(values)
        self.ranges = []

    def next_int(self, lo, hi):
        self.ranges.append((lo, hi))
        return self.values.pop(0)


def test_backoff_window_doubles_and_caps():
    bo = Backoff()
    rng = DrawRecorder([1, 2, 3, 4, 5])
    for _ in range(5):
        bo.draw(rng)
    assert rng.ranges == [(1, 2), (1, 4), (1, 8), (1, 16), (1, 16)]
    assert bo.cw == 16


def test_backoff_draws_stay_in_window():
    bo = Backoff()
    rng = Rng(11, 0)
    cw = 2
    for _ in range(50):
        delay = bo.draw(rng)
        assert 1 <= delay <= cw
        cw = min(cw * 2, 16)


# -- arbitration ---------------------------------------------------------------


def test_arbitration_winner_is_lexicographic_max():
    frames = [bits("10110"), bits("10011"), bits("01111")]
    assert arbitration_winner(frames) == bits("10110")
    with pytest.raises(ValueError):
        arbitration_winner([])


def test_contention_round_worked_example():
    # a=10110 vs b=10011: they agree until bit 2, where b is mute and hears
    # a's pulse, exits, and stays silent; the OR equals the winner exactly
    frames = {"a": bits("10110"), "b": bits("10011")}
    outcomes, stream = contention_round(frames)
    assert outcomes["a"].completed
    assert not outcomes["b"].completed
    assert outcomes["b"].exit_bit == 2
    assert stream == bits("10110")


def test_identical_frames_all_complete():
    frames = {"a": bits("10101"), "b": bits("10101"), "c": bits("10101")}
    outcomes, stream = contention_round(frames)
    assert all(o.completed for o in outcomes.values())
    assert stream == bits("10101")


def test_contention_round_requires_equal_lengths():
    with pytest.raises(ValueError):
        contention_round({"a": bits("101"), "b": bits("10")})


def test_hidden_senders_do_not_exit():
    # neither sender hears the other: both complete and the OR is a merge
    # that matches no transmitted frame (the hidden-terminal signature)
    frames = {"a": bits("10010"), "b": bits("01010")}
    hears = {"a": set(), "b": set()}
    outcomes, stream = contention_round(frames, hears)
    assert outcomes["a"].completed and outcomes["b"].completed
    assert stream == bits("11010")
    assert stream not in frames.values()


def test_asymmetric_hearing():
    # b hears a but not vice versa: only b can exit
    frames = {"a": bits("0110"), "b": bits("1001")}
    hears = {"a": set(), "b": {"a"}}
    outcomes, stream = contention_round(frames, hears)
    assert outcomes["a"].completed
    assert not outcomes["b"].completed
    assert outcomes["b"].exit_bit == 1   # b mute at bit 1, a pulses
    assert stream == bits("1110")        # b's bit 0 went out before it left


@given(st.lists(st.integers(0, 2**11 - 1), min_size=2, max_size=5,
                unique=True))
def test_clique_contention_matches_winner_oracle(values):
    width = 11
    frames = {f"n{i}": tuple((v >> (width - 1 - k)) & 1 for k in range(width))
              for i, v in enumerate(values)}
    outcomes, stream = contention_round(frames)
    winner = arbitration_winner(frames.values())
    assert stream == winner
    completed = [n for n, o in outcomes.items() if o.completed]
    assert len(completed) == 1
    assert frames[completed[0]] == winner


def test_block_beats_any_data_frame_in_a_clique():
    block = frame_bits(Frame(broadcast_address(), Opcode.BLOCK, 0b0001))
    data = frame_bits(Frame(0b1110, Opcode.COMMAND, 0b1101))
    outcomes, stream = contention_round({"blocker": block, "data": data})
    assert outcomes["blocker"].completed
    assert not outcomes["data"].completed
    assert stream == block
