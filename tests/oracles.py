"""Reference models the tests check the live simulator against.

Each restates one rule of the model in its simplest form, apart from the
code a run executes: arbitration as a maximum and as a bit-serial round over
pairwise carrier sense, and reachability from the power map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from optomac.channel import ChannelConfig, PowerMap
from optomac.protocol import Bits


@dataclass(frozen=True)
class TransmitOutcome:
    completed: bool
    exit_bit: int | None = None


def arbitration_winner(frames: Iterable[Bits]) -> Bits:
    """The lexicographically greatest bit string survives."""
    frames = list(frames)
    if not frames:
        raise ValueError("no contenders")
    return max(frames)


def contention_round(frames: dict[str, Bits], hears: dict[str, set[str]] | None = None,
                     ) -> tuple[dict[str, TransmitOutcome], Bits]:
    """Bit-serial arbitration among synchronized transmitters.

    hears[a] is the set of senders a can carrier-sense (full clique when
    omitted).  Returns per-sender outcomes plus the OR stream an omniscient
    receiver would see.  A sender exits when it emits a 0 while an active,
    audible sender emits a 1; its already-sent prefix is untouched and it
    stays silent for the rest of the subcycle.
    """
    names = sorted(frames)
    length = {len(b) for b in frames.values()}
    if len(length) != 1:
        raise ValueError("contending frames must share one length")
    n_bits = length.pop()
    if hears is None:
        hears = {a: set(names) - {a} for a in names}
    active = set(names)
    outcome: dict[str, TransmitOutcome] = {}
    or_stream: list[int] = []
    for k in range(n_bits):
        ones = {a for a in active if frames[a][k] == 1}
        or_stream.append(1 if ones else 0)
        exiting = [a for a in active
                   if frames[a][k] == 0 and any(o in hears[a] for o in ones)]
        for a in exiting:
            outcome[a] = TransmitOutcome(False, k)
            active.discard(a)
    for a in active:
        outcome[a] = TransmitOutcome(True)
    return outcome, tuple(or_stream)


def reachable(pm: PowerMap, tx: str, rx: str, cfg: ChannelConfig) -> bool:
    """Ground-truth physical reachability: any pattern delivers a detectable
    bit."""
    return any(pm.arrival(tx, p, rx).power >= cfg.theta_detect
               for p in range(len(pm.power[pm.index[tx]])))
