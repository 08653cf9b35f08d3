"""Structured run traces.

Events are written as JSON lines with sorted keys so that two runs with the
same seed produce byte-identical files; each line equals
``json.dumps(record, sort_keys=True)``.  Two kinds of writer make them.  The
kinds a run writes once per frame or per chain step (transmissions, decodes,
chain steps, blocks, timeouts, the controller's frames and detector power)
each have their own method, which writes its fixed keys in sorted order from
one template: names and tags go through ``encode_basestring_ascii`` and a
frame's text is looked up from its mask only when the line is written.
``event`` writes every other kind and shape with one encoder built once at
import, and is the reference the per-kind methods are tested against.  Three
verbosity levels are supported:

* ``summary``: scenario milestones and end-of-run records only.
* ``events``:  adds per-frame protocol events (transmissions, decodes,
  blocks, timeouts).
* ``power``:   adds per-subcycle detector power records.

Every event kind has a level in ``_KIND_LEVEL``; a writer rejects an event
of any other kind with ``ValueError``.
"""

from __future__ import annotations

import io
import json
from json.encoder import c_make_encoder, encode_basestring_ascii as _str

from .protocol import frame_text
from .timebase import FRAME_BITS

LEVELS = ("summary", "events", "power")

# event-kind -> minimum level at which it is emitted
_KIND_LEVEL = {
    "run_start": 0,
    "run_end": 0,
    "dose": 0,
    "actuation": 0,
    "tx_start": 1,
    "tx_done": 1,
    "tx_exit": 1,
    "rx_frame": 1,
    "rx_reject": 1,
    "blocked": 1,
    "unblocked": 1,
    "block_cleared": 1,
    "chain": 1,
    "timeout": 1,
    "trigger": 1,
    "laser_gap": 1,
    "controller": 1,
    "power": 2,
}

# level -> the kinds a writer at that level records
_WANTED = {level: frozenset(kind for kind, at in _KIND_LEVEL.items()
                            if at <= rank)
           for rank, level in enumerate(LEVELS)}

# The C encoder that ``json.dumps(record, sort_keys=True)`` builds on every
# call, built once: no circular-reference check (records hold no cycles),
# ASCII output, ": " and ", " separators, sorted keys, NaN and infinities
# allowed, and ``TypeError`` for any value JSON has no form for.
_encode = c_make_encoder(None, json.JSONEncoder().default,
                         _str, None, ": ", ", ",
                         True, False, True)


def _check_kind(kind: str) -> None:
    if kind not in _KIND_LEVEL:
        raise ValueError(f"unknown trace event kind {kind!r}")


class TraceWriter:
    """Collects run events and serializes them as JSON lines."""

    def __init__(self, level: str = "events"):
        if level not in LEVELS:
            raise ValueError(f"unknown trace level {level!r}")
        self._wanted = _WANTED[level]
        self.sink = io.StringIO()

    @property
    def count(self) -> int:
        """The number of lines written: each ends in the one newline it
        holds, since JSON escapes any newline inside a string."""
        return self.sink.getvalue().count("\n")

    def wants(self, kind: str) -> bool:
        """Whether this writer records ``kind``; an unknown kind raises."""
        if kind in self._wanted:
            return True
        _check_kind(kind)
        return False

    def event(self, cycle: int, kind: str, **payload) -> None:
        if kind not in self._wanted:
            _check_kind(kind)
            return
        # ``cycle`` and ``kind`` cannot also be keywords of ``payload``
        payload["cycle"] = cycle
        payload["kind"] = kind
        self.sink.write("".join(_encode(payload, 0)) + "\n")

    # -- one writer per kind written per frame or per chain step -----------
    #
    # Each writes the line ``event`` writes for its kind and shape, with
    # its keys in sorted order.  Strings go through the encoder's string
    # function; a frame is passed as its mask (``protocol.frame_mask``).

    def tx_start(self, cycle: int, node: str, mask: int, pattern: int) -> None:
        if "tx_start" in self._wanted:
            self.sink.write(
                f'{{"cycle": {cycle}, "frame": "{frame_text(mask)}", '
                f'"kind": "tx_start", "node": {_str(node)}, '
                f'"pattern": {pattern}}}\n')

    def tx_done(self, cycle: int, node: str, mask: int) -> None:
        if "tx_done" in self._wanted:
            self.sink.write(
                f'{{"cycle": {cycle}, "frame": "{frame_text(mask)}", '
                f'"kind": "tx_done", "node": {_str(node)}}}\n')

    def tx_exit(self, cycle: int, node: str, bit: int, mask: int) -> None:
        if "tx_exit" in self._wanted:
            self.sink.write(
                f'{{"bit": {bit}, "cycle": {cycle}, '
                f'"frame": "{frame_text(mask)}", "kind": "tx_exit", '
                f'"node": {_str(node)}}}\n')

    def rx_frame(self, cycle: int, node: str, side: str, mask: int,
                 addressed: bool) -> None:
        if "rx_frame" in self._wanted:
            self.sink.write(
                f'{{"addressed": {"true" if addressed else "false"}, '
                f'"cycle": {cycle}, "frame": "{frame_text(mask)}", '
                f'"kind": "rx_frame", "node": {_str(node)}, '
                f'"side": {_str(side)}}}\n')

    def rx_reject_bits(self, cycle: int, node: str, side: str, reason: str,
                       mask: int) -> None:
        """An ``rx_reject`` of the bits a side saw, whatever they decode to."""
        if "rx_reject" in self._wanted:
            self.sink.write(
                f'{{"bits": "{mask:0{FRAME_BITS}b}", "cycle": {cycle}, '
                f'"kind": "rx_reject", "node": {_str(node)}, '
                f'"reason": {_str(reason)}, "side": {_str(side)}}}\n')

    def rx_reject_frame(self, cycle: int, node: str, side: str, reason: str,
                        mask: int) -> None:
        """An ``rx_reject`` of a frame a side decoded."""
        if "rx_reject" in self._wanted:
            self.sink.write(
                f'{{"cycle": {cycle}, "frame": "{frame_text(mask)}", '
                f'"kind": "rx_reject", "node": {_str(node)}, '
                f'"reason": {_str(reason)}, "side": {_str(side)}}}\n')

    def chain(self, cycle: int, node: str, state: str, target: int,
              tag: str) -> None:
        if "chain" in self._wanted:
            self.sink.write(
                f'{{"cycle": {cycle}, "kind": "chain", "node": {_str(node)}, '
                f'"state": {_str(state)}, "tag": {_str(tag)}, '
                f'"target": {target}}}\n')

    def blocked(self, cycle: int, node: str, by: int) -> None:
        if "blocked" in self._wanted:
            self.sink.write(
                f'{{"by": {by}, "cycle": {cycle}, "kind": "blocked", '
                f'"node": {_str(node)}}}\n')

    def unblocked(self, cycle: int, node: str, by: int, reason: str) -> None:
        if "unblocked" in self._wanted:
            self.sink.write(
                f'{{"by": {by}, "cycle": {cycle}, "kind": "unblocked", '
                f'"node": {_str(node)}, "reason": {_str(reason)}}}\n')

    def block_cleared(self, cycle: int, node: str, target: int) -> None:
        if "block_cleared" in self._wanted:
            self.sink.write(
                f'{{"cycle": {cycle}, "kind": "block_cleared", '
                f'"node": {_str(node)}, "target": {target}}}\n')

    def timeout(self, cycle: int, node: str, waited: str, target: int,
                retry_ic: int) -> None:
        if "timeout" in self._wanted:
            self.sink.write(
                f'{{"cycle": {cycle}, "kind": "timeout", '
                f'"node": {_str(node)}, "retry_ic": {retry_ic}, '
                f'"target": {target}, "waited": {_str(waited)}}}\n')

    def controller_frame(self, cycle: int, mask: int) -> None:
        """A ``controller`` line of a frame the controller decoded."""
        if "controller" in self._wanted:
            self.sink.write(
                f'{{"cycle": {cycle}, "frame": "{frame_text(mask)}", '
                f'"kind": "controller"}}\n')

    def power(self, cycle: int, sources) -> None:
        """A ``power`` line: the names of the cycle's emitters, sorted."""
        if "power" in self._wanted:
            self.sink.write(
                f'{{"cycle": {cycle}, "kind": "power", '
                f'"sources": [{", ".join(map(_str, sources))}]}}\n')

    def getvalue(self) -> str:
        return self.sink.getvalue()


class NullTrace(TraceWriter):
    """Trace writer that drops everything (for hot loops in tests)."""

    def __init__(self):
        super().__init__("summary")
        self._wanted = frozenset()

