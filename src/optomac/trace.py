"""Structured run traces.

Events are written as JSON lines with sorted keys so that two runs with the
same seed produce byte-identical files.  One encoder, built once at import,
writes every line; each equals ``json.dumps(record, sort_keys=True)``.  Three
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
from json.encoder import c_make_encoder, encode_basestring_ascii

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

# The C encoder that ``json.dumps(record, sort_keys=True)`` builds on every
# call, built once: no circular-reference check (records hold no cycles),
# ASCII output, ": " and ", " separators, sorted keys, NaN and infinities
# allowed, and ``TypeError`` for any value JSON has no form for.
_encode = c_make_encoder(None, json.JSONEncoder().default,
                         encode_basestring_ascii, None, ": ", ", ",
                         True, False, True)


def _check_kind(kind: str) -> None:
    if kind not in _KIND_LEVEL:
        raise ValueError(f"unknown trace event kind {kind!r}")


class TraceWriter:
    """Collects run events and serializes them as JSON lines."""

    def __init__(self, level: str = "events"):
        if level not in LEVELS:
            raise ValueError(f"unknown trace level {level!r}")
        rank = LEVELS.index(level)
        self._wanted = frozenset(kind for kind, at in _KIND_LEVEL.items()
                                 if at <= rank)
        self.sink = io.StringIO()
        self.count = 0

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
        self.count += 1

    def getvalue(self) -> str:
        return self.sink.getvalue()


class NullTrace(TraceWriter):
    """Trace writer that drops everything (for hot loops in tests)."""

    def __init__(self):
        super().__init__("summary")
        self._wanted = frozenset()

