"""Structured run traces.

Events are written as JSON lines with sorted keys so that two runs with the
same seed produce byte-identical files.  Three verbosity levels are supported:

* ``summary``: scenario milestones and end-of-run records only.
* ``events``:  adds per-frame protocol events (transmissions, decodes,
  blocks, timeouts).
* ``power``:   adds per-subcycle detector power records.
"""

from __future__ import annotations

import io
import json

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


class TraceWriter:
    """Collects run events and serializes them as JSON lines."""

    def __init__(self, level: str = "events"):
        if level not in LEVELS:
            raise ValueError(f"unknown trace level {level!r}")
        self.level = LEVELS.index(level)
        self.sink = io.StringIO()
        self.count = 0

    def wants(self, kind: str) -> bool:
        return _KIND_LEVEL.get(kind, 1) <= self.level

    def event(self, cycle: int, kind: str, **payload) -> None:
        if not self.wants(kind):
            return
        record = {"cycle": cycle, "kind": kind}
        record.update(payload)
        self.sink.write(json.dumps(record, sort_keys=True) + "\n")
        self.count += 1

    def getvalue(self) -> str:
        return self.sink.getvalue()


class NullTrace(TraceWriter):
    """Trace writer that drops everything (for hot loops in tests)."""

    def __init__(self):
        super().__init__("summary")

    def wants(self, kind: str) -> bool:  # noqa: ARG002 - interface parity
        return False

    def event(self, cycle: int, kind: str, **payload) -> None:
        return
