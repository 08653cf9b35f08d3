"""Run metrics: command accounting, MAC pathology counters, latencies, doses.

``Metrics.to_json`` writes what ``json.dumps(body, indent=2,
sort_keys=True)`` writes.  With an indent that call takes the pure-Python
encoder, so a list whose records are all non-empty dicts of scalars is
written by the C encoder in one call instead, its item separator a newline
and the members' indent.  An encoded string escapes every newline, so each
newline in that text is a separator, and the ones between records are
widened to the record indent.  Any other list goes through ``json.dumps``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

_SCALARS = frozenset((str, int, float, bool, type(None)))
# a newline between members, as ``indent=2`` writes them two levels deep
_FLAT = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode


def _records(records) -> str:
    """A list of records as ``json.dumps`` writes it one level deep."""
    if not records:
        return "[]"
    if ({type(r) for r in records} == {dict} and all(records)
            and set(map(type, chain.from_iterable(
                map(dict.values, records)))) <= _SCALARS):
        return ("[\n    {\n      "
                + _FLAT(records)[2:-2].replace(
                    "},\n      {", "\n    },\n    {\n      ")
                + "\n    }\n  ]")
    return json.dumps(records, indent=2, sort_keys=True).replace("\n", "\n  ")


@dataclass
class Metrics:
    # command accounting: issued = COMMAND frames fully transmitted,
    # delivered = ACK-confirmed.  lost is derived so delivered + lost = issued.
    issued: int = 0
    delivered: int = 0
    # controller-bound requests (relay path) accounted separately
    requests_issued: int = 0
    requests_served: int = 0
    retries: int = 0
    exits: int = 0
    collisions: int = 0
    rx_rejects: int = 0
    blocks_sent: int = 0
    acks_sent: int = 0
    doses: list[dict] = field(default_factory=list)
    actuations: list[dict] = field(default_factory=list)
    latencies: list[dict] = field(default_factory=list)  # per event kind, cycles
    timeouts: list[dict] = field(default_factory=list)

    @property
    def lost(self) -> int:
        return self.issued - self.delivered

    def delivery_ratio(self) -> float:
        if self.issued == 0 and self.requests_issued == 0:
            return 1.0
        issued = self.issued + self.requests_issued
        return (self.delivered + self.requests_served) / issued

    def total_dose(self) -> float:
        return sum(d["dose"] for d in self.doses)

    def summary(self) -> dict:
        return {
            "issued": self.issued,
            "delivered": self.delivered,
            "lost": self.lost,
            "requests_issued": self.requests_issued,
            "requests_served": self.requests_served,
            "delivery_ratio": self.delivery_ratio(),
            "retries": self.retries,
            "exits": self.exits,
            "collisions": self.collisions,
            "rx_rejects": self.rx_rejects,
            "blocks_sent": self.blocks_sent,
            "acks_sent": self.acks_sent,
            "total_dose": self.total_dose(),
            "actuations": len(self.actuations),
            "timeouts": len(self.timeouts),
        }

    def to_json(self) -> str:
        """The body as ``json.dumps(body, indent=2, sort_keys=True)``
        writes it; see the module docstring."""
        return ('{\n  "actuations": %s,\n  "doses": %s,\n  "latencies": %s,\n'
                '  "summary": %s,\n  "timeouts": %s\n}' % (
                    _records(self.actuations), _records(self.doses),
                    _records(self.latencies),
                    json.dumps(self.summary(), indent=2, sort_keys=True)
                    .replace("\n", "\n  "),
                    _records(self.timeouts)))
