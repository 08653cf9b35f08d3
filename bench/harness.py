"""Closed-loop measurement, run accounting and summary statistics.

Nothing here imports the simulator.  A workload object supplies the runs:

* ``batch(i)`` returns the items of the i-th batch of the closed loop;
* ``execute(item)`` performs one run and returns its raw result (this call,
  and only this call, is timed);
* ``inspect(item, result)`` checks the result and digests its artifacts,
  outside the timed region, and returns a :class:`Record`.

One caller drives the loop, so the next run starts only when the previous
one has finished.

The host this runs on changes speed by tens of percent over seconds as
other tenants come and go, and a process cannot see it in its CPU time.
So a fixed pure-Python calibration task is timed between runs, at least
every ``CAL_EVERY_S`` of measured work, and each run's host time is scaled
to a reference host on which that task takes ``CAL_REF_S``: the run's time
times ``CAL_REF_S`` over the mean of the calibrations just before and just
after it.  Raw host times are kept beside the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

# Percentiles the tail is chosen from: the highest one with at least
# TAIL_BEYOND samples above it is reported.  The ladder stops at p95 because
# on a shared host p99 of a few thousand short runs mostly measures the
# host's own stalls.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
TAIL_BEYOND = 10

CAL_REF_S = 1e-3
CAL_EVERY_S = 0.05
CAL_STEPS = 2000
CAL_TRIES = 3


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _calibration_step(table: dict, out: list, i: int) -> None:
    key = (i & 63, (i >> 6) & 7)
    cell = table.get(key)
    if cell is None:
        cell = table[key] = _Cell(key, 0)
    cell.value = (cell.value * 31 + i) & 0xFFFF
    out.append(cell.value & 1)


def calibration_s() -> float:
    """Host seconds of the calibration task: the median of CAL_TRIES tries.

    The task mixes what the simulator's loop does most (calls, small
    objects, attribute and dict access, list appends) and never changes.
    """
    tries = []
    for _ in range(CAL_TRIES):
        table: dict = {}
        out: list = []
        t0 = time.perf_counter()
        for i in range(CAL_STEPS):
            _calibration_step(table, out, i)
        tries.append(time.perf_counter() - t0)
    return statistics.median(tries)


@dataclass
class Record:
    """What one finished run produced, as seen from outside the program."""

    label: str
    cycles: int
    digest: str
    counts: dict[str, int]
    problems: list[str] = field(default_factory=list)


class Tally:
    """Attempted and failed runs, with the repeat-digest check.

    A run fails when it raises, when its record lists a problem, or when an
    earlier run of the same inputs in this process produced another digest.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[Any, str] = {}
        self.problems: list[str] = []

    def add(self, key: Any, record: Record | None,
            error: str | None = None) -> bool:
        """Count one run; return True when ``key`` is seen for the first time."""
        self.attempted += 1
        first = key not in self.digests
        problems = [error] if error is not None else list(record.problems)
        if record is not None and not first and self.digests[key] != record.digest:
            problems.append(f"digest {record.digest[:12]} differs from "
                            f"{self.digests[key][:12]} for the same inputs")
        if record is not None and first:
            self.digests[key] = record.digest
        if problems:
            self.failed += 1
            label = record.label if record is not None else repr(key)
            self.problems.extend(f"{label}: {p}" for p in problems)
        return first

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Samples:
    """Scaled and raw host times of the timed runs, in run order."""

    run_s: list[float] = field(default_factory=list)
    raw_run_s: list[float] = field(default_factory=list)
    batch_of: list[int] = field(default_factory=list)
    records: list[Record] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    batches: int = 0

    def batch_rates(self) -> tuple[list[float], list[float]]:
        """Per batch: runs per scaled second and cycles per scaled second."""
        spent: dict[int, float] = {}
        runs: dict[int, int] = {}
        cycles: dict[int, int] = {}
        for b, s, r in zip(self.batch_of, self.run_s, self.records):
            spent[b] = spent.get(b, 0.0) + s
            runs[b] = runs.get(b, 0) + 1
            cycles[b] = cycles.get(b, 0) + r.cycles
        order = [b for b in sorted(spent) if spent[b] > 0]
        return ([runs[b] / spent[b] for b in order],
                [cycles[b] / spent[b] for b in order])


def attempt(workload, item, tally: Tally, run: Callable[[Any], Any] | None = None
            ) -> tuple[float | None, Record | None, bool]:
    """Run one item, inspect it and count it.

    Returns the host seconds of the run (None when it raised), its record
    and whether its inputs were seen for the first time.
    """
    run = run if run is not None else workload.execute
    t0 = time.perf_counter()
    try:
        result = run(item)
    except Exception:  # a failed run is counted, the loop goes on
        tally.add(item.key, None, "raised " + traceback.format_exc(limit=3))
        return None, None, False
    elapsed = time.perf_counter() - t0
    try:
        record = workload.inspect(item, result)
    except Exception:
        tally.add(item.key, None, "inspection raised "
                  + traceback.format_exc(limit=3))
        return None, None, False
    first = tally.add(item.key, record)
    return elapsed, record, first


def closed_loop(workload, seconds: float, min_batches: int,
                step: Callable[[Any], list[tuple[float | None, Record | None]]],
                calibrate: Callable[[], float] = calibration_s) -> Samples:
    """Run whole batches until ``seconds`` of wall time have passed.

    ``step(item)`` performs the timed work for one item and returns the
    (host seconds, record) pairs whose time counts toward the end-to-end
    samples.  At least ``min_batches`` batches run whatever the clock says.
    """
    samples = Samples()
    last = calibrate()
    samples.calibrations.append(last)
    pending: list[tuple[int, float, Record]] = []

    def flush():
        nonlocal last, pending
        now = calibrate()
        samples.calibrations.append(now)
        scale = CAL_REF_S / ((last + now) / 2.0)
        for b, elapsed, record in pending:
            samples.batch_of.append(b)
            samples.raw_run_s.append(elapsed)
            samples.run_s.append(elapsed * scale)
            samples.records.append(record)
        last, pending = now, []

    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_batches or time.perf_counter() < deadline:
        for item in workload.batch(i):
            pending.extend((i, elapsed, record)
                           for elapsed, record in step(item)
                           if elapsed is not None)
            if sum(e for _, e, _ in pending) >= CAL_EVERY_S:
                flush()
        i += 1
    if pending:
        flush()
    samples.batches = i
    return samples


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile of ``values`` (p in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    k = (len(ordered) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail(values: list[float]) -> tuple[str, float]:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples no ladder step qualifies and the
    maximum is returned under the label ``max``.
    """
    n = len(values)
    chosen = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            chosen = p
    if chosen is None:
        return "max", max(values)
    return f"p{chosen:g}", percentile(values, chosen)


def median(values: list[float]) -> float:
    return statistics.median(values)
