"""Per-layer tracing from outside the program.

While installed, :class:`Recorder` replaces public callables of the
simulator's modules with timing wrappers, each patched where the calling
module looks it up (a module global or a class attribute).  Calls that
happen once or a few times per run (parse, build_parts, build_world,
learning, power map) and every engine icycle record a span; calls made
every clock cycle (emit, observe, end_subcycle, superpose, gain) and trace
events are only aggregated as counts and totals.  Spans of one run share a
run id; they stay in memory until the benchmark writes them out.

Every wrapper pushes a frame on one stack so that a call's self time is
its duration minus the time of the wrapped calls it made directly.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from optomac import antenna, config, engine, learning, nodes, scenarios, trace

# (owner, attribute, metric prefix, span name or None)
_PATCHES = (
    (config, "parse", "config.parse", "parse"),
    (scenarios, "build_parts", "config.build_parts", "build_parts"),
    (scenarios, "build_world", "scenarios.build_world", "build_world"),
    (scenarios, "run_learning", "learning.run", "learning"),
    (learning, "build_power_map", "channel.power_map", "power_map"),
    (engine, "build_power_map", "channel.power_map", "power_map"),
    (antenna.SampledPatternTable, "gain", "antenna.gain", None),
    (engine, "superpose", "channel.superpose", None),
    (nodes.Agent, "observe", "nodes.observe", None),
    (nodes.Agent, "end_subcycle", "nodes.end_subcycle", None),
    (trace.TraceWriter, "event", "trace.event", None),
)

# Scenario hooks the engine and the agents call on a driver.
_DRIVER_HOOKS = ("attach", "finished", "finalize", "on_icycle_start",
                 "on_icycle_end", "on_controller_frame", "on_trigger",
                 "on_stimulus_cleared", "on_actuation", "on_chain_done")

SUBCYCLES_PER_ICYCLE = 4


class Recorder:
    """Counts, host time and spans of the wrapped calls of one process."""

    def __init__(self, extra_drivers: tuple[type, ...] = ()):
        self.extra_drivers = extra_drivers
        self.time: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.stack: list[list[float]] = [[0.0]]
        self.spans: list[list] = []
        self.span_stack: list[list] = []
        self.run_id = -1
        self._next_span = 0
        self._loop: list | None = None
        self.useful_emits = 0
        self.busy_subs: set = set()
        self.icycles: list[tuple[float, int, int]] = []  # (seconds, n, busy)
        self.all_icycles: list[tuple[float, int, int]] = []

    # -- per-run lifecycle ------------------------------------------------

    def begin_run(self, label: str) -> None:
        self.time.clear()
        self.child.clear()
        self.calls.clear()
        self.useful_emits = 0
        self.busy_subs.clear()
        self.icycles = []
        self._loop = None
        self.run_id += 1
        self._open_span("run", label)

    def end_run(self) -> dict[str, float]:
        """Close the run span and return this run's per-layer figures."""
        self._close_span()
        self.all_icycles.extend(self.icycles)
        t = self.time
        loop_s = sum(s for s, _, _ in self.icycles)
        loop_child = self.child["engine.icycle"]
        driver_s = sum(v for k, v in t.items() if k.startswith("driver."))
        icycles = sum(n for _, n, _ in self.icycles)
        return {
            "config.parse_ms": t["config.parse"] * 1e3,
            "config.build_parts_ms": t["config.build_parts"] * 1e3,
            "antenna.gain_calls": self.calls["antenna.gain"],
            "antenna.gain_ms": t["antenna.gain"] * 1e3,
            "channel.power_map_builds": self.calls["channel.power_map"],
            "channel.power_map_ms": t["channel.power_map"] * 1e3,
            "learning.run_ms": t["learning.run"] * 1e3,
            "scenarios.build_world_ms": t["scenarios.build_world"] * 1e3,
            "channel.superpose_calls": self.calls["channel.superpose"],
            "channel.superpose_ms": t["channel.superpose"] * 1e3,
            "nodes.observe_calls": self.calls["nodes.observe"],
            "nodes.observe_ms": t["nodes.observe"] * 1e3,
            "nodes.end_subcycle_ms": t["nodes.end_subcycle"] * 1e3,
            "nodes.emit_calls": self.calls["nodes.emit"],
            "nodes.emit_useful": self.useful_emits,
            "nodes.emit_ms": t["nodes.emit"] * 1e3,
            "engine.self_ms": (loop_s - loop_child) * 1e3,
            "engine.loop_ms": loop_s * 1e3,
            "engine.icycles": icycles,
            "engine.busy_subcycles": sum(b for _, _, b in self.icycles),
            "scenarios.driver_ms": driver_s * 1e3,
            "trace.event_ms": t["trace.event"] * 1e3,
        }

    # -- spans ------------------------------------------------------------

    def _open_span(self, name: str, label: str | None = None) -> list:
        parent = self.span_stack[-1][1] if self.span_stack else None
        span = [self.run_id, self._next_span, parent, name,
                time.perf_counter(), None, label]
        self._next_span += 1
        self.spans.append(span)
        self.span_stack.append(span)
        return span

    def _close_span(self) -> None:
        self.span_stack.pop()[5] = time.perf_counter()

    def span_rows(self) -> list[dict]:
        return [{"run": r, "span": s, "parent": p, "name": n,
                 "start_s": t0, "end_s": t1, "label": label}
                for r, s, p, n, t0, t1, label in self.spans]

    # -- wrappers -----------------------------------------------------------

    def _aggregate(self, name: str, fn):
        stack, times, child, calls = self.stack, self.time, self.child, self.calls
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stack[-1][0] += dt
                times[name] += dt
                child[name] += frame[0]
                calls[name] += 1
        return wrapper

    def _spanned(self, name: str, span_name: str, fn):
        inner = self._aggregate(name, fn)

        def wrapper(*args, **kwargs):
            self._open_span(span_name)
            try:
                return inner(*args, **kwargs)
            finally:
                self._close_span()
        return wrapper

    def _emit(self, fn):
        inner = self._aggregate("nodes.emit", fn)
        busy = self.busy_subs

        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            if out is not None and out[0] == 1:
                self.useful_emits += 1
                busy.add(args[1] if len(args) > 1 else None)
            return out
        return wrapper

    def _icycle(self, fn):
        """World.run: one span per call, under one loop span per run."""
        inner = self._aggregate("engine.icycle", fn)

        def wrapper(world, n_icycles, *args, **kwargs):
            if self._loop is None:
                parent = self.span_stack[-1][1] if self.span_stack else None
                self._loop = [self.run_id, self._next_span, parent, "loop",
                              time.perf_counter(), None, None]
                self._next_span += 1
                self.spans.append(self._loop)
            span = [self.run_id, self._next_span, self._loop[1], "icycle",
                    time.perf_counter(), None, None]
            self._next_span += 1
            self.spans.append(span)
            self.busy_subs.clear()
            try:
                return inner(world, n_icycles, *args, **kwargs)
            finally:
                span[5] = self._loop[5] = time.perf_counter()
                self.icycles.append((span[5] - span[4], n_icycles,
                                     len(self.busy_subs)))
        return wrapper

    # -- installation -------------------------------------------------------

    def _driver_classes(self) -> set[type]:
        roots = set(scenarios.DRIVERS.values()) | set(self.extra_drivers)
        return {cls for root in roots for cls in root.__mro__
                if cls is not object}

    @contextmanager
    def installed(self):
        """Patch the wrappers in; restore every original on exit."""
        undo = []

        def patch(owner, attr, replacement):
            had_own = attr in vars(owner)
            undo.append((owner, attr, vars(owner).get(attr), had_own))
            setattr(owner, attr, replacement)

        for owner, attr, name, span in _PATCHES:
            original = getattr(owner, attr)
            patch(owner, attr, self._spanned(name, span, original) if span
                  else self._aggregate(name, original))
        patch(nodes.Agent, "emit", self._emit(nodes.Agent.emit))
        patch(engine.World, "run", self._icycle(engine.World.run))
        for cls in self._driver_classes():
            for hook in _DRIVER_HOOKS:
                if hook in vars(cls):
                    patch(cls, hook, self._aggregate(f"driver.{hook}",
                                                     vars(cls)[hook]))
        try:
            yield self
        finally:
            for owner, attr, original, had_own in reversed(undo):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def summarize(traced: list[dict], prefix: list[dict],
              icycles: list[tuple[float, int, int]]) -> dict[str, float]:
    """Per-run figures of the traced runs.

    Host times are means over every traced run; call counts and ratios come
    from the fixed prefix of runs, so they repeat exactly.  Icycle latencies
    are medians over every traced icycle, split by whether any node emitted
    a 1-bit in it.
    """
    def mean(rows, key):
        return sum(r[key] for r in rows) / len(rows) if rows else 0.0

    out = {}
    for key in ("config.parse_ms", "config.build_parts_ms", "antenna.gain_ms",
                "channel.power_map_ms", "learning.run_ms",
                "scenarios.build_world_ms", "channel.superpose_ms",
                "nodes.observe_ms", "nodes.end_subcycle_ms", "nodes.emit_ms",
                "engine.self_ms", "engine.loop_ms", "scenarios.driver_ms",
                "trace.event_ms"):
        out[key] = mean(traced, key)
    for key in ("antenna.gain_calls", "channel.power_map_builds",
                "channel.superpose_calls", "nodes.observe_calls",
                "nodes.emit_calls"):
        out[key] = mean(prefix, key)
    emits = sum(r["nodes.emit_calls"] for r in prefix)
    out["nodes.emit_useful_ratio"] = (
        sum(r["nodes.emit_useful"] for r in prefix) / emits if emits else 0.0)
    subs = SUBCYCLES_PER_ICYCLE * sum(r["engine.icycles"] for r in prefix)
    out["engine.busy_subcycle_share"] = (
        sum(r["engine.busy_subcycles"] for r in prefix) / subs if subs else 0.0)
    silent = [s / n * 1e6 for s, n, busy in icycles if n and not busy]
    busy = [s / n * 1e6 for s, n, b in icycles if n and b]
    out["engine.icycle_us_silent"] = statistics.median(silent) if silent else 0.0
    out["engine.icycle_us_busy"] = statistics.median(busy) if busy else 0.0
    return out
