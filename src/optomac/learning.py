"""Self-configuration (learning mode).

A long missing-pulse gap in the external clock switches the network into
learning mode, where the ex-vivo controller walks every in-vivo node through
four phases, one subject at a time in address order:

1. position: a spatially selective scan delivers each node its cell's
   row-major scan index in a POSN frame (the two address fields carry the
   8-bit payload).
2. topology: the subject transmits a PROBE to every other address under each
   of its antenna patterns; a node that receives one cleanly acknowledges,
   and the subject records the address as a physical recipient if any
   pattern drew an acknowledgement.  Only the union over patterns is kept,
   so the stored topology has the most connectors.
3. direction: the subject repeats a trial frame per pattern toward each
   physical recipient, which reports the strongest one back; the subject
   stores that pattern id (ties resolve to the lowest id).
4. working mode: the controller distributes each node's transmit subcycle,
   derived from its cell colour, as a POSN payload.

Acknowledgements and trial feedback ride the controller's reliable ex-vivo
loop, so phases run at frame granularity: the schedule serializes
transmissions, no arbitration can occur, and what each node learns is
exactly what the channel model predicts.

Recognized recipients (who may command whom) are part of the deployment
configuration, not learned; learning only checks that every configured
recipient is physically reachable and flags the ones that are not.  A second
long gap returns the network to normal operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import ChannelConfig, PowerMap, best_pattern, build_power_map, table_for
from .geometry import HexGrid, NodePose, cell_of, working_mode_of
from .protocol import Frame, NodeMemory, format_address, posn_frame
from .timebase import Subcycle


@dataclass
class LearningReport:
    """Frame-level record of one learning pass (for traces and tests)."""

    position_frames: list[tuple[str, Frame]] = field(default_factory=list)
    probe_events: list[tuple[str, int, tuple[str, ...]]] = field(default_factory=list)
    trial_events: list[tuple[str, str, int]] = field(default_factory=list)
    mode_frames: list[tuple[str, Frame]] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)


def _ordered(memories: dict[str, NodeMemory]) -> list[str]:
    return sorted(memories, key=lambda n: memories[n].address)


def run_position_learning(grid: HexGrid, poses: dict[str, NodePose],
                          memories: dict[str, NodeMemory],
                          report: LearningReport) -> None:
    """Cell-by-cell scan: nodes inside a scanned cell record its index."""
    scan = {cell: idx for idx, cell in enumerate(grid.scan_cells())}
    for name in _ordered(memories):
        pose = poses[name]
        cell = cell_of(pose.position, grid)
        if cell in scan:
            pose.cell = cell
            memories[name].position_id = scan[cell]
            report.position_frames.append((name, posn_frame(scan[cell])))
        else:
            memories[name].position_id = -1
            report.flags.append(f"{name}: outside scanned grid, unpositioned")


def run_topology_learning(memories: dict[str, NodeMemory], tables,
                          cfg: ChannelConfig, pm: PowerMap,
                          report: LearningReport) -> None:
    """Probe every pattern; physical = union of acknowledged recipients."""
    names = _ordered(memories)
    for name in names:
        mem = memories[name]
        mem.physical.clear()
        table = table_for(tables, name)
        for p in range(table.n_patterns):
            hearers = tuple(sorted(
                rx for rx in names
                if rx != name
                and pm.arrival(name, p, rx).power >= cfg.theta_detect))
            for rx in hearers:
                mem.physical.add(memories[rx].address)
            report.probe_events.append((name, p, hearers))
        for addr in sorted(mem.recognized):
            if addr not in mem.physical:
                report.flags.append(
                    f"{name}: recognized recipient {format_address(addr)}"
                    " is not physically reachable")


def run_direction_learning(memories: dict[str, NodeMemory], tables,
                           cfg: ChannelConfig, pm: PowerMap,
                           report: LearningReport) -> None:
    """Trial every pattern per physical recipient; store the argmax id."""
    names = _ordered(memories)
    by_addr = {memories[n].address: n for n in names}
    for name in names:
        mem = memories[name]
        mem.optimal_pattern.clear()
        for addr in sorted(mem.physical):
            other = by_addr.get(addr)
            if other is None:
                report.flags.append(
                    f"{name}: physical recipient {format_address(addr)}"
                    " has no node, pattern left 0")
                mem.optimal_pattern[addr] = 0
                continue
            best = best_pattern(pm, tables, name, other)
            if pm.arrival(name, best, other).power < cfg.theta_detect:
                report.flags.append(
                    f"{name}: no trial heard by {other}, pattern left 0")
                mem.optimal_pattern[addr] = 0
                continue
            mem.optimal_pattern[addr] = best
            report.trial_events.append((name, other, best))


def run_mode_learning(poses: dict[str, NodePose],
                      memories: dict[str, NodeMemory],
                      report: LearningReport) -> None:
    """Distribute working modes from cell colours; unpositioned defaults T1."""
    for name in _ordered(memories):
        mem = memories[name]
        if mem.position_id < 0:
            mem.working_mode = Subcycle.T1
            report.flags.append(f"{name}: unpositioned, mode defaults to T1")
            continue
        mode = working_mode_of(poses[name].cell)
        mem.working_mode = mode
        report.mode_frames.append((name, posn_frame(int(mode))))


def run_learning(grid: HexGrid, poses: dict[str, NodePose],
                 memories: dict[str, NodeMemory], tables,
                 cfg: ChannelConfig,
                 power_map: PowerMap | None = None) -> LearningReport:
    """Run all four phases in order, updating ``memories`` in place."""
    pm = power_map if power_map is not None else build_power_map(poses, tables, cfg)
    report = LearningReport()
    run_position_learning(grid, poses, memories, report)
    run_topology_learning(memories, tables, cfg, pm, report)
    run_direction_learning(memories, tables, cfg, pm, report)
    run_mode_learning(poses, memories, report)
    return report


# -- memory snapshots ---------------------------------------------------------

def snapshot_text(memories: dict[str, NodeMemory]) -> str:
    """Serialize learned node memories as a stable, diff-friendly text block."""
    lines = ["# node memory snapshot"]
    for name in _ordered(memories):
        mem = memories[name]
        lines.append(f"node {name}")
        lines.append(f"  address {format_address(mem.address)}")
        lines.append(f"  kind {'actuator' if mem.is_actuator else 'sensor'}")
        lines.append(f"  position {mem.position_id}")
        lines.append(f"  mode {mem.working_mode.name}")
        lines.append("  physical " + " ".join(
            format_address(a) for a in sorted(mem.physical)))
        lines.append("  recognized " + " ".join(
            format_address(a) for a in sorted(mem.recognized)))
        for addr in sorted(mem.optimal_pattern):
            lines.append(f"  pattern {format_address(addr)} "
                         f"{mem.optimal_pattern[addr]}")
    return "\n".join(lines) + "\n"


def parse_snapshot(text: str) -> dict[str, dict]:
    """Parse ``snapshot_text`` output back into plain dictionaries."""
    nodes: dict[str, dict] = {}
    current: dict | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        if key == "node":
            current = {"patterns": {}, "physical": set(), "recognized": set()}
            nodes[parts[1]] = current
        elif current is None:
            raise ValueError(f"field before any node: {line!r}")
        elif key == "address":
            current["address"] = int(parts[1], 2)
        elif key == "kind":
            current["kind"] = parts[1]
        elif key == "position":
            current["position"] = int(parts[1])
        elif key == "mode":
            current["mode"] = parts[1]
        elif key == "physical":
            current["physical"] = {int(p, 2) for p in parts[1:]}
        elif key == "recognized":
            current["recognized"] = {int(p, 2) for p in parts[1:]}
        elif key == "pattern":
            current["patterns"][int(parts[1], 2)] = int(parts[2])
        else:
            raise ValueError(f"unknown snapshot field {key!r}")
    return nodes
