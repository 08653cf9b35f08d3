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
exactly what the channel model predicts.  ``run_learning`` therefore writes
each phase's outcome straight into the memory tables, read off the power
map; it builds and logs no learning frame, and writes nothing else.

Recognized recipients (who may command whom) are part of the deployment
configuration, not learned; learning flags the ones not physically
reachable, and the nodes outside the scanned grid.  A second long gap
returns the network to normal operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import ChannelConfig, PowerMap, best_pattern, build_power_map
from .geometry import HexGrid, NodePose, cell_of, working_mode_of
from .protocol import NodeMemory, format_address
from .timebase import Subcycle


@dataclass
class LearningReport:
    """What one learning pass leaves besides the memories: a flag per
    node it could not configure as the deployment asks."""

    flags: list[str] = field(default_factory=list)


def _ordered(memories: dict[str, NodeMemory]) -> list[str]:
    return sorted(memories, key=lambda n: memories[n].address)


def run_learning(grid: HexGrid, poses: dict[str, NodePose],
                 memories: dict[str, NodeMemory], tables,
                 cfg: ChannelConfig,
                 power_map: PowerMap | None = None) -> LearningReport:
    """Run all four phases in order, updating ``memories`` in place; the
    poses are only read."""
    pm = power_map if power_map is not None else build_power_map(poses, tables, cfg)
    report = LearningReport()
    names = _ordered(memories)

    # position: nodes inside a scanned cell record its scan index
    for name in names:
        memories[name].position_id = grid.position_of(poses[name].position)
        if memories[name].position_id < 0:
            report.flags.append(f"{name}: outside scanned grid, unpositioned")

    # topology: physical = union over patterns of the recipients reached
    columns = [(memories[rx].address, pm.index[rx]) for rx in names]
    for name in names:
        mem = memories[name]
        mem.physical.clear()
        # a node's own entry is 0.0, below any threshold
        for row in pm.power[pm.index[name]]:
            for addr, j in columns:
                if row[j] >= cfg.theta_detect:
                    mem.physical.add(addr)
        for addr in sorted(mem.recognized):
            if addr not in mem.physical:
                report.flags.append(
                    f"{name}: recognized recipient {format_address(addr)}"
                    " is not physically reachable")

    # direction: each physical recipient is a node some pattern reaches, so
    # its strongest pattern reaches it
    by_addr = {memories[n].address: n for n in names}
    for name in names:
        mem = memories[name]
        mem.optimal_pattern.clear()
        for addr in sorted(mem.physical):
            mem.optimal_pattern[addr] = best_pattern(pm, name, by_addr[addr])

    # working mode: from the cell colour; an unpositioned node defaults to T1
    for name in names:
        if memories[name].position_id < 0:
            memories[name].working_mode = Subcycle.T1
            report.flags.append(f"{name}: unpositioned, mode defaults to T1")
        else:
            memories[name].working_mode = working_mode_of(
                cell_of(poses[name].position, grid))
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
