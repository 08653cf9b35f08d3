#!/usr/bin/env python3
"""Construct and freeze the nine-node reference fixture.

The fixture realizes the reference memory tables exactly:

* scan ids and working modes for all nine nodes (ragged hex rows chosen so
  the row-major scan indices and the 3-colouring both come out right);
* s1's physical set {s3, a1, a2} with optimal patterns {s3: 1, a1: 3, a2: 2};
* a1's physical set {s1, s2, a2} with optimal patterns {s1: 2, s2: 1, a2: 3};
* the return links s2->a1 and a2->s1 that the configured recognized pairs
  need, and nothing else.

Directionality comes from per-node sampled azimuth gain profiles: each
required link gets a narrow gain bump in its pattern toward the recipient's
azimuth, actuators additionally get a pattern-0 bump toward their commanding
sensors (so broadcast BLOCK frames reach them), and everything else sits on a
low floor.  All margins are then checked numerically against the channel
model before anything is written.

Writes src/optomac/fixtures/nine_node.json and the golden learned-memory
snapshot next to it.  Run from the repository root after an editable
install.
"""

import json
import math
import pathlib
import sys

import numpy as np

from optomac.antenna import SampledPatternTable
from optomac.channel import (ChannelConfig, best_pattern, build_power_map,
                             received_power)
from optomac.geometry import HexGrid, NodePose
from optomac.learning import run_learning, snapshot_text
from optomac.protocol import NodeMemory
from optomac.timebase import Subcycle

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "optomac" / "fixtures"

CELL_RADIUS = 1.0
ROWS = ((0, 0, 3), (1, 0, 3), (2, 1, 3), (3, 1, 2),
        (4, 3, 3), (5, 0, 1), (6, 2, 3), (7, 1, 1))

# name -> (address bits, cell)
NODES = {
    "s1": ("0000", (3, 0)),
    "s2": ("0001", (0, 5)),
    "s3": ("0010", (0, 1)),
    "s4": ("0011", (2, 6)),
    "s5": ("0100", (1, 7)),
    "a1": ("1000", (1, 2)),
    "a2": ("1001", (1, 3)),
    "a3": ("1010", (1, 1)),
    "a4": ("1011", (3, 4)),
}

# expected learning outcome (scan ids and working modes)
EXPECTED_IDS = {"s1": 3, "s2": 14, "s3": 4, "s4": 16, "s5": 18,
                "a1": 8, "a2": 11, "a3": 5, "a4": 13}
EXPECTED_MODES = {"s1": Subcycle.T1, "s2": Subcycle.T2, "s3": Subcycle.T3,
                  "s4": Subcycle.T3, "s5": Subcycle.T1, "a1": Subcycle.T3,
                  "a2": Subcycle.T2, "a3": Subcycle.T1, "a4": Subcycle.T3}

# directed links: (tx, rx, pattern id).  doubled=True marks links whose
# transmitter also needs a pattern-0 bump (actuator BLOCK/broadcast reach),
# with the optimal pattern raised above it.
LINKS = [
    ("s1", "s3", 1, False),
    ("s1", "a1", 3, False),
    ("s1", "a2", 2, False),
    ("a1", "s1", 2, True),
    ("a1", "s2", 1, True),
    ("a1", "a2", 3, False),
    ("s2", "a1", 1, False),
    ("a2", "s1", 1, True),
]

EXPECTED_PHYSICAL = {
    "s1": {"s3", "a1", "a2"},
    "a1": {"s1", "s2", "a2"},
    "s2": {"a1"},
    "a2": {"s1"},
    "s3": set(), "s4": set(), "s5": set(), "a3": set(), "a4": set(),
}

RECOGNIZED = {
    "s1": ["a1", "a2"],
    "a1": ["s1", "s2"],
    "s2": ["a1"],
    "a2": ["s1"],
}

FLOOR = 0.02
SIGMA_DEG = 4.0
MARGIN = 1.45          # required links land at MARGIN * theta
SAFETY = 1.3           # acceptance margin each side of the threshold
AZ_STEP = 2.5
N_PATTERNS = 4


def circ_dist(a, b):
    d = np.abs(a - b) % 360.0
    return np.minimum(d, 360.0 - d)


def main() -> int:
    cfg = ChannelConfig()
    grid = HexGrid(CELL_RADIUS, ROWS)
    positions = {n: grid.center(cell) for n, (_, cell) in NODES.items()}

    azimuths = np.arange(0.0, 360.0, AZ_STEP)
    gains = {n: np.full((N_PATTERNS, azimuths.size), FLOOR) for n in NODES}

    def azimuth_to(tx, rx):
        dx = positions[rx][0] - positions[tx][0]
        dy = positions[rx][1] - positions[tx][1]
        return math.degrees(math.atan2(dy, dx)) % 360.0

    def add_bump(node, pattern, az0, height):
        profile = gains[node][pattern]
        profile += height * np.exp(-0.5 * (circ_dist(azimuths, az0) / SIGMA_DEG) ** 2)

    for tx, rx, pattern, doubled in LINKS:
        d = math.dist(positions[tx], positions[rx])
        az0 = azimuth_to(tx, rx)
        h = MARGIN * cfg.theta_detect / received_power(1.0, 1.0, d, cfg.mu)
        if doubled:
            add_bump(tx, 0, az0, h)
            add_bump(tx, pattern, az0, 2.0 * h)
        else:
            add_bump(tx, pattern, az0, h)

    tables = {
        n: SampledPatternTable(azimuths, np.round(gains[n], 6)) for n in NODES
    }

    poses = {n: NodePose(position=(x, y, 0.0)) for n, (x, y) in positions.items()}
    pm = build_power_map(poses, tables, cfg)

    # -- verification ---------------------------------------------------------

    failures = []
    names = sorted(NODES, key=lambda n: NODES[n][0])
    linked = {(tx, rx): p for tx, rx, p, _ in LINKS}
    for tx in names:
        for rx in names:
            if tx == rx:
                continue
            top = max(pm.arrival(tx, p, rx).power for p in range(N_PATTERNS))
            if (tx, rx) in linked:
                if top < SAFETY * cfg.theta_detect:
                    failures.append(f"link {tx}->{rx} weak: {top:.3e}")
                got = best_pattern(pm, tx, rx)
                if got != linked[tx, rx]:
                    failures.append(f"link {tx}->{rx} pattern {got}, "
                                    f"want {linked[tx, rx]}")
            elif top > cfg.theta_detect / SAFETY:
                failures.append(f"stray {tx}->{rx}: {top:.3e}")
    for tx, rx, _, doubled in LINKS:
        if doubled:
            p0 = pm.arrival(tx, 0, rx).power
            if p0 < SAFETY * cfg.theta_detect:
                failures.append(f"pattern-0 reach {tx}->{rx} weak: {p0:.3e}")

    memories = {
        n: NodeMemory(address=int(NODES[n][0], 2),
                      is_actuator=NODES[n][0][0] == "1",
                      recognized={int(NODES[r][0], 2)
                                  for r in RECOGNIZED.get(n, [])})
        for n in NODES
    }
    report = run_learning(grid, poses, memories, tables, cfg, pm)
    if report.flags:
        failures.extend(f"learning flag: {f}" for f in report.flags)

    addr_of = {n: int(NODES[n][0], 2) for n in NODES}
    for n in names:
        mem = memories[n]
        want_phys = {addr_of[x] for x in EXPECTED_PHYSICAL[n]}
        if mem.physical != want_phys:
            failures.append(f"{n} physical {sorted(mem.physical)} != "
                            f"{sorted(want_phys)}")
        if mem.position_id != EXPECTED_IDS[n]:
            failures.append(f"{n} id {mem.position_id} != {EXPECTED_IDS[n]}")
        if mem.working_mode != EXPECTED_MODES[n]:
            failures.append(f"{n} mode {mem.working_mode} != {EXPECTED_MODES[n]}")
    for tx, rx, pattern, _ in LINKS:
        got = memories[tx].optimal_pattern.get(addr_of[rx])
        if got != pattern:
            failures.append(f"{tx} learned pattern {got} toward {rx}, "
                            f"want {pattern}")

    if failures:
        for f in failures:
            print("FAIL:", f)
        return 1

    # -- freeze ---------------------------------------------------------------

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    doc = {
        "grid": {"cell_radius": CELL_RADIUS, "rows": [list(r) for r in ROWS]},
        "clock": {},
        "channel": {},
        "seed": 0,
        "nodes": [
            {
                "name": n,
                "address": NODES[n][0],
                "kind": "actuator" if NODES[n][0][0] == "1" else "sensor",
                "position": [positions[n][0], positions[n][1], 0.0],
                "normal": [0.0, 0.0, 1.0],
                "recognized": [NODES[r][0] for r in RECOGNIZED.get(n, [])],
                "patterns": {
                    "azimuth_step_deg": AZ_STEP,
                    "gains": np.round(gains[n], 6).tolist(),
                },
            }
            for n in names
        ],
    }
    fixture_path = OUT_DIR / "nine_node.json"
    fixture_path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    golden_path = OUT_DIR / "nine_node_memory.txt"
    golden_path.write_text(snapshot_text(memories))
    print(f"wrote {fixture_path} ({fixture_path.stat().st_size} bytes)")
    print(f"wrote {golden_path}")
    print(snapshot_text(memories))
    return 0


if __name__ == "__main__":
    sys.exit(main())
