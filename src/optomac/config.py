"""Deployment configuration: JSON schema, validation and world assembly.

A config file describes one deployment: the hex scan grid, clock and channel
parameters, every first-layer node (address, pose, antenna gain profiles,
recognized peers) and optionally second-layer clusters, a scenario name and
controller visibility.  ``parse`` validates the whole document and reports
every violation at once rather than stopping at the first, so a bad file can
be fixed in one pass.  ``to_dict``/``parse`` round-trip losslessly.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from .antenna import SampledPatternTable
from .channel import ChannelConfig
from .geometry import HexGrid, NodePose
from .nodes import Variant
from .protocol import (
    NodeMemory,
    broadcast_address,
    controller_address,
    format_address,
    is_actuator_address,
    parse_address,
)
from .timebase import ClockConfig

SCENARIO_NAMES = ("photothermal", "drug_delivery", "hidden_terminal",
                  "clique_contention")
PROTOCOL_NAMES = tuple(v.value for v in Variant)
CLUSTER_KINDS = ("fluorescent", "actuator")

_TOP_KEYS = {"grid", "clock", "channel", "seed", "protocol", "scenario",
             "max_cycles", "controller_hears", "nodes", "clusters",
             "laser_gaps"}


class ConfigError(ValueError):
    """Raised with the full list of schema violations found in a document."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(f"{len(self.violations)} config violation(s):\n{lines}")


@dataclass(frozen=True)
class NodeSpec:
    name: str
    address: int
    kind: str  # "sensor" | "actuator"
    position: tuple[float, float, float]
    normal: tuple[float, float, float] = (0.0, 0.0, 1.0)
    recognized: tuple[int, ...] = ()
    azimuth_step_deg: float | None = None
    gains: tuple[tuple[float, ...], ...] | None = None

    @property
    def is_actuator(self) -> bool:
        return self.kind == "actuator"

    @functools.cached_property
    def table(self) -> SampledPatternTable:
        """This node's gain table, built on first use and kept: the spec is
        frozen and nothing writes to a table, so every run shares it."""
        if self.gains is not None:
            step = self.azimuth_step_deg
            azimuths = [i * step for i in range(int(round(360.0 / step)))]
            return SampledPatternTable(azimuths, list(map(list, self.gains)))
        # isotropic fallback: four patterns of unit gain in every direction
        return SampledPatternTable([0.0], [[1.0]] * 4)


@dataclass(frozen=True)
class ClusterSpec:
    name: str
    position: tuple[float, float, float]
    kind: str = "fluorescent"
    emit_power: float = 0.01
    dose_kill: float = 1.0
    attached: str | None = None


@dataclass(frozen=True)
class WorldConfig:
    grid: HexGrid
    clock: ClockConfig = ClockConfig()
    channel: ChannelConfig = ChannelConfig()
    seed: int = 0
    protocol: str = "handshake"
    scenario: str | None = None
    max_cycles: int | None = None
    controller_hears: tuple[str, ...] | None = None
    nodes: tuple[NodeSpec, ...] = ()
    clusters: tuple[ClusterSpec, ...] = ()
    laser_gaps: tuple[tuple[int, int], ...] = ()


# -- parsing -------------------------------------------------------------


def _num(x: Any) -> bool:
    """A number that converts to a finite float.  JSON also yields NaN,
    Infinity, integers too large for a float and booleans."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _vec3(raw: Any) -> tuple[float, float, float] | None:
    if (isinstance(raw, (list, tuple)) and len(raw) == 3
            and all(_num(v) for v in raw)):
        return (float(raw[0]), float(raw[1]), float(raw[2]))
    return None


def _parse_grid(raw: Any, bad: list[str]) -> HexGrid | None:
    if not isinstance(raw, dict):
        bad.append("grid: required object with cell_radius and rows")
        return None
    radius = raw.get("cell_radius")
    rows = raw.get("rows")
    if not _num(radius) or radius <= 0:
        bad.append("grid.cell_radius: must be a positive number")
        return None
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and len(r) == 3
                       and all(isinstance(v, int) for v in r) for r in rows)):
        bad.append("grid.rows: must be a non-empty list of [r, q_min, q_max]")
        return None
    try:
        return HexGrid(float(radius), tuple(tuple(r) for r in rows))
    except ValueError as exc:
        bad.append(f"grid: {exc}")
        return None


def _parse_section(raw: Any, cls, label: str, bad: list[str]):
    """Build a frozen config dataclass from a JSON object, catching misuse."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        bad.append(f"{label}: must be an object")
        return cls()
    fields = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    unknown = sorted(set(raw) - fields)
    for key in unknown:
        bad.append(f"{label}.{key}: unknown key")
    kwargs = {k: v for k, v in raw.items() if k in fields}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        bad.append(f"{label}: {exc}")
        return cls()


def _parse_node(raw: Any, idx: int, bad: list[str]) -> NodeSpec | None:
    label = f"nodes[{idx}]"
    if not isinstance(raw, dict):
        bad.append(f"{label}: must be an object")
        return None
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        bad.append(f"{label}.name: required non-empty string")
        return None
    label = f"nodes[{idx}] ({name})"

    try:
        address = parse_address(raw.get("address"))
    except ValueError as exc:
        bad.append(f"{label}.address: {exc}")
        return None
    if address in (broadcast_address(), controller_address()):
        bad.append(f"{label}.address: {format_address(address)} is reserved")
        return None

    kind = raw.get("kind")
    if kind not in ("sensor", "actuator"):
        bad.append(f"{label}.kind: must be 'sensor' or 'actuator'")
        return None
    if (kind == "actuator") != is_actuator_address(address):
        bad.append(f"{label}: kind '{kind}' contradicts address class bit "
                   f"{format_address(address)}")

    position = _vec3(raw.get("position"))
    if position is None:
        bad.append(f"{label}.position: must be [x, y, z]")
        return None
    normal = _vec3(raw.get("normal", [0.0, 0.0, 1.0]))
    if normal is None or normal == (0.0, 0.0, 0.0):
        bad.append(f"{label}.normal: must be a non-zero [x, y, z]")
        return None

    recognized: list[int] = []
    raw_recognized = raw.get("recognized", [])
    if not isinstance(raw_recognized, list):
        bad.append(f"{label}.recognized: must be a list of addresses")
    else:
        for entry in raw_recognized:
            try:
                recognized.append(parse_address(entry))
            except ValueError as exc:
                bad.append(f"{label}.recognized: {exc}")

    step, gains = None, None
    raw_pat = raw.get("patterns")
    if raw_pat is not None:
        step, gains = _parse_patterns(raw_pat, label, bad)

    unknown = sorted(set(raw) - {"name", "address", "kind", "position",
                                 "normal", "recognized", "patterns"})
    for key in unknown:
        bad.append(f"{label}.{key}: unknown key")

    return NodeSpec(name=name, address=address, kind=kind, position=position,
                    normal=normal, recognized=tuple(sorted(set(recognized))),
                    azimuth_step_deg=step, gains=gains)


def _parse_patterns(raw: Any, label: str, bad: list[str]):
    if not isinstance(raw, dict):
        bad.append(f"{label}.patterns: must be an object")
        return None, None
    step = raw.get("azimuth_step_deg")
    gains = raw.get("gains")
    if not _num(step) or step <= 0 or (360.0 / step) != int(360.0 / step):
        bad.append(f"{label}.patterns.azimuth_step_deg: must evenly divide 360")
        return None, None
    n_az = int(round(360.0 / step))
    if (not isinstance(gains, list) or not gains
            or not all(isinstance(row, list) and len(row) == n_az
                       and all(_num(v) and v >= 0 for v in row)
                       for row in gains)):
        bad.append(f"{label}.patterns.gains: must be rows of {n_az} "
                   "non-negative numbers (one row per pattern)")
        return None, None
    return float(step), tuple(tuple(float(v) for v in row) for row in gains)


def _parse_cluster(raw: Any, idx: int, node_names: set[str],
                   bad: list[str]) -> ClusterSpec | None:
    label = f"clusters[{idx}]"
    if not isinstance(raw, dict):
        bad.append(f"{label}: must be an object")
        return None
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        bad.append(f"{label}.name: required non-empty string")
        return None
    label = f"clusters[{idx}] ({name})"
    position = _vec3(raw.get("position"))
    if position is None:
        bad.append(f"{label}.position: must be [x, y, z]")
        return None
    kind = raw.get("kind", "fluorescent")
    if kind not in CLUSTER_KINDS:
        bad.append(f"{label}.kind: must be one of {CLUSTER_KINDS}")
        kind = "fluorescent"
    emit_power = raw.get("emit_power", 0.01)
    if not _num(emit_power) or emit_power < 0:
        bad.append(f"{label}.emit_power: must be a non-negative number")
        emit_power = 0.0
    dose_kill = raw.get("dose_kill", 1.0)
    if not _num(dose_kill) or dose_kill <= 0:
        bad.append(f"{label}.dose_kill: must be a positive number")
        dose_kill = 1.0
    attached = raw.get("attached")
    if attached is not None and attached not in node_names:
        bad.append(f"{label}.attached: no node named {attached!r}")
        attached = None
    unknown = sorted(set(raw) - {"name", "position", "kind", "emit_power",
                                 "dose_kill", "attached"})
    for key in unknown:
        bad.append(f"{label}.{key}: unknown key")
    return ClusterSpec(name=name, position=position, kind=kind,
                       emit_power=float(emit_power), dose_kill=float(dose_kill),
                       attached=attached)


def parse(data: Any) -> WorldConfig:
    """Validate a decoded JSON document and return the typed config.

    Raises ConfigError carrying every violation found, so one run of the
    validator surfaces all problems in the document.
    """
    bad: list[str] = []
    if not isinstance(data, dict):
        raise ConfigError(["document root must be an object"])

    for key in sorted(set(data) - _TOP_KEYS):
        bad.append(f"{key}: unknown top-level key")

    grid = _parse_grid(data.get("grid"), bad)
    clock = _parse_section(data.get("clock"), ClockConfig, "clock", bad)
    channel = _parse_section(data.get("channel"), ChannelConfig, "channel", bad)

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        bad.append("seed: must be a non-negative integer")
        seed = 0

    protocol = data.get("protocol", "handshake")
    if protocol not in PROTOCOL_NAMES:
        bad.append(f"protocol: must be one of {PROTOCOL_NAMES}")
        protocol = "handshake"

    scenario = data.get("scenario")
    if scenario is not None and scenario not in SCENARIO_NAMES:
        bad.append(f"scenario: unknown scenario name {scenario!r}; "
                   f"expected one of {SCENARIO_NAMES}")
        scenario = None

    max_cycles = data.get("max_cycles")
    if max_cycles is not None and (not isinstance(max_cycles, int)
                                   or isinstance(max_cycles, bool)
                                   or max_cycles <= 0):
        bad.append("max_cycles: must be a positive integer")
        max_cycles = None

    nodes: list[NodeSpec] = []
    raw_nodes = data.get("nodes", [])
    if not isinstance(raw_nodes, list):
        bad.append("nodes: must be a list")
        raw_nodes = []
    for idx, raw in enumerate(raw_nodes):
        spec = _parse_node(raw, idx, bad)
        if spec is not None:
            nodes.append(spec)

    _check_cross_references(nodes, bad)
    node_names = {n.name for n in nodes}

    hears = data.get("controller_hears")
    if hears is not None:
        if (not isinstance(hears, list)
                or not all(isinstance(h, str) for h in hears)):
            bad.append("controller_hears: must be a list of node names")
            hears = None
        else:
            for h in sorted(set(hears) - node_names):
                bad.append(f"controller_hears: no node named {h!r}")
            hears = tuple(sorted(set(hears) & node_names))

    clusters: list[ClusterSpec] = []
    raw_clusters = data.get("clusters", [])
    if not isinstance(raw_clusters, list):
        bad.append("clusters: must be a list")
        raw_clusters = []
    for idx, raw in enumerate(raw_clusters):
        spec = _parse_cluster(raw, idx, node_names, bad)
        if spec is not None:
            clusters.append(spec)
    seen_clusters: set[str] = set()
    for spec in clusters:
        if spec.name in seen_clusters:
            bad.append(f"clusters: duplicate name {spec.name!r}")
        seen_clusters.add(spec.name)

    gaps: list[tuple[int, int]] = []
    raw_gaps = data.get("laser_gaps", [])
    if (not isinstance(raw_gaps, list)
            or not all(isinstance(g, list) and len(g) == 2
                       and all(isinstance(v, int) and v >= 0 for v in g)
                       for g in raw_gaps)):
        bad.append("laser_gaps: must be a list of [start_cycle, length]")
    else:
        gaps = [tuple(g) for g in raw_gaps]

    if bad:
        raise ConfigError(bad)
    assert grid is not None
    return WorldConfig(grid=grid, clock=clock, channel=channel, seed=seed,
                       protocol=protocol, scenario=scenario,
                       max_cycles=max_cycles,
                       controller_hears=hears, nodes=tuple(nodes),
                       clusters=tuple(clusters), laser_gaps=tuple(gaps))


def _check_cross_references(nodes: list[NodeSpec], bad: list[str]) -> None:
    by_position: dict[tuple[float, float, float], str] = {}
    for spec in nodes:
        other = by_position.setdefault(spec.position, spec.name)
        if other != spec.name:
            bad.append(f"nodes {other!r} and {spec.name!r} share position "
                       f"{list(spec.position)}")
    by_address: dict[int, str] = {}
    for spec in nodes:
        other = by_address.get(spec.address)
        if other is not None:
            bad.append(f"duplicate address {format_address(spec.address)} "
                       f"shared by nodes {other!r} and {spec.name!r}")
        else:
            by_address[spec.address] = spec.name
    names = set()
    for spec in nodes:
        if spec.name in names:
            bad.append(f"nodes: duplicate name {spec.name!r}")
        names.add(spec.name)
    for spec in nodes:
        for addr in spec.recognized:
            text = format_address(addr)
            if addr not in by_address:
                bad.append(f"node {spec.name!r}: recognized recipient {text} "
                           "does not match any node")
            elif is_actuator_address(addr) == spec.is_actuator:
                role = "actuator" if spec.is_actuator else "sensor"
                bad.append(f"node {spec.name!r}: recognized recipient {text} "
                           f"has the wrong class bit ({role} commanding "
                           f"{role})")


# -- serialization ---------------------------------------------------------


def to_dict(cfg: WorldConfig) -> dict:
    """Canonical JSON-ready form; parse(to_dict(cfg)) == cfg."""
    doc: dict[str, Any] = {
        "grid": {"cell_radius": cfg.grid.cell_radius,
                 "rows": [list(r) for r in cfg.grid.rows]},
        "clock": asdict(cfg.clock),
        "channel": asdict(cfg.channel),
        "seed": cfg.seed,
        "protocol": cfg.protocol,
        "nodes": [_node_dict(n) for n in cfg.nodes],
    }
    if cfg.scenario is not None:
        doc["scenario"] = cfg.scenario
    if cfg.max_cycles is not None:
        doc["max_cycles"] = cfg.max_cycles
    if cfg.controller_hears is not None:
        doc["controller_hears"] = list(cfg.controller_hears)
    if cfg.clusters:
        doc["clusters"] = [_cluster_dict(c) for c in cfg.clusters]
    if cfg.laser_gaps:
        doc["laser_gaps"] = [list(g) for g in cfg.laser_gaps]
    return doc


def _node_dict(spec: NodeSpec) -> dict:
    doc: dict[str, Any] = {
        "name": spec.name,
        "address": format_address(spec.address),
        "kind": spec.kind,
        "position": list(spec.position),
        "normal": list(spec.normal),
        "recognized": [format_address(a) for a in spec.recognized],
    }
    if spec.gains is not None:
        doc["patterns"] = {"azimuth_step_deg": spec.azimuth_step_deg,
                           "gains": [list(row) for row in spec.gains]}
    return doc


def _cluster_dict(spec: ClusterSpec) -> dict:
    doc: dict[str, Any] = {"name": spec.name, "position": list(spec.position),
                           "kind": spec.kind, "emit_power": spec.emit_power,
                           "dose_kill": spec.dose_kill}
    if spec.attached is not None:
        doc["attached"] = spec.attached
    return doc


def loads(text: str) -> WorldConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    return parse(data)


def load_path(path: str | Path) -> WorldConfig:
    return loads(Path(path).read_text())


def dumps(cfg: WorldConfig) -> str:
    return json.dumps(to_dict(cfg), indent=1, sort_keys=True)


def save(cfg: WorldConfig, path: str | Path) -> None:
    Path(path).write_text(dumps(cfg) + "\n")


@functools.cache
def load_fixture(name: str) -> WorldConfig:
    """Load a packaged deployment by name, e.g. the nine-node reference.

    Each fixture is parsed once per process; a ``WorldConfig`` is frozen
    down to its tuples, so callers can share it.
    """
    ref = resources.files("optomac").joinpath("fixtures").joinpath(f"{name}.json")
    return loads(ref.read_text())


# -- world assembly ----------------------------------------------------------


@dataclass
class WorldParts:
    """Everything ``build_world`` needs to instantiate agents and a World."""
    poses: dict[str, NodePose]
    tables: dict[str, SampledPatternTable]
    memories: dict[str, NodeMemory]


def build_parts(cfg: WorldConfig) -> WorldParts:
    """Instantiate poses and pre-learning memories, which learning writes,
    and collect each node's shared gain table (``NodeSpec.table``)."""
    poses: dict[str, NodePose] = {}
    tables: dict[str, SampledPatternTable] = {}
    memories: dict[str, NodeMemory] = {}
    for spec in cfg.nodes:
        poses[spec.name] = NodePose(position=spec.position, normal=spec.normal)
        tables[spec.name] = spec.table
        memories[spec.name] = NodeMemory(
            address=spec.address, is_actuator=spec.is_actuator,
            recognized=set(spec.recognized))
    return WorldParts(poses=poses, tables=tables, memories=memories)
