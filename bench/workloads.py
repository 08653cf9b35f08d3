"""The benchmark's three workloads, their generated inputs and their checks.

Every input is generated here from the workload seed with the benchmark's
own ``random.Random`` streams; the simulator receives only the generated
configs, run seeds and traffic schedules.  Constructing a workload object is
its set-up: the import has already happened, and the constructor builds the
configs and schedules the timed runs use.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass

from harness import Record
from optomac import config, scenarios
from optomac.channel import received_power
from optomac.engine import ScenarioHooks
from optomac.learning import snapshot_text
from optomac.metrics import Metrics
from optomac.nodes import Hooks, Variant
from optomac.scenarios import photothermal_config, run_scenario
from optomac.trace import TraceWriter

SCENARIOS = ("hidden_terminal", "clique_contention", "drug_delivery",
             "photothermal")
PROTOCOLS = ("basic", "handshake")
TRACE_LEVEL = "events"  # the CLI's default


@dataclass(frozen=True)
class Item:
    """One run's inputs; ``key`` identifies them for the repeat-digest check."""

    key: tuple
    label: str


# -- artifacts and counts ----------------------------------------------------


def patterns_text(cfg, tables) -> str:
    """The CLI's patterns.txt: every node's gain table in config order."""
    return "".join(
        f"node {spec.name} address {config.format_address(spec.address)}\n"
        + tables[spec.name].to_text()
        for spec in cfg.nodes)


def artifacts_digest(trace_text: str, metrics: Metrics, memories,
                     patterns: str) -> str:
    """sha256 over the four artifacts as the CLI writes them."""
    h = hashlib.sha256()
    for name, body in (("trace.jsonl", trace_text),
                       ("metrics.json", metrics.to_json() + "\n"),
                       ("memory.txt", snapshot_text(memories)),
                       ("patterns.txt", patterns)):
        h.update(name.encode() + b"\0" + body.encode() + b"\0")
    return h.hexdigest()


SIM_COUNTS = ("engine.cycles", "engine.controller_frames", "nodes.issued",
              "nodes.delivered", "nodes.exits", "nodes.retries",
              "nodes.collisions", "nodes.rx_rejects",
              "protocol.frames_started", "protocol.frames_completed",
              "learning.flags", "trace.events")


def sim_counts(world, metrics: Metrics, report, writer: TraceWriter,
               trace_text: str) -> dict[str, int]:
    """Simulated statistics of one run; they repeat exactly for one input."""
    return dict(zip(SIM_COUNTS, (
        world.cycle,
        len(world.controller_frames),
        metrics.issued,
        metrics.delivered,
        metrics.exits,
        metrics.retries,
        metrics.collisions,
        metrics.rx_rejects,
        trace_text.count('"kind": "tx_start"'),
        trace_text.count('"kind": "tx_done"'),
        len(report.flags),
        writer.count,
    )))


class _Workload:
    """Shared pieces: the per-config patterns.txt cache and record building."""

    name = ""
    # batches whose simulated counts the traced run reports
    prefix_batches = 1
    # driver classes beyond the program's own, for the traced run's hooks
    drivers: tuple[type, ...] = ()

    def __init__(self) -> None:
        self._patterns: dict[str, str] = {}

    def _record(self, item: Item, patterns_key: str, cfg, parts, world,
                metrics, report, writer, problems) -> Record:
        # patterns.txt depends only on the deployment, so it is built once
        # per config; rebuilding it per run would dwarf the runs themselves.
        if patterns_key not in self._patterns:
            self._patterns[patterns_key] = patterns_text(cfg, parts.tables)
        text = writer.getvalue()
        digest = artifacts_digest(text, metrics, parts.memories,
                                  self._patterns[patterns_key])
        return Record(item.label, world.cycle, digest,
                      sim_counts(world, metrics, report, writer, text),
                      problems)


# -- seed_sweep --------------------------------------------------------------


SWEEP_SEEDS = 100            # the size of the criterion 5 and 10 sweeps
HIDDEN_BASIC_MAX_RATIO = 0.5
HIDDEN_HANDSHAKE_MAX_ICS = 100
DRUG_LATENCY_BOUND = 4 * 48  # four instruction cycles of 48 clock cycles


class SeedSweep(_Workload):
    """Every scenario under both protocols, one run_scenario call per
    (scenario, protocol, seed), as the criterion 5 and 10 sweeps call it.

    A batch is one seed row of eight runs; rows cycle through a pool of
    ``SWEEP_SEEDS`` run seeds drawn from the workload seed.
    """

    name = "seed_sweep"
    prefix_batches = 8

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(f"seed_sweep:{seed}")
        self.seeds = [rng.randrange(1 << 31) for _ in range(SWEEP_SEEDS)]

    def batch(self, i: int) -> list[Item]:
        s = self.seeds[i % len(self.seeds)]
        return [Item((sc, p, s), f"{sc}/{p}/seed={s}")
                for sc in SCENARIOS for p in PROTOCOLS]

    def execute(self, item: Item):
        scenario, protocol, seed = item.key
        writer = TraceWriter(TRACE_LEVEL)
        result = run_scenario(scenario, protocol=protocol, seed=seed,
                              trace=writer)
        return result, writer

    def inspect(self, item: Item, outcome) -> Record:
        result, writer = outcome
        scenario, protocol, _ = item.key
        return self._record(item, scenario, result.cfg, result.parts,
                            result.world, result.metrics, result.report,
                            writer, sweep_problems(scenario, protocol, result))


def sweep_problems(scenario: str, protocol: str, result) -> list[str]:
    """Criterion 5 on hidden_terminal, criterion 10 on drug_delivery, and
    status ``ok`` everywhere else."""
    m = result.metrics
    problems = []
    if scenario == "hidden_terminal" and protocol == "basic":
        if m.delivery_ratio() > HIDDEN_BASIC_MAX_RATIO:
            problems.append(f"basic delivery ratio {m.delivery_ratio():.3f} "
                            f"> {HIDDEN_BASIC_MAX_RATIO}")
        return problems
    if result.status != "ok":
        problems.append(f"status {result.status!r}")
    if scenario == "hidden_terminal":
        if m.delivery_ratio() != 1.0:
            problems.append(f"handshake delivery ratio "
                            f"{m.delivery_ratio():.3f} != 1.0")
        if result.icycles > HIDDEN_HANDSHAKE_MAX_ICS:
            problems.append(f"{result.icycles} icycles > "
                            f"{HIDDEN_HANDSHAKE_MAX_ICS}")
    if scenario == "drug_delivery":
        latencies = [d["cycles"] for d in m.latencies
                     if d["kind"] == "actuation"]
        if not latencies:
            problems.append("no actuation latency recorded")
        elif max(latencies) > DRUG_LATENCY_BOUND:
            problems.append(f"actuation latency {max(latencies)} > "
                            f"{DRUG_LATENCY_BOUND} cycles")
    return problems


# -- photothermal_hold -------------------------------------------------------


HOLD_CONFIGS = 8
HOLD_DOSE_KILL = (1900.0, 2100.0)  # ~1000 icycles at the 2.0 dose cap
HOLD_MAX_ICS = 1400


class PhotothermalHold(_Workload):
    """The nine-node photothermal deployment with lesions that take about
    a thousand instruction cycles to ablate.

    Each config of the pool draws both lesions' ``dose_kill`` from its own
    stratum of ``HOLD_DOSE_KILL``, so every seed covers the same range.
    A batch is one run; runs cycle through the pool.
    """

    name = "photothermal_hold"
    prefix_batches = 2

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(f"photothermal_hold:{seed}")
        base_cfg = photothermal_config()
        base = config.to_dict(base_cfg)
        lo, hi = HOLD_DOSE_KILL
        width = (hi - lo) / HOLD_CONFIGS
        self.configs = []
        self.seeds = []
        strata = list(range(HOLD_CONFIGS))
        rng.shuffle(strata)
        for k in strata:
            doc = copy.deepcopy(base)
            for cluster in doc["clusters"]:
                cluster["dose_kill"] = round(lo + width * (k + rng.random()), 3)
            doc["max_cycles"] = HOLD_MAX_ICS * base_cfg.clock.icycle_len
            self.configs.append(config.loads(json.dumps(doc)))
            self.seeds.append(rng.randrange(1 << 31))

    def batch(self, i: int) -> list[Item]:
        k = i % HOLD_CONFIGS
        return [Item((k, self.seeds[k]), f"config={k}/seed={self.seeds[k]}")]

    def execute(self, item: Item):
        k, seed = item.key
        writer = TraceWriter(TRACE_LEVEL)
        result = run_scenario(cfg=self.configs[k], seed=seed, trace=writer)
        return result, writer

    def inspect(self, item: Item, outcome) -> Record:
        result, writer = outcome
        return self._record(item, "photothermal", result.cfg, result.parts,
                            result.world, result.metrics, result.report,
                            writer, hold_problems(result))


def hold_problems(result) -> list[str]:
    """Status ok, both lesions dosed to their kill level, every relay
    request served."""
    m = result.metrics
    problems = []
    if result.status != "ok":
        problems.append(f"status {result.status!r}")
    for cluster in result.cfg.clusters:
        dose = sum(d["dose"] for d in m.doses if d["cluster"] == cluster.name)
        if dose < cluster.dose_kill:
            problems.append(f"{cluster.name} got dose {dose:g} < "
                            f"{cluster.dose_kill:g}")
    if m.requests_issued == 0 or m.requests_served != m.requests_issued:
        problems.append(f"requests served {m.requests_served} of "
                        f"{m.requests_issued}")
    return problems


# -- patch14_traffic ---------------------------------------------------------


# A 4 x 4 hex patch less two corners: 14 cells, the 4-bit address limit
# (two of the sixteen addresses are broadcast and controller).
PATCH_ROWS = ((0, 0, 3), (1, 0, 3), (2, -1, 2), (3, -1, 2))
PATCH_DROPPED = ((3, 0), (-1, 3))
# Chosen so every sensor borders an actuator, no actuator serves more than
# two sensors, and two actuators each sit between two hidden sensors of the
# same working subcycle.
PATCH_ACTUATORS = ((0, 0), (1, 0), (2, 0), (0, 2), (1, 2), (2, 2))
CELL_RADIUS = 1.0
AZIMUTH_STEP = 5.0
N_PATTERNS = 4
GAIN_FLOOR = 0.02
BUMP_SIGMA_DEG = 4.0
FLAT_MARGIN = 1.45           # over the detector threshold at its reach
BUMP_MARGIN = (1.3, 2.5)     # a bump's power over threshold at its target
DEPTH_JITTER = 0.15          # node depth in [-j, j]: splits detector sides
# Nodes whose flat pattern also reaches the ring three units away, which
# holds exactly the cells of the same working subcycle: their frames make
# same-subcycle transmitters exit arbitration.
LOUD_NODES = 4
# Deployments per workload seed; runs cycle through all of them, so one
# invocation averages over several draws of the gains.
PATCH_DEPLOYMENTS = 8
PATCH_SCHEDULES = 2
PATCH_HORIZON_ICS = 75
THINK_ICS = (2, 12)          # think time after a delivery, instruction cycles
START_ICS = (0, 3)
THINKS_PER_SENSOR = 64


def _center(cell) -> tuple[float, float]:
    q, r = cell
    return (CELL_RADIUS * math.sqrt(3.0) * (q + r / 2.0),
            CELL_RADIUS * 1.5 * r)


def _attenuation(distance: float, mu: float) -> float:
    return received_power(1.0, 1.0, distance, mu)


def _row(peak_deg: float | None, height: float) -> list[float]:
    """One sampled azimuth profile: flat, or a Gaussian bump at ``peak_deg``."""
    row = []
    for i in range(int(round(360.0 / AZIMUTH_STEP))):
        if peak_deg is None:
            g = height
        else:
            d = abs(i * AZIMUTH_STEP - peak_deg)
            d = min(d, 360.0 - d)
            g = max(GAIN_FLOOR,
                    height * math.exp(-d * d / (2.0 * BUMP_SIGMA_DEG ** 2)))
        row.append(round(g, 6))
    return row


def patch14_doc(seed: int, index: int) -> dict:
    """The ``index``-th 14-node deployment document of one workload seed.

    Layout and roles are fixed; the seed draws node depths, which neighbours
    each node's three bump patterns aim at, and how strong each bump is.
    Pattern 0 is flat and reaches every one-hop neighbour; on a loud node
    it also reaches the same-subcycle ring two cells away.
    """
    rng = random.Random(f"patch14:{seed}:{index}")
    channel = config.ChannelConfig()
    cells = [(q, r) for r, q0, q1 in PATCH_ROWS for q in range(q0, q1 + 1)
             if (q, r) not in PATCH_DROPPED]
    sensors = [c for c in cells if c not in PATCH_ACTUATORS]
    actuators = [c for c in cells if c in PATCH_ACTUATORS]
    address = {c: i for i, c in enumerate(sensors)}
    address.update({c: 8 + i for i, c in enumerate(actuators)})
    name = {c: (f"s{address[c]}" if c in sensors else f"a{address[c] - 8}")
            for c in cells}
    pos = {c: _center(c) + (round(rng.uniform(-DEPTH_JITTER, DEPTH_JITTER), 3),)
           for c in cells}
    hop = math.sqrt(3.0) * CELL_RADIUS
    theta = channel.theta_detect

    def ring(c, reach):
        return [o for o in cells if o != c
                and math.dist(_center(c), _center(o)) < reach]

    neighbours = {c: ring(c, 1.5 * hop) for c in cells}
    loud = set(rng.sample(cells, LOUD_NODES))

    # each sensor commands its nearest actuator (lateral distance, lowest
    # address on ties); an actuator recognizes the sensors that command it
    target = {s: min(actuators, key=lambda a: (
        round(math.dist(_center(s), _center(a)), 9), address[a]))
        for s in sensors}

    nodes = []
    for c in cells:
        heard = ring(c, 1.9 * hop) if c in loud else neighbours[c]
        far = max(math.dist(pos[c], pos[o]) for o in heard)
        rows = [_row(None, FLAT_MARGIN * theta / _attenuation(far, channel.mu))]
        aims = rng.sample(neighbours[c], min(N_PATTERNS - 1, len(neighbours[c])))
        for o in aims:
            dx, dy = pos[o][0] - pos[c][0], pos[o][1] - pos[c][1]
            peak = math.degrees(math.atan2(dy, dx)) % 360.0
            margin = rng.uniform(*BUMP_MARGIN)
            rows.append(_row(peak, margin * theta
                             / _attenuation(math.dist(pos[c], pos[o]),
                                            channel.mu)))
        while len(rows) < N_PATTERNS:
            rows.append(_row(None, GAIN_FLOOR))
        if c in sensors:
            recognized = [target[c]]
        else:
            recognized = [s for s in sensors if target[s] == c]
        nodes.append({
            "name": name[c],
            "address": config.format_address(address[c]),
            "kind": "sensor" if c in sensors else "actuator",
            "position": list(pos[c]),
            "recognized": [config.format_address(address[o])
                           for o in recognized],
            "patterns": {"azimuth_step_deg": AZIMUTH_STEP, "gains": rows},
        })
    return {"grid": {"cell_radius": CELL_RADIUS,
                     "rows": [list(r) for r in PATCH_ROWS]},
            "seed": seed, "nodes": nodes}


def patch14_schedules(seed: int, sensors: list[str]) -> list[dict]:
    """Traffic schedules: per sensor a first start and a list of think
    times, consumed in order (cyclically) after each delivery."""
    rng = random.Random(f"patch14-traffic:{seed}")
    out = []
    for _ in range(PATCH_SCHEDULES):
        out.append({
            "run_seed": rng.randrange(1 << 31),
            "start": {s: rng.randint(*START_ICS) for s in sensors},
            "think": {s: [rng.randint(*THINK_ICS)
                          for _ in range(THINKS_PER_SENSOR)] for s in sensors},
        })
    return out


class TrafficDriver(Hooks, ScenarioHooks):
    """Closed-loop traffic: each sensor keeps at most one command chain in
    flight toward its actuator and waits a scheduled think time after each
    delivery before starting the next."""

    def __init__(self, targets: dict[str, int], schedule: dict):
        self.targets = targets
        self.think = schedule["think"]
        self.next_start: dict[str, int | None] = dict(schedule["start"])
        self.used = {s: 0 for s in targets}
        self.deliveries: list[tuple[int, int, int]] = []  # sensor, target, cycle
        self.actuations: list[tuple[int, int, int]] = []  # actuator, commander, cycle
        self.world = None

    def attach(self, world) -> None:
        self.world = world

    def on_icycle_start(self, world, ic: int) -> None:
        for sensor, when in self.next_start.items():
            if when is not None and when <= ic:
                world.agents[sensor].start_chain(self.targets[sensor],
                                                 tag="traffic",
                                                 cycle=world.cycle)
                self.next_start[sensor] = None

    def on_chain_done(self, agent, chain, cycle: int) -> None:
        self.deliveries.append((agent.address, chain.target, cycle))
        thinks = self.think[agent.name]
        wait = thinks[self.used[agent.name] % len(thinks)]
        self.used[agent.name] += 1
        self.next_start[agent.name] = self.world.current_ic + 1 + wait

    def on_actuation(self, agent, commander: int, meta: dict,
                     cycle: int) -> None:
        self.actuations.append((agent.address, commander, cycle))


class Patch14Traffic(_Workload):
    """Eight sensors commanding six actuators on a 14-node hex patch.

    ``PATCH_DEPLOYMENTS`` deployments per workload seed, parsed during
    set-up; each run builds a fresh world from one of them and runs one
    schedule under one protocol for ``PATCH_HORIZON_ICS`` instruction
    cycles.  A batch is one (deployment, schedule) pair under both
    protocols; batches cycle through every pair.
    """

    name = "patch14_traffic"
    prefix_batches = 4
    drivers = (TrafficDriver,)

    def __init__(self, seed: int):
        super().__init__()
        self.docs = [patch14_doc(seed, k) for k in range(PATCH_DEPLOYMENTS)]
        self.configs = [config.loads(json.dumps(d)) for d in self.docs]
        # the layout is fixed, so every deployment has the same targets
        self.targets = {n.name: n.recognized[0] for n in self.configs[0].nodes
                        if not n.is_actuator}
        self.schedules = patch14_schedules(seed, sorted(self.targets))

    def batch(self, i: int) -> list[Item]:
        k = i % PATCH_DEPLOYMENTS
        j = i // PATCH_DEPLOYMENTS % PATCH_SCHEDULES
        seed = self.schedules[j]["run_seed"]
        return [Item((k, j, p), f"deployment={k}/schedule={j}/{p}/seed={seed}")
                for p in PROTOCOLS]

    def execute(self, item: Item):
        k, j, protocol = item.key
        schedule = self.schedules[j]
        writer = TraceWriter(TRACE_LEVEL)
        metrics = Metrics()
        driver = TrafficDriver(self.targets, schedule)
        # looked up on the module at call time, where the traced run patches it
        world, parts, report = scenarios.build_world(
            self.configs[k], Variant(protocol), schedule["run_seed"], writer,
            metrics, driver)
        driver.attach(world)
        for _ in range(PATCH_HORIZON_ICS):
            world.run(1)
        return world, parts, report, metrics, writer, driver

    def inspect(self, item: Item, outcome) -> Record:
        world, parts, report, metrics, writer, driver = outcome
        k = item.key[0]
        return self._record(item, f"deployment={k}", self.configs[k], parts,
                            world, metrics, report, writer,
                            traffic_problems(report, metrics, driver))


def traffic_problems(report, metrics: Metrics, driver: TrafficDriver
                     ) -> list[str]:
    """No learning flags, delivered <= issued, and every delivered chain
    matched by its own actuation at its target.

    The match is by count, not by order: an actuator that exits arbitration
    on a trailing 0-bit of its ACK has already sent every 1-bit, so the
    commander may decode the ACK intact while the actuator re-sends it and
    actuates one subcycle later.
    """
    problems = [f"learning flag: {f}" for f in report.flags]
    if metrics.delivered > metrics.issued:
        problems.append(f"delivered {metrics.delivered} > issued "
                        f"{metrics.issued}")
    if not driver.deliveries:
        problems.append("no chain delivered")
    actuated = Counter((a, c) for a, c, _ in driver.actuations)
    delivered = Counter((t, s) for s, t, _ in driver.deliveries)
    for (target, sensor), n in sorted(delivered.items()):
        if actuated[target, sensor] < n:
            problems.append(f"{n} deliveries from "
                            f"{config.format_address(sensor)} to "
                            f"{config.format_address(target)} but "
                            f"{actuated[target, sensor]} actuations")
    return problems


WORKLOADS = {w.name: w for w in (SeedSweep, PhotothermalHold, Patch14Traffic)}
