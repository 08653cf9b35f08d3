"""Scripted therapy scenarios with reproducible, metric-bearing runs.

Each scenario couples a deployment (a WorldConfig, either a packaged fixture
or one of the synthetic builders here) with a driver that scripts the
second-layer biology: when fluorescent clusters light up, how the ex-vivo
controller irradiates in response to relayed requests, and what a delivered
command does to the tissue.  Drivers observe the network purely through the
public hook interfaces; the protocol machines never see scenario state.

Scenarios
---------
``photothermal``
    Fluorescent clusters mark tissue to ablate.  Latched sensors stream
    relay requests to the controller (directly, or via a neighbour when the
    controller cannot see them), and the controller answers by irradiating
    the reported cell with a per-cycle dose that doubles up to a cap until
    the cluster stops fluorescing.

``drug_delivery``
    A lit cluster triggers the nearby sensor to command its recognized
    actuator twice: the first delivered command electroporates the target
    region, the second releases the payload.  The actuator distinguishes
    the stages by counting commands from that sensor.

``hidden_terminal``
    Two sensors that cannot hear each other trigger simultaneously toward
    one shared actuator.  Used to compare delivery ratios of the basic and
    handshake variants under hidden-node collisions.

``clique_contention``
    Three mutually audible sensors contend in the same subcycle for one
    actuator, exercising bit-serial arbitration end to end.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelConfig, received_power
from .config import (
    ClusterSpec,
    NodeSpec,
    WorldConfig,
    WorldParts,
    build_parts,
    format_address,
    load_fixture,
)
from .engine import LaserGap, ScenarioHooks, World
from .geometry import HexGrid, cell_of
from .learning import LearningReport, run_learning, snapshot_text
from .metrics import Metrics
from .nodes import Agent, CommandChain, Hooks, Variant
from .protocol import Opcode, controller_address
from .timebase import Rng
from .trace import NullTrace, TraceWriter

# Gaussian azimuth profile shared by the synthetic fixtures: narrow enough
# that a bump aimed at one neighbour leaves third parties below threshold,
# with a 45 % link margin over the detector threshold.
PATTERN_FLOOR = 0.02
PATTERN_SIGMA_DEG = 4.0
LINK_MARGIN = 1.45
AZIMUTH_STEP_DEG = 5.0
N_PATTERNS = 4

SCENARIO_HORIZON_ICS = {
    "photothermal": 400,
    "drug_delivery": 200,
    "hidden_terminal": 100,
    "clique_contention": 100,
}


# -- synthetic fixture builders ---------------------------------------------


def _bump_row(peak_deg: float, height: float) -> tuple[float, ...]:
    az = np.arange(0.0, 360.0, AZIMUTH_STEP_DEG)
    dist = np.abs(az - peak_deg)
    dist = np.minimum(dist, 360.0 - dist)
    row = np.maximum(PATTERN_FLOOR,
                     height * np.exp(-dist ** 2 / (2.0 * PATTERN_SIGMA_DEG ** 2)))
    return tuple(float(v) for v in np.round(row, 6))


def _flat_row(height: float) -> tuple[float, ...]:
    n = int(round(360.0 / AZIMUTH_STEP_DEG))
    return (round(height, 6),) * n


def _link_height(distance: float) -> float:
    """Peak gain that clears the detector threshold with the link margin,
    under the default channel every synthetic fixture uses."""
    channel = ChannelConfig()
    return (LINK_MARGIN * channel.theta_detect
            / received_power(1.0, 1.0, distance, channel.mu))


def _azimuth_between(a, b) -> float:
    return math.degrees(math.atan2(b[1] - a[1], b[0] - a[0])) % 360.0


def hidden_terminal_config() -> WorldConfig:
    """Two sensors and one actuator on a line; the sensors cannot hear
    each other but both reach (and are reached by) the actuator."""
    grid = HexGrid(1.0, ((0, 0, 3),))
    s1_pos = grid.center((0, 0)) + (0.0,)
    a_pos = grid.center((2, 0)) + (0.0,)
    s2_pos = grid.center((3, 0)) + (0.0,)

    d_s1_a = math.dist(s1_pos[:2], a_pos[:2])
    d_s2_a = math.dist(s2_pos[:2], a_pos[:2])
    floor = _flat_row(PATTERN_FLOOR)
    s1_gains = (floor,
                _bump_row(_azimuth_between(s1_pos, a_pos), _link_height(d_s1_a)),
                floor, floor)
    s2_gains = (floor,
                _bump_row(_azimuth_between(s2_pos, a_pos), _link_height(d_s2_a)),
                floor, floor)
    # The actuator answers blindly (BLOCK is a broadcast), so its default
    # pattern must carry to the farther sensor.
    a_gains = (_flat_row(_link_height(max(d_s1_a, d_s2_a))),
               floor, floor, floor)

    nodes = (
        NodeSpec("s1", 0b0001, "sensor", s1_pos, recognized=(0b1000,),
                 azimuth_step_deg=AZIMUTH_STEP_DEG, gains=s1_gains),
        NodeSpec("s2", 0b0010, "sensor", s2_pos, recognized=(0b1000,),
                 azimuth_step_deg=AZIMUTH_STEP_DEG, gains=s2_gains),
        NodeSpec("a1", 0b1000, "actuator", a_pos, recognized=(0b0001, 0b0010),
                 azimuth_step_deg=AZIMUTH_STEP_DEG, gains=a_gains),
    )
    return WorldConfig(grid=grid, nodes=nodes, scenario="hidden_terminal")


def clique_contention_config() -> WorldConfig:
    """Three sensors sharing one working subcycle, all mutually audible,
    plus an equidistant actuator: a full-visibility contention clique."""
    grid = HexGrid(1.0, ((-1, 2, 2), (0, 0, 1), (1, 1, 1)))
    sensor_cells = ((0, 0), (1, 1), (2, -1))
    actuator_cell = (1, 0)
    a_pos = grid.center(actuator_cell) + (0.0,)
    reach = max(math.dist(grid.center(c), grid.center(sc))
                for c in sensor_cells + (actuator_cell,)
                for sc in sensor_cells + (actuator_cell,) if c != sc)
    floor = _flat_row(PATTERN_FLOOR)
    gains = (_flat_row(_link_height(reach)), floor, floor, floor)

    sensor_addrs = (1, 2, 3)
    nodes = tuple(
        NodeSpec(f"s{i + 1}", addr, "sensor", grid.center(cell) + (0.0,),
                 recognized=(0b1000,), azimuth_step_deg=AZIMUTH_STEP_DEG,
                 gains=gains)
        for i, (addr, cell) in enumerate(zip(sensor_addrs, sensor_cells)))
    nodes += (NodeSpec("a1", 0b1000, "actuator", a_pos,
                       recognized=sensor_addrs,
                       azimuth_step_deg=AZIMUTH_STEP_DEG, gains=gains),)
    return WorldConfig(grid=grid, nodes=nodes, scenario="clique_contention")


def drug_delivery_config() -> WorldConfig:
    """One sensor, one actuator, no contention: a clean command pipeline
    with a fluorescent lesion beside the sensor and a payload depot
    attached to the actuator."""
    grid = HexGrid(1.0, ((0, 0, 3),))
    s_pos = grid.center((0, 0)) + (0.0,)
    a_pos = grid.center((2, 0)) + (0.0,)
    d = math.dist(s_pos[:2], a_pos[:2])
    floor = _flat_row(PATTERN_FLOOR)
    gains = (_flat_row(_link_height(d)), floor, floor, floor)
    nodes = (
        NodeSpec("s1", 0b0001, "sensor", s_pos, recognized=(0b1000,),
                 azimuth_step_deg=AZIMUTH_STEP_DEG, gains=gains),
        NodeSpec("a1", 0b1000, "actuator", a_pos, recognized=(0b0001,),
                 azimuth_step_deg=AZIMUTH_STEP_DEG, gains=gains),
    )
    clusters = (
        ClusterSpec("lesion", (s_pos[0] + 0.3, s_pos[1], 0.0),
                    kind="fluorescent", emit_power=0.01),
        ClusterSpec("depot", (a_pos[0] + 0.3, a_pos[1], 0.0),
                    kind="actuator", attached="a1"),
    )
    return WorldConfig(grid=grid, nodes=nodes, clusters=clusters,
                       scenario="drug_delivery")


def photothermal_config() -> WorldConfig:
    """Nine-node reference deployment with two fluorescent clusters.

    The cluster beside s1 is served directly; the one beside s2 exercises
    the relay path, because the controller is configured blind to s2 and
    the request travels s2 -> a1 -> controller.
    """
    base = load_fixture("nine_node")
    poses = {n.name: n.position for n in base.nodes}
    clusters = (
        ClusterSpec("tumor_a",
                    (poses["s1"][0] + 0.3, poses["s1"][1], 0.0),
                    kind="fluorescent", emit_power=0.01, dose_kill=1.0),
        ClusterSpec("tumor_b",
                    (poses["s2"][0] + 0.3, poses["s2"][1], 0.0),
                    kind="fluorescent", emit_power=0.01, dose_kill=1.0),
    )
    hears = tuple(sorted(n.name for n in base.nodes if n.name != "s2"))
    return dataclasses.replace(base, scenario="photothermal",
                               clusters=clusters, controller_hears=hears)


@functools.cache
def default_config(scenario: str) -> WorldConfig:
    """The packaged deployment of ``scenario``, built once per process; a
    ``WorldConfig`` is frozen, so callers share it and its gain tables."""
    builders = {
        "photothermal": photothermal_config,
        "drug_delivery": drug_delivery_config,
        "hidden_terminal": hidden_terminal_config,
        "clique_contention": clique_contention_config,
    }
    if scenario not in builders:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"expected one of {sorted(builders)}")
    return builders[scenario]()


# -- drivers -----------------------------------------------------------------


class ScenarioDriver(Hooks, ScenarioHooks):
    """Base driver: lights the fluorescent clusters and detects completion.

    A driver instance is handed to every Agent as its hook sink and to the
    World as its scenario, so one object sees both node-level events
    (trigger, actuation, chain completion) and world-level ones (cycle
    boundaries, controller frames).  Whether a cluster still fluoresces is
    the World's to say: ``world.stimuli[name].active``.
    """

    def __init__(self, cfg: WorldConfig, metrics: Metrics,
                 trace: TraceWriter):
        self.cfg = cfg
        self.metrics = metrics
        self.trace = trace
        self.world: World | None = None
        self.fluorescent = [spec for spec in self.cfg.clusters
                            if spec.kind == "fluorescent"]

    # lifecycle ------------------------------------------------------------

    def attach(self, world: World) -> None:
        self.world = world
        for spec in self.fluorescent:
            world.add_stimulus(spec.name, spec.position, spec.emit_power)

    def idle(self) -> bool:
        """True when the deployment gives the scenario nothing to do: no
        fluorescent cluster to find.  The run then ends at once."""
        return not self.fluorescent

    def finished(self, world: World) -> bool:
        return False

    def finalize(self, world: World, status: str) -> None:
        pass

    # helpers ----------------------------------------------------------------

    def _agent_of_address(self, addr: int) -> Agent | None:
        assert self.world is not None
        return self.world.by_address.get(addr)

    def _command_target(self, agent: Agent) -> int | None:
        """The actuator a triggered sensor commands: its recognized peer
        (lowest address when it recognizes several)."""
        return min(agent.mem.recognized) if agent.mem.recognized else None


class BurstCommandDriver(ScenarioDriver):
    """Trigger every recognizing sensor at once and watch deliveries.

    Used by the hidden-terminal and clique scenarios: all sensors fire one
    command chain at instruction cycle zero toward their shared actuator,
    then the run continues until every chain resolved or the horizon hits.
    """

    def __init__(self, cfg, metrics, trace):
        super().__init__(cfg, metrics, trace)
        self.commanders: list[str] = []

    def idle(self) -> bool:
        """No sensor recognizes a peer, so nobody would command anyone."""
        return not any(spec.recognized for spec in self.cfg.nodes
                       if not spec.is_actuator)

    def on_icycle_start(self, world: World, ic: int) -> None:
        if ic != 0:
            return
        for agent in world.agents.values():
            target = self._command_target(agent)
            if agent.is_actuator or target is None:
                continue
            agent.start_chain(target, tag="burst", cycle=world.cycle)
            self.commanders.append(agent.name)

    def on_chain_done(self, agent: Agent, chain: CommandChain,
                      cycle: int) -> None:
        self.metrics.latencies.append({
            "kind": "delivery", "node": agent.name,
            "cycles": cycle - chain.started_cycle})

    def finished(self, world: World) -> bool:
        return bool(self.commanders) and all(
            not world.agents[name].chains for name in self.commanders)


class PhotothermalDriver(ScenarioDriver):
    """Relay-request loop plus controller-side irradiation.

    Sensors that latch send periodic relay requests: directly when the
    controller can see them, otherwise through their lowest-addressed
    physical neighbour.  Each decoded request registers an irradiation
    task for the reported position; every instruction cycle the task doses
    all lit clusters in that cell with a step that doubles up to a cap,
    and retires once the cell holds no lit cluster.
    """

    dose_initial = 0.25
    dose_cap_factor = 8.0

    def __init__(self, cfg, metrics, trace):
        super().__init__(cfg, metrics, trace)
        self.tasks: dict[int, float] = {}  # position id -> next dose step
        self.served: set[int] = set()      # origin addresses with a live task
        self.trigger_cycles: dict[str, int] = {}
        self.dose = {spec.name: 0.0 for spec in self.fluorescent}
        self._scan_cells = self.cfg.grid.scan_cells()
        self._fluorescent_cells = [(spec, cell_of(spec.position, self.cfg.grid))
                                   for spec in self.fluorescent]

    # node-side hooks --------------------------------------------------------

    def on_trigger(self, agent: Agent, ic: int) -> None:
        assert self.world is not None
        self.metrics.requests_issued += 1
        self.served.discard(agent.address)
        self.trigger_cycles[agent.name] = self.world.cycle
        agent.start_request(self._relay_target(agent), ic)

    def _relay_target(self, agent: Agent) -> int:
        hears = self.cfg.controller_hears
        if hears is None or agent.name in hears:
            return controller_address()
        heard = set(hears)
        for addr in sorted(agent.mem.physical):
            other = self._agent_of_address(addr)
            if other is not None and other.name in heard:
                return addr
        # no audible neighbour: fall back to any reachable one and hope for
        # a longer relay chain
        return min(agent.mem.physical, default=controller_address())

    # world-side hooks ---------------------------------------------------------

    def on_controller_frame(self, world: World, frame, cycle: int) -> None:
        if frame.opcode != Opcode.RELAY:
            return
        origin = frame.transmitter
        agent = self._agent_of_address(origin)
        if agent is None or agent.mem.position_id < 0:
            self.trace.event(cycle, "controller",
                             note="request from unknown position",
                             origin=format_address(origin))
            return
        position = agent.mem.position_id
        if origin not in self.served:
            self.served.add(origin)
            self.metrics.requests_served += 1
            started = self.trigger_cycles.get(agent.name, cycle)
            self.metrics.latencies.append({
                "kind": "serve", "node": agent.name,
                "cycles": cycle - started})
        if position not in self.tasks:
            self.tasks[position] = self.dose_initial
            self.trace.event(cycle, "dose", position=position, state="start")

    def on_icycle_end(self, world: World, ic: int) -> None:
        for position in sorted(self.tasks):
            cell = self._scan_cells[position]
            targets = [spec for spec, c_cell in self._fluorescent_cells
                       if c_cell == cell and world.stimuli[spec.name].active]
            if not targets:
                del self.tasks[position]
                self.trace.event(world.cycle, "dose", position=position,
                                 state="stop")
                continue
            step = self.tasks[position]
            for spec in targets:
                self.dose[spec.name] += step
                self.metrics.doses.append({
                    "cluster": spec.name, "position": position,
                    "dose": step, "cycle": world.cycle})
                if self.dose[spec.name] >= spec.dose_kill:
                    world.set_stimulus(spec.name, False)
                    self.trace.event(world.cycle, "dose",
                                     cluster=spec.name, state="ablated",
                                     total=round(self.dose[spec.name], 9))
            self.tasks[position] = min(step * 2.0,
                                       self.dose_initial * self.dose_cap_factor)

    def finished(self, world: World) -> bool:
        return not any(world.stimuli[spec.name].active
                       for spec in self.fluorescent)

    def finalize(self, world: World, status: str) -> None:
        for spec in self.fluorescent:
            if world.stimuli[spec.name].active:
                self.metrics.timeouts.append({
                    "node": spec.name, "waited": "dose",
                    "cycle": world.cycle})


class DrugDeliveryDriver(ScenarioDriver):
    """Two-stage command sequence per lit cluster.

    The triggered sensor runs one chain per stage; the actuator tells the
    stages apart by its per-commander command count (first delivered
    command electroporates, the second releases).  Stage-two completion
    quenches the cluster that started the episode.
    """

    def __init__(self, cfg, metrics, trace):
        super().__init__(cfg, metrics, trace)
        self.detect_cycles: dict[str, int] = {}
        self.sensor_clusters: dict[str, list[str]] = {}
        self.completed: set[str] = set()

    def on_trigger(self, agent: Agent, ic: int) -> None:
        assert self.world is not None
        target = self._command_target(agent)
        if target is None or agent.name in self.detect_cycles:
            return
        world = self.world
        self.detect_cycles[agent.name] = world.cycle
        self.sensor_clusters[agent.name] = [
            name for name, stim in world.stimuli.items()
            if stim.active and world.fluor_from(agent.name, stim)
            >= self.cfg.channel.theta_fluor]
        agent.start_chain(target, tag="stage1", cycle=world.cycle)

    def on_chain_done(self, agent: Agent, chain: CommandChain,
                      cycle: int) -> None:
        if chain.tag == "stage1":
            agent.start_chain(chain.target, tag="stage2", cycle=cycle)
        elif chain.tag == "stage2":
            assert self.world is not None
            self.completed.add(agent.name)
            for name in self.sensor_clusters.get(agent.name, []):
                self.world.set_stimulus(name, False)

    def on_actuation(self, agent: Agent, commander: int, meta: dict,
                     cycle: int) -> None:
        stage = min(meta.get("count", 1), 2)
        commander_agent = self._agent_of_address(commander)
        commander_name = (commander_agent.name if commander_agent is not None
                          else format_address(commander))
        self.metrics.actuations.append({
            "actuator": agent.name, "commander": commander_name,
            "stage": stage, "cycle": cycle})
        self.trace.event(cycle, "actuation", actuator=agent.name,
                         commander=commander_name, stage=stage)
        if stage == 1:
            detected = self.detect_cycles.get(commander_name, cycle)
            self.metrics.latencies.append({
                "kind": "actuation", "node": agent.name,
                "cycles": cycle - detected})

    def finished(self, world: World) -> bool:
        if not self.detect_cycles:
            return False
        return all(name in self.completed for name in self.detect_cycles)

    def finalize(self, world: World, status: str) -> None:
        for name in self.detect_cycles:
            if name not in self.completed:
                self.metrics.timeouts.append({
                    "node": name, "waited": "stage2", "cycle": world.cycle})


DRIVERS = {
    "photothermal": PhotothermalDriver,
    "drug_delivery": DrugDeliveryDriver,
    "hidden_terminal": BurstCommandDriver,
    "clique_contention": BurstCommandDriver,
}


# -- entry point -------------------------------------------------------------


@dataclass
class ScenarioResult:
    name: str
    cfg: WorldConfig
    status: str                      # "ok" | "timeout" | "idle"
    metrics: Metrics
    world: World
    parts: WorldParts
    report: LearningReport
    icycles: int = 0

    def memory_snapshot(self) -> str:
        return snapshot_text(self.parts.memories)


def build_world(cfg: WorldConfig, variant: Variant, seed: int,
                trace: TraceWriter, metrics: Metrics,
                driver: ScenarioDriver | None = None,
                ) -> tuple[World, WorldParts, LearningReport]:
    """Assemble agents from a config, run the learning pass, build a World."""
    parts = build_parts(cfg)
    report = run_learning(cfg.grid, parts.poses, parts.memories, parts.tables,
                          cfg.channel)
    hooks = driver if driver is not None else Hooks()
    agents = [
        Agent(spec.name, parts.memories[spec.name],
              Rng(seed, stream=spec.address), variant, trace, metrics,
              hooks=hooks)
        for spec in cfg.nodes
    ]
    gaps = [LaserGap(cycle, length) for cycle, length in cfg.laser_gaps]
    world = World(parts.poses, parts.tables, agents, cfg.clock, cfg.channel,
                  trace=trace, metrics=metrics,
                  scenario=driver,
                  laser_gaps=gaps, controller_hears=cfg.controller_hears)
    return world, parts, report


def run_scenario(name: str | None = None, cfg: WorldConfig | None = None,
                 protocol: str | None = None, seed: int | None = None,
                 max_cycles: int | None = None,
                 trace: TraceWriter | None = None) -> ScenarioResult:
    """Run one scenario to completion or its horizon and return the record.

    ``name`` defaults to the config's scenario; ``cfg`` defaults to the
    scenario's packaged fixture.  ``seed`` and ``max_cycles`` obey the
    config's rules for its keys of those names; ``max_cycles`` is in clock
    cycles and is rounded down to whole instruction cycles (minimum one).
    A deployment that gives the scenario nothing to do ends at once with
    status ``idle``.
    """
    if cfg is None:
        if name is None:
            raise ValueError("need a scenario name or a config")
        cfg = default_config(name)
    if name is None:
        name = cfg.scenario
    if name is None:
        raise ValueError("config does not name a scenario")
    if name not in DRIVERS:
        raise ValueError(f"unknown scenario {name!r}")
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool) or seed < 0):
        raise ValueError(f"seed: must be a non-negative integer, got {seed!r}")
    if max_cycles is not None and (not isinstance(max_cycles, int)
                                   or isinstance(max_cycles, bool)
                                   or max_cycles <= 0):
        raise ValueError("max_cycles: must be a positive integer, "
                         f"got {max_cycles!r}")

    variant = Variant(protocol if protocol is not None else cfg.protocol)
    run_seed = seed if seed is not None else cfg.seed
    tracer = trace if trace is not None else NullTrace()
    metrics = Metrics()

    driver = DRIVERS[name](cfg, metrics, tracer)
    world, parts, report = build_world(cfg, variant, run_seed, tracer,
                                       metrics, driver)
    driver.attach(world)

    cycles_budget = max_cycles if max_cycles is not None else cfg.max_cycles
    if cycles_budget is not None:
        horizon = max(1, cycles_budget // cfg.clock.icycle_len)
    else:
        horizon = SCENARIO_HORIZON_ICS[name]

    tracer.event(world.cycle, "run_start", scenario=name, seed=run_seed,
                 protocol=variant.value, horizon_ics=horizon)
    ran = 0
    if driver.idle():
        status = "idle"
    else:
        for _ in range(horizon):
            world.run(1)
            ran += 1
            if driver.finished(world):
                break
        status = "ok" if driver.finished(world) else "timeout"
    driver.finalize(world, status)
    tracer.event(world.cycle, "run_end", scenario=name, status=status,
                 icycles=ran, **metrics.summary())
    return ScenarioResult(name=name, cfg=cfg, status=status, metrics=metrics,
                          world=world, parts=parts, report=report,
                          icycles=ran)
