"""Scripted scenario runs: frozen seed-0 outcomes, conservation, determinism."""

import dataclasses
import gc
import hashlib
import json
import re
import weakref
from importlib import resources
from pathlib import Path

import pytest

from optomac import cli, scenarios
from optomac.config import SCENARIO_NAMES, format_address, load_path
from optomac.geometry import HexGrid
from optomac.metrics import Metrics
from optomac.protocol import Opcode
from optomac.scenarios import (
    DRIVERS,
    PhotothermalDriver,
    clique_contention_config,
    default_config,
    drug_delivery_config,
    hidden_terminal_config,
    photothermal_config,
    run_scenario,
)
from optomac.trace import TraceWriter
from oracles import WakeCheckingWorld
from test_golden_gap_digests import GAPS, gapped_config


def latency_triples(metrics: Metrics) -> list:
    return [(d["kind"], d["node"], d["cycles"]) for d in metrics.latencies]


def test_default_config_names_and_rejection():
    for name, builder in (("hidden_terminal", hidden_terminal_config),
                          ("clique_contention", clique_contention_config),
                          ("drug_delivery", drug_delivery_config),
                          ("photothermal", photothermal_config)):
        cfg = default_config(name)
        assert cfg.scenario == name
        assert cfg == builder()
    with pytest.raises(ValueError, match="unknown scenario"):
        default_config("cryotherapy")


def test_scenario_names_agree():
    # config validates names without importing the scenarios that run them
    names = set(SCENARIO_NAMES)
    assert len(names) == len(SCENARIO_NAMES)
    assert set(DRIVERS) == names
    for name in SCENARIO_NAMES:
        assert default_config(name).scenario == name
    # the rejection lists every name default_config builds
    expected = re.escape(f"expected one of {sorted(names)}")
    with pytest.raises(ValueError, match=expected + "$"):
        default_config("cryotherapy")


def test_hidden_terminal_seed0_basic():
    r = run_scenario("hidden_terminal", protocol="basic", seed=0)
    m = r.metrics
    assert (r.status, r.icycles) == ("ok", 3)
    # the first command subcycle collides at the actuator, both retry
    assert (m.issued, m.delivered, m.lost) == (4, 2, 2)
    assert (m.retries, m.acks_sent, m.collisions, m.rx_rejects) == (2, 2, 1, 1)
    assert latency_triples(m) == [("delivery", "s1", 83),
                                  ("delivery", "s2", 131)]
    assert [(t["node"], t["waited"]) for t in m.timeouts] == \
        [("s1", "await_ack"), ("s2", "await_ack")]


def test_hidden_terminal_seed0_handshake():
    r = run_scenario("hidden_terminal", protocol="handshake", seed=0)
    m = r.metrics
    assert (r.status, r.icycles) == ("ok", 5)
    # reservations keep the commands themselves collision-free
    assert (m.issued, m.delivered, m.lost) == (2, 2, 0)
    assert (m.retries, m.blocks_sent, m.acks_sent) == (2, 2, 2)
    assert latency_triples(m) == [("delivery", "s1", 131),
                                  ("delivery", "s2", 227)]
    assert [t["waited"] for t in m.timeouts] == ["await_block", "await_block"]


def test_clique_seed0_both_protocols():
    r = run_scenario("clique_contention", protocol="basic", seed=0)
    m = r.metrics
    assert (r.status, r.icycles) == ("ok", 3)
    assert (m.issued, m.delivered, m.lost, m.exits) == (3, 3, 0, 3)
    assert latency_triples(m) == [("delivery", "s3", 23),
                                  ("delivery", "s2", 71),
                                  ("delivery", "s1", 119)]

    r = run_scenario("clique_contention", protocol="handshake", seed=0)
    m = r.metrics
    assert (r.status, r.icycles) == ("ok", 6)
    assert (m.issued, m.delivered, m.exits, m.blocks_sent) == (3, 3, 3, 3)
    # same arbitration order as basic, each delivery two subcycles later
    assert latency_triples(m) == [("delivery", "s3", 71),
                                  ("delivery", "s2", 167),
                                  ("delivery", "s1", 263)]


def test_drug_delivery_seed0_stages():
    r = run_scenario("drug_delivery", protocol="basic", seed=0)
    m = r.metrics
    assert (r.status, r.icycles) == ("ok", 3)
    assert (m.issued, m.delivered) == (2, 2)
    stages = [(d["actuator"], d["commander"], d["stage"], d["cycle"])
              for d in m.actuations]
    assert stages == [("a1", "s1", 1, 83), ("a1", "s1", 2, 131)]
    assert stages[0][3] < stages[1][3]
    assert latency_triples(m) == [("actuation", "a1", 36)]

    # the depot is an actuator cluster: it never fluoresces
    assert list(r.world.stimuli) == ["lesion"]
    assert not r.world.stimuli["lesion"].active


def test_drug_delivery_seed0_handshake():
    r = run_scenario("drug_delivery", protocol="handshake", seed=0)
    m = r.metrics
    assert (r.status, r.icycles) == ("ok", 5)
    assert (m.issued, m.delivered, m.blocks_sent) == (2, 2, 2)
    assert [(d["stage"], d["cycle"]) for d in m.actuations] == \
        [(1, 131), (2, 227)]
    assert latency_triples(m) == [("actuation", "a1", 84)]


def test_drug_delivery_lesion_at_the_sensor_is_seen():
    # a cluster inside the sensor's own cell sits at distance zero
    cfg = drug_delivery_config()
    s1 = next(n for n in cfg.nodes if n.name == "s1")
    lesion, depot = cfg.clusters
    cfg = dataclasses.replace(cfg, clusters=(
        dataclasses.replace(lesion, position=s1.position), depot))
    r = run_scenario(cfg=cfg, protocol="basic", seed=0)
    assert r.status == "ok"
    assert [d["stage"] for d in r.metrics.actuations] == [1, 2]
    assert not r.world.stimuli["lesion"].active


@pytest.mark.xfail(strict=True, reason="stage 2 quenches only the clusters "
                   "that reach theta_fluor at the sensor one by one, not "
                   "those whose summed light latched it")
def test_a_delivery_quenches_the_light_that_latched_its_sensor():
    # two clusters either side of s1, each at 0.6 theta_fluor there: only
    # their sum latches the sensor, and both stages are delivered
    cfg = drug_delivery_config()
    s1 = next(n for n in cfg.nodes if n.name == "s1")
    lesion, depot = cfg.clusters
    x, y, _ = s1.position
    pair = tuple(dataclasses.replace(lesion, name=f"lesion_{side}",
                                     position=(x, y + dy, 0.0))
                 for side, dy in (("up", 2.135), ("down", -2.135)))
    cfg = dataclasses.replace(cfg, clusters=pair + (depot,))
    r = run_scenario(cfg=cfg, protocol="basic", seed=0)
    theta = cfg.channel.theta_fluor
    assert [round(r.world.fluor_from("s1", stim) / theta, 2)
            for stim in r.world.stimuli.values()] == [0.6, 0.6]
    assert (r.status, r.icycles) == ("ok", 3)
    assert [d["stage"] for d in r.metrics.actuations] == [1, 2]
    assert r.world.lit_stimuli == 0


@pytest.mark.parametrize("protocol", ["basic", "handshake"])
def test_photothermal_seed0(protocol):
    r = run_scenario("photothermal", protocol=protocol, seed=0)
    m = r.metrics
    assert (r.status, r.icycles) == ("ok", 4)
    assert (m.requests_issued, m.requests_served) == (2, 2)
    assert m.total_dose() == pytest.approx(3.5)
    per_cluster: dict = {}
    for d in m.doses:
        per_cluster.setdefault(d["cluster"], []).append(d["dose"])
    # dose per step doubles until the accumulated dose crosses the kill
    # threshold, after which the cluster stops fluorescing and gets no more
    assert per_cluster == {"tumor_a": [0.25, 0.5, 1.0],
                           "tumor_b": [0.25, 0.5, 1.0]}
    positions = {d["cluster"]: d["position"] for d in m.doses}
    assert positions == {"tumor_a": 3, "tumor_b": 14}
    assert latency_triples(m) == [("serve", "s1", 12), ("serve", "s2", 36)]
    assert not m.timeouts


def test_photothermal_finished_follows_the_lit_lesions(monkeypatch):
    # ``finished`` reads the World's count of lit stimuli; the run asks it
    # after every icycle, and it must agree with the lesions themselves
    # while they go dark one at a time
    cfg = photothermal_config()
    cfg = dataclasses.replace(cfg, clusters=tuple(
        dataclasses.replace(c, dose_kill=kill)
        for c, kill in zip(cfg.clusters, (1.0, 6.0))))
    answers = []
    finished = PhotothermalDriver.finished

    def checked(driver, world):
        got = finished(driver, world)
        lit = [s.name for s in driver.fluorescent
               if world.stimuli[s.name].active]
        assert got == (not lit)
        answers.append(tuple(lit))
        return got

    monkeypatch.setattr(PhotothermalDriver, "finished", checked)
    r = run_scenario(cfg=cfg, seed=0)
    assert r.status == "ok"
    assert answers[0] == ("tumor_a", "tumor_b") and answers[-1] == ()
    assert ("tumor_b",) in answers


def test_photothermal_relay_reaches_blind_controller():
    r = run_scenario("photothermal", seed=0)
    assert "s2" not in r.cfg.controller_hears
    relays = [(cycle, format_address(frame.transmitter))
              for cycle, frame in r.world.controller_frames
              if frame.opcode == Opcode.RELAY]
    # s1 is heard directly; s2's request arrives forwarded with the origin
    # address intact in the transmitter field
    assert relays == [(59, "0000"), (83, "0001")]


@pytest.mark.parametrize("protocol", ["basic", "handshake"])
def test_relay_without_an_audible_neighbour_goes_unserved(protocol):
    # the controller hears neither s2 nor a1, the one neighbour s2 reaches:
    # s2 relays to a1 anyway, and a1 forwards straight to the controller,
    # which cannot hear it, so tumor_b is never dosed
    cfg = photothermal_config()
    cfg = dataclasses.replace(cfg, controller_hears=tuple(
        n for n in cfg.controller_hears if n != "a1"))
    trace = TraceWriter("events")
    r = run_scenario(cfg=cfg, protocol=protocol, seed=0, trace=trace)
    relays = set()
    for line in trace.getvalue().splitlines():
        event = json.loads(line)
        if event["kind"] == "tx_done" and event["frame"][5:8] == "001":
            relays.add((event["node"], event["frame"]))
    assert relays == {("s1", "1110 001 0000"), ("s2", "1000 001 0001"),
                      ("a1", "1110 001 0001")}
    assert [f.describe() for _, f in r.world.controller_frames] == [
        "1110 001 0000"]
    m = r.metrics
    assert (m.requests_issued, m.requests_served) == (2, 1)
    assert r.status == "timeout"
    assert m.timeouts == [{"node": "tumor_b", "waited": "dose",
                           "cycle": 19200}]


def test_photothermal_memories_match_reference_snapshot():
    golden = (resources.files("optomac").joinpath("fixtures")
              .joinpath("nine_node_memory.txt").read_text())
    r = run_scenario("photothermal", seed=0)
    assert r.memory_snapshot() == golden


@pytest.mark.parametrize("name", ["hidden_terminal", "clique_contention",
                                  "drug_delivery"])
@pytest.mark.parametrize("protocol", ["basic", "handshake"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_command_conservation(name, protocol, seed):
    r = run_scenario(name, protocol=protocol, seed=seed)
    m = r.metrics
    assert r.status == "ok"
    assert m.delivered + m.lost == m.issued
    if (name, protocol) == ("hidden_terminal", "basic"):
        # hidden commanders cannot sense each other, so first attempts
        # collide and the per-transmission ratio stays at or below one half
        assert m.summary()["delivery_ratio"] <= 0.5
    else:
        assert m.summary()["delivery_ratio"] == 1.0


def test_same_seed_runs_are_identical():
    def capture(seed: int):
        trace = TraceWriter("power")
        r = run_scenario("photothermal", protocol="handshake", seed=seed,
                         trace=trace)
        return trace.getvalue(), r.metrics.to_json()

    trace_a, metrics_a = capture(7)
    trace_b, metrics_b = capture(7)
    assert trace_a == trace_b
    assert metrics_a == metrics_b
    trace_c, _ = capture(8)
    assert trace_c != trace_a


def artifacts_digest(name: str, protocol: str, seed: int) -> str:
    """sha256 over the four artifacts of one run, as the CLI writes them."""
    trace = TraceWriter("power")
    result = run_scenario(name, protocol=protocol, seed=seed, trace=trace)
    h = hashlib.sha256()
    for artifact, body in cli._artifact_map(result, trace).items():
        h.update(artifact.encode() + b"\0" + body.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("protocol", ["basic", "handshake"])
def test_seed_artifacts_do_not_depend_on_earlier_runs(name, protocol):
    # every run shares the packaged config and its gain tables, built once
    # per process; a seed's artifacts must not depend on the seeds run
    # before it in the same process
    seeds = range(4)
    forward = [artifacts_digest(name, protocol, seed) for seed in seeds]
    backward = [artifacts_digest(name, protocol, seed)
                for seed in reversed(seeds)]
    assert forward == backward[::-1]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_a_finished_run_is_freed_by_reference_counting(name):
    # no reference cycle keeps a run's World alive once its result goes
    gc.disable()
    try:
        result = run_scenario(name, seed=0)
        world = weakref.ref(result.world)
        del result
        assert world() is None
    finally:
        gc.enable()


def test_max_cycles_truncates_to_whole_icycles():
    r = run_scenario("hidden_terminal", protocol="handshake", seed=0,
                     max_cycles=48)
    assert r.icycles == 1
    assert r.status == "timeout"
    assert r.world.cycle == 48
    r = run_scenario("hidden_terminal", protocol="handshake", seed=0,
                     max_cycles=47)
    assert r.icycles == 1  # rounded down but never below one icycle


def test_run_scenario_argument_validation():
    with pytest.raises(ValueError, match="need a scenario name or a config"):
        run_scenario()
    cfg = hidden_terminal_config()
    import dataclasses
    with pytest.raises(ValueError, match="does not name a scenario"):
        run_scenario(cfg=dataclasses.replace(cfg, scenario=None))
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("cryotherapy", cfg=cfg)
    with pytest.raises(ValueError, match="seed: must be a non-negative"):
        run_scenario(cfg=cfg, seed=-1)
    for budget in (0, -48):
        with pytest.raises(ValueError, match="max_cycles: must be a positive"):
            run_scenario(cfg=cfg, max_cycles=budget)


def test_horizon_table_is_the_fallback():
    # a config without max_cycles runs for its driver's horizon at most
    for name, horizon in (("photothermal", 400), ("drug_delivery", 200),
                          ("hidden_terminal", 100),
                          ("clique_contention", 100)):
        assert DRIVERS[name].horizon_ics == horizon
        writer = TraceWriter("summary")
        r = run_scenario(name, protocol="basic", seed=0, trace=writer)
        start = json.loads(writer.getvalue().splitlines()[0])
        assert (start["kind"], start["horizon_ics"]) == ("run_start", horizon)
        assert r.icycles <= horizon



DATA = Path(__file__).with_name("data")
# the gapped configs of the golden gap digests that no document carries
GAPPED = [f"{s}+gaps" for s in sorted(GAPS) if s != "hidden_terminal"]


@pytest.mark.parametrize("protocol", ("basic", "handshake"))
@pytest.mark.parametrize("source", [*SCENARIO_NAMES, *sorted(
    doc.name for doc in DATA.glob("*.json")), *GAPPED])
def test_the_wake_time_holds_on_every_scenario_and_document(
        monkeypatch, source, protocol):
    # real traffic reaches every transition that gives an agent send work:
    # relays and their forwarding, the T4 trigger and bottom detectors, and
    # it crosses laser gaps of each kind, which leave the wake time alone.
    # No run may find send work before the wake time, and checking it
    # changes no byte of the artifacts
    if source.endswith(".json"):
        cfg = load_path(DATA / source)
    elif source.endswith("+gaps"):
        cfg = gapped_config(source.removesuffix("+gaps"))
    else:
        cfg = None

    def artifacts():
        runs = []
        for seed in range(4):
            trace = TraceWriter("power")
            result = run_scenario(None if cfg else source, cfg=cfg,
                                  protocol=protocol, seed=seed, trace=trace)
            assert type(result.world) is scenarios.World
            runs.append(cli._artifact_map(result, trace))
        return runs

    plain = artifacts()
    monkeypatch.setattr(scenarios, "World", WakeCheckingWorld)
    assert artifacts() == plain


def test_positions_come_from_arithmetic_not_a_cell_list(monkeypatch):
    # learning stamps position ids and the photothermal controller finds a
    # task's clusters without listing the scanned cells
    def no_list(grid):
        raise AssertionError("scan_cells called on a run path")

    monkeypatch.setattr(HexGrid, "scan_cells", no_list)
    wide = load_path(DATA / "drug_delivery_wide.json")
    assert len(wide.grid.rows) == 1 and wide.grid.rows[0][2] == 100_000
    r = run_scenario(cfg=wide, seed=0)
    assert r.status == "ok"
    assert [r.parts.memories[n].position_id for n in ("s1", "a1")] == [0, 2]
    r = run_scenario("photothermal", seed=0)
    assert r.status == "ok" and r.metrics.requests_served == 2
    assert {d["cluster"] for d in r.metrics.doses} == {"tumor_a", "tumor_b"}


@pytest.mark.parametrize("protocol", ("basic", "handshake"))
def test_a_wider_scan_row_changes_no_byte(protocol):
    # the wide document is the packaged drug delivery on a 100,001-cell row;
    # both nodes keep their position ids, so every artifact is the same
    wide = load_path(DATA / "drug_delivery_wide.json")
    assert wide == dataclasses.replace(default_config("drug_delivery"),
                                       grid=wide.grid)
    for seed in range(4):
        runs = []
        for cfg in (None, wide):
            trace = TraceWriter("power")
            result = run_scenario("drug_delivery", cfg=cfg,
                                  protocol=protocol, seed=seed, trace=trace)
            runs.append(cli._artifact_map(result, trace))
        assert runs[0] == runs[1]
