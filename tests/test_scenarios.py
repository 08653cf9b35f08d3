"""Scripted scenario runs: frozen seed-0 outcomes, conservation, determinism."""

import dataclasses
import hashlib
import re
from importlib import resources

import pytest

from optomac import cli
from optomac.config import SCENARIO_NAMES, format_address
from optomac.metrics import Metrics
from optomac.protocol import Opcode
from optomac.scenarios import (
    DRIVERS,
    SCENARIO_HORIZON_ICS,
    clique_contention_config,
    default_config,
    drug_delivery_config,
    hidden_terminal_config,
    photothermal_config,
    run_scenario,
)
from optomac.trace import TraceWriter


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
    assert set(SCENARIO_HORIZON_ICS) == names
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


def test_photothermal_relay_reaches_blind_controller():
    r = run_scenario("photothermal", seed=0)
    assert "s2" not in r.cfg.controller_hears
    relays = [(cycle, format_address(frame.transmitter))
              for cycle, frame in r.world.controller_frames
              if frame.opcode == Opcode.RELAY]
    # s1 is heard directly; s2's request arrives forwarded with the origin
    # address intact in the transmitter field
    assert relays == [(59, "0000"), (83, "0001")]


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
    r = run_scenario("clique_contention", protocol="basic", seed=0)
    assert r.icycles <= SCENARIO_HORIZON_ICS["clique_contention"]
