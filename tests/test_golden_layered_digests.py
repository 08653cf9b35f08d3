"""Golden digests of a deployment that lights both detectors of a node.

Every packaged deployment puts its nodes at depth 0 with the normal
(0, 0, 1), so all light arrives on a top detector.  Here the hidden-terminal
case is split over two depths: s1 sits above the actuator (z = +0.5) and s2
below it (z = -0.5), so a1 hears s1 on its top detector and s2 on its
bottom one.  That reaches the bottom-side sums of ``World._lit_for`` and,
under the handshake, the NOTIFY contention an actuator sees across its two
detectors.

The digests hash the power-level trace and ``metrics.json`` as
``test_golden_digests.py`` does, for both protocols and seeds 0-3, and live
in ``golden_layered_digests.json`` beside this file.  Only a change that
deliberately alters what such a run does may regenerate them with::

    PYTHONPATH=src python tests/test_golden_layered_digests.py > tests/golden_layered_digests.json

``data/hidden_terminal_layered.json`` is the same deployment as a
``--config`` document (``config.save(layered_config(), path)``).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from optomac.config import WorldConfig, load_path
from optomac.scenarios import hidden_terminal_config, run_scenario
from optomac.trace import TraceWriter
from test_golden_digests import PROTOCOLS, run_digest

GOLDEN = Path(__file__).with_name("golden_layered_digests.json")
LAYERED_DOC = Path(__file__).with_name("data") / "hidden_terminal_layered.json"
SEEDS = range(4)
DEPTHS = {"s1": 0.5, "s2": -0.5}


def layered_config() -> WorldConfig:
    cfg = hidden_terminal_config()
    return dataclasses.replace(cfg, nodes=tuple(
        dataclasses.replace(n, position=n.position[:2] + (DEPTHS[n.name],))
        if n.name in DEPTHS else n for n in cfg.nodes))


def all_digests() -> dict[str, list[str]]:
    cfg = layered_config()
    return {f"hidden_terminal_layered/{protocol}": [
                run_digest("hidden_terminal", protocol, seed, cfg)
                for seed in SEEDS]
            for protocol in PROTOCOLS}


def events(protocol: str, seed: int):
    trace = TraceWriter("events")
    result = run_scenario(cfg=layered_config(), protocol=protocol, seed=seed,
                          trace=trace)
    return result, [json.loads(line) for line in trace.getvalue().splitlines()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_layered_power_trace_and_metrics_match_golden(golden, protocol):
    cfg = layered_config()
    want = golden[f"hidden_terminal_layered/{protocol}"]
    got = [run_digest("hidden_terminal", protocol, seed, cfg)
           for seed in SEEDS]
    mismatched = [seed for seed, (a, b) in enumerate(zip(want, got)) if a != b]
    assert not mismatched, f"seeds {mismatched} changed their artifacts"


def test_golden_layered_covers_every_case(golden):
    assert sorted(golden) == sorted(f"hidden_terminal_layered/{p}"
                                    for p in PROTOCOLS)
    assert all(len(v) == len(SEEDS) for v in golden.values())


def test_layered_config_document_is_the_layered_case():
    assert load_path(LAYERED_DOC) == layered_config()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_actuator_hears_the_sensors_on_opposite_detectors(protocol, seed):
    result, trace = events(protocol, seed)
    assert result.status == "ok"
    assert result.report.flags == []
    sides = {e["frame"][-4:]: e["side"] for e in trace
             if e["kind"] == "rx_frame" and e["node"] == "a1"}
    assert sides == {"0001": "top", "0010": "bottom"}
    if protocol == "handshake":
        # two clean NOTIFYs on opposite detectors in one subcycle
        assert any(e["kind"] == "rx_reject"
                   and e["reason"] == "notify_contention" for e in trace)


@pytest.mark.xfail(strict=True, reason="an ACK that arrives after the "
                   "sender's reply window is dropped, so the command is "
                   "counted lost and sent again")
@pytest.mark.parametrize("seed", SEEDS)
def test_an_acknowledged_command_is_neither_lost_nor_repeated(seed):
    # under the basic protocol a1 decodes both COMMANDs in one subcycle and
    # can acknowledge only one per own subcycle; the second ACK reaches s2
    # after its two-subcycle window has closed
    result, _ = events("basic", seed)
    assert result.world.agents["a1"].command_counts == {0b0001: 1, 0b0010: 1}
    assert result.metrics.lost == 0


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=2, sort_keys=True))
