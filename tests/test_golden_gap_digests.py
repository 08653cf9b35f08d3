"""Golden digests under laser gaps: every scenario x protocol x seed 0-2.

No packaged deployment sets ``laser_gaps``, so these cases give each
scenario a scripted list of three gaps: one shorter than ``g_sync``
(flywheeled), one ``frame_sync`` and one ``mode_toggle``.  Each starts
inside a subcycle that carries a frame, for every protocol and seed here.
The digests hash the power-level trace and ``metrics.json`` as
``test_golden_digests.py`` does, and live in ``golden_gap_digests.json``
beside this file.  Only a change that deliberately alters what a gap does
may regenerate them with::

    PYTHONPATH=src python tests/test_golden_gap_digests.py > tests/golden_gap_digests.json

``data/hidden_terminal_gaps.json`` is the hidden-terminal case as a
``--config`` document (``config.save(gapped_config("hidden_terminal"),
path)``), for runs through the command line.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from optomac.config import SCENARIO_NAMES, WorldConfig, load_path
from optomac.scenarios import default_config, run_scenario
from optomac.timebase import detect_nonclock
from optomac.trace import TraceWriter
from test_golden_digests import PROTOCOLS, run_digest

GOLDEN = Path(__file__).with_name("golden_gap_digests.json")
HIDDEN_TERMINAL_DOC = Path(__file__).with_name("data") / "hidden_terminal_gaps.json"
SEEDS = range(3)

# scenario -> (start cycle, length) of a short, a frame_sync and a
# mode_toggle gap; hidden_terminal's traffic shares only two transmitting
# subcycles across protocols and seeds, so its first two gaps share one
GAPS = {
    "clique_contention": ((4, 3), (54, 10), (85, 40)),
    "drug_delivery": ((52, 3), (150, 10), (193, 40)),
    "hidden_terminal": ((2, 3), (7, 10), (122, 40)),
    "photothermal": ((52, 3), (66, 10), (109, 40)),
}


def gapped_config(scenario: str) -> WorldConfig:
    return dataclasses.replace(default_config(scenario),
                               laser_gaps=GAPS[scenario])


def all_digests() -> dict[str, list[str]]:
    return {f"{scenario}/{protocol}": [
                run_digest(scenario, protocol, seed, gapped_config(scenario))
                for seed in SEEDS]
            for scenario in sorted(GAPS) for protocol in PROTOCOLS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("scenario", sorted(GAPS))
def test_gapped_power_trace_and_metrics_match_golden(golden, scenario,
                                                     protocol):
    cfg = gapped_config(scenario)
    want = golden[f"{scenario}/{protocol}"]
    got = [run_digest(scenario, protocol, seed, cfg) for seed in SEEDS]
    mismatched = [seed for seed, (a, b) in enumerate(zip(want, got)) if a != b]
    assert not mismatched, f"seeds {mismatched} changed their artifacts"


def test_golden_gaps_cover_every_case(golden):
    assert sorted(GAPS) == sorted(SCENARIO_NAMES)
    assert sorted(golden) == sorted(f"{s}/{p}" for s in GAPS
                                    for p in PROTOCOLS)
    assert all(len(v) == len(SEEDS) for v in golden.values())


@pytest.mark.parametrize("scenario", sorted(GAPS))
def test_each_gap_cuts_a_transmitting_subcycle(scenario):
    cfg = gapped_config(scenario)
    kinds = [detect_nonclock(length, cfg.clock).value
             for _, length in GAPS[scenario]]
    assert kinds == ["none", "frame_sync", "mode_toggle"]
    sub_len = cfg.clock.subcycle_len
    for protocol in PROTOCOLS:
        for seed in SEEDS:
            trace = TraceWriter("events")
            run_scenario(cfg=cfg, protocol=protocol, seed=seed, trace=trace)
            events = [json.loads(line)
                      for line in trace.getvalue().splitlines()]
            starts = {e["cycle"] for e in events if e["kind"] == "tx_start"}
            gaps = [e["cycle"] for e in events if e["kind"] == "laser_gap"]
            assert gaps == [cycle for cycle, _ in GAPS[scenario]]
            for cycle in gaps:
                # a frame starts at offset 0, before the gap, in its subcycle
                assert any(0 < cycle - s < sub_len for s in starts), (
                    protocol, seed, cycle)


def test_hidden_terminal_config_document_is_the_gapped_case():
    assert load_path(HIDDEN_TERMINAL_DOC) == gapped_config("hidden_terminal")


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=2, sort_keys=True))
