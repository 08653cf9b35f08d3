"""Golden digests of a long photothermal hold.

The packaged photothermal run ablates both lesions within a few instruction
cycles, so no golden digest reaches a relay retry or a long stretch of
icycles that carry no light.  Here both lesions take about a thousand
icycles of dosing at the dose cap: s2's relay request is repeated every
``nodes.REQUEST_RETRY_ICS`` through a1, and most icycles are inert.  The
lesions go dark in different icycles.

The digests hash the power-level trace and ``metrics.json`` as
``test_golden_digests.py`` does, for both protocols and seeds 0-3, and live
in ``golden_hold_digests.json`` beside this file.  Only a change that
deliberately alters what such a run does may regenerate them with::

    PYTHONPATH=src python tests/test_golden_hold_digests.py > tests/golden_hold_digests.json

``data/photothermal_hold.json`` is the same deployment as a ``--config``
document (``config.save(hold_config(), path)``).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from optomac.config import WorldConfig, load_path
from optomac.scenarios import photothermal_config
from test_golden_digests import PROTOCOLS, run_digest

GOLDEN = Path(__file__).with_name("golden_hold_digests.json")
HOLD_DOC = Path(__file__).with_name("data") / "photothermal_hold.json"
SEEDS = range(4)
DOSE_KILL = {"tumor_a": 1950.0, "tumor_b": 2050.0}
HOLD_ICS = 1400


def hold_config() -> WorldConfig:
    cfg = photothermal_config()
    return dataclasses.replace(
        cfg, max_cycles=HOLD_ICS * cfg.clock.icycle_len,
        clusters=tuple(dataclasses.replace(c, dose_kill=DOSE_KILL[c.name])
                       for c in cfg.clusters))


def all_digests() -> dict[str, list[str]]:
    cfg = hold_config()
    return {f"photothermal_hold/{protocol}": [
                run_digest("photothermal", protocol, seed, cfg)
                for seed in SEEDS]
            for protocol in PROTOCOLS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_hold_power_trace_and_metrics_match_golden(golden, protocol):
    cfg = hold_config()
    want = golden[f"photothermal_hold/{protocol}"]
    got = [run_digest("photothermal", protocol, seed, cfg) for seed in SEEDS]
    mismatched = [seed for seed, (a, b) in enumerate(zip(want, got)) if a != b]
    assert not mismatched, f"seeds {mismatched} changed their artifacts"


def test_golden_hold_covers_every_case(golden):
    assert sorted(golden) == sorted(f"photothermal_hold/{p}"
                                    for p in PROTOCOLS)
    assert all(len(v) == len(SEEDS) for v in golden.values())


def test_hold_config_document_is_the_hold_case():
    assert load_path(HOLD_DOC) == hold_config()


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=2, sort_keys=True))
