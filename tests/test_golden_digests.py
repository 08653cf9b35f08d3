"""Golden digests: every scenario x protocol x seed 0-9 reproduces its bytes.

Each case runs one scenario at the ``power`` trace level (every cycle that
carries light is recorded) and hashes the trace together with
``metrics.json``, exactly as the CLI writes them.  The expected digests live
in ``golden_digests.json`` beside this file.  A change to the engine that is
meant to be behaviour-preserving must leave all of them untouched; only a
change that deliberately alters the artifacts may regenerate them with::

    PYTHONPATH=src python tests/test_golden_digests.py > tests/golden_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from optomac.config import SCENARIO_NAMES, WorldConfig
from optomac.scenarios import run_scenario
from optomac.trace import TraceWriter

GOLDEN = Path(__file__).with_name("golden_digests.json")
PROTOCOLS = ("basic", "handshake")
SEEDS = range(10)


def run_digest(scenario: str, protocol: str, seed: int,
               cfg: WorldConfig | None = None) -> str:
    """Digest of one run's power trace and metrics; ``cfg`` defaults to the
    scenario's packaged deployment."""
    trace = TraceWriter("power")
    result = run_scenario(scenario, cfg=cfg, protocol=protocol, seed=seed,
                          trace=trace)
    h = hashlib.sha256()
    h.update(trace.getvalue().encode())
    h.update((result.metrics.to_json() + "\n").encode())
    return h.hexdigest()


def all_digests() -> dict[str, list[str]]:
    return {f"{scenario}/{protocol}": [run_digest(scenario, protocol, seed)
                                      for seed in SEEDS]
            for scenario in sorted(SCENARIO_NAMES)
            for protocol in PROTOCOLS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("scenario", sorted(SCENARIO_NAMES))
def test_power_trace_and_metrics_match_golden(golden, scenario, protocol):
    want = golden[f"{scenario}/{protocol}"]
    got = [run_digest(scenario, protocol, seed) for seed in SEEDS]
    mismatched = [seed for seed, (a, b) in enumerate(zip(want, got)) if a != b]
    assert not mismatched, f"seeds {mismatched} changed their artifacts"


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(f"{s}/{p}" for s in SCENARIO_NAMES
                                    for p in PROTOCOLS)
    assert all(len(v) == len(SEEDS) for v in golden.values())


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=2, sort_keys=True))
