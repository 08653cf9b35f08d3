"""Tests of the benchmark itself: input generation, run accounting, artifact
digests and the traced run.

Run from the repository root with ``python -m pytest bench/tests -q``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from harness import Record, Tally  # noqa: E402
from optomac import cli, config, engine, nodes  # noqa: E402
from optomac.scenarios import run_scenario  # noqa: E402
from optomac.trace import TraceWriter  # noqa: E402


def test_patch14_inputs_are_byte_identical_for_one_seed():
    first, second = workloads.Patch14Traffic(5), workloads.Patch14Traffic(5)
    assert json.dumps(first.docs, sort_keys=True) == json.dumps(
        second.docs, sort_keys=True)
    assert ([config.dumps(c) for c in first.configs]
            == [config.dumps(c) for c in second.configs])
    assert (json.dumps(first.schedules, sort_keys=True)
            == json.dumps(second.schedules, sort_keys=True))
    other = workloads.Patch14Traffic(6)
    assert json.dumps(other.docs, sort_keys=True) != json.dumps(
        first.docs, sort_keys=True)


def test_patch14_deployment_shape():
    for cfg in workloads.Patch14Traffic(0).configs:
        kinds = [n.kind for n in cfg.nodes]
        assert len(cfg.nodes) == 14
        assert kinds.count("sensor") == 8 and kinds.count("actuator") == 6
        assert all(len(n.gains) == workloads.N_PATTERNS for n in cfg.nodes)


class FakeWorkload:
    """Two-item batches; ``problems`` and ``digests`` script the records."""

    name = "fake"

    def __init__(self, problems=None, digests=None, raise_on=None):
        self.problems = problems or {}
        self.digests = digests or {}
        self.raise_on = raise_on
        self.runs = 0

    def batch(self, i):
        return [workloads.Item((k,), f"item{k}") for k in (0, 1)]

    def execute(self, item):
        self.runs += 1
        if item.key == self.raise_on:
            raise RuntimeError("boom")
        return self.runs

    def inspect(self, item, run_no):
        digest = self.digests.get(item.key, lambda n: "same")(run_no)
        return Record(item.label, 10, digest, {},
                      list(self.problems.get(item.key, [])))


def run_fake(workload, batches=3):
    tally = Tally()

    def step(item):
        elapsed, record, _ = harness.attempt(workload, item, tally)
        return [(elapsed, record)]

    samples = harness.closed_loop(workload, 0.0, batches, step,
                                  calibrate=lambda: harness.CAL_REF_S)
    return tally, samples


def test_failed_check_counts_in_fail_ratio():
    tally, samples = run_fake(FakeWorkload(problems={(1,): ["bad status"]}))
    assert tally.attempted == 6
    assert tally.failed == 3
    assert tally.fail_ratio == pytest.approx(0.5)
    assert any("bad status" in p for p in tally.problems)
    assert len(samples.run_s) == 6


def test_repeated_digest_mismatch_counts_in_fail_ratio():
    flaky = FakeWorkload(digests={(0,): lambda n: f"run{n}"})
    tally, _ = run_fake(flaky)
    # item 0 runs three times; its second and third digests differ from the first
    assert (tally.attempted, tally.failed) == (6, 2)
    assert any("differs" in p for p in tally.problems)


def test_raising_run_counts_and_is_not_timed():
    tally, samples = run_fake(FakeWorkload(raise_on=(0,)))
    assert (tally.attempted, tally.failed) == (6, 3)
    assert len(samples.run_s) == 3


def test_clean_runs_are_correct():
    tally, _ = run_fake(FakeWorkload())
    assert (tally.attempted, tally.failed) == (6, 0)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert harness.tail(list(range(19)))[0] == "max"
    assert harness.tail(list(range(20)))[0] == "p50"
    assert harness.tail(list(range(100)))[0] == "p90"
    assert harness.tail(list(range(1000)))[0] == "p95"
    assert harness.percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_digest_covers_the_cli_artifacts():
    writer = TraceWriter(workloads.TRACE_LEVEL)
    result = run_scenario("drug_delivery", protocol="basic", seed=3,
                          trace=writer)
    expected = hashlib.sha256()
    for name, body in cli._artifact_map(result, writer).items():
        expected.update(name.encode() + b"\0" + body.encode() + b"\0")
    digest = workloads.artifacts_digest(
        writer.getvalue(), result.metrics, result.parts.memories,
        workloads.patterns_text(result.cfg, result.parts.tables))
    assert digest == expected.hexdigest()


def test_traced_run_matches_untraced_and_restores_the_program():
    workload = workloads.SeedSweep(0)
    item = workload.batch(0)[0]
    originals = (nodes.Agent.emit, engine.World.run, engine.superpose,
                 config.parse)
    plain = workload.inspect(item, workload.execute(item))
    recorder = layers.Recorder(extra_drivers=workload.drivers)
    recorder.begin_run(item.label)
    with recorder.installed():
        assert nodes.Agent.emit is not originals[0]
        outcome = workload.execute(item)
    row = recorder.end_run()
    traced = workload.inspect(item, outcome)
    assert traced.digest == plain.digest
    assert traced.counts == plain.counts
    assert (nodes.Agent.emit, engine.World.run, engine.superpose,
            config.parse) == originals
    assert row["channel.power_map_builds"] == 2
    assert row["nodes.emit_calls"] > 0
    names = {span[3] for span in recorder.spans}
    assert {"run", "build_parts", "build_world", "learning", "power_map",
            "loop", "icycle"} <= names
