"""Command line front end: artifacts, verification, sweeps, exit codes."""

import dataclasses
import json

import pytest

from optomac.cli import ARTIFACTS, main
from optomac.config import save
from optomac.scenarios import drug_delivery_config

EXPECTED_SUMMARY = ("drug_delivery protocol=handshake seed=0 status=ok "
                    "icycles=5 issued=2 delivered=2 requests=0/0 ratio=1.000 "
                    "exits=0 retries=0 dose=0")


def test_scenario_run_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["--scenario", "drug_delivery", "--seed", "0",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == EXPECTED_SUMMARY
    for name in ARTIFACTS:
        assert (out / name).is_file(), name

    first = json.loads((out / "trace.jsonl").read_text().splitlines()[0])
    assert first["kind"] == "run_start"
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["summary"]["delivered"] == 2
    assert "node s1" in (out / "memory.txt").read_text()
    assert "pattern 0 mask" in (out / "patterns.txt").read_text()


def test_config_file_round_trips_through_cli(tmp_path):
    path = tmp_path / "deploy.json"
    save(drug_delivery_config(), path)
    assert main(["--config", str(path), "--seed", "0"]) == 0


def test_verify_accepts_matching_goldens(tmp_path, capsys):
    golden = tmp_path / "golden"
    argv = ["--scenario", "drug_delivery", "--seed", "3"]
    assert main(argv + ["--out", str(golden)]) == 0
    assert main(argv + ["--verify", str(golden)]) == 0
    assert "verify: artifacts match" in capsys.readouterr().out


def test_verify_flags_tampered_trace(tmp_path, capsys):
    golden = tmp_path / "golden"
    argv = ["--scenario", "drug_delivery", "--seed", "3"]
    assert main(argv + ["--out", str(golden)]) == 0
    trace = golden / "trace.jsonl"
    trace.write_text(trace.read_text() + '{"cycle": 0, "kind": "bogus"}\n')
    assert main(argv + ["--verify", str(golden)]) == 1
    err = capsys.readouterr().err
    assert "trace.jsonl: differs from golden" in err


def test_verify_requires_some_goldens(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["--scenario", "drug_delivery", "--verify", str(empty)]) == 1
    assert "contains none of" in capsys.readouterr().err


def test_seed_sweep_writes_per_seed_directories(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["--scenario", "clique_contention", "--seeds", "0..2",
                 "--out", str(out)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
    for seed in (0, 1, 2):
        for name in ARTIFACTS:
            assert (out / f"seed-{seed}" / name).is_file()


def test_dump_patterns(capsys):
    assert main(["--scenario", "drug_delivery", "--dump-patterns"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("node s1 address 0001\n")
    assert "node a1 address 1000" in out
    assert "pattern 0 mask -" in out


def test_dump_patterns_needs_no_scenario(tmp_path, capsys):
    path = tmp_path / "deploy.json"
    save(dataclasses.replace(drug_delivery_config(), scenario=None), path)
    assert main(["--config", str(path), "--dump-patterns"]) == 0
    assert capsys.readouterr().out.startswith("node s1 address 0001\n")


def test_timeout_exits_nonzero(capsys):
    assert main(["--scenario", "hidden_terminal", "--protocol", "handshake",
                 "--seed", "0", "--max-cycles", "48"]) == 1
    assert "status=timeout" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    [],                                     # neither --config nor --scenario
    ["--scenario", "drug_delivery", "--seeds", "5..1"],
    ["--scenario", "drug_delivery", "--seeds", "7"],
    ["--scenario", "drug_delivery", "--seeds", "0..x"],
    ["--config", "/nonexistent/deploy.json"],
])
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("optomac: ")


def test_invalid_config_document_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": []}')
    assert main(["--config", str(path)]) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("bits", [10, 12])
def test_frame_length_mismatch_exits_two(tmp_path, capsys, bits):
    path = tmp_path / "deploy.json"
    save(drug_delivery_config(), path)
    doc = json.loads(path.read_text())
    doc["clock"]["bits_per_frame"] = bits
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("optomac: ")
    assert f"clock.bits_per_frame: must be the frame length 2*4+3 = 11, " \
           f"got {bits}" in err


@pytest.mark.parametrize("section,key", [("clock", "pulse_rate_hz"),
                                         ("channel", "fluor_power"),
                                         ("channel", "theta_command")])
def test_removed_keys_exit_two(tmp_path, capsys, section, key):
    path = tmp_path / "deploy.json"
    save(drug_delivery_config(), path)
    doc = json.loads(path.read_text())
    doc[section][key] = 1e-4
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--seed", "0"]) == 2
    assert f"{section}.{key}: unknown key" in capsys.readouterr().err
