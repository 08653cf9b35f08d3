"""Command line front end: artifacts, verification, sweeps, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optomac
from optomac import cli
from optomac.cli import ARTIFACTS, _parse_seeds, _patterns_text, main
from optomac.config import save, to_dict
from optomac.scenarios import (
    drug_delivery_config,
    hidden_terminal_config,
    photothermal_config,
    run_scenario,
)

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


@pytest.mark.parametrize("argv", [
    ["--scenario", "clique_contention", "--seeds", "0..2"],
    # every run times out: without --verify each one counts as a failure
    ["--scenario", "hidden_terminal", "--protocol", "handshake",
     "--seeds", "0..1", "--max-cycles", "48"],
])
def test_a_sweep_prints_the_same_without_out(argv, tmp_path, capsys):
    code = main(argv)
    printed = capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "sweep")]) == code
    assert capsys.readouterr() == printed
    assert code == (1 if "--max-cycles" in argv else 0)


def test_dump_patterns(capsys):
    assert main(["--scenario", "drug_delivery", "--dump-patterns"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("node s1 address 0001\n")
    assert "node a1 address 1000" in out
    assert "pattern 0 mask -" in out


def test_dump_patterns_to_a_text_only_stream():
    # an in-process caller may redirect stdout to a stream without a
    # byte buffer; the text goes there
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--scenario", "drug_delivery", "--dump-patterns"]) == 0
    assert out.getvalue() == _patterns_text(drug_delivery_config())


def test_a_run_without_artifacts_builds_no_trace_text(tmp_path, capsys,
                                                     monkeypatch):
    # without --out or --verify nothing reads the trace, so none is
    # written; what the run prints is the same
    built = []

    class CountingWriter(cli.TraceWriter):
        def __init__(self, level="events"):
            built.append(level)
            super().__init__(level)

    monkeypatch.setattr(cli, "TraceWriter", CountingWriter)
    argv = ["--config", str(Path(__file__).with_name("data")
                            / "photothermal_hold.json"), "--seeds", "0..2"]
    assert main(argv) == 0
    printed = capsys.readouterr()
    assert built == []
    assert main(argv + ["--out", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr() == printed
    assert built == ["events"] * 3


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
    ["--scenario", "drug_delivery", "--seed", "-3"],
    ["--scenario", "drug_delivery", "--seeds=-2..0"],
    ["--scenario", "drug_delivery", "--max-cycles", "0"],
    ["--scenario", "drug_delivery", "--max-cycles", "-50"],
])
def test_usage_errors_exit_two(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("optomac: ")


def _without_lesion():
    cfg = drug_delivery_config()
    return dataclasses.replace(cfg, clusters=tuple(
        c for c in cfg.clusters if c.kind != "fluorescent"))


def _nobody_recognized():
    cfg = hidden_terminal_config()
    return dataclasses.replace(cfg, nodes=tuple(
        dataclasses.replace(n, recognized=()) for n in cfg.nodes))


@pytest.mark.parametrize("builder", [
    lambda: dataclasses.replace(photothermal_config(), clusters=()),
    _without_lesion,
    _nobody_recognized,
], ids=["photothermal-no-clusters", "drug_delivery-no-lesion",
        "hidden_terminal-nobody-recognized"])
def test_nothing_to_do_ends_idle(tmp_path, capsys, builder):
    cfg = builder()
    r = run_scenario(cfg=cfg, seed=0)
    assert (r.status, r.icycles) == ("idle", 0)
    path = tmp_path / "deploy.json"
    save(cfg, path)
    assert main(["--config", str(path), "--seed", "0"]) == 1
    assert " status=idle icycles=0 " in capsys.readouterr().out


def test_invalid_config_document_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"nodes": []}')
    assert main(["--config", str(path)]) == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("bits", [10, 12])
def test_frame_length_mismatch_exits_two(tmp_path, capsys, bits):
    # The frame length is derived, so any stated clock.bits_per_frame is
    # refused rather than checked against it.
    path = tmp_path / "deploy.json"
    save(drug_delivery_config(), path)
    doc = json.loads(path.read_text())
    doc["clock"]["bits_per_frame"] = bits
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("optomac: ")
    assert "clock.bits_per_frame: unknown key" in err


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


def _edited_drug_delivery(tmp_path, path, value):
    """Write the drug-delivery document with the value at ``path`` (keys
    and list indices; the empty path replaces the whole document)."""
    root = {"doc": to_dict(drug_delivery_config())}
    *parents, last = ("doc",) + path
    target = root
    for key in parents:
        target = target[key]
    target[last] = value
    config_path = tmp_path / "deploy.json"
    config_path.write_text(json.dumps(root["doc"]))
    return config_path


@pytest.mark.parametrize("path,value,message", [
    (("clock", "guard_bits"), 1.5, "clock: guard_bits must be an integer"),
    (("nodes", 0, "position"), [0.0, math.inf, 0.0],
     "nodes[0] (s1).position: must be [x, y, z]"),
    (("nodes", 0, "position"), [math.nan, 0.0, 0.0],
     "nodes[0] (s1).position: must be [x, y, z]"),
    (("nodes", 0, "patterns"), {"azimuth_step_deg": math.inf, "gains": [[]]},
     "nodes[0] (s1).patterns.azimuth_step_deg: must evenly divide 360"),
    (("nodes", 0, "patterns", "azimuth_step_deg"), math.nan,
     "nodes[0] (s1).patterns.azimuth_step_deg: must evenly divide 360"),
    # 360 over a subnormal step is infinite: no count of azimuths
    (("nodes", 0, "patterns", "azimuth_step_deg"), 5e-324,
     "nodes[0] (s1).patterns.azimuth_step_deg: must evenly divide 360"),
    (("nodes", 0, "patterns", "azimuth_step_deg"), 1e-320,
     "nodes[0] (s1).patterns.azimuth_step_deg: must evenly divide 360"),
    (("grid", "cell_radius"), math.inf,
     "grid.cell_radius: must be a positive number"),
    (("channel", "mu"), math.nan, "channel: mu must be a finite number"),
    (("clusters", 0, "emit_power"), math.nan,
     "clusters[0] (lesion).emit_power: must be a non-negative number"),
    (("nodes", 1, "position"), [0.0, 0.0, 0.0],
     "nodes 's1' and 'a1' share position [0.0, 0.0, 0.0]"),
    # distinct positions whose squared distance underflows to 0
    (("nodes", 1, "position"), [0.0, 3e-183, 0.0],
     "nodes 's1' and 'a1' are too close"),
    (("laser_gaps",), [[40, 3], [0, 10], [5, 8]],
     "laser_gaps: [0, 10] and [5, 8] overlap"),
    # values of the wrong JSON type; the empty path is the document root
    ((), [], "document root must be an object"),
    (("clock",), [], "clock: must be an object"),
    (("channel",), 1.0, "channel: must be an object"),
    (("nodes",), {}, "nodes: must be a list"),
    (("nodes", 0), "s1", "nodes[0]: must be an object"),
    (("nodes", 0, "recognized"), "1000",
     "nodes[0] (s1).recognized: must be a list of addresses"),
    (("nodes", 0, "patterns"), [],
     "nodes[0] (s1).patterns: must be an object"),
    (("controller_hears",), "a1",
     "controller_hears: must be a list of node names"),
    (("clusters",), {}, "clusters: must be a list"),
    (("clusters", 0), "lesion", "clusters[0]: must be an object"),
    (("clusters", 0, "colour"), "red",
     "clusters[0] (lesion).colour: unknown key"),
    (("clusters", 0, "name"), "", "clusters[0].name: required non-empty"),
    (("grid", "rows"), [[0, 0, 3], [0, 0, 3]],
     "grid: row r values must be strictly increasing"),
], ids=["guard_bits-1.5", "position-inf", "position-nan", "step-inf",
        "step-nan", "step-5e-324", "step-1e-320", "cell_radius-inf",
        "mu-nan", "emit_power-nan", "coincident-nodes",
        "nodes-at-distance-0", "overlapping-gaps", "root-list", "clock-list",
        "channel-number", "nodes-object",
        "node-string", "recognized-string", "patterns-list",
        "controller_hears-string", "clusters-object", "cluster-string",
        "cluster-unknown-key", "cluster-no-name", "rows-repeated"])
def test_unrunnable_values_exit_two(tmp_path, capsys, path, value, message):
    # json writes and reads NaN and Infinity; none of these may reach a run
    config_path = _edited_drug_delivery(tmp_path, path, value)
    assert main(["--config", str(config_path), "--seed", "0"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path,value", [
    (("grid", "cell_radius"), 1e-320),
    (("nodes", 0, "normal"), [0.0, 0.0, 1e-200]),
    (("nodes", 1, "normal"), [1e200, 0.0, 0.0]),
], ids=["cell_radius-subnormal", "normal-tiny", "normal-huge"])
def test_extreme_values_that_validate_run(tmp_path, capsys, path, value):
    # squares and quotients of these values leave float range; the values
    # validate, so a run ends with a status and the patterns print
    config_path = _edited_drug_delivery(tmp_path, path, value)
    out = tmp_path / "run"
    assert main(["--config", str(config_path), "--seed", "0",
                 "--out", str(out)]) in (0, 1)
    assert "status=" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    assert main(["--config", str(config_path), "--dump-patterns"]) == 0
    assert capsys.readouterr().out.startswith("node s1 address 0001\n")


def test_a_seed_range_stays_a_range():
    assert _parse_seeds("3..5") == range(3, 6)
    assert _parse_seeds("0..0") == range(0, 1)


# Runs the command line in a fresh interpreter in which any import of numpy
# raises ImportError; prints each run's exit code as one JSON list.
_WITHOUT_NUMPY = """\
import json, sys
sys.modules["numpy"] = None
from optomac.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def _fresh_python(*args: str, **environ: str) -> bytes:
    src = str(Path(optomac.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, timeout=300)
    return done.stdout


def test_import_leaves_numpy_out():
    assert _fresh_python(
        "-c", "import sys, optomac; print('numpy' in sys.modules)"
    ).strip() == b"False"


def test_runs_need_no_numpy(tmp_path, capsys):
    # the bump rows of hidden_terminal, the stimulus distances of
    # drug_delivery and a document's own gain tables, under both protocols
    layered = Path(__file__).parent / "data" / "hidden_terminal_layered.json"
    inputs = {"hidden_terminal": ["--scenario", "hidden_terminal"],
              "drug_delivery": ["--scenario", "drug_delivery"],
              "layered": ["--config", str(layered)]}
    runs = [(f"{name}-{protocol}", [*argv, "--protocol", protocol,
                                    "--seed", "1"])
            for name, argv in inputs.items()
            for protocol in ("basic", "handshake")]
    fresh = [argv + ["--out", str(tmp_path / "fresh" / label)]
             for label, argv in runs]
    codes = _fresh_python("-c", _WITHOUT_NUMPY, json.dumps(fresh))
    assert json.loads(codes.splitlines()[-1]) == [0] * len(runs)
    for label, argv in runs:
        here = tmp_path / "here" / label
        assert main(argv + ["--out", str(here)]) == 0
        for name in ARTIFACTS:
            assert (tmp_path / "fresh" / label / name).read_bytes() == \
                (here / name).read_bytes(), (label, name)
    capsys.readouterr()


# An ASCII locale with neither UTF-8 mode nor locale coercion: files opened
# without an encoding would be read and written as ASCII.
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _non_ascii_document(tmp_path) -> Path:
    """The drug-delivery document with s1 renamed "s\u00e9", as raw UTF-8,
    as an editor saves it, not as JSON escapes."""
    cfg = drug_delivery_config()
    nodes = tuple(dataclasses.replace(n, name="s\u00e9") if n.name == "s1"
                  else n for n in cfg.nodes)
    doc = tmp_path / "deploy.json"
    doc.write_bytes(json.dumps(to_dict(dataclasses.replace(cfg, nodes=nodes)),
                               ensure_ascii=False).encode("utf-8"))
    return doc


def test_documents_and_artifacts_are_utf8_whatever_the_locale(tmp_path):
    doc = _non_ascii_document(tmp_path)
    run = ["-m", "optomac.cli", "--config", str(doc), "--seed", "0"]
    ascii_out, utf8_out = tmp_path / "ascii", tmp_path / "utf8"
    # check=True: a non-zero exit fails the test
    _fresh_python(*run, "--out", str(ascii_out), **_ASCII_LOCALE)
    _fresh_python(*run, "--verify", str(ascii_out), **_ASCII_LOCALE)
    _fresh_python(*run, "--out", str(utf8_out),
                  **dict(_ASCII_LOCALE, PYTHONUTF8="1"))
    memory = (ascii_out / "memory.txt").read_bytes()
    assert "node s\u00e9".encode("utf-8") in memory
    for name in ARTIFACTS:
        assert (ascii_out / name).read_bytes() == \
            (utf8_out / name).read_bytes(), name


def test_dumped_patterns_are_utf8_whatever_the_locale(tmp_path):
    run = ["-m", "optomac.cli", "--config", str(_non_ascii_document(tmp_path)),
           "--dump-patterns"]
    # check=True: a non-zero exit fails the test
    ascii_out = _fresh_python(*run, **_ASCII_LOCALE)
    assert ascii_out == _fresh_python(*run,
                                      **dict(_ASCII_LOCALE, PYTHONUTF8="1"))
    assert ascii_out.startswith("node s\u00e9 address 0001\n".encode("utf-8"))
