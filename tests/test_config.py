"""Deployment document schema: parsing, validation, round-trips, assembly."""

import copy
import dataclasses
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomac import cli
from optomac.antenna import SampledPatternTable
from optomac.config import (
    SCENARIO_NAMES,
    ConfigError,
    build_parts,
    dumps,
    format_address,
    load_fixture,
    load_path,
    loads,
    parse,
    parse_address,
    save,
    to_dict,
)
from optomac.scenarios import (
    clique_contention_config,
    default_config,
    drug_delivery_config,
    hidden_terminal_config,
    photothermal_config,
    run_scenario,
)


def minimal_doc() -> dict:
    return {
        "grid": {"cell_radius": 1.0, "rows": [[0, 0, 3]]},
        "nodes": [
            {"name": "s1", "address": "0001", "kind": "sensor",
             "position": [0.0, 0.0, 0.0], "recognized": ["1000"]},
            {"name": "a1", "address": "1000", "kind": "actuator",
             "position": [2.0, 0.0, 0.0], "recognized": ["0001"]},
        ],
    }


def test_parse_minimal_document():
    cfg = parse(minimal_doc())
    assert cfg.grid.cell_radius == 1.0
    assert cfg.protocol == "handshake"
    assert cfg.seed == 0
    assert [n.name for n in cfg.nodes] == ["s1", "a1"]
    assert cfg.nodes[0].recognized == (0b1000,)
    assert cfg.nodes[0].normal == (0.0, 0.0, 1.0)
    assert cfg.scenario is None


def test_address_text_forms():
    assert parse_address("1010") == 10
    assert format_address(10) == "1010"
    for bad in ("", "10", "10101", "102a", 7, None):
        with pytest.raises(ValueError):
            parse_address(bad)


@pytest.mark.parametrize("builder", [
    hidden_terminal_config, clique_contention_config, drug_delivery_config,
    photothermal_config,
])
def test_round_trip_is_lossless(builder):
    cfg = builder()
    assert parse(to_dict(cfg)) == cfg
    assert loads(dumps(cfg)) == cfg


def test_save_and_load_path(tmp_path):
    cfg = drug_delivery_config()
    path = tmp_path / "deploy.json"
    save(cfg, path)
    assert load_path(path) == cfg


def test_load_fixture_nine_node():
    cfg = load_fixture("nine_node")
    assert len(cfg.nodes) == 9
    names = {n.name for n in cfg.nodes}
    assert names == {"s1", "s2", "s3", "s4", "s5", "a1", "a2", "a3", "a4"}
    assert all(n.gains is not None for n in cfg.nodes)


def test_load_fixture_parses_once_per_process():
    # a WorldConfig is frozen down to its tuples, so one parse is shared
    first = load_fixture("nine_node")
    assert load_fixture("nine_node") is first
    text = (resources.files("optomac").joinpath("fixtures")
            .joinpath("nine_node.json").read_text())
    assert loads(text) == first


def test_invalid_json_is_a_config_error():
    with pytest.raises(ConfigError, match="invalid JSON"):
        loads("{not json")


def test_all_violations_reported_at_once():
    doc = {
        "grid": {"cell_radius": -1.0, "rows": [[0, 0, 3]]},
        "seed": -5,
        "protocol": "token-ring",
        "scenario": "laser-tag",
        "max_cycles": 0,
        "surprise": 1,
        "controller_hears": ["ghost"],
        "laser_gaps": [[0]],
        "nodes": [
            {"name": "s1", "address": "1111", "kind": "sensor",
             "position": [0, 0, 0]},
            {"name": "s2", "address": "0001", "kind": "actuator",
             "position": [0, 0, 0]},
            {"name": "s2", "address": "0001", "kind": "sensor",
             "position": [1, 0, 0], "recognized": ["0111", "0010"]},
        ],
        "clusters": [
            {"name": "c", "position": [0, 0, 0], "kind": "gamma",
             "attached": "nobody"},
            {"name": "c", "position": [0, 0, 0]},
        ],
    }
    with pytest.raises(ConfigError) as err:
        parse(doc)
    text = str(err.value)
    violations = err.value.violations
    assert len(violations) >= 12
    for needle in (
        "grid.cell_radius",
        "seed: must be a non-negative integer",
        "protocol",
        "scenario: unknown scenario name 'laser-tag'",
        "max_cycles",
        "surprise: unknown top-level key",
        "controller_hears: no node named 'ghost'",
        "laser_gaps",
        "address: 1111 is reserved",
        "kind 'actuator' contradicts address class bit 0001",
        "duplicate address 0001 shared by nodes 's2' and 's2'",
        "duplicate name 's2'",
        "recognized recipient 0111 does not match any node",
        "recognized recipient 0010 does not match any node",
        "clusters[0] (c).kind",
        "clusters[0] (c).attached: no node named 'nobody'",
        "clusters: duplicate name 'c'",
    ):
        assert needle in text, f"missing violation: {needle}"


def test_same_class_command_pair_rejected():
    doc = minimal_doc()
    doc["nodes"][0]["recognized"] = ["0010"]
    doc["nodes"].append({"name": "s2", "address": "0010", "kind": "sensor",
                         "position": [1.0, 0.0, 0.0]})
    with pytest.raises(ConfigError, match="wrong class bit"):
        parse(doc)


def test_controller_address_reserved():
    doc = minimal_doc()
    doc["nodes"][1]["address"] = "1110"
    with pytest.raises(ConfigError, match="reserved"):
        parse(doc)


def test_clock_and_channel_sections_validated():
    doc = minimal_doc()
    doc["clock"] = {"guard_bits": -1, "warp": 9}
    doc["channel"] = {"mu": -1.0}
    with pytest.raises(ConfigError) as err:
        parse(doc)
    text = str(err.value)
    assert "clock.warp: unknown key" in text
    assert "clock: guard_bits must be non-negative" in text
    assert "channel: mu must be non-negative" in text


def test_pattern_grid_must_divide_circle():
    doc = minimal_doc()
    doc["nodes"][0]["patterns"] = {"azimuth_step_deg": 7.0,
                                   "gains": [[1.0] * 51]}
    with pytest.raises(ConfigError, match="azimuth_step_deg"):
        parse(doc)
    doc["nodes"][0]["patterns"] = {"azimuth_step_deg": 90.0,
                                   "gains": [[1.0, 1.0, -1.0, 1.0]]}
    with pytest.raises(ConfigError, match="non-negative"):
        parse(doc)


def test_unknown_node_key_rejected():
    doc = minimal_doc()
    doc["nodes"][0]["colour"] = "blue"
    with pytest.raises(ConfigError, match="colour: unknown key"):
        parse(doc)


def test_bool_is_not_a_seed():
    doc = minimal_doc()
    doc["seed"] = True
    with pytest.raises(ConfigError, match="seed"):
        parse(doc)


def test_build_parts_tables():
    doc = minimal_doc()
    doc["nodes"][0]["patterns"] = {
        "azimuth_step_deg": 90.0,
        "gains": [[1.0, 2.0, 3.0, 4.0], [0.5, 0.5, 0.5, 0.5]],
    }
    cfg = parse(doc)
    parts = build_parts(cfg)
    assert isinstance(parts.tables["s1"], SampledPatternTable)
    assert parts.tables["s1"].n_patterns == 2
    assert parts.tables["s1"].gain(0, (0.0, 1.0, 0.0)) == pytest.approx(2.0)
    # nodes without profiles fall back to an isotropic table of unit gain,
    # exact in every direction
    flat = parts.tables["a1"]
    assert isinstance(flat, SampledPatternTable)
    assert flat.n_patterns == 4
    for direction in ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (-0.6, 0.8, 0.0),
                      (0.0, 0.0, 1.0), (1.0, -1e-12, 0.0)):
        assert flat.gain(3, direction) == 1.0
    with pytest.raises(IndexError):
        flat.gain(4, (1.0, 0.0, 0.0))
    assert parts.memories["s1"].recognized == {0b1000}
    assert parts.memories["a1"].is_actuator


def test_tables_and_packaged_configs_are_built_once_per_process():
    # nothing writes to a config or a gain table, so runs share them;
    # memories are written by learning, so each run gets its own, and its
    # own poses too
    cfg = default_config("photothermal")
    assert default_config("photothermal") is cfg
    first, second = build_parts(cfg), build_parts(cfg)
    for spec in cfg.nodes:
        assert first.tables[spec.name] is second.tables[spec.name]
        assert first.tables[spec.name] is spec.table
        assert first.poses[spec.name] is not second.poses[spec.name]
        assert first.memories[spec.name] is not second.memories[spec.name]


def test_a_replaced_spec_gets_its_own_table():
    doc = minimal_doc()
    doc["nodes"][0]["patterns"] = {"azimuth_step_deg": 90.0,
                                   "gains": [[1.0, 2.0, 3.0, 4.0]]}
    spec = parse(doc).nodes[0]
    table = spec.table
    doubled = dataclasses.replace(
        spec, gains=tuple(tuple(2.0 * g for g in row) for row in spec.gains))
    assert doubled.table is not table
    assert doubled.table.gains == ((2.0, 4.0, 6.0, 8.0),)
    assert spec.table is table
    assert table.gains == ((1.0, 2.0, 3.0, 4.0),)
    # a spec with equal fields but its own identity builds its own table
    assert dataclasses.replace(spec).table is not table


def test_dumps_is_canonical_json():
    cfg = parse(minimal_doc())
    body = json.loads(dumps(cfg))
    assert body["nodes"][0]["address"] == "0001"
    assert sorted(body) == list(body)  # sort_keys


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            yield from _leaf_paths(child, path + (idx,))
    else:
        yield path


SCENARIO_DOCS = {name: to_dict(default_config(name))
                 for name in SCENARIO_NAMES}
ODD_VALUES = [0, -1, 1.5, 1e-9, 1e9, math.nan, math.inf, -math.inf, True,
              "1", None,
              # subnormal, huge finite and beyond float range; not ASCII
              5e-324, 1e-320, 1e200, 1.7e308, 10**400, "s\u00e9"]
FUZZ_CYCLES = 480
# depths and normals a node may be moved to: the packaged deployments put
# every node at z = 0 facing up, so only these light bottom detectors
DEPTHS = (0.0, 0.5, -0.5)
NORMALS = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 1.0))


def _leaves(doc):
    """Leaf paths of a document.  A gain table holds 4 x 72 alike entries;
    its first one stands for all, so the draws spread over the leaves that
    differ in kind."""
    return [p for p in _leaf_paths(doc)
            if "gains" not in p or p[-2:] == (0, 0)]


def _drop_node(doc, idx):
    """Remove a node and every reference to it, so the rest still holds."""
    gone = doc["nodes"].pop(idx)
    for node in doc["nodes"]:
        node["recognized"] = [a for a in node["recognized"]
                              if a != gone["address"]]
    if "controller_hears" in doc:
        doc["controller_hears"] = [n for n in doc["controller_hears"]
                                   if n != gone["name"]]
    for cluster in doc.get("clusters", []):
        if cluster.get("attached") == gone["name"]:
            del cluster["attached"]


def _add_node(doc, idx, offset):
    """Copy a node under a fresh name and the lowest free address of its
    class, moved by ``offset`` in the plane."""
    twin = copy.deepcopy(doc["nodes"][idx])
    used = {node["address"] for node in doc["nodes"]}
    actuator = twin["kind"] == "actuator"
    # 1110 and 1111 are reserved
    free = [format_address(a) for a in range(0b1110)
            if (a >= 0b1000) == actuator and format_address(a) not in used]
    if not free:
        return
    twin["name"] = "extra"
    twin["address"] = free[0]
    twin["position"] = [twin["position"][0] + offset[0],
                        twin["position"][1] + offset[1],
                        twin["position"][2]]
    doc["nodes"].append(twin)


def _edited_document(data):
    """A packaged scenario's document after structural edits (a node
    dropped or added, a node's ``recognized`` emptied, each node's depth and
    normal (up, down or tilted), random laser gaps) and up to two odd leaf
    values, each drawn from ``data``."""
    name = data.draw(st.sampled_from(SCENARIO_NAMES), label="scenario")
    doc = copy.deepcopy(SCENARIO_DOCS[name])
    n = len(doc["nodes"])
    edit = data.draw(st.sampled_from(("keep", "drop", "add")), label="edit")
    if edit == "drop":
        _drop_node(doc, data.draw(st.integers(0, n - 1), label="node"))
    elif edit == "add":
        _add_node(doc, data.draw(st.integers(0, n - 1), label="node"),
                  data.draw(st.tuples(st.floats(-1.5, 1.5),
                                      st.floats(-1.5, 1.5)), label="offset"))
    if doc["nodes"] and data.draw(st.booleans(), label="clear recognized"):
        idx = data.draw(st.integers(0, len(doc["nodes"]) - 1), label="of")
        doc["nodes"][idx]["recognized"] = []
    if data.draw(st.booleans(), label="depths"):
        for node in doc["nodes"]:
            node["position"][2] = data.draw(st.sampled_from(DEPTHS), label="z")
            node["normal"] = list(data.draw(st.sampled_from(NORMALS),
                                            label="normal"))
    if data.draw(st.booleans(), label="gaps"):
        doc["laser_gaps"] = data.draw(st.lists(
            st.tuples(st.integers(0, FUZZ_CYCLES), st.integers(0, 40))
            .map(list), max_size=3), label="laser_gaps")
    leaves = _leaves(doc)
    for _ in range(data.draw(st.integers(0, 2), label="leaf edits")):
        path = data.draw(st.sampled_from(leaves), label="leaf")
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = data.draw(st.sampled_from(ODD_VALUES),
                                     label="value")
    return name, doc


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 3))
def test_accepted_configs_run(data, seed):
    """A document either fails validation or runs to an end status; it
    never raises else."""
    name, doc = _edited_document(data)
    try:
        cfg = parse(doc)
    except ConfigError:
        return
    # a config may leave the scenario to the command line
    result = run_scenario(name, cfg=cfg, seed=seed, max_cycles=FUZZ_CYCLES)
    assert result.status in ("ok", "timeout", "idle")



# every document the command line is run on: the packaged scenarios' and
# the test documents (laser gaps, bottom detectors, a wide grid, the hold)
CLI_DOCS = {**SCENARIO_DOCS, **{
    path.stem: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted(Path(__file__).with_name("data").glob("*.json"))}}
# exit 2 names what is wrong: each violation of a document, or the
# argument or document key a run rejects
NAMED = re.compile(r"optomac: (\d+ config violation\(s\):(\n  - \S.*)+"
                   r"|[a-z_]+: \S.*|config does not name a scenario)\n")


def _cli(argv):
    """``cli.main(argv)`` in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CLI_DOCS)), st.data())
def test_accepted_documents_run_through_the_cli(name, data):
    """With one leaf at a boundary value, a document written, then
    verified, then its patterns dumped, exits 0 or 1, or 2 with a named
    violation: each time if the document does not load, else on the run and
    verify only; it never raises."""
    doc = copy.deepcopy(CLI_DOCS[name])
    path = data.draw(st.sampled_from(_leaves(doc)), label="leaf")
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(st.sampled_from(ODD_VALUES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "deploy.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_path(config)
            loads_ok = True
        except ConfigError:
            loads_ok = False
        run = ["--config", str(config), "--seed", "0",
               "--max-cycles", str(FUZZ_CYCLES)]
        golden = str(Path(tmp) / "run")
        codes = []
        for argv in (run + ["--out", golden], run + ["--verify", golden],
                     ["--config", str(config), "--dump-patterns"]):
            code, out, err = _cli(argv)
            assert code in (0, 1, 2)
            if code == 2:
                assert NAMED.fullmatch(err), err
            codes.append(code)
    if not loads_ok:
        assert codes == [2, 2, 2]
    elif codes[0] == 2:
        # a document that loads but that the run rejects (one that names
        # no scenario, say) still has its patterns printed
        assert codes == [2, 2, 0]
    else:
        # the artifacts reproduce, and the patterns print
        assert codes[1:] == [0, 0]
