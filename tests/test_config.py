"""Deployment document schema: parsing, validation, round-trips, assembly."""

import copy
import dataclasses
import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomac.antenna import SampledPatternTable
from optomac.config import (
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
    # nothing writes to a config or a gain table, so runs share them; poses
    # and memories are written by learning, so each run gets its own
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
    assert doubled.table.gains.tolist() == [[2.0, 4.0, 6.0, 8.0]]
    assert spec.table is table
    assert table.gains.tolist() == [[1.0, 2.0, 3.0, 4.0]]
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


DRUG_DOC = to_dict(drug_delivery_config())
# A gain table holds 4 x 72 alike entries; its first one stands for all, so
# the draws spread over the leaves that differ in kind.
DRUG_LEAVES = [p for p in _leaf_paths(DRUG_DOC)
               if "gains" not in p or p[-2:] == (0, 0)]
ODD_VALUES = [0, -1, 1.5, 1e-9, 1e9, math.nan, math.inf, -math.inf, True,
              "1", None]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DRUG_LEAVES),
                          st.sampled_from(ODD_VALUES)),
                min_size=1, max_size=3))
def test_accepted_configs_run(edits):
    """A document either fails validation or runs; it never raises else."""
    doc = copy.deepcopy(DRUG_DOC)
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    try:
        cfg = parse(doc)
    except ConfigError:
        return
    # a config may leave the scenario to the command line
    run_scenario("drug_delivery", cfg=cfg, seed=0, max_cycles=480)
