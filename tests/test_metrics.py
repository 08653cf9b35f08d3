"""Metrics: the bytes of ``metrics.json`` for every shape of record."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomac.metrics import Metrics

# names with quotes, backslashes, control and non-ASCII characters, and
# ones spelled like the separators of the encoded text
NAMES = st.text(max_size=6) | st.sampled_from(
    ('a"b', "back\\slash", "tab\there", "ñodo", "节点", "\U0001f52c", "",
     "a, ", '}, {"', "},\n      {", "line\nbreak"))
INTS = st.integers(-10**20, 10**20)
FLOATS = st.floats() | st.sampled_from(
    (1e-7, 1e16, -0.0, 0.1, float("nan"), float("inf"), float("-inf")))
SCALARS = st.none() | st.booleans() | INTS | FLOATS | NAMES
VALUES = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=3)
    | st.dictionaries(NAMES, inner, max_size=3)), max_leaves=8)
# a value of the wrong type, often one equal to a right one
WRONG = (st.booleans() | st.none() | st.sampled_from((1.0, 0.0, 2, "1"))
         | VALUES)

# each record kind with the type of each value, as the runs write them
SHAPES = {
    "actuations": {"actuator": NAMES, "commander": NAMES, "cycle": INTS,
                   "stage": INTS},
    "doses": {"cluster": NAMES, "cycle": INTS, "dose": FLOATS,
              "position": INTS},
    "latencies": {"cycles": INTS, "kind": NAMES, "node": NAMES},
    "timeouts": {"cycle": INTS, "node": NAMES, "waited": NAMES},
}


@st.composite
def records(draw, kind: str):
    """A record of ``kind``: mostly of its shape, else with a value of
    another type, a key more or a key less, or (except a dose, which
    ``total_dose`` reads) empty or not a dict at all."""
    shape = SHAPES[kind]
    record = {key: draw(values) for key, values in shape.items()}
    change = draw(st.sampled_from(("none", "none", "value", "extra",
                                   "missing", "empty", "other")))
    if change == "value":
        record[draw(st.sampled_from(sorted(shape)))] = draw(WRONG)
    elif change == "extra":
        record[draw(NAMES)] = draw(VALUES)
    elif change == "missing":
        del record[draw(st.sampled_from(sorted(set(shape) - {"dose"})))]
    elif change == "empty" and kind != "doses":
        return {}
    elif change == "other" and kind != "doses":
        return draw(VALUES)
    if kind == "doses":
        # the summary sums the doses
        record["dose"] = draw(INTS | FLOATS | st.booleans())
    # in any key order, as the runs write them
    return dict(draw(st.permutations(list(record.items()))))


@settings(max_examples=300, deadline=None)
@given(st.fixed_dictionaries({kind: st.lists(records(kind), max_size=4)
                              for kind in SHAPES}),
       st.sampled_from(sorted(SHAPES)) | st.none())
def test_metrics_json_is_what_json_dumps_writes(lists, as_tuple):
    metrics = Metrics(**lists)
    if as_tuple is not None:
        # a tuple is written as a list
        setattr(metrics, as_tuple, tuple(getattr(metrics, as_tuple)))
    assert metrics.to_json() == dumped(metrics)


# one record of each kind, of its shape
SAMPLES = {
    "actuations": {"actuator": "a1", "commander": "s1", "cycle": 35,
                   "stage": 1},
    "doses": {"cluster": "c1", "cycle": 47, "dose": 0.25, "position": 3},
    "latencies": {"cycles": 12, "kind": "serve", "node": "s1"},
    "timeouts": {"cycle": 95, "node": "s2", "waited": "await_ack"},
}


def dumped(metrics: Metrics) -> str:
    return json.dumps({
        "summary": metrics.summary(), "doses": metrics.doses,
        "actuations": metrics.actuations, "latencies": metrics.latencies,
        "timeouts": metrics.timeouts}, indent=2, sort_keys=True)


@pytest.mark.parametrize("kind,key", [(kind, key) for kind in SHAPES
                                      for key in sorted(SHAPES[kind])])
def test_a_value_of_another_type_is_written_as_json_dumps_writes(kind, key):
    # values equal to or spelled like a right one, and a list and a dict,
    # which must leave the C encoder's path for ``json.dumps``
    for value in (True, False, None, 1.0, 2, "1", float("nan"),
                  float("inf"), [1], {"k": 1}):
        if key == "dose" and type(value) not in (bool, int, float):
            continue  # the summary sums the doses
        record = dict(SAMPLES[kind], **{key: value})
        metrics = Metrics(**{kind: [SAMPLES[kind], record]})
        assert metrics.to_json() == dumped(metrics), value


def test_records_spell_values_as_the_encoder():
    metrics = Metrics(
        doses=[{"cluster": "ñ\"1", "cycle": 10**17, "dose": d, "position": -1}
               for d in (1e-7, 1e16, -0.0, 0.1, 2.0)],
        actuations=[{"actuator": "节点", "commander": "\U0001f52c",
                     "cycle": 0, "stage": 2}],
        latencies=[{"cycles": 3, "kind": "serve", "node": "s\t1"}],
        timeouts=[{"cycle": 5, "node": "c1", "waited": "dose"}])
    text = metrics.to_json()
    assert text == dumped(metrics)
    assert '"dose": 1e-07' in text and '"dose": 1e+16' in text
    assert '"dose": -0.0' in text and '"node": "s\\t1"' in text
    assert '"actuator": "\\u8282\\u70b9"' in text
