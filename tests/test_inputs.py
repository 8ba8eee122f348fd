"""Every input reader refuses every malformed shape of its input with a
ValueError: the CLI turns that into one ``error:`` line and exit 2."""

import json
import math

import pytest

from spo_bounds._inputs import _read_array
from spo_bounds.bounds import BoundInputs
from spo_bounds.complexity import FiniteHypothesisSet
from spo_bounds.geometry import CostDomain, UnitSimplex, region_from_dict
from spo_bounds.harness import ExperimentConfig
from spo_bounds.losses import LabeledSample

RAGGED = [[1.0], [1.0, 2.0]]
SIMPLEX = {"kind": "UnitSimplex", "dim": 2}
BALL_DOMAIN = {"kind": "ball", "radius": 1.0}


def domain(data):
    return CostDomain.from_dict(UnitSimplex(2), data)


#: each JSON-object reader: (read, a valid input, its required key, the key
#: of a number slot, the key of an array slot)
OBJECT_READERS = {
    "VertexPolytope": (region_from_dict, {"kind": "VertexPolytope",
                                          "vertices": [[0.0, 0.0], [1.0, 0.0]]},
                       "vertices", "dim", "vertices"),
    "UnitSimplex": (region_from_dict, SIMPLEX, "dim", "dim", "dim"),
    "DagPathPolytope": (region_from_dict, {"kind": "DagPathPolytope", "nodes": 2,
                                           "arcs": [[0, 1]], "source": 0, "sink": 1},
                        "arcs", "nodes", "arcs"),
    "LqBall": (region_from_dict, {"kind": "LqBall", "q": 2.0, "radius": 1.0,
                                  "center": [0.0, 0.0], "mu": 1.0},
               "center", "radius", "center"),
    "ball domain": (domain, BALL_DOMAIN, "radius", "radius", "radius"),
    "enumerated domain": (domain, {"kind": "enumerated", "members": [[1.0, 0.0]]},
                          "members", None, "members"),
    "sample": (lambda data: LabeledSample.from_json(json.dumps(data)),
               {"xs": [[1.0]], "cs": [[1.0, 0.0]]}, "cs", None, "xs"),
    "bound inputs": (BoundInputs.from_dict, {"n": 10, "delta": 0.05, "omega": 1.0},
                     "delta", "omega", "omega"),
    "experiment config": (ExperimentConfig.from_dict,
                          {"region": SIMPLEX, "cost_domain": BALL_DOMAIN,
                           "b_star": [[1.0], [0.0]]}, "b_star", "noise", "b_star"),
}

#: each array reader, which has no keys to get wrong: (read, a valid input,
#: its depth); the CLI reads ``--xs`` and ``--table`` as these calls do
ARRAY_READERS = {
    "hypotheses": (lambda data: FiniteHypothesisSet.from_json(json.dumps(data)),
                   [[[1.0, 0.0]]], 3),
    "--xs": (lambda data: _read_array(data, "xs", 2), [[1.0, 0.0]], 2),
    "label table": (lambda data: _read_array(data, "label table", 2), [[0, 1]], 2),
}

#: values refused in a number slot; a bool among numbers is read as 0 or 1
#: by numpy, so an array slot gets its value alone
SLOT_VALUES = {"bool": True, "string": "1", "object": {"a": 1}}


def malformed():
    for name, (read, valid, required, number, array) in OBJECT_READERS.items():
        yield name, "not an object", read, [valid]
        yield name, "unknown key", read, {**valid, "zzz": 1.0}
        yield name, "missing key", read, {k: v for k, v in valid.items() if k != required}
        for shape, value in SLOT_VALUES.items():
            data = ({**valid, number: value} if number
                    else {**valid, array: [[value] * len(valid[array][0])]})
            yield name, shape, read, data
        yield name, "ragged array", read, {**valid, array: RAGGED}
    for name, (read, valid, depth) in ARRAY_READERS.items():
        yield name, "not an array", read, {"a": valid}
        for shape, value in SLOT_VALUES.items():
            for _ in range(depth):
                value = [value]
            yield name, shape, read, value
        yield name, "ragged array", read, RAGGED if depth == 2 else [RAGGED]


@pytest.mark.parametrize("read, data", [
    pytest.param(read, data, id=f"{name}-{shape}") for name, shape, read, data in malformed()])
def test_every_reader_refuses_a_malformed_input(read, data):
    with pytest.raises(ValueError):
        read(data)


@pytest.mark.parametrize("name", [*OBJECT_READERS, *ARRAY_READERS])
def test_every_reader_takes_its_valid_input(name):
    # the malformed inputs above are refused for their defect alone
    readers = {**OBJECT_READERS, **ARRAY_READERS}
    read, valid = readers[name][:2]
    read(valid)


def test_a_bool_among_numbers_is_read_as_a_number():
    # numpy upcasts a bool nested among numbers; an all-bool array is refused
    assert _read_array([[1, True]], "xs", 2).tolist() == [[1, 1]]
    with pytest.raises(ValueError, match="xs must be"):
        _read_array([[True, False]], "xs", 2)


def test_arrays_keep_their_inferred_dtype():
    # the label table and the DAG arcs stay integers; an integer past 64
    # bits would need an object array, which is refused
    assert _read_array([[0, 1]], "label table", 2).dtype.kind == "i"
    assert _read_array([[0.5, 1]], "xs", 2).dtype.kind == "f"
    with pytest.raises(ValueError, match="label table must be"):
        _read_array([[2 ** 70]], "label table", 2)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_number_key_refuses_a_non_finite_value(value):
    # json reads NaN and Infinity; a number key refuses them as it is read,
    # with the message the experiment config gives its own scalars
    with pytest.raises(ValueError, match=f"^ball cost domain radius must be finite, got {value}$"):
        domain({"kind": "ball", "radius": value})
    with pytest.raises(ValueError, match=f"^LqBall region mu must be finite, got {value}$"):
        region_from_dict({"kind": "LqBall", "q": 2.0, "radius": 1.0, "center": [0.0],
                          "mu": value})
