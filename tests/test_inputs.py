"""Every input reader refuses every malformed shape of its input with a
ValueError: the CLI turns that into one ``error:`` line and exit 2."""

import json
import math
import re

import numpy as np
import pytest

from spo_bounds import audits
from spo_bounds._inputs import _read_array
from spo_bounds._rng import substream, substream_sign_blocks
from spo_bounds.bounds import BoundInputs, evaluate, margin_rad_bound
from spo_bounds.complexity import (FiniteHypothesisSet, linear_class_rad_bound,
                                   massart_bound, rademacher_multivariate_mc,
                                   rademacher_spo_mc)
from spo_bounds.geometry import (CostDomain, DagPathPolytope, LqBall, UnitSimplex,
                                 VertexPolytope, dual_exponent, dual_norm_rows,
                                 region_from_dict, region_from_json,
                                 vector_norm_rows, verify_optimality_condition,
                                 verify_strong_convexity)
from spo_bounds.harness import ExperimentConfig
from spo_bounds.losses import LabeledSample, hard_margin_spo_loss, margin_spo_loss

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
    with pytest.raises(ValueError, match=f"^ball cost domain radius must be a finite number, "
                                         f"got {value}$"):
        domain({"kind": "ball", "radius": value})
    with pytest.raises(ValueError, match=f"^LqBall region mu must be a finite number, "
                                         f"got {value}$"):
        region_from_dict({"kind": "LqBall", "q": 2.0, "radius": 1.0, "center": [0.0],
                          "mu": value})


def test_deep_nesting_is_malformed_input():
    # json reports nesting past the recursion limit as a RecursionError
    with pytest.raises(ValueError, match="^region is nested too deeply to read$"):
        region_from_json("[" * 200_000)


# ---------------------------------------------------------------------------
# the number rule: every scalar input goes through _require_number
# ---------------------------------------------------------------------------

BELOW_0 = math.nextafter(0.0, -1.0)
BALL = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
DAG = DagPathPolytope(3, [(0, 1), (1, 2)], 0, 2)
HYPOTHESES = FiniteHypothesisSet([[[1.0, 0.0], [0.0, 1.0]]])
SAMPLE = LabeledSample(xs=[[1.0, 0.0]], cs=[[0.0, 1.0]])


def config(region=UnitSimplex(2), **kwargs):
    return ExperimentConfig(region, CostDomain.ball(region, 1.0), [[1.0], [0.0]], **kwargs)


#: every public entry with a scalar input: (entry, the input's name in the
#: message, what the message says it must be, a value just outside its
#: range, a valid numpy value, the call taking the value)
SCALARS = [
    *[(f"BoundInputs-{name}", name, kind, outside, valid,
       lambda v, name=name: BoundInputs(**{"n": 5, "delta": 0.05, name: v}))
      for name, kind, outside, valid in [
          ("n", "an integer >= 1", 0, np.int64(5)),
          ("delta", "a number in (0, 1)", 1.0, np.float32(0.5)),
          ("empirical_risk", "a finite number >= 0", BELOW_0, np.float32(0.5)),
          ("omega", "a finite number >= 0", BELOW_0, np.float32(0.5)),
          ("rho2_C", "a finite number >= 0", BELOW_0, np.float32(0.5)),
          ("rho2_S", "a finite number >= 0", BELOW_0, np.float32(0.5)),
          ("mu", "a finite number > 0", 0.0, np.float32(0.5)),
          ("gamma", "a finite number > 0", 0.0, np.float32(0.5)),
          ("gamma_bar", "a finite number > 0", 0.0, np.float32(0.5)),
          ("d_N", "an integer >= 0", -1, np.int64(2)),
          ("card_S", "an integer >= 1", 0, np.int64(2)),
          ("d", "an integer >= 1", 0, np.int64(2)),
          ("p", "an integer >= 1", 0, np.int64(2)),
          ("rad", "a finite number >= 0", BELOW_0, np.float32(0.5))]],
    ("margin_rad_bound-rho2_C", "rho2_C", "a finite number >= 0", BELOW_0, np.float32(1.0),
     lambda v: margin_rad_bound(v, 0.1, 1.0, 1.0)),
    ("margin_rad_bound-rad", "rad", "a finite number >= 0", BELOW_0, np.float32(0.5),
     lambda v: margin_rad_bound(1.0, v, 1.0, 1.0)),
    ("margin_rad_bound-gamma", "gamma", "a finite number > 0", 0.0, np.float32(0.5),
     lambda v: margin_rad_bound(1.0, 0.1, v, 1.0)),
    ("margin_rad_bound-mu", "mu", "a finite number > 0", 0.0, np.float32(0.5),
     lambda v: margin_rad_bound(1.0, 0.1, 1.0, v)),
    ("massart_bound-card", "card", "a finite number >= 1", math.nextafter(1.0, 0.0),
     np.float32(2.0), lambda v: massart_bound(v, 10, 1.0)),
    ("massart_bound-n", "n", "an integer >= 1", 0, np.int64(10),
     lambda v: massart_bound(5, v, 1.0)),
    ("massart_bound-omega", "omega", "a finite number >= 0", BELOW_0, np.float32(1.0),
     lambda v: massart_bound(5, 10, v)),
    ("linear_class_rad_bound-beta", "beta", "a finite number > 0", 0.0, np.float32(1.0),
     lambda v: linear_class_rad_bound("frobenius", v, 2, 2, 1.0, 10)),
    ("linear_class_rad_bound-d", "d", "an integer >= 1", 0, np.int64(2),
     lambda v: linear_class_rad_bound("frobenius", 1.0, v, 2, 1.0, 10)),
    ("linear_class_rad_bound-p", "p", "an integer >= 1", 0, np.int64(2),
     lambda v: linear_class_rad_bound("frobenius", 1.0, 2, v, 1.0, 10)),
    ("linear_class_rad_bound-group_lasso-p", "p", "an integer >= 2", 1, np.int64(2),
     lambda v: linear_class_rad_bound("group_lasso", 1.0, 2, v, 1.0, 10)),
    ("linear_class_rad_bound-x_radius", "x_radius", "a finite number >= 0", BELOW_0,
     np.float32(1.0), lambda v: linear_class_rad_bound("frobenius", 1.0, 2, 2, v, 10)),
    ("linear_class_rad_bound-n", "n", "an integer >= 1", 0, np.int64(10),
     lambda v: linear_class_rad_bound("frobenius", 1.0, 2, 2, 1.0, v)),
    ("rademacher_spo_mc-m_draws", "m_draws", "an integer >= 1", 0, np.int64(5),
     lambda v: rademacher_spo_mc(UnitSimplex(2), HYPOTHESES, SAMPLE, v)),
    ("rademacher_multivariate_mc-m_draws", "m_draws", "an integer >= 1", 0, np.int64(5),
     lambda v: rademacher_multivariate_mc(HYPOTHESES, [[1.0, 0.0]], v)),
    *[(f"{entry}-q", "q", "a number in [1, inf]", math.nextafter(1.0, 0.0), np.float32(1.5),
       call) for entry, call in [
          ("dual_exponent", dual_exponent),
          ("vector_norm_rows", lambda v: vector_norm_rows(np.ones((2, 2)), v)),
          ("dual_norm_rows", lambda v: dual_norm_rows(np.ones((2, 2)), v)),
          ("UnitSimplex.radius", UnitSimplex(3).radius),
          ("VertexPolytope.radius", VertexPolytope([[1.0, 0.0], [0.0, 1.0]]).radius),
          ("DagPathPolytope.radius", DAG.radius), ("LqBall.radius", BALL.radius)]],
    ("UnitSimplex-dim", "dim", "an integer >= 1", 0, np.int64(2), UnitSimplex),
    ("DagPathPolytope-nodes", "nodes", "an integer >= 1", 0, np.int64(3),
     lambda v: DagPathPolytope(v, [(0, 1), (1, 2)], 0, 2)),
    # the sink row's outside value is the node count
    ("DagPathPolytope-source", "source", "an integer in [0, 3)", 3, np.int64(1),
     lambda v: DagPathPolytope(3, [(0, 1), (1, 2)], v, 2)),
    ("DagPathPolytope-sink", "sink", "an integer in [0, 3)", 3, np.int64(2),
     lambda v: DagPathPolytope(3, [(0, 1), (1, 2)], 0, v)),
    ("DagPathPolytope.grid-rows", "rows", "an integer >= 1", 0, np.int64(2),
     lambda v: DagPathPolytope.grid(v, 2)),
    ("DagPathPolytope.grid-cols", "cols", "an integer >= 1", 0, np.int64(2),
     lambda v: DagPathPolytope.grid(2, v)),
    ("sample_batch-m", "sample count", "an integer >= 0", -1, np.int64(2),
     lambda v: BALL.sample_batch(substream(0), v)),
    ("LqBall-q", "q", "a number in (1, 2]", 1.0, np.float32(1.5),
     lambda v: LqBall(v, 1.0, [0.0])),
    ("LqBall-radius", "radius", "a finite number > 0", 0.0, np.float32(0.5),
     lambda v: LqBall(2.0, v, [0.0])),
    ("LqBall-mu", "mu", "a finite number >= 0", BELOW_0, np.float32(0.5),
     lambda v: LqBall(2.0, 1.0, [0.0], mu=v)),
    ("CostDomain.ball-radius", "radius", "a finite number >= 0", BELOW_0, np.float32(0.5),
     lambda v: CostDomain.ball(BALL, v)),
    ("verify_strong_convexity-mu", "mu", "a finite number > 0", 0.0, np.float32(0.5),
     lambda v: verify_strong_convexity(BALL, v, 10, 0)),
    ("verify_strong_convexity-n_samples", "n_samples", "an integer >= 1", 0, np.int64(10),
     lambda v: verify_strong_convexity(BALL, 1.0, v, 0)),
    ("verify_optimality_condition-n_samples", "n_samples", "an integer >= 1", 0,
     np.int64(10), lambda v: verify_optimality_condition(BALL, [1.0, 0.0], v, 0)),
    *[(f"ExperimentConfig-{key}", key, kind, outside, valid,
       lambda v, key=key: config(**{key: v}))
      for key, kind, outside, valid in [
          ("noise", "a finite number >= 0", BELOW_0, np.float32(0.5)),
          ("trials", "an integer >= 1", 0, np.int64(2)),
          ("delta", "a number in (0, 1)", 0.0, np.float32(0.5)),
          ("beta", "a finite number > 0", 0.0, np.float32(0.5)),
          ("m_fresh", "an integer >= 1", 0, np.int64(10)),
          ("seed", "an integer >= 0", -1, np.int64(3))]],
    ("ExperimentConfig-n", "n", "an integer >= 1", 0, np.int64(10),
     lambda v: config(ns=[10, v])),
    ("ExperimentConfig-gamma_grid", "gamma_grid", "a finite number > 0", 0.0,
     np.float32(0.5), lambda v: config(BALL, gamma_grid=[v])),
    ("margin_spo_loss-gamma", "gamma", "a finite number > 0", 0.0, np.float32(0.5),
     lambda v: margin_spo_loss(BALL, [1.0, 0.0], [0.0, 1.0], v)),
    ("hard_margin_spo_loss-gamma", "gamma", "a finite number >= 0", BELOW_0, np.float32(0.5),
     lambda v: hard_margin_spo_loss(BALL, [1.0, 0.0], [0.0, 1.0], v)),
    ("substream-seed", "seed", "an integer >= 0", -1, np.int64(3), substream),
    *[(f"substream_sign_blocks-{name}", name, kind, outside, np.int64(2),
       lambda v, at=at: list(substream_sign_blocks(*[v if i == at else 2 for i in range(4)])))
      for at, (name, kind, outside) in enumerate([
          ("seed", "an integer >= 0", -1),
          ("count", "an integer in [0, 4294967296]", 2 ** 32 + 1),
          ("size", "an integer >= 0", -1), ("rows", "an integer >= 1", 0)])],
    ("run_all_audits-seed", "seed", "an integer >= 0", -1, np.int64(0),
     lambda v: audits.run_all_audits(v, fast=True)),
]


def scalar_cases():
    """(entry, bad value) pairs, each refused, and (entry, None) for the
    entry's valid numpy value, accepted."""
    for entry, name, kind, outside, valid, call in SCALARS:
        bad = [math.nan, -math.inf, True, outside]
        if not kind.endswith("inf]"):  # the norm exponents take inf
            bad.append(math.inf)
        if kind.startswith("an integer"):
            bad.append(2.5)
        for value in bad:
            yield pytest.param(name, kind, call, value, id=f"{entry}-{value!r}")
        yield pytest.param(name, kind, call, valid, id=f"{entry}-numpy")


@pytest.mark.parametrize("name, kind, call, value", scalar_cases())
def test_every_scalar_follows_the_number_rule(name, kind, call, value):
    # NaN passes every range check, since each comparison with it is false,
    # so each of these entries refuses it by the one rule, in its one message
    if isinstance(value, np.generic):
        call(value)
        return
    message = f"{name} must be {kind}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("source", [0.5, True, 2.0])
def test_dag_ends_are_not_truncated(source):
    # int() once made a source of 0.5 node 0 and a True source node 1
    message = f"source must be an integer in [0, 3), got {source!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DagPathPolytope(3, [(0, 1), (1, 2)], source, 2)


def test_the_norm_exponents_take_inf():
    assert dual_exponent(math.inf) == 1.0
    assert vector_norm_rows(np.array([[3.0, -4.0]]), math.inf).tolist() == [4.0]
    assert UnitSimplex(3).radius(math.inf) == 1.0


def test_numpy_scalars_are_stored_as_python_numbers():
    # a bound report and an experiment summary echo their inputs, so these
    # must go through json.dumps
    inputs = BoundInputs(n=np.int64(5), delta=0.05, omega=np.float32(1.0), rad=0.1)
    assert inputs.n.__class__ is int and inputs.omega.__class__ is float
    assert inputs == BoundInputs(n=5, delta=0.05, omega=1.0, rad=0.1)
    json.dumps(BoundInputs(n=np.int64(5), delta=0.05).to_dict())
    json.dumps(evaluate("rademacher", inputs).to_dict())
    cfg = config(trials=np.int64(2), noise=np.float32(0.5), beta=np.float32(2.0))
    assert cfg.trials.__class__ is int and cfg.noise.__class__ is float
    assert config(ns=np.int64(5)).ns == [5]
    json.dumps(cfg.to_dict())
    dag = DagPathPolytope(3, [(0, 1), (1, 2)], np.int64(1), np.int64(2))
    assert dag.source.__class__ is int and dag.sink.__class__ is int
    assert (dag.source, dag.sink) == (1, 2)
    json.dumps(dag.to_dict())
