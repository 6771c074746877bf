"""The one integer rule, checked at every public integer parameter.

The parameters come from the annotations: every parameter annotated ``int``
or ``int | None`` of every callable the package exports, the fields of the
exported config classes (MCConfig's among them) included. So a new integer
parameter joins the test by itself, and fails it until BASE gives it a valid
call. An int or a numpy integer passes; a bool or a float does not, even
when it equals an integer, and neither does a value below the range. Count
vectors take integer-valued entries >= 0.
"""

import dataclasses
import inspect
import typing

import numpy as np
import pytest

import posterior_debias as pkg
from posterior_debias import (
    CountsVector,
    DiscreteBayesMap,
    LatticeFunction,
    WeightedSampleSet,
    enumerate_lattice,
    gaussian_likelihood,
    make_rejection_spec,
    transfer_matrix,
)

G = DiscreteBayesMap((1.0, np.exp(1.5))).component(1)
Q = (0.4, 0.6)
DATA = WeightedSampleSet([0.5, 1.5, -1.0, 2.0, 0.25])

# A valid call of each exported callable with an integer parameter.
BASE = {
    "MCConfig": {"n": 4, "k": 2, "n_reps": 8, "root_seed": 1, "threads": 1},
    "build_chain": {"data": DATA, "k": 3, "seed": 3},
    "central_moment": {"n": 6, "q": Q, "alpha": (2, 1)},
    "contraction_norm": {"g": G, "n": 6, "m": 2, "r": 2},
    "debias_weights": {"k": 3},
    "debiased_estimate": {"g": G, "T": CountsVector((2, 4)), "k": 2},
    "debiased_estimate_mean": {"g": G, "q": Q, "n": 6, "k": 2},
    "debiased_expectation": {
        "data": DATA,
        "likelihood": gaussian_likelihood(0.8, 1 / 16),
        "h": lambda x: x >= 0.5,
        "k": 2,
        "seed": 5,
    },
    "debiased_realization": {"stages": (1.0, 2.0, 4.0), "functional": float, "k": 2},
    "default_identity_config": {"root_seed": 2},
    "default_mixture_config": {"n_rule": "fixed", "n_fixed": 100, "mc_cap": 50, "threads": 2, "root_seed": 2},
    "enumerate_lattice": {"n": 5, "m": 3},
    "exact_bias": {"g": G, "q": Q, "n": 6, "k": 2},
    "exact_variance": {"g": G, "q": Q, "n": 6, "k": 2},
    "exhaustive_chain_expectation": {
        "functional": lambda ws: float(ws.points.mean()),
        "prior": Q,
        "n": 3,
        "k": 2,
    },
    "iterate_operator": {
        "g": LatticeFunction(enumerate_lattice(4, 2), np.linspace(0.0, 1.0, 5) ** 2),
        "M": transfer_matrix(4, 2),
        "j": 2,
    },
    "rejection_sample_batch": {
        "spec": make_rejection_spec([0.5, 0.3, 0.2], [0.6, 0.3, 0.1]),
        "size": 50,
        "seed": 2,
        "attempt_cap": 10_000,
    },
    "transfer_matrix": {"n": 5, "m": 2},
}
# The lowest valid value of each parameter that is not 1.
LOW = {"j": 0, "seed": 0, "root_seed": 0}


def int_parameters(obj) -> list[str]:
    """The parameters of ``obj``, a function or a class, annotated int or
    int | None, in signature order."""
    params = inspect.signature(obj).parameters
    hints = typing.get_type_hints(obj)
    return [p for p in params if hints.get(p) in (int, typing.Optional[int])]


PARAMETERS = [
    (name, param)
    for name in pkg.__all__
    for obj in [getattr(pkg, name)]
    if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
    for param in int_parameters(obj)
]
BAD = [True, np.True_, 1.5, 2.0, "below"]


def call(name: str, **overrides):
    return getattr(pkg, name)(**{**BASE[name], **overrides})


def bits(value):
    """A comparable form of a result that keeps every bit of its floats."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return value


def names(param: str) -> str:
    return rf"\b{param}\b"


def test_parameters_are_found():
    # The derivation finds the known entry points, so an empty list cannot
    # pass the tests below vacuously.
    assert {("debias_weights", "k"), ("rejection_sample_batch", "attempt_cap"), ("MCConfig", "threads")} <= set(PARAMETERS)


@pytest.mark.parametrize("name, param", PARAMETERS, ids=[f"{n}.{p}" for n, p in PARAMETERS])
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_rejects_and_names_the_parameter(name, param, bad):
    assert name in BASE, f"give {name} a valid call in BASE"
    if bad == "below":
        bad = LOW.get(param, 1) - 1
    with pytest.raises(ValueError, match=names(param)):
        call(name, **{param: bad})


@pytest.mark.parametrize("name, param", PARAMETERS, ids=[f"{n}.{p}" for n, p in PARAMETERS])
@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_numpy_integers_give_the_bits_of_ints(name, param, kind):
    assert name in BASE, f"give {name} a valid call in BASE"
    want = bits(call(name))
    assert bits(call(name, **{param: kind(BASE[name][param])})) == want


LATTICE = enumerate_lattice(4, 2)
COUNT_CASES = {
    "counts": lambda c: LATTICE.index_of(c),
    "alpha": lambda a: pkg.central_moment(8, Q, a),
}


@pytest.mark.parametrize("field", COUNT_CASES)
@pytest.mark.parametrize("bad", [[1.5, 3.0], [1.5, 0.9], [-1, 5], [np.nan, 1]], ids=repr)
def test_count_vectors_reject_and_name_the_argument(field, bad):
    # index_of([1.5, 3.0]) was the index of (1, 3), and central_moment at
    # alpha = [1.5, 0.9] the moment at (1, 0).
    with pytest.raises(ValueError, match=names(field)):
        COUNT_CASES[field](bad)


@pytest.mark.parametrize("field", COUNT_CASES)
@pytest.mark.parametrize(
    "form",
    [np.array([1, 3], np.int64), np.array([1, 3], np.int32), np.array([1.0, 3.0]), (1, 3)],
    ids=["int64", "int32", "float", "tuple"],
)
def test_count_vectors_of_any_integer_form_give_the_same_bits(field, form):
    assert bits(COUNT_CASES[field](form)) == bits(COUNT_CASES[field]([1, 3]))

