"""The one real-number rule, checked at every public float parameter and at
every vector the package takes.

The scalar parameters come from the annotations: every parameter annotated
``float``, ``float | None`` or ``tuple[float, ...]`` of every callable the
package exports, the fields of the exported config classes included. So a
new float parameter joins the test by itself, and fails it until BASE gives
it a valid call. An int, a float or a numpy integer or float passes and
gives the bits of the equal float; a bool, a string, a complex number, NaN
and +-inf do not (the threshold of mixture_posterior_tail_prob keeps +-inf).
A float tuple takes the rule entry by entry.

Vectors take integer or float entries. VECTORS holds every vector parameter
and every ndarray field of an exported dataclass, and a new such field fails
the test until it is added there. Bool, complex, string, bytes and object
arrays, and a list with a bool entry, raise naming the field; integer,
float32 and tuple forms give the bits of the float64 vector.
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
    GaussianMixture,
    LatticeFunction,
    ProbVector,
    WeightedSampleSet,
    central_moment,
    enumerate_lattice,
    exact_bias,
    fit_slope,
    make_rejection_spec,
    mixture_posterior_tail_prob,
    multinomial_pmf_vector,
)

MIX = GaussianMixture([0.5, 0.5], [0.0, 1.0], [1.0, 1.0])
X = np.linspace(-3.0, 3.0, 13)

# A valid call of each exported callable with a float parameter.
BASE = {
    "default_binary_config": {"q": 0.4, "y_obs": 2.0, "noise_var": 1.0},
    "default_mixture_config": {
        "y_obs": 0.8,
        "noise_var": 0.0625,
        "threshold": 0.5,
        "mix_weights": (0.5, 0.5),
        "mix_means": (0.0, 1.0),
        "mix_variances": (1.0, 1.0),
    },
    "gaussian_likelihood": {"y_obs": 0.8, "noise_var": 0.0625},
    "mixture_posterior_tail_prob": {"prior": MIX, "noise_var": 0.0625, "y_obs": 0.8, "threshold": 0.5},
}
# What a call gives that its bits are compared on, where it is not the call's
# own result.
RESULT = {"gaussian_likelihood": lambda lik: lik.log(X)}
FLOAT_HINTS = (float, typing.Optional[float], tuple[float, ...])


def float_parameters(obj) -> list[str]:
    """The parameters of ``obj``, a function or a class, annotated float,
    float | None or tuple[float, ...], in signature order."""
    params = inspect.signature(obj).parameters
    hints = typing.get_type_hints(obj)
    return [p for p in params if hints.get(p) in FLOAT_HINTS]


def exported_callables():
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            yield name, obj


PARAMETERS = [(name, param) for name, obj in exported_callables() for param in float_parameters(obj)]
IDS = [f"{n}.{p}" for n, p in PARAMETERS]
BAD = [True, np.True_, np.nan, np.inf, -np.inf, "0.5", 0.5 + 0j]
# The one parameter that keeps +-inf, with what it gives there.
INFINITE_OK = {("mixture_posterior_tail_prob", "threshold"): {np.inf: 0.0, -np.inf: 1.0}}


def with_value(name: str, param: str, value):
    """BASE[name] with ``param`` set to ``value``, or for a float tuple with
    its first entry set to it."""
    base = BASE[name][param]
    return {**BASE[name], param: (value, *base[1:]) if isinstance(base, tuple) else value}


def call(name: str, kwargs: dict):
    result = getattr(pkg, name)(**kwargs)
    return RESULT.get(name, lambda r: r)(result)


def bits(value):
    """A comparable form of a result that keeps every bit of its floats, and
    their type."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return type(value), float(value).hex()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return [bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    return value


def names(param: str) -> str:
    return rf"\b{param}\b"


def test_parameters_are_found():
    # The derivation finds the known entry points, float tuples and config
    # fields among them, so an empty list cannot pass the tests below
    # vacuously.
    known = {
        ("gaussian_likelihood", "noise_var"),
        ("mixture_posterior_tail_prob", "threshold"),
        ("default_binary_config", "q"),
        ("default_mixture_config", "mix_variances"),
    }
    assert known <= set(PARAMETERS)


@pytest.mark.parametrize("name, param", PARAMETERS, ids=IDS)
def test_every_parameter_has_a_valid_call(name, param):
    assert param in BASE.get(name, {}), f"give {name}.{param} a valid call in BASE"
    call(name, BASE[name])


@pytest.mark.parametrize("name, param", PARAMETERS, ids=IDS)
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_rejects_and_names_the_parameter(name, param, bad):
    assert param in BASE.get(name, {}), f"give {name}.{param} a valid call in BASE"
    kept = INFINITE_OK.get((name, param), {})
    if isinstance(bad, float) and bad in kept:
        assert call(name, with_value(name, param, bad)) == kept[bad]
        return
    with pytest.raises(ValueError, match=names(param)):
        call(name, with_value(name, param, bad))


@pytest.mark.parametrize("name, param", PARAMETERS, ids=IDS)
@pytest.mark.parametrize("good", [2, np.int64(3), np.float32(0.5)], ids=repr)
def test_integers_and_numpy_reals_give_the_bits_of_floats(name, param, good):
    assert param in BASE.get(name, {}), f"give {name}.{param} a valid call in BASE"
    want = bits(call(name, with_value(name, param, float(good))))
    assert bits(call(name, with_value(name, param, good))) == want


def test_threshold_keeps_its_infinite_results():
    # The event {x >= +inf} is empty and {x >= -inf} is everything.
    assert mixture_posterior_tail_prob(MIX, 1 / 16, 0.8, np.inf) == 0.0
    assert mixture_posterior_tail_prob(MIX, 1 / 16, 0.8, -np.inf) == 1.0


LATTICE = enumerate_lattice(4, 2)
G = DiscreteBayesMap((1.0, np.exp(1.5))).component(1)
# Every vector the package takes: (a call of one vector argument, a valid
# integer-valued float64 vector for it, the field name its errors carry).
# ProbVector checks the q of the exact functions and a spec's proposal.
VECTORS = {
    "ProbVector.probs": (ProbVector, [0.0, 1.0, 0.0], "probs"),
    "multinomial_pmf_vector.q": (
        lambda v: multinomial_pmf_vector(enumerate_lattice(4, 3), v), [0.0, 1.0, 0.0], "probs"
    ),
    "exact_bias.q": (lambda v: exact_bias(G, v, 6, 2), [0.0, 1.0], "probs"),
    "CountsVector.counts": (CountsVector, [1.0, 3.0], "counts"),
    "SimplexLattice.index_of.counts": (LATTICE.index_of, [1.0, 3.0], "counts"),
    "central_moment.alpha": (lambda v: central_moment(8, (0.4, 0.6), v), [1.0, 3.0], "alpha"),
    "WeightedSampleSet.points": (WeightedSampleSet, [0.0, 1.0, -1.0, 2.0, 5.0], "points"),
    "DiscreteBayesMap.likelihoods": (DiscreteBayesMap, [1.0, 3.0], "likelihoods"),
    "GaussianMixture.weights": (lambda v: GaussianMixture(v, [0.0, 1.0], [1.0, 2.0]), [0.0, 1.0], "weights"),
    "GaussianMixture.means": (lambda v: GaussianMixture([0.5, 0.5], v, [1.0, 2.0]), [0.0, 1.0], "means"),
    "GaussianMixture.variances": (
        lambda v: GaussianMixture([0.5, 0.5], [0.0, 1.0], v), [1.0, 2.0], "variances"
    ),
    "LatticeFunction.values": (lambda v: LatticeFunction(LATTICE, v), [0.0, 1.0, 4.0, 9.0, 16.0], "values"),
    "make_rejection_spec.proposal": (
        lambda v: make_rejection_spec(v, [-1.0, 2.0, 0.0]), [0.0, 1.0, 0.0], "probs"
    ),
    "make_rejection_spec.target": (
        lambda v: make_rejection_spec([0.5, 0.25, 0.25], v), [2.0, -1.0, 0.0], "target"
    ),
    "fit_slope.sizes": (lambda v: fit_slope(v, [1.0, 3.0, 9.0]), [2.0, 4.0, 8.0], "sizes"),
    "fit_slope.values": (lambda v: fit_slope([2.0, 4.0, 8.0], v), [1.0, 3.0, 9.0], "values"),
}
BAD_FORMS = {
    "bool": lambda b: b != 0,
    "complex": lambda b: b + 0.5j,
    "real_complex": lambda b: b.astype(complex),
    "string": lambda b: b.astype(str),
    "bytes": lambda b: b.astype(bytes),
    "object": lambda b: b.astype(object),
    "bool_entry": lambda b: [True, *b[1:].tolist()],
}
GOOD_FORMS = {
    "int64": lambda b: b.astype(np.int64),
    "int32": lambda b: b.astype(np.int32),
    "float32": lambda b: b.astype(np.float32),
    "int_tuple": lambda b: tuple(int(v) for v in b),
    "float_tuple": lambda b: tuple(b.tolist()),
}


def test_every_exported_array_field_is_in_the_table():
    # A new ndarray field of an exported dataclass joins the table, or fails
    # here.
    fields = [
        f"{name}.{field}"
        for name, obj in exported_callables()
        if dataclasses.is_dataclass(obj)
        for field, hint in typing.get_type_hints(obj).items()
        if hint is np.ndarray
    ]
    assert len(fields) >= 8
    assert set(fields) <= set(VECTORS)


@pytest.mark.parametrize("case", VECTORS)
@pytest.mark.parametrize("form", BAD_FORMS)
def test_vectors_reject_other_entries_and_name_the_field(case, form):
    make, base, field = VECTORS[case]
    with pytest.raises(ValueError, match=names(field)):
        make(BAD_FORMS[form](np.array(base)))


@pytest.mark.parametrize("case", VECTORS)
@pytest.mark.parametrize("form", GOOD_FORMS)
def test_vectors_of_any_real_form_give_the_bits_of_float64(case, form):
    make, base, _ = VECTORS[case]
    base = np.array(base)
    assert bits(make(GOOD_FORMS[form](base))) == bits(make(base))


@pytest.mark.parametrize("entry", [np.array(True), np.array([True]), np.True_], ids=repr)
def test_a_numpy_bool_entry_of_a_list_is_refused(entry):
    # np.asarray promotes a 0-d bool array entry as it does a bool:
    # ProbVector([np.array(True), 0.0]) built [1.0, 0.0].
    with pytest.raises(ValueError, match=names("probs")):
        ProbVector([entry, 0.0])


@pytest.mark.parametrize("value", [[0.5], (0.5,), np.array([0.5]), np.array([[0.5]])], ids=repr)
def test_a_float_parameter_wants_one_real_number(value):
    # A one-entry vector is not a scalar; the message said "must be a
    # nonempty 1-d vector" about a value that is not one.
    with pytest.raises(ValueError, match=r"\by_obs must be one real number"):
        pkg.gaussian_likelihood(value, 1 / 16)


def test_a_0d_array_is_one_real_number():
    want = bits(pkg.gaussian_likelihood(0.8, 1 / 16).log(X))
    assert bits(pkg.gaussian_likelihood(np.array(0.8), 1 / 16).log(X)) == want
