"""Every scalar parameter of a spec passes the one check, errors.finite_real:
a real number that is not a bool, finite, and above 0 where the physics asks
for it.  Anything else is InvalidSpec, never a TypeError or an
OverflowError, and an accepted value is stored as a float.  An integer count
passes errors.integer_at_least in the same way."""

import math

import numpy as np
import pytest

from conftest import collide
from entroflow import (
    CaseSpec,
    ClausiusStroke,
    CollisionSpec,
    EntangledThermalSpec,
    HamiltonianSpec,
    InvalidSpec,
    clausius_cycle,
    ensemble_heat,
)

QUBIT = HamiltonianSpec([0.0, 1.0])
GAS = {"m_a": 10.0, "m_b": 1.0, "t_a": 2.0, "t_b": 1.0, "gamma": 1.0}


def _gas(name):
    return lambda value: getattr(CollisionSpec(**{**GAS, name: value}), name)


# field -> (the value it is stored as, from one given value; must it be > 0)
STORED = {
    "EntangledThermalSpec.gamma": (lambda v: EntangledThermalSpec([0, 1], v, 1, 1).gamma, True),
    "EntangledThermalSpec.mu_a": (lambda v: EntangledThermalSpec([0, 1], 1, v, 1).mu_a, True),
    "EntangledThermalSpec.mu_b": (lambda v: EntangledThermalSpec([0, 1], 1, 1, v).mu_b, True),
    "CaseSpec.beta_a": (lambda v: CaseSpec.case_s(QUBIT, v, QUBIT, 1).beta_a, True),
    "CaseSpec.beta_b": (lambda v: CaseSpec.case_s(QUBIT, 1, QUBIT, v).beta_b, True),
    "ClausiusStroke.temperature": (lambda v: ClausiusStroke.contact(v, 1).temperature, True),
    "ClausiusStroke.phi": (lambda v: ClausiusStroke.contact(1, v).phi, False),
    **{f"CollisionSpec.{name}": (_gas(name), True) for name in GAS},
}
# arguments checked by the function that takes them, not stored
CHECKED = {
    "clausius_cycle.fp_tol": (
        lambda v: clausius_cycle((QUBIT, [0.5, 0.5]), [ClausiusStroke.contact(1, 1)], fp_tol=v),
        True,
    ),
    "collide.m_a": (lambda v: collide(np.zeros(3), np.zeros(3), v, 1, 0.1, 0.1), True),
    "collide.m_b": (lambda v: collide(np.zeros(3), np.zeros(3), 1, v, 0.1, 0.1), True),
}
FIELDS = {**STORED, **CHECKED}

NOT_FINITE_REALS = {
    "string": "2.0", "true": True, "numpy-true": np.True_, "none": None,
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "beyond-float": 10**400,
}
NOT_POSITIVE = {"zero": 0, "negative": -1}


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param(field, value, id=f"{field}-{label}")
        for field, (_, positive) in FIELDS.items()
        for label, value in {**NOT_FINITE_REALS, **(NOT_POSITIVE if positive else {})}.items()
    ],
)
def test_bad_scalar_is_invalid_spec(field, value):
    build, positive = FIELDS[field]
    name = field.split(".")[1]
    kind = "finite positive" if positive else "finite"
    with pytest.raises(InvalidSpec) as refused:
        build(value)
    assert str(refused.value) == f"{name} must be a {kind} number, got {value!r}"


@pytest.mark.parametrize(
    "value", [2, np.float64(2.0), np.int64(2)], ids=["int", "float64", "int64"]
)
@pytest.mark.parametrize("field", STORED)
def test_scalar_is_stored_as_float(field, value):
    stored = STORED[field][0](value)
    assert type(stored) is float and stored == 2.0



def _entangled(gamma, mu_a, mu_b):
    return lambda: EntangledThermalSpec([0, 1], gamma, mu_a, mu_b)


# inverse temperatures derived from checked fields, each checked in turn:
# (build, the name in the message, the value it reads)
DERIVED = {
    "beta_a-inf": (_entangled(1e200, 1e200, 1), "beta_a = mu_a * gamma", math.inf),
    "beta_b-inf": (_entangled(1e200, 1, 1e200), "beta_b = mu_b * gamma", math.inf),
    "beta_a-zero": (_entangled(1e-200, 1e-200, 1), "beta_a = mu_a * gamma", 0.0),
    "contact-beta-inf": (lambda: ClausiusStroke.contact(1e-320, 1), "beta = 1 / temperature", math.inf),
}


@pytest.mark.parametrize("build, name, value", DERIVED.values(), ids=DERIVED)
def test_bad_derived_beta_is_invalid_spec(build, name, value):
    with pytest.raises(InvalidSpec) as refused:
        build()
    assert str(refused.value) == f"{name} must be a finite positive number, got {value!r}"


# integer counts: (the call that takes one, the least count it accepts)
COUNTS = {
    "max_cycles": (
        lambda v: clausius_cycle(
            (QUBIT, [0.5, 0.5]), [ClausiusStroke.contact(1, 1)], max_cycles=v, fp_tol=1e9
        ).cycles_to_convergence,
        1,
    ),
    "n": (lambda v: ensemble_heat(CollisionSpec(**GAS), "entangled", v, 1).n_samples, 2),
}
NOT_COUNTS = {
    "fraction": 2.5, "whole-float": 1e5, "inf": math.inf, "nan": math.nan, "string": "3",
    "none": None, "true": True, "numpy-true": np.True_,
}


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param(field, value, id=f"{field}-{label}")
        for field, (_, least) in COUNTS.items()
        for label, value in {**NOT_COUNTS, "below": least - 1, "negative": -3}.items()
    ],
)
def test_bad_count_is_invalid_spec(field, value):
    build, least = COUNTS[field]
    with pytest.raises(InvalidSpec) as refused:
        build(value)
    assert str(refused.value) == f"{field} must be an integer >= {least}, got {value!r}"


@pytest.mark.parametrize("value", [2, np.int64(2)], ids=["int", "int64"])
@pytest.mark.parametrize("field", COUNTS)
def test_integer_count_is_accepted_as_int(field, value):
    got = COUNTS[field][0](value)
    assert type(got) is int and got == (1 if field == "max_cycles" else 2)
