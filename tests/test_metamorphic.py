"""Metamorphic relations: runs that must agree with each other, so that no
oracle is needed.

Every result depends on beta E alone.  A change of energy units by lambda =
2^k, with every beta divided by lambda, must leave each dimensionless field
with its bits and multiply each energy by exactly lambda, since IEEE
arithmetic scales by a power of two exactly.  The energy gates are measured
in units of the largest |level|, so they take the same decisions in any
units.  Further relations: swapping the two sides, permuting the rotation
list, and shifting one side's levels.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import shell_planes

from entroflow import (
    BadCycle,
    CaseSpec,
    ClausiusStroke,
    CollisionSpec,
    EntangledThermalSpec,
    HamiltonianSpec,
    NotDegenerate,
    clausius_cycle,
    ensemble_heat,
    gibbs_populations,
    givens_planes,
    run_exchange,
    substream,
)
from entroflow.exchange import DEGENERACY_TOL

# units 2^k; with absolute energy gates, k >= 20 would refuse the shell planes
UNITS = range(-40, 41, 5)
# 16 levels a side, epsilon = 0.37 i: its shells are degenerate only to
# rounding, which grows with the units
EPSILON = 0.37 * np.arange(16)
GAMMA = 0.7
ROTATIONS = [(*pair, 0.9) for pair in shell_planes(16)]
SWEEP = np.linspace(0.0, math.pi, 9)


def bits(x) -> list:
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def exchange_case(kind: str, k: int = 0, mu=(1.0, 0.5)) -> CaseSpec:
    """The 16-level case in units 2^k: V, or S at the same temperatures."""
    spec = EntangledThermalSpec(EPSILON * 2.0**k, GAMMA * 2.0**-k, *mu)
    if kind == "V":
        return CaseSpec.case_v(spec)
    return CaseSpec.case_s(spec.hamiltonian_a(), spec.beta_a, spec.hamiltonian_b(), spec.beta_b)


def exchange_runs(case: CaseSpec, rotations=ROTATIONS):
    """One angle per plane, and the same planes swept over SWEEP."""
    planes = givens_planes(*case.hamiltonians(), rotations)
    return run_exchange(case, planes), run_exchange(case, planes.at_angle(SWEEP))


def assert_close(got, want, tol: float) -> None:
    """Every field of two reports agrees within ``tol``."""
    for field in dataclasses.fields(want):
        diff = np.subtract(*(np.asarray(getattr(r, field.name), float) for r in (got, want)))
        assert np.all(np.abs(diff) <= tol), field.name


def assert_scaled(got, base, k: int, energies: tuple) -> None:
    """Each field of ``got`` is that of ``base``, bit for bit, times 2^k
    for the fields named in ``energies``."""
    for field in dataclasses.fields(base):
        want = getattr(base, field.name)
        if want is None or isinstance(want, str):
            assert getattr(got, field.name) == want, field.name
            continue
        if field.name in energies:
            want = np.asarray(want) * 2.0**k
        assert bits(getattr(got, field.name)) == bits(want), field.name


@pytest.mark.parametrize("k", UNITS)
@pytest.mark.parametrize("kind", ["V", "S"])
def test_exchange_unit_scaling(kind, k):
    base = exchange_runs(exchange_case(kind))
    assert base[0].energy_conserving and base[1].energy_conserving.all()
    for got, want in zip(exchange_runs(exchange_case(kind, k)), base):
        assert_scaled(got, want, k, ("q_a", "q_b", "work_leak"))


@pytest.mark.parametrize("k", UNITS)
def test_near_degenerate_plane_keeps_its_flags(k):
    # 2e-10 of a unit off the shell: admitted as degenerate, and at a
    # nonzero angle flagged as leaking energy, in any units
    h_a = HamiltonianSpec(np.array([0.0, 1.0]) * 2.0**k)
    h_b = HamiltonianSpec(np.array([0.0, 1.0 + 2e-10]) * 2.0**k)
    case = CaseSpec.case_s(h_a, 2.0**-k, h_b, 0.4 * 2.0**-k)
    for phi, conserving in ((0.9, False), (0.0, True)):
        planes = givens_planes(h_a, h_b, [((0, 1), (1, 0), phi)])
        assert run_exchange(case, planes).energy_conserving is conserving


@pytest.mark.parametrize("k", sorted({*UNITS, -34}))
def test_off_shell_plane_refused_in_any_units(k):
    # epsilon = 0..3 and mu_b = 1/2: (1, 1) and (0, 2) carry 3 and 4 units,
    # and the largest |level| is 6 units
    spec = EntangledThermalSpec(np.arange(4.0) * 2.0**k, 2.0**-k, 1.0, 0.5)
    with pytest.raises(NotDegenerate) as raised:
        givens_planes(spec.hamiltonian_a(), spec.hamiltonian_b(), [((1, 1), (0, 2), 0.9)])
    gap, tol = 2.0**k, DEGENERACY_TOL * 6.0 * 2.0**k
    assert str(raised.value) == (
        f"labels (1, 1) and (0, 2) differ in energy by {gap:.3e} (> {tol:.3e})"
    )


def clausius_run(k: int):
    """A two-reservoir cycle with a quench, in units 2^k."""
    unit = 2.0**k
    h0 = HamiltonianSpec(np.array([0.0, 0.37, 1.1, 1.5, 2.6]) * unit)
    h1 = HamiltonianSpec(h0.levels * 1.5)
    strokes = [
        ClausiusStroke.contact(0.8 * unit, 0.7),
        ClausiusStroke.quench(h1),
        ClausiusStroke.contact(2.5 * unit, 1.1),
        ClausiusStroke.quench(h0),
    ]
    return clausius_cycle((h0, gibbs_populations(h0, 1.0 / (1.3 * unit))), strokes)


@pytest.mark.parametrize("k", UNITS)
def test_clausius_unit_scaling(k):
    base, got = clausius_run(0), clausius_run(k)
    assert base.cycles_to_convergence > 1
    assert got.cycles_to_convergence == base.cycles_to_convergence
    assert bits([got.clausius_sum, got.residual]) == bits([base.clausius_sum, base.residual])
    for record, want in zip(got.strokes, base.strokes):
        scaled = dataclasses.replace(want, beta=want.beta * 2.0**-k, heat=want.heat * 2.0**k)
        assert bits(dataclasses.astuple(record)) == bits(dataclasses.astuple(scaled))


@pytest.mark.parametrize("k", UNITS)
def test_clausius_restore_gate_in_any_units(k):
    # a quench chain ending 2^-42 of each level off H0 restores it, one
    # ending 2^-38 off does not: 1e-12 of the largest |level| lies between
    unit = 2.0**k
    h0 = HamiltonianSpec(np.array([0.0, 0.37, 1.1, 1.5, 2.6]) * unit)
    system = (h0, gibbs_populations(h0, 1.0 / unit))
    for offset in (2.0**-42, 2.0**-38):
        strokes = [
            ClausiusStroke.contact(unit, 0.7),
            ClausiusStroke.quench(HamiltonianSpec(h0.levels * (1.0 + offset))),
        ]
        if offset < 1e-12:
            assert clausius_cycle(system, strokes).cycles_to_convergence == 1
        else:
            with pytest.raises(BadCycle):
                clausius_cycle(system, strokes)


def gas_run(mode: str, k: int):
    """The reversal gases in units 2^k: momenta scale by 2^(k/2), exactly
    for even k."""
    unit = 2.0**k
    spec = CollisionSpec(m_a=10.0, m_b=1.0, t_a=2.0 * unit, t_b=1.0 * unit, gamma=1.0 / unit)
    return ensemble_heat(spec, mode, 3000, seed=5)


@pytest.mark.parametrize("k", range(-40, 41, 10))
@pytest.mark.parametrize("mode", ["entangled", "product"])
def test_gas_unit_scaling(mode, k):
    assert_scaled(gas_run(mode, k), gas_run(mode, 0), k, ("mean_de_a", "stderr_de_a", "exact_mean_de_a"))


@pytest.mark.parametrize("kind", ["V", "S"])
def test_swapping_the_sides(kind):
    # A <-> B: mu_a <-> mu_b, and every label pair transposed
    swapped = [((j, i), (j2, i2), phi) for (i, j), (i2, j2), phi in ROTATIONS]
    for got, want in zip(
        exchange_runs(exchange_case(kind, mu=(0.5, 1.0)), swapped), exchange_runs(exchange_case(kind))
    ):
        for a, b in (("q_a", "q_b"), ("ds_a", "ds_b"), ("slack_a", "slack_b")):
            assert bits(getattr(got, a)) == bits(getattr(want, b)), a
            assert bits(getattr(got, b)) == bits(getattr(want, a)), b
        for field in ("mutual_info_initial", "mutual_info_final", "work_leak", "identity_gap"):
            assert np.all(np.abs(getattr(got, field) - getattr(want, field)) <= 1e-15), field
        assert np.array_equal(got.energy_conserving, want.energy_conserving)


@pytest.mark.parametrize("kind", ["V", "S"])
def test_permuted_rotation_list(kind):
    order = substream(41, 0).permutation(len(ROTATIONS))
    permuted = [ROTATIONS[t] for t in order]
    case = exchange_case(kind)
    for got, want in zip(exchange_runs(case, permuted), exchange_runs(case)):
        assert_close(got, want, 1e-15)


@pytest.mark.parametrize("shift", [0.75, -3.0, 40.0])
def test_level_shift_of_one_side(shift):
    # shifting A's levels moves no population and no plane off its shell:
    # heats, entropies and the identity stay within rounding
    case = exchange_case("S")
    (h_a, h_b), (beta_a, beta_b) = case.hamiltonians(), case.betas()
    shifted = CaseSpec.case_s(HamiltonianSpec(h_a.levels + shift), beta_a, h_b, beta_b)
    for got, want in zip(exchange_runs(shifted), exchange_runs(case)):
        assert_close(got, want, 1e-13)
