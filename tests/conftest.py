import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np
import pytest

from entroflow import (
    CaseSpec,
    DensityOperator,
    EntangledThermalSpec,
    PureJointState,
    degenerate_pairs,
    entangled_thermal_state,
    gibbs_state,
    givens_unitary,
    joint_energies,
    kron,
)


@pytest.fixture()
def eigensolves(monkeypatch) -> list[int]:
    """Matrix dimension of every numpy eigensolve made during the test."""
    dims: list[int] = []
    for name in ("eigvalsh", "eigh"):

        def counted(a, *args, _solver=getattr(np.linalg, name), **kwargs):
            dims.append(np.shape(a)[-1])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return dims


def ghz_state() -> DensityOperator:
    """Three-qubit (|000> + |111>)/sqrt(2)."""
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 2.0**-0.5
    return PureJointState(v, (2, 2, 2)).density()


def bell_state() -> DensityOperator:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 2.0**-0.5
    return PureJointState(v, (2, 2)).density()


def random_pure(dims, rng) -> PureJointState:
    d = int(np.prod(dims))
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureJointState(v / np.linalg.norm(v), tuple(dims))


def random_entangled_spec(rng, max_dim: int = 6) -> EntangledThermalSpec:
    """Random spec whose two local spectra share many exact joint-energy
    degeneracies (integer level patterns, dyadic scale ratios)."""
    d = int(rng.integers(2, max_dim + 1))
    steps = rng.integers(1, 3, size=d - 1)
    eps = np.concatenate([[0.0], np.cumsum(steps).astype(float)])
    eps *= rng.uniform(0.5, 2.0)
    mu_a = rng.uniform(0.5, 2.0)
    mu_b = mu_a * float(rng.choice([0.5, 1.0, 2.0]))
    return EntangledThermalSpec(eps, gamma=rng.uniform(0.5, 2.0), mu_a=mu_a, mu_b=mu_b)


def initial_state(case: CaseSpec) -> DensityOperator:
    """Dense joint initial state of an exchange case (a test oracle): the
    entangled pure state (kind V) or the product of the two Gibbs states
    (kind S)."""
    if case.kind == "V":
        return entangled_thermal_state(case.entangled).density()
    (h_a, h_b), (beta_a, beta_b) = case.hamiltonians(), case.betas()
    joint = kron(gibbs_state(h_a, beta_a).matrix, gibbs_state(h_b, beta_b).matrix)
    return DensityOperator(joint, (h_a.dim, h_b.dim))


def partial_swap(d: int, phi: float) -> np.ndarray:
    """Dense cos(phi) I - i sin(phi) SWAP on two d-dimensional factors (a
    test oracle for the Clausius contact's closed form)."""
    swap = np.zeros((d * d, d * d), dtype=complex)
    i, j = np.divmod(np.arange(d * d), d)
    swap[i * d + j, j * d + i] = 1.0
    return np.cos(phi) * np.eye(d * d, dtype=complex) - 1j * np.sin(phi) * swap


def shell_planes(d: int) -> list:
    """Every plane of a maximal disjoint set of degenerate planes for
    levels 0..d-1 on side A and 0, 2, ..., 2(d-1) on side B (epsilon =
    0..d-1, mu_a = 1, mu_b = 1/2): the joint states (i, j) of each energy
    shell i + 2j, ascending in i, taken two at a time."""
    planes = []
    for energy in range(3 * (d - 1) + 1):
        shell = [
            (i, (energy - i) // 2)
            for i in range(d)
            if (energy - i) % 2 == 0 and (energy - i) // 2 in range(d)
        ]
        planes.extend(zip(shell[0::2], shell[1::2]))
    return planes


def random_conserving_unitary(case: CaseSpec, rng) -> np.ndarray:
    """Random unitary commuting with the bare total Hamiltonian: rotations
    by random angles inside randomly chosen disjoint degenerate planes."""
    h_a, h_b = case.hamiltonians()
    pairs = degenerate_pairs(h_a, h_b)
    order = rng.permutation(len(pairs))
    used: set[int] = set()
    rotations = []
    for idx in order:
        (i, j), (i2, j2) = pairs[idx]
        fu, fv = i * h_b.dim + j, i2 * h_b.dim + j2
        if fu in used or fv in used:
            continue
        used.update((fu, fv))
        rotations.append(((i, j), (i2, j2), float(rng.uniform(0.0, 2.0 * np.pi))))
    return givens_unitary((h_a.dim, h_b.dim), rotations, joint_energies(h_a, h_b))
