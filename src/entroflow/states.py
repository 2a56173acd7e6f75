"""Density operators, Gibbs states, entropy functionals, and the
scaled-spectrum entangled pure state whose marginals are thermal.

Units: hbar = k_B = 1, natural logarithms, entropies in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import math

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSpec,
    InvalidState,
    NonpositiveBeta,
    SupportViolation,
)
from .qmath import dagger, eig_hermitian, hermiticity_defect, max_abs, partial_trace

# state-validation tolerances: hermiticity / negativity / trace deficit
STATE_TOL = 1e-10
# below this, an eigenvalue of a unit-trace operator is indistinguishable
# from zero at double precision and counts as outside the support
SUPPORT_FLOOR = 1e-13
# rho's weight on sigma's null space above which D(rho||sigma) is infinite
SUPPORT_TOL = 1e-10
# largest |norm - 1| accepted for a pure state's vector
NORM_TOL = 1e-12


def _frozen_complex(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix plus the list of
    local dimensions of its tensor factors (leftmost factor first)."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    # ascending eigenvalues found while validating (read-only): entropies of
    # the whole state read them instead of diagonalizing again
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in np.atleast_1d(self.dims))
        if any(d < 1 for d in dims):
            raise DimensionMismatch(f"factor dimensions must be positive, got {dims}")
        total = math.prod(dims)
        if mat.ndim != 2 or mat.shape != (total, total):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} != ({total}, {total}) from dims {dims}"
            )
        if hermiticity_defect(mat) > STATE_TOL:
            raise InvalidState(
                f"not Hermitian: max |M - M^dag| = {hermiticity_defect(mat):.3e}"
            )
        sym = (mat + dagger(mat)) / 2
        lam = np.linalg.eigvalsh(sym)
        if lam[0] < -STATE_TOL:
            raise InvalidState(f"negative eigenvalue {lam[0]:.3e}")
        tr = float(np.trace(sym).real)
        if abs(tr - 1.0) > STATE_TOL:
            raise InvalidState(f"trace {tr!r} differs from 1 beyond {STATE_TOL}")
        lam.setflags(write=False)
        object.__setattr__(self, "matrix", _frozen_complex(sym))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", lam)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Energy spectrum (ascending) with an optional eigenbasis.

    ``basis`` columns are the eigenvectors; None means the computational
    basis, i.e. the operator is diag(levels).
    """

    levels: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        lv = np.atleast_1d(np.asarray(self.levels, dtype=float))
        if lv.ndim != 1 or lv.size < 1 or not np.all(np.isfinite(lv)):
            raise InvalidSpec(f"levels must be a finite 1-D sequence, got {self.levels!r}")
        if np.any(np.diff(lv) < 0):
            raise InvalidSpec("levels must be ascending")
        lv = lv.copy()
        lv.setflags(write=False)
        object.__setattr__(self, "levels", lv)
        if self.basis is not None:
            b = np.asarray(self.basis, dtype=complex)
            if b.shape != (lv.size, lv.size):
                raise DimensionMismatch(
                    f"basis shape {b.shape} incompatible with {lv.size} levels"
                )
            if max_abs(dagger(b) @ b - np.eye(lv.size)) > STATE_TOL:
                raise InvalidSpec("basis is not unitary")
            object.__setattr__(self, "basis", _frozen_complex(b))

    @property
    def dim(self) -> int:
        return int(self.levels.size)

    def matrix(self) -> np.ndarray:
        if self.basis is None:
            return np.diag(self.levels).astype(complex)
        return (self.basis * self.levels) @ dagger(self.basis)

    @classmethod
    def from_matrix(cls, h: np.ndarray) -> "HamiltonianSpec":
        w, v = eig_hermitian(h)
        return cls(levels=w, basis=v)


@dataclass(frozen=True)
class EntangledThermalSpec:
    """Defining data of the entangled pure state with thermal marginals.

    A shared spectrum epsilon (ascending, epsilon[0] = 0) is scaled into the
    two local Hamiltonians, E_i^A = epsilon_i / mu_a and E_i^B =
    epsilon_i / mu_b, and the joint amplitudes decay as exp(-gamma
    epsilon_i / 2).  Each marginal is then Gibbs at beta_a = mu_a * gamma,
    beta_b = mu_b * gamma.
    """

    epsilon: np.ndarray
    gamma: float
    mu_a: float
    mu_b: float

    def __post_init__(self) -> None:
        eps = np.atleast_1d(np.asarray(self.epsilon, dtype=float))
        if eps.ndim != 1 or eps.size < 2 or not np.all(np.isfinite(eps)):
            raise InvalidSpec("epsilon must be a finite 1-D sequence with >= 2 entries")
        if eps[0] != 0.0:
            raise InvalidSpec(f"epsilon[0] must be 0 by convention, got {eps[0]!r}")
        if np.any(np.diff(eps) < 0):
            raise InvalidSpec("epsilon must be ascending")
        for name in ("gamma", "mu_a", "mu_b"):
            val = float(getattr(self, name))
            if not (val > 0 and np.isfinite(val)):
                raise InvalidSpec(f"{name} must be positive and finite, got {val!r}")
        eps = eps.copy()
        eps.setflags(write=False)
        object.__setattr__(self, "epsilon", eps)

    @property
    def dim(self) -> int:
        return int(self.epsilon.size)

    @property
    def beta_a(self) -> float:
        return self.mu_a * self.gamma

    @property
    def beta_b(self) -> float:
        return self.mu_b * self.gamma

    def hamiltonian_a(self) -> HamiltonianSpec:
        return HamiltonianSpec(self.epsilon / self.mu_a)

    def hamiltonian_b(self) -> HamiltonianSpec:
        return HamiltonianSpec(self.epsilon / self.mu_b)


@dataclass(frozen=True)
class PureJointState:
    """Unit vector on a composite Hilbert space."""

    vector: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        vec = np.asarray(self.vector, dtype=complex).ravel()
        dims = tuple(int(d) for d in np.atleast_1d(self.dims))
        if vec.size != math.prod(dims):
            raise DimensionMismatch(
                f"vector length {vec.size} != product of dims {dims}"
            )
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidState(f"norm {norm!r} differs from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "vector", _frozen_complex(vec))
        object.__setattr__(self, "dims", dims)

    def density(self) -> DensityOperator:
        return DensityOperator(np.outer(self.vector, self.vector.conj()), self.dims)


def gibbs_populations(h: HamiltonianSpec, beta: float) -> np.ndarray:
    """Occupations exp(-beta E_i)/Z of the ascending levels, formed with the
    ground energy subtracted so that large beta cannot overflow."""
    if not beta > 0:
        raise NonpositiveBeta(f"beta must be positive, got {beta!r}")
    w = np.exp(-beta * (h.levels - h.levels[0]))
    return w / w.sum()


def gibbs_state(h: HamiltonianSpec, beta: float) -> DensityOperator:
    """Thermal equilibrium state exp(-beta H)/Z at inverse temperature beta,
    built from gibbs_populations in the energy eigenbasis."""
    p = gibbs_populations(h, beta)
    if h.basis is None:
        mat = np.diag(p).astype(complex)
    else:
        mat = (h.basis * p) @ dagger(h.basis)
    return DensityOperator(mat, (h.dim,))


def log_partition(h: HamiltonianSpec, beta: float) -> float:
    """ln Z = ln tr exp(-beta H), evaluated stably."""
    if not beta > 0:
        raise NonpositiveBeta(f"beta must be positive, got {beta!r}")
    e0 = float(h.levels[0])
    return float(-beta * e0 + np.log(np.exp(-beta * (h.levels - e0)).sum()))


def _spectral_entropy(lam: np.ndarray) -> float:
    """-sum lam ln lam over the positive eigenvalues: a zero adds 0 ln 0 = 0,
    and a negative one is rounding noise of a semidefinite spectrum."""
    lam = lam[lam > 0]
    return float(-(lam * np.log(lam)).sum())


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -tr(rho ln rho) in nats; 0 * ln 0 reads as 0."""
    return _spectral_entropy(rho.spectrum)


def product_entropy(*factors: DensityOperator) -> float:
    """S(rho_1 (x) rho_2 (x) ...) from the products of the factors' stored
    spectra; no joint matrix is formed."""
    lam = np.ones(1)
    for rho in factors:
        lam = np.multiply.outer(lam, rho.spectrum).ravel()
    return _spectral_entropy(lam)


def subsystem_entropy(rho: DensityOperator, keep: Iterable[int]) -> float:
    """Von Neumann entropy of the reduced state on the factors in ``keep``:
    one eigensolve of the reduced matrix, or none when every factor is kept
    (the state's stored spectrum)."""
    keep = sorted(set(int(k) for k in keep))
    if keep == list(range(len(rho.dims))):
        return von_neumann_entropy(rho)
    reduced = partial_trace(rho.matrix, rho.dims, keep)
    return _spectral_entropy(np.linalg.eigvalsh((reduced + dagger(reduced)) / 2))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """S(rho || sigma) = tr(rho ln rho) - tr(rho ln sigma), in nats.

    Raises SupportViolation when sigma's null space (eigenvalues <=
    SUPPORT_FLOOR) carries more than SUPPORT_TOL of rho's weight.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    w_s, v_s = eig_hermitian(sigma.matrix)
    # rho's weight in each sigma eigendirection
    weights = np.einsum("ij,jk,ki->i", dagger(v_s), rho.matrix, v_s).real
    weights = np.clip(weights, 0.0, None)
    null = w_s <= SUPPORT_FLOOR
    if float(weights[null].sum()) > SUPPORT_TOL:
        raise SupportViolation(
            f"rho carries weight {weights[null].sum():.3e} outside sigma's support"
        )
    tr_rho_ln_sigma = float((weights[~null] * np.log(w_s[~null])).sum())
    return -von_neumann_entropy(rho) - tr_rho_ln_sigma


def gibbs_divergence(rho: DensityOperator, h: HamiltonianSpec, beta: float) -> float:
    """S(rho || gamma) for the Gibbs state gamma = exp(-beta H)/Z, from the
    exact ln gamma = -beta H - ln Z: beta tr(rho H) + ln Z - S(rho).

    No eigensolve of gamma, and no support floor: a Gibbs population is
    positive even where exp(-beta E) underflows.
    """
    if rho.dim != h.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {h.dim}")
    mean_energy = float(np.trace(rho.matrix @ h.matrix()).real)
    return beta * mean_energy + log_partition(h, beta) - von_neumann_entropy(rho)


def marginal(
    state: DensityOperator | PureJointState, which: int | Iterable[int]
) -> DensityOperator:
    """Reduced state of the named factor(s), tracing out all others."""
    rho = state.density() if isinstance(state, PureJointState) else state
    keep = [which] if isinstance(which, (int, np.integer)) else list(which)
    reduced = partial_trace(rho.matrix, rho.dims, keep)
    kept_dims = tuple(rho.dims[int(k)] for k in sorted(set(int(k) for k in keep)))
    return DensityOperator(reduced, kept_dims)


def mutual_information(rho: DensityOperator, i: int, j: int) -> float:
    """I(i:j) = S_i + S_j - S_ij for two factors of a composite state, nats."""
    n = len(rho.dims)
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise DimensionMismatch(f"need two distinct factor indices in [0, {n}), got {i}, {j}")
    s_i = subsystem_entropy(rho, [i])
    s_j = subsystem_entropy(rho, [j])
    s_ij = subsystem_entropy(rho, [i, j])
    return s_i + s_j - s_ij


def entangled_thermal_state(spec: EntangledThermalSpec) -> PureJointState:
    """Pure two-party state with amplitudes exp(-gamma epsilon_i / 2)/sqrt(Z)
    on the paired levels |i>|i>; both marginals are Gibbs states."""
    d = spec.dim
    amp = np.exp(-spec.gamma * spec.epsilon / 2.0)
    amp = amp / np.linalg.norm(amp)
    vec = np.zeros(d * d, dtype=complex)
    vec[np.arange(d) * d + np.arange(d)] = amp
    return PureJointState(vec, (d, d))


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2) ||rho - sigma||_1 via the spectrum of the difference."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    lam = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(0.5 * np.abs(lam).sum())
