"""Density operators, Hamiltonians as their levels, Gibbs populations,
entropy functionals, and the defining data of the entangled pure state
whose marginals are thermal.

Every function here takes a plain matrix, one state (D, D) or a stack
(N, D, D), and trusts it as a density operator: each state the package
forms is exactly Hermitian, (M + M^dag) / 2 taken where it is formed.
DensityOperator validates a matrix from outside the program, and no
library function builds one.  Every spectrum in the package is one
``eigvalsh`` made here: DensityOperator's, which decides its sign and is
kept, and von_neumann_entropy's, of a matrix or of a reduced one.  A
Gibbs state is diag(p) in its Hamiltonian's eigenbasis and is never
solved: its entropy, energy and ln Z are read off its Gibbs row p, which
gibbs_divergence, the only divergence, takes from its caller.  STATE_TOL
is the one hermiticity gate.

Units: hbar = k_B = 1, natural logarithms, entropies in nats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import math

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, InvalidState, finite_real
from .qmath import dagger, partial_trace, scalar_or_stack, trace

# state-validation tolerances: hermiticity / negativity / trace deficit
STATE_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix plus the list of
    local dimensions of its tensor factors (leftmost factor first).

    ``matrix`` is one state (D, D) or a stack of states on the same factors
    (N, D, D), stored as its Hermitian part, whose ``.matrix`` and ``.dims``
    the entropy functions and checks take.  Each matrix is checked on its
    own within STATE_TOL by one eigvalsh of the stack, whose ascending
    spectra are kept as the read-only attribute ``spectrum`` (..., D); a
    state is semidefinite exactly when its kept spectrum[..., 0] >=
    -STATE_TOL.  The first failing matrix in stack order raises InvalidState
    with the message it raises alone; a NaN or infinite entry fails the
    first check, and a Hermitian part that overflows the second.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in np.atleast_1d(self.dims))
        if any(d < 1 for d in dims):
            raise DimensionMismatch(f"factor dimensions must be positive, got {dims}")
        total = math.prod(dims)
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (total, total):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} is neither ({total}, {total}) from dims {dims} "
                "nor a stack of such matrices"
            )
        # one state is a stack of one, so it has the same bits as in any stack
        stack = mat.reshape(-1, total, total)
        adjoint = dagger(stack)
        # an infinite entry gives a NaN, a huge one an infinite sum: refused below
        with np.errstate(over="ignore", invalid="ignore"):
            herm = np.abs(stack - adjoint).max(axis=(-2, -1))
            sym = (stack + adjoint) / 2
            tr = trace(sym).real
        # written as "not within" so that a NaN fails
        hermitian = herm <= STATE_TOL
        finite = np.isfinite(sym).all(axis=(-2, -1))
        unit_trace = np.abs(tr - 1.0) <= STATE_TOL
        # a state that already failed is solved as zeros, since LAPACK may
        # raise on a NaN or an infinity, or give a finite spectrum for one
        spectrum = np.linalg.eigvalsh(np.where((hermitian & finite)[:, None, None], sym, 0))
        semidefinite = spectrum[:, 0] >= -STATE_TOL
        failed = ~(hermitian & finite & semidefinite & unit_trace)
        if failed.any():
            t = int(np.argmax(failed))
            if not hermitian[t]:
                raise InvalidState(f"not Hermitian: max |M - M^dag| = {herm[t]:.3e}")
            if not finite[t]:
                raise InvalidState("Hermitian part (M + M^dag) / 2 is not finite")
            if not semidefinite[t]:
                raise InvalidState(f"negative eigenvalue {spectrum[t, 0]:.3e}")
            raise InvalidState(f"trace {float(tr[t])!r} differs from 1 beyond {STATE_TOL}")
        object.__setattr__(self, "matrix", _frozen(sym).reshape(mat.shape))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spectrum", _frozen(spectrum).reshape(mat.shape[:-1]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian in its eigenbasis: its ascending, finite levels, one
    list (d,) or a stack of them (N, d).  An operator in another basis is a
    plain matrix written in this one."""

    levels: np.ndarray

    def __post_init__(self) -> None:
        lv = np.atleast_1d(np.asarray(self.levels, dtype=float))
        if lv.ndim > 2 or lv.shape[-1] < 1 or not np.all(np.isfinite(lv)):
            raise InvalidSpec(
                f"levels must be a finite 1-D sequence or a stack of them, got {self.levels!r}"
            )
        if np.any(np.diff(lv, axis=-1) < 0):
            raise InvalidSpec("levels must be ascending")
        object.__setattr__(self, "levels", _frozen(lv.copy()))

    @property
    def dim(self) -> int:
        return int(self.levels.shape[-1])


@dataclass(frozen=True)
class EntangledThermalSpec:
    """Defining data of the entangled pure state with thermal marginals.

    A shared spectrum epsilon (ascending, epsilon[0] = 0) is scaled into the
    two local Hamiltonians, E_i^A = epsilon_i / mu_a and E_i^B =
    epsilon_i / mu_b.  The state sum_i a_i |i>|i> on the paired levels is
    given by its Schmidt coefficients a_i = exp(-gamma epsilon_i / 2) /
    sqrt(Z) (``amplitudes``).  Each marginal is then Gibbs at beta_a = mu_a
    * gamma, beta_b = mu_b * gamma, both checked like gamma.
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
        object.__setattr__(self, "epsilon", _frozen(eps.copy()))
        for name in ("gamma", "mu_a", "mu_b"):
            object.__setattr__(self, name, finite_real(getattr(self, name), name, positive=True))
        for name, mu in (("beta_a", "mu_a"), ("beta_b", "mu_b")):
            finite_real(getattr(self, name), f"{name} = {mu} * gamma", positive=True)

    @property
    def dim(self) -> int:
        return int(self.epsilon.size)

    @property
    def beta_a(self) -> float:
        return self.mu_a * self.gamma

    @property
    def beta_b(self) -> float:
        return self.mu_b * self.gamma

    def amplitudes(self) -> np.ndarray:
        """Schmidt coefficients exp(-gamma epsilon_i / 2) / sqrt(Z), unit norm."""
        amp = np.exp(-self.gamma * self.epsilon / 2.0)
        return amp / np.linalg.norm(amp)

    def hamiltonian_a(self) -> HamiltonianSpec:
        return HamiltonianSpec(self.epsilon / self.mu_a)

    def hamiltonian_b(self) -> HamiltonianSpec:
        return HamiltonianSpec(self.epsilon / self.mu_b)


def _positive_beta(beta) -> np.ndarray:
    b = np.asarray(beta)
    # integer or float dtypes only: no str, bool or object (as for 10**400)
    if b.dtype.kind not in "iuf" or not ((b > 0) & (b < np.inf)).all():
        raise InvalidSpec(f"beta must be finite and positive, got {beta!r}")
    return b.astype(float, copy=False)


def gibbs_populations(h: HamiltonianSpec, beta) -> np.ndarray:
    """Occupations exp(-beta E_i)/Z of the ascending levels, formed with the
    ground energy subtracted so that large beta cannot overflow.  An array
    of betas gives one row per beta (and per Hamiltonian of a stack)."""
    b = _positive_beta(beta)[..., None]
    w = np.exp(-b * (h.levels - h.levels[..., :1]))
    return w / w.sum(-1, keepdims=True)


def spectral_entropy(lam: np.ndarray):
    """-sum lam ln lam over the positive entries of each spectrum or
    population vector (last axis), in any order: a zero or a negative entry
    (rounding noise of a semidefinite spectrum) adds exactly 0, and a NaN
    gives NaN.  Each row is one contiguous sum, with the same bits alone as
    in any stack."""
    lam = np.asarray(lam, dtype=float)
    kept = np.where(lam <= 0, 1.0, lam)
    return scalar_or_stack(-(kept * np.log(kept)).sum(-1))


def von_neumann_entropy(matrix: np.ndarray):
    """S(rho) = -tr(rho ln rho) in nats, one eigvalsh of the (stacked)
    Hermitian matrix; 0 * ln 0 reads as 0."""
    return spectral_entropy(np.linalg.eigvalsh(matrix))


def subsystem_entropy(matrix: np.ndarray, dims: Iterable[int], keep: Iterable[int]):
    """Von Neumann entropy of the reduced state on the factors in ``keep``
    of a state on factors ``dims``: von_neumann_entropy of the reduced
    matrix, exactly Hermitian when ``matrix`` is."""
    return von_neumann_entropy(partial_trace(matrix, dims, keep))


def gibbs_divergence(energy, entropy, h: HamiltonianSpec, beta, p):
    """S(rho || gamma) for gamma = exp(-beta H)/Z, from the energy tr(rho H),
    entropy S(rho) and Gibbs row p = gibbs_populations(h, beta) the caller
    has: beta E + ln Z - S, with ln Z = -beta E_0 - ln p_0.  No eigensolve
    and no support floor: a Gibbs population is positive even where
    exp(-beta E) underflows.  A stack gives one value per state."""
    _positive_beta(beta)
    log_z = -beta * h.levels[..., 0] - np.log(p[..., 0])
    return scalar_or_stack(beta * energy + log_z - entropy)
