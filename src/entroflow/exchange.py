"""Heat-exchange experiments between two finite systems and a cyclic
contact-with-reservoirs runner.

Two initial conditions are supported: kind "S" (uncorrelated product of
local Gibbs states at two temperatures, the molecular-chaos setting) and
kind "V" (a single entangled pure state whose marginals are the same two
Gibbs states).  The interaction is an explicit joint unitary; two exactly
energy-conserving families are provided (rotations inside degenerate
joint-energy planes, and resonant partial swaps), so that the exchanged
energy is heat with no work leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadCycle,
    DimensionMismatch,
    InvalidSpec,
    NoConvergence,
    NotDegenerate,
    NotUnitary,
    OverlappingPlanes,
)
from .qmath import dagger, kron, max_abs, partial_trace, unitarity_defect
from .states import (
    DensityOperator,
    EntangledThermalSpec,
    HamiltonianSpec,
    entangled_thermal_state,
    gibbs_state,
    marginal,
    trace_distance,
    von_neumann_entropy,
)

# commutator threshold below which a joint unitary counts as exactly
# energy conserving (W = Q_A + Q_B is then zero to rounding)
ENERGY_TOL = 1e-10
UNITARY_TOL = 1e-10
# a converged cycle passes when its Clausius sum is <= CLAUSIUS_TOL and
# every contact's slack beta*Q - dS is <= STROKE_TOL
CLAUSIUS_TOL = 1e-8
STROKE_TOL = 1e-9

JointPair = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class CaseSpec:
    """Initial condition of a two-party heat-exchange experiment.

    kind "V": a single EntangledThermalSpec fixes both local Hamiltonians
    and the (pure, entangled) joint state.  kind "S": explicit local
    Hamiltonians and unconstrained inverse temperatures; the joint state is
    the uncorrelated product of the two Gibbs states.
    """

    kind: str
    entangled: EntangledThermalSpec | None = None
    h_a: HamiltonianSpec | None = None
    h_b: HamiltonianSpec | None = None
    beta_a: float | None = None
    beta_b: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "V":
            if self.entangled is None:
                raise InvalidSpec("kind V requires an EntangledThermalSpec")
        elif self.kind == "S":
            if self.h_a is None or self.h_b is None:
                raise InvalidSpec("kind S requires both local Hamiltonians")
            if not (self.beta_a and self.beta_a > 0 and self.beta_b and self.beta_b > 0):
                raise InvalidSpec("kind S requires positive beta_a and beta_b")
            if self.h_a.dim < 2 or self.h_b.dim < 2:
                raise InvalidSpec("exchange needs at least 2 levels per side")
        else:
            raise InvalidSpec(f"kind must be 'S' or 'V', got {self.kind!r}")

    @classmethod
    def case_v(cls, spec: EntangledThermalSpec) -> "CaseSpec":
        return cls(kind="V", entangled=spec)

    @classmethod
    def case_s(
        cls,
        h_a: HamiltonianSpec,
        beta_a: float,
        h_b: HamiltonianSpec,
        beta_b: float,
    ) -> "CaseSpec":
        return cls(kind="S", h_a=h_a, h_b=h_b, beta_a=beta_a, beta_b=beta_b)

    def hamiltonians(self) -> tuple[HamiltonianSpec, HamiltonianSpec]:
        if self.kind == "V":
            return self.entangled.hamiltonian_a(), self.entangled.hamiltonian_b()
        return self.h_a, self.h_b

    def betas(self) -> tuple[float, float]:
        if self.kind == "V":
            return self.entangled.beta_a, self.entangled.beta_b
        return float(self.beta_a), float(self.beta_b)

    def initial_state(self) -> DensityOperator:
        h_a, h_b = self.hamiltonians()
        if self.kind == "V":
            return entangled_thermal_state(self.entangled).density()
        ba, bb = self.betas()
        joint = kron(gibbs_state(h_a, ba).matrix, gibbs_state(h_b, bb).matrix)
        return DensityOperator(joint, (h_a.dim, h_b.dim))


@dataclass(frozen=True)
class ExchangeReport:
    """Energy and entropy bookkeeping for one joint unitary.

    q_a/q_b are the heats absorbed by each side, ds_a/ds_b the marginal
    entropy changes (nats), work_leak = q_a + q_b (zero for an
    energy-conserving unitary), and slack_a/slack_b the per-side values of
    beta*Q - dS, each nonnegative when that side started in equilibrium.
    """

    q_a: float
    q_b: float
    ds_a: float
    ds_b: float
    mutual_info_initial: float
    mutual_info_final: float
    work_leak: float
    slack_a: float
    slack_b: float
    energy_conserving: bool


@dataclass(frozen=True)
class ClausiusStroke:
    """One stroke of a cyclic process.

    contact: partial swap at angle phi with a fresh reservoir prepared as a
    Gibbs state at the given temperature, copying the system's current
    Hamiltonian (resonance makes the coupling energy conserving).
    quench: instantaneous Hamiltonian replacement at fixed state (work, no
    heat); a cycle's quenches must restore the starting Hamiltonian.
    """

    kind: str
    temperature: float | None = None
    phi: float | None = None
    hamiltonian: HamiltonianSpec | None = None

    def __post_init__(self) -> None:
        if self.kind == "contact":
            if self.temperature is None or not self.temperature > 0:
                raise InvalidSpec(f"contact needs T > 0, got {self.temperature!r}")
            if self.phi is None or not np.isfinite(self.phi):
                raise InvalidSpec("contact needs a finite coupling angle phi")
        elif self.kind == "quench":
            if self.hamiltonian is None:
                raise InvalidSpec("quench needs a replacement Hamiltonian")
        else:
            raise InvalidSpec(f"stroke kind must be 'contact' or 'quench', got {self.kind!r}")

    @classmethod
    def contact(cls, temperature: float, phi: float) -> "ClausiusStroke":
        return cls(kind="contact", temperature=temperature, phi=phi)

    @classmethod
    def quench(cls, hamiltonian: HamiltonianSpec) -> "ClausiusStroke":
        return cls(kind="quench", hamiltonian=hamiltonian)


@dataclass(frozen=True)
class StrokeRecord:
    """Per-contact bookkeeping: heat into the system, its entropy change,
    and the slack beta*Q - dS (<= 0 for every contact with a fresh
    reservoir, whether or not the system has a temperature of its own)."""

    beta: float
    heat: float
    entropy_change: float
    slack: float


@dataclass(frozen=True)
class CycleReport:
    """Converged-cycle summary: sum of beta_j * Q_j over contact strokes,
    the per-stroke records of the final cycle, and fixed-point data."""

    clausius_sum: float
    strokes: tuple[StrokeRecord, ...]
    cycles_to_convergence: int
    residual: float


def joint_energies(h_a: HamiltonianSpec, h_b: HamiltonianSpec) -> np.ndarray:
    """Noninteracting joint spectrum E_i^A + E_j^B, flattened row-major."""
    return np.add.outer(h_a.levels, h_b.levels).ravel()


def degenerate_pairs(
    h_a: HamiltonianSpec, h_b: HamiltonianSpec, tol: float = 1e-9
) -> list[JointPair]:
    """All unordered pairs of distinct joint basis labels with equal total
    energy (within tol); rotations inside such planes exchange heat without
    doing work.  The empty list means no workless exchange is possible."""
    d_b = h_b.dim
    energies = joint_energies(h_a, h_b)
    order = np.argsort(energies, kind="stable")
    out: list[JointPair] = []
    # sweep the sorted spectrum; ties cluster, so compare within a window
    n = energies.size
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and energies[order[stop]] - energies[order[start]] <= tol:
            stop += 1
        cluster = sorted(int(order[t]) for t in range(start, stop))
        for a_idx in range(len(cluster)):
            for b_idx in range(a_idx + 1, len(cluster)):
                u, v = cluster[a_idx], cluster[b_idx]
                if abs(energies[u] - energies[v]) <= tol:
                    out.append(((u // d_b, u % d_b), (v // d_b, v % d_b)))
        start = stop
    return out


def givens_unitary(
    dims: Sequence[int],
    rotations: Sequence[tuple[tuple[int, int], tuple[int, int], float]],
    energies: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray:
    """Joint unitary rotating disjoint degenerate planes.

    Each rotation ((i, j), (i', j'), phi) mixes the two joint basis states
    by angle phi; both must carry the same total energy (from ``energies``,
    the diagonal of the noninteracting joint Hamiltonian) within tol, so
    the result commutes with it.  phi = pi/2 maps one state onto the other
    up to sign.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise DimensionMismatch(f"expected two factors, got dims {dims}")
    d_a, d_b = dims
    d = d_a * d_b
    energies = np.asarray(energies, dtype=float)
    if energies.ndim == 2:
        # a joint Hamiltonian matrix is accepted if diagonal in this basis
        if energies.shape != (d, d):
            raise DimensionMismatch(f"Hamiltonian shape {energies.shape} != joint dim {d}")
        if max_abs(energies - np.diag(np.diagonal(energies))) > 1e-12:
            raise NotDegenerate("joint Hamiltonian is not diagonal in the rotation basis")
        energies = np.diagonal(energies).copy()
    energies = energies.ravel()
    if energies.size != d:
        raise DimensionMismatch(f"energies length {energies.size} != joint dim {d}")

    u = np.eye(d, dtype=complex)
    used: set[int] = set()
    for (i, j), (i2, j2), phi in rotations:
        for idx, bound in (((i, j), (d_a, d_b)), ((i2, j2), (d_a, d_b))):
            if not (0 <= idx[0] < bound[0] and 0 <= idx[1] < bound[1]):
                raise DimensionMismatch(f"joint label {idx} out of range for dims {dims}")
        fu = i * d_b + j
        fv = i2 * d_b + j2
        if fu == fv:
            raise OverlappingPlanes(f"rotation plane degenerates to a single state {(i, j)}")
        if abs(energies[fu] - energies[fv]) > tol:
            raise NotDegenerate(
                f"labels {(i, j)} and {(i2, j2)} differ in energy by "
                f"{abs(energies[fu] - energies[fv]):.3e} (> {tol})"
            )
        if fu in used or fv in used:
            raise OverlappingPlanes(f"rotation plane ({(i, j)}, {(i2, j2)}) reuses a basis state")
        used.update((fu, fv))
        c, s = np.cos(phi), np.sin(phi)
        u[fu, fu] = c
        u[fv, fv] = c
        u[fu, fv] = -s
        u[fv, fu] = s
    return u


def partial_swap(d: int, phi: float) -> np.ndarray:
    """cos(phi) I - i sin(phi) SWAP on two d-dimensional factors.

    phi = 0 is the identity, phi = pi/2 the full swap (up to global phase);
    every angle commutes with H (x) I + I (x) H for any single-factor H.
    """
    if d < 2:
        raise DimensionMismatch(f"partial swap needs d >= 2, got {d}")
    swap = np.zeros((d * d, d * d), dtype=complex)
    i, j = np.divmod(np.arange(d * d), d)
    swap[i * d + j, j * d + i] = 1.0
    return np.cos(phi) * np.eye(d * d, dtype=complex) - 1j * np.sin(phi) * swap


def run_exchange(case: CaseSpec, u: np.ndarray) -> ExchangeReport:
    """Apply a joint unitary to the initial condition and meter both sides.

    The report's energy_conserving flag records whether u commutes with the
    bare total Hamiltonian (max-abs commutator <= 1e-10); only then is the
    exchanged energy pure heat and work_leak zero to rounding.
    """
    h_a, h_b = case.hamiltonians()
    beta_a, beta_b = case.betas()
    rho0 = case.initial_state()

    u = np.asarray(u, dtype=complex)
    if u.shape != (rho0.dim, rho0.dim):
        raise DimensionMismatch(f"unitary shape {u.shape} != joint dim {rho0.dim}")
    # written to fail closed: a NaN defect must not pass
    if not unitarity_defect(u) <= UNITARY_TOL:
        raise NotUnitary(f"max |U^dag U - I| = {unitarity_defect(u):.3e}")

    mat_a = h_a.matrix()
    mat_b = h_b.matrix()
    h_total = kron(mat_a, np.eye(h_b.dim)) + kron(np.eye(h_a.dim), mat_b)
    conserving = max_abs(u @ h_total - h_total @ u) <= ENERGY_TOL

    rho1 = DensityOperator(u @ rho0.matrix @ dagger(u), rho0.dims)
    a0, b0, a1, b1 = (marginal(rho, k) for rho in (rho0, rho1) for k in (0, 1))
    s_a0, s_b0, s_a1, s_b1 = (von_neumann_entropy(red) for red in (a0, b0, a1, b1))

    q_a = float(np.trace((a1.matrix - a0.matrix) @ mat_a).real)
    q_b = float(np.trace((b1.matrix - b0.matrix) @ mat_b).real)
    ds_a = s_a1 - s_a0
    ds_b = s_b1 - s_b0

    return ExchangeReport(
        q_a=q_a,
        q_b=q_b,
        ds_a=ds_a,
        ds_b=ds_b,
        mutual_info_initial=s_a0 + s_b0 - von_neumann_entropy(rho0),
        mutual_info_final=s_a1 + s_b1 - von_neumann_entropy(rho1),
        work_leak=q_a + q_b,
        slack_a=beta_a * q_a - ds_a,
        slack_b=beta_b * q_b - ds_b,
        energy_conserving=conserving,
    )


def _check_cycle_restores(h0: HamiltonianSpec, strokes: Sequence[ClausiusStroke]) -> None:
    h = h0
    for stroke in strokes:
        if stroke.kind == "quench":
            h = stroke.hamiltonian
    if h.dim != h0.dim or max_abs(h.matrix() - h0.matrix()) > 1e-12:
        raise BadCycle("quench strokes do not restore the initial Hamiltonian")


def clausius_cycle(
    system: tuple[HamiltonianSpec, DensityOperator],
    strokes: Sequence[ClausiusStroke],
    max_cycles: int = 500,
    fp_tol: float = 1e-10,
) -> CycleReport:
    """Iterate a stroke cycle to its periodic steady state and meter heats.

    Each contact uses a fresh, uncorrelated reservoir (Gibbs at the stroke
    temperature, same Hamiltonian as the system) coupled through a partial
    swap; each quench replaces the Hamiltonian at fixed state.  Cycles are
    repeated until the state returns to itself within fp_tol in trace
    distance; the report then carries the final cycle's per-contact records
    with slack_j = beta_j * Q_j - dS_j (each <= 0) and their Clausius sum.
    """
    h0, rho = system
    if rho.dim != h0.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != Hamiltonian dim {h0.dim}")
    if len(rho.dims) != 1:
        raise DimensionMismatch("system state must be a single tensor factor")
    _check_cycle_restores(h0, strokes)

    d = h0.dim
    for cycle in range(1, max_cycles + 1):
        rho_start = rho
        records: list[StrokeRecord] = []
        h = h0
        for stroke in strokes:
            if stroke.kind == "quench":
                h = stroke.hamiltonian
                continue
            beta = 1.0 / stroke.temperature
            reservoir = gibbs_state(h, beta)
            u = partial_swap(d, stroke.phi)
            joint = u @ kron(rho.matrix, reservoir.matrix) @ dagger(u)
            reduced = partial_trace(joint, (d, d), [0])
            h_mat = h.matrix()
            heat = float(np.trace((reduced - rho.matrix) @ h_mat).real)
            rho_next = DensityOperator(reduced, (d,))
            ds = von_neumann_entropy(rho_next) - von_neumann_entropy(rho)
            records.append(
                StrokeRecord(beta=beta, heat=heat, entropy_change=ds, slack=beta * heat - ds)
            )
            rho = rho_next
        residual = trace_distance(rho_start, rho)
        if residual < fp_tol:
            return CycleReport(
                clausius_sum=float(sum(r.beta * r.heat for r in records)),
                strokes=tuple(records),
                cycles_to_convergence=cycle,
                residual=residual,
            )
    raise NoConvergence(
        f"no fixed point after {max_cycles} cycles; last residual {residual:.3e}"
    )
