"""Heat-exchange experiments between two finite systems and a cyclic
contact-with-reservoirs runner.

Two initial conditions are supported: kind "S" (uncorrelated product of
local Gibbs states at two temperatures, the molecular-chaos setting) and
kind "V" (a single entangled pure state whose marginals are the same two
Gibbs states).  The interaction is an explicit joint unitary; the exactly
energy-conserving family provided is rotations inside degenerate
joint-energy planes (givens_planes, applied as row updates; givens_unitary
is their dense matrix), so that the exchanged energy is heat with no work
leakage.  Each Clausius contact is a resonant partial swap with a fresh
reservoir, applied through its d x d closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from .qmath import dagger, max_abs, unitarity_defect
from .states import (
    DensityOperator,
    EntangledThermalSpec,
    HamiltonianSpec,
    entangled_thermal_state,
    gibbs_divergence,
    gibbs_populations,
    gibbs_state,
    product_entropy,
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
# joint basis states at most DEGENERACY_TOL apart in energy are degenerate
DEGENERACY_TOL = 1e-9
# max-abs gap at which two Hamiltonian matrices count as equal
HAMILTONIAN_TOL = 1e-12
# clausius_cycle defaults
MAX_CYCLES = 500
FIXED_POINT_TOL = 1e-10

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


@dataclass(frozen=True)
class ExchangeReport:
    """Energy and entropy bookkeeping for one joint unitary.

    q_a/q_b are the heats absorbed by each side, ds_a/ds_b the marginal
    entropy changes (nats), work_leak = q_a + q_b (zero for an
    energy-conserving unitary), and slack_a/slack_b the per-side values of
    beta*Q - dS, each nonnegative when that side started in equilibrium.
    identity_gap is the residual of beta_A Q_A + beta_B Q_B = dI +
    D(rho_A'||gamma_A) + D(rho_B'||gamma_B), zero to rounding.
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
    identity_gap: float


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


def degenerate_pairs(h_a: HamiltonianSpec, h_b: HamiltonianSpec) -> list[JointPair]:
    """All unordered pairs of joint basis labels u != v with |E_u - E_v| <=
    DEGENERACY_TOL, givens_planes' rule: rotations inside such planes
    exchange heat without doing work.  The empty list means no such plane
    exists."""
    d_b = h_b.dim
    energies = joint_energies(h_a, h_b)
    order = np.argsort(energies, kind="stable")
    ranked = energies[order]
    # ranked[k] can pair only with ranked[k + 1 : stops[k]]
    stops = np.searchsorted(ranked, ranked + DEGENERACY_TOL, side="right")
    out: list[JointPair] = []
    for k, stop in enumerate(stops):
        for m in range(k + 1, stop):
            u, v = sorted((int(order[k]), int(order[m])))
            if abs(energies[u] - energies[v]) <= DEGENERACY_TOL:
                out.append(((u // d_b, u % d_b), (v // d_b, v % d_b)))
    return out


@dataclass(frozen=True)
class GivensPlanes:
    """Disjoint degenerate planes of a two-party joint space: plane k
    rotates the flat joint basis states u[k] and v[k] by the angle with
    cosine cos[k] and sine sin[k].  Build it with givens_planes, which
    checks the planes; run_exchange relies on them being disjoint and in
    range, and checks only cos^2 + sin^2 = 1."""

    dims: tuple[int, int]
    u: np.ndarray
    v: np.ndarray
    cos: np.ndarray
    sin: np.ndarray

    def at_angle(self, phi: float) -> "GivensPlanes":
        """The same planes, every one rotated by phi."""
        c, s = np.cos(phi), np.sin(phi)
        return replace(self, cos=np.full(self.u.size, c), sin=np.full(self.u.size, s))

    def matrix(self) -> np.ndarray:
        """The dense D x D unitary of the planes."""
        out = np.eye(self.dims[0] * self.dims[1], dtype=complex)
        out[self.u, self.u] = self.cos
        out[self.v, self.v] = self.cos
        out[self.u, self.v] = -self.sin
        out[self.v, self.u] = self.sin
        return out


def givens_planes(
    dims: Sequence[int],
    rotations: Sequence[tuple[tuple[int, int], tuple[int, int], float]],
    energies: np.ndarray,
) -> GivensPlanes:
    """Rotations inside disjoint degenerate joint-energy planes.

    Each rotation ((i, j), (i', j'), phi) mixes the two joint basis states
    by angle phi; both must carry the same total energy (from ``energies``,
    the diagonal of the noninteracting joint Hamiltonian) within
    DEGENERACY_TOL, so the rotation commutes with it, and no basis state may
    lie in two planes.  phi = pi/2 maps one state onto the other up to sign.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise DimensionMismatch(f"expected two factors, got dims {dims}")
    d_a, d_b = dims
    d = d_a * d_b
    energies = np.asarray(energies, dtype=float).ravel()
    if energies.size != d:
        raise DimensionMismatch(f"energies length {energies.size} != joint dim {d}")

    planes: list[tuple[int, int, float, float]] = []
    used: set[int] = set()
    for (i, j), (i2, j2), phi in rotations:
        for idx, bound in (((i, j), (d_a, d_b)), ((i2, j2), (d_a, d_b))):
            if not (0 <= idx[0] < bound[0] and 0 <= idx[1] < bound[1]):
                raise DimensionMismatch(f"joint label {idx} out of range for dims {dims}")
        fu = i * d_b + j
        fv = i2 * d_b + j2
        if fu == fv:
            raise OverlappingPlanes(f"rotation plane degenerates to a single state {(i, j)}")
        if abs(energies[fu] - energies[fv]) > DEGENERACY_TOL:
            raise NotDegenerate(
                f"labels {(i, j)} and {(i2, j2)} differ in energy by "
                f"{abs(energies[fu] - energies[fv]):.3e} (> {DEGENERACY_TOL})"
            )
        if fu in used or fv in used:
            raise OverlappingPlanes(f"rotation plane ({(i, j)}, {(i2, j2)}) reuses a basis state")
        used.update((fu, fv))
        planes.append((fu, fv, np.cos(phi), np.sin(phi)))
    u, v, c, s = np.array(planes, dtype=float).reshape(-1, 4).T
    return GivensPlanes(dims, u.astype(int), v.astype(int), c, s)


def givens_unitary(
    dims: Sequence[int],
    rotations: Sequence[tuple[tuple[int, int], tuple[int, int], float]],
    energies: np.ndarray,
) -> np.ndarray:
    """Joint unitary rotating disjoint degenerate planes: the dense matrix
    of givens_planes(dims, rotations, energies)."""
    return givens_planes(dims, rotations, energies).matrix()


def _energy_commutator_defect(u: np.ndarray, mat_a: np.ndarray, mat_b: np.ndarray) -> float:
    """max |U H - H U| for H = H_A (x) 1 + 1 (x) H_B.

    Each local factor acts on one index of a reshape of U (rows and columns
    are ordered (i, j)), so the cost is O(D^2 d) and no D x D Hamiltonian
    is formed.
    """
    d_a, d_b = mat_a.shape[0], mat_b.shape[0]
    d = d_a * d_b
    # H U - U H accumulated in one D x D array
    comm = (mat_a @ u.reshape(d_a, d_b * d)).reshape(d, d)
    comm += (mat_b @ u.reshape(d_a, d_b, d)).reshape(d, d)
    comm -= (mat_a.T @ u.reshape(d, d_a, d_b)).reshape(d, d)
    comm -= (u.reshape(d * d_a, d_b) @ mat_b).reshape(d, d)
    return max_abs(comm)


def _gibbs_factor(h: HamiltonianSpec, root: np.ndarray) -> np.ndarray:
    """K = B sqrt(p) with K K^dag the Gibbs state, B the energy eigenbasis
    and root = sqrt(p) the square roots of the Gibbs populations."""
    return np.diag(root) if h.basis is None else h.basis * root


def _times_product_factor(u: np.ndarray, k_a: np.ndarray, k_b: np.ndarray) -> np.ndarray:
    """U (K_A (x) K_B), contracting K_A and K_B with the two column indices
    of a reshape of U: O(D^2 d), and the Kronecker product is never formed."""
    d_a, d_b = k_a.shape[0], k_b.shape[0]
    d = d_a * d_b
    w = k_a.T @ u.reshape(d, d_a, d_b)
    return (w.reshape(d * d_a, d_b) @ k_b).reshape(d, d)


def _unitary_applied(case: CaseSpec, u: np.ndarray, x0) -> tuple[np.ndarray, bool]:
    """W = U X0 for a dense joint unitary, and whether U commutes with the
    bare total Hamiltonian (max-abs commutator <= ENERGY_TOL)."""
    h_a, h_b = case.hamiltonians()
    d = h_a.dim * h_b.dim
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise DimensionMismatch(f"unitary shape {u.shape} != joint dim {d}")
    # the one D^3 product of the run, written to fail closed: a NaN defect
    # must not pass
    defect = unitarity_defect(u)
    if not defect <= UNITARY_TOL:
        raise NotUnitary(f"max |U^dag U - I| = {defect:.3e}")
    conserving = _energy_commutator_defect(u, h_a.matrix(), h_b.matrix()) <= ENERGY_TOL
    if case.kind == "V":
        return u @ x0, conserving
    k_a, k_b = (_gibbs_factor(h, root) for h, root in zip((h_a, h_b), x0))
    return _times_product_factor(u, k_a, k_b), conserving


def _planes_applied(case: CaseSpec, planes: GivensPlanes, x0) -> tuple[np.ndarray, bool]:
    """W = U X0 for the unitary of ``planes`` and diagonal Hamiltonians,
    one 2 x 2 row update per plane, and whether U commutes with the bare
    total Hamiltonian.

    The gate is c^2 + s^2 = 1 per plane, and the commutator's entries are
    s (E_u - E_v): O(planes), with no D x D unitary.  W gets the bits of
    the dense path: kind V rotates the rows of psi; kind S sets the at most
    two nonzeros per row of U (K_A (x) K_B), each (U[r, k] sqrt(p_A))
    sqrt(p_B) in _times_product_factor's order.
    """
    h_a, h_b = case.hamiltonians()
    if planes.dims != (h_a.dim, h_b.dim):
        raise DimensionMismatch(f"planes of dims {planes.dims} on a {h_a.dim} x {h_b.dim} system")
    u, v, c, s = planes.u, planes.v, planes.cos, planes.sin
    defect = np.abs(c * c + s * s - 1.0)
    # "not within", so that a NaN angle fails
    if not np.all(defect <= UNITARY_TOL):
        raise NotUnitary(f"max |cos^2 + sin^2 - 1| = {np.max(defect):.3e} over the planes")
    energies = joint_energies(h_a, h_b)
    conserving = max_abs(s * (energies[u] - energies[v])) <= ENERGY_TOL

    if case.kind == "V":
        w = x0.copy()
        w[u] = c * x0[u] - s * x0[v]
        w[v] = s * x0[u] + c * x0[v]
        return w, conserving
    root_a, root_b = x0
    d = h_a.dim * h_b.dim
    diag = np.ones(d)
    diag[u] = c
    diag[v] = c
    rows = np.concatenate([np.arange(d), u, v])
    cols = np.concatenate([np.arange(d), v, u])
    vals = np.concatenate([diag, -s, s])
    w = np.zeros((d, d), dtype=complex)
    w[rows, cols] = (vals * root_a[cols // h_b.dim]) * root_b[cols % h_b.dim]
    return w, conserving


def _marginal_states(w: np.ndarray, d_a: int, d_b: int) -> tuple[DensityOperator, DensityOperator]:
    """Both one-party reduced states of W W^dag, for W with rows ordered
    (i, j): X_A X_A^dag and X_B X_B^dag, with X_A and X_B two reshapes of W."""
    w3 = w.reshape(d_a, d_b, -1)
    x_a = w3.reshape(d_a, -1)
    x_b = w3.transpose(1, 0, 2).reshape(d_b, -1)
    return (
        DensityOperator(x_a @ dagger(x_a), (d_a,)),
        DensityOperator(x_b @ dagger(x_b), (d_b,)),
    )


def run_exchange(case: CaseSpec, u: np.ndarray | GivensPlanes) -> ExchangeReport:
    """Apply a joint unitary to the initial condition and meter both sides.

    ``u`` is a dense D x D matrix or the plane form of givens_planes.  The
    report's energy_conserving flag records whether u commutes with the
    bare total Hamiltonian (max-abs commutator <= ENERGY_TOL); only then is
    the exchanged energy pure heat and work_leak zero to rounding.

    No joint state is formed.  The initial state is X0 X0^dag, with X0 the
    entangled vector psi (kind V) or K_A (x) K_B, the product of the Gibbs
    factors (kind S); the final marginals are read from W = U X0.  A plane
    form on diagonal Hamiltonians gives W without a D x D unitary
    (_planes_applied); otherwise U is dense and checked for unitarity.  The
    joint entropy, which a unitary leaves unchanged, is the initial one.
    identity_gap is |beta_A Q_A + beta_B Q_B - dI - D(rho_A'||gamma_A)
    - D(rho_B'||gamma_B)|, which vanishes for every unitary because both
    initial marginals are Gibbs states.
    """
    h_a, h_b = case.hamiltonians()
    beta_a, beta_b = case.betas()
    d_a, d_b = h_a.dim, h_b.dim

    if case.kind == "V":
        x0 = entangled_thermal_state(case.entangled).vector
        a0, b0 = _marginal_states(x0, d_a, d_b)
        s_joint = 0.0
    else:
        x0 = (np.sqrt(gibbs_populations(h_a, beta_a)), np.sqrt(gibbs_populations(h_b, beta_b)))
        a0, b0 = gibbs_state(h_a, beta_a), gibbs_state(h_b, beta_b)
        s_joint = product_entropy(a0, b0)
    if not isinstance(u, GivensPlanes):
        w, conserving = _unitary_applied(case, u, x0)
    elif h_a.basis is None and h_b.basis is None:
        w, conserving = _planes_applied(case, u, x0)
    else:
        w, conserving = _unitary_applied(case, u.matrix(), x0)
    a1, b1 = _marginal_states(w, d_a, d_b)
    s_a0, s_b0, s_a1, s_b1 = (von_neumann_entropy(red) for red in (a0, b0, a1, b1))

    mat_a = h_a.matrix()
    mat_b = h_b.matrix()
    q_a = float(np.trace((a1.matrix - a0.matrix) @ mat_a).real)
    q_b = float(np.trace((b1.matrix - b0.matrix) @ mat_b).real)
    ds_a = s_a1 - s_a0
    ds_b = s_b1 - s_b0
    mutual_info_initial = s_a0 + s_b0 - s_joint
    mutual_info_final = s_a1 + s_b1 - s_joint
    identity_gap = abs(
        beta_a * q_a
        + beta_b * q_b
        - (mutual_info_final - mutual_info_initial)
        - gibbs_divergence(a1, h_a, beta_a)
        - gibbs_divergence(b1, h_b, beta_b)
    )

    return ExchangeReport(
        q_a=q_a,
        q_b=q_b,
        ds_a=ds_a,
        ds_b=ds_b,
        mutual_info_initial=mutual_info_initial,
        mutual_info_final=mutual_info_final,
        work_leak=q_a + q_b,
        slack_a=beta_a * q_a - ds_a,
        slack_b=beta_b * q_b - ds_b,
        energy_conserving=conserving,
        identity_gap=identity_gap,
    )


def _contact_state(rho: np.ndarray, sigma: np.ndarray, phi: float) -> np.ndarray:
    """tr_B[U (rho (x) sigma) U^dag] for the partial swap U = cos(phi) I -
    i sin(phi) SWAP, which commutes with H (x) I + I (x) H for any H.

    With c = cos(phi) and s = sin(phi) the reduced state is c^2 rho + s^2
    sigma + i c s (rho sigma - sigma rho), the partial-swap collision model
    of Scarani et al., PRL 88, 097905 (2002); no d^2 x d^2 matrix is formed.
    """
    c, s = np.cos(phi), np.sin(phi)
    prod = rho @ sigma
    # rho sigma - sigma rho = prod - prod^dag for Hermitian rho and sigma
    return c * c * rho + s * s * sigma + 1j * c * s * (prod - dagger(prod))


def clausius_cycle(
    system: tuple[HamiltonianSpec, DensityOperator],
    strokes: Sequence[ClausiusStroke],
    max_cycles: int = MAX_CYCLES,
    fp_tol: float = FIXED_POINT_TOL,
) -> CycleReport:
    """Iterate a stroke cycle to its periodic steady state and meter heats.

    Each contact uses a fresh, uncorrelated reservoir (Gibbs at the stroke
    temperature, same Hamiltonian as the system) coupled through a partial
    swap, whose reduced state has a d x d closed form (_contact_state);
    each quench replaces the Hamiltonian at fixed state.  One walk of the
    strokes checks that the quenches restore H0 and builds every reservoir
    once; cycles then repeat until the state returns to itself within fp_tol
    in trace distance.  The report carries the final cycle's per-contact
    records with slack_j = beta_j * Q_j - dS_j (each <= 0) and their sum.
    """
    h0, rho = system
    if rho.dim != h0.dim:
        raise DimensionMismatch(f"state dim {rho.dim} != Hamiltonian dim {h0.dim}")
    if len(rho.dims) != 1:
        raise DimensionMismatch("system state must be a single tensor factor")

    # (H, reservoir, beta, phi) per contact, in stroke order
    contacts = []
    h = h0
    for stroke in strokes:
        if stroke.kind == "quench":
            h = stroke.hamiltonian
            if h.dim != h0.dim:
                raise BadCycle(f"quench to {h.dim} levels on a {h0.dim}-level system")
            continue
        beta = 1.0 / stroke.temperature
        contacts.append((h.matrix(), gibbs_state(h, beta).matrix, beta, stroke.phi))
    if max_abs(h.matrix() - h0.matrix()) > HAMILTONIAN_TOL:
        raise BadCycle("quench strokes do not restore the initial Hamiltonian")

    for cycle in range(1, max_cycles + 1):
        rho_start = rho
        records: list[StrokeRecord] = []
        for h_mat, sigma, beta, phi in contacts:
            reduced = _contact_state(rho.matrix, sigma, phi)
            heat = float(np.trace((reduced - rho.matrix) @ h_mat).real)
            rho_next = DensityOperator(reduced, rho.dims)
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
