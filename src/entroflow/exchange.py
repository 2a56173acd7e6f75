"""Heat-exchange experiments between two finite systems and a cyclic
contact-with-reservoirs runner.

Two initial conditions are supported: kind "S" (uncorrelated product of
local Gibbs states at two temperatures, the molecular-chaos setting) and
kind "V" (a single entangled pure state whose marginals are the same two
Gibbs states, given by its Schmidt coefficients).  The interaction is a
set of rotations inside disjoint degenerate joint-energy planes
(givens_planes), which conserve energy exactly: the exchanged energy is
heat.  A plane's energies are read from the two local spectra, and each
side's marginals from the moves of the planes' states, with no array of
d_A d_B entries.  A Clausius cycle runs on the populations of a system:
each contact, a resonant partial swap with a fresh Gibbs reservoir, is a
Markov step on d numbers.

A work-free coupling sees only a state's blocks inside each total-energy
shell, and V's coherences a_i a_k |ii><kk| join different shells (epsilon
repeating no level), so V's heat equals that of its separable,
energy-dephased twin C = sum_i p_i |ii><ii|.  Entanglement changes only
the entropy bookkeeping: V's marginals can only lose entropy against C's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from numbers import Integral, Real
from typing import Sequence

import numpy as np

from .errors import (
    BadCycle,
    DimensionMismatch,
    InvalidSpec,
    NoConvergence,
    NotDegenerate,
    OverlappingPlanes,
    finite_real,
    integer_at_least,
)
from .qmath import scalar_or_stack
from .states import (
    STATE_TOL,
    EntangledThermalSpec,
    HamiltonianSpec,
    gibbs_divergence,
    gibbs_populations,
    spectral_entropy,
    von_neumann_entropy,
)

# ENERGY_TOL, DEGENERACY_TOL and HAMILTONIAN_TOL are in units of the largest
# |level| (_energy_tol).  A joint unitary whose commutator is below
# ENERGY_TOL counts as exactly energy conserving (W = Q_A + Q_B is then 0)
ENERGY_TOL = 1e-10
# a converged cycle passes when its Clausius sum is <= CLAUSIUS_TOL and
# every contact's slack beta*Q - dS is <= STROKE_TOL
CLAUSIUS_TOL = 1e-8
STROKE_TOL = 1e-9
# joint basis states at most DEGENERACY_TOL apart in energy are degenerate
DEGENERACY_TOL = 1e-9
# largest level gap at which two diagonal Hamiltonians count as equal
HAMILTONIAN_TOL = 1e-12
# clausius_cycle defaults
MAX_CYCLES = 500
FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class CaseSpec:
    """Initial condition of a two-party heat-exchange experiment.

    kind "V": a single EntangledThermalSpec fixes both local Hamiltonians
    and the (pure, entangled) joint state; they and its inverse
    temperatures fill h_a, h_b, beta_a and beta_b once, at construction.
    kind "S": explicit local Hamiltonians and unconstrained inverse
    temperatures; the joint state is the uncorrelated product of the two
    Gibbs states.  Kind S refuses a stack of Hamiltonians.
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
            spec = self.entangled
            for name, value in (("h_a", spec.hamiltonian_a()), ("h_b", spec.hamiltonian_b()),
                                ("beta_a", spec.beta_a), ("beta_b", spec.beta_b)):
                object.__setattr__(self, name, value)
        elif self.kind != "S":
            raise InvalidSpec(f"kind must be 'S' or 'V', got {self.kind!r}")
        if self.h_a is None or self.h_b is None:
            raise InvalidSpec("kind S requires both local Hamiltonians")
        for name in ("beta_a", "beta_b"):
            beta = finite_real(getattr(self, name), name, positive=True)
            object.__setattr__(self, name, beta)
        if self.h_a.dim < 2 or self.h_b.dim < 2:
            raise InvalidSpec("exchange needs at least 2 levels per side")
        _require_single(self.h_a, self.h_b)

    @classmethod
    def case_v(cls, spec: EntangledThermalSpec) -> "CaseSpec":
        return cls(kind="V", entangled=spec)

    @classmethod
    def case_s(
        cls, h_a: HamiltonianSpec, beta_a: float, h_b: HamiltonianSpec, beta_b: float
    ) -> "CaseSpec":
        return cls(kind="S", h_a=h_a, h_b=h_b, beta_a=beta_a, beta_b=beta_b)

    def hamiltonians(self) -> tuple[HamiltonianSpec, HamiltonianSpec]:
        return self.h_a, self.h_b

    def betas(self) -> tuple[float, float]:
        return self.beta_a, self.beta_b


@dataclass(frozen=True)
class ExchangeReport:
    """Energy and entropy bookkeeping for one joint unitary, or for each of
    a stack of them: every field is then a length-n array, entry k that of
    angle set k, with the bits it has alone.

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
            temperature = finite_real(self.temperature, "temperature", positive=True)
            finite_real(1.0 / temperature, "beta = 1 / temperature", positive=True)
            object.__setattr__(self, "temperature", temperature)
            object.__setattr__(self, "phi", finite_real(self.phi, "phi"))
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
    the per-stroke records of the final cycle, the cycles run, and the
    residual: the half-L1 distance of the final cycle's start and end
    populations, which is the trace distance of the diagonal states."""

    clausius_sum: float
    strokes: tuple[StrokeRecord, ...]
    cycles_to_convergence: int
    residual: float


def _require_single(h_a: HamiltonianSpec, h_b: HamiltonianSpec) -> None:
    if h_a.levels.ndim != 1 or h_b.levels.ndim != 1:
        raise InvalidSpec("exchange needs one Hamiltonian a side, not a stack")


def _energy_tol(tol: float, *hamiltonians: HamiltonianSpec) -> float:
    """tol times the largest |level|: a unit change by 2^k scales it exactly."""
    return tol * max(np.abs(h.levels).max() for h in hamiltonians)


def _energy_gap(h_a: HamiltonianSpec, h_b: HamiltonianSpec, u, v) -> np.ndarray:
    """E_u - E_v of flat joint states i d_B + j, each E^A_i + E^B_j as np.add.outer sums it."""
    e_u, e_v = (h_a.levels[i] + h_b.levels[j] for i, j in (np.divmod(x, h_b.dim) for x in (u, v)))
    return e_u - e_v


@dataclass(frozen=True)
class GivensPlanes:
    """Disjoint degenerate planes of a two-party joint space: plane k
    rotates the flat joint basis states u[k] and v[k] by the angle
    phi[..., k], of shape (P,) for one angle set or (n, P) for a stack of
    n; a finite angle makes each rotation unitary.  givens_planes checks
    each rotation and names the first that fails; run_exchange checks any
    planes on entry."""

    dims: tuple[int, int]
    u: np.ndarray
    v: np.ndarray
    phi: np.ndarray

    def at_angle(self, phi) -> "GivensPlanes":
        """The same planes, every one rotated by phi: one angle gives phi of
        shape (P,), an array of n angles a stack of n angle sets, (n, P)."""
        phi = np.asarray(phi)
        return replace(self, phi=np.full((*phi.shape, self.u.size), phi[..., None]))


def givens_planes(
    h_a: HamiltonianSpec,
    h_b: HamiltonianSpec,
    rotations: Sequence[tuple[tuple[int, int], tuple[int, int], float]],
) -> GivensPlanes:
    """Rotations inside disjoint degenerate joint-energy planes of the two
    Hamiltonians h_a and h_b (a stack raises InvalidSpec, as in CaseSpec).

    Each rotation ((i, j), (i', j'), phi) mixes the two joint basis states
    by angle phi; both must carry the same total energy E_i^A + E_j^B within
    DEGENERACY_TOL times the largest |level|, so the rotation commutes with
    the noninteracting joint Hamiltonian, and no basis state may lie in two
    planes.  phi = pi/2 maps one state onto the other up to sign.  A
    rotation that does not unpack as ((i, j), (i', j'), phi) with integer
    labels and a finite real angle raises InvalidSpec first.  Then each
    check is one array mask over all rotations; the first rotation in input
    order that fails raises, for the first of its failed checks in the order
    label range, two distinct states, degeneracy, reuse.
    """
    _require_single(h_a, h_b)
    dims = d_a, d_b = h_a.dim, h_b.dim
    try:
        # each type is checked once, not each entry; a bool is an int
        rows = [(i, j, i2, j2, phi) for (i, j), (i2, j2), phi in rotations]
        *columns, phi = zip(*rows) if rows else [()] * 5
        label_types, angle_types = set(map(type, chain(*columns))), set(map(type, phi))
        phi = np.array(phi, dtype=float)
        valid = bool not in label_types | angle_types and np.isfinite(phi).all()
        valid = valid and all(issubclass(t, Integral) for t in label_types)
        valid = valid and all(issubclass(t, Real) for t in angle_types)
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        raise InvalidSpec("rotations must be [[i, j], [i2, j2], phi], integer labels, finite phi")
    if not rows:
        return GivensPlanes(dims, np.zeros(0, int), np.zeros(0, int), np.zeros(0))
    bounds = (d_a, d_b, d_a, d_b)
    # labels are compared as Python numbers before the int64 cast; one out of
    # range is clamped to -1 or its bound, so it stays out of range
    if not all(0 <= min(col) and max(col) < b for col, b in zip(columns, bounds)):
        columns = [[min(max(x, -1), b) for x in col] for col, b in zip(columns, bounds)]
    labels = np.array(columns, dtype=np.int64)
    in_range = ((labels >= 0) & (labels < np.array(bounds)[:, None])).reshape(2, 2, -1).all(axis=1)
    u, v = labels[0::2] * d_b + labels[1::2]
    gap = np.abs(_energy_gap(h_a, h_b, *np.where(in_range, (u, v), 0)))
    tol = _energy_tol(DEGENERACY_TOL, h_a, h_b)
    # a state is reused when it came earlier in u0, v0, u1, v1, ...
    reused = np.ones(2 * u.size, dtype=bool)
    reused[np.unique(np.stack([u, v], axis=1), return_index=True)[1]] = False
    failed = np.stack([*~in_range, u == v, gap > tol, reused.reshape(-1, 2).any(axis=1)])
    if failed.any():
        k = int(np.argmax(failed.any(axis=0)))
        first, second = rows[k][:2], rows[k][2:4]
        error, message = (  # one per row of failed
            (DimensionMismatch, f"joint label {first} out of range for dims {dims}"),
            (DimensionMismatch, f"joint label {second} out of range for dims {dims}"),
            (OverlappingPlanes, f"rotation plane degenerates to a single state {first}"),
            (NotDegenerate, f"labels {first} and {second} differ in energy by "
             f"{gap[k]:.3e} (> {tol:.3e})"),
            (OverlappingPlanes, f"rotation plane ({first}, {second}) reuses a basis state"),
        )[int(np.argmax(failed[:, k]))]
        raise error(message)
    return GivensPlanes(dims, u, v, phi)


def _plane_gate(planes: GivensPlanes, h_a: HamiltonianSpec, h_b: HamiltonianSpec):
    """Check ``planes`` against the case before any cos or sin: u and v
    1-D signed integer arrays of one length P, phi real of shape (P,) or
    (n, P), the case's dims, the 2P states in [0, d_A d_B) and distinct
    (one sort), every angle finite.  Return c and s, each (n, P), and
    per angle set whether the unitary commutes with the bare Hamiltonian:
    the commutator's entries are s (E_u - E_v), O(planes) per angle set."""
    u, v, phi = map(np.asarray, (planes.u, planes.v, planes.phi))
    # signed: int64 with uint64 labels would concatenate to float64
    if u.dtype.kind != "i" or v.dtype.kind != "i" or phi.dtype.kind not in "iuf":
        raise InvalidSpec(f"planes need int u, v and real phi: {u.dtype}, {v.dtype}, {phi.dtype}")
    if u.ndim != 1 or v.shape != u.shape or phi.ndim not in (1, 2) or phi.shape[-1] != u.size:
        raise DimensionMismatch(f"plane arrays u, v, phi of shapes {u.shape}, {v.shape}, {phi.shape}")
    if planes.dims != (h_a.dim, h_b.dim):
        raise DimensionMismatch(f"planes of dims {planes.dims} on a {h_a.dim} x {h_b.dim} system")
    states = np.sort(np.concatenate([u, v]))
    if states.min(initial=0) < 0 or states.max(initial=0) >= h_a.dim * h_b.dim:
        raise DimensionMismatch(f"plane states out of [0, {h_a.dim * h_b.dim}) for dims {planes.dims}")
    if np.any(shared := states[1:] == states[:-1]):
        raise OverlappingPlanes(f"planes share basis state {states[1:][shared][0]}")
    if not np.isfinite(phi).all():
        raise InvalidSpec("plane angles must be finite")
    c, s = np.cos(np.atleast_2d(phi)), np.sin(np.atleast_2d(phi))
    leak = np.abs(s * _energy_gap(h_a, h_b, u, v)).max(-1, initial=0.0)
    return c, s, leak <= _energy_tol(ENERGY_TOL, h_a, h_b)


def _pairs(i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (a, b), a != b, of positions sharing label i or j."""
    keys = np.concatenate([i, j + i.max(initial=0) + 1])
    order = np.argsort(keys, kind="stable")
    first, stop = (np.searchsorted(keys[order], keys[order], side) for side in ("left", "right"))
    a = np.repeat(order, stop - first)
    b = order[np.arange(a.size) + np.repeat(stop - np.cumsum(stop - first), stop - first)]
    return a[a != b] % i.size, b[a != b] % i.size


def _marginals(case: CaseSpec, planes: GivensPlanes, c: np.ndarray, s: np.ndarray, p_a, p_b):
    """Each side after the n angle sets of cosines c and sines s (n, P):
    its populations (n + 1, d), Gibbs (p_a or p_b) first, and coherences,
    flat bins r d + k with a value per angle set (n, K).  S lists the
    planes' states, with moves p' - p and entries c s (p_u - p_v); V the
    paired states (i, i) at i (d + 1), d = d_A = d_B, and the planes that
    hold one, with entries psi'_r psi'_k.  A pair that shares the B label
    reaches rho_A, the A label rho_B (labels, not energies: an off-shell
    plane is metered as it acts).  Each bin sums in list order."""
    (d_a, d_b), u, v, n = planes.dims, planes.u, planes.v, len(c)
    if case.kind == "V":
        k = np.flatnonzero(u % (d_b + 1) * (v % (d_b + 1)) == 0)
        states = np.sort(np.concatenate([u[k], v[k], np.arange(d_b) * (d_b + 1)]))
        states = states[np.diff(states, prepend=-1) > 0]
        initial = np.where(states % (d_b + 1), 0.0, case.entangled.amplitudes()[states // (d_b + 1)])
        x, y, c, s = np.searchsorted(states, u[k]), np.searchsorted(states, v[k]), c[:, k], s[:, k]
        amps = np.tile(initial, (n, 1))
        amps[:, x], amps[:, y] = c * initial[x] - s * initial[y], s * initial[x] + c * initial[y]
        moves = amps * amps - initial * initial
        a, b = _pairs(*np.divmod(states, d_b))
        rows, cols, values = states[a], states[b], amps[:, a] * amps[:, b]
    else:
        p_u, p_v = p_a[u // d_b] * p_b[u % d_b], p_a[v // d_b] * p_b[v % d_b]
        states = np.concatenate([u, v])
        moves = np.hstack([c * c * p_u + s * s * p_v - p_u, s * s * p_u + c * c * p_v - p_v])
        k = np.flatnonzero((u // d_b == v // d_b) | (u % d_b == v % d_b))
        rows, cols = np.concatenate([u[k], v[k]]), np.concatenate([v[k], u[k]])
        values = np.tile(c[:, k] * s[:, k] * (p_u[k] - p_v[k]), 2)
    sides = []
    for d, p, label, other in ((d_a, p_a, np.floor_divide, np.remainder),
                               (d_b, p_b, np.remainder, np.floor_divide)):
        bins = (label(states, d_b) + d * np.arange(1, n + 1)[:, None]).ravel()
        populations = np.bincount(bins, moves.ravel(), (n + 1) * d).reshape(-1, d) + p
        shared = other(rows, d_b) == other(cols, d_b)
        bins = label(rows[shared], d_b) * d + label(cols[shared], d_b)
        sides.append((populations, bins, values[:, shared]))
    return sides


def _meter(populations, bins, coherences, h: HamiltonianSpec, beta: float) -> tuple[np.ndarray, ...]:
    """Entropy of each marginal of one side, then per final one Q = (p' - p)
    . levels and D(rho' || gamma) = gibbs_divergence(p' . levels, S(rho'), p).
    A marginal's entropy is that of its sorted populations (eigvalsh's bits
    for a diagonal matrix), unless its angle set holds a nonzero coherence:
    only those are filled into a stack and solved, so the Gibbs row never is."""
    entropy = spectral_entropy(np.sort(populations, axis=-1))
    rows = np.flatnonzero(coherences.any(axis=-1))
    if rows.size:
        d = populations.shape[-1]
        bins = (bins + d * d * np.arange(rows.size)[:, None]).ravel()
        stack = np.bincount(bins, coherences[rows].ravel(), rows.size * d * d)
        stack.reshape(rows.size, -1)[:, :: d + 1] = populations[1 + rows]
        entropy[1 + rows] = von_neumann_entropy(stack.reshape(-1, d, d))
    heat = np.array([row @ h.levels for row in populations[1:] - populations[0]])
    energy = np.array([row @ h.levels for row in populations[1:]])
    return entropy, heat, gibbs_divergence(energy, entropy[1:], h, beta, populations[0])


def run_exchange(case: CaseSpec, planes: GivensPlanes) -> ExchangeReport:
    """Rotate the initial condition by the unitary of ``planes`` and meter
    both sides: one report for one angle set, or one pass over a stack of
    them whose fields hold an entry per angle set.

    The report's energy_conserving flag records whether that unitary
    commutes with the bare total Hamiltonian (every |s (E_u - E_v)| <=
    ENERGY_TOL times the largest |level|); only then is the exchanged energy
    pure heat and work_leak zero to rounding.

    The planes are checked on entry, and a finite angle makes each rotation
    unitary; cos and sin are taken once, for the commutator and the
    marginals, which come from the planes' moves with no joint-space
    array.  The joint entropy, which a unitary leaves unchanged, is the
    initial one: 0 for V, S(gamma_A) + S(gamma_B) for S.  identity_gap is
    |beta_A Q_A + beta_B Q_B - dI - D(rho_A'||gamma_A) -
    D(rho_B'||gamma_B)|, which vanishes for every unitary because both
    initial marginals are Gibbs states.
    """
    h_a, h_b = case.hamiltonians()
    beta_a, beta_b = case.betas()
    c, s, conserving = _plane_gate(planes, h_a, h_b)

    side_a, side_b = _marginals(case, planes, c, s, *map(gibbs_populations, (h_a, h_b), case.betas()))
    s_a, q_a, div_a = _meter(*side_a, h_a, beta_a)
    s_b, q_b, div_b = _meter(*side_b, h_b, beta_b)
    s_joint = 0.0 if case.kind == "V" else s_a[0] + s_b[0]

    ds_a, ds_b = s_a[1:] - s_a[0], s_b[1:] - s_b[0]
    mutual_info_initial = np.full(conserving.shape, s_a[0] + s_b[0] - s_joint)
    mutual_info_final = s_a[1:] + s_b[1:] - s_joint
    dmi = mutual_info_final - mutual_info_initial
    identity_gap = np.abs(beta_a * q_a + beta_b * q_b - dmi - div_a - div_b)
    fields = (  # in ExchangeReport's order
        q_a, q_b, ds_a, ds_b, mutual_info_initial, mutual_info_final, q_a + q_b,
        beta_a * q_a - ds_a, beta_b * q_b - ds_b, conserving, identity_gap,
    )
    # one angle set gives scalars, a stack length-n arrays
    shape = np.shape(planes.phi)[:-1]
    return ExchangeReport(*(scalar_or_stack(x.reshape(shape)) for x in fields))


def clausius_cycle(
    system: tuple[HamiltonianSpec, np.ndarray],
    strokes: Sequence[ClausiusStroke],
    max_cycles: int = MAX_CYCLES,
    fp_tol: float = FIXED_POINT_TOL,
) -> CycleReport:
    """Iterate a stroke cycle on ``system`` = (H0, populations over its
    levels) to its periodic steady state and meter heats.

    Each contact couples a fresh Gibbs reservoir g (same Hamiltonian as the
    system) through the partial swap cos(phi) I - i sin(phi) SWAP (Scarani
    et al., PRL 88, 097905 (2002)).  Its commutator term vanishes for
    diagonal states, so a contact is p -> c^2 p + s^2 g, with heat (p' - p)
    . levels; a quench replaces the Hamiltonian at fixed state.  One walk of
    the strokes checks that the quenches restore H0 and builds every
    reservoir once; cycles then repeat until the populations return within
    fp_tol in half-L1 distance.  The report carries the final cycle's
    records with slack_j = beta_j * Q_j - dS_j (each <= 0) and their sum.
    """
    max_cycles = integer_at_least(max_cycles, "max_cycles", 1)
    fp_tol = finite_real(fp_tol, "fp_tol", positive=True)
    h0, p = system
    quenches = [stroke.hamiltonian for stroke in strokes if stroke.kind == "quench"]
    if any(h.levels.ndim != 1 for h in (h0, *quenches)):
        raise InvalidSpec("a Clausius cycle needs single Hamiltonians, not a stack")
    p = np.asarray(p, dtype=float)
    # "not within", so that a NaN or an infinity fails
    if not (p.shape == (h0.dim,) and np.all(p >= 0) and abs(p.sum() - 1.0) <= STATE_TOL):
        raise InvalidSpec(f"populations must be a normalized distribution over {h0.dim} levels")

    # (levels, reservoir populations, beta, c^2, s^2) per contact, in stroke order
    contacts = []
    h = h0
    for stroke in strokes:
        if stroke.kind == "quench":
            h = stroke.hamiltonian
            if h.dim != h0.dim:
                raise BadCycle(f"quench to {h.dim} levels on a {h0.dim}-level system")
            continue
        beta = 1.0 / stroke.temperature
        c, s = np.cos(stroke.phi), np.sin(stroke.phi)
        contacts.append((h.levels, gibbs_populations(h, beta), beta, c * c, s * s))
    if np.max(np.abs(h.levels - h0.levels)) > _energy_tol(HAMILTONIAN_TOL, h0, h):
        raise BadCycle("quench strokes do not restore the initial Hamiltonian")

    entropy = spectral_entropy(p)
    for cycle in range(1, max_cycles + 1):
        p_start = p
        records: list[StrokeRecord] = []
        for levels, g, beta, cc, ss in contacts:
            p_next = cc * p + ss * g
            heat = float((p_next - p) @ levels)
            entropy_next = spectral_entropy(p_next)
            ds = entropy_next - entropy
            records.append(StrokeRecord(beta, heat, ds, beta * heat - ds))
            p, entropy = p_next, entropy_next
        residual = float(0.5 * np.abs(p_start - p).sum())
        if residual < fp_tol:
            return CycleReport(
                clausius_sum=float(sum(r.beta * r.heat for r in records)),
                strokes=tuple(records),
                cycles_to_convergence=cycle,
                residual=residual,
            )
    raise NoConvergence(f"no fixed point after {max_cycles} cycles; last residual {residual:.3e}")
