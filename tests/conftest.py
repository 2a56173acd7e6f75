import math
import os
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np
import pytest

from entroflow import (
    AncillaChannel,
    CaseSpec,
    CollisionSpec,
    DimensionMismatch,
    DensityOperator,
    EntangledThermalSpec,
    HamiltonianSpec,
    InvalidState,
    gibbs_populations,
    givens_planes,
    kron,
    dagger,
    partial_trace,
)
from entroflow import exchange, inequalities, states
from entroflow.errors import finite_real
from entroflow.exchange import DEGENERACY_TOL, GivensPlanes
from entroflow.gas import _cross, _de_a, _fill_pairs, _invariants, _norm, _square
from entroflow.qmath import haar_qr


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


@pytest.fixture()
def eigensolve_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Shape of the matrix or stack of every numpy eigvalsh made during the
    test: (D, D) for one matrix, (N, D, D) for a stack of N."""
    shapes: list[tuple[int, ...]] = []

    def counted(a, *args, _solver=np.linalg.eigvalsh, **kwargs):
        shapes.append(np.shape(a))
        return _solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return shapes


@pytest.fixture()
def gibbs_rows(monkeypatch) -> list[tuple[int, ...]]:
    """Shape of every Gibbs row (gibbs_populations) that states, exchange or
    inequalities formed during the test: (d,) for one, (N, d) for a stack."""
    shapes: list[tuple[int, ...]] = []

    def counted(h, beta, _form=states.gibbs_populations):
        rows = _form(h, beta)
        shapes.append(rows.shape)
        return rows

    for module in (states, exchange, inequalities):
        monkeypatch.setattr(module, "gibbs_populations", counted)
    return shapes


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary: ``haar_qr`` of a complex Ginibre
    matrix, 2*d*d standard normals from ``rng``, real part first."""
    return haar_qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def random_density(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-``rank`` density matrix G G-dag / tr(G G-dag), with G a
    d x rank matrix of independent standard complex Gaussian entries,
    symmetrized as (M + M-dag) / 2.

    Consumes exactly 2*d*rank standard normals from ``rng``.
    """
    if not 1 <= rank <= d:
        raise DimensionMismatch(f"need 1 <= rank <= d, got rank={rank}, d={d}")
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ dagger(g)
    rho = rho / np.trace(rho).real
    return (rho + dagger(rho)) / 2


def gibbs_state(h: HamiltonianSpec, beta) -> np.ndarray:
    """exp(-beta H)/Z in H's eigenbasis, diag(gibbs_populations(h, beta))
    as a complex matrix; a stack of them for stacked levels or betas."""
    p = gibbs_populations(h, beta)
    return (p[..., None] * np.eye(p.shape[-1])).astype(complex)


# ------------------------------------------------------------------------
# Per-trial oracles of the ineq draws: one trial formed alone from its row
# of uniforms (``qmath.uniform_rows``); the batched draws must agree with
# them bit for bit.

def gaussian_matrix(u: np.ndarray, d: int) -> np.ndarray:
    """d x d complex Ginibre matrix from 2*d*d uniforms, entry by entry in
    C order: the pair (u1, u2) gives r cos(theta) + i r sin(theta), with
    r = sqrt(-2 ln(1 - u1)) and theta = 2 pi u2 (Box-Muller)."""
    radius, theta = np.sqrt(-2.0 * np.log1p(-u[0::2])), 2.0 * np.pi * u[1::2]
    return (radius * np.cos(theta) + 1j * (radius * np.sin(theta))).reshape(d, d)


def trial_density(rank_u: float, u: np.ndarray, d: int) -> np.ndarray:
    """One random state formed alone: rank 1 + floor(rank_u d), G the
    ``gaussian_matrix`` of u with the columns from the rank on zeroed, and
    G G-dag / tr(G G-dag) symmetrized as (M + M-dag) / 2."""
    g = gaussian_matrix(u, d)
    g[:, 1 + int(rank_u * d) :] = 0
    rho = g @ dagger(g)
    rho = rho / np.trace(rho).real
    return (rho + dagger(rho)) / 2


def eq2_trial(d_sys: int, d_anc: int, u: np.ndarray) -> tuple:
    """One ``ineq --check eq2`` trial formed alone from its row of
    uniforms, read in order: ln beta, the levels of H_i and of H_f, the
    ancilla's rank, the eigenbasis W of H_f, the joint unitary and the
    ancilla's factor.  Returns beta, the levels of H_i, H_f = W diag(E_f)
    W^dag in H_i's eigenbasis, the joint unitary and the ancilla state."""
    widths = [1, d_sys, d_sys, 1, 2 * d_sys**2]
    ln_beta, levels_i, levels_f, rank_u, basis_f, rest = np.split(u, np.cumsum(widths))
    beta = np.exp(np.log(0.1) + (np.log(10.0) - np.log(0.1)) * ln_beta[0])
    w = haar_qr(gaussian_matrix(basis_f, d_sys))
    joint = d_sys * d_anc
    unitary = haar_qr(gaussian_matrix(rest[: 2 * joint**2], joint))
    ancilla = trial_density(rank_u[0], rest[2 * joint**2 : 2 * (joint**2 + d_anc**2)], d_anc)
    h_f = (w * np.sort(1.2 * levels_f)) @ w.conj().T
    return beta, np.sort(1.2 * levels_i), h_f, unitary, ancilla


@dataclass(frozen=True)
class PureJointState:
    """Unit vector on a composite Hilbert space (a dense test oracle)."""

    vector: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        vec = np.asarray(self.vector, dtype=complex).ravel()
        dims = tuple(int(d) for d in np.atleast_1d(self.dims))
        if vec.size != math.prod(dims):
            raise DimensionMismatch(f"vector length {vec.size} != product of dims {dims}")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > 1e-12:
            raise InvalidState(f"norm {norm!r} differs from 1 beyond 1e-12")
        object.__setattr__(self, "vector", vec.copy())
        object.__setattr__(self, "dims", dims)


def entangled_thermal_state(spec: EntangledThermalSpec) -> PureJointState:
    """The dense vector sum_i a_i |i>|i> of ``spec.amplitudes()`` on the
    paired levels, both marginals Gibbs states (a test oracle)."""
    vec = np.zeros(spec.dim * spec.dim, dtype=complex)
    vec[np.arange(spec.dim) * (spec.dim + 1)] = spec.amplitudes()
    return PureJointState(vec, (spec.dim, spec.dim))


def pure_density(state: PureJointState) -> DensityOperator:
    """The projector |psi><psi| of a pure joint state, on its factors."""
    return DensityOperator(np.outer(state.vector, state.vector.conj()), state.dims)


def marginal(state: DensityOperator | PureJointState, which) -> DensityOperator:
    """Reduced state of the named factor (an int) or factors, tracing out
    all others; kept factors in ascending order."""
    rho = pure_density(state) if isinstance(state, PureJointState) else state
    keep = sorted({which} if isinstance(which, int) else set(which))
    reduced = partial_trace(rho.matrix, rho.dims, keep)
    return DensityOperator(reduced, tuple(rho.dims[k] for k in keep))


def func_hermitian(h: np.ndarray, f) -> np.ndarray:
    """A real function of a Hermitian matrix through ``np.linalg.eigh``: f
    takes the eigenvalue array and returns an array of its shape or a
    scalar (a test oracle's matrix function)."""
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    return (v * np.asarray(f(w), dtype=float)) @ dagger(v)


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """S(rho || sigma) = tr(rho ln rho) - tr(rho ln sigma) of two dense
    states, sigma of full support (the independent oracle of
    ``gibbs_divergence``; no spectrum of the library is read)."""

    def x_ln_x(w):
        # 0 ln 0 = 0, and a negative w is rounding noise of a zero
        positive = np.where(w > 0, w, 1.0)
        return np.where(w > 0, positive * np.log(positive), 0.0)

    assert np.linalg.eigvalsh(sigma.matrix)[0] > 0, "sigma must have full support"
    rho_ln_rho = np.trace(func_hermitian(rho.matrix, x_ln_x)).real
    rho_ln_sigma = np.trace(rho.matrix @ func_hermitian(sigma.matrix, np.log)).real
    return float(rho_ln_rho - rho_ln_sigma)


def identity_channel(d: int) -> AncillaChannel:
    """The do-nothing channel on d levels (a trivial one-level ancilla)."""
    return AncillaChannel(np.eye(d, dtype=complex), np.eye(1, dtype=complex))


def ghz_state() -> DensityOperator:
    """Three-qubit (|000> + |111>)/sqrt(2)."""
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 2.0**-0.5
    return pure_density(PureJointState(v, (2, 2, 2)))


def bell_state() -> DensityOperator:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 2.0**-0.5
    return pure_density(PureJointState(v, (2, 2)))


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
        return pure_density(entangled_thermal_state(case.entangled))
    (h_a, h_b), (beta_a, beta_b) = case.hamiltonians(), case.betas()
    joint = kron(gibbs_state(h_a, beta_a), gibbs_state(h_b, beta_b))
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


def degenerate_pairs(h_a: HamiltonianSpec, h_b: HamiltonianSpec) -> list:
    """All unordered pairs ((i, j), (i2, j2)) of joint basis labels u != v
    with |E_u - E_v| <= DEGENERACY_TOL times the largest |level| of the two
    spectra, givens_planes' rule: rotations inside such planes exchange
    heat without doing work.  The empty list means no such plane exists."""
    d_b = h_b.dim
    tol = DEGENERACY_TOL * max(np.abs(h.levels).max() for h in (h_a, h_b))
    energies = np.add.outer(h_a.levels, h_b.levels).ravel()
    order = np.argsort(energies, kind="stable")
    ranked = energies[order]
    # ranked[k] can pair only with ranked[k + 1 : stops[k]]
    stops = np.searchsorted(ranked, ranked + tol, side="right")
    out = []
    for k, stop in enumerate(stops):
        for m in range(k + 1, stop):
            u, v = sorted((int(order[k]), int(order[m])))
            if abs(energies[u] - energies[v]) <= tol:
                out.append(((u // d_b, u % d_b), (v // d_b, v % d_b)))
    return out


def random_rotations(case: CaseSpec, rng) -> list:
    """Rotations by random angles inside a maximal set of disjoint
    degenerate planes, chosen in random order."""
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
    return rotations


def random_conserving_planes(case: CaseSpec, rng) -> GivensPlanes:
    """Random rotations commuting with the bare total Hamiltonian: the plane
    form of random_rotations."""
    h_a, h_b = case.hamiltonians()
    rotations = random_rotations(case, rng)
    return givens_planes(h_a, h_b, rotations)


def planes_matrix(planes: GivensPlanes) -> np.ndarray:
    """Dense D x D unitary of a plane form (a test oracle)."""
    out = np.eye(planes.dims[0] * planes.dims[1], dtype=complex)
    c, s = np.cos(planes.phi), np.sin(planes.phi)
    out[planes.u, planes.u] = c
    out[planes.v, planes.v] = c
    out[planes.u, planes.v] = -s
    out[planes.v, planes.u] = s
    return out


def shell_haar_unitary(case: CaseSpec, rng) -> np.ndarray:
    """Dense joint unitary with an independent Haar block on each
    total-energy shell: the joint basis states whose energies lie within
    DEGENERACY_TOL times the largest |level| of the next (a test oracle).
    It commutes with the bare total Hamiltonian, as a plane form does."""
    h_a, h_b = case.hamiltonians()
    tol = DEGENERACY_TOL * max(np.abs(h.levels).max() for h in (h_a, h_b))
    energies = np.add.outer(h_a.levels, h_b.levels).ravel()
    order = np.argsort(energies, kind="stable")
    out = np.zeros((energies.size, energies.size), dtype=complex)
    for shell in np.split(order, np.flatnonzero(np.diff(energies[order]) > tol) + 1):
        out[np.ix_(shell, shell)] = haar_unitary(shell.size, rng)
    return out


def dephased_twin(spec: EntangledThermalSpec) -> np.ndarray:
    """Dense C = sum_i p_i |ii><ii|, p_i = a_i^2 (a test oracle): the V
    state with every coherence between total-energy shells removed, when
    epsilon repeats no level.  C is separable, with V's Gibbs marginals and
    half its mutual information."""
    paired = np.arange(spec.dim) * (spec.dim + 1)
    out = np.zeros((spec.dim**2, spec.dim**2), dtype=complex)
    out[paired, paired] = spec.amplitudes() ** 2
    return out


def dense_exchange_reference(case: CaseSpec, u: np.ndarray, rho0: np.ndarray | None = None) -> dict:
    """Every ExchangeReport field from the dense joint state u rho0 u^dag,
    for any dense joint unitary u (a test oracle), plus the two final
    marginals under "marginals".  rho0 is the case's initial_state unless
    given, as a dephased_twin."""
    h_a, h_b = case.hamiltonians()
    beta_a, beta_b = case.betas()
    dims = (h_a.dim, h_b.dim)
    mat_a, mat_b = np.diag(h_a.levels), np.diag(h_b.levels)
    rho0 = initial_state(case).matrix if rho0 is None else rho0
    rho1 = u @ rho0 @ u.conj().T

    def entropy(m):
        # every positive eigenvalue counts, as in von_neumann_entropy: a
        # cut at 1e-12 would drop Gibbs products and move I_initial
        lam = np.linalg.eigvalsh((m + m.conj().T) / 2)
        lam = lam[lam > 0]
        return float(-(lam * np.log(lam)).sum())

    def gibbs_divergence(m, h, mat, beta):
        # ln gamma = -beta H - ln Z exactly
        ln_z = math.log(np.exp(-beta * h.levels).sum())
        return -entropy(m) + beta * float(np.trace(m @ mat).real) + ln_z

    a0, b0, a1, b1 = (partial_trace(r, dims, [k]) for r in (rho0, rho1) for k in (0, 1))
    q_a = float(np.trace((a1 - a0) @ mat_a).real)
    q_b = float(np.trace((b1 - b0) @ mat_b).real)
    i0 = entropy(a0) + entropy(b0) - entropy(rho0)
    i1 = entropy(a1) + entropy(b1) - entropy(rho1)
    h_tot = kron(mat_a, np.eye(h_b.dim)) + kron(np.eye(h_a.dim), mat_b)
    ds_a, ds_b = entropy(a1) - entropy(a0), entropy(b1) - entropy(b0)
    return {
        "q_a": q_a,
        "q_b": q_b,
        "ds_a": ds_a,
        "ds_b": ds_b,
        "mutual_info_initial": i0,
        "mutual_info_final": i1,
        "work_leak": q_a + q_b,
        "slack_a": beta_a * q_a - ds_a,
        "slack_b": beta_b * q_b - ds_b,
        "energy_conserving": bool(np.max(np.abs(u @ h_tot - h_tot @ u)) <= 1e-10),
        "identity_gap": abs(
            beta_a * q_a + beta_b * q_b - (i1 - i0)
            - gibbs_divergence(a1, h_a, mat_a, beta_a)
            - gibbs_divergence(b1, h_b, mat_b, beta_b)
        ),
        "marginals": (a1, b1),
    }


# ------------------------------------------------------------------------
# Per-state oracles: the arithmetic of one state at a time, as it was
# before the checks ran on stacks; the stacked kernels must agree with it.

def oracle_density(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate one matrix; its Hermitian part and ascending spectrum."""
    from entroflow import InvalidState
    from entroflow.states import STATE_TOL

    defect = float(np.max(np.abs(mat - mat.conj().T)))
    if defect > STATE_TOL:
        raise InvalidState(f"not Hermitian: max |M - M^dag| = {defect:.3e}")
    sym = (mat + mat.conj().T) / 2
    lam = np.linalg.eigvalsh(sym)
    if lam[0] < -STATE_TOL:
        raise InvalidState(f"negative eigenvalue {lam[0]:.3e}")
    tr = float(np.trace(sym).real)
    if abs(tr - 1.0) > STATE_TOL:
        raise InvalidState(f"trace {tr!r} differs from 1 beyond {STATE_TOL}")
    return sym, lam


def oracle_partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    t = m.reshape(tuple(dims) * 2)
    remaining = list(dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    d = int(np.prod(remaining))
    return t.reshape(d, d)


def oracle_entropy(lam: np.ndarray) -> float:
    lam = lam[lam > 0]
    return float(-(lam * np.log(lam)).sum())


def oracle_subsystem_entropy(sym: np.ndarray, dims, keep) -> float:
    reduced = oracle_partial_trace(sym, dims, keep)
    return oracle_entropy(np.linalg.eigvalsh((reduced + reduced.conj().T) / 2))


def to_eigenframe(basis_i, levels_f, basis_f, unitary, d_anc: int) -> tuple:
    """An eq2 instance with H_i = B_i diag(E_i) B_i^dag, H_f = B_f diag(E_f)
    B_f^dag and joint unitary U, moved into H_i's eigenframe: H_f -> B_i^dag
    H_f B_i and U -> (B_i^dag (x) 1) U (B_i (x) 1); one trial or a stack."""
    h_f = (basis_f * np.asarray(levels_f)[..., None, :]) @ dagger(basis_f)
    lift = kron(basis_i, np.eye(d_anc))
    return dagger(basis_i) @ h_f @ basis_i, dagger(lift) @ unitary @ lift


def oracle_gibbs_evolution(levels_i, basis_i, beta, unitary, ancilla, levels_f, basis_f) -> dict:
    """Both sides of the Gibbs-evolution identity for one trial, with H_i
    and H_f given by their levels and eigenbases, in the original frame."""
    def in_basis(basis, values):
        return (basis * values) @ basis.conj().T

    p = np.exp(-beta * (levels_i - levels_i[0]))
    rho_i, lam_i = oracle_density(in_basis(basis_i, p / p.sum()))
    joint = unitary @ np.kron(rho_i, ancilla) @ unitary.conj().T
    rho_f, lam_f = oracle_density(oracle_partial_trace(joint, (len(levels_i), len(ancilla)), [0]))
    mat_i, mat_f = in_basis(basis_i, levels_i), in_basis(basis_f, levels_f)
    u_i = float(np.trace(rho_i @ mat_i).real)
    u_f = float(np.trace(rho_f @ mat_f).real)
    ds = oracle_entropy(lam_f) - oracle_entropy(lam_i)
    beta_du = beta * (u_f - u_i)
    beta_tr_rhof_dh = beta * float(np.trace(rho_f @ (mat_f - mat_i)).real)
    rhs = beta_du - ds - beta_tr_rhof_dh
    e0 = float(levels_i[0])
    log_z = -beta * e0 + np.log(np.exp(-beta * (levels_i - e0)).sum())
    lhs = beta * float(np.trace(rho_f @ mat_i).real) + log_z - oracle_entropy(lam_f)
    return {
        "relative_entropy_lhs": lhs,
        "beta_du": beta_du,
        "ds": ds,
        "beta_tr_rhof_dh": beta_tr_rhof_dh,
        "rhs": rhs,
        "identity_gap": abs(lhs - rhs),
    }


# ------------------------------------------------------------------------
# Gas oracles: incoming pairs in arrays of their own and the outgoing
# momenta of a collision, which no command builds, and the closed-form gain
# of the entangled ensemble.

def draw_pairs(spec: CollisionSpec, mode: str, rng: np.random.Generator, n: int):
    """n incoming momentum pairs with their scattering angles, drawn by
    ``gas._fill_pairs`` into new arrays: (p_a, p_b, cos_theta, azimuth),
    momenta (n, 3) and length-n angles."""
    pairs = (np.empty((n, 3)), np.empty((n, 3)), np.empty(n), np.empty(n))
    _fill_pairs(spec, mode, rng, *pairs)
    return pairs


def fractional_gain(x: float, theta) -> np.ndarray | float:
    """Closed-form fractional kinetic-energy gain of particle a,
    4 x (x - 1) sin^2(theta/2), for collinear incoming momenta."""
    return 4.0 * x * (x - 1.0) * np.sin(np.asarray(theta) / 2.0) ** 2


def collide(p_a, p_b, m_a: float, m_b: float, cos_theta, azimuth):
    """Elastic two-body collision: the center-of-mass momentum is kept and
    the relative momentum q rotated by (theta, azimuth), the azimuth
    measured from V's component across q (from x-hat's where V x q is
    exactly 0, and y-hat's where q lies along x-hat as well).

    Works on one event (3-vectors and scalar angles) or on n events ((n, 3)
    momenta and length-n angles); an event gives the same bits alone as in
    a batch.  Returns (p_a', p_b', de_a), de_a bit for bit as
    ``gas.energy_events`` gives it.  Zero relative momentum passes through
    unchanged.
    """
    m_a, m_b = finite_real(m_a, "m_a", positive=True), finite_real(m_b, "m_b", positive=True)
    p_a = tuple(np.moveaxis(np.asarray(p_a, dtype=float), -1, 0))
    p_b = tuple(np.moveaxis(np.asarray(p_b, dtype=float), -1, 0))
    cos_theta = np.asarray(cos_theta, dtype=float)
    azimuth = np.asarray(azimuth, dtype=float)

    v_cm, q, c = _invariants(p_a, p_b, m_a, m_b)
    de = _de_a(v_cm, q, c, cos_theta, azimuth)
    # e1 = V_perp/|V_perp| = (q x c)/|q x c|, which stays orthogonal to q
    # even where c is only rounding; e1 is 0 where q is
    for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
        flat = _square(c) == 0.0
        c = tuple(np.where(flat, f, k) for f, k in zip(_cross(axis, q), c))
    e1 = _cross(q, c)
    e1_norm = _norm(e1)
    e1 = tuple(k / np.where(e1_norm > 0.0, e1_norm, 1.0) for k in e1)
    e2 = _cross(q, e1)  # |q| times q-hat x e1

    sin_theta = np.sqrt((1.0 - cos_theta) * (1.0 + cos_theta))
    along, across = _norm(q) * np.cos(azimuth), np.sin(azimuth)
    dq = [sin_theta * (along * a + across * b) + (cos_theta - 1.0) * k for a, b, k in zip(e1, e2, q)]
    p_a_out = np.stack([p + d for p, d in zip(p_a, dq)], axis=-1)
    p_b_out = np.stack([p - d for p, d in zip(p_b, dq)], axis=-1)
    return p_a_out, p_b_out, de
