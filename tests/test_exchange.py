import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    degenerate_pairs,
    haar_unitary,
    marginal,
    random_density,
    dense_exchange_reference,
    dephased_twin,
    initial_state,
    partial_swap,
    planes_matrix,
    random_conserving_planes,
    random_entangled_spec,
    random_rotations,
    shell_haar_unitary,
    shell_planes,
)

import entroflow.exchange as exchange_module
from entroflow.exchange import GivensPlanes
from entroflow import (
    BadCycle,
    CaseSpec,
    ClausiusStroke,
    DensityOperator,
    DimensionMismatch,
    EntangledThermalSpec,
    HamiltonianSpec,
    InvalidSpec,
    NoConvergence,
    NotDegenerate,
    OverlappingPlanes,
    clausius_cycle,
    gibbs_populations,
    givens_planes,
    kron,
    partial_trace,
    run_exchange,
    substream,
    von_neumann_entropy,
)

DEMO_SPEC = EntangledThermalSpec(np.array([0.0, 1.0, 2.0, 3.0]), 1.0, 1.0, 0.5)
DEMO_ROTATION = [((2, 2), (0, 3), math.pi / 2)]


def zero_levels(*dims):
    """One all-zero diagonal Hamiltonian per side: every joint energy is 0."""
    return [HamiltonianSpec(np.zeros(d)) for d in dims]


def demo_planes(phi=math.pi / 2):
    h_a, h_b = DEMO_SPEC.hamiltonian_a(), DEMO_SPEC.hamiltonian_b()
    return givens_planes(h_a, h_b, [((2, 2), (0, 3), phi)])


# ------------------------------------------------------------------------
# independently coded dense-matrix oracle for the demo experiment: explicit
# loops, no package calls
# ------------------------------------------------------------------------

def _oracle_marginals(rho):
    a = np.zeros((4, 4), dtype=complex)
    b = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for i2 in range(4):
            for j in range(4):
                a[i, i2] += rho[i * 4 + j, i2 * 4 + j]
    for j in range(4):
        for j2 in range(4):
            for i in range(4):
                b[j, j2] += rho[i * 4 + j, i * 4 + j2]
    return a, b


def _oracle_entropy(mat):
    lam = np.linalg.eigvalsh(mat)
    return float(-sum(x * math.log(x) for x in lam if x > 1e-12))


def dense_exchange_oracle(case):
    """Build the demo experiment from scratch and meter it by hand."""
    z = sum(math.exp(-k) for k in range(4))
    e_a = [0.0, 1.0, 2.0, 3.0]
    e_b = [0.0, 2.0, 4.0, 6.0]
    if case == "v":
        psi = np.zeros(16, dtype=complex)
        for i in range(4):
            psi[i * 4 + i] = math.sqrt(math.exp(-e_a[i]) / z)
        rho = np.outer(psi, psi.conj())
    else:
        rho = np.zeros((16, 16), dtype=complex)
        for i in range(4):
            for j in range(4):
                rho[i * 4 + j, i * 4 + j] = math.exp(-e_a[i]) * math.exp(-0.5 * e_b[j]) / z**2
    u = np.eye(16, dtype=complex)
    fu, fv = 2 * 4 + 2, 0 * 4 + 3  # same total energy: 2+4 = 0+6
    u[fu, fu] = u[fv, fv] = 0.0
    u[fv, fu] = 1.0
    u[fu, fv] = -1.0
    rho2 = u @ rho @ u.conj().T

    a0, b0 = _oracle_marginals(rho)
    a1, b1 = _oracle_marginals(rho2)
    energy = lambda m, lv: float(sum(m[i, i].real * lv[i] for i in range(4)))
    return {
        "q_a": energy(a1, e_a) - energy(a0, e_a),
        "q_b": energy(b1, e_b) - energy(b0, e_b),
        "ds_a": _oracle_entropy(a1) - _oracle_entropy(a0),
        "ds_b": _oracle_entropy(b1) - _oracle_entropy(b0),
    }


class TestDegeneratePairs:
    def test_demo_spectra_contain_expected_pair(self):
        pairs = degenerate_pairs(
            HamiltonianSpec(np.array([0.0, 1.0, 2.0, 3.0])),
            HamiltonianSpec(np.array([0.0, 2.0, 4.0, 6.0])),
        )
        normalized = {frozenset(p) for p in pairs}
        assert frozenset(((2, 2), (0, 3))) in normalized

    def test_resonant_qubits(self):
        pairs = degenerate_pairs(
            HamiltonianSpec(np.array([0.0, 1.0])), HamiltonianSpec(np.array([0.0, 1.0]))
        )
        assert {frozenset(p) for p in pairs} == {frozenset(((0, 1), (1, 0)))}

    def test_incommensurate_gaps_empty(self):
        pairs = degenerate_pairs(
            HamiltonianSpec(np.array([0.0, 1.0])), HamiltonianSpec(np.array([0.0, math.pi]))
        )
        assert pairs == []

    def test_matches_exhaustive_scan_oracle(self):
        rng = substream(31, 0)
        for _ in range(20):
            spec = random_entangled_spec(rng, max_dim=4)
            h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
            got = {frozenset(p) for p in degenerate_pairs(h_a, h_b)}
            # the tolerance is in units of the largest |level|
            tol = 1e-9 * max(h_a.levels[-1], h_b.levels[-1])
            oracle = set()
            for i in range(h_a.dim):
                for j in range(h_b.dim):
                    for i2 in range(h_a.dim):
                        for j2 in range(h_b.dim):
                            if (i, j) >= (i2, j2):
                                continue
                            if abs(
                                h_a.levels[i] + h_b.levels[j] - h_a.levels[i2] - h_b.levels[j2]
                            ) <= tol:
                                oracle.add(frozenset(((i, j), (i2, j2))))
            assert got == oracle

    def test_chain_of_near_ties_pairs_every_close_neighbour(self):
        # at a largest |level| of about 1, 1 and 1 + 1.6e-9 are more than tol
        # apart, but each is within tol of 1 + 0.8e-9: both planes pass
        # givens_planes, so both are listed
        levels = 1.0 + np.array([0.0, 0.8e-9, 1.6e-9])
        h_a, h_b = HamiltonianSpec(levels), HamiltonianSpec(np.array([0.0]))
        pairs = degenerate_pairs(h_a, h_b)
        assert pairs == [((0, 0), (1, 0)), ((1, 0), (2, 0))]
        for pair in pairs:
            givens_planes(h_a, h_b, [(*pair, 0.3)])

    def test_near_ties_match_exhaustive_scan(self):
        # levels jittered by amounts on both sides of tol, so clusters chain;
        # B's top level 1 is the largest |level|, so tol is 1e-9 exactly
        rng = substream(31, 9)
        for _ in range(20):
            steps = rng.choice([0.0, 0.4e-9, 0.9e-9, 1.1e-9, 0.25], size=4)
            h_a = HamiltonianSpec(np.cumsum(steps))
            h_b = HamiltonianSpec([*np.cumsum(rng.choice([0.0, 0.6e-9, 0.25], size=2)), 1.0])
            energies = np.add.outer(h_a.levels, h_b.levels).ravel()
            got = {frozenset(p) for p in degenerate_pairs(h_a, h_b)}
            oracle = {
                frozenset(((u // 3, u % 3), (v // 3, v % 3)))
                for u in range(energies.size)
                for v in range(u + 1, energies.size)
                if abs(energies[u] - energies[v]) <= 1e-9
            }
            assert got == oracle


class TestGivensUnitary:
    """The unitary of a plane form, read through the planes_matrix oracle."""

    def test_zero_angle_is_identity(self):
        assert np.array_equal(planes_matrix(demo_planes(0.0)), np.eye(16, dtype=complex))

    def test_quarter_turn_permutes_up_to_sign(self):
        u = planes_matrix(demo_planes(math.pi / 2))
        fu, fv = 2 * 4 + 2, 3
        basis_u = np.zeros(16)
        basis_u[fu] = 1.0
        mapped = u @ basis_u
        assert abs(abs(mapped[fv]) - 1.0) <= 1e-12
        assert np.abs(np.delete(mapped, fv)).max() <= 1e-12

    def test_commutes_with_total_hamiltonian(self):
        rng = substream(31, 1)
        for _ in range(20):
            spec = random_entangled_spec(rng, max_dim=5)
            case = CaseSpec.case_v(spec)
            u = planes_matrix(random_conserving_planes(case, rng))
            h_a, h_b = case.hamiltonians()
            h_tot = kron(np.diag(h_a.levels), np.eye(h_b.dim)) + kron(np.eye(h_a.dim), np.diag(h_b.levels))
            assert np.max(np.abs(u @ h_tot - h_tot @ u)) < 1e-10
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12

    def test_rejects_non_degenerate_plane(self):
        h_a, h_b = DEMO_SPEC.hamiltonian_a(), DEMO_SPEC.hamiltonian_b()
        with pytest.raises(NotDegenerate):
            givens_planes(h_a, h_b, [((0, 0), (1, 1), 0.3)])

    def test_rejects_overlapping_planes(self):
        h_a, h_b = DEMO_SPEC.hamiltonian_a(), DEMO_SPEC.hamiltonian_b()
        rots = [((2, 2), (0, 3), 0.3), ((2, 2), (0, 3), 0.2)]  # same plane twice
        with pytest.raises(OverlappingPlanes):
            givens_planes(h_a, h_b, rots)

    @pytest.mark.parametrize(
        "rotation",
        [((2.0, 2), (0, 3), 0.3), ((2, 2), (True, 3), 0.3), ((2, 2), (0, 3), math.inf),
         ((2, 2), (0, 3), True), ((2, 2), (0, 3), 10**400), ((2, 2), (0, 3)), ((2, 2), 3, 0.3)],
        ids=["float-label", "bool-label", "infinite-angle", "bool-angle", "angle-beyond-float",
             "no-angle", "short-label"],
    )
    def test_rejects_malformed_rotation(self, rotation):
        h_a, h_b = DEMO_SPEC.hamiltonian_a(), DEMO_SPEC.hamiltonian_b()
        with pytest.raises(InvalidSpec, match="integer labels, finite phi"):
            givens_planes(h_a, h_b, [((2, 0), (0, 1), 0.5), rotation])

    def test_accepts_numpy_numbers(self):
        h_a, h_b = DEMO_SPEC.hamiltonian_a(), DEMO_SPEC.hamiltonian_b()
        rotation = ((np.int64(2), np.uint8(2)), (0, np.int32(3)), np.float32(0.5))
        planes = givens_planes(h_a, h_b, [rotation])
        assert (planes.u.tolist(), planes.v.tolist()) == ([10], [3])
        assert planes.phi.dtype == float and planes.phi.tolist() == [float(np.float32(0.5))]


class TestPartialSwap:
    def test_zero_angle_identity(self):
        assert np.allclose(partial_swap(3, 0.0), np.eye(9), atol=0)

    def test_full_swap_exchanges_marginals(self):
        rng = substream(31, 2)
        rho = random_density(3, 2, rng)
        sigma = random_density(3, 3, rng)
        u = partial_swap(3, math.pi / 2)
        out = u @ kron(rho, sigma) @ u.conj().T
        joint = DensityOperator(out, (3, 3))
        assert np.max(np.abs(marginal(joint, 0).matrix - sigma)) <= 1e-12
        assert np.max(np.abs(marginal(joint, 1).matrix - rho)) <= 1e-12

    def test_unitary_and_energy_conserving(self):
        rng = substream(31, 3)
        u = partial_swap(3, 0.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) <= 1e-12
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (g + g.conj().T) / 2
        h_tot = kron(h, np.eye(3)) + kron(np.eye(3), h)
        assert np.max(np.abs(u @ h_tot - h_tot @ u)) < 1e-10


class TestRunExchange:
    def test_identity_unitary_zero_report(self):
        # no plane, and a plane at angle 0, are both the identity
        case_s = CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5)
        for case in (CaseSpec.case_v(DEMO_SPEC), case_s):
            for planes in (givens_planes(*case.hamiltonians(), []), demo_planes(0.0)):
                report = run_exchange(case, planes)
                assert report.q_a == report.q_b == 0.0
                assert abs(report.ds_a) <= 1e-12 and abs(report.ds_b) <= 1e-12
                assert report.work_leak == 0.0
                assert report.energy_conserving

    def test_entangled_demo_matches_oracle(self):
        report = run_exchange(CaseSpec.case_v(DEMO_SPEC), demo_planes())
        oracle = dense_exchange_oracle("v")
        z = sum(math.exp(-k) for k in range(4))
        assert abs(report.q_a - oracle["q_a"]) <= 1e-10
        assert abs(report.q_b - oracle["q_b"]) <= 1e-10
        assert abs(report.ds_a - oracle["ds_a"]) <= 1e-10
        assert abs(report.ds_b - oracle["ds_b"]) <= 1e-10
        # closed forms: heat -2e^-2/Z out of the colder system A
        assert abs(report.q_a - (-2 * math.exp(-2) / z)) <= 1e-12
        assert abs(report.ds_a - report.ds_b) <= 1e-9
        assert report.ds_a < 0
        assert report.q_a < 0  # T_A = 1 < T_B = 2: colder side loses heat
        assert abs(report.work_leak) <= 1e-10

    def test_product_demo_matches_oracle(self):
        case = CaseSpec.case_s(
            DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5
        )
        report = run_exchange(case, demo_planes())
        oracle = dense_exchange_oracle("s")
        z = sum(math.exp(-k) for k in range(4))
        assert abs(report.q_a - oracle["q_a"]) <= 1e-10
        assert abs(report.q_a - 2 * (math.exp(-3) - math.exp(-4)) / z**2) <= 1e-12
        assert report.q_a > 0  # normal direction: hotter B feeds colder A
        assert report.mutual_info_initial <= 1e-10

    def test_entangled_invariants_any_unitary(self):
        # purity makes the marginal entropies move in lock-step under any
        # joint unitary, energy conserving or not (on the dense oracle, as
        # run_exchange takes only plane forms)
        rng = substream(31, 4)
        for _ in range(40):
            spec = random_entangled_spec(rng, max_dim=4)
            case = CaseSpec.case_v(spec)
            report = dense_exchange_reference(case, haar_unitary(spec.dim**2, rng))
            assert abs(report["ds_a"] - report["ds_b"]) <= 1e-9

    def test_entangled_invariants_conserving_unitary(self):
        rng = substream(31, 5)
        for _ in range(60):
            spec = random_entangled_spec(rng, max_dim=5)
            case = CaseSpec.case_v(spec)
            report = run_exchange(case, random_conserving_planes(case, rng))
            assert report.energy_conserving
            assert abs(report.work_leak) <= 1e-10
            assert abs(report.ds_a - report.ds_b) <= 1e-9
            assert report.ds_a <= 1e-9
            assert report.slack_a >= -1e-9
            assert report.slack_b >= -1e-9

    def test_product_invariants_conserving_unitary(self):
        rng = substream(31, 6)
        for _ in range(60):
            spec = random_entangled_spec(rng, max_dim=5)
            h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
            case = CaseSpec.case_s(
                h_a, float(rng.uniform(0.3, 3.0)), h_b, float(rng.uniform(0.3, 3.0))
            )
            report = run_exchange(case, random_conserving_planes(case, rng))
            assert abs(report.work_leak) <= 1e-10
            assert report.ds_a + report.ds_b >= -1e-9
            assert report.slack_a >= -1e-9
            assert report.slack_b >= -1e-9
            beta_a, beta_b = case.betas()
            assert beta_a * report.q_a + beta_b * report.q_b >= -1e-9
            # heat flows from the initially hotter side
            assert (beta_a - beta_b) * report.q_a >= -1e-9

    def test_joint_entropy_conserved(self):
        rng = substream(31, 7)
        spec = random_entangled_spec(rng, max_dim=4)
        case = CaseSpec.case_s(
            spec.hamiltonian_a(), 1.1, spec.hamiltonian_b(), 0.6
        )
        rho0 = initial_state(case)
        u = haar_unitary(rho0.dim, rng)
        rho1 = DensityOperator(u @ rho0.matrix @ u.conj().T, rho0.dims)
        assert abs(von_neumann_entropy(rho1.matrix) - von_neumann_entropy(rho0.matrix)) <= 1e-9

    def test_rejects_non_finite_unitary(self):
        # givens_planes refuses a NaN angle itself; at_angle stores it, and
        # run_exchange refuses it before taking any cos or sin
        planes = demo_planes().at_angle(float("nan"))
        with pytest.raises(InvalidSpec, match="plane angles must be finite"):
            run_exchange(CaseSpec.case_v(DEMO_SPEC), planes)

    @pytest.mark.parametrize(
        "u, v, error",
        [
            ([10, 10], [3, 5], OverlappingPlanes),  # state (2, 2) in both planes
            ([10, 3], [3, 5], OverlappingPlanes),  # state (0, 3) in both planes
            ([10, -1], [3, 5], DimensionMismatch),  # below the joint range
            ([10, 16], [3, 5], DimensionMismatch),  # above it
            ([10], [10], OverlappingPlanes),  # a plane of one state
        ],
        ids=["shared", "shared-across", "below-range", "above-range", "one-state"],
    )
    @pytest.mark.parametrize(
        "case",
        [
            CaseSpec.case_v(DEMO_SPEC),
            CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5),
            # equal temperatures: a degenerate plane's populations are equal,
            # so a marginal's trace cannot tell that two planes share a state
            CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 1.0),
        ],
        ids=["V", "S", "S-equal-beta"],
    )
    def test_hand_built_planes_are_checked_on_entry(self, case, u, v, error):
        # built by hand, past givens_planes, at valid angles
        angles = np.array([1.0, 1.2])[: len(u)]
        planes = GivensPlanes((4, 4), np.array(u), np.array(v), angles)
        with pytest.raises(error):
            run_exchange(case, planes)

    @pytest.mark.parametrize(
        "u, v, phi, error",
        [
            ([10, 3], [5], [1.0, 1.2], DimensionMismatch),  # u longer than v
            ([10], [5, 0], [1.0], DimensionMismatch),  # v longer than u
            ([10], [5], [1.0, 1.2], DimensionMismatch),  # one plane, two angles
            ([10], [5], [[1.0, 1.2]], DimensionMismatch),  # a stack of one, two angles
            ([[10]], [5], [1.0], DimensionMismatch),  # u not 1-D
            ([10], [5], 1.0, DimensionMismatch),  # phi a scalar
            ([10], [5], [[[1.0]]], DimensionMismatch),  # phi 3-D
            ([10.0], [5], [1.0], InvalidSpec),  # float labels
            ([10], [True], [1.0], InvalidSpec),  # bool labels
            ([10], [5], [1.0 + 0.5j], InvalidSpec),  # complex angle
            ([10], [5], ["1.0"], InvalidSpec),  # string angle
            (np.array([10], np.uint64), [3], [1.0], InvalidSpec),  # unsigned labels
        ],
        ids=["u-longer", "v-longer", "two-angles", "stack-two-angles", "u-2d", "phi-scalar",
             "phi-3d", "float-u", "bool-v", "complex-phi", "string-phi", "uint64-u"],
    )
    @pytest.mark.parametrize(
        "case",
        [
            CaseSpec.case_v(DEMO_SPEC),
            CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5),
            CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 1.0),
        ],
        ids=["V", "S", "S-equal-beta"],
    )
    def test_hand_built_plane_shapes_and_dtypes_are_checked_first(self, case, u, v, phi, error):
        # a shape fault is a DimensionMismatch and a dtype fault an
        # InvalidSpec, never numpy's ValueError or TypeError
        planes = GivensPlanes((4, 4), np.array(u), np.array(v), np.array(phi))
        with pytest.raises(error) as raised:
            run_exchange(case, planes)
        assert str(raised.value).startswith("plane")

    @pytest.mark.parametrize("angle", [1.0 + 0.5j, "1.0"], ids=["complex", "string"])
    def test_at_angle_leaves_the_angle_type_to_the_gate(self, angle):
        # at_angle casts nothing: a complex angle is refused, not truncated
        with pytest.raises(InvalidSpec, match="real phi"):
            run_exchange(CaseSpec.case_v(DEMO_SPEC), demo_planes().at_angle(angle))

    @pytest.mark.parametrize(
        "case",
        [
            CaseSpec.case_v(DEMO_SPEC),
            CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5),
        ],
        ids=["V", "S"],
    )
    def test_no_joint_eigensolves(self, case, eigensolve_shapes):
        # the joint entropy is the initial state's: only final marginals
        # are diagonalized, one d x d a side for V (the Gibbs row is read
        # off its populations, never solved); the demo plane shares no
        # index, so both S marginals are diagonal and read off their diagonal
        run_exchange(case, demo_planes())
        assert eigensolve_shapes == ([(1, 4, 4)] * 2 if case.kind == "V" else [])

    @pytest.mark.parametrize("angles", [math.pi / 2, np.array([0.0, 0.3, 1.2])], ids=["one", "sweep"])
    def test_forms_each_gibbs_row_once(self, angles, gibbs_rows):
        # one row a side, from which the initial marginal is built and the
        # divergence reads ln Z, for V and S, one angle set or a stack
        case_s = CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5)
        for case in (CaseSpec.case_v(DEMO_SPEC), case_s):
            run_exchange(case, demo_planes().at_angle(angles))
        assert gibbs_rows == [(4,)] * 4

    def test_sweep_solves_no_angle_set_without_a_coherence(self, eigensolve_shapes):
        # phi = 0 leaves every V marginal diagonal: a sweep through it
        # solves the other angle sets only, at d = 4 and d = 16
        angles = np.array([0.0, 0.3, 1.2])
        run_exchange(CaseSpec.case_v(DEMO_SPEC), demo_planes().at_angle(angles))
        (case, planes), _ = shell_cases(16)
        assert case.kind == "V"
        run_exchange(case, planes.at_angle(STACK_ANGLES))
        assert eigensolve_shapes == [(2, 4, 4)] * 2 + [(STACK_ANGLES.size - 1, 16, 16)] * 2

    def test_case_v_builds_its_sides_once(self, monkeypatch):
        # the entangled spec's Hamiltonians and temperatures fill the case at
        # construction: every call returns the same objects, and a run never
        # builds a side's Hamiltonian again
        case = CaseSpec.case_v(DEMO_SPEC)
        sides, betas = case.hamiltonians(), case.betas()
        assert [a is b for a, b in zip(case.hamiltonians(), sides)] == [True, True]
        assert betas == case.betas() == (DEMO_SPEC.beta_a, DEMO_SPEC.beta_b)
        for h, mu in zip(sides, (DEMO_SPEC.mu_a, DEMO_SPEC.mu_b)):
            assert np.array_equal(h.levels, DEMO_SPEC.epsilon / mu)
        planes = demo_planes()
        want = run_exchange(case, planes)

        def rebuilt(self):
            raise AssertionError("a side's Hamiltonian was built again")

        for name in ("hamiltonian_a", "hamiltonian_b"):
            monkeypatch.setattr(EntangledThermalSpec, name, rebuilt)
        assert run_exchange(case, planes) == want

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            run_exchange(CaseSpec.case_v(DEMO_SPEC), givens_planes(*zero_levels(4, 2), []))

    def test_case_spec_validation(self):
        with pytest.raises(InvalidSpec):
            CaseSpec(kind="X")
        h_a, h_b = DEMO_SPEC.hamiltonian_a(), DEMO_SPEC.hamiltonian_b()
        # a bool is not a beta, and neither is NaN or an infinity
        for beta in (-1.0, 0.0, None, True, math.inf, -math.inf, math.nan, np.float64(math.inf)):
            with pytest.raises(InvalidSpec):
                CaseSpec.case_s(h_a, beta, h_b, 1.0)
            with pytest.raises(InvalidSpec):
                CaseSpec.case_s(h_a, 1.0, h_b, beta)
        assert CaseSpec.case_s(h_a, 2, h_b, np.float64(0.5)).betas() == (2.0, 0.5)


# ------------------------------------------------------------------------
# cycle runner
# ------------------------------------------------------------------------

GAP1 = HamiltonianSpec(np.array([0.0, 1.0]))
GAP2 = HamiltonianSpec(np.array([0.0, 2.0]))

TWO_RESERVOIR_STROKES = [
    ClausiusStroke.contact(2.0, math.pi / 2),
    ClausiusStroke.quench(GAP2),
    ClausiusStroke.contact(1.0, math.pi / 2),
    ClausiusStroke.quench(GAP1),
]


def binary_entropy(p):
    return -sum(q * math.log(q) for q in (p, 1.0 - p) if q > 0)


def two_reservoir_oracle():
    """Scalar-population oracle for the converged two-reservoir qubit cycle.

    Full-swap contacts replace the system state by the reservoir Gibbs
    state, so the fixed-point cycle is pure arithmetic on excited-state
    populations.
    """
    p_in = math.exp(-2.0) / (1 + math.exp(-2.0))  # entering: cold gap-2 Gibbs populations
    p_hot = math.exp(-0.5) / (1 + math.exp(-0.5))  # hot reservoir, T=2, gap 1
    p_cold = math.exp(-2.0) / (1 + math.exp(-2.0))  # cold reservoir, T=1, gap 2
    q_hot = 1.0 * (p_hot - p_in)
    q_cold = 2.0 * (p_cold - p_hot)
    strokes = [
        (0.5, q_hot, binary_entropy(p_hot) - binary_entropy(p_in)),
        (1.0, q_cold, binary_entropy(p_cold) - binary_entropy(p_hot)),
    ]
    return 0.5 * q_hot + 1.0 * q_cold, strokes


class TestClausiusCycle:
    def test_single_reservoir_thermalizes(self):
        strokes = [ClausiusStroke.contact(2.0, 0.3)]
        report = clausius_cycle(
            (GAP1, gibbs_populations(GAP1, 5.0)), strokes, max_cycles=5000, fp_tol=1e-12
        )
        assert report.residual < 1e-12
        assert abs(report.clausius_sum) <= 1e-8  # zero heat at the fixed point
        # en route to the fixed point every pass obeys the stroke inequality
        report2 = clausius_cycle(
            (GAP1, gibbs_populations(GAP1, 5.0)), strokes, max_cycles=1, fp_tol=10.0
        )
        assert report2.strokes[0].slack <= 1e-9

    def test_single_reservoir_fixed_point_is_gibbs(self):
        strokes = [ClausiusStroke.contact(2.0, 0.3)]
        report = clausius_cycle(
            (GAP1, gibbs_populations(GAP1, 5.0)), strokes, max_cycles=5000, fp_tol=1e-12
        )
        assert report.cycles_to_convergence > 1
        # rebuild the final state by iterating independently: partial swap
        # toward a fixed reservoir mixes populations linearly
        p_res = math.exp(-0.5) / (1 + math.exp(-0.5))
        p = math.exp(-5.0) / (1 + math.exp(-5.0))
        s = math.sin(0.3) ** 2
        for _ in range(report.cycles_to_convergence):
            p = (1 - s) * p + s * p_res
        assert abs(p - p_res) < 1e-10

    def test_two_reservoir_cycle_matches_oracle(self):
        report = clausius_cycle((GAP1, gibbs_populations(GAP1, 1.0)), TWO_RESERVOIR_STROKES)
        oracle_sum, oracle_strokes = two_reservoir_oracle()
        assert report.residual < 1e-10
        assert abs(report.clausius_sum - oracle_sum) <= 1e-12
        assert report.clausius_sum <= 1e-8
        assert len(report.strokes) == 2
        for record, (beta, q, ds) in zip(report.strokes, oracle_strokes):
            assert abs(record.beta - beta) <= 1e-12
            assert abs(record.heat - q) <= 1e-12
            assert abs(record.entropy_change - ds) <= 1e-12
            assert record.slack <= 1e-9

    def test_no_eigensolve_state_or_matrix_per_contact_or_run(self, eigensolves, monkeypatch):
        # a contact maps populations: an entropy is read off the populations,
        # unsorted, and the residual is their half-L1 distance.  At
        # d = 1024 one d x d float array takes 8 MiB; the run stays under 1
        d = 1024
        levels = np.arange(d, dtype=float)
        built = []
        monkeypatch.setattr(DensityOperator, "__post_init__", lambda rho: built.append(rho))
        monkeypatch.setattr(np, "sort", lambda *a, **k: built.append("sort"))
        strokes = [
            ClausiusStroke.contact(3.0, 0.7),
            ClausiusStroke.quench(HamiltonianSpec(2 * levels)),
            ClausiusStroke.contact(1.0, 0.7),
            ClausiusStroke.quench(HamiltonianSpec(levels)),
        ]
        h0 = HamiltonianSpec(levels)
        p0 = gibbs_populations(h0, 1.0)
        tracemalloc.start()
        try:
            report = clausius_cycle((h0, p0), strokes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.cycles_to_convergence > 1 and report.clausius_sum <= 1e-8
        assert eigensolves == [] and built == []
        assert peak < d * d

    def test_zero_angle_contacts(self):
        strokes = [ClausiusStroke.contact(2.0, 0.0), ClausiusStroke.contact(1.0, 0.0)]
        report = clausius_cycle((GAP1, gibbs_populations(GAP1, 1.0)), strokes)
        assert report.cycles_to_convergence == 1
        assert report.clausius_sum == 0.0
        assert all(r.heat == 0.0 for r in report.strokes)

    def test_non_restoring_quench_rejected(self):
        strokes = [ClausiusStroke.contact(2.0, 0.5), ClausiusStroke.quench(GAP2)]
        with pytest.raises(BadCycle):
            clausius_cycle((GAP1, gibbs_populations(GAP1, 1.0)), strokes)

    @pytest.mark.parametrize(
        "strokes",
        [
            [ClausiusStroke.contact(2.0, 0.5), ClausiusStroke.quench(GAP2)],
            # restores H0, but the middle contact would act on 3 levels
            [
                ClausiusStroke.quench(HamiltonianSpec(np.array([0.0, 1.0, 2.0]))),
                ClausiusStroke.contact(2.0, 0.5),
                ClausiusStroke.quench(GAP1),
            ],
        ],
        ids=["not-restored", "dimension-change"],
    )
    def test_bad_cycle_raised_before_any_contact(self, strokes, monkeypatch):
        # every contact, and the run before its first one, reads an entropy
        contacts = []
        real = exchange_module.spectral_entropy
        monkeypatch.setattr(
            exchange_module, "spectral_entropy", lambda *a: contacts.append(a) or real(*a)
        )
        with pytest.raises(BadCycle):
            clausius_cycle((GAP1, gibbs_populations(GAP1, 1.0)), strokes)
        assert contacts == []

    def test_no_convergence_reported(self):
        strokes = [ClausiusStroke.contact(2.0, 0.2)]
        with pytest.raises(NoConvergence):
            clausius_cycle((GAP1, gibbs_populations(GAP1, 9.0)), strokes, max_cycles=2, fp_tol=1e-12)

    @pytest.mark.parametrize(
        "limits",
        [
            {"max_cycles": 0},
            {"max_cycles": -3},
            {"fp_tol": math.nan},
            {"fp_tol": math.inf},
            {"fp_tol": 0.0},
            {"fp_tol": -1e-6},
        ],
        ids=["zero-cycles", "negative-cycles", "tol-nan", "tol-inf", "tol-zero", "tol-negative"],
    )
    def test_iteration_limits_refused(self, limits):
        # refused before any cycle: max_cycles=0 used to end in an
        # UnboundLocalError, and fp_tol=nan ran every cycle to NoConvergence
        with pytest.raises(InvalidSpec):
            clausius_cycle((GAP1, gibbs_populations(GAP1, 1.0)), TWO_RESERVOIR_STROKES, **limits)

    def test_stacked_hamiltonian_refused(self):
        # a stack of Hamiltonians is refused, as a quench or as the system
        stacked = HamiltonianSpec([[0.0, 1.0], [0.0, 2.0]])
        p0 = gibbs_populations(GAP1, 1.0)
        for system, quench in ((GAP1, stacked), (stacked, GAP1)):
            strokes = [ClausiusStroke.quench(quench), *TWO_RESERVOIR_STROKES]
            with pytest.raises(InvalidSpec, match="single Hamiltonians, not a stack"):
                clausius_cycle((system, p0), strokes)

    @pytest.mark.parametrize(
        "populations",
        [[1.1, -0.1], [math.nan, 1.0], [math.inf, 0.0], [0.2, 0.3, 0.5], [0.5, 0.5 + 1e-9]],
        ids=["negative", "nan", "inf", "wrong-length", "sum-off-by-1e-9"],
    )
    def test_populations_refused(self, populations):
        with pytest.raises(InvalidSpec, match="normalized distribution over 2 levels"):
            clausius_cycle((GAP1, populations), TWO_RESERVOIR_STROKES)

    def test_stroke_validation(self):
        for temperature in (-1.0, 0.0, None, True, math.inf, math.nan):
            with pytest.raises(InvalidSpec):
                ClausiusStroke.contact(temperature, 0.5)
        with pytest.raises(InvalidSpec):
            ClausiusStroke(kind="contact", temperature=1.0, phi=None)

    def test_stroke_inequality_for_arbitrary_states(self):
        # beta*Q - dS <= 0 for every contact, whatever the system state
        rng = substream(31, 8)
        for _ in range(30):
            pops = rng.dirichlet(np.ones(2))
            strokes = [ClausiusStroke.contact(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0, math.pi)))]
            report = clausius_cycle((GAP1, pops), strokes, max_cycles=1, fp_tol=1e9)
            assert report.strokes[0].slack <= 1e-9


# ------------------------------------------------------------------------
# closed-form kernels against their dense definitions
# ------------------------------------------------------------------------

class TestContactClosedForm:
    @pytest.mark.parametrize("d", [2, 8, 24])
    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2])
    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    def test_matches_dense_partial_swap(self, d, phi, rotated):
        # one contact of the population map against tr_B of the dense
        # partial swap U (rho (x) sigma) U^dag; some populations are 0.
        # Rotated: system and reservoir share H = B diag(E) B^dag, the lab
        # frame holds rho = B diag(p) B^dag, and the library is passed E
        # alone (SWAP commutes with B (x) B, so U is the same in both frames)
        rng = substream(31, 9, d)
        p = rng.dirichlet(np.ones(d))
        p[: int(rng.integers(0, d))] = 0.0
        p /= p.sum()
        levels = np.sort(rng.uniform(0.0, 2.0, d))
        basis = haar_unitary(d, rng) if rotated else np.eye(d, dtype=complex)
        h = HamiltonianSpec(levels)
        contact = [ClausiusStroke.contact(1.25, phi)]

        def in_lab(values):
            return (basis * values) @ basis.conj().T

        rho = in_lab(p)
        u = partial_swap(d, phi)
        sigma = in_lab(gibbs_populations(h, 1 / 1.25))
        reduced = partial_trace(u @ kron(rho, sigma) @ u.conj().T, (d, d), [0])
        heat = np.trace((reduced - rho) @ in_lab(levels)).real
        entropy_change = von_neumann_entropy(
            DensityOperator(reduced, (d,)).matrix
        ) - von_neumann_entropy(rho)
        (record,) = clausius_cycle((h, p), contact, max_cycles=1, fp_tol=1e9).strokes
        assert abs(record.heat - heat) <= 1e-13
        assert abs(record.entropy_change - entropy_change) <= 1e-13

    def test_cycle_builds_no_joint_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a Clausius contact formed a joint-space matrix")

        for name in ("partial_swap", "kron", "partial_trace"):
            monkeypatch.setattr(exchange_module, name, forbidden, raising=False)
        report = clausius_cycle((GAP1, gibbs_populations(GAP1, 1.0)), TWO_RESERVOIR_STROKES)
        oracle_sum, _ = two_reservoir_oracle()
        assert abs(report.clausius_sum - oracle_sum) <= 1e-12


def assert_matches_reference(case, planes):
    report = run_exchange(case, planes)
    reference = dense_exchange_reference(case, planes_matrix(planes))
    del reference["marginals"]
    assert report.energy_conserving == reference.pop("energy_conserving")
    for name, value in reference.items():
        assert abs(getattr(report, name) - value) <= 1e-10, name
    return report


def random_s_case(spec, rng):
    h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
    return CaseSpec.case_s(h_a, float(rng.uniform(0.3, 3.0)), h_b, float(rng.uniform(0.3, 3.0)))


def repeated_level_spec(rng, max_dim: int = 6) -> EntangledThermalSpec:
    """Random spec whose shared spectrum repeats levels (steps of 0, 1 or
    2), so that degenerate planes also join two states of one side."""
    d = int(rng.integers(2, max_dim + 1))
    eps = np.concatenate([[0.0], np.cumsum(rng.integers(0, 3, size=d - 1))]).astype(float)
    mu_a = rng.uniform(0.5, 2.0)
    mu_b = mu_a * float(rng.choice([0.5, 1.0, 2.0]))
    return EntangledThermalSpec(eps, gamma=rng.uniform(0.5, 2.0), mu_a=mu_a, mu_b=mu_b)


def product_marginals(case, planes):
    """run_exchange's two final marginals, as matrices: the populations on
    the diagonal, each coherence summed into its flat bin."""
    c, s, _ = exchange_module._plane_gate(planes, *case.hamiltonians())
    gibbs = map(gibbs_populations, case.hamiltonians(), case.betas())
    out = []
    for populations, bins, coherences in exchange_module._marginals(case, planes, c, s, *gibbs):
        d = populations.shape[-1]
        rho = np.bincount(bins, coherences[0], d * d).reshape(d, d)
        out.append(rho + np.diag(populations[1]))
    return out


def shared_sides(planes):
    """Number of planes whose two states share their B index, and number
    sharing their A index: the planes with an A-side and a B-side
    coherence."""
    (i_u, j_u), (i_v, j_v) = np.divmod(planes.u, planes.dims[1]), np.divmod(planes.v, planes.dims[1])
    return int(np.sum(j_u == j_v)), int(np.sum(i_u == i_v))


class TestRunExchangeAgainstDense:
    def test_conserving_unitaries(self):
        rng = substream(31, 11)
        for _ in range(15):
            spec = random_entangled_spec(rng, max_dim=5)
            case_v = CaseSpec.case_v(spec)
            planes = random_conserving_planes(case_v, rng)
            for case in (case_v, random_s_case(spec, rng)):
                assert assert_matches_reference(case, planes).energy_conserving

    def test_stacked_product_case_refused(self):
        # the plane form acts on one Hamiltonian per side, not a stack
        rng = substream(31, 12)
        spec = random_entangled_spec(rng, max_dim=4)
        h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
        stacked_a = HamiltonianSpec(np.stack([h_a.levels, 2 * h_a.levels]))
        for pair in ((stacked_a, h_b), (h_a, stacked_a)):
            with pytest.raises(InvalidSpec):
                CaseSpec.case_s(pair[0], 1.0, pair[1], 0.5)
            # givens_planes reads the energies from the levels, by the same rule
            with pytest.raises(InvalidSpec, match="one Hamiltonian a side, not a stack"):
                givens_planes(*pair, [((0, 0), (0, 0), 0.3)])

    @pytest.mark.parametrize("d", range(2, 25))
    def test_product_marginals_match_oracle(self, d):
        # the scattered marginals of cases S and V against the partial
        # traces of the dense U rho0 U^dag, on a maximal set of disjoint
        # degenerate planes at random angles
        rng = substream(31, 16, d)
        for mu_b in (1.0, 0.5):
            spec = EntangledThermalSpec(np.arange(d, dtype=float), 0.45, 1.0, mu_b)
            h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
            case_s = CaseSpec.case_s(h_a, 0.8, h_b, 0.3)
            planes = random_conserving_planes(case_s, rng)
            for case in (case_s, CaseSpec.case_v(spec)):
                oracle = dense_exchange_reference(case, planes_matrix(planes))["marginals"]
                for got, want in zip(product_marginals(case, planes), oracle):
                    assert np.max(np.abs(got - want)) <= 1e-15

    def test_repeated_levels_reach_both_coherence_branches(self):
        # repeated levels give degenerate planes inside one side; their two
        # states hold equal Gibbs populations, so the coherence they add is
        # zero (test_non_degenerate_plane_matches_oracle gives it a value)
        rng = substream(31, 17)
        shared = np.zeros(2, dtype=int)
        for _ in range(60):
            spec = repeated_level_spec(rng)
            case = random_s_case(spec, rng)
            planes = random_conserving_planes(case, rng)
            oracle = dense_exchange_reference(case, planes_matrix(planes))["marginals"]
            for got, want in zip(product_marginals(case, planes), oracle):
                assert np.max(np.abs(got - want)) <= 1e-15
            shared += shared_sides(planes)
        assert shared.all()

    def test_non_degenerate_plane_matches_oracle(self):
        # a GivensPlanes built directly, not through givens_planes: planes
        # off the energy shell, one crossing both indices and one sharing
        # each side's index, are metered as they act
        u, v = np.array([0, 6, 13]), np.array([5, 14, 15])  # (0,0)-(1,1), (1,2)-(3,2), (3,1)-(3,3)
        angles = np.array([0.4, 1.1, 2.0])
        planes = GivensPlanes((4, 4), u, v, angles)
        assert shared_sides(planes) == (1, 1)
        case_s = CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5)
        for case in (CaseSpec.case_v(DEMO_SPEC), case_s):
            report = assert_matches_reference(case, planes)
            reference = dense_exchange_reference(case, planes_matrix(planes))
            assert not report.energy_conserving
            assert abs(report.work_leak) > 1e-3
            assert abs(report.work_leak - reference["work_leak"]) <= 1e-15
            if case.kind == "S":
                for got, want in zip(product_marginals(case, planes), reference["marginals"]):
                    assert np.max(np.abs(got - want)) <= 1e-15

    def test_builds_no_joint_state(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("run_exchange formed a joint-space matrix")

        for name in ("kron", "partial_trace"):
            monkeypatch.setattr(exchange_module, name, forbidden, raising=False)
        # and no state of any size: each side is metered as a plain stack
        built = []
        monkeypatch.setattr(DensityOperator, "__post_init__", lambda rho: built.append(rho.dims))
        case = CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5)
        for c in (CaseSpec.case_v(DEMO_SPEC), case):
            for planes in (demo_planes(), demo_planes().at_angle(np.array([0.0, 0.3]))):
                run_exchange(c, planes)
        assert built == []

    def test_identity_gap_at_rounding_for_one_angle_and_a_stack(self):
        # the Gibbs-evolution identity of the demo V and S cases holds to
        # rounding for one angle set and for a stack of three
        case_s = CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5)
        for case in (CaseSpec.case_v(DEMO_SPEC), case_s):
            for planes in (demo_planes(0.3), demo_planes().at_angle(np.array([0.0, 0.3, 1.2]))):
                assert np.all(run_exchange(case, planes).identity_gap <= 1e-14)


def report_bits(report) -> list[int]:
    """Every field of an ExchangeReport as IEEE bits (the flag as 0.0/1.0)."""
    return np.asarray(dataclasses.astuple(report), dtype=float).view(np.int64).tolist()


def plane_cases(d: int, mu_b: float):
    """Cases V and S on levels 0..d-1 (A) and 0, 1/mu_b, ... (B)."""
    spec = EntangledThermalSpec(np.arange(d, dtype=float), 0.45, 1.0, mu_b)
    h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
    return CaseSpec.case_v(spec), CaseSpec.case_s(h_a, 0.8, h_b, 0.3)


class TestPlaneForm:
    """run_exchange on givens_planes gives the report of the dense oracle on
    the planes' unitary, without a D x D matrix."""

    # d = 2 has a degenerate plane only at mu_b = mu_a
    @pytest.mark.parametrize("d, mu_b", [(2, 1.0), (8, 1.0), (8, 0.5), (24, 1.0), (24, 0.5)])
    def test_report_bits_match_dense(self, d, mu_b):
        rng = substream(31, 20, d)
        case_v, case_s = plane_cases(d, mu_b)
        rotations = random_rotations(case_v, rng)
        assert rotations
        override = [(first, second, 0.37) for first, second, _ in rotations]
        h_a, h_b = case_v.hamiltonians()
        planes = givens_planes(h_a, h_b, rotations)
        # at_angle swaps the angle and nothing else: the same bits as the
        # rotations built at that angle
        for case in (case_v, case_s):
            assert_matches_reference(case, planes)
            report = assert_matches_reference(case, planes.at_angle(0.37))
            assert report_bits(report) == report_bits(
                run_exchange(case, givens_planes(h_a, h_b, override))
            )

    def test_random_specs_match_dense(self):
        rng = substream(31, 21)
        for make_spec in (random_entangled_spec, repeated_level_spec):
            for _ in range(20):
                spec = make_spec(rng, max_dim=6)
                case_v = CaseSpec.case_v(spec)
                planes = random_conserving_planes(case_v, rng)
                for case in (case_v, random_s_case(spec, rng)):
                    assert_matches_reference(case, planes)

    @pytest.mark.parametrize("phi", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_not_unitary(self, phi):
        h_a, h_b = DEMO_SPEC.hamiltonian_a(), DEMO_SPEC.hamiltonian_b()
        planes = givens_planes(h_a, h_b, DEMO_ROTATION)
        case_s = CaseSpec.case_s(h_a, 1.0, h_b, 0.5)
        # at_angle takes no cos or sin, so it warns of nothing
        forms = (
            planes.at_angle(phi),
            # one bad angle set fails a whole stack
            planes.at_angle(np.array([0.3, phi, 0.5])),
        )
        # givens_planes refuses the angle before any run
        with pytest.raises(InvalidSpec, match="finite phi"):
            givens_planes(h_a, h_b, [((2, 2), (0, 3), phi)])
        for case in (CaseSpec.case_v(DEMO_SPEC), case_s):
            for form in forms:
                with pytest.raises(InvalidSpec, match="plane angles must be finite"):
                    run_exchange(case, form)

    # (2, 2)-(0, 3), (2, 0)-(0, 1) and (0, 3)-(2, 2) are degenerate planes of
    # DEMO_SPEC; (0, 0)-(1, 1) and (2, 0)-(3, 3) are not.  A list with several
    # bad rotations names the first in input order, for its first failed
    # check (label range, two distinct states, degeneracy, reuse)
    @pytest.mark.parametrize(
        "rotations, error, message",
        [
            (
                [((2, 2), (0, 3), 0.3), ((2, 2), (0, 3), 0.2)], OverlappingPlanes,
                "rotation plane ((2, 2), (0, 3)) reuses a basis state",
            ),
            (
                [((2, 2), (0, 3), 0.3), ((0, 3), (2, 2), 0.2)], OverlappingPlanes,
                "rotation plane ((0, 3), (2, 2)) reuses a basis state",
            ),
            (
                [((1, 1), (1, 1), 0.3)], OverlappingPlanes,
                "rotation plane degenerates to a single state (1, 1)",
            ),
            (
                [((0, 0), (1, 1), 0.3)], NotDegenerate,
                "labels (0, 0) and (1, 1) differ in energy by 3.000e+00 (> 6.000e-09)",
            ),
            (
                [((4, 0), (0, 2), 0.3)], DimensionMismatch,
                "joint label (4, 0) out of range for dims (4, 4)",
            ),
            (
                [((0, -1), (0, 2), 0.3)], DimensionMismatch,
                "joint label (0, -1) out of range for dims (4, 4)",
            ),
            (
                [((2, 2), (0, 3), 0.3), ((0, 3), (2, 2), 0.2), ((4, 0), (0, 2), 0.3)],
                OverlappingPlanes, "rotation plane ((0, 3), (2, 2)) reuses a basis state",
            ),
            (
                [((2, 2), (0, 3), 0.3), ((4, 0), (0, 2), 0.3), ((0, 3), (2, 2), 0.2)],
                DimensionMismatch, "joint label (4, 0) out of range for dims (4, 4)",
            ),
            (
                [((2, 0), (0, 1), 0.3), ((0, 0), (1, 1), 0.3), ((1, 1), (1, 1), 0.3)],
                NotDegenerate, "labels (0, 0) and (1, 1) differ in energy by 3.000e+00 (> 6.000e-09)",
            ),
            (
                [((2, 0), (0, 1), 0.3), ((1, 1), (1, 1), 0.3), ((0, 0), (1, 1), 0.3)],
                OverlappingPlanes, "rotation plane degenerates to a single state (1, 1)",
            ),
            (
                [((2, 0), (0, 1), 0.3), ((2, 0), (3, 3), 0.3)], NotDegenerate,
                "labels (2, 0) and (3, 3) differ in energy by 7.000e+00 (> 6.000e-09)",
            ),
            (
                [((5, 0), (5, 0), 0.3)], DimensionMismatch,
                "joint label (5, 0) out of range for dims (4, 4)",
            ),
            (
                [((0, 0), (0, 4), 0.3)], DimensionMismatch,
                "joint label (0, 4) out of range for dims (4, 4)",
            ),
            (
                [((2**63, 0), (0, 2), 0.3)], DimensionMismatch,
                "joint label (9223372036854775808, 0) out of range for dims (4, 4)",
            ),
            (
                [((2**70, 0), (0, 2), 0.3)], DimensionMismatch,
                "joint label (1180591620717411303424, 0) out of range for dims (4, 4)",
            ),
            (
                [((-1, 0), (0, 2), 0.3)], DimensionMismatch,
                "joint label (-1, 0) out of range for dims (4, 4)",
            ),
            (
                [((2, 2), (0, 3), 0.3), ((0, 1), (0, 2**70), 0.3)], DimensionMismatch,
                "joint label (0, 1180591620717411303424) out of range for dims (4, 4)",
            ),
            (
                [((2, 2), (0, 3), 0.3), ((3, 3), (0, -(2**64)), 0.3), ((2, 2), (0, 3), 0.3)],
                DimensionMismatch,
                "joint label (0, -18446744073709551616) out of range for dims (4, 4)",
            ),
        ],
        ids=[
            "same-plane", "reversed-plane", "single-state", "not-degenerate", "row-range",
            "column-range", "ok-reuse-range", "ok-range-reuse", "ok-far-single",
            "ok-single-far", "far-before-reuse", "range-before-single", "second-label-range",
            "label-2**63", "label-2**70", "label-minus-1", "ok-column-2**70",
            "ok-range-2**64-reuse",
        ],
    )
    def test_bad_planes_raise_as_before(self, rotations, error, message):
        h_a, h_b = DEMO_SPEC.hamiltonian_a(), DEMO_SPEC.hamiltonian_b()
        with pytest.raises(error) as raised:
            givens_planes(h_a, h_b, rotations)
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_no_rotations_give_empty_planes(self):
        planes = givens_planes(*zero_levels(4, 4), [])
        assert planes.dims == (4, 4)
        for field, dtype in (("u", np.int64), ("v", np.int64), ("phi", float)):
            array = getattr(planes, field)
            assert array.shape == (0,) and array.dtype == dtype, field

    def test_angles_match_per_rotation_cos_and_sin(self):
        # run_exchange takes one np.cos/np.sin over the whole (n, P) angle
        # stack, which gives each angle the bits of its own scalar call
        spec = EntangledThermalSpec(np.arange(64, dtype=float), 0.7, 1.0, 0.5)
        h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
        rng = substream(31, 22)
        rotations = [(*pair, float(rng.uniform(-7.0, 7.0))) for pair in shell_planes(64)]
        planes = givens_planes(h_a, h_b, rotations)
        assert planes.phi.tolist() == [phi for *_, phi in rotations]
        stack = np.vstack([planes.phi, rng.uniform(-7.0, 7.0, (3, planes.phi.size))])
        c, s, _ = exchange_module._plane_gate(dataclasses.replace(planes, phi=stack), h_a, h_b)
        for got, fn in ((c, np.cos), (s, np.sin)):
            want = np.array([[fn(phi) for phi in row] for row in stack.tolist()])
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_dims_must_match_the_case(self):
        planes = givens_planes(*zero_levels(2, 8), [])
        with pytest.raises(DimensionMismatch):
            run_exchange(CaseSpec.case_v(DEMO_SPEC), planes)

    @pytest.mark.parametrize("gap", [2e-10, 9e-10])
    def test_near_degenerate_plane_flag_matches_dense(self, gap):
        # admitted by DEGENERACY_TOL, but a nonzero rotation leaks energy
        # beyond ENERGY_TOL; at phi = 0 it commutes with H
        h_a = HamiltonianSpec(np.array([0.0, 1.0]))
        h_b = HamiltonianSpec(np.array([0.0, 1.0 + gap]))
        case = CaseSpec.case_s(h_a, 1.0, h_b, 0.4)
        for phi, conserving in ((0.9, False), (math.pi / 2, False), (0.0, True)):
            planes = givens_planes(h_a, h_b, [((0, 1), (1, 0), phi)])
            dense = dense_exchange_reference(case, planes_matrix(planes))
            assert run_exchange(case, planes).energy_conserving is conserving
            assert dense["energy_conserving"] is conserving


class TestDephasedTwin:
    """Which correlation carries the heat.  A work-free coupling U commutes
    with H_A + H_B, so tr(U rho U^dag H_A) sees only rho's blocks inside
    the total-energy shells, where V and its dephased twin C = sum_i p_i
    |ii><ii| agree.  What entanglement changes is the entropy: each final
    marginal of C is that of V dephased in the local energy basis."""

    @pytest.mark.parametrize("coupling", ["planes", "shell-haar"])
    def test_same_heat_as_v_other_entropy(self, coupling):
        rng = substream(31, 40, coupling == "planes")
        ds_gaps = []
        for _ in range(100):
            spec = random_entangled_spec(rng, max_dim=6)
            case = CaseSpec.case_v(spec)
            if coupling == "planes":
                u = planes_matrix(random_conserving_planes(case, rng))
            else:
                u = shell_haar_unitary(case, rng)
            v = dense_exchange_reference(case, u)
            c = dense_exchange_reference(case, u, dephased_twin(spec))
            assert abs(v["q_a"] - c["q_a"]) <= 1e-15
            assert abs(v["q_b"] - c["q_b"]) <= 1e-15
            assert abs(v["mutual_info_initial"] - 2 * c["mutual_info_initial"]) <= 1e-12
            ds_gaps.append(v["ds_a"] - c["ds_a"])
        # dephasing cannot lower an entropy, and on most couplings it raises it
        assert max(ds_gaps) <= 1e-12
        assert min(ds_gaps) < -0.1


class TestIdentityGap:
    def test_demo(self):
        case_s = CaseSpec.case_s(DEMO_SPEC.hamiltonian_a(), 1.0, DEMO_SPEC.hamiltonian_b(), 0.5)
        for case in (CaseSpec.case_v(DEMO_SPEC), case_s):
            assert run_exchange(case, demo_planes()).identity_gap <= 1e-9

    def test_random_conserving_unitaries(self):
        rng = substream(31, 13)
        for _ in range(40):
            spec = random_entangled_spec(rng, max_dim=5)
            case_v = CaseSpec.case_v(spec)
            planes = random_conserving_planes(case_v, rng)
            for case in (case_v, random_s_case(spec, rng)):
                assert run_exchange(case, planes).identity_gap <= 1e-9

    @pytest.mark.parametrize("gamma", [0.2, 0.6])
    def test_twenty_four_levels(self, gamma):
        # the benchmark's shape: levels 0..23 on A and 0, 2, ..., 46 on B
        rng = substream(31, 14)
        spec = EntangledThermalSpec(np.arange(24, dtype=float), gamma, 1.0, 0.5)
        case_v = CaseSpec.case_v(spec)
        case_s = CaseSpec.case_s(spec.hamiltonian_a(), spec.beta_a, spec.hamiltonian_b(), spec.beta_b)
        planes = random_conserving_planes(case_v, rng)
        for case in (case_v, case_s):
            report = run_exchange(case, planes)
            assert report.energy_conserving
            assert report.identity_gap <= 1e-9

    def test_forty_levels_at_rounding(self):
        # every disjoint degenerate plane at phi = 0.9: marginal populations
        # fall below 1e-12, the identity still closes to rounding
        spec = EntangledThermalSpec(np.arange(40, dtype=float), 0.7, 1.0, 0.5)
        h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
        rotations = [(first, second, 0.9) for first, second in shell_planes(40)]
        planes = givens_planes(h_a, h_b, rotations)
        case_s = CaseSpec.case_s(h_a, spec.beta_a, h_b, spec.beta_b)
        for case in (CaseSpec.case_v(spec), case_s):
            assert run_exchange(case, planes).identity_gap <= 1e-14

    def test_sixty_four_levels_in_plane_form(self):
        # the CLI's joint-dimension limit, 4096: the identity still closes
        # to rounding
        for case, planes in shell_cases(64):
            report = run_exchange(case, planes)
            assert report.energy_conserving
            assert report.identity_gap <= 1e-14

    def test_gibbs_populations_below_support_floor(self):
        # a population of exp(-40) is indistinguishable from a null space in
        # an eigensolve; the gap is still defined and still closes, on the
        # plane form and, for any unitary, on the dense oracle
        rng = substream(31, 15)
        spec = EntangledThermalSpec(np.arange(6, dtype=float), 8.0, 1.0, 0.5)
        for case in (CaseSpec.case_v(spec), random_s_case(spec, rng)):
            assert run_exchange(case, random_conserving_planes(case, rng)).identity_gap <= 1e-9
            assert dense_exchange_reference(case, haar_unitary(36, rng))["identity_gap"] <= 1e-9


def shell_cases(d: int):
    """Cases V and S on levels 0..d-1 (A) and 0, 2, ... (B) at gamma = 0.7,
    each with every plane of shell_planes(d) rotated by 0.9."""
    spec = EntangledThermalSpec(np.arange(d, dtype=float), 0.7, 1.0, 0.5)
    h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
    rotations = [(first, second, 0.9) for first, second in shell_planes(d)]
    planes = givens_planes(h_a, h_b, rotations)
    case_s = CaseSpec.case_s(h_a, spec.beta_a, h_b, spec.beta_b)
    return [(CaseSpec.case_v(spec), planes), (case_s, planes)]


class TestMacroscopicSize:
    """Both cases at sizes where one D x D array would not fit the test."""

    def test_two_hundred_fifty_six_levels(self):
        # joint dimension 65,536: a D x D complex array would take 69 GB.
        # Each side is its Gibbs populations plus the planes' moves, metered
        # with no complex copy, factorization or state; no S plane shares a
        # label, so S lists the planes' states and no coherence
        for (case, planes), mib in zip(shell_cases(256), (4.0, 4.0)):
            tracemalloc.start()
            try:
                report = run_exchange(case, planes)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report.energy_conserving
            assert report.identity_gap <= 1e-14
            assert peak <= mib * 2**20, case.kind

    @pytest.mark.parametrize("which", [0, 1], ids=["V", "S"])
    def test_sixty_four_levels_allocate_no_joint_matrix(self, which):
        # one 4096 x 4096 complex array is 268 MB
        case, planes = shell_cases(64)[which]
        tracemalloc.start()
        try:
            run_exchange(case, planes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_product_at_a_hundred_thousand_levels(self):
        # joint dimension 10^10, with the d - 1 planes (i, 0)-(0, i) of
        # equal levels on both sides: no plane shares a label, so each side
        # is its populations and the moves of the planes' 2(d - 1) states
        d = 10**5
        h = HamiltonianSpec(np.arange(d, dtype=float))
        i = np.arange(1, d)
        planes = GivensPlanes((d, d), i * d, i, np.full(d - 1, 0.7))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = run_exchange(CaseSpec.case_s(h, 0.8, h, 0.3), planes)
            wall = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.energy_conserving and report.q_a > 0
        assert report.identity_gap <= 1e-12
        assert wall < 1.0
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("kind", ["V", "S"])
    def test_shared_states_found_at_a_hundred_thousand_levels(self, kind):
        # the entry check sorts the 2P states, with no counter per joint
        # state (10^10 of them), and names the smallest shared one
        d = 10**5
        spec = EntangledThermalSpec(np.arange(d, dtype=float), 0.5, 1.0, 1.0)
        h = spec.hamiltonian_a()
        case = CaseSpec.case_v(spec) if kind == "V" else CaseSpec.case_s(h, 0.8, h, 0.3)
        i = np.arange(1, d)
        # the last plane reuses (0, 7) of plane 7 and (20, 0) of plane 20
        u, v = np.append(i * d, 7), np.append(i, 20 * d)
        tracemalloc.start()
        try:
            with pytest.raises(OverlappingPlanes, match=r"share basis state 7$"):
                run_exchange(case, GivensPlanes((d, d), u, v, np.full(d, 0.7)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def stacked_cases():
    """(case, planes) for V and S on the demo plane, on every plane of
    shell_planes(d) at d = 16 and 64, and on the off-shell planes of
    test_non_degenerate_plane_matches_oracle, whose S marginals carry
    coherences on both sides."""
    h_a, h_b = DEMO_SPEC.hamiltonian_a(), DEMO_SPEC.hamiltonian_b()
    demo_s = CaseSpec.case_s(h_a, 1.0, h_b, 0.5)
    u, v = np.array([0, 6, 13]), np.array([5, 14, 15])
    angles = np.array([0.4, 1.1, 2.0])
    off_shell = GivensPlanes((4, 4), u, v, angles)
    out = [
        pytest.param(CaseSpec.case_v(DEMO_SPEC), demo_planes(), id="demo-V"),
        pytest.param(demo_s, demo_planes(), id="demo-S"),
        pytest.param(CaseSpec.case_v(DEMO_SPEC), off_shell, id="off-shell-V"),
        pytest.param(demo_s, off_shell, id="off-shell-S"),
    ]
    for d in (16, 64):
        out += [pytest.param(c, planes, id=f"{d}-{c.kind}") for c, planes in shell_cases(d)]
    return out


# 0 leaves every final marginal diagonal, so it reads its diagonal in a
# stack as it does alone, while the other rows are solved
STACK_ANGLES = np.array([0.0, 0.1, 0.45, 0.9, math.pi / 2, 2.0, -0.7])


class TestStackedAngles:
    """run_exchange on a stack of angle sets gives, for each, the bits of
    the run on that angle set alone."""

    @pytest.mark.parametrize("case, planes", stacked_cases())
    def test_stack_matches_one_angle_runs(self, case, planes):
        stack = run_exchange(case, planes.at_angle(STACK_ANGLES))
        columns = np.asarray(dataclasses.astuple(stack), dtype=float)
        assert columns.shape == (len(dataclasses.fields(stack)), STACK_ANGLES.size)
        for k, phi in enumerate(STACK_ANGLES):
            alone = run_exchange(case, planes.at_angle(phi))
            assert columns[:, k].view(np.int64).tolist() == report_bits(alone), phi

    @pytest.mark.parametrize("case, planes", stacked_cases())
    def test_stack_of_one_is_the_scalar_report(self, case, planes):
        for form, stack in (
            (planes, dataclasses.replace(planes, phi=planes.phi[None])),
            (planes.at_angle(0.37), planes.at_angle(np.array([0.37]))),
        ):
            one, report = run_exchange(case, stack), run_exchange(case, form)
            assert all(type(x) in (float, bool) for x in dataclasses.astuple(report))
            columns = np.asarray(dataclasses.astuple(one), dtype=float)
            assert columns.shape == (len(dataclasses.fields(one)), 1)
            assert columns[:, 0].view(np.int64).tolist() == report_bits(report)


# derandomized, as test_fuzz_config.FUZZ
ANGLE_FUZZ = settings(max_examples=60, derandomize=True, deadline=None)
FINITE_ANGLE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def angle_plane_runs(draw, min_planes=0):
    """(cases, planes): V, S and S at beta_A = beta_B on one random spec,
    and its random_conserving_planes with a drawn angle array of shape (P,)
    or (n, P), every angle finite with |phi| <= 1e6."""
    rng = substream(31, 40, draw(st.integers(0, 2**32 - 1)))
    spec = draw(st.sampled_from([random_entangled_spec, repeated_level_spec]))(rng, max_dim=6)
    case_v = CaseSpec.case_v(spec)
    planes = random_conserving_planes(case_v, rng)
    assume(planes.u.size >= min_planes)
    n = draw(st.sampled_from([None, 1, 2, 5]))
    shape = (planes.u.size,) if n is None else (n, planes.u.size)
    angles = draw(st.lists(FINITE_ANGLE, min_size=math.prod(shape), max_size=math.prod(shape)))
    h_a, h_b = case_v.hamiltonians()
    beta = float(rng.uniform(0.3, 3.0))
    cases = (case_v, random_s_case(spec, rng), CaseSpec.case_s(h_a, beta, h_b, beta))
    return cases, dataclasses.replace(planes, phi=np.reshape(angles, shape))


class TestAnglePlanes:
    """A plane set is its states and its angles: any finite angle gives a
    unitary, and a non-finite one is refused before any cos or sin."""

    @ANGLE_FUZZ
    @given(angle_plane_runs())
    def test_finite_angles_keep_the_identity_and_conserve_energy(self, run):
        cases, planes = run
        for case in cases:
            scale = max(np.abs(h.levels).max() for h in case.hamiltonians())
            report = run_exchange(case, planes)
            gap, leak, conserving = (
                np.atleast_1d(x) for x in (report.identity_gap, report.work_leak,
                                           report.energy_conserving)
            )
            assert np.all(gap <= 1e-12), gap
            assert np.all(np.abs(leak[conserving]) <= 1e-12 * scale), leak

    @ANGLE_FUZZ
    @given(angle_plane_runs(min_planes=1), st.sampled_from([math.nan, math.inf, -math.inf]),
           st.integers(0, 2**16), st.booleans())
    def test_a_non_finite_angle_anywhere_is_refused(self, run, bad, where, via_at_angle):
        cases, planes = run
        if via_at_angle:  # one angle per set, as a --sweep grid
            angles = planes.phi.reshape(-1, planes.u.size)[:, 0].copy()
            angles[where % angles.size] = bad
            planes = planes.at_angle(angles)
        else:
            angles = planes.phi.copy()
            angles.flat[where % angles.size] = bad
            planes = dataclasses.replace(planes, phi=angles)
        for case in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidSpec, match="plane angles must be finite"):
                    run_exchange(case, planes)
