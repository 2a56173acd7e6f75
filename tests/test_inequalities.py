import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    gibbs_state,
    haar_unitary,
    identity_channel,
    marginal,
    random_density,
    relative_entropy,
    ghz_state,
    oracle_density,
    oracle_gibbs_evolution,
    oracle_subsystem_entropy,
    to_eigenframe,
)

from entroflow import (
    AncillaChannel,
    DensityOperator,
    DimensionMismatch,
    HamiltonianSpec,
    InvalidSpec,
    InvalidState,
    average_correlation_bound,
    check_ssa,
    dagger,
    gibbs_evolution_identity,
    kron,
    subsystem_entropy,
    substream,
    von_neumann_entropy,
)
from entroflow.qmath import ginibre, random_densities

QUBIT = HamiltonianSpec(np.array([0.0, 1.0]))
QUBIT_H = np.diag(QUBIT.levels)


def product_qubits(n, rng):
    joint = np.array([[1.0 + 0j]])
    for _ in range(n):
        joint = kron(joint, random_density(2, 2, rng))
    return DensityOperator(joint, (2,) * n)


class TestCheckSsa:
    def test_product_saturates_with_pure_complement(self):
        rng = substream(21, 0)
        pure = np.zeros((2, 2), dtype=complex)
        pure[0, 0] = 1.0
        joint = kron(kron(random_density(2, 2, rng), random_density(2, 2, rng)), pure)
        rho = DensityOperator(joint, (2, 2, 2))
        report = check_ssa(rho.matrix, rho.dims, 0, 1, 2)
        assert abs(report.slack) <= 1e-10
        assert report.passed

    def test_product_slack_is_twice_complement_entropy(self):
        # for rho0 x rho1 x rho2 the inequality's slack is exactly 2 S(rho2)
        rng = substream(21, 0, 1)
        rho = product_qubits(3, rng)
        report = check_ssa(rho.matrix, rho.dims, 0, 1, 2)
        s_k = von_neumann_entropy(marginal(rho, 2).matrix)
        assert abs(report.slack - 2 * s_k) <= 1e-10

    def test_ghz_saturates(self):
        ghz = ghz_state()
        report = check_ssa(ghz.matrix, ghz.dims, 0, 1, 2)
        assert abs(report.lhs - 2 * math.log(2)) <= 1e-12
        assert abs(report.rhs - 2 * math.log(2)) <= 1e-12
        assert abs(report.slack) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (3, 2, 4)])
    def test_pure_states_are_an_equality(self, dims):
        # on a pure state S_AC = S_B and S_BC = S_A, so S_A + S_B <= S_AC +
        # S_BC holds with equality: ineq ssa's rank-1 trials (1 + floor(u D)
        # = 1, about 1 in D) test only rounding
        d = math.prod(dims)
        rng = substream(21, 2, d)
        rho = random_densities(ginibre(rng.random((40, 2 * d * d)), d), rng.random(40) / d)
        assert np.allclose(np.trace(rho @ rho, axis1=-2, axis2=-1).real, 1.0, atol=1e-12)
        for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert np.max(np.abs(check_ssa(rho, dims, *perm).slack)) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
    def test_random_ensemble(self, dims):
        rng = substream(21, 1, dims[-1])
        d = int(np.prod(dims))
        for _ in range(250):
            rho = DensityOperator(random_density(d, int(rng.integers(1, d + 1)), rng), dims)
            for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                assert check_ssa(rho.matrix, dims, *perm).passed

    def test_rejects_wrong_factor_count(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(DimensionMismatch):
            check_ssa(rho.matrix, rho.dims, 0, 1, 2)

    def test_rejects_bad_indices(self):
        rho = DensityOperator(np.eye(8, dtype=complex) / 8, (2, 2, 2))
        with pytest.raises(DimensionMismatch):
            check_ssa(rho.matrix, rho.dims, 0, 1, 1)


class TestAverageCorrelationBound:
    def test_product_state(self):
        rho = product_qubits(3, substream(21, 2))
        report = average_correlation_bound(rho.matrix, rho.dims)
        assert abs(report.lhs) <= 1e-10
        assert report.rhs > 0
        assert report.passed

    def test_ghz_saturates(self):
        ghz = ghz_state()
        report = average_correlation_bound(ghz.matrix, ghz.dims)
        assert abs(report.lhs - math.log(2)) <= 1e-9
        assert abs(report.rhs - math.log(2)) <= 1e-9
        assert abs(report.slack) <= 1e-9

    def test_random_four_qubit_ensemble(self):
        rng = substream(21, 3)
        for _ in range(100):
            rho = DensityOperator(random_density(16, int(rng.integers(1, 17)), rng), (2, 2, 2, 2))
            assert average_correlation_bound(rho.matrix, rho.dims).passed

    def test_too_few_factors(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(DimensionMismatch, match="needs >= 3 factors"):
            average_correlation_bound(rho.matrix, rho.dims)

    def test_slack_is_half_mean_ssa_slack_for_three_factors(self):
        # summing the three per-pair inequalities double counts both sides,
        # so the aggregate bound's slack is half the mean per-pair slack
        rng = substream(21, 4)
        for _ in range(25):
            rho = DensityOperator(random_density(8, int(rng.integers(1, 9)), rng), (2, 2, 2))
            ssa_slacks = [
                check_ssa(rho.matrix, rho.dims, 0, 1, 2).slack,
                check_ssa(rho.matrix, rho.dims, 0, 2, 1).slack,
                check_ssa(rho.matrix, rho.dims, 1, 2, 0).slack,
            ]
            agg = average_correlation_bound(rho.matrix, rho.dims)
            assert abs(agg.slack - np.mean(ssa_slacks) / 2) <= 1e-9


class TestGibbsEvolutionIdentity:
    def test_identity_channel_all_zero(self):
        report = gibbs_evolution_identity(QUBIT, 1.0, identity_channel(2), QUBIT_H)
        assert report.beta_du == 0.0
        assert report.ds == 0.0
        assert abs(report.rhs) <= 1e-12
        assert report.identity_gap <= 1e-12

    def test_haar_channel_ensemble(self):
        # contact with a random ancilla through a Haar unitary, no quench:
        # the heat-only reduction beta*Q - dS >= 0 and the identity both hold
        rng = substream(21, 5)
        for _ in range(200):
            ancilla = DensityOperator(random_density(2, int(rng.integers(1, 3)), rng), (2,))
            channel = AncillaChannel(haar_unitary(4, rng), ancilla.matrix)
            report = gibbs_evolution_identity(QUBIT, 1.0, channel, QUBIT_H)
            assert report.identity_gap < 1e-9
            assert report.rhs >= -1e-10
            # with H_f = H_i the rhs reduces to beta*Q - dS
            assert abs(report.rhs - (report.beta_du - report.ds)) <= 1e-12

    def test_quench_identity_channel(self):
        # doubling the gap at fixed state: the quench term cancels beta*dU
        # exactly and both sides stay zero
        h_f = np.diag([0.0, 2.0])
        report = gibbs_evolution_identity(QUBIT, 1.0, identity_channel(2), h_f)
        rho = gibbs_state(QUBIT, 1.0)
        du = float(np.trace(rho @ (h_f - QUBIT_H)).real)
        assert abs(report.beta_du - du) <= 1e-12
        assert abs(report.beta_tr_rhof_dh - du) <= 1e-12
        assert report.identity_gap <= 1e-9
        assert abs(report.rhs) <= 1e-12

    def test_quench_with_unitary_matches_relative_entropy(self):
        rng = substream(21, 6)
        h_f = np.diag([0.0, 2.0])
        for _ in range(100):
            u = haar_unitary(2, rng)
            channel = AncillaChannel(u, np.eye(1, dtype=complex))
            report = gibbs_evolution_identity(QUBIT, 1.3, channel, h_f)
            rho_i = DensityOperator(gibbs_state(QUBIT, 1.3), (2,))
            rho_f = DensityOperator(u @ rho_i.matrix @ u.conj().T, (2,))
            assert abs(report.relative_entropy_lhs - relative_entropy(rho_f, rho_i)) <= 1e-12
            assert report.identity_gap < 1e-9
            assert report.rhs >= -1e-10

    def test_random_beta_quench_channel_ensemble(self):
        # a rotated H_i = B_i diag(E_i) B_i^dag, passed in its eigenframe:
        # every field agrees with the oracle in the original frame
        rng = substream(21, 7)
        for _ in range(200):
            beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            levels_i, basis_i = np.sort(rng.uniform(0.0, 1.2, 2)), haar_unitary(2, rng)
            levels_f, basis_f = np.sort(rng.uniform(0.0, 1.2, 2)), haar_unitary(2, rng)
            ancilla = DensityOperator(random_density(2, int(rng.integers(1, 3)), rng), (2,))
            unitary = haar_unitary(4, rng)
            h_f, u = to_eigenframe(basis_i, levels_f, basis_f, unitary, 2)
            report = gibbs_evolution_identity(
                HamiltonianSpec(levels_i), beta, AncillaChannel(u, ancilla.matrix), h_f
            )
            want = oracle_gibbs_evolution(
                levels_i, basis_i, beta, unitary, ancilla.matrix, levels_f, basis_f
            )
            for field, value in want.items():
                assert abs(getattr(report, field) - value) <= 1e-12, field
            assert report.identity_gap <= 1e-9
            assert report.rhs >= -1e-10

    def test_gibbs_population_below_support_floor(self):
        # a population of exp(-40) is indistinguishable from a null space in
        # an eigensolve, yet the divergence is finite and the identity still
        # closes
        h = HamiltonianSpec(np.array([0.0, 40.0]))
        mixed = np.eye(2, dtype=complex) / 2
        channel = AncillaChannel(haar_unitary(4, substream(3, 1)), mixed)
        report = gibbs_evolution_identity(h, 1.0, channel, np.diag(h.levels))
        assert report.identity_gap <= 1e-9
        assert report.rhs >= -1e-10

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(InvalidSpec, match="beta must be finite and positive"):
            gibbs_evolution_identity(QUBIT, 0.0, identity_channel(2), QUBIT_H)

    def test_rejects_dim_mismatch(self):
        h_f = np.diag([0.0, 1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            gibbs_evolution_identity(QUBIT, 1.0, identity_channel(2), h_f)


def random_stack(d: int, n: int, rng) -> np.ndarray:
    """n random density matrices of dimension d, of random ranks."""
    return np.stack([random_density(d, int(rng.integers(1, d + 1)), rng) for _ in range(n)])


# (factor dims, kept factors): every matrix size from 2x2 to 16x16
STACK_CASES = [
    ((2,), [0]),
    ((3,), [0]),
    ((2, 2), [1]),
    ((5,), [0]),
    ((2, 3), [0]),
    ((7,), [0]),
    ((2, 2, 2), [0, 2]),
    ((3, 3), [1]),
    ((2, 5), [0]),
    ((11,), [0]),
    ((3, 4), [1]),
    ((13,), [0]),
    ((2, 7), [1]),
    ((3, 5), [0]),
    ((2, 2, 2, 2), [1, 3]),
]


class TestStackedKernel:
    """The stacked validator, entropies and eq2 kernel against a loop of
    the per-state arithmetic (tests/conftest.py oracles)."""

    @pytest.mark.parametrize("dims, keep", STACK_CASES)
    def test_validator_and_entropies_match_per_state_loop(self, dims, keep):
        d = math.prod(dims)
        mats = random_stack(d, 12, substream(22, d))
        stack = DensityOperator(mats, dims)
        entropies = subsystem_entropy(stack.matrix, dims, keep)
        for t, mat in enumerate(mats):
            want_sym, want_lam = oracle_density(mat)
            assert np.max(np.abs(stack.matrix[t] - want_sym)) <= 1e-14
            assert np.max(np.abs(stack.spectrum[t] - want_lam)) <= 1e-14
            assert abs(entropies[t] - oracle_subsystem_entropy(want_sym, dims, keep)) <= 1e-14

    @pytest.mark.parametrize("d_sys, d_anc", [(2, 1), (2, 2), (3, 2), (2, 4), (4, 3), (8, 2)])
    def test_eq2_kernel_matches_per_state_loop(self, d_sys, d_anc):
        # rotated H_i stacks, passed in their eigenframes, against the
        # oracle of each trial in its original frame
        rng = substream(22, 100 + d_sys, d_anc)
        n = 10
        beta = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        levels_i, levels_f = (np.sort(rng.uniform(0.0, 1.2, (n, d_sys)), axis=-1) for _ in range(2))
        basis_i, basis_f = (
            np.stack([haar_unitary(d_sys, rng) for _ in range(n)]) for _ in range(2)
        )
        unitary = np.stack([haar_unitary(d_sys * d_anc, rng) for _ in range(n)])
        ancilla = random_stack(d_anc, n, rng)
        h_f, u = to_eigenframe(basis_i, levels_f, basis_f, unitary, d_anc)
        report = gibbs_evolution_identity(
            HamiltonianSpec(levels_i),
            beta,
            AncillaChannel(u, DensityOperator(ancilla, (d_anc,)).matrix),
            h_f,
        )
        for t in range(n):
            want = oracle_gibbs_evolution(
                levels_i[t], basis_i[t], beta[t], unitary[t], ancilla[t], levels_f[t], basis_f[t]
            )
            for field, value in want.items():
                assert abs(getattr(report, field)[t] - value) <= 1e-12, field

    def test_eq2_solves_the_final_states_alone(self, eigensolve_shapes):
        # rho_i = diag(p) in H_i's eigenbasis: its entropy, energy and ln Z
        # are read off p, so a stack makes one eigvalsh, of the final
        # states, and one trial one of its final state
        rng = substream(22, 200)
        n, d_sys, d_anc = 5, 3, 2
        levels_i, levels_f = (np.sort(rng.uniform(0.0, 1.2, (n, d_sys)), axis=-1) for _ in range(2))
        basis_f = np.stack([haar_unitary(d_sys, rng) for _ in range(n)])
        h_i, h_f = HamiltonianSpec(levels_i), (basis_f * levels_f[:, None]) @ dagger(basis_f)
        unitary = np.stack([haar_unitary(d_sys * d_anc, rng) for _ in range(n)])
        channel = AncillaChannel(unitary, random_stack(d_anc, n, rng))
        beta = np.exp(rng.uniform(np.log(0.1), np.log(10.0), n))
        stacked = gibbs_evolution_identity(h_i, beta, channel, h_f)
        assert eigensolve_shapes == [(n, d_sys, d_sys)]
        one = AncillaChannel(unitary[0], channel.ancilla[0])
        single = gibbs_evolution_identity(HamiltonianSpec(levels_i[0]), float(beta[0]), one, h_f[0])
        assert eigensolve_shapes[1:] == [(d_sys, d_sys)]
        assert all(type(x) is float for x in dataclasses.astuple(single))
        assert max(single.identity_gap, stacked.identity_gap[0]) <= 1e-14

    def test_single_state_is_a_stack_of_one(self):
        # the one-state API runs the stacked code: its report is the stack's
        mats = random_stack(8, 5, substream(22, 8, 1))
        stacked = check_ssa(DensityOperator(mats, (2, 2, 2)).matrix, (2, 2, 2), 0, 1, 2)
        for t, mat in enumerate(mats):
            single = check_ssa(DensityOperator(mat, (2, 2, 2)).matrix, (2, 2, 2), 0, 1, 2)
            assert type(single.slack) is float and type(single.passed) is bool
            assert single.slack == stacked.slack[t]

    @pytest.mark.parametrize("defect", ["non-hermitian", "negative", "trace"])
    def test_one_bad_matrix_fails_the_stack_like_it_fails_alone(self, defect):
        mats = random_stack(4, 5, substream(22, 4, 2))
        bad = mats[2].copy()
        if defect == "non-hermitian":
            bad[0, 1] += 1e-3
        elif defect == "negative":
            bad = np.diag([0.6, 0.5, 0.1, -0.2]).astype(complex)
        else:
            bad *= 1.01
        mats[2] = bad
        with pytest.raises(InvalidState) as alone:
            DensityOperator(bad, (2, 2))
        with pytest.raises(InvalidState) as stacked:
            DensityOperator(mats, (2, 2))
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
        kind = {"non-hermitian": "not Hermitian", "negative": "negative", "trace": "trace"}
        assert str(alone.value).startswith(kind[defect])

    def test_nan_entry_is_refused(self):
        # every comparison with NaN is false, and eigvalsh returns finite
        # eigenvalues for a NaN matrix: only "not within tolerance" catches it
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 0] = np.nan
        with pytest.raises(InvalidState):
            DensityOperator(mat, (2,))
        levels = np.zeros((3, 2))
        levels[1, 1] = np.nan
        with pytest.raises(InvalidSpec):
            HamiltonianSpec(levels)


class TestExactlyHermitian:
    """Each state the library forms for the checks, which trust it without
    validation, equals its conjugate transpose exactly (the sign of a zero
    imaginary part aside, which conjugation flips): (M + M^dag) / 2 is
    taken where it is formed."""

    @staticmethod
    def assert_exactly_hermitian(stack):
        assert np.array_equal(stack, dagger(stack))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_random_densities_of_a_qubit(self, rank):
        # the 2 x 2 Gram products of the eq2 ancillas are not exactly
        # Hermitian before the symmetrization
        u = substream(24, rank).random((200, 8))
        self.assert_exactly_hermitian(random_densities(ginibre(u, 2), np.full(200, (rank - 0.5) / 2)))

    @pytest.mark.parametrize("d_sys, d_anc", [(2, 2), (3, 2), (2, 3)])
    def test_ancilla_channel_output(self, d_sys, d_anc):
        rng = substream(24, 4, d_sys, d_anc)
        n = 50
        unitary = np.stack([haar_unitary(d_sys * d_anc, rng) for _ in range(n)])
        rho = random_stack(d_sys, n, rng)
        ancilla = random_stack(d_anc, n, rng)
        self.assert_exactly_hermitian(AncillaChannel(unitary, ancilla).apply(rho))
