import math

import numpy as np
import pytest

from conftest import ghz_state

from entroflow import (
    AncillaChannel,
    DensityOperator,
    DimensionMismatch,
    HamiltonianSpec,
    NonpositiveBeta,
    TooFewFactors,
    average_correlation_bound,
    check_ssa,
    gibbs_evolution_identity,
    gibbs_state,
    haar_unitary,
    kron,
    random_density,
    relative_entropy,
    substream,
)

QUBIT = HamiltonianSpec(np.array([0.0, 1.0]))


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
        report = check_ssa(DensityOperator(joint, (2, 2, 2)), 0, 1, 2)
        assert abs(report.slack) <= 1e-10
        assert report.passed

    def test_product_slack_is_twice_complement_entropy(self):
        # for rho0 x rho1 x rho2 the inequality's slack is exactly 2 S(rho2)
        rng = substream(21, 0, 1)
        rho = product_qubits(3, rng)
        report = check_ssa(rho, 0, 1, 2)
        from entroflow import marginal, von_neumann_entropy

        s_k = von_neumann_entropy(marginal(rho, 2))
        assert abs(report.slack - 2 * s_k) <= 1e-10

    def test_ghz_saturates(self):
        report = check_ssa(ghz_state(), 0, 1, 2)
        assert abs(report.lhs - 2 * math.log(2)) <= 1e-12
        assert abs(report.rhs - 2 * math.log(2)) <= 1e-12
        assert abs(report.slack) <= 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
    def test_random_ensemble(self, dims):
        rng = substream(21, 1, dims[-1])
        d = int(np.prod(dims))
        for _ in range(250):
            rho = DensityOperator(random_density(d, int(rng.integers(1, d + 1)), rng), dims)
            for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                assert check_ssa(rho, *perm).passed

    def test_rejects_wrong_factor_count(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(DimensionMismatch):
            check_ssa(rho, 0, 1, 2)

    def test_rejects_bad_indices(self):
        rho = DensityOperator(np.eye(8, dtype=complex) / 8, (2, 2, 2))
        with pytest.raises(DimensionMismatch):
            check_ssa(rho, 0, 1, 1)


class TestAverageCorrelationBound:
    def test_product_state(self):
        rho = product_qubits(3, substream(21, 2))
        report = average_correlation_bound(rho)
        assert abs(report.lhs) <= 1e-10
        assert report.rhs > 0
        assert report.passed

    def test_ghz_saturates(self):
        report = average_correlation_bound(ghz_state())
        assert abs(report.lhs - math.log(2)) <= 1e-9
        assert abs(report.rhs - math.log(2)) <= 1e-9
        assert abs(report.slack) <= 1e-9

    def test_random_four_qubit_ensemble(self):
        rng = substream(21, 3)
        for _ in range(100):
            rho = DensityOperator(random_density(16, int(rng.integers(1, 17)), rng), (2, 2, 2, 2))
            assert average_correlation_bound(rho).passed

    def test_too_few_factors(self):
        rho = DensityOperator(np.eye(4, dtype=complex) / 4, (2, 2))
        with pytest.raises(TooFewFactors):
            average_correlation_bound(rho)

    def test_slack_is_half_mean_ssa_slack_for_three_factors(self):
        # summing the three per-pair inequalities double counts both sides,
        # so the aggregate bound's slack is half the mean per-pair slack
        rng = substream(21, 4)
        for _ in range(25):
            rho = DensityOperator(random_density(8, int(rng.integers(1, 9)), rng), (2, 2, 2))
            ssa_slacks = [
                check_ssa(rho, 0, 1, 2).slack,
                check_ssa(rho, 0, 2, 1).slack,
                check_ssa(rho, 1, 2, 0).slack,
            ]
            agg = average_correlation_bound(rho)
            assert abs(agg.slack - np.mean(ssa_slacks) / 2) <= 1e-9


class TestGibbsEvolutionIdentity:
    def test_identity_channel_all_zero(self):
        report = gibbs_evolution_identity(QUBIT, 1.0, AncillaChannel.identity(2), QUBIT)
        assert report.beta_du == 0.0
        assert report.ds == 0.0
        assert abs(report.rhs) <= 1e-12
        assert report.identity_gap <= 1e-12

    def test_haar_channel_ensemble(self):
        # contact with a random ancilla through a Haar unitary, no quench:
        # the heat-only reduction beta*Q - dS >= 0 and the identity both hold
        rng = substream(21, 5)
        for _ in range(200):
            channel = AncillaChannel(
                haar_unitary(4, rng),
                DensityOperator(random_density(2, int(rng.integers(1, 3)), rng), (2,)),
            )
            report = gibbs_evolution_identity(QUBIT, 1.0, channel, QUBIT)
            assert report.identity_gap < 1e-9
            assert report.nonneg_slack >= -1e-10
            # with H_f = H_i the rhs reduces to beta*Q - dS
            assert abs(report.rhs - (report.beta_du - report.ds)) <= 1e-12

    def test_quench_identity_channel(self):
        # doubling the gap at fixed state: the quench term cancels beta*dU
        # exactly and both sides stay zero
        h_f = HamiltonianSpec(np.array([0.0, 2.0]))
        report = gibbs_evolution_identity(QUBIT, 1.0, AncillaChannel.identity(2), h_f)
        rho = gibbs_state(QUBIT, 1.0)
        du = float(np.trace(rho.matrix @ (h_f.matrix() - QUBIT.matrix())).real)
        assert abs(report.beta_du - du) <= 1e-12
        assert abs(report.beta_tr_rhof_dh - du) <= 1e-12
        assert report.identity_gap <= 1e-9
        assert abs(report.rhs) <= 1e-12

    def test_quench_with_unitary_matches_relative_entropy(self):
        rng = substream(21, 6)
        h_f = HamiltonianSpec(np.array([0.0, 2.0]))
        for _ in range(100):
            u = haar_unitary(2, rng)
            channel = AncillaChannel(u, DensityOperator(np.eye(1, dtype=complex), (1,)))
            report = gibbs_evolution_identity(QUBIT, 1.3, channel, h_f)
            rho_i = gibbs_state(QUBIT, 1.3)
            rho_f = DensityOperator(u @ rho_i.matrix @ u.conj().T, (2,))
            assert abs(report.relative_entropy_lhs - relative_entropy(rho_f, rho_i)) <= 1e-12
            assert report.identity_gap < 1e-9
            assert report.nonneg_slack >= -1e-10

    def test_random_beta_quench_channel_ensemble(self):
        rng = substream(21, 7)
        for _ in range(200):
            beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            h_i = HamiltonianSpec(np.sort(rng.uniform(0.0, 1.2, 2)), basis=haar_unitary(2, rng))
            h_f = HamiltonianSpec(np.sort(rng.uniform(0.0, 1.2, 2)), basis=haar_unitary(2, rng))
            channel = AncillaChannel(
                haar_unitary(4, rng),
                DensityOperator(random_density(2, int(rng.integers(1, 3)), rng), (2,)),
            )
            report = gibbs_evolution_identity(h_i, beta, channel, h_f)
            assert report.identity_gap <= 1e-9
            assert report.nonneg_slack >= -1e-10

    def test_gibbs_population_below_support_floor(self):
        # exp(-40) underflows relative_entropy's support floor, yet the
        # divergence is finite and the identity still closes
        h = HamiltonianSpec(np.array([0.0, 40.0]))
        mixed = DensityOperator(np.eye(2, dtype=complex) / 2, (2,))
        channel = AncillaChannel(haar_unitary(4, substream(3, 1)), mixed)
        report = gibbs_evolution_identity(h, 1.0, channel, h)
        assert report.identity_gap <= 1e-9
        assert report.nonneg_slack >= -1e-10

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(NonpositiveBeta):
            gibbs_evolution_identity(QUBIT, 0.0, AncillaChannel.identity(2), QUBIT)

    def test_rejects_dim_mismatch(self):
        h_f = HamiltonianSpec(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(DimensionMismatch):
            gibbs_evolution_identity(QUBIT, 1.0, AncillaChannel.identity(2), h_f)
