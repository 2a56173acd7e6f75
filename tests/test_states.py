import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import (
    bell_state,
    entangled_thermal_state,
    ghz_state,
    gibbs_state,
    haar_unitary,
    marginal,
    oracle_entropy,
    random_density,
    random_pure,
    relative_entropy,
)

from entroflow import (
    DensityOperator,
    DimensionMismatch,
    EntangledThermalSpec,
    HamiltonianSpec,
    InvalidSpec,
    InvalidState,
    dagger,
    gibbs_divergence,
    gibbs_populations,
    kron,
    partial_trace,
    subsystem_entropy,
    substream,
    von_neumann_entropy,
)
from entroflow.states import STATE_TOL, spectral_entropy

QUBIT = HamiltonianSpec(np.array([0.0, 1.0]))
LADDER4 = HamiltonianSpec(np.array([0.0, 1.0, 2.0, 3.0]))


def entropy_from_probs(p):
    return -sum(q * math.log(q) for q in p if q > 0)


def mean_energy(matrix, h):
    """tr(rho H) from the d x d matrix of H."""
    return float(np.trace(matrix @ np.diag(h.levels)).real)


def mutual_information(rho, i, j):
    """I(i:j) = S_i + S_j - S_ij of two factors, from subsystem_entropy."""
    m, dims = rho.matrix, rho.dims
    return subsystem_entropy(m, dims, [i]) + subsystem_entropy(m, dims, [j]) - subsystem_entropy(m, dims, [i, j])


class TestGibbsState:
    def test_infinite_temperature_limit(self):
        rho = gibbs_state(QUBIT, 1e-12)
        assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-9

    def test_qubit_populations(self):
        # scalar oracle: p0 = 1/(1 + e^-1)
        rho = gibbs_state(QUBIT, 1.0)
        p0 = 1.0 / (1.0 + math.exp(-1.0))
        assert abs(rho[0, 0].real - p0) < 1e-4
        assert abs(rho[1, 1].real - (1 - p0)) < 1e-4

    def test_four_level_partition_function(self):
        # scalar oracle: Z = sum_i e^-i = 1.5530..., the inverse of the
        # ground population, whose weight is 1
        z_oracle = sum(math.exp(-i) for i in range(4))
        assert abs(1.0 / gibbs_populations(LADDER4, 1.0)[0] - z_oracle) < 1e-4
        assert abs(z_oracle - 1.5530) < 1e-4

    def test_commutes_and_populations_decrease(self):
        rho = gibbs_state(LADDER4, 0.7)
        h = np.diag(LADDER4.levels)
        assert np.max(np.abs(rho @ h - h @ rho)) < 1e-12
        pops = np.diag(rho).real
        assert np.all(np.diff(pops) < 0)

    def test_rotated_basis(self):
        # the Gibbs state of B diag(E) B^dag is B gibbs_state B^dag: with B
        # the Hadamard and E = (0, 1), H = (1 - X) / 2, whose exp(-beta H)/Z
        # is (1 + tanh(beta / 2) X) / 2 in closed form
        basis = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        rho = basis @ gibbs_state(QUBIT, 2.0) @ basis.conj().T
        half = math.tanh(1.0) / 2
        assert np.max(np.abs(rho - np.array([[0.5, half], [half, 0.5]]))) <= 1e-15
        hm = (basis * QUBIT.levels) @ basis.conj().T
        assert np.max(np.abs(rho @ hm - hm @ rho)) < 1e-12

    def test_nonpositive_beta(self):
        with pytest.raises(InvalidSpec, match="beta must be finite and positive"):
            gibbs_state(QUBIT, 0.0)
        with pytest.raises(InvalidSpec, match="beta must be finite and positive"):
            gibbs_state(QUBIT, -1.0)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        proj = np.zeros((3, 3), dtype=complex)
        proj[0, 0] = 1.0
        assert von_neumann_entropy(DensityOperator(proj, (3,)).matrix) == 0.0

    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(2, dtype=complex) / 2, (2,))
        assert abs(von_neumann_entropy(rho.matrix) - math.log(2)) < 1e-12

    def test_gibbs_qubit_value(self):
        # scalar oracle from the two populations
        p0 = 1.0 / (1.0 + math.exp(-1.0))
        oracle = entropy_from_probs([p0, 1 - p0])
        got = von_neumann_entropy(gibbs_state(QUBIT, 1.0))
        assert abs(got - oracle) < 1e-12
        assert abs(got - 0.5822) < 1e-3

    def test_range(self):
        rng = substream(11, 0)
        for _ in range(20):
            rho = DensityOperator(random_density(5, int(rng.integers(1, 6)), rng), (5,))
            s = von_neumann_entropy(rho.matrix)
            assert -1e-12 <= s <= math.log(5) + 1e-9


class TestRelativeEntropy:
    """The dense relative-entropy oracle of conftest, on which every
    gibbs_divergence equality below rests."""

    def test_self_is_zero(self):
        rho = DensityOperator(random_density(4, 4, substream(11, 1)), (4,))
        assert abs(relative_entropy(rho, rho)) <= 1e-10

    def test_pure_vs_maximally_mixed(self):
        proj = np.zeros((2, 2), dtype=complex)
        proj[0, 0] = 1.0
        rho = DensityOperator(proj, (2,))
        sigma = DensityOperator(np.eye(2, dtype=complex) / 2, (2,))
        assert abs(relative_entropy(rho, sigma) - math.log(2)) < 1e-12

    def test_matches_spectral_double_sum_oracle(self):
        rng = substream(11, 2)
        rho = DensityOperator(random_density(4, 4, rng), (4,))
        sigma = DensityOperator(random_density(4, 4, rng), (4,))
        # oracle: sum_i r_i ln r_i - sum_ij r_i |<r_i|s_j>|^2 ln s_j
        r, vr = np.linalg.eigh(rho.matrix)
        s, vs = np.linalg.eigh(sigma.matrix)
        overlap = np.abs(vr.conj().T @ vs) ** 2
        r = np.clip(r, 1e-300, None)
        oracle = float((r * np.log(r)).sum() - (r[:, None] * overlap * np.log(s)[None, :]).sum())
        assert abs(relative_entropy(rho, sigma) - oracle) <= 1e-9

    def test_nonnegative(self):
        rng = substream(11, 3)
        for _ in range(50):
            rho = DensityOperator(random_density(3, int(rng.integers(1, 4)), rng), (3,))
            sigma = DensityOperator(random_density(3, 3, rng), (3,))
            assert relative_entropy(rho, sigma) >= -1e-10

    def test_gibbs_identity(self):
        # S(rho || gibbs) = beta <H>_rho - S(rho) + ln Z, and gibbs_divergence
        # is that value
        rng = substream(11, 4)
        beta = 1.3
        sigma = DensityOperator(gibbs_state(LADDER4, beta), (4,))
        lnz = math.log(sum(math.exp(-beta * e) for e in LADDER4.levels))
        for _ in range(25):
            rho = DensityOperator(random_density(4, int(rng.integers(1, 5)), rng), (4,))
            energy = mean_energy(rho.matrix, LADDER4)
            s = von_neumann_entropy(rho.matrix)
            oracle = beta * energy - s + lnz
            assert abs(relative_entropy(rho, sigma) - oracle) <= 1e-9
            got = gibbs_divergence(energy, s, LADDER4, beta, gibbs_populations(LADDER4, beta))
            assert abs(got - relative_entropy(rho, sigma)) <= 1e-9


class TestGibbsDivergence:
    def test_equals_relative_entropy_on_full_support(self):
        # two evaluations of one quantity: the exact Gibbs form here, the
        # matrix logarithms of the dense oracle there
        rng = substream(11, 5)
        sigma = DensityOperator(gibbs_state(LADDER4, 1.3), (4,))
        p = gibbs_populations(LADDER4, 1.3)
        for _ in range(10):
            rho = DensityOperator(random_density(4, int(rng.integers(1, 5)), rng), (4,))
            expected = relative_entropy(rho, sigma)
            got = gibbs_divergence(
                mean_energy(rho.matrix, LADDER4), von_neumann_entropy(rho.matrix), LADDER4, 1.3, p
            )
            assert abs(got - expected) <= 1e-13

    def test_population_below_support_floor(self):
        # a population of exp(-40) is indistinguishable from a null space in
        # an eigensolve of gamma; the Gibbs form beta <H> + ln Z - S stays
        # exact
        h = HamiltonianSpec(np.array([0.0, 40.0]))
        rho = np.eye(2, dtype=complex) / 2
        oracle = 20.0 + math.log1p(math.exp(-40.0)) - math.log(2)
        p = gibbs_populations(h, 1.0)
        got = gibbs_divergence(mean_energy(rho, h), von_neumann_entropy(rho), h, 1.0, p)
        assert abs(got - oracle) <= 1e-12

    def test_population_underflowing_to_zero_is_exact(self):
        # exp(-800) is exactly 0.0 in double precision, yet ln gamma =
        # -beta H - ln Z stays exact: gamma is never formed
        h = HamiltonianSpec(np.array([0.0, 800.0]))
        p = gibbs_populations(h, 1.0)
        assert p[1] == 0.0
        rho = np.eye(2, dtype=complex) / 2
        got = gibbs_divergence(mean_energy(rho, h), von_neumann_entropy(rho), h, 1.0, p)
        assert got == 400.0 - math.log(2)

    def test_gibbs_state_is_at_rounding_from_itself(self):
        # the energy and entropy of gamma, read off its populations, give
        # D(gamma || gamma) = 0 to rounding, one entry per stacked state
        levels = np.array([[0.0, 1.0, 2.0, 3.0], [-1.0, 0.5, 0.5, 7.0]])
        beta = np.array([1.3, 0.2])
        h = HamiltonianSpec(levels)
        p = gibbs_populations(h, beta)
        got = gibbs_divergence((p * levels).sum(-1), spectral_entropy(p), h, beta, p)
        assert got.shape == (2,) and np.all(np.abs(got) <= 1e-15)
        lone = gibbs_divergence((p[0] * levels[0]).sum(), spectral_entropy(p[0]), LADDER4, 1.3, p[0])
        assert isinstance(lone, float) and lone == got[0]

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_refuses_a_beta_that_is_not_positive_and_finite(self, beta):
        # the row given cannot stand in for the check of beta
        with pytest.raises(InvalidSpec, match="beta must be finite and positive"):
            gibbs_divergence(1.0, 0.0, LADDER4, beta, np.full(4, 0.25))


class TestMutualInformation:
    def test_product_state_zero(self):
        rng = substream(11, 5)
        joint = kron(random_density(2, 2, rng), random_density(3, 3, rng))
        rho = DensityOperator(joint, (2, 3))
        assert abs(mutual_information(rho, 0, 1)) <= 1e-10

    def test_bell_pair(self):
        assert abs(mutual_information(bell_state(), 0, 1) - 2 * math.log(2)) < 1e-12

    def test_ghz_pair_via_marginal_oracle(self):
        # explicit two-qubit marginal of GHZ: (|00><00| + |11><11|)/2
        marg = np.zeros((4, 4), dtype=complex)
        marg[0, 0] = marg[3, 3] = 0.5
        s_pair = entropy_from_probs([0.5, 0.5])
        s_single = entropy_from_probs([0.5, 0.5])
        oracle = 2 * s_single - s_pair  # = ln 2
        got = mutual_information(ghz_state(), 0, 1)
        assert abs(got - oracle) <= 1e-9
        assert abs(got - math.log(2)) <= 1e-9
        reduced = marginal(ghz_state(), [0, 1])
        assert np.allclose(reduced.matrix, marg, atol=1e-12)

    def test_bounds(self):
        rng = substream(11, 6)
        for _ in range(30):
            rho = DensityOperator(random_density(6, int(rng.integers(1, 7)), rng), (2, 3))
            mi = mutual_information(rho, 0, 1)
            s_a = von_neumann_entropy(marginal(rho, 0).matrix)
            s_b = von_neumann_entropy(marginal(rho, 1).matrix)
            assert mi >= -1e-9
            assert mi <= 2 * min(s_a, s_b) + 1e-9


class TestStoredSpectrum:
    def test_spectrum_is_solved_at_validation_and_kept(self, eigensolves):
        # validation makes the one eigensolve and keeps it: a read solves nothing
        mat = random_density(6, 3, substream(11, 11))
        rho = DensityOperator(mat, (2, 3))
        assert eigensolves == [6]
        spectrum = rho.spectrum
        assert rho.spectrum is spectrum
        assert eigensolves == [6]
        assert np.array_equal(spectrum, np.linalg.eigvalsh(rho.matrix))
        # a lone state has the bits it has in a stack
        stacked = DensityOperator(np.stack([mat, mat]), (2, 3)).spectrum
        for row in stacked:
            assert np.array_equal(row.view(np.int64), spectrum.view(np.int64))

    def test_each_entropy_is_one_eigensolve_of_its_matrix(self, eigensolves):
        rho = DensityOperator(random_density(6, 3, substream(11, 11)), (2, 3))
        assert eigensolves == [6]  # validation's, kept as rho.spectrum
        del eigensolves[:]
        s = von_neumann_entropy(rho.matrix)
        assert eigensolves == [6]
        assert s == spectral_entropy(rho.spectrum)
        del eigensolves[:]
        # with every factor kept, in any order, the reduced matrix is the
        # state itself, with the same bits
        assert subsystem_entropy(rho.matrix, rho.dims, [1, 0]) == s
        subsystem_entropy(rho.matrix, rho.dims, [0])
        subsystem_entropy(rho.matrix, rho.dims, [1])
        assert eigensolves == [6, 2, 3]

    @pytest.mark.parametrize("d", [2, 3, 16, 64, 256])
    def test_diagonal_stack_spectrum_is_its_sorted_diagonal(self, d, eigensolves):
        # zeros and repeated populations included; validation makes one
        # eigensolve of the stack, diagonal or not, and eigvalsh of the stack
        # has the bits of its sorted diagonal, which the exchange meter reads
        # in its place
        rng = substream(11, 15, d)
        pops = rng.uniform(0.0, 1.0, (3, d))
        pops[:, ::3] = 0.0
        pops[1] = pops[1, 1]
        pops /= pops.sum(-1, keepdims=True)
        mats = np.zeros((3, d, d), dtype=complex)
        mats[:, np.arange(d), np.arange(d)] = pops
        rho = DensityOperator(mats, (d,))
        assert eigensolves == [d]
        want = np.linalg.eigvalsh(rho.matrix)
        assert np.array_equal(rho.spectrum.view(np.int64), want.view(np.int64))
        for lam in (want, np.linalg.eigvalsh(mats.real)):  # complex and real stacks
            assert np.array_equal(np.sort(pops, axis=-1).view(np.int64), lam.view(np.int64))
        # the unsorted diagonal, zeros in place, gives the spectrum's entropy
        assert np.max(np.abs(spectral_entropy(pops) - von_neumann_entropy(rho.matrix))) <= 1e-15

    def test_one_off_diagonal_entry_takes_the_eigensolve(self, eigensolves):
        # a diagonal state in a stack with a dense one keeps its lone bits;
        # the stack is one eigensolve, made at validation
        diag = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        dense = random_density(4, 4, substream(11, 16))
        stack = DensityOperator(np.stack([diag, dense]), (4,))
        assert eigensolves == [4]
        assert stack.spectrum.shape == (2, 4)
        assert eigensolves == [4]
        for t, mat in enumerate((diag, dense)):
            alone = DensityOperator(mat, (4,)).spectrum
            assert np.array_equal(stack.spectrum[t].view(np.int64), alone.view(np.int64))

    def test_spectrum_is_read_only_and_not_an_argument(self):
        rho = bell_state()
        with pytest.raises(ValueError):
            rho.spectrum[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.spectrum = np.zeros(4)
        with pytest.raises(TypeError):
            DensityOperator(rho.matrix, rho.dims, spectrum=rho.spectrum)
        assert "spectrum" not in repr(rho)
        assert [f.name for f in dataclasses.fields(rho) if f.compare] == ["matrix", "dims"]


class TestSpectralEntropy:
    def test_any_order_with_zeros_and_rounding_noise(self):
        # exact zeros and +-1e-17 entries at random positions of unsorted
        # population rows: each row has the entropy of its sorted positive
        # entries, and the bits it has alone
        rng = substream(11, 24)
        for _ in range(500):
            d, n = int(rng.integers(2, 41)), int(rng.integers(1, 9))
            lam = rng.uniform(0.0, 1.0, (n, d))
            lam[rng.uniform(size=(n, d)) < 0.3] = 0.0
            lam[np.arange(n), rng.integers(0, d, n)] = 1.0
            lam /= lam.sum(-1, keepdims=True)
            noise = rng.uniform(size=(n, d)) < 0.2
            lam[noise] = rng.choice([-1e-17, 1e-17], size=int(noise.sum()))
            got = spectral_entropy(lam)
            for row, value in zip(lam, got):
                # summed in another order: within a few ulps of up to ln 40
                assert abs(value - oracle_entropy(np.sort(row))) <= 1e-15 * max(1.0, value)
                alone = np.float64(spectral_entropy(row))
                assert alone.view(np.int64) == value.view(np.int64)

    def test_nan_entry_gives_nan(self):
        for row in ([np.nan, 0.5, 0.5], [0.5, 0.0, np.nan], [np.nan, 0.0]):
            assert math.isnan(spectral_entropy(np.array(row)))
        got = spectral_entropy(np.array([[0.5, np.nan, 0.5], [0.5, 0.0, 0.5]]))
        assert math.isnan(got[0]) and abs(got[1] - math.log(2)) <= 1e-16


class TestSubsystemEntropy:
    def test_matches_marginal_entropy(self):
        rng = substream(11, 12)
        rho = DensityOperator(random_density(12, 5, rng), (2, 3, 2))
        for keep in ([0], [1], [2], [0, 2], [2, 1], [0, 1, 2]):
            got = subsystem_entropy(rho.matrix, rho.dims, keep)
            assert got == von_neumann_entropy(marginal(rho, keep).matrix)

    def test_ghz_values(self):
        ghz = ghz_state()
        assert abs(subsystem_entropy(ghz.matrix, ghz.dims, [0]) - math.log(2)) <= 1e-12
        assert abs(subsystem_entropy(ghz.matrix, ghz.dims, [0, 1]) - math.log(2)) <= 1e-12
        assert subsystem_entropy(ghz.matrix, ghz.dims, [0, 1, 2]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 3, 3, 2), (5, 7)])
    def test_reduced_states_of_a_stored_stack_are_exactly_hermitian(self, dims):
        # why subsystem_entropy hands each reduced matrix to eigvalsh as is:
        # the stored stack is exactly Hermitian and partial_trace keeps it so,
        # so re-symmetrizing would change no bit
        rng = substream(11, 13)
        total = math.prod(dims)
        mats = [random_density(total, int(rng.integers(1, total + 1)), rng) for _ in range(64)]
        rho = DensityOperator(np.stack(mats), dims)
        assert np.array_equal(rho.matrix, dagger(rho.matrix))
        for size in range(1, len(dims)):
            for keep in itertools.combinations(range(len(dims)), size):
                reduced = partial_trace(rho.matrix, dims, keep)
                assert np.array_equal(reduced, dagger(reduced)), keep
                symmetrized = np.linalg.eigvalsh((reduced + dagger(reduced)) / 2)
                got = subsystem_entropy(rho.matrix, dims, keep)
                assert got.view(np.int64).tolist() == spectral_entropy(symmetrized).view(np.int64).tolist()

    @pytest.mark.parametrize("keep", [[], [3], [-1]])
    def test_rejects_bad_factor_lists(self, keep):
        with pytest.raises(DimensionMismatch):
            ghz = ghz_state()
            subsystem_entropy(ghz.matrix, ghz.dims, keep)


class TestProductEntropy:
    """The entropy of a product state is the sum of its factors' entropies:
    the joint entropy of exchange case S, which forms no joint matrix."""

    @pytest.mark.parametrize(
        "beta", [0.3, 0.6], ids=["products-above-1e-12", "products-below-1e-12"]
    )
    def test_matches_joint_eigensolve(self, beta):
        # at beta 0.6 some products of the two 24-level spectra fall below
        # 1e-12, where the joint eigensolve's rounding noise is of their
        # size; every positive eigenvalue counts on both paths
        h_a = HamiltonianSpec(np.arange(24, dtype=float))
        h_b = HamiltonianSpec(2.0 * np.arange(24))
        g_a, g_b = gibbs_state(h_a, beta), gibbs_state(h_b, beta / 2)
        joint = DensityOperator(kron(g_a, g_b), (24, 24))
        total = von_neumann_entropy(g_a) + von_neumann_entropy(g_b)
        assert abs(total - von_neumann_entropy(joint.matrix)) <= 1e-13

    def test_three_factors_and_single(self):
        rng = substream(11, 13)
        states = [DensityOperator(random_density(d, d, rng), (d,)) for d in (2, 3, 2)]
        joint = DensityOperator(kron(kron(states[0].matrix, states[1].matrix), states[2].matrix), (2, 3, 2))
        total = sum(von_neumann_entropy(rho.matrix) for rho in states)
        assert abs(total - von_neumann_entropy(joint.matrix)) <= 1e-12
        # a single factor: the product with a pure state adds nothing
        pure = DensityOperator(np.diag([1.0, 0.0]).astype(complex), (2,))
        alone = DensityOperator(kron(states[1].matrix, pure.matrix), (3, 2))
        assert abs(von_neumann_entropy(alone.matrix) - von_neumann_entropy(states[1].matrix)) <= 1e-12


class TestGibbsPopulations:
    def test_diagonal_of_gibbs_state(self):
        h = HamiltonianSpec(np.array([0.0, 0.5, 2.0]))
        p = gibbs_populations(h, 1.3)
        assert abs(p.sum() - 1.0) <= 1e-15
        assert np.array_equal(np.diag(gibbs_state(h, 1.3)).real, p)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(InvalidSpec, match="beta must be finite and positive"):
            gibbs_populations(QUBIT, 0.0)

    @pytest.mark.parametrize(
        "beta",
        [math.inf, math.nan, "1", True, 10**400, np.array([1.0, math.inf]), ["1", "2"]],
        ids=["inf", "nan", "string", "true", "beyond-float", "inf-in-array", "string-array"],
    )
    def test_rejects_non_finite_or_non_numeric_beta(self, beta):
        # an infinite beta used to give NaN populations, and a string was read as a number
        with pytest.raises(InvalidSpec, match="beta must be finite and positive"):
            gibbs_populations(QUBIT, beta)


class TestEntangledThermalState:
    def test_small_gamma_is_maximally_entangled(self):
        spec = EntangledThermalSpec(np.array([0.0, 1.0]), 1e-12, 1.0, 1.0)
        state = entangled_thermal_state(spec)
        for which in (0, 1):
            assert np.max(np.abs(marginal(state, which).matrix - np.eye(2) / 2)) <= 1e-9

    def test_marginals_are_gibbs(self):
        spec = EntangledThermalSpec(np.array([0.0, 1.0, 2.0, 3.0]), 1.0, 1.0, 0.5)
        state = entangled_thermal_state(spec)
        g_a = gibbs_state(HamiltonianSpec(np.array([0.0, 1.0, 2.0, 3.0])), 1.0)
        g_b = gibbs_state(HamiltonianSpec(np.array([0.0, 2.0, 4.0, 6.0])), 0.5)
        assert np.max(np.abs(marginal(state, 0).matrix - g_a)) <= 1e-10
        assert np.max(np.abs(marginal(state, 1).matrix - g_b)) <= 1e-10

    def test_amplitudes(self):
        spec = EntangledThermalSpec(np.array([0.0, 1.0, 2.0, 3.0]), 1.0, 1.0, 0.5)
        state = entangled_thermal_state(spec)
        z = 1.5530
        diag = np.abs(state.vector[np.arange(4) * 4 + np.arange(4)]) ** 2
        expected = np.exp(-np.arange(4.0)) / z
        assert np.max(np.abs(diag - expected)) < 1e-4

    def test_temperature_scaling(self):
        # doubling mu_a halves T_A = 1/(mu_a gamma)
        eps = np.array([0.0, 1.0, 2.0])
        for mu_a in (0.8, 1.6):
            spec = EntangledThermalSpec(eps, 1.25, mu_a, 1.0)
            state = entangled_thermal_state(spec)
            g = gibbs_state(spec.hamiltonian_a(), mu_a * 1.25)
            assert np.max(np.abs(marginal(state, 0).matrix - g)) <= 1e-10

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            EntangledThermalSpec(np.array([0.5, 1.0]), 1.0, 1.0, 1.0)
        with pytest.raises(InvalidSpec):
            EntangledThermalSpec(np.array([0.0, 1.0]), -1.0, 1.0, 1.0)
        with pytest.raises(InvalidSpec):
            EntangledThermalSpec(np.array([0.0, 1.0]), 1.0, 0.0, 1.0)
        with pytest.raises(InvalidSpec):
            EntangledThermalSpec(np.array([0.0]), 1.0, 1.0, 1.0)


class TestMarginal:
    def test_isospectral_marginals(self):
        spec = EntangledThermalSpec(np.array([0.0, 1.0, 2.0, 3.0]), 1.0, 1.0, 0.5)
        state = entangled_thermal_state(spec)
        lam_a = marginal(state, 0).spectrum
        lam_b = marginal(state, 1).spectrum
        assert np.max(np.abs(lam_a - lam_b)) <= 1e-10

    def test_product_state_factor(self):
        rng = substream(11, 7)
        rho_a = random_density(3, 2, rng)
        rho_b = random_density(3, 3, rng)
        joint = DensityOperator(kron(rho_a, rho_b), (3, 3))
        assert np.max(np.abs(marginal(joint, 0).matrix - rho_a)) <= 1e-12

    def test_random_pure_equal_entropies(self):
        state = random_pure((3, 3), substream(11, 8))
        s_a = von_neumann_entropy(marginal(state, 0).matrix)
        s_b = von_neumann_entropy(marginal(state, 1).matrix)
        assert abs(s_a - s_b) <= 1e-9


class TestGibbsMaximizesEntropy:
    def test_constrained_mixing_ensemble(self):
        # perturb the Gibbs state along random energy-orthogonal, traceless
        # directions; entropy can only drop at fixed mean energy
        h = HamiltonianSpec(np.array([0.0, 1.0, 2.5]))
        beta = 0.7
        g = gibbs_state(h, beta)
        hm = np.diag(h.levels)
        u_g = float(np.trace(g @ hm).real)
        s_g = von_neumann_entropy(g)
        nu = np.diag([1.0, 0.0, -1.0]).astype(complex)  # traceless, tr(nu H) = -2.5
        nu_energy = float(np.trace(nu @ hm).real)
        lam_min = np.linalg.eigvalsh(g)[0]
        rng = substream(11, 9)
        for _ in range(100):
            sigma = random_density(3, 3, rng)
            delta = sigma - g
            delta -= (float(np.trace(delta @ hm).real) / nu_energy) * nu
            t = 0.4 * lam_min / max(np.max(np.abs(np.linalg.eigvalsh(delta))), 1e-30)
            rho = DensityOperator(g + t * delta, (3,))
            assert abs(float(np.trace(rho.matrix @ hm).real) - u_g) < 1e-6
            assert von_neumann_entropy(rho.matrix) <= s_g + 1e-8


class TestValidation:
    def test_density_rejects_bad_trace(self):
        with pytest.raises(InvalidState):
            DensityOperator(np.eye(2, dtype=complex), (2,))

    def test_density_rejects_negative(self):
        with pytest.raises(InvalidState):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex), (2,))

    def test_density_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidState):
            DensityOperator(m, (2,))

    @staticmethod
    def dense_state(lam_min: float, rng=None) -> np.ndarray:
        # a state of spectrum (lam_min, 0.3, 0.7 - lam_min) in a random
        # basis, so that every off-diagonal entry is nonzero
        u = haar_unitary(3, substream(11, 25) if rng is None else rng)
        return (u * [lam_min, 0.3, 0.7 - lam_min]) @ u.conj().T

    def test_semidefinite_within_tolerance_is_one_kept_eigensolve(self, eigensolves):
        mats = np.stack([self.dense_state(-0.5 * STATE_TOL), self.dense_state(0.0)])
        rho = DensityOperator(mats, (3,))
        assert eigensolves == [3]
        assert abs(rho.spectrum[0, 0] + 0.5 * STATE_TOL) <= 1e-15
        assert eigensolves == [3]

    def test_accepted_exactly_when_the_kept_spectrum_is_within_tolerance(self):
        # lambda_min built within 1e-15 of -STATE_TOL in Haar bases: the
        # state is accepted exactly when the spectrum it keeps reads >=
        # -STATE_TOL.  A Cholesky of sym + STATE_TOL I (an earlier check)
        # factors some states whose own spectrum reads below; they are refused
        lams = -STATE_TOL + np.linspace(-1e-15, 1e-15, 41)
        verdicts, factored_below = set(), 0
        for k in range(100):
            for lam in lams:
                mat = self.dense_state(lam, substream(11, 99, k))
                sym = (mat + mat.conj().T) / 2
                lam_min = np.linalg.eigvalsh(sym[None])[0, 0]
                try:
                    kept = DensityOperator(mat, (3,)).spectrum[0]
                except InvalidState as exc:
                    assert str(exc) == f"negative eigenvalue {lam_min:.3e}"
                    assert lam_min < -STATE_TOL
                    try:
                        np.linalg.cholesky(sym + STATE_TOL * np.eye(3))
                        factored_below += 1
                    except np.linalg.LinAlgError:
                        pass
                    verdicts.add(False)
                else:
                    assert kept.view(np.int64) == lam_min.view(np.int64)
                    assert kept >= -STATE_TOL
                    verdicts.add(True)
        assert verdicts == {True, False} and factored_below > 0
        # one of them, which the factorization accepts
        mat = self.dense_state(-9.999999999999999e-11, substream(11, 99, 0))
        np.linalg.cholesky((mat + mat.conj().T) / 2 + STATE_TOL * np.eye(3))
        with pytest.raises(InvalidState, match=r"^negative eigenvalue -1\.000e-10$"):
            DensityOperator(mat, (3,))

    def test_first_negative_state_in_the_stack_names_its_eigenvalue(self):
        for mats in (
            [self.dense_state(-2.0 * STATE_TOL)],
            [self.dense_state(0.0), self.dense_state(-2.0 * STATE_TOL), self.dense_state(-3e-10)],
        ):
            with pytest.raises(InvalidState, match=r"^negative eigenvalue -2\.000e-10$"):
                DensityOperator(np.stack(mats), (3,))

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_nan_state_is_not_hermitian(self, where):
        bad = self.dense_state(0.0)
        bad[where] = np.nan
        for mats in ([bad], [self.dense_state(0.0), bad]):
            with pytest.raises(InvalidState, match=r"^not Hermitian: max \|M - M\^dag\| = nan$"):
                DensityOperator(np.stack(mats), (3,))

    @pytest.mark.parametrize(
        "m",
        [[[0.5, 1e308], [1e308, 0.5]], [[1e308, 0.0], [0.0, 1e308]]],
        ids=["off-diagonal", "diagonal"],
    )
    def test_overflowing_hermitian_part_is_refused(self, m, monkeypatch):
        # M = M^dag, but (M + M^dag) / 2 overflows: it is refused as not
        # finite, with no warning, whatever LAPACK would make of it, also
        # after a valid state in a stack
        solved = []

        def finite_only(a, _solver=np.linalg.eigvalsh):
            solved.append(bool(np.isfinite(a).all()))
            return _solver(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
        m = np.array(m, dtype=complex)
        for mats in ([m], [np.eye(2) / 2, m]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(
                    InvalidState, match=r"^Hermitian part \(M \+ M\^dag\) / 2 is not finite$"
                ):
                    DensityOperator(np.stack(mats), (2,))
        # the solve sees zeros in its place, never the infinity
        assert solved == [True, True]

    def test_three_dimensional_matrix_is_a_stack(self):
        pure = np.diag([1.0, 0.0]).astype(complex)
        rho = DensityOperator(np.stack([np.eye(2, dtype=complex) / 2, pure]), (2,))
        assert rho.matrix.shape == (2, 2, 2) and rho.spectrum.shape == (2, 2)
        assert rho.dim == 2
        assert np.array_equal(von_neumann_entropy(rho.matrix), [math.log(2), 0.0])

    @pytest.mark.parametrize("shape", [(4,), (1, 1, 2, 2)], ids=["1-D", "4-D"])
    def test_density_rejects_other_ranks(self, shape):
        with pytest.raises(DimensionMismatch):
            DensityOperator(np.full(shape, 0.5, dtype=complex), (2,))

    def test_stack_rows_are_bitwise_the_lone_states(self):
        rng = substream(11, 14)
        mats = np.stack([random_density(6, int(rng.integers(1, 7)), rng) for _ in range(9)])
        stack = DensityOperator(mats, (2, 3))
        for t, mat in enumerate(mats):
            alone = DensityOperator(mat, (2, 3))
            for field in ("matrix", "spectrum"):
                got = getattr(stack, field)[t]
                assert np.array_equal(got.view(np.int64), getattr(alone, field).view(np.int64))

    def test_amplitudes_are_unit_norm_and_gibbs_on_each_side(self):
        # the Schmidt coefficients squared are each side's Gibbs populations
        rng = substream(11, 23)
        for _ in range(200):
            d = int(rng.integers(2, 12))
            eps = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 5.0, d - 1))])
            spec = EntangledThermalSpec(eps, *np.exp(rng.uniform(-2.0, 2.0, 3)))
            amp = spec.amplitudes()
            assert abs(np.linalg.norm(amp) - 1.0) <= 1e-15
            for h, beta in ((spec.hamiltonian_a(), spec.beta_a), (spec.hamiltonian_b(), spec.beta_b)):
                assert np.max(np.abs(amp**2 - gibbs_populations(h, beta))) <= 1e-15

    def test_hamiltonian_ordering(self):
        with pytest.raises(InvalidSpec):
            HamiltonianSpec(np.array([1.0, 0.0]))
