import numpy as np
import pytest

from conftest import func_hermitian, random_density

from entroflow import (
    DimensionMismatch,
    dagger,
    kron,
    partial_trace,
    substream,
)
from entroflow.qmath import double_angle, ginibre, haar_qr, random_densities, uniform_rows


def kron_loop(a, b):
    """Explicit-index Kronecker product (test oracle)."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def ptrace_loop(m, dims, keep):
    """Explicit-summation partial trace (test oracle), two factors only."""
    da, db = dims
    if keep == 0:
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for i2 in range(da):
                for j in range(db):
                    out[i, i2] += m[i * db + j, i2 * db + j]
    else:
        out = np.zeros((db, db), dtype=complex)
        for j in range(db):
            for j2 in range(db):
                for i in range(da):
                    out[j, j2] += m[i * db + j, i * db + j2]
    return out


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + dagger(g)) / 2


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
        assert np.array_equal(got, np.diag([1.0, 3.0, 2.0, 6.0]).astype(complex))

    def test_matches_loop_oracle_and_trace(self):
        rng = substream(101, 0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = kron(a, b)
        assert np.allclose(got, kron_loop(a, b), atol=1e-14)
        assert abs(np.trace(got) - np.trace(a) * np.trace(b)) < 1e-12

    def test_mixed_product_rule(self):
        rng = substream(101, 1)
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(4))
        assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)

    def test_associative_on_integers(self):
        rng = substream(101, 2)
        a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


class TestFuncHermitian:
    """The matrix function of the dense relative-entropy oracle in
    conftest, which the Gibbs-divergence equalities are checked against."""

    def test_exp_of_zero_is_identity(self):
        assert np.allclose(func_hermitian(np.zeros((3, 3)), np.exp), np.eye(3), atol=1e-14)

    def test_exp_log_roundtrip(self):
        rng = substream(101, 4)
        h = random_hermitian(5, rng)
        h = h @ dagger(h) + 0.1 * np.eye(5)  # positive definite
        back = func_hermitian(func_hermitian(h, np.exp), np.log)
        assert np.max(np.abs(back - h)) < 1e-8

    def test_constant_function_broadcasts(self):
        h = random_hermitian(4, substream(101, 7))
        assert np.max(np.abs(func_hermitian(h, lambda x: 2.0) - 2.0 * np.eye(4))) <= 1e-12

    def test_square_on_diagonal(self):
        got = func_hermitian(np.diag([1.0, 2.0]), lambda x: x**2)
        assert np.allclose(got, np.diag([1.0, 4.0]), atol=1e-12)

    def test_identity_function_returns_input(self):
        h = random_hermitian(6, substream(101, 5))
        assert np.max(np.abs(func_hermitian(h, lambda x: x) - h)) <= 1e-9

    def test_trace_of_exp_is_sum_of_exps(self):
        h = random_hermitian(6, substream(101, 6))
        w = np.linalg.eigvalsh(h)
        assert abs(np.trace(func_hermitian(h, np.exp)) - np.exp(w).sum()) <= 1e-9


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        rng = substream(101, 7)
        rho_a = random_density(2, 2, rng)
        rho_b = random_density(3, 3, rng)
        joint = kron(rho_a, rho_b)
        assert np.allclose(partial_trace(joint, (2, 3), [0]), rho_a, atol=1e-13)
        assert np.allclose(partial_trace(joint, (2, 3), [1]), rho_b, atol=1e-13)

    def test_bell_marginal_is_maximally_mixed(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 2.0**-0.5
        bell = np.outer(v, v.conj())
        assert np.allclose(partial_trace(bell, (2, 2), [0]), np.eye(2) / 2, atol=1e-14)

    def test_matches_explicit_sum_oracle(self):
        rng = substream(101, 8)
        rho = random_density(6, 4, rng)
        for keep in (0, 1):
            got = partial_trace(rho, (2, 3), [keep])
            assert np.allclose(got, ptrace_loop(rho, (2, 3), keep), atol=1e-14)
            assert abs(np.trace(got) - 1.0) < 1e-12

    def test_composition_matches_single_shot(self):
        rng = substream(101, 9)
        rho = random_density(12, 5, rng)
        dims = (2, 3, 2)
        step = partial_trace(partial_trace(rho, dims, [0, 1]), (2, 3), [0])
        assert np.max(np.abs(step - partial_trace(rho, dims, [0]))) <= 1e-12

    def test_errors(self):
        rho = np.eye(4) / 4
        with pytest.raises(DimensionMismatch):
            partial_trace(rho, (2, 3), [0])
        with pytest.raises(DimensionMismatch):
            partial_trace(rho, (2, 2), [])
        with pytest.raises(DimensionMismatch):
            partial_trace(rho, (2, 2), [2])


def unitaries(d: int, n: int, rng) -> np.ndarray:
    """n Haar unitaries from rows of uniforms drawn in order from rng,
    through the batched path."""
    return haar_qr(ginibre(rng.random((n, 2 * d * d)), d))


def densities(d: int, rank: int, n: int, rng) -> np.ndarray:
    """n rank-``rank`` density matrices from rows of uniforms drawn in order
    from rng, through the batched path."""
    return random_densities(ginibre(rng.random((n, 2 * d * d)), d), np.full(n, (rank - 0.5) / d))


class TestHaarUnitary:
    def test_d1_unit_modulus(self):
        [u] = unitaries(1, 1, substream(101, 10))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity_d4(self):
        [u] = unitaries(4, 1, substream(101, 11))
        assert np.max(np.abs(dagger(u) @ u - np.eye(4))) <= 1e-10

    def test_first_entry_moment(self):
        # |U_00|^2 averages to 1/d over the invariant measure
        rng = substream(101, 12)
        samples = np.abs(unitaries(2, 10_000, rng)[:, 0, 0]) ** 2
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 0.5) <= 3 * se

    def test_left_invariance_moment(self):
        # composing with a fixed unitary must not move the moment
        rng = substream(101, 13)
        [fixed] = unitaries(2, 1, substream(101, 14))
        samples = np.abs((fixed @ unitaries(2, 10_000, rng))[:, 0, 0]) ** 2
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 0.5) <= 3 * se


class TestRandomDensity:
    def test_pure_spectrum(self):
        [rho] = densities(2, 1, 1, substream(101, 15))
        assert np.allclose(np.linalg.eigvalsh(rho), [0.0, 1.0], atol=1e-10)

    def test_full_rank_properties(self):
        [rho] = densities(4, 4, 1, substream(101, 16))
        lam = np.linalg.eigvalsh(rho)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert lam[0] >= -1e-12
        assert np.sum(lam > 1e-10) == 4

    def test_rank_deficient(self):
        [rho] = densities(4, 2, 1, substream(101, 17))
        assert np.sum(np.linalg.eigvalsh(rho) > 1e-10) == 2

    def test_ensemble_mean_is_maximally_mixed(self):
        rng = substream(101, 18)
        draws = densities(2, 2, 10_000, rng)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - np.eye(2) / 2) <= 3 * se + 1e-12)

    def test_bad_rank(self):
        with pytest.raises(DimensionMismatch):
            random_density(2, 3, substream(101, 19))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        u1 = unitaries(4, 1, substream(77, 1, 2))
        u2 = unitaries(4, 1, substream(77, 1, 2))
        assert np.array_equal(u1, u2)
        r1 = densities(4, 2, 1, substream(77, 3))
        r2 = densities(4, 2, 1, substream(77, 3))
        assert np.array_equal(r1, r2)

    def test_different_path_differs(self):
        assert not np.array_equal(
            unitaries(4, 1, substream(77, 1)), unitaries(4, 1, substream(77, 2))
        )


class TestDrawLaws:
    """The law of the variates made from uniforms, at a fixed seed."""

    def test_rank_is_uniform(self):
        # 10**4 states on D = 4: each rank's count within 4 standard errors
        # of n / 4
        n, d = 10_000, 4
        u = uniform_rows(101, 20, 0, n, 1 + 2 * d * d)
        states = random_densities(ginibre(u[:, 1 : 1 + 2 * d * d], d), u[:, 0])
        counts = np.bincount(np.sum(np.linalg.eigvalsh(states) > 1e-12, axis=-1), minlength=d + 1)
        assert counts[0] == 0
        assert np.all(np.abs(counts[1:] - n / d) <= 4 * np.sqrt(n * (1 / d) * (1 - 1 / d)))

    def test_box_muller_normals(self):
        # real and imaginary parts: mean 0, variance 1 and no correlation
        # between the two parts of an entry, each within 4 standard errors
        z = ginibre(uniform_rows(101, 21, 0, 1, 2 * 300**2), 300).ravel()
        x = np.concatenate([z.real, z.imag])
        assert abs(x.mean()) <= 4 / np.sqrt(x.size)
        assert abs(x.var() - 1.0) <= 4 * np.sqrt(2 / x.size)
        assert abs(np.mean(z.real * z.imag)) <= 4 / np.sqrt(z.size)


# seeds at the word boundaries of SeedSequence's entropy and random ones
KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [
    int(s) for s in np.random.default_rng(2024).integers(0, 2**63, 4, dtype=np.int64)
]


def philox_at(seed: int, tag: int, counter: int) -> np.random.Generator:
    """The Philox of key ``SeedSequence((seed, tag))`` set to ``counter``
    (a test oracle that makes no ``advance``)."""
    key = np.random.SeedSequence((seed, tag)).generate_state(2, np.uint64)
    words = np.array([(counter >> 64 * i) % 2**64 for i in range(4)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=words))


class TestDoubleAngle:
    """double_angle(a) against libm's cos and sin of 2a, at the half angles
    the draws pass it: pi u (ginibre's phase) and half of fl(2 pi u) (the
    gas azimuth), which are the same doubles."""

    EDGES = [0.0, 0.25, 0.5, 0.75, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]

    def uniforms(self):
        return np.concatenate([substream(2024, 40).random(1_000_000), self.EDGES])

    def test_within_1e_15_of_libm_and_finite(self):
        alpha = np.pi * self.uniforms()
        cos, sin = double_angle(alpha)
        assert np.isfinite(cos).all() and np.isfinite(sin).all()
        assert np.abs(cos - np.cos(2.0 * alpha)).max() <= 1e-15
        assert np.abs(sin - np.sin(2.0 * alpha)).max() <= 1e-15

    def test_gas_half_azimuth_is_the_ginibre_half_angle(self):
        u = self.uniforms()
        assert np.array_equal(0.5 * (2.0 * np.pi * u), np.pi * u)

    def test_edge_points(self):
        cos, sin = double_angle(np.pi * np.array([0.0, 0.25, 0.5, 0.75]))
        np.testing.assert_allclose(cos, [1.0, 0.0, -1.0, 0.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(sin, [0.0, 1.0, 0.0, -1.0], rtol=0, atol=1e-15)
        assert cos[0] == 1.0 and sin[0] == 0.0


class TestSubstreamKeys:
    """``substream`` against an explicit SFC64 and ``uniform_rows`` against
    an explicit Philox, each seeded by a SeedSequence of the seed and path."""

    @pytest.mark.parametrize("path", [(0,), (1, 2), (0x676173, 5), (2**64 - 1, 3, 7)])
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_substream_is_the_sfc64_of_its_path(self, seed, path):
        want = np.random.SFC64(np.random.SeedSequence((seed, *path))).random_raw(8)
        got = substream(seed, *path).bit_generator
        assert isinstance(got, np.random.SFC64)
        assert np.array_equal(got.random_raw(8), want)

    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_no_path_is_path_zero(self, seed):
        want = substream(seed, 0).random(6)
        assert np.array_equal(substream(seed).random(6), want)
        assert not np.array_equal(substream(seed, 1).random(6), want)

    @pytest.mark.parametrize("tag", [1, 2, 3])
    @pytest.mark.parametrize("seed", KEY_SEEDS)
    def test_rows_are_stretches_of_one_stream(self, seed, tag):
        # row t of width K is doubles [tK, (t + 1)K) of the Philox stream,
        # however the rows are split into calls, and a width is rounded up to K
        for k, width in ((4, 4), (5, 8), (62, 64)):
            stream = philox_at(seed, tag, 0).random(130 * width).reshape(130, width)
            parts = [uniform_rows(seed, tag, a, b - a, k) for a, b in ((0, 1), (1, 37), (37, 130))]
            assert np.array_equal(np.concatenate(parts), stream)
            assert np.array_equal(uniform_rows(seed, tag, 0, 130, width), stream)
        # row t of width 4 is one counter step, so row b * 2**128 starts at
        # counter b * 2**128: across a word's carry and at the last such row
        for block in (1, 2**64 - 1, 2**64, 2**128 - 1):
            want = philox_at(seed, tag, block << 128).random(8)
            assert np.array_equal(uniform_rows(seed, tag, block << 128, 2, 4).ravel(), want)

    def test_no_trials(self):
        assert uniform_rows(1, 2, 0, 0, 4).shape == (0, 4)

    def test_negative_path_refused(self):
        for seed, path in ((-1, ()), (1, (-1,)), (1, (-2, 3)), (1, (2, -3)), (1, (2, 3, -1))):
            with pytest.raises(ValueError):
                substream(seed, *path)
        with pytest.raises(ValueError):
            uniform_rows(1, -2, 0, 1, 4)
