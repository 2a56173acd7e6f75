import dataclasses
import math

import numpy as np
import pytest

from conftest import collide, draw_pairs, fractional_gain
from entroflow import gas
from entroflow import (
    CollisionSpec,
    InvalidSpec,
    ensemble_heat,
    substream,
    x_parameter,
)

REVERSAL = CollisionSpec(m_a=10.0, m_b=1.0, t_a=2.0, t_b=1.0, gamma=1.0)
SYMMETRIC = CollisionSpec(m_a=1.0, m_b=1.0, t_a=1.0, t_b=1.0, gamma=1.0)


def kinetic(p, m):
    """Kinetic energy of one momentum 3-vector, or per row of an (n, 3) array."""
    return (np.asarray(p) ** 2).sum(axis=-1) / (2.0 * m)


def bits(a):
    """The IEEE bit patterns of a float array, for exact comparison."""
    return np.asarray(a, dtype=float).view(np.int64)


class TestXParameter:
    def test_symmetric_is_one(self):
        assert abs(x_parameter(SYMMETRIC) - 1.0) <= 1e-15

    def test_reversal_value(self):
        # scalar arithmetic oracle: alpha_a = sqrt(20), alpha_b = 1
        oracle = (10.0 / 11.0) * (math.sqrt(20.0) + 1.0) / math.sqrt(20.0)
        assert abs(x_parameter(REVERSAL) - oracle) <= 1e-14
        assert abs(oracle - 1.11237) < 1e-5

    def test_sign_equivalence_with_reversal_ratio(self):
        rng = substream(41, 0)
        for _ in range(1000):
            spec = CollisionSpec(
                m_a=float(rng.uniform(0.1, 10.0)),
                m_b=float(rng.uniform(0.1, 10.0)),
                t_a=float(rng.uniform(0.1, 10.0)),
                t_b=float(rng.uniform(0.1, 10.0)),
                gamma=float(rng.uniform(0.1, 10.0)),
            )
            lhs = np.sign(x_parameter(spec) - 1.0)
            rhs = np.sign(spec.reversal_ratio - 1.0)
            assert lhs == rhs


class TestFractionalGain:
    def test_zero_at_unit_x(self):
        for theta in (0.0, 0.3, math.pi / 2, math.pi):
            assert fractional_gain(1.0, theta) == 0.0

    def test_known_value(self):
        # 4 * 2 * 1 * sin^2(pi/2) = 8
        assert abs(fractional_gain(2.0, math.pi) - 8.0) <= 1e-14

    def test_zero_at_forward_and_x_zero(self):
        assert fractional_gain(1.7, 0.0) == 0.0
        assert fractional_gain(0.0, 2.1) == 0.0

    def test_matches_collision_kinematics(self):
        # brute-force oracle: energies before/after an explicit collision of
        # collinear momenta p_a = alpha_a k, p_b = alpha_b k
        rng = substream(41, 1)
        x = x_parameter(REVERSAL)
        n = 200
        k = rng.standard_normal((n, 3)) * rng.uniform(0.2, 3.0, (n, 1))
        theta = rng.uniform(0.05, math.pi, n)
        azimuth = rng.uniform(0.0, 2 * math.pi, n)
        p_a = REVERSAL.alpha_a * k
        p_b = REVERSAL.alpha_b * k
        p_a2, _, _ = collide(p_a, p_b, REVERSAL.m_a, REVERSAL.m_b, np.cos(theta), azimuth)
        e_a = kinetic(p_a, REVERSAL.m_a)
        gain = (kinetic(p_a2, REVERSAL.m_a) - e_a) / e_a
        expected = fractional_gain(x, theta)
        assert np.all(np.abs(gain - expected) <= 1e-10 * np.maximum(np.abs(expected), 1e-3))


class TestCollide:
    def test_forward_scattering_is_identity(self):
        rng = substream(41, 2)
        p_a = rng.standard_normal(3)
        p_b = rng.standard_normal(3)
        p_a2, p_b2, de = collide(p_a, p_b, 2.0, 3.0, 1.0, 1.0)
        assert np.allclose(p_a2, p_a, atol=1e-14)
        assert np.allclose(p_b2, p_b, atol=1e-14)
        assert de == 0.0

    def test_equal_mass_head_on_exchange(self):
        p_a = np.array([1.0, 0.0, 0.0])
        p_b = np.array([-1.0, 0.0, 0.0])
        p_a2, p_b2, _ = collide(p_a, p_b, 1.0, 1.0, -1.0, 0.0)
        assert np.allclose(p_a2, p_b, atol=1e-12)
        assert np.allclose(p_b2, p_a, atol=1e-12)

    def test_zero_relative_momentum_passthrough(self):
        # equal masses and equal momenta make the relative momentum an exact
        # float zero, so theta is irrelevant and the inputs pass through
        p = np.array([0.4, -0.2, 1.0])
        p_a2, p_b2, de = collide(p, p, 1.0, 1.0, math.cos(1.3), 0.4)
        assert np.array_equal(p_a2, p)
        assert np.array_equal(p_b2, p)
        assert de == 0.0

    def test_conservation_over_random_events(self):
        rng = substream(41, 3)
        n = 10_000
        p_a = rng.standard_normal((n, 3)) * 2.0
        p_b = rng.standard_normal((n, 3))
        theta = rng.uniform(0, math.pi, n)
        azimuth = rng.uniform(0, 2 * math.pi, n)
        m_a, m_b = 2.5, 0.7
        p_a2, p_b2, de = collide(p_a, p_b, m_a, m_b, np.cos(theta), azimuth)
        dp = np.abs(p_a + p_b - p_a2 - p_b2).max()
        e_in = kinetic(p_a, m_a) + kinetic(p_b, m_b)
        e_out = kinetic(p_a2, m_a) + kinetic(p_b2, m_b)
        scale = np.abs(e_in).max()
        assert dp <= 1e-12 * max(1.0, np.abs(p_a).max())
        assert np.abs(e_in - e_out).max() <= 1e-12 * scale
        assert np.abs(de - (kinetic(p_a2, m_a) - kinetic(p_a, m_a))).max() <= 1e-12 * scale

    def test_single_event_matches_batch_row(self):
        rng = substream(41, 9)
        p_a = rng.standard_normal((5, 3))
        p_b = rng.standard_normal((5, 3))
        cos_theta = rng.uniform(-1.0, 1.0, 5)
        azimuth = rng.uniform(0.0, 2 * math.pi, 5)
        batch = collide(p_a, p_b, 1.3, 0.4, cos_theta, azimuth)
        for i in range(5):
            single = collide(p_a[i], p_b[i], 1.3, 0.4, cos_theta[i], azimuth[i])
            assert single[0].shape == (3,) and np.shape(single[2]) == ()
            for got, want in zip(single, batch):
                assert np.array_equal(bits(got), bits(want[i]))

    def test_rotation_angle_is_theta(self):
        rng = substream(41, 4)
        p_a = rng.standard_normal(3)
        p_b = rng.standard_normal(3)
        m_a, m_b = 1.3, 2.1
        theta = 0.9
        p_a2, _, _ = collide(p_a, p_b, m_a, m_b, math.cos(theta), 2.2)
        v_cm = (p_a + p_b) / (m_a + m_b)
        q = p_a - m_a * v_cm
        q2 = p_a2 - m_a * v_cm
        assert abs(np.linalg.norm(q2) - np.linalg.norm(q)) <= 1e-12
        cos_angle = float(np.dot(q, q2)) / (np.linalg.norm(q) * np.linalg.norm(q2))
        assert abs(cos_angle - math.cos(theta)) <= 1e-12

    def test_rejects_bad_masses(self):
        with pytest.raises(InvalidSpec):
            collide(np.zeros(3), np.zeros(3), 0.0, 1.0, 0.1, 0.1)


class TestEnergyOnlyPath:
    """ensemble_heat's de_a comes from energy_events alone, never from collide."""

    @staticmethod
    def energy_only(p_a, p_b, m_a, m_b, cos_theta, azimuth):
        spec = CollisionSpec(m_a=m_a, m_b=m_b, t_a=1.0, t_b=1.0, gamma=1.0)
        return gas.energy_events(spec, "product", False, p_a, p_b, cos_theta, azimuth)[0]

    def edge_batch(self):
        rng = substream(41, 12)
        n = 400
        p_a = rng.standard_normal((n, 3))
        p_b = rng.standard_normal((n, 3))
        # V parallel to q exactly: collinear momenta along x, y and z make
        # V x q an exact zero at any masses, and q lies along x-hat in the first
        for k in range(3):
            rows = slice(20 * k, 20 * k + 20)
            p_a[rows], p_b[rows] = 0.0, 0.0
            p_a[rows, k], p_b[rows, k] = rng.standard_normal(20), rng.standard_normal(20)
        # V parallel to q up to rounding: entangled draws and a resting b
        p_a[60:160], p_b[60:160], _, _ = draw_pairs(REVERSAL, "entangled", rng, 100)
        p_b[160:200] = 0.0
        p_a[200:210] = p_b[200:210] = 0.0  # exact zero relative momentum
        p_b[210:220] = p_a[210:220]  # zero relative momentum at equal masses
        cos_theta = rng.uniform(-1.0, 1.0, n)
        cos_theta[0::5], cos_theta[1::5] = 1.0, -1.0  # both poles in every group
        azimuth = rng.uniform(0.0, 2 * math.pi, n)
        return p_a, p_b, cos_theta, azimuth

    def test_edge_batch_matches_collide_bits(self):
        p_a, p_b, cos_theta, azimuth = self.edge_batch()
        forward, backward = cos_theta == 1.0, cos_theta == -1.0
        for m_a, m_b in ((1.0, 1.0), (2.5, 0.7)):
            v_cm = (p_a + p_b) / (m_a + m_b)
            q = p_a - m_a * v_cm
            resting = np.all(q == 0.0, axis=1)
            # the batch reaches both fallback axes, the resting events and both poles
            assert np.all(np.cross(v_cm[:60], q[:60]) == 0.0)
            assert np.all(q[:20, 1:] == 0.0)
            assert np.count_nonzero(resting) == (20 if m_a == m_b else 10)
            de = self.energy_only(p_a, p_b, m_a, m_b, cos_theta, azimuth)
            assert np.all(de[resting] == 0.0) and np.all(de[forward] == 0.0)
            assert np.count_nonzero(de[backward]) >= 70
            p_a2, p_b2, want = collide(p_a, p_b, m_a, m_b, cos_theta, azimuth)
            assert np.array_equal(bits(de), bits(want))
            # every event conserves energy and momentum and de_a is a's gain;
            # resting and forward events pass through unchanged
            e_in = kinetic(p_a, m_a) + kinetic(p_b, m_b)
            scale = e_in.max()
            assert np.abs(kinetic(p_a2, m_a) + kinetic(p_b2, m_b) - e_in).max() <= 1e-14 * scale
            assert np.abs(p_a2 + p_b2 - p_a - p_b).max() <= 1e-15 * np.abs(p_a).max()
            assert np.abs(de - (kinetic(p_a2, m_a) - kinetic(p_a, m_a))).max() <= 1e-14 * scale
            unchanged = resting | forward
            assert np.array_equal(p_a2[unchanged], p_a[unchanged])
            assert np.array_equal(p_b2[unchanged], p_b[unchanged])

    @pytest.mark.parametrize("mode", ["entangled", "product"])
    def test_drawn_chunk_matches_collide_bits(self, mode):
        rng = substream(41, gas._STREAM_TAG, 0)
        p_a, p_b, cos_theta, azimuth = draw_pairs(REVERSAL, mode, rng, gas.CHUNK)
        args = (p_a, p_b, REVERSAL.m_a, REVERSAL.m_b, cos_theta, azimuth)
        de = self.energy_only(*args)
        _, _, want = collide(*args)
        assert np.array_equal(bits(de), bits(want))

    def test_ensemble_heat_never_collides(self, monkeypatch):
        spec = CollisionSpec(m_a=1.3, m_b=0.4, t_a=0.5, t_b=3.0, gamma=2.0)
        n = gas.CHUNK + 4_000  # a full chunk and a ragged one
        want = {mode: ensemble_heat(spec, mode, n, 18, workers=2) for mode in ("entangled", "product")}

        def refuse(*args, **kwargs):
            raise AssertionError("ensemble_heat built outgoing momenta")

        monkeypatch.setattr(gas, "collide", refuse, raising=False)
        for mode, report in want.items():
            assert ensemble_heat(spec, mode, n, 18, workers=2) == report

    @pytest.mark.parametrize("n", [1, 7, gas.CHUNK + 4_000])
    def test_unit_weights_match_multiplied_moments(self, n):
        # flux weighting off: plain sums stand in for the products with w = 1
        rng = substream(41, 13)
        for x in (rng.standard_normal(n), rng.standard_normal(n) * 1e5 + 3.0):
            want = gas._weighted_moments(x, np.ones(n))
            assert np.array_equal(bits(gas._weighted_moments(x, None)), bits(want))


def unblocked_report(spec: CollisionSpec, mode: str, n: int, seed: int, flux: bool) -> tuple:
    """ensemble_heat's means and standard errors with every chunk's events
    from collide and one whole-chunk array per quantity (a test oracle)."""
    de_total, gain_total = np.zeros(5), np.zeros(5)
    for c in range(math.ceil(n / gas.CHUNK)):
        rng = substream(seed, gas._STREAM_TAG, c)
        size = min(gas.CHUNK, n - c * gas.CHUNK)
        p_a, p_b, cos_theta, azimuth = draw_pairs(spec, mode, rng, size)
        _, _, de = collide(p_a, p_b, spec.m_a, spec.m_b, cos_theta, azimuth)
        w = np.linalg.norm(p_a / spec.m_a - p_b / spec.m_b, axis=-1) if flux else None
        de_total += gas._weighted_moments(de, w)
        if mode == "entangled":
            gain_total += gas._weighted_moments(de / kinetic(p_a, spec.m_a), w)
    return (*gas._mean_stderr(de_total), *gas._mean_stderr(gain_total))


class TestBlockedKernel:
    """energy_events runs BLOCK events at a time; every event and every sum
    keeps the bits of the whole-chunk computation."""

    # sizes inside one slice, on both sides of the slice boundary, and a
    # ragged chunk
    @pytest.mark.parametrize(
        "n", [2, 4095, 4096, 4097, gas.BLOCK - 1, gas.BLOCK, gas.BLOCK + 1, gas.CHUNK + 3]
    )
    @pytest.mark.parametrize("mode", ["entangled", "product"])
    @pytest.mark.parametrize("flux", [False, True], ids=["flux-off", "flux-on"])
    def test_events_and_sums_match_unblocked(self, n, mode, flux):
        spec = dataclasses.replace(REVERSAL, flux_weighting=flux)
        rng = substream(43, n)
        p_a, p_b, cos_theta, azimuth = draw_pairs(spec, mode, rng, n)
        de, w, gain, gap = gas.energy_events(spec, mode, flux, p_a, p_b, cos_theta, azimuth)
        _, _, want = collide(p_a, p_b, spec.m_a, spec.m_b, cos_theta, azimuth)
        assert np.array_equal(bits(de), bits(want))
        if flux:
            want_w = np.linalg.norm(p_a / spec.m_a - p_b / spec.m_b, axis=-1)
            assert np.array_equal(bits(w), bits(want_w))
        else:
            assert w is None
        if mode == "entangled":
            assert np.array_equal(bits(gain), bits(want / kinetic(p_a, spec.m_a)))
            x = x_parameter(spec)
            assert gap == np.abs(gain - 2.0 * x * (x - 1.0) * (1.0 - cos_theta)).max()
            assert gap <= 1e-14
        else:
            assert gain is None and gap is None

        report = ensemble_heat(spec, mode, n, 44, workers=2)
        mean, se, mean_gain, se_gain = unblocked_report(spec, mode, n, 44, flux)
        assert bits([report.mean_de_a, report.stderr_de_a]).tolist() == bits([mean, se]).tolist()
        if mode == "entangled":
            got = [report.mean_fractional_gain, report.stderr_fractional_gain]
            assert bits(got).tolist() == bits([mean_gain, se_gain]).tolist()


class TestWorkerBuffers:
    """ensemble_heat draws each chunk into arrays its worker allocates once,
    with the bits of fresh arrays at any worker count."""

    def test_every_chunk_draws_into_the_same_arrays(self, monkeypatch):
        n = 4 * gas.CHUNK + 100  # 5 chunks, the last one ragged
        want = {mode: ensemble_heat(REVERSAL, mode, n, 46) for mode in ("entangled", "product")}
        calls = []

        class Recorder:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                def record(*args, **kwargs):
                    calls[-1].append((name, args, kwargs.get("out")))
                    return getattr(self.rng, name)(*args, **kwargs)

                return record

        def recording_substream(*path):
            calls.append([])
            return Recorder(substream(*path))

        monkeypatch.setattr(gas, "substream", recording_substream)
        for mode, draws in (("entangled", 3), ("product", 4)):
            del calls[:]
            assert ensemble_heat(REVERSAL, mode, n, 46, workers=1) == want[mode]
            assert len(calls) == 5 and all(len(chunk) == draws for chunk in calls)
            # every draw passes out= and no size; draw k of every chunk
            # writes into one array, and the draws into different ones
            assert all(out is not None and args == () for chunk in calls for _, args, out in chunk)
            pointers = [{chunk[k][2].ctypes.data for chunk in calls} for k in range(draws)]
            assert all(len(p) == 1 for p in pointers)
            assert len(set.union(*pointers)) == draws

    @pytest.mark.parametrize("mode", ["entangled", "product"])
    @pytest.mark.parametrize("flux", [False, True], ids=["flux-off", "flux-on"])
    def test_any_worker_count_gives_the_unblocked_bits(self, mode, flux):
        spec = dataclasses.replace(REVERSAL, flux_weighting=flux)
        n = 5 * gas.CHUNK + 17
        reports = [ensemble_heat(spec, mode, n, 47, workers=w) for w in (1, 2, 3, 7)]
        assert all(report == reports[0] for report in reports)
        mean, se, mean_gain, se_gain = unblocked_report(spec, mode, n, 47, flux)
        got = [reports[0].mean_de_a, reports[0].stderr_de_a]
        assert bits(got).tolist() == bits([mean, se]).tolist()
        if mode == "entangled":
            got = [reports[0].mean_fractional_gain, reports[0].stderr_fractional_gain]
            assert bits(got).tolist() == bits([mean_gain, se_gain]).tolist()


class TestSamplers:
    @pytest.mark.parametrize("mode", ["entangled", "product"])
    def test_draws_have_the_bits_of_sized_draws(self, mode):
        # the in-place draws against sized draws and uniform(lo, hi)
        spec, rng = CollisionSpec(m_a=1.3, m_b=0.4, t_a=0.5, t_b=3.0, gamma=2.0), substream(41, 26)
        if mode == "entangled":
            k = rng.standard_normal((1000, 3)) * math.sqrt(1.0 / spec.gamma)
            want = [spec.alpha_a * k, spec.alpha_b * k]
        else:
            want = [rng.standard_normal((1000, 3)) * math.sqrt(m * t) for m, t in ((1.3, 0.5), (0.4, 3.0))]
        want += [rng.uniform(-1.0, 1.0, 1000), rng.uniform(0.0, 2.0 * math.pi, 1000)]
        got = draw_pairs(spec, mode, substream(41, 26), 1000)
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got, want))
    def test_entangled_momenta_are_collinear(self):
        p_a, p_b, _, _ = draw_pairs(REVERSAL, "entangled", substream(41, 5), 50)
        cross = np.cross(p_a, p_b)
        assert np.all(np.abs(cross).max(axis=1) <= 1e-12 * np.abs(p_a).max(axis=1))

    def test_entangled_marginal_temperature(self):
        # consistency with the thermal marginal: <KE_a> = (3/2) T_a
        p_a, _, _, _ = draw_pairs(REVERSAL, "entangled", substream(41, 6), 1_000_000)
        ke = kinetic(p_a, REVERSAL.m_a)
        se = ke.std(ddof=1) / math.sqrt(ke.size)
        assert abs(ke.mean() - 1.5 * REVERSAL.t_a) <= 3 * se

    def test_entangled_event_matches_closed_form(self):
        x = x_parameter(REVERSAL)
        p_a, p_b, cos_theta, azimuth = draw_pairs(REVERSAL, "entangled", substream(41, 7), 300)
        _, _, de = collide(p_a, p_b, REVERSAL.m_a, REVERSAL.m_b, cos_theta, azimuth)
        gain = de / kinetic(p_a, REVERSAL.m_a)
        expected = fractional_gain(x, np.arccos(cos_theta))
        assert np.all(np.abs(gain - expected) <= 1e-10 * np.maximum(np.abs(expected), 1e-12))
        assert np.all(de > 0.0)  # x > 1: gain at every non-forward angle

    def test_product_event_conservation(self):
        p_a, p_b, cos_theta, azimuth = draw_pairs(REVERSAL, "product", substream(41, 8), 200)
        p_a2, p_b2, de = collide(p_a, p_b, REVERSAL.m_a, REVERSAL.m_b, cos_theta, azimuth)
        e_in = kinetic(p_a, REVERSAL.m_a) + kinetic(p_b, REVERSAL.m_b)
        e_out = kinetic(p_a2, REVERSAL.m_a) + kinetic(p_b2, REVERSAL.m_b)
        assert np.all(np.abs(e_in - e_out) <= 1e-12 * e_in)
        # de_a is the kinetic-energy difference of the returned momenta
        gained = kinetic(p_a2, REVERSAL.m_a) - kinetic(p_a, REVERSAL.m_a)
        assert np.all(np.abs(de - gained) <= 1e-10)

    def test_draw_order_is_momenta_then_angles(self):
        # the streams behind ensemble_heat: momenta first, then cos(theta), then azimuth
        for mode, normals in (("entangled", 3), ("product", 6)):
            p_a, p_b, cos_theta, azimuth = draw_pairs(REVERSAL, mode, substream(41, 10), 4)
            rng = substream(41, 10)
            rng.standard_normal((normals * 4,))
            assert np.array_equal(cos_theta, rng.uniform(-1.0, 1.0, 4))
            assert np.array_equal(azimuth, rng.uniform(0.0, 2 * math.pi, 4))


class TestEnsembleHeat:
    def test_symmetric_product_mean_zero(self):
        report = ensemble_heat(SYMMETRIC, "product", 200_000, 9)
        assert abs(report.mean_de_a) <= 3 * report.stderr_de_a

    def test_hot_loses_in_product_mode(self):
        spec = CollisionSpec(m_a=10.0, m_b=1.0, t_a=2.0, t_b=1.0, gamma=1.0)
        report = ensemble_heat(spec, "product", 400_000, 10)
        assert report.mean_de_a + 5 * report.stderr_de_a < 0
        assert report.verdict == -1
        assert report.mean_fractional_gain is None

    def test_reversal_demo_mean_gain(self):
        report = ensemble_heat(REVERSAL, "entangled", 200_000, 11)
        x = report.x
        assert abs(report.mean_fractional_gain - 2 * x * (x - 1)) <= 3 * report.stderr_fractional_gain
        assert report.mean_de_a > 0  # the hotter, heavier gas gains energy
        assert report.verdict == 1

    def test_sign_theorem_exact(self):
        # every entangled event shares the sign of x - 1
        gains = ensemble_heat(REVERSAL, "entangled", 5_000, 12)
        assert np.sign(gains.mean_de_a) == np.sign(gains.x - 1.0)
        flipped = CollisionSpec(m_a=1.0, m_b=10.0, t_a=1.0, t_b=2.0, gamma=1.0)
        losses = ensemble_heat(flipped, "entangled", 5_000, 12)
        assert losses.x < 1.0
        assert np.sign(losses.mean_de_a) == -1.0

    def test_unit_x_zero_gain(self):
        report = ensemble_heat(SYMMETRIC, "entangled", 5_000, 13)
        assert abs(report.mean_fractional_gain) <= 3 * report.stderr_fractional_gain
        assert report.mean_de_a == 0.0
        assert report.verdict == 0
        # every event is 0: a zero standard error leaves z finite
        assert report.stderr_de_a == 0.0 and report.exact_mean_de_a == 0.0
        assert report.z_de_a == 0.0

    def test_zero_stderr_z_is_the_unscaled_difference(self, monkeypatch):
        monkeypatch.setattr(gas, "exact_mean", lambda spec, mode, flux: 0.25)
        report = ensemble_heat(SYMMETRIC, "entangled", 5_000, 13)
        assert report.stderr_de_a == 0.0 and report.z_de_a == -0.25

    @pytest.mark.parametrize("flux, factor", [(False, 3.0), (True, 4.0)])
    def test_exact_mean_closed_forms(self, flux, factor):
        # scalar oracles: 4 m_a m_b/M^2 is the elastic transfer factor, and
        # an entangled event gains E_a 2x(x-1)(1 - cos(theta))
        x = x_parameter(REVERSAL)
        product = gas.exact_mean(REVERSAL, "product", flux)
        entangled = gas.exact_mean(REVERSAL, "entangled", flux)
        assert product == pytest.approx(factor * 10.0 * 1.0 * (1.0 - 2.0) / 121.0, rel=1e-15)
        assert entangled == pytest.approx(factor * x * (x - 1.0) * 2.0, rel=1e-15)

    def test_exact_mean_in_report(self):
        for mode, flux in (("entangled", False), ("entangled", True), ("product", True)):
            spec = dataclasses.replace(REVERSAL, flux_weighting=flux)
            report = ensemble_heat(spec, mode, 200_000, 19, workers=2)
            assert report.exact_mean_de_a == gas.exact_mean(spec, mode, flux)
            want = (report.mean_de_a - report.exact_mean_de_a) / report.stderr_de_a
            assert report.z_de_a == want and abs(want) <= 5.0
            assert (report.max_event_gap is None) == (mode == "product")

    def test_deterministic_across_workers_and_runs(self):
        a = ensemble_heat(REVERSAL, "entangled", 150_000, 14, workers=1)
        b = ensemble_heat(REVERSAL, "entangled", 150_000, 14, workers=4)
        c = ensemble_heat(REVERSAL, "entangled", 150_000, 14, workers=8)
        assert a == b == c
        assert a != ensemble_heat(REVERSAL, "entangled", 150_000, 15)

    def test_flux_override(self):
        on = ensemble_heat(
            CollisionSpec(10.0, 1.0, 2.0, 1.0, 1.0, flux_weighting=True),
            "entangled",
            50_000,
            16,
        )
        off = ensemble_heat(REVERSAL, "entangled", 50_000, 16)
        assert on.mean_de_a != off.mean_de_a  # weighting moves the estimate
        assert np.sign(on.mean_de_a) == np.sign(off.mean_de_a)  # but not the sign

    def test_validation(self):
        with pytest.raises(InvalidSpec, match="mode"):
            ensemble_heat(REVERSAL, "other", 100, 1)
        with pytest.raises(InvalidSpec, match="mode"):
            draw_pairs(REVERSAL, "other", substream(41, 11), 4)
        with pytest.raises(InvalidSpec):
            ensemble_heat(REVERSAL, "entangled", 1, 1)
        with pytest.raises(InvalidSpec):
            CollisionSpec(m_a=-1.0, m_b=1.0, t_a=1.0, t_b=1.0, gamma=1.0)

    @pytest.mark.parametrize(
        "fields",
        [
            {"m_a": 1e308, "m_b": 1e308},  # m_a + m_b overflows
            {"m_a": 1e200, "t_a": 1e200},  # m_a * t_a and alpha_a overflow
            {"m_b": 1e-200, "t_b": 1e-200},  # alpha_b underflows to 0
            {"gamma": 1e-310},  # 1 / gamma overflows
        ],
        ids=["mass-sum", "root-overflow", "root-underflow", "scale-ratio"],
    )
    def test_rejects_non_finite_derived_values(self, fields):
        base = {"m_a": 1.0, "m_b": 1.0, "t_a": 1.0, "t_b": 1.0, "gamma": 1.0}
        with pytest.raises(InvalidSpec, match="derived"):
            CollisionSpec(**{**base, **fields})

    def test_stderr_positive_for_generic_spec(self):
        report = ensemble_heat(REVERSAL, "entangled", 1000, 17)
        assert report.stderr_de_a > 0
        assert report.stderr_fractional_gain > 0
