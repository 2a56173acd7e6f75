"""Monte Carlo single-collision model of two dilute gases.

Two ensembles over incoming momentum pairs are compared.  In entangled
mode the pair is perfectly correlated: one Gaussian-distributed vector k
(per-component variance m_scale/gamma) sets both momenta, p_a = alpha_a*k
and p_b = alpha_b*k, which leaves each marginal Maxwell-Boltzmann at its
own temperature while fixing the energy-flow direction of every single
collision through the closed form 4x(x-1)sin^2(theta/2).  In product mode
the two momenta are drawn independently from Maxwell-Boltzmann
distributions, and the mean energy flow reverts to hot-loses-energy.

Collisions are elastic two-body events; the scattering angle law is
isotropic (cos(theta) uniform, azimuth uniform).  hbar = k_B = 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .qmath import substream

# events per substream chunk; fixed so that results depend only on
# (spec, mode, n, seed), never on worker count
CHUNK = 1 << 16
_STREAM_TAG = 0x676173  # distinguishes gas draws from other consumers of a seed


@dataclass(frozen=True)
class CollisionSpec:
    """Masses, temperatures, and correlation scale of the two gases.

    flux_weighting None means the mode default: on for product mode (event
    rates between independent Maxwellian populations scale with relative
    speed) and off for entangled mode (events are weighted by the squared
    amplitudes of the correlated ensemble alone).
    """

    m_a: float
    m_b: float
    t_a: float
    t_b: float
    gamma: float
    m_scale: float = 1.0
    flux_weighting: bool | None = None

    def __post_init__(self) -> None:
        for name in ("m_a", "m_b", "t_a", "t_b", "gamma", "m_scale"):
            val = float(getattr(self, name))
            if not (val > 0 and np.isfinite(val)):
                raise InvalidSpec(f"{name} must be positive and finite, got {val!r}")
        # the sampler divides by these sums and roots: an overflow (or an
        # underflow to 0) would turn the whole report into NaN
        derived = {
            "m_a + m_b": float(self.m_a) + float(self.m_b),
            "m_a * t_a": float(self.m_a) * float(self.t_a),
            "m_b * t_b": float(self.m_b) * float(self.t_b),
            "m_scale / gamma": float(self.m_scale) / float(self.gamma),
            "alpha_a": self.alpha_a,
            "alpha_b": self.alpha_b,
            "reversal_ratio": self.reversal_ratio,
        }
        for name, val in derived.items():
            if not (val > 0 and math.isfinite(val)):
                raise InvalidSpec(f"derived {name} = {val!r} is not positive and finite")

    @property
    def alpha_a(self) -> float:
        """Momentum scale of gas a: T_a = m_scale * alpha_a^2 / (gamma * m_a)."""
        return math.sqrt(self.gamma * self.t_a * self.m_a / self.m_scale)

    @property
    def alpha_b(self) -> float:
        return math.sqrt(self.gamma * self.t_b * self.m_b / self.m_scale)

    @property
    def reversal_ratio(self) -> float:
        """(m_a/m_b) * (T_b/T_a); above 1, particle a gains in every collision."""
        return (self.m_a / self.m_b) * (self.t_b / self.t_a)


@dataclass(frozen=True)
class GasReport:
    """Ensemble mean energy transfer to particle a, with standard errors.

    mean_fractional_gain is populated in entangled mode only (there every
    event shares the closed-form ratio de_a / E_a).  verdict is the sign of
    mean_de_a when it clears three standard errors, else 0.
    """

    mode: str
    n_samples: int
    x: float
    mean_de_a: float
    stderr_de_a: float
    mean_fractional_gain: float | None
    stderr_fractional_gain: float | None
    verdict: int


def x_parameter(spec: CollisionSpec) -> float:
    """x = [m_a/(m_a+m_b)] * [(alpha_a+alpha_b)/alpha_a].

    x > 1 exactly when (m_a/m_b)(T_b/T_a) > 1; then particle a gains
    kinetic energy in every non-forward entangled-mode collision.
    """
    return (spec.m_a / (spec.m_a + spec.m_b)) * (spec.alpha_a + spec.alpha_b) / spec.alpha_a


def fractional_gain(x: float, theta) -> np.ndarray | float:
    """Closed-form fractional kinetic-energy gain of particle a,
    4 x (x - 1) sin^2(theta/2), for collinear incoming momenta."""
    return 4.0 * x * (x - 1.0) * np.sin(np.asarray(theta) / 2.0) ** 2


def draw_pairs(spec: CollisionSpec, mode: str, rng: np.random.Generator, n: int):
    """n incoming momentum pairs with their scattering angles.

    Entangled mode draws 3 normals per event for the shared vector k (per
    component variance m_scale/gamma) and sets p_a = alpha_a k, p_b =
    alpha_b k; product mode draws 3 + 3 normals for independent Maxwellian
    momenta (per-component variance m T, mean kinetic energy (3/2) T).
    Both then draw cos(theta) uniform on [-1, 1] and the azimuth uniform on
    [0, 2 pi).  Returns (p_a, p_b, cos_theta, azimuth), momenta (n, 3).
    """
    if mode == "entangled":
        k = rng.standard_normal((n, 3)) * math.sqrt(spec.m_scale / spec.gamma)
        p_a, p_b = spec.alpha_a * k, spec.alpha_b * k
    elif mode == "product":
        p_a = rng.standard_normal((n, 3)) * math.sqrt(spec.m_a * spec.t_a)
        p_b = rng.standard_normal((n, 3)) * math.sqrt(spec.m_b * spec.t_b)
    else:
        raise InvalidSpec(f"mode must be 'entangled' or 'product', got {mode!r}")
    cos_theta = rng.uniform(-1.0, 1.0, n)
    azimuth = rng.uniform(0.0, 2.0 * math.pi, n)
    return p_a, p_b, cos_theta, azimuth


def collide(p_a, p_b, m_a: float, m_b: float, cos_theta, azimuth):
    """Elastic two-body collision: the center-of-mass momentum is kept and
    the relative momentum rotated by (theta, azimuth).

    Works on one event (3-vectors and scalar angles) or on n events ((n, 3)
    momenta and length-n angles).  Returns (p_a', p_b', de_a).  de_a is
    evaluated as (q' - q) . v_cm with cos(theta) - 1 kept as a single
    subtraction, which stays relatively accurate even for near-forward
    scattering where the transferred energy underflows the total.  Zero
    relative momentum passes through unchanged.
    """
    if not (m_a > 0 and m_b > 0):
        raise InvalidSpec(f"masses must be positive, got {m_a!r}, {m_b!r}")
    p_a = np.asarray(p_a, dtype=float)
    p_b = np.asarray(p_b, dtype=float)
    cos_theta = np.asarray(cos_theta, dtype=float)
    azimuth = np.asarray(azimuth, dtype=float)

    v_cm = (p_a + p_b) / (m_a + m_b)
    q = p_a - m_a * v_cm
    qn = np.linalg.norm(q, axis=-1)
    moving = qn > 0.0
    safe_qn = np.where(moving, qn, 1.0)
    e3 = q / safe_qn[..., None]

    # deterministic transverse frame: seed with x-hat unless q is x-aligned
    use_y = np.abs(e3[..., 0]) > 0.9
    helper = np.zeros_like(e3)
    helper[..., 0] = np.where(use_y, 0.0, 1.0)
    helper[..., 1] = np.where(use_y, 1.0, 0.0)
    e1 = np.cross(helper, e3)
    e1_norm = np.linalg.norm(e1, axis=-1)
    e1 = e1 / np.where(e1_norm > 0.0, e1_norm, 1.0)[..., None]
    e2 = np.cross(e3, e1)

    sin_theta = np.sqrt((1.0 - cos_theta) * (1.0 + cos_theta))
    ca, sa = np.cos(azimuth), np.sin(azimuth)
    transverse = sin_theta[..., None] * (ca[..., None] * e1 + sa[..., None] * e2)
    q_new = safe_qn[..., None] * (transverse + cos_theta[..., None] * e3)

    de = safe_qn * (
        sin_theta * (ca * np.einsum("...k,...k->...", e1, v_cm)
                     + sa * np.einsum("...k,...k->...", e2, v_cm))
        + (cos_theta - 1.0) * np.einsum("...k,...k->...", e3, v_cm)
    )

    mask = moving[..., None]
    p_a_out = np.where(mask, m_a * v_cm + q_new, p_a)
    p_b_out = np.where(mask, m_b * v_cm - q_new, p_b)
    return p_a_out, p_b_out, np.where(moving, de, 0.0)


def _weighted_moments(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Accumulator row (sum w, sum wx, sum w^2, sum w^2 x, sum w^2 x^2)."""
    return np.array(
        [w.sum(), (w * x).sum(), (w * w).sum(), (w * w * x).sum(), (w * w * x * x).sum()]
    )


def _mean_stderr(m: np.ndarray) -> tuple[float, float]:
    sw, swx, sww, swwx, swwxx = m
    if sw == 0.0:
        return 0.0, 0.0
    mean = swx / sw
    var = (swwxx - 2.0 * mean * swwx + mean * mean * sww) / (sw * sw)
    return float(mean), float(math.sqrt(max(var, 0.0)))


def ensemble_heat(
    spec: CollisionSpec, mode: str, n: int, seed: int, workers: int = 1
) -> GasReport:
    """Mean energy transfer to particle a over n sampled collisions.

    Events are generated in fixed chunks of 65536, chunk c from the Philox
    substream (seed, tag, c), and partial sums are combined in chunk order,
    so the report is bit-identical for a given (spec, mode, n, seed) at any
    worker count.
    """
    if n < 2:
        raise InvalidSpec(f"need n >= 2 samples, got {n}")
    flux = spec.flux_weighting if spec.flux_weighting is not None else (mode == "product")

    def chunk_stats(c: int) -> tuple[np.ndarray, np.ndarray | None]:
        size = min(CHUNK, n - c * CHUNK)
        rng = substream(seed, _STREAM_TAG, c)
        p_a, p_b, cos_theta, azimuth = draw_pairs(spec, mode, rng, size)
        _, _, de = collide(p_a, p_b, spec.m_a, spec.m_b, cos_theta, azimuth)
        if flux:
            w = np.linalg.norm(p_a / spec.m_a - p_b / spec.m_b, axis=-1)
        else:
            w = np.ones(size)
        de_m = _weighted_moments(de, w)
        if mode == "entangled":
            e_a = (p_a * p_a).sum(axis=-1) / (2.0 * spec.m_a)
            return de_m, _weighted_moments(de / e_a, w)
        return de_m, None

    n_chunks = (n + CHUNK - 1) // CHUNK
    workers = max(1, workers)
    if workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk_stats, range(n_chunks)))
    else:
        parts = [chunk_stats(c) for c in range(n_chunks)]

    de_total = np.zeros(5)
    gain_total = np.zeros(5)
    for de_m, gain_m in parts:  # fixed chunk order keeps sums deterministic
        de_total += de_m
        if gain_m is not None:
            gain_total += gain_m

    mean_de, stderr_de = _mean_stderr(de_total)
    if mode == "entangled":
        mean_gain, stderr_gain = _mean_stderr(gain_total)
    else:
        mean_gain, stderr_gain = None, None

    if mean_de != 0.0 and abs(mean_de) >= 3.0 * stderr_de:
        verdict = 1 if mean_de > 0 else -1
    else:
        verdict = 0

    return GasReport(
        mode=mode,
        n_samples=n,
        x=x_parameter(spec),
        mean_de_a=mean_de,
        stderr_de_a=stderr_de,
        mean_fractional_gain=mean_gain,
        stderr_fractional_gain=stderr_gain,
        verdict=verdict,
    )
