"""Monte Carlo single-collision model of two dilute gases.

Two ensembles over incoming momentum pairs are compared.  In entangled
mode the pair is perfectly correlated: one Gaussian-distributed vector k
(per-component variance 1/gamma) sets both momenta, p_a = alpha_a*k
and p_b = alpha_b*k, which leaves each marginal Maxwell-Boltzmann at its
own temperature while fixing the energy-flow direction of every single
collision through the closed form 4x(x-1)sin^2(theta/2).  In product mode
the two momenta are drawn independently from Maxwell-Boltzmann
distributions, and the mean energy flow reverts to hot-loses-energy.

Collisions are elastic two-body events; the scattering angle law is
isotropic (cos(theta) uniform, azimuth uniform).  The azimuth is measured
from the center-of-mass velocity V's component across the relative
momentum q, so an event's energy transfer needs only the scalar
invariants |V x q| and V . q, and each ensemble mean is checked against
its exact expectation (exact_mean).  hbar = k_B = 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, finite_real, integer_at_least
from .qmath import substream

# events per substream chunk: results depend on (spec, mode, n, seed), not workers
CHUNK = 1 << 16
_STREAM_TAG = 0x676173  # distinguishes gas draws from other consumers of a seed
# events per slice of the energy kernel; no bit depends on it.  Median ms of a
# 5e5-event gas command over 31 interleaved rounds (2 vCPU, numpy 2.4.6):
#   BLOCK   entangled 1 / 2 workers   product 1 / 2 workers
#   4096    107.7 / 75.9              140.9 / 88.6
#   8192     89.7 / 65.5              122.3 / 83.2
#   16384    91.3 / 62.9              128.7 / 77.3
BLOCK = 8192


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
    flux_weighting: bool | None = None

    def __post_init__(self) -> None:
        for name in ("m_a", "m_b", "t_a", "t_b", "gamma"):
            object.__setattr__(self, name, finite_real(getattr(self, name), name, positive=True))
        # the sampler divides by these sums and roots: an overflow (or an
        # underflow to 0) would turn the whole report into NaN
        derived = {
            "m_a + m_b": self.m_a + self.m_b,
            "m_a * t_a": self.m_a * self.t_a,
            "m_b * t_b": self.m_b * self.t_b,
            "1 / gamma": 1.0 / self.gamma,
            "alpha_a": self.alpha_a,
            "alpha_b": self.alpha_b,
            "reversal_ratio": self.reversal_ratio,
        }
        for name, val in derived.items():
            if not (val > 0 and math.isfinite(val)):
                raise InvalidSpec(f"derived {name} = {val!r} is not positive and finite")

    @property
    def alpha_a(self) -> float:
        """Momentum scale of gas a: T_a = alpha_a^2 / (gamma * m_a)."""
        return math.sqrt(self.gamma * self.t_a * self.m_a)

    @property
    def alpha_b(self) -> float:
        return math.sqrt(self.gamma * self.t_b * self.m_b)

    @property
    def reversal_ratio(self) -> float:
        """(m_a/m_b) * (T_b/T_a); above 1, particle a gains in every collision."""
        return (self.m_a / self.m_b) * (self.t_b / self.t_a)


@dataclass(frozen=True)
class GasReport:
    """Ensemble mean energy transfer to particle a, with standard errors.

    mean_fractional_gain and max_event_gap are populated in entangled mode
    only (there every event shares the closed-form ratio de_a / E_a =
    2x(x-1)(1 - cos(theta)), and max_event_gap is the largest distance of an
    event from it).  verdict is the sign of mean_de_a when it clears three
    standard errors, else 0.  exact_mean_de_a is the expectation of de_a
    (exact_mean) and z_de_a = (mean_de_a - exact_mean_de_a) / stderr_de_a;
    where stderr_de_a is 0 (every event equal, as at x = 1) z_de_a is the
    unscaled difference, so that it stays finite.
    """

    mode: str
    n_samples: int
    x: float
    mean_de_a: float
    stderr_de_a: float
    mean_fractional_gain: float | None
    stderr_fractional_gain: float | None
    verdict: int
    exact_mean_de_a: float
    z_de_a: float
    max_event_gap: float | None


def x_parameter(spec: CollisionSpec) -> float:
    """x = [m_a/(m_a+m_b)] * [(alpha_a+alpha_b)/alpha_a].

    x > 1 exactly when (m_a/m_b)(T_b/T_a) > 1; then particle a gains
    kinetic energy in every non-forward entangled-mode collision.
    """
    return (spec.m_a / (spec.m_a + spec.m_b)) * (spec.alpha_a + spec.alpha_b) / spec.alpha_a


def _fill_pairs(spec: CollisionSpec, mode: str, rng, p_a, p_b, cos_theta, azimuth) -> None:
    """n incoming momentum pairs and their scattering angles, written into
    the (n, 3) momenta and length-n angles given.  Entangled mode draws 3
    normals per event for the shared vector k (per component variance
    1/gamma) and sets p_a = alpha_a k, p_b = alpha_b k; product mode draws
    3 + 3 normals for independent Maxwellian momenta (per-component
    variance m T, mean kinetic energy (3/2) T).  Both then draw cos(theta)
    uniform on [-1, 1] and the azimuth uniform on [0, 2 pi): uniform(lo,
    hi) is lo + (hi - lo) u, so scaling random() in place keeps every bit."""
    if mode == "entangled":
        rng.standard_normal(out=p_b)  # k
        p_b *= math.sqrt(1.0 / spec.gamma)
        np.multiply(p_b, spec.alpha_a, out=p_a)
        p_b *= spec.alpha_b
    elif mode == "product":
        for p, scale in ((p_a, spec.m_a * spec.t_a), (p_b, spec.m_b * spec.t_b)):
            rng.standard_normal(out=p)
            p *= math.sqrt(scale)
    else:
        raise InvalidSpec(f"mode must be 'entangled' or 'product', got {mode!r}")
    rng.random(out=cos_theta)
    cos_theta *= 2.0
    cos_theta -= 1.0
    rng.random(out=azimuth)
    azimuth *= 2.0 * math.pi


def _dot(a, b):
    # numpy 2.4.6's einsum("...k,...k->...") order for length 3, checked bit for bit
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _square(a):
    # the order of (a * a).sum(axis=-1) and of numpy.linalg.norm
    return (a[0] * a[0] + a[1] * a[1]) + a[2] * a[2]


def _norm(a):
    return np.sqrt(_square(a))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _invariants(p_a, p_b, m_a: float, m_b: float):
    """Center-of-mass velocity V, relative momentum q = p_a - m_a V and
    c = V x q of momentum component triples p_a, p_b."""
    v_cm = tuple((a + b) / (m_a + m_b) for a, b in zip(p_a, p_b))
    q = tuple(a - m_a * v for a, v in zip(p_a, v_cm))
    return v_cm, q, _cross(v_cm, q)


def _de_a(v_cm, q, c, cos_theta, azimuth) -> np.ndarray:
    """Energy gained by particle a, V . (q' - q), with the azimuth measured
    from V's component across q: sin(theta) cos(phi) |V x q| + (cos(theta) -
    1) V . q.  cos(theta) - 1 stays one subtraction, so near-forward events
    keep their relative accuracy, and q = 0 gives 0."""
    sin_theta = np.sqrt((1.0 - cos_theta) * (1.0 + cos_theta))
    return sin_theta * np.cos(azimuth) * _norm(c) + (cos_theta - 1.0) * _dot(v_cm, q)


def _event_arrays(mode: str, flux: bool, n: int) -> tuple:
    # energy_events' (de_a, w, gain): w only with flux, gain only in entangled mode
    return np.empty(n), np.empty(n) if flux else None, np.empty(n) if mode == "entangled" else None


def energy_events(spec: CollisionSpec, mode: str, flux: bool, p_a, p_b, cos_theta, azimuth, out=None):
    """Per-event energy gained by particle a, flux weight and fractional
    gain of n collisions, without building the outgoing momenta.

    Takes _fill_pairs' (n, 3) momenta and length-n angles.  Returns (de_a,
    w, gain, gap): de_a = V . (q' - q), w = |p_a/m_a - p_b/m_b| (None
    when flux is off), gain = de_a / E_a and gap, the largest |gain -
    2x(x-1)(1 - cos(theta))| over the events (both None outside entangled
    mode).  The kernel runs over slices of BLOCK events, each written into
    arrays of all n: new ones, or ``out`` = (de_a, w, gain) laid out alike.
    """
    de, w, gain = _event_arrays(mode, flux, len(cos_theta)) if out is None else out
    gap = 0.0 if gain is not None else None
    x = x_parameter(spec)
    mean_gain = 2.0 * x * (x - 1.0)  # the closed form at 1 - cos(theta) = 1
    for lo in range(0, len(de), BLOCK):
        s = slice(lo, lo + BLOCK)
        a, b = tuple(p_a[s].T), tuple(p_b[s].T)  # strided x, y, z views, not copies
        de[s] = _de_a(*_invariants(a, b, spec.m_a, spec.m_b), cos_theta[s], azimuth[s])
        if w is not None:
            w[s] = _norm(tuple(u / spec.m_a - v / spec.m_b for u, v in zip(a, b)))
        if gain is not None:
            gain[s] = de[s] / (_square(a) / (2.0 * spec.m_a))
            closed = mean_gain * (1.0 - cos_theta[s])
            gap = np.maximum(gap, np.abs(gain[s] - closed).max())
    return de, w, gain, None if gap is None else float(gap)


def _weighted_moments(x: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Row (sum w, sum wx, sum w^2, sum w^2 x, sum w^2 x^2); w None is unit
    weights, summed without multiplying by 1.0, which gives the same bits."""
    if w is None:
        sx = x.sum()
        return np.array([x.size, sx, x.size, sx, (x * x).sum()], dtype=float)
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


def exact_mean(spec: CollisionSpec, mode: str, flux: bool) -> float:
    """Exact expectation of the energy gained by particle a per event.

    An isotropic q' averages out of V . (q' - q).  Flux weighting by |g|
    turns <|g|^2> = 3 s^2 into <|g|^3>/<|g|> = 4 s^2, hence the factor 4
    against 3.  Product mode gives factor m_a m_b (T_b - T_a)/M^2, the
    elastic transfer factor 4 m_a m_b/M^2 (Landau and Lifshitz, Mechanics,
    section 17) at T_b - T_a; entangled mode gives factor x(x-1) T_a.
    """
    factor = 4.0 if flux else 3.0
    if mode == "entangled":
        x = x_parameter(spec)
        return factor * x * (x - 1.0) * spec.t_a
    total = spec.m_a + spec.m_b
    return factor * (spec.m_a / total) * (spec.m_b / total) * (spec.t_b - spec.t_a)


def ensemble_heat(
    spec: CollisionSpec, mode: str, n: int, seed: int, workers: int = 1
) -> GasReport:
    """Mean energy transfer to particle a over n sampled collisions.

    Events are generated in fixed chunks of 65536, chunk c from the Philox
    substream (seed, tag, c) by worker c mod workers, into arrays each
    worker allocates once; partial sums are combined in chunk order, so
    the report is bit-identical for a given (spec, mode, n, seed) at any
    worker count.
    """
    n = integer_at_least(n, "n", 2)
    flux = spec.flux_weighting if spec.flux_weighting is not None else (mode == "product")
    n_chunks = (n + CHUNK - 1) // CHUNK
    workers = min(max(1, workers), n_chunks)

    def worker(k: int) -> list:
        # chunks k, k + workers, ...: each drawn into this worker's arrays and reduced
        m = min(CHUNK, n)
        pairs = (np.empty((m, 3)), np.empty((m, 3)), np.empty(m), np.empty(m))
        events = _event_arrays(mode, flux, m)
        parts = []
        for c in range(k, n_chunks, workers):
            cut = [None if a is None else a[: n - c * CHUNK] for a in (*pairs, *events)]
            _fill_pairs(spec, mode, substream(seed, _STREAM_TAG, c), *cut[:4])
            de, w, gain, gap = energy_events(spec, mode, flux, *cut[:4], out=cut[4:])
            moments = [None if x is None else _weighted_moments(x, w) for x in (de, gain)]
            parts.append((*moments, gap))
        return parts

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(worker, range(workers)))
    else:
        done = [worker(0)]
    parts = [done[c % workers][c // workers] for c in range(n_chunks)]

    de_total = np.zeros(5)
    gain_total = np.zeros(5)
    for de_m, gain_m, _ in parts:  # fixed chunk order keeps sums deterministic
        de_total += de_m
        if gain_m is not None:
            gain_total += gain_m

    mean_de, stderr_de = _mean_stderr(de_total)
    if mode == "entangled":
        mean_gain, stderr_gain = _mean_stderr(gain_total)
        max_gap = float(np.max([gap for _, _, gap in parts]))
    else:
        mean_gain, stderr_gain, max_gap = None, None, None

    if mean_de != 0.0 and abs(mean_de) >= 3.0 * stderr_de:
        verdict = 1 if mean_de > 0 else -1
    else:
        verdict = 0
    exact = exact_mean(spec, mode, flux)

    return GasReport(
        mode=mode,
        n_samples=n,
        x=x_parameter(spec),
        mean_de_a=mean_de,
        stderr_de_a=stderr_de,
        mean_fractional_gain=mean_gain,
        stderr_fractional_gain=stderr_gain,
        verdict=verdict,
        exact_mean_de_a=exact,
        z_de_a=(mean_de - exact) / stderr_de if stderr_de > 0.0 else mean_de - exact,
        max_event_gap=max_gap,
    )
