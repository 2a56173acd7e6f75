"""Dense complex linear-algebra kernel and seeded random-object generation.

Conventions fixed once for the whole package:

- operators are dense complex128 numpy arrays; target joint dimensions
  stay small (<= 4096), so nothing here is sparse or structured;
- eigenvalues are always reported in ascending order;
- the leftmost Kronecker factor is factor 0 (subsystem A), so the joint
  basis label (i, j) maps to flat index i * d_B + j;
- randomness flows through counter-based Philox streams derived from a
  64-bit master seed: every drawn object is a pure function of
  (seed, substream path) and independent of execution order.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

# max-abs tolerance on H - H^dag before an operator is rejected
HERMITIAN_TOL = 1e-10


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the substream identified by ``(seed, *path)``.

    Identical arguments yield a bit-identical stream; distinct paths yield
    statistically independent streams, so ensemble members can be drawn in
    any order (or in parallel) without changing results.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.swapaxes(m, -1, -2))


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude; 0.0 for empty input."""
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def hermiticity_defect(m: np.ndarray) -> float:
    """max-abs deviation of M from its conjugate transpose."""
    return max_abs(m - dagger(m))


def unitarity_defect(u: np.ndarray) -> float:
    """max-abs deviation of U-dag U from the identity."""
    u = np.asarray(u)
    return max_abs(dagger(u) @ u - np.eye(u.shape[-1]))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor = factor 0."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _require_square(m: np.ndarray) -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition H = V diag(w) V-dag with w ascending.

    The input must be Hermitian within HERMITIAN_TOL (max-abs); it is
    symmetrized before factorization to absorb accumulation error from
    operator products.
    """
    h = np.asarray(h, dtype=complex)
    _require_square(h)
    # the gate scales with the operator norm above 1: rounding asymmetry of
    # products and matrix functions grows with the entries themselves
    gate = HERMITIAN_TOL * max(1.0, max_abs(h))
    if hermiticity_defect(h) > gate:
        raise NotHermitian(
            f"max |H - H^dag| = {hermiticity_defect(h):.3e} exceeds {gate:.3e}"
        )
    sym = (h + dagger(h)) / 2
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return w, v


def func_hermitian(h: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a real function to a Hermitian operator through its spectrum.
    f takes the eigenvalue array and returns an array of its shape or a
    scalar (which broadcasts); a numpy ufunc does."""
    w, v = eig_hermitian(h)
    return (v * np.asarray(f(w), dtype=float)) @ dagger(v)


def partial_trace(
    m: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    dims lists the local dimensions left to right (factor 0 leftmost); the
    result is ordered by ascending kept index and has the same trace as m.
    """
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    m = np.asarray(m, dtype=complex)
    _require_square(m)
    if m.shape[0] != total:
        raise DimensionMismatch(
            f"matrix dimension {m.shape[0]} != product of factor dims {total}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise DimensionMismatch("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise DimensionMismatch(f"keep indices {keep} out of range for {len(dims)} factors")

    t = m.reshape(dims + dims)
    remaining = list(dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(remaining))
        del remaining[idx]
    d_kept = math.prod(remaining)
    return np.ascontiguousarray(t.reshape(d_kept, d_kept))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    R-diagonal phases folded back in (otherwise QR is not measure-correct).

    Consumes exactly 2*d*d standard normals from ``rng``.
    """
    if d < 1:
        raise DimensionMismatch(f"dimension must be >= 1, got {d}")
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_density(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-``rank`` density matrix G G-dag / tr(G G-dag), with G a
    d x rank matrix of independent standard complex Gaussian entries.

    Consumes exactly 2*d*rank standard normals from ``rng``.
    """
    if not 1 <= rank <= d:
        raise DimensionMismatch(f"need 1 <= rank <= d, got rank={rank}, d={d}")
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real
