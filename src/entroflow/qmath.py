"""Dense complex linear-algebra kernel and seeded random-object generation.

Conventions fixed once for the whole package:

- operators are dense complex128 numpy arrays, which ``exchange`` never
  forms; MAX_JOINT_DIM limits only the ``ineq`` and ``exchange`` command lines;
- the batched kernels (partial_trace, haar_qr, kron) act on the last two
  axes and carry any leading stack axes through, matrix by matrix;
- nothing here diagonalizes: every spectrum in the package is an
  ``eigvalsh`` in ``states``;
- the leftmost Kronecker factor is factor 0 (subsystem A), so the joint
  basis label (i, j) maps to flat index i * d_B + j;
- randomness flows through counter-based Philox streams derived from a
  64-bit master seed: every drawn object is a pure function of
  (seed, path) and independent of execution order.  Substream ``(seed,
  *path, t)`` is counter block t of the Philox keyed by ``(seed, *path)``;
- an ``ineq`` trial reads a fixed stretch of uniforms, row t of
  ``uniform_rows(seed, tag, ...)``, and every variate comes from it:
  complex normals by Box-Muller (``ginibre``), Haar unitaries (eq2's H_f
  eigenbasis and joint unitary) by ``haar_qr`` and random states by
  ``random_densities``, a batch of trials at once; a random density
  matrix comes symmetrized, exactly Hermitian: ``inequalities`` trusts it.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

# largest joint Hilbert-space dimension ``ineq`` and ``exchange`` accept on
# the command line: an ineq operator of this size takes 256 MiB, as do the
# uniforms of its trial; exchange holds at most one d x d marginal (32 KiB
# here) a side per angle set, and the planes' states
MAX_JOINT_DIM = 4096


def _philox(key: Sequence[int], steps: int) -> np.random.Philox:
    """The Philox keyed by ``SeedSequence(key)``, ``steps`` counter steps in."""
    bits = np.random.Philox(np.random.SeedSequence(key))
    bits.advance(steps)
    return bits


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the substream identified by ``(seed, *path)``:
    counter block ``path[-1]`` of the Philox keyed by ``SeedSequence((seed,
    *path[:-1]))``; ``substream(seed)`` is ``substream(seed, 0)``.

    Identical arguments yield a bit-identical stream; paths that differ
    before their last entry have different keys, and paths that differ only
    there read disjoint blocks of one stream, so ensemble members can be
    drawn in any order (or in parallel) without changing results.  A
    negative entry, or a block of 2**128 or more, raises ValueError.
    """
    *key, block = (seed, *path) if path else (seed, 0)
    block = operator.index(block)
    if not 0 <= block < 1 << 128:
        raise ValueError(f"substream counter block must be in [0, 2**128), got {block}")
    return np.random.Generator(_philox(key, block << 128))


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.swapaxes(m, -1, -2))


def scalar_or_stack(x):
    """A result of one matrix as a Python number; a stack's results (one
    per matrix) as the array."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def trace(m: np.ndarray):
    """Trace over the last two axes, one entry per matrix of a stack."""
    return scalar_or_stack(np.trace(m, axis1=-2, axis2=-1))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, left factor = factor 0;
    leading stack axes broadcast."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return out.reshape(*out.shape[:-4], rows, cols)


def partial_trace(
    m: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``, in each matrix
    of a stack (leading axes are kept).

    dims lists the local dimensions left to right (factor 0 leftmost); the
    result is ordered by ascending kept index and has the same trace as m.
    """
    dims = [int(d) for d in dims]
    total = math.prod(dims)
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a (stack of) square matrices, got shape {m.shape}")
    if m.shape[-1] != total:
        raise DimensionMismatch(
            f"matrix dimension {m.shape[-1]} != product of factor dims {total}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise DimensionMismatch("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise DimensionMismatch(f"keep indices {keep} out of range for {len(dims)} factors")

    lead = m.shape[:-2]
    t = m.reshape(*lead, *dims, *dims)
    remaining = list(dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):
        row = len(lead) + idx
        # the diagonal summed one whole slice at a time, in index order: the
        # same sums for any stack length, and far fewer numpy calls than a
        # reduction whose inner loop has the factor's length
        diag = np.moveaxis(t, (row, row + len(remaining)), (0, 1))
        t = diag[0, 0].copy()
        for k in range(1, remaining[idx]):
            t += diag[k, k]
        del remaining[idx]
    d_kept = math.prod(remaining)
    return np.ascontiguousarray(t.reshape(*lead, d_kept, d_kept))


def uniform_rows(seed: int, tag: int, first: int, count: int, k: int) -> np.ndarray:
    """Rows first, ..., first + count - 1 of the uniform table of ``(seed,
    tag)``: row t is doubles [tK, (t + 1)K) on [0, 1) of the Philox keyed by
    ``SeedSequence((seed, tag))`` (the key of ``substream(seed, tag, 0)``),
    K = k rounded up to a multiple of 4 (one counter step); so a row does not
    depend on how the rows are split into calls, and one row is one advance."""
    k = -(-k // 4) * 4
    return np.random.Generator(_philox((seed, tag), first * k // 4)).random((count, k))


def ginibre(u: np.ndarray, d: int) -> np.ndarray:
    """Stack of d x d complex Ginibre matrices, one per 2*d*d uniforms on
    [0, 1) along the last axis, by Box-Muller: each pair (u1, u2), in C
    order of the entries, gives the entry sqrt(-2 ln(1 - u1)) * (cos, sin)(2
    pi u2), whose real and imaginary parts are independent standard normals."""
    radius = np.sqrt(-2.0 * np.log1p(-u[..., 0::2]))
    return (radius * np.exp(2j * np.pi * u[..., 1::2])).reshape(*u.shape[:-1], d, d)


def haar_qr(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitary from each complex Ginibre matrix of a stack:
    its QR factor Q with the R-diagonal phases folded back in (otherwise QR
    is not measure-correct)."""
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def random_densities(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Stack of random density matrices G G-dag / tr(G G-dag), one per D x D
    Ginibre matrix of the stack g and uniform of u: G keeps the matrix's
    first 1 + floor(u D) columns, so its rank is uniform on 1..D and it has
    the law of a D x rank Ginibre matrix.  One stacked matmul forms them all,
    each symmetrized as (M + M-dag) / 2 (a small Gram product need not be
    exactly Hermitian)."""
    d = g.shape[-1]
    g = np.where(np.arange(d) < 1 + np.floor(u * d)[..., None, None], g, 0)
    grams = g @ dagger(g)
    grams /= np.trace(grams, axis1=-2, axis2=-1).real[..., None, None]
    return (grams + dagger(grams)) / 2
