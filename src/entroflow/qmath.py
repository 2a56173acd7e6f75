"""Dense complex linear-algebra kernel and seeded random-object generation.

Conventions fixed once for the whole package:

- operators are dense complex128 numpy arrays, which ``exchange`` never
  forms; MAX_JOINT_DIM limits only the ``ineq`` and ``exchange`` command lines;
- the batched kernels (partial_trace, haar_qr, kron) act on the last two
  axes and carry any leading stack axes through, matrix by matrix;
- nothing here diagonalizes: every spectrum in the package is an
  ``eigvalsh`` in ``states`` or ``exchange``;
- the leftmost Kronecker factor is factor 0 (subsystem A), so the joint
  basis label (i, j) maps to flat index i * d_B + j;
- randomness flows through counter-based Philox streams derived from a
  64-bit master seed: every drawn object is a pure function of
  (seed, substream path) and independent of execution order.  Substream
  ``(seed, *path, t)`` is counter block t of the Philox keyed by ``(seed,
  *path)``, so ``substream_draws`` keys one generator per batch and moves
  it from block to block, instead of building a ``substream`` per trial;
- a random object is drawn in two steps: ``ginibre_draw`` and
  ``density_draw`` make only the RNG calls of one object, and ``ginibre``,
  ``haar_unitaries`` and ``random_densities`` do the arithmetic on a whole
  batch of such draws at once; a random density matrix comes symmetrized,
  exactly Hermitian, as the checks of ``inequalities`` take it unvalidated.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

# largest joint Hilbert-space dimension ``ineq`` and ``exchange`` accept on
# the command line: an ineq operator of this size takes 256 MiB; exchange
# holds real arrays, one joint vector (32 KiB here) per angle set
MAX_JOINT_DIM = 4096


def _block_counter(block: int) -> np.ndarray:
    """Philox counter words, least significant first, at the start of block
    ``block`` of 2**128 draws; a block outside [0, 2**128) raises ValueError."""
    block = operator.index(block)
    if not 0 <= block < 1 << 128:
        raise ValueError(f"substream counter block must be in [0, 2**128), got {block}")
    return np.array([0, 0, block & (1 << 64) - 1, block >> 64], np.uint64)


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
    bits = np.random.Philox(np.random.SeedSequence(key), counter=_block_counter(block))
    return np.random.Generator(bits)


def substream_draws(
    draw: Callable[[np.random.Generator], object], trials: Sequence[int], seed: int, *path: int
) -> list:
    """``draw(substream(seed, *path, t))`` for every t in trials, in order.

    One ``substream(seed, *path, 0)`` is moved to block t per trial, buffer
    spent and no spare uint32, so each draw reads the exact stream of its
    ``substream`` and no trial builds a SeedSequence, a Philox or a Generator.
    """
    rng = substream(seed, *path, 0)
    state = rng.bit_generator.state
    out = []
    for t in trials:
        state["state"]["counter"] = _block_counter(t)
        rng.bit_generator.state = state
        out.append(draw(rng))
    return out


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


def ginibre_draw(shape: tuple[int, ...], rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The RNG calls of one complex Ginibre matrix of the given shape: its
    real part, then its imaginary part, 2*prod(shape) standard normals in
    all.  ``ginibre`` turns a batch of such pairs into the matrices."""
    return rng.standard_normal(shape), rng.standard_normal(shape)


def ginibre(draws: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Complex Ginibre entries re + 1j*im of a batch of ``ginibre_draw``
    pairs, as one flat array: each pair's entries in C order, pair after
    pair in batch order.  A batch of one shape reshapes it to its stack."""
    re = np.concatenate([re.ravel() for re, _ in draws])
    im = np.concatenate([im.ravel() for _, im in draws])
    return re + 1j * im


def haar_qr(g: np.ndarray) -> np.ndarray:
    """Haar-distributed unitary from each complex Ginibre matrix of a stack:
    its QR factor Q with the R-diagonal phases folded back in (otherwise QR
    is not measure-correct)."""
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def haar_unitaries(draws: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Stack of Haar-distributed unitaries, ``haar_qr`` of each square
    ``ginibre_draw`` pair of a batch, in batch order."""
    d = draws[0][0].shape[0]
    return haar_qr(ginibre(draws).reshape(len(draws), d, d))


def density_draw(d: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The RNG calls of one random density matrix on d levels: its rank,
    uniform on 1..d, then ``ginibre_draw((d, rank))`` for its factor G."""
    return ginibre_draw((d, int(rng.integers(1, d + 1))), rng)


def random_densities(draws: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Stack of random density matrices G G-dag / tr(G G-dag), one per
    ``density_draw`` pair of a batch, in batch order, each symmetrized as
    (M + M-dag) / 2 (a small Gram product need not be exactly Hermitian).

    The Gram products run as one stacked matmul per rank; each matrix has
    the bits it has when formed alone.
    """
    # sorted by rank (stably), the factors of each rank are one run of the
    # flat Ginibre entries, and their Gram matrices one run of the stack
    ranks = np.array([re.shape[-1] for re, _ in draws])
    order = np.argsort(ranks, kind="stable")
    entries = ginibre([draws[t] for t in order])
    d = draws[0][0].shape[0]
    grams = np.empty((len(draws), d, d), dtype=complex)
    counts = np.bincount(ranks).tolist()
    first = start = 0
    for rank, count in enumerate(counts):
        if not count:
            continue
        g = entries[start : start + count * d * rank].reshape(count, d, rank)
        np.matmul(g, dagger(g), out=grams[first : first + count])
        first, start = first + count, start + g.size
    grams /= np.trace(grams, axis1=-2, axis2=-1).real[:, None, None]
    out = np.empty_like(grams)
    out[order] = (grams + dagger(grams)) / 2
    return out
