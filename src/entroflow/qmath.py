"""Dense complex linear-algebra kernel and seeded random-object generation.

Conventions fixed once for the whole package:

- operators are dense complex128 numpy arrays; joint dimensions stay
  small (<= MAX_JOINT_DIM), so nothing here is sparse or structured;
- the batched kernels (partial_trace, haar_qr, kron) act on the last two
  axes and carry any leading stack axes through, matrix by matrix;
- nothing here diagonalizes: every spectrum in the package is an
  ``eigvalsh`` in ``states``;
- the leftmost Kronecker factor is factor 0 (subsystem A), so the joint
  basis label (i, j) maps to flat index i * d_B + j;
- randomness flows through counter-based Philox streams derived from a
  64-bit master seed: every drawn object is a pure function of
  (seed, substream path) and independent of execution order.  A Philox
  stream is fixed by its 128-bit key alone, so ``substream_draws`` derives
  the keys of a whole range of trials in one vectorised pass
  (``substream_keys``) and re-keys one generator per trial, instead of
  building a ``substream`` for each;
- a random object is drawn in two steps: ``ginibre_draw`` and
  ``density_draw`` make only the RNG calls of one object, and ``ginibre``,
  ``haar_unitaries`` and ``random_densities`` do the arithmetic on a whole
  batch of such draws at once.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

# largest joint Hilbert-space dimension the command line accepts: a dense
# complex operator of this size takes 256 MiB
MAX_JOINT_DIM = 4096


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator for the substream identified by ``(seed, *path)``.

    Identical arguments yield a bit-identical stream; distinct paths yield
    statistically independent streams, so ensemble members can be drawn in
    any order (or in parallel) without changing results.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))


def substream_keys(trials: Sequence[int], seed: int, *path: int) -> np.ndarray:
    """Philox keys of ``substream(seed, *path, t)`` for every t in trials, as
    an (n, 2) uint64 array: numpy's ``SeedSequence`` entropy hash (a pool of
    4 words) and ``generate_state(2, np.uint64)``, run in uint32 arithmetic
    over all trials at once."""
    mask = 0xFFFFFFFF

    def consts(init: int, mult: int, steps: int) -> np.ndarray:
        # the multipliers one hash steps through, as a column
        out = accumulate(range(steps), lambda h, _: h * mult & mask, initial=init)
        return np.array(list(out), np.uint32)[:, None]

    def hashmix(value, c):
        # one hash call per row of c[:-1]: xor with c[i], multiply by c[i + 1]
        value = (value ^ c[:-1]) * c[1:]
        return value ^ value >> 16

    def mix(x, y):
        out = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return out ^ out >> 16

    if min((seed, *path)) < 0:
        raise ValueError(f"substream path entries must be non-negative, got {(seed, *path)}")
    # SeedSequence's entropy words of each integer, least significant first
    prefix = [n >> s & mask for n in (seed, *path) for s in range(0, max(n.bit_length(), 1), 32)]
    t = np.asarray(trials, dtype=np.uint64).reshape(-1)
    keys = np.empty((t.size, 2), np.uint64)
    # a trial number of 2**32 or more is two entropy words, one below is one
    for rows, size in ((t <= mask, len(prefix) + 1), (t > mask, len(prefix) + 2)):
        if not rows.any():
            continue
        words = np.zeros((max(size, 4), int(rows.sum())), np.uint32)
        words[: len(prefix)] = np.array(prefix, np.uint32)[:, None]
        words[len(prefix)] = t[rows] & mask
        if size > len(prefix) + 1:
            words[size - 1] = t[rows] >> 32
        c = consts(0x43B0D7E5, 0x931E8875, 16 + 4 * max(size - 4, 0))
        pool = hashmix(words[:4], c[:5])
        # each pool word mixed into the other three, then any extra word into all four
        for src in range(4):
            dst = [d for d in range(4) if d != src]
            pool[dst] = mix(pool[dst], hashmix(pool[src], c[4 + 3 * src : 8 + 3 * src]))
        for i, word in enumerate(words[4:size]):
            pool = mix(pool, hashmix(word, c[16 + 4 * i : 21 + 4 * i]))
        state = hashmix(pool, consts(0x8B51F9DD, 0x58F38DED, 4)).astype(np.uint64)
        keys[rows] = (state[0::2] | state[1::2] << 32).T
    return keys


def substream_draws(
    draw: Callable[[np.random.Generator], object], trials: Sequence[int], seed: int, *path: int
) -> list:
    """``draw(substream(seed, *path, t))`` for every t in trials, in order.

    One Philox is re-keyed per trial from ``substream_keys`` and reset to
    counter 0 with an empty buffer, so each draw reads the exact stream of
    its ``substream`` while no trial builds a SeedSequence, a Philox or a
    Generator; the re-keyed generator never leaves this function.
    """
    bits = np.random.Philox(0)
    rng = np.random.Generator(bits)
    # a fresh Philox's state: counter 0, buffer spent, no spare uint32
    state = bits.state
    out = []
    for key in substream_keys(trials, seed, *path).tolist():
        state["state"]["key"] = key
        bits.state = state
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
    ``density_draw`` pair of a batch, in batch order.

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
    out[order] = grams
    return out
