"""Fixed reference work that gauges how fast the machine runs right now.

The benchmark runs on shared virtual machines whose speed drifts by a fifth
or more over minutes, as neighbours come and go.  The drift moves every pass
of a run, and its set-up probes, together, so a median over one run cannot
remove it.  The reference work is a fixed list of tasks of the kinds the
workloads do: bulk numpy arrays allocated afresh (as the gas chunks are),
batches of small Hermitian eigensolves (as the ineq trials do) and large
complex products and eigensolves (as exchange does).  It uses no
``entroflow`` code, so a change to the program never changes its duration.
At more than one worker the tasks are spread over a thread pool, as
``entroflow`` spreads its trials and chunks, so the reference also feels
what slows threads down: a busy second CPU and hand-offs of the
interpreter lock.

The harness times the work before every pass, at the pass's worker count,
and scales the pass times by ``REFERENCE_S / median(reference times)`` at
that worker count: a timing then reads as seconds on a machine where the
reference work, at the pass's worker count, takes ``REFERENCE_S``.  The work
runs in a child process of its own (``Reference``), so that its memory does
not count in the peak resident memory of the benchmark process.
"""

from __future__ import annotations

import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# sets the scale of the timings only; on the machine the baseline was taken on
# (2 vCPUs, Python 3.11, numpy 2.4) the reference work took 0.28-0.52 s
REFERENCE_S = 0.3

_ROWS = 1 << 16


def _arrays(seed: int) -> float:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((_ROWS, 3))
    b = rng.uniform(-1.0, 1.0, _ROWS)
    c = np.cross(a, a[::-1]) * b[:, None]
    return float(np.linalg.norm(c, axis=-1).sum())


def _small_eig(seed: int) -> float:
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(100):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        total += float(np.linalg.eigvalsh(m + m.conj().T)[0])
    return total


def _dense(seed: int) -> float:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((288, 288)) + 1j * rng.standard_normal((288, 288))
    h = (m @ m.conj().T) @ m
    return float(np.linalg.eigvalsh(h + h.conj().T)[0])


# 8 array tasks, 4 dense tasks and 24 eigensolve batches, interleaved so
# that every worker gets a share of each kind
_KINDS = [(_arrays, s) for s in range(8)] + [(_dense, s) for s in range(4)]
_BATCHES = [(_small_eig, s) for s in range(24)]
TASKS = [task for pair in zip(_BATCHES[::2], _BATCHES[1::2], _KINDS) for task in pair]


def _run(task) -> float:
    fn, seed = task
    return fn(seed)


def reference_time(threads: int) -> float:
    """Seconds to run every reference task once, on ``threads`` workers."""
    if threads == 1:
        start = perf_counter()
        for task in TASKS:
            _run(task)
        return perf_counter() - start
    with ThreadPoolExecutor(max_workers=threads) as pool:
        start = perf_counter()
        list(pool.map(_run, TASKS))
        return perf_counter() - start


class Reference:
    """A child process that times the reference work on request.

    Use as a context manager; leaving it ends the child and waits for it.
    """

    def __enter__(self) -> "Reference":
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def time(self, threads: int) -> float:
        """Seconds the child took to run the reference work on ``threads``
        workers."""
        self._child.stdin.write(f"{threads}\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with code {self._child.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        try:
            self._child.stdin.close()
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


def _serve() -> None:
    # one request per line: the worker count; one reply per line: seconds
    for line in sys.stdin:
        print(reference_time(int(line)), flush=True)


if __name__ == "__main__":
    _serve()
