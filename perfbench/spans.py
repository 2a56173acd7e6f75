"""Span recorder for the traced run.

While installed, a ``Recorder`` replaces the public functions of each
``entroflow`` module with wrappers that record one span per call: name,
calling module, start, end, thread, parent span and root command.  Modules
bind names such as ``from .qmath import partial_trace`` at import, so every
binding of a wrapped function is patched in each module namespace that holds
it; ``numpy.linalg.eigvalsh`` and ``eigh`` are looked up at call time, so
patching them once counts every eigensolve.  ``uninstall`` restores every
name.  Spans stay in memory until the caller takes them.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import math
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer module -> public functions wrapped where they are bound
FUNCTIONS = {
    "qmath": (
        "substream",
        "random_density",
        "haar_unitary",
        "partial_trace",
        "kron",
        "eig_hermitian",
        "unitarity_defect",
    ),
    "states": (
        "gibbs_state",
        "von_neumann_entropy",
        "relative_entropy",
        "mutual_information",
        "trace_distance",
    ),
    "inequalities": ("check_ssa", "average_correlation_bound", "gibbs_evolution_identity"),
    "exchange": ("givens_unitary", "run_exchange", "partial_swap", "clausius_cycle"),
    "gas": ("ensemble_heat",),
    "cli": ("make_envelope", "parallel_map", "cmd_ineq", "cmd_exchange", "cmd_clausius", "cmd_gas"),
}
# (layer module, class, method, span name): methods patched on the class;
# a DensityOperator is validated in __post_init__, so that span is its
# construction
METHODS = (
    ("states", "DensityOperator", "__post_init__", "states.DensityOperator"),
    ("inequalities", "AncillaChannel", "apply", "inequalities.AncillaChannel.apply"),
)
EIGENSOLVERS = ("eigvalsh", "eigh")
LAYERS = tuple(FUNCTIONS)

# span record fields, in tuple order
FIELDS = ("id", "parent", "name", "caller", "start", "end", "thread", "root", "failed", "work")
_ID, _PARENT, _NAME, _CALLER, _START, _END, _THREAD, _ROOT, _FAILED, _WORK = range(len(FIELDS))


def _span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("cmd_"):
        return "cli.cmd"
    return f"{layer}.{attr}"


def _partial_trace_elems(args, kwargs) -> int:
    return int(np.size(args[0] if args else kwargs["m"]))


def _eig_shape(args, kwargs) -> tuple[int, int]:
    shape = np.shape(args[0] if args else kwargs["a"])
    return math.prod(shape[:-2]), shape[-1]


_WORK_OF = {"qmath.partial_trace": _partial_trace_elems, "linalg.eig": _eig_shape}


class Recorder:
    """Records spans from the moment ``install`` is called until
    ``uninstall``; use it as a context manager."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.root: str | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------- spans --

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, caller: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        work = _WORK_OF.get(name)
        spans, stack_of, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    (sid, parent, name, caller, start, end, threading.get_ident(), self.root,
                     failed, work(args, kwargs) if work else 0)
                )

        return traced

    def command(self, label: str, fn, *args):
        """Run one root command span, ``cli.main``, labelled ``label``."""
        self.root = label
        try:
            return self.wrap("cli.main", "harness", fn)(*args)
        finally:
            self.root = None

    def take(self) -> list[tuple]:
        """Remove and return every span recorded so far."""
        spans = self.spans[:]
        del self.spans[: len(spans)]
        return spans

    # ---------------------------------------------------------- patching --

    def _patch(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "entroflow" or name.startswith("entroflow.")
        }
        layer_mods = {layer: modules.get(f"entroflow.{layer}") for layer in LAYERS}
        if any(mod is None for mod in layer_mods.values()):
            raise RuntimeError("import entroflow.cli before installing the recorder")

        for layer, attrs in FUNCTIONS.items():
            for attr in attrs:
                fn = vars(layer_mods[layer]).get(attr)
                if fn is None:
                    continue
                name = _span_name(layer, attr)
                for mod_name, mod in modules.items():
                    caller = mod_name.rpartition(".")[2]
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, bound, self._wrapper(name, caller, fn))

        for layer, cls_name, attr, name in METHODS:
            cls = vars(layer_mods[layer]).get(cls_name)
            if cls is not None and attr in vars(cls):
                self._patch(cls, attr, self.wrap(name, layer, vars(cls)[attr]))

        for attr in EIGENSOLVERS:
            self._patch(np.linalg, attr, self.wrap("linalg.eig", "numpy", getattr(np.linalg, attr)))

        # gas chunks run in a thread pool: record each submitted task
        executor = vars(layer_mods["gas"]).get("ThreadPoolExecutor")
        if executor is not None:
            self._patch(layer_mods["gas"], "ThreadPoolExecutor", self._traced_executor(executor, "gas.chunk"))

    def _wrapper(self, name: str, caller: str, fn):
        if name != "cli.parallel_map":
            return self.wrap(name, caller, fn)
        # parallel_map(fn, items, workers): record each task as cli.task
        rec = self

        def parallel_map(task, *args, **kwargs):
            return fn(rec.wrap("cli.task", caller, task), *args, **kwargs)

        return self.wrap(name, caller, functools.wraps(fn)(parallel_map))

    def _traced_executor(self, base, name: str):
        rec = self

        class TracedExecutor(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(rec.wrap(name, "gas", fn), *args, **kwargs)

        return TracedExecutor

    def uninstall(self) -> None:
        for owner, attr, had, value in reversed(self._patches):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ------------------------------------------------------------- analysis ----

def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans.

    A child is always on its parent's thread (parents come from a
    thread-local stack), and children of one span never overlap.
    """
    child = defaultdict(float)
    for s in spans:
        if s[_PARENT]:
            child[s[_PARENT]] += s[_END] - s[_START]
    return {s[_ID]: s[_END] - s[_START] - child[s[_ID]] for s in spans}


def write_jsonl_gz(spans: list[tuple], path) -> None:
    """One JSON object per span, gzipped; times in seconds from the first
    span's start."""
    origin = min((s[_START] for s in spans), default=0.0)
    with gzip.open(path, "wt") as fh:
        for s in spans:
            rec = dict(zip(FIELDS, s))
            rec["start"] = s[_START] - origin
            rec["end"] = s[_END] - origin
            fh.write(json.dumps(rec) + "\n")


# spans reported as <name>.calls and <name>.self_s
TIMED = (
    *(f"qmath.{fn}" for fn in FUNCTIONS["qmath"]),
    "linalg.eig",
    "states.DensityOperator",
    *(f"states.{fn}" for fn in FUNCTIONS["states"]),
    *(f"inequalities.{fn}" for fn in FUNCTIONS["inequalities"]),
    "inequalities.AncillaChannel.apply",
    *(f"exchange.{fn}" for fn in FUNCTIONS["exchange"]),
    "gas.ensemble_heat",
)


def layer_metrics(spans: list[tuple], pass_wall: float, workers: int, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``counts`` holds work read from the payloads: ``clausius_cycles`` and
    ``gas_events``.  Ratios whose base is zero on a workload read 0.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    wall: dict[str, float] = defaultdict(float)
    fails: dict[str, int] = defaultdict(int)
    elems = dim3_sum = max_dim = chunks = 0
    for s in spans:
        name = s[_NAME]
        calls[name] += 1
        self_s[name] += own[s[_ID]]
        wall[name] += s[_END] - s[_START]
        fails[name.partition(".")[0]] += s[_FAILED]
        if name == "qmath.partial_trace":
            elems += s[_WORK]
        elif name == "linalg.eig":
            batch, d = s[_WORK]
            dim3_sum += batch * d**3
            max_dim = max(max_dim, d)
        elif name == "qmath.substream" and s[_CALLER] == "gas":
            chunks += 1

    m: dict[str, float] = {}
    for name in TIMED:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    m["qmath.partial_trace.elems"] = elems
    m["linalg.eig.dim3_sum"] = dim3_sum
    m["linalg.eig.max_dim"] = max_dim
    states = calls["states.DensityOperator"]
    m["states.eig_per_state"] = calls["linalg.eig"] / states if states else 0.0
    m["exchange.clausius.cycles"] = counts.get("clausius_cycles", 0)
    m["gas.chunks"] = chunks
    # gas chunks run inline when there is one worker: then the whole call is busy
    busy = wall["gas.chunk"] or wall["gas.ensemble_heat"]
    m["gas.events_per_busy_s"] = counts.get("gas_events", 0) / busy if busy else 0.0
    m["cli.cmd.self_s"] = self_s["cli.cmd"]
    m["cli.make_envelope.self_s"] = self_s["cli.make_envelope"]
    m["cli.parallel_map.calls"] = calls["cli.parallel_map"]
    m["cli.parallel_map.wall_s"] = wall["cli.parallel_map"]
    pool = wall["cli.parallel_map"] * workers
    m["cli.pool.busy_ratio"] = wall["cli.task"] / pool if pool else 0.0
    for layer in LAYERS:
        m[f"{layer}.fail"] = fails[layer]
    m["trace.root_coverage"] = wall["cli.main"] / pass_wall
    return m
