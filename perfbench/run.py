#!/usr/bin/env python3
"""Benchmark of the entroflow command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensembles --seed 1 --seconds 50 --trace 0

One closed-loop client drives ``entroflow.cli.main`` in this process.  A
pass runs the workload's commands in order, each writing its output to a
file that is read back only for the correctness gate.  Passes alternate
between ``ENTROFLOW_THREADS`` = nproc and 1 (``--trace 0``), or between
untraced and traced passes at nproc (``--trace 1``), until ``--seconds``
have passed.  Set-up time is measured in fresh interpreters that import
``entroflow`` and generate the inputs.  A fixed reference work, timed
before every pass in a child process, gauges the machine's speed, and the
reported timings are scaled by it (see ``reference.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.  The full result, with quartiles,
sample counts, failures and the run environment, goes to
``.perfbench-out/result-<workload>-seed<seed>-trace<0|1>.json`` and the spans
of the first traced pass to ``.perfbench-out/trace-<workload>-seed<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans as spanlib
import workloads
from reference import REFERENCE_S, Reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_PROBES = 5  # at least; one more per three passes
MIN_PASSES = 3
MAX_FAILURES_KEPT = 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "entroflow" / "__init__.py").is_file():
        print(f"perfbench: no entroflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        import entroflow.cli  # noqa: F401  (the import is the set-up being timed)

        workloads.build(args.workload, args.seed, Path(args.setup_only))
        return 0
    return measure(args)


# ------------------------------------------------------------ set-up -------

def setup_time(args, workdir: Path) -> float:
    """Seconds for a fresh interpreter to import entroflow and generate the
    workload inputs, then exit."""
    workdir.mkdir(parents=True)
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed)]
    start = perf_counter()
    subprocess.run([*argv, "--setup-only", str(workdir)], check=True)
    return perf_counter() - start


# ------------------------------------------------------------ passes -------

def invoke(main, argv: list[str]) -> tuple[int | None, str | None]:
    """Exit code of one command and, when it raised, the error text.  The
    harness keeps running whatever a command does."""
    try:
        return main(argv), None
    except SystemExit as exc:  # argparse exits 2 on a bad flag
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None), None
    except Exception:
        return None, traceback.format_exc(limit=-3)


def run_pass(commands, outdir: Path, threads: int, cli, recorder=None):
    """Run every command once; return the pass wall time and, per command,
    (command, exit code, error, output text or None)."""
    os.environ["ENTROFLOW_THREADS"] = str(threads)
    paths = [outdir / f"{c.label}.out" for c in commands]
    for path in paths:
        path.unlink(missing_ok=True)
    # every pass starts from an empty collector, so no pass pays for the
    # garbage of the one before it
    gc.collect()
    results = []
    start = perf_counter()
    for command, path in zip(commands, paths):
        main = cli.main if recorder is None else functools.partial(recorder.command, command.label, cli.main)
        results.append(invoke(main, [*command.argv, "--output", str(path)]))
    wall = perf_counter() - start
    return wall, [
        (c, code, err, p.read_text() if p.is_file() else None)
        for c, (code, err), p in zip(commands, results, paths)
    ]


class Gate:
    """Counts commands attempted and failed.  A command fails its own check
    (see ``workloads.check``) or when its payload differs from the first
    pass of the same command, at any worker count."""

    def __init__(self) -> None:
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def record(self, outputs, tag: str) -> dict[str, float]:
        """Judge one pass; return the work counts read from its payloads."""
        counts: dict[str, float] = {}
        for command, code, err, text in outputs:
            self.attempted += 1
            reasons = workloads.check(command, code, text)
            if not reasons:
                payload = workloads.payload_text(command, text)
                if payload != self.reference.setdefault(command.label, payload):
                    reasons.append("payload differs from the first pass")
                for key, value in workloads.counters(command, text).items():
                    counts[key] = counts.get(key, 0) + value
            if err:
                reasons.append(err)
            if reasons:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES_KEPT:
                    self.failures.append({"command": command.label, "pass": tag, "reasons": reasons})
        return counts


# ----------------------------------------------------------- summary -------

def summary(values: list[float], unit: str) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"value": statistics.median(values), "unit": unit, "q1": q[0], "q3": q[2], "n": len(values), "samples": values}


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_record() -> dict:
    """BLAS library as numpy was built with it, and its thread count."""
    import numpy as np

    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    record: dict = {"threads_env": {name: os.environ.get(name) for name in names}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    libs = sorted({line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record.update(library=lib, threads=getter())
                return record
    return record


def environment(args, nproc: int, threads: list[int]) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(ROOT),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "entroflow_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ----------------------------------------------------------- measure -------

def metric_detail(
    setup: list[float],
    samples: dict[str, list[float]],
    per_pass: list[dict],
    rss_mb: float,
    reference: dict[int, list[float]],
    workers: dict[str, int],
) -> dict:
    """Every metric of a run with its summary.  With traced passes
    (``per_pass`` not empty) these are the per-layer metrics, medians over
    the traced passes; otherwise the end-to-end metrics.

    ``reference`` holds the reference times of the run (see
    ``reference.py``) by worker count, and ``workers`` the worker count of
    each list in ``samples``.  ``wall_s`` and ``wall_1w_s`` are scaled by
    the reference at their own worker count, and ``setup_s``, which runs
    one process, by the reference at the fewest workers of the run;
    ``raw_*`` keep the seconds as measured."""
    scale = {w: REFERENCE_S / statistics.median(times) for w, times in reference.items()}
    detail = {
        "setup_s": summary([t * scale[min(scale)] for t in setup], "s"),
        "raw_setup_s": summary(setup, "s"),
    }
    for w, times in sorted(reference.items()):
        detail[f"reference_{w}w_s"] = summary(times, "s")
    if per_pass:
        for name in per_pass[0]:
            detail[name] = {"value": statistics.median(p[name] for p in per_pass), "n": len(per_pass)}
        ratio = statistics.median(samples["traced_wall_s"]) / statistics.median(samples["wall_s"])
        detail["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio", "n": len(per_pass)}
        detail["untraced_wall_s"] = summary(samples["wall_s"], "s")
        detail["traced_wall_s"] = summary(samples["traced_wall_s"], "s")
    else:
        for key in ("wall_s", "wall_1w_s"):
            detail[key] = summary([t * scale[workers[key]] for t in samples[key]], "s")
            detail[f"raw_{key}"] = summary(samples[key], "s")
        detail["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return detail


def measure(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        with Reference() as ref:
            from entroflow import cli

            inputs = run_dir / "inputs"
            inputs.mkdir(parents=True)
            wl = workloads.build(args.workload, args.seed, inputs)
            gate = Gate()

            # untimed: closed-form probes, then one warm-up pass per worker count
            # whose payloads become the reference for every later pass
            if wl.probes:
                gate.record(run_pass(wl.probes, run_dir, nproc, cli)[1], "probe")
            for threads in (nproc, 1):
                gate.record(run_pass(wl.commands, run_dir, threads, cli)[1], f"warmup-{threads}w")

            recorder = spanlib.Recorder() if args.trace else None
            if args.trace:
                modes = (("wall_s", nproc, None), ("traced_wall_s", nproc, recorder))
            else:
                modes = (("wall_s", nproc, None), ("wall_1w_s", 1, None))
            samples: dict[str, list[float]] = {key: [] for key, _, _ in modes}
            per_pass: list[dict[str, float]] = []
            kept_spans = None
            setup: list[float] = []
            reference: dict[int, list[float]] = {}
            for _, threads, _ in modes:
                ref.time(threads)  # untimed warm-up
            deadline = perf_counter() + args.seconds
            k = 0
            while (
                perf_counter() < deadline
                or min(map(len, samples.values())) < MIN_PASSES
                or len(setup) < SETUP_PROBES
            ):
                # set-up probes are spread over the run, between passes, so that
                # their median sees the same machine as the passes do
                if k % 3 == 0:
                    setup.append(setup_time(args, run_dir / f"setup{k}"))
                key, threads, rec = modes[(k + k // 2) % 2]  # A B B A A B B A ...
                k += 1
                reference.setdefault(threads, []).append(ref.time(threads))
                if rec is None:
                    wall, outputs = run_pass(wl.commands, run_dir, threads, cli)
                    gate.record(outputs, key)
                else:
                    with rec:
                        wall, outputs = run_pass(wl.commands, run_dir, threads, cli, rec)
                    counts = gate.record(outputs, key)
                    spans = rec.take()
                    per_pass.append(spanlib.layer_metrics(spans, wall, threads, counts))
                    if kept_spans is None:
                        kept_spans = spans
                samples[key].append(wall)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workers = {key: w for key, w, _ in modes}
    detail = metric_detail(setup, samples, per_pass, rss_mb, reference, workers)
    if kept_spans is not None:
        spanlib.write_jsonl_gz(kept_spans, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    fail_ratio = gate.failed / gate.attempted

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    section = declared["per_layer"] if args.trace else declared["end_to_end"]
    metrics = {m["name"]: {"value": detail[m["name"]]["value"], "unit": m["unit"]} for m in section}

    result = {
        "workload": args.workload,
        "environment": environment(args, nproc, [nproc] if args.trace else [nproc, 1]),
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "fail_ratio": fail_ratio,
        "failures": gate.failures,
        "metrics": detail,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2)
    )

    for name, m in detail.items():
        spread = f"  (n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})" if "q1" in m else ""
        unit = units.get(name, m.get("unit", ""))
        print(f"{args.workload:16s} {name:46s} {m['value']:.6g} {unit}{spread}")
    print(f"{args.workload:16s} {'fail_ratio':46s} {fail_ratio:.6g} failed/attempted ({gate.failed}/{gate.attempted})")
    for failure in gate.failures:
        print(f"FAILED {failure['command']} [{failure['pass']}]: {failure['reasons'][0].strip()}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
