"""Workload inputs and the correctness gate of the benchmark.

A workload is a list of ``entroflow`` command lines, all generated from the
workload seed (the ``--seed`` values, config files and rotation angles), plus
untimed probe commands whose results are known in closed form.  Each
command carries the check that decides whether its output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# exchange heats must balance to rounding for an energy-conserving unitary
WORK_LEAK_TOL = 1e-10
# the README demo heats are closed-form; the program must hit them this close
DEMO_TOL = 1e-12
# an entangled gas run may sit this many standard errors from 2x(x-1)
GAIN_SIGMAS = 5.0

WORKLOADS = ("ensembles", "exchange-dense")


@dataclass(frozen=True)
class Command:
    """One command line (without ``--output``) and how to judge its output.

    ``kind`` names the check: ineq, exchange, sweep, clausius, gas or demo.
    ``expect`` holds what the check needs beyond the output itself.
    """

    label: str
    argv: tuple[str, ...]
    kind: str
    expect: tuple = ()


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    probes: tuple[Command, ...]


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63, size=n)]


# ----------------------------------------------------------- ineq ----------

def _ineq(rng: np.random.Generator) -> tuple[list[Command], list[Command]]:
    # the three README checks at acceptance size
    sizes = (("ssa", "2,2,2", 1000), ("eq1", "2,2,2,2", 500), ("eq2", "2,2", 1000))
    commands = [
        Command(
            f"ineq.{check}",
            ("ineq", "--check", check, "--dims", dims, "--trials", str(trials), "--seed", str(seed)),
            "ineq",
        )
        for (check, dims, trials), seed in zip(sizes, _seeds(rng, len(sizes)))
    ]
    return commands, []


# ------------------------------------------------------- exchange ----------

def exchange_planes(d: int, rng: np.random.Generator, lo: float, hi: float) -> list:
    """Disjoint degenerate rotation planes for levels 0..d-1 on side A and
    0, 2, ..., 2(d-1) on side B (mu_a = 1, mu_b = 1/2).

    Every diagonal state (i, i) with 2 <= i <= d-2 is paired with (i-2, i+1),
    which carries the same energy 3i and less energy on side A, so the
    entangled state (support on the diagonal) always cools the colder side
    A.  The remaining states of each energy shell are paired at random,
    which leaves at most one state per shell unrotated (two in the shell of
    (1, 1)).  Angles are drawn uniformly from [lo, hi].
    """
    shells: dict[int, list[tuple[int, int]]] = {}
    for i in range(d):
        for j in range(d):
            shells.setdefault(i + 2 * j, []).append((i, j))
    pairs = []
    for i in range(2, d - 1):
        pairs.append(((i, i), (i - 2, i + 1)))
    taken = {s for pair in pairs for s in pair}
    # (1, 1) shares its shell only with (3, 0), which would warm side A
    taken.add((1, 1))
    for energy in sorted(shells):
        free = [s for s in shells[energy] if s not in taken]
        order = rng.permutation(len(free))
        for a, b in zip(order[0::2], order[1::2]):
            pairs.append((free[a], free[b]))
    angles = rng.uniform(lo, hi, size=len(pairs))
    return [[list(u), list(v), float(phi)] for (u, v), phi in zip(pairs, angles)]


def exchange_config(d: int, rng: np.random.Generator) -> dict:
    return {
        "schema_version": 1,
        "kind": "exchange",
        "epsilon": [float(i) for i in range(d)],
        "gamma": float(rng.uniform(0.2, 0.6)),
        "mu_a": 1.0,
        "mu_b": 0.5,
        "rotations": exchange_planes(d, rng, 0.2, 1.4),
    }


# README demo: Q_A = -2 e^-2 / Z (case V) and +2 (e^-3 - e^-4) / Z^2 (case S)
DEMO_CONFIG = {
    "schema_version": 1,
    "kind": "exchange",
    "epsilon": [0.0, 1.0, 2.0, 3.0],
    "gamma": 1.0,
    "mu_a": 1.0,
    "mu_b": 0.5,
    "rotations": [[[2, 2], [0, 3], math.pi / 2]],
}
_DEMO_Z = sum(math.exp(-e) for e in DEMO_CONFIG["epsilon"])
DEMO_Q_A = {"v": -2 * math.exp(-2) / _DEMO_Z, "s": 2 * (math.exp(-3) - math.exp(-4)) / _DEMO_Z**2}


def clausius_config(d: int, rng: np.random.Generator) -> dict:
    levels = [float(i) for i in range(d)]
    # contacts are partial swaps at phi = 0.7 between commuting states, so
    # each contracts the distance to the fixed point by cos(0.7)^2 and the
    # cycle converges to 1e-10 in about 20 iterations
    return {
        "schema_version": 1,
        "kind": "clausius",
        "system": {"levels": levels},
        "initial_state": {"kind": "gibbs", "beta": float(rng.uniform(0.5, 2.0))},
        "strokes": [
            {"kind": "contact", "temperature": float(rng.uniform(2.0, 4.0)), "phi": 0.7},
            {"kind": "quench", "levels": [2 * x for x in levels]},
            {"kind": "contact", "temperature": float(rng.uniform(0.5, 1.5)), "phi": 0.7},
            {"kind": "quench", "levels": levels},
        ],
    }


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def _exchange(rng: np.random.Generator, workdir: Path) -> tuple[list[Command], list[Command]]:
    dense = _write(workdir / "exchange-24.json", exchange_config(24, rng))
    sweep = _write(workdir / "exchange-16.json", exchange_config(16, rng))
    cycle = _write(workdir / "clausius-16.json", clausius_config(16, rng))
    lo, hi = rng.uniform(0.1, 0.3), rng.uniform(1.2, 1.5)
    commands = [
        Command("exchange.v", ("exchange", "--case", "v", "--config", dense), "exchange", ("v",)),
        Command("exchange.s", ("exchange", "--case", "s", "--config", dense), "exchange", ("s",)),
        Command(
            "exchange.sweep",
            ("exchange", "--case", "v", "--config", sweep, "--sweep", f"phi={lo!r}:{hi!r}:9"),
            "sweep",
            (9,),
        ),
        Command(
            "clausius",
            ("clausius", "--config", cycle, "--max-cycles", "500", "--fp-tol", "1e-10"),
            "clausius",
        ),
    ]
    demo = _write(workdir / "demo.json", DEMO_CONFIG)
    probes = [
        Command(f"probe.demo.{case}", ("exchange", "--case", case, "--config", demo), "demo", (case,))
        for case in ("v", "s")
    ]
    return commands, probes


# ------------------------------------------------------------ gas ----------

GAS_FLAGS = ("--ma", "10", "--mb", "1", "--ta", "2", "--tb", "1", "--gamma", "1")
# 8 chunks of 65536 events per mode, so the chunks still spread over the pool
GAS_SAMPLES = 500_000


def _gas(rng: np.random.Generator) -> tuple[list[Command], list[Command]]:
    commands = [
        Command(
            f"gas.{mode}",
            ("gas", *GAS_FLAGS, "--mode", mode, "--samples", str(GAS_SAMPLES), "--seed", str(seed)),
            "gas",
            (mode,),
        )
        for mode, seed in zip(("entangled", "product"), _seeds(rng, 2))
    ]
    return commands, []


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed`` into ``workdir``."""
    rng = np.random.default_rng([WORKLOADS.index(name), seed])
    if name == "ensembles":
        ineq, _ = _ineq(rng)
        gas, _ = _gas(rng)
        commands, probes = ineq + gas, []
    else:
        commands, probes = _exchange(rng, workdir)
    return Workload(tuple(commands), tuple(probes))


# ----------------------------------------------------------- gate ----------

def payload_text(command: Command, text: str) -> str:
    """The part of an output that must be byte-identical across passes and
    worker counts: the canonical payload of a JSON envelope, or a whole CSV."""
    if command.kind == "sweep":
        return text
    return json.dumps(json.loads(text)["payload"], sort_keys=True)


def _gas_x() -> float:
    # the x of GAS_FLAGS, worked out here rather than by the program under test
    m_a, m_b, t_a, t_b = 10.0, 1.0, 2.0, 1.0
    alpha_a, alpha_b = math.sqrt(t_a * m_a), math.sqrt(t_b * m_b)
    return m_a / (m_a + m_b) * (alpha_a + alpha_b) / alpha_a


def check(command: Command, code: int | None, text: str | None) -> list[str]:
    """Reasons why one command's result is wrong; empty when it is right.

    Byte identity across passes is checked by the caller, which holds the
    reference payloads.
    """
    if code != 0:
        return [f"exit code {code}"]
    if text is None:
        return ["no output written"]
    try:
        return _check_output(command, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_output(command: Command, text: str) -> list[str]:
    kind = command.kind
    if kind == "sweep":
        rows = list(csv.DictReader(io.StringIO(text)))
        bad = []
        if len(rows) != command.expect[0]:
            bad.append(f"{len(rows)} sweep rows, expected {command.expect[0]}")
        for row in rows:
            if not abs(float(row["W"])) <= WORK_LEAK_TOL:
                bad.append(f"work leak {row['W']} at phi {row['phi']}")
            if not float(row["Q_A"]) < 0:
                bad.append(f"case V heat Q_A {row['Q_A']} >= 0 at phi {row['phi']}")
        return bad

    p = json.loads(text)["payload"]
    bad = []
    if kind == "ineq":
        if p["all_pass"] is not True:
            bad.append("ineq all_pass is not true")
    elif kind in ("exchange", "demo"):
        if p["energy_conserving"] is not True:
            bad.append("exchange not energy conserving")
        if not abs(p["work_leak"]) <= WORK_LEAK_TOL:
            bad.append(f"work leak {p['work_leak']}")
        if command.expect[0] == "v" and not p["q_a"] < 0:
            bad.append(f"case V heat q_a {p['q_a']} >= 0")
        if kind == "demo":
            want = DEMO_Q_A[command.expect[0]]
            if not abs(p["q_a"] - want) <= DEMO_TOL:
                bad.append(f"demo q_a {p['q_a']!r} != {want!r}")
    elif kind == "clausius":
        if p["clausius_pass"] is not True or p["stroke_pass"] is not True:
            bad.append("clausius_pass or stroke_pass is not true")
    elif kind == "gas":
        mode = command.expect[0]
        want = 1 if mode == "entangled" else -1
        if p["verdict"] != want:
            bad.append(f"gas {mode} verdict {p['verdict']}, expected {want}")
        if mode == "entangled":
            x = _gas_x()
            gain, se = p["mean_fractional_gain"], p["stderr_fractional_gain"]
            if not abs(gain - 2 * x * (x - 1)) <= GAIN_SIGMAS * se:
                bad.append(f"fractional gain {gain} is more than {GAIN_SIGMAS} SE from 2x(x-1)")
    else:
        bad.append(f"unknown check kind {kind!r}")
    return bad


def counters(command: Command, text: str) -> dict[str, float]:
    """Work counts read from a correct payload: Clausius solver iterations
    and gas events."""
    if command.kind == "clausius":
        return {"clausius_cycles": json.loads(text)["payload"]["cycles_to_convergence"]}
    if command.kind == "gas":
        return {"gas_events": json.loads(text)["payload"]["n_samples"]}
    return {}
