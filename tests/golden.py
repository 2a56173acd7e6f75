"""Golden payload digests: byte identity of every command's payload.

Each case is one ``entroflow`` command line, built from a seed.  Its digest
is the SHA-256 of the canonical payload (``cli._dumps``, the encoder of
every envelope line) of the JSON envelope the command writes, or of the
whole file for a ``--sweep`` CSV.
``golden_payloads.json`` holds the digests of the current code;
``test_golden.py`` recomputes them with ENTROFLOW_THREADS at 1 and at 2.

After an intended change of payload bits, rewrite the file and print every
key that moved:

    PYTHONPATH=src python tests/golden.py --update

To list what moved, with its size, write every payload of the old code
and of the new into a directory each, one file per key, and compare them:

    PYTHONPATH=<old checkout>/src python tests/golden.py --dump old
    PYTHONPATH=src python tests/golden.py --dump new
    PYTHONPATH=src python tests/golden.py --diff old new

``--diff`` prints one line per key whose bytes differ, with the largest
absolute difference over its JSON numbers or CSV cells, then one indented
line per field that moved: a JSON path such as ``strokes[1].heat``, or a
CSV column.  It prints nothing and exits 0 when every key kept its bytes,
and exits 1 when it prints any line: a moved key or a key on one side only.

The inputs are built here, not taken from ``perfbench/workloads.py``, so a
change to the benchmark's workloads never moves a digest.  Sizes are cut
below the benchmark's only to keep the test to a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

# before conftest, which puts this checkout's src first on sys.path: run as
# a script, the code dumped is the one PYTHONPATH names
from entroflow import cli

from conftest import shell_planes

GOLDEN = Path(__file__).with_name("golden_payloads.json")
SEEDS = (7, 101)
# the README demo: one plane, closed-form heats
DEMO_CONFIG = {
    "schema_version": 1,
    "kind": "exchange",
    "epsilon": [0.0, 1.0, 2.0, 3.0],
    "gamma": 1.0,
    "mu_a": 1.0,
    "mu_b": 0.5,
    "rotations": [[[2, 2], [0, 3], math.pi / 2]],
}
GAS_FLAGS = ("--ma", "10", "--mb", "1", "--ta", "2", "--tb", "1", "--gamma", "1")


def _exchange_config(d: int, rng: np.random.Generator) -> dict:
    planes = shell_planes(d)
    angles = rng.uniform(0.2, 1.4, size=len(planes))
    return {
        "schema_version": 1,
        "kind": "exchange",
        "epsilon": [float(i) for i in range(d)],
        "gamma": float(rng.uniform(0.2, 0.6)),
        "mu_a": 1.0,
        "mu_b": 0.5,
        "rotations": [[list(u), list(v), float(phi)] for (u, v), phi in zip(planes, angles)],
    }


def _clausius_config(d: int, rng: np.random.Generator) -> dict:
    levels = [float(i) for i in range(d)]
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


def cases(workdir: Path) -> dict[str, list[str]]:
    """Case key -> command line (without ``--output``); config files are
    written into ``workdir``."""
    out = {}
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        dense = _write(workdir / f"exchange-24-{seed}.json", _exchange_config(24, rng))
        sweep = _write(workdir / f"exchange-16-{seed}.json", _exchange_config(16, rng))
        cycle = _write(workdir / f"clausius-16-{seed}.json", _clausius_config(16, rng))
        s = str(seed)
        for check, dims, trials in (
            ("ssa", "2,2,2", 300), ("eq1", "2,2,2,2", 150), ("eq2", "2,2", 300)
        ):
            out[f"ineq.{check}@{seed}"] = [
                "ineq", "--check", check, "--dims", dims, "--trials", str(trials), "--seed", s
            ]
        for case in ("v", "s"):
            out[f"exchange.{case}@{seed}"] = ["exchange", "--case", case, "--config", dense]
        for case, key in (("v", "sweep"), ("s", "sweep_s")):
            out[f"exchange.{key}@{seed}"] = [
                "exchange", "--case", case, "--config", sweep, "--sweep", "phi=0.1:1.5:9"
            ]
        out[f"clausius@{seed}"] = ["clausius", "--config", cycle]
        # 4 chunks of 65536 events, so two workers split the work
        for mode in ("entangled", "product"):
            out[f"gas.{mode}@{seed}"] = [
                "gas", *GAS_FLAGS, "--mode", mode, "--samples", "200000", "--seed", s
            ]
    demo = _write(workdir / "demo.json", DEMO_CONFIG)
    for case in ("v", "s"):
        out[f"demo.{case}"] = ["exchange", "--case", case, "--config", demo]
    return out


def payload_bytes(argv: list[str], workdir: Path) -> bytes:
    """Run one command in-process; return its canonical payload, or the
    whole CSV of a sweep."""
    out = workdir / "out"
    code = cli.main([*argv, "--output", str(out)])
    if code != cli.EXIT_OK:
        raise AssertionError(f"{' '.join(argv)} exited {code}")
    if "--sweep" in argv:
        return out.read_bytes()
    return cli._dumps(json.loads(out.read_text())["payload"]).encode()


def digests(workdir: Path) -> dict[str, str]:
    """Case key -> SHA-256 of its payload bytes, at the current
    ENTROFLOW_THREADS."""
    return {
        key: hashlib.sha256(payload_bytes(argv, workdir)).hexdigest()
        for key, argv in cases(workdir).items()
    }


def load() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def dump(directory: Path) -> None:
    """Write each case's payload bytes to ``directory``/<key>."""
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in cases(Path(tmp)).items():
            (directory / key).write_bytes(payload_bytes(argv, Path(tmp)))


def fields(data: bytes) -> dict[str, object]:
    """Field -> values of one payload: each JSON leaf under its path, or
    each CSV column as the tuple of its cells."""
    text = data.decode()
    if not text.startswith("{"):
        header, *rows = (line.split(",") for line in text.splitlines())
        return {name: tuple(map(float, cells)) for name, *cells in zip(header, *rows)}
    out = {}

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for name, value in items:
            where = f"{path}.{name}" if isinstance(node, dict) else f"{path}[{name}]"
            if isinstance(value, (dict, list)):
                walk(value, where)
            else:
                out[where.lstrip(".")] = value

    walk(json.loads(text), "")
    return out


def _change(old, new) -> float:
    """Largest absolute difference of two JSON numbers or two CSV columns;
    inf for any other change (a flag, a string, a field only on one side)."""
    numbers = {type(old), type(new)} <= {int, float}
    columns = type(old) is type(new) is tuple and len(old) == len(new)
    if not (numbers or columns):
        return math.inf
    return float(np.max(np.abs(np.subtract(new, old)), initial=0.0))


def diff(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per key whose bytes differ, then one per moved field."""
    lines = []
    for key in sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()}):
        old, new = (d / key for d in (old_dir, new_dir))
        if not (old.exists() and new.exists()):
            lines.append(f"{key}: only in {old_dir if old.exists() else new_dir}")
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        a, b = fields(old.read_bytes()), fields(new.read_bytes())
        moved = {
            name: _change(a.get(name), b.get(name))
            for name in sorted(a.keys() | b.keys())
            if a.get(name) != b.get(name)
        }
        lines.append(f"{key}: largest {max(moved.values(), default=0.0):.2g}")
        lines += [f"  {name} {change:.2g}" for name, change in moved.items()]
    return lines


def main(argv: list[str]) -> int:
    os.environ["ENTROFLOW_THREADS"] = "1"
    if argv[:1] == ["--dump"] and len(argv) == 2:
        dump(Path(argv[1]))
        return 0
    if argv[:1] == ["--diff"] and len(argv) == 3:
        lines = diff(Path(argv[1]), Path(argv[2]))
        for line in lines:
            print(line)
        return 1 if lines else 0
    if argv != ["--update"]:
        print("usage: PYTHONPATH=src python tests/golden.py --update | --dump DIR"
              " | --diff OLD NEW", file=sys.stderr)
        return 2
    old = load() if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = digests(Path(tmp))
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"moved: {key} {old.get(key)} -> {new.get(key)}")
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
