"""Tests of the benchmark harness itself, on small inputs.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from entroflow import cli, exchange, gas, inequalities, qmath, states  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MODULES = (cli, exchange, gas, inequalities, qmath, states, sys.modules["entroflow"])


def small_commands(tmp_path: Path) -> list[workloads.Command]:
    """Every command kind of the workloads, at sizes that run in a second."""
    rng = np.random.default_rng(5)
    exchange_cfg = tmp_path / "exchange.json"
    exchange_cfg.write_text(json.dumps(workloads.exchange_config(6, rng)))
    cycle_cfg = tmp_path / "cycle.json"
    cycle_cfg.write_text(json.dumps(workloads.clausius_config(3, rng)))
    demo_cfg = tmp_path / "demo.json"
    demo_cfg.write_text(json.dumps(workloads.DEMO_CONFIG))
    C = workloads.Command
    return [
        C("ssa", ("ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "20", "--seed", "3"), "ineq"),
        C("eq1", ("ineq", "--check", "eq1", "--dims", "2,2,2", "--trials", "10", "--seed", "3"), "ineq"),
        C("eq2", ("ineq", "--check", "eq2", "--dims", "2,2", "--trials", "20", "--seed", "3"), "ineq"),
        C("ex.v", ("exchange", "--case", "v", "--config", str(exchange_cfg)), "exchange", ("v",)),
        C("demo.s", ("exchange", "--case", "s", "--config", str(demo_cfg)), "demo", ("s",)),
        C(
            "sweep",
            ("exchange", "--case", "v", "--config", str(exchange_cfg), "--sweep", "phi=0.2:1.2:3"),
            "sweep",
            (3,),
        ),
        C("clausius", ("clausius", "--config", str(cycle_cfg)), "clausius"),
        C(
            "gas",
            ("gas", *workloads.GAS_FLAGS, "--mode", "entangled", "--samples", "70000", "--seed", "2"),
            "gas",
            ("entangled",),
        ),
    ]


def bindings() -> dict:
    """Every name the recorder may patch, with the object it is bound to."""
    out = {(mod.__name__, name): value for mod in MODULES for name, value in vars(mod).items()}
    for cls, attr in ((states.DensityOperator, "__post_init__"), (inequalities.AncillaChannel, "apply")):
        out[(cls.__name__, attr)] = vars(cls)[attr]
    for attr in spans.EIGENSOLVERS:
        out[("numpy.linalg", attr)] = getattr(np.linalg, attr)
    return out


def test_recorder_restores_every_patched_name(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTROFLOW_THREADS", "2")
    before = bindings()
    rec = spans.Recorder()
    with rec:
        during = bindings()
        run.run_pass(small_commands(tmp_path), tmp_path, 2, cli, rec)
    after = bindings()
    patched = {key for key in before if during[key] is not before[key]}
    assert {("entroflow.states", "partial_trace"), ("DensityOperator", "__post_init__"),
            ("numpy.linalg", "eigvalsh"), ("entroflow.gas", "ThreadPoolExecutor")} <= patched
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert rec.take()


def test_traced_and_untraced_payloads_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTROFLOW_THREADS", "2")
    commands = small_commands(tmp_path)
    gate = run.Gate()
    gate.record(run.run_pass(commands, tmp_path, 2, cli)[1], "untraced")
    with spans.Recorder() as rec:
        gate.record(run.run_pass(commands, tmp_path, 2, cli, rec)[1], "traced")
    gate.record(run.run_pass(commands, tmp_path, 1, cli)[1], "one worker")
    assert gate.failures == []
    assert gate.attempted == 3 * len(commands)


def test_root_spans_cover_the_pass(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTROFLOW_THREADS", "2")
    commands = small_commands(tmp_path)
    with spans.Recorder() as rec:
        wall, _ = run.run_pass(commands, tmp_path, 2, cli, rec)
    recorded = rec.take()
    roots = [s for s in recorded if s[2] == "cli.main"]
    assert [s[7] for s in roots] == [c.label for c in commands]
    assert all(s[7] is not None for s in recorded)
    m = spans.layer_metrics(recorded, wall, 2, {})
    assert 0.95 <= m["trace.root_coverage"] <= 1.0
    assert m["gas.chunks"] == 2 and m["linalg.eig.calls"] > 0


def test_every_emitted_metric_is_declared(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTROFLOW_THREADS", "2")
    with spans.Recorder() as rec:
        wall, _ = run.run_pass(small_commands(tmp_path), tmp_path, 2, cli, rec)
    per_pass = [spans.layer_metrics(rec.take(), wall, 2, {"clausius_cycles": 3, "gas_events": 70000})]
    samples = {"wall_s": [1.0, 1.1], "traced_wall_s": [1.2, 1.3], "wall_1w_s": [1.5, 1.4]}
    workers = {"wall_s": 2, "traced_wall_s": 2, "wall_1w_s": 1}
    traced = run.metric_detail([0.2, 0.3], samples, per_pass, 50.0, {2: [0.3]}, workers)
    untraced = run.metric_detail([0.2, 0.3], samples, [], 50.0, {1: [0.2], 2: [0.3]}, workers)

    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    end_to_end = {m["name"] for m in DECLARED["end_to_end"]}
    assert per_layer <= traced.keys()
    assert end_to_end <= untraced.keys()
    assert set(per_pass[0]) | {"trace.overhead_ratio"} == per_layer
    for name in per_layer | end_to_end:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_bad_input_is_counted_and_does_not_stop_the_harness(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTROFLOW_THREADS", "1")
    demo_cfg = tmp_path / "demo.json"
    demo_cfg.write_text(json.dumps(workloads.DEMO_CONFIG))
    C = workloads.Command
    commands = [
        C("nan", ("exchange", "--case", "v", "--config", str(demo_cfg), "--phi", "nan"), "exchange", ("v",)),
        C("missing", ("exchange", "--case", "v", "--config", str(tmp_path / "none.json")), "exchange", ("v",)),
        C("dims", ("ineq", "--check", "ssa", "--dims", "1", "--trials", "3", "--seed", "1"), "ineq"),
        C("flag", ("ineq", "--check", "nope", "--dims", "2,2,2", "--seed", "1"), "ineq"),
        C("good", ("exchange", "--case", "v", "--config", str(demo_cfg)), "demo", ("v",)),
    ]
    gate = run.Gate()
    gate.record(run.run_pass(commands, tmp_path, 1, cli)[1], "bad")
    assert (gate.attempted, gate.failed) == (5, 4)
    assert [f["command"] for f in gate.failures] == ["nan", "missing", "dims", "flag"]


def test_gate_rejects_wrong_results():
    gas_cmd = workloads.Command("g", (), "gas", ("product",))
    wrong_sign = json.dumps({"payload": {"verdict": 1}})
    assert workloads.check(gas_cmd, 0, wrong_sign)

    demo = workloads.Command("d", (), "demo", ("v",))
    payload = {"energy_conserving": True, "work_leak": 0.0, "q_a": workloads.DEMO_Q_A["v"] + 1e-9}
    assert workloads.check(demo, 0, json.dumps({"payload": payload}))
    payload["q_a"] = workloads.DEMO_Q_A["v"]
    assert workloads.check(demo, 0, json.dumps({"payload": payload})) == []

    ineq = workloads.Command("i", (), "ineq")
    gate = run.Gate()
    for slack in (0.5, 0.25):
        text = json.dumps({"payload": {"all_pass": True, "worst_slack": slack}})
        gate.record([(ineq, 0, None, text)], "pass")
    assert gate.failed == 1 and "differs" in gate.failures[0]["reasons"][0]


def test_timings_are_scaled_by_the_reference_at_their_worker_count():
    samples = {"wall_s": [1.0, 1.2], "wall_1w_s": [2.0]}
    detail = run.metric_detail(
        [0.5], samples, [], 50.0, {1: [0.6], 2: [0.2, 0.4]}, {"wall_s": 2, "wall_1w_s": 1}
    )
    ref = reference.REFERENCE_S
    assert detail["wall_s"]["value"] == pytest.approx(1.1 * ref / 0.3)
    assert detail["raw_wall_s"]["value"] == pytest.approx(1.1)
    assert detail["wall_1w_s"]["value"] == pytest.approx(2.0 * ref / 0.6)
    assert detail["setup_s"]["value"] == pytest.approx(0.5 * ref / 0.6)


def test_reference_process_answers_and_ends():
    with reference.Reference() as ref:
        times = [ref.time(1), ref.time(2)]
        child = ref._child
    assert all(t > 0 for t in times)
    assert child.poll() == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    wa, wb, wc = workloads.build(name, 7, a), workloads.build(name, 7, b), workloads.build(name, 8, c)

    def inputs(wl, d):
        return [[arg.replace(str(d), "") for arg in cmd.argv] for cmd in wl.commands], sorted(
            p.read_text() for p in d.iterdir()
        )

    assert inputs(wa, a) == inputs(wb, b)
    assert inputs(wa, a) != inputs(wc, c)
