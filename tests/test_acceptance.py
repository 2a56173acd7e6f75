"""End-to-end acceptance suite.

Each test runs one acceptance criterion at full size and its stated
tolerance, and prints a single PASS/FAIL line (visible with ``pytest -s``).
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from conftest import (
    collide,
    draw_pairs,
    fractional_gain,
    ghz_state,
    haar_unitary,
    oracle_gibbs_evolution,
    random_conserving_planes,
    random_density,
    random_entangled_spec,
    to_eigenframe,
)
from test_exchange import TWO_RESERVOIR_STROKES, dense_exchange_oracle

from entroflow import (
    AncillaChannel,
    CaseSpec,
    DensityOperator,
    EntangledThermalSpec,
    HamiltonianSpec,
    average_correlation_bound,
    check_ssa,
    clausius_cycle,
    CollisionSpec,
    ensemble_heat,
    gibbs_evolution_identity,
    gibbs_populations,
    givens_planes,
    run_exchange,
    substream,
    x_parameter,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20260808


def report(number: int, name: str, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status}  criterion {number}: {name} -- {detail} ({elapsed:.2f} s / budget {budget:.0f} s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget: {elapsed:.2f} s"


def test_criterion_1_strong_subadditivity():
    started = time.perf_counter()
    worst = np.inf
    count = 0
    for dims in ((2, 2, 2), (2, 2, 3)):
        d = int(np.prod(dims))
        rng = substream(SEED, 1, d)
        for _ in range(500):
            rank = int(rng.integers(1, d + 1))
            rho = DensityOperator(random_density(d, rank, rng), dims)
            worst = min(worst, check_ssa(rho.matrix, rho.dims, 0, 1, 2).slack)
            count += 1
    report(1, "strong subadditivity", worst >= -1e-9,
           f"{count} states, worst slack {worst:.2e}", started, 10.0)


def test_criterion_2_average_correlation_bound():
    started = time.perf_counter()
    worst = np.inf
    count = 0
    for n_qubits in (3, 4):
        d = 2**n_qubits
        rng = substream(SEED, 2, n_qubits)
        for _ in range(250):
            rank = int(rng.integers(1, d + 1))
            rho = DensityOperator(random_density(d, rank, rng), (2,) * n_qubits)
            worst = min(worst, average_correlation_bound(rho.matrix, rho.dims).slack)
            count += 1
    ghz = ghz_state()
    ghz_slack = abs(average_correlation_bound(ghz.matrix, ghz.dims).slack)
    ok = worst >= -1e-9 and ghz_slack <= 1e-9
    report(2, "average-correlation bound", ok,
           f"{count} states, worst slack {worst:.2e}; GHZ saturation gap {ghz_slack:.2e}",
           started, 30.0)


def test_criterion_3_gibbs_evolution_identity():
    # each draw's rotated H_i is passed in its eigenframe, and every report
    # field is checked against the oracle in the original frame
    started = time.perf_counter()
    rng = substream(SEED, 3)
    worst_gap = 0.0
    worst_rhs = np.inf
    worst_frame = 0.0
    for _ in range(1000):
        beta = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        d_sys = int(rng.integers(2, 4))
        levels_i, basis_i = np.sort(rng.uniform(0.0, 1.2, d_sys)), haar_unitary(d_sys, rng)
        levels_f, basis_f = np.sort(rng.uniform(0.0, 1.2, d_sys)), haar_unitary(d_sys, rng)
        ancilla = DensityOperator(random_density(2, int(rng.integers(1, 3)), rng), (2,))
        unitary = haar_unitary(2 * d_sys, rng)
        h_f, u = to_eigenframe(basis_i, levels_f, basis_f, unitary, 2)
        rep = gibbs_evolution_identity(
            HamiltonianSpec(levels_i), beta, AncillaChannel(u, ancilla.matrix), h_f
        )
        want = oracle_gibbs_evolution(
            levels_i, basis_i, beta, unitary, ancilla.matrix, levels_f, basis_f
        )
        worst_frame = max(worst_frame, *(abs(getattr(rep, k) - v) for k, v in want.items()))
        worst_gap = max(worst_gap, rep.identity_gap)
        worst_rhs = min(worst_rhs, rep.rhs)
    ok = worst_gap <= 1e-9 and worst_rhs >= -1e-10 and worst_frame <= 1e-12
    report(3, "Gibbs-evolution identity", ok,
           f"1000 draws, worst gap {worst_gap:.2e}, worst rhs {worst_rhs:.2e}, "
           f"worst frame-change difference {worst_frame:.2e}", started, 60.0)


def test_criterion_4_reversal_demo():
    started = time.perf_counter()
    spec = EntangledThermalSpec(np.array([0.0, 1.0, 2.0, 3.0]), 1.0, 1.0, 0.5)
    h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
    planes = givens_planes(h_a, h_b, [((2, 2), (0, 3), math.pi / 2)])

    rep_v = run_exchange(CaseSpec.case_v(spec), planes)
    oracle_v = dense_exchange_oracle("v")
    z = sum(math.exp(-k) for k in range(4))
    t_a, t_b = 1.0 / spec.beta_a, 1.0 / spec.beta_b
    ok_v = (
        abs(rep_v.q_a - oracle_v["q_a"]) <= 1e-10
        and abs(rep_v.q_a - (-2 * math.exp(-2) / z)) <= 1e-10
        and t_a < t_b
        and rep_v.q_a < 0
    )

    rep_s = run_exchange(
        CaseSpec.case_s(h_a, spec.beta_a, h_b, spec.beta_b), planes
    )
    oracle_s = dense_exchange_oracle("s")
    ok_s = (
        abs(rep_s.q_a - oracle_s["q_a"]) <= 1e-10
        and abs(rep_s.q_a - 2 * (math.exp(-3) - math.exp(-4)) / z**2) <= 1e-10
        and rep_s.q_a > 0
    )
    report(4, "entangled-vs-product reversal demo", ok_v and ok_s,
           f"Q_A entangled {rep_v.q_a:.6f} (colder loses), product {rep_s.q_a:.6f} (hotter loses)",
           started, 1.0)


def test_criterion_5_exchange_invariants():
    started = time.perf_counter()
    rng = substream(SEED, 5)
    worst_lockstep = 0.0
    worst_ds_a = -np.inf
    worst_sum = np.inf
    worst_direction = np.inf
    worst_gap = 0.0
    for _ in range(200):
        spec = random_entangled_spec(rng, max_dim=6)
        case_v = CaseSpec.case_v(spec)
        planes = random_conserving_planes(case_v, rng)
        rep = run_exchange(case_v, planes)
        assert abs(rep.work_leak) <= 1e-10
        worst_lockstep = max(worst_lockstep, abs(rep.ds_a - rep.ds_b))
        worst_ds_a = max(worst_ds_a, rep.ds_a)

        h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
        case_s = CaseSpec.case_s(
            h_a, float(rng.uniform(0.3, 3.0)), h_b, float(rng.uniform(0.3, 3.0))
        )
        rep_s = run_exchange(case_s, planes)
        beta_a, beta_b = case_s.betas()
        worst_sum = min(worst_sum, rep_s.ds_a + rep_s.ds_b)
        worst_direction = min(worst_direction, (beta_a - beta_b) * rep_s.q_a)
        worst_gap = max(worst_gap, rep.identity_gap, rep_s.identity_gap)
    ok = (
        worst_lockstep <= 1e-9
        and worst_ds_a <= 1e-9
        and worst_sum >= -1e-9
        and worst_direction >= -1e-9
        and worst_gap <= 1e-9
    )
    report(5, "exchange invariants over random conserving unitaries", ok,
           f"200 specs: max |dS_A - dS_B| {worst_lockstep:.2e}, max dS_A {worst_ds_a:.2e}, "
           f"min dS sum {worst_sum:.2e}, min direction {worst_direction:.2e}, "
           f"max identity gap {worst_gap:.2e}",
           started, 60.0)


def test_criterion_6_clausius_cycle():
    started = time.perf_counter()
    h1 = HamiltonianSpec(np.array([0.0, 1.0]))
    rep = clausius_cycle((h1, gibbs_populations(h1, 1.0)), TWO_RESERVOIR_STROKES, fp_tol=1e-10)
    worst_stroke = max(r.slack for r in rep.strokes)
    ok = rep.residual < 1e-10 and rep.clausius_sum <= 1e-8 and worst_stroke <= 1e-9
    report(6, "Clausius cycle", ok,
           f"residual {rep.residual:.2e}, sum {rep.clausius_sum:.6f}, "
           f"worst stroke slack {worst_stroke:.2e}", started, 10.0)


def test_criterion_7_gas_ensemble():
    started = time.perf_counter()
    spec = CollisionSpec(m_a=10.0, m_b=1.0, t_a=2.0, t_b=1.0, gamma=1.0)
    x = x_parameter(spec)

    # per-event closed form over 1e5 entangled events, library sampling path
    rng = substream(SEED, 7)
    p_a, p_b, cos_theta, azimuth = draw_pairs(spec, "entangled", rng, 100_000)
    _, _, de = collide(p_a, p_b, spec.m_a, spec.m_b, cos_theta, azimuth)
    gains = de / ((p_a * p_a).sum(axis=1) / (2.0 * spec.m_a))
    expected = fractional_gain(x, np.arccos(cos_theta))
    rel = np.abs(gains - expected) / np.abs(expected)
    per_event_ok = bool(np.all(rel <= 1e-10))

    rep_e = ensemble_heat(spec, "entangled", 100_000, SEED + 1)
    mean_ok = abs(rep_e.mean_fractional_gain - 2 * x * (x - 1)) <= 3 * rep_e.stderr_fractional_gain
    reversal_ok = spec.reversal_ratio > 1 and rep_e.mean_de_a > 0

    rep_p = ensemble_heat(spec, "product", 1_000_000, SEED + 2)
    product_ok = rep_p.mean_de_a + 5 * rep_p.stderr_de_a < 0

    # the sampled mean against its exact expectation in every (mode, flux)
    # cell, and every entangled event against the closed form
    specs = [
        spec,
        CollisionSpec(m_a=1.0, m_b=10.0, t_a=1.0, t_b=2.0, gamma=1.0),
        CollisionSpec(m_a=1.3, m_b=0.4, t_a=0.5, t_b=3.0, gamma=2.0),
    ]
    cells = [
        ensemble_heat(dataclasses.replace(s, flux_weighting=flux), mode, 1 << 18, SEED + 3, 2)
        for s in specs for mode in ("entangled", "product") for flux in (False, True)
    ]
    worst_z = max(abs(r.z_de_a) for r in cells)
    worst_gap = max(r.max_event_gap for r in cells if r.mode == "entangled")
    exact_ok = worst_z <= 5.0 and worst_gap <= 1e-12

    ok = per_event_ok and mean_ok and reversal_ok and product_ok and exact_ok
    report(7, "gas closed form and reversal", ok,
           f"max per-event rel err {rel.max():.2e}; mean gain {rep_e.mean_fractional_gain:.4f} "
           f"vs 2x(x-1) {2 * x * (x - 1):.4f}; product mean dE {rep_p.mean_de_a:.4f} "
           f"({abs(rep_p.mean_de_a) / rep_p.stderr_de_a:.0f} SE below 0); "
           f"{len(cells)} cells: max |z| vs exact mean {worst_z:.2f}, "
           f"max event gap {worst_gap:.1e}", started, 30.0)


def test_criterion_8_cli_reproducibility(tmp_path):
    started = time.perf_counter()

    def run(args, threads):
        env = os.environ.copy()
        env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
        env["ENTROFLOW_THREADS"] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "entroflow", *args],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.dumps(json.loads(proc.stdout)["payload"], sort_keys=True).encode()

    cfg = {
        "schema_version": 1,
        "kind": "exchange",
        "epsilon": [0.0, 1.0, 2.0, 3.0],
        "gamma": 1.0,
        "mu_a": 1.0,
        "mu_b": 0.5,
        "rotations": [[[2, 2], [0, 3], math.pi / 2]],
    }
    cfg_path = tmp_path / "exchange.json"
    cfg_path.write_text(json.dumps(cfg))

    commands = [
        ["gas", "--ma", "10", "--mb", "1", "--ta", "2", "--tb", "1", "--gamma", "1",
         "--mode", "entangled", "--samples", "200000", "--seed", "5"],
        ["ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "200", "--seed", "7"],
        ["exchange", "--case", "v", "--config", str(cfg_path)],
    ]
    stable = True
    for args in commands:
        payloads = {run(args, threads) for threads in (1, 4, 8)}
        payloads.add(run(args, 1))  # repeated invocation
        stable = stable and len(payloads) == 1
    report(8, "CLI payload reproducibility", stable,
           f"{len(commands)} commands x workers (1, 4, 8) x repeat: byte-identical", started, 120.0)
