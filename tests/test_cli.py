import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import time

import golden
import numpy as np
import pytest

from conftest import eq2_trial, shell_planes, trial_density

from entroflow import (
    CaseSpec,
    EntangledThermalSpec,
    NonFiniteResult,
    clausius_cycle,
    cli,
    exchange,
    givens_planes,
    run_exchange,
)
from entroflow.qmath import ginibre, haar_qr, random_densities, uniform_rows

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, threads=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    if threads is not None:
        env["ENTROFLOW_THREADS"] = str(threads)
    return subprocess.run(
        [sys.executable, "-m", "entroflow", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def payload_of(proc):
    envelope = json.loads(proc.stdout)
    return envelope["payload"], envelope


@pytest.fixture()
def exchange_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "exchange",
        "epsilon": [0.0, 1.0, 2.0, 3.0],
        "gamma": 1.0,
        "mu_a": 1.0,
        "mu_b": 0.5,
        "rotations": [[[2, 2], [0, 3], math.pi / 2]],
    }
    path = tmp_path / "exchange.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def clausius_config(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "clausius",
        "system": {"levels": [0.0, 1.0]},
        "initial_state": {"kind": "gibbs", "beta": 1.0},
        "strokes": [
            {"kind": "contact", "temperature": 2.0, "phi": math.pi / 2},
            {"kind": "quench", "levels": [0.0, 2.0]},
            {"kind": "contact", "temperature": 1.0, "phi": math.pi / 2},
            {"kind": "quench", "levels": [0.0, 1.0]},
        ],
    }
    path = tmp_path / "clausius.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestIneq:
    def test_ssa_passes(self):
        proc = run_cli("ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "60", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        payload, envelope = payload_of(proc)
        assert payload["all_pass"] is True
        assert payload["worst_slack"] >= -1e-9
        assert envelope["config"]["seed"] == 7

    def test_eq1_passes(self):
        proc = run_cli("ineq", "--check", "eq1", "--dims", "2,2,2,2", "--trials", "40", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        payload, _ = payload_of(proc)
        assert payload["worst_slack"] >= -1e-9

    def test_eq2_passes(self):
        proc = run_cli("ineq", "--check", "eq2", "--dims", "2,2", "--trials", "50", "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        payload, _ = payload_of(proc)
        assert payload["worst_identity_gap"] <= 1e-9
        assert payload["worst_slack"] >= -1e-10

    def test_eq2_payload_names_no_gap_trial(self, tmp_path):
        # the gap is rounding, so no trial is named for it; the slack's
        # trial can be replayed (TestBatchedDraws)
        out = tmp_path / "out.json"
        argv = ["ineq", "--check", "eq2", "--dims", "2", "--trials", "20", "--seed", "7"]
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
        assert sorted(json.loads(out.read_text())["payload"]) == [
            "all_pass", "check", "gap_tol", "slack_tol", "trials",
            "worst_identity_gap", "worst_slack", "worst_slack_trial",
        ]

    def test_ssa_needs_three_factors(self):
        proc = run_cli("ineq", "--check", "ssa", "--dims", "2", "--trials", "5", "--seed", "7")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "abc", "--seed", "7"],
            ["ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "5"],
            ["nope"],
            ["exchange", "--case", "x", "--config", "demo.json"],
            ["ineq", "--check", "nope", "--dims", "2,2,2", "--trials", "5", "--seed", "7"],
            ["ineq", "--check", "ssa", "--dims", "2,2,2", "--seed", "7", "--nope", "1"],
        ],
        ids=[
            "bad-int", "missing-seed", "unknown-subcommand", "bad-case", "bad-check", "unknown-flag"
        ],
    )
    def test_bad_flag_exits_2_with_one_line(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.startswith("entroflow: config error: entroflow")


class TestIneqBatches:
    def test_eigensolves_per_batch_not_per_trial(self, eigensolves, tmp_path):
        argv = ["ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "1000", "--seed", "7"]
        assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == cli.EXIT_OK
        batches = math.ceil(1000 / max(1, cli.BATCH_ELEMENTS // 8**2))
        # per batch: the four subsystem entropies; validation solves nothing
        assert len(eigensolves) == 4 * batches

    @pytest.mark.parametrize("check, dims, width", [("ssa", "2,2,2", 8), ("eq1", "2,2,2,2", 16)])
    def test_no_whole_state_eigensolve(self, check, dims, width, eigensolves, tmp_path):
        argv = ["ineq", "--check", check, "--dims", dims, "--trials", "200", "--seed", "7"]
        assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == cli.EXIT_OK
        assert eigensolves and width not in eigensolves

    @pytest.mark.parametrize(
        "check, dims, joint, terms",
        [("ssa", "2,2,2", 8, 4), ("eq1", "2,2,2,2", 16, 4 + 6), ("eq1", "2,2,2", 8, 3 + 3),
         ("eq2", "2,2", 4, 1), ("eq2", "3", 6, 1)],
    )
    def test_one_eigensolve_per_entropy_term(self, check, dims, joint, terms, eigensolves, tmp_path):
        # the states are valid by construction: no batch validates them, and
        # each entropy term of a batch (ssa: 4; eq1: n singles and n(n-1)/2
        # pairs; eq2: S(rho_f), as S(rho_i) is read off the Gibbs
        # populations) is one eigvalsh of the stack
        argv = ["ineq", "--check", check, "--dims", dims, "--trials", "1000", "--seed", "7"]
        assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == cli.EXIT_OK
        batches = math.ceil(1000 / max(1, cli.BATCH_ELEMENTS // joint**2))
        assert len(eigensolves) == terms * batches

    def test_eq2_forms_one_gibbs_row_per_batch(self, gibbs_rows, tmp_path):
        # p of rho_i = diag(p), read for its energy, entropy and ln Z: one
        # stack per batch, formed once
        argv = ["ineq", "--check", "eq2", "--dims", "2,2", "--trials", "1000", "--seed", "7"]
        assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == cli.EXIT_OK
        per_batch = max(1, cli.BATCH_ELEMENTS // 4**2)
        sizes = [min(per_batch, 1000 - lo) for lo in range(0, 1000, per_batch)]
        # batches may run on several workers, so in any order
        assert sorted(gibbs_rows) == sorted((n, 2) for n in sizes)

    def test_eq2_draws_one_haar_unitary_stack_per_batch(self, monkeypatch, tmp_path):
        # the joint unitaries of a batch are one haar_qr of their stack: no
        # final Hamiltonian, so no eigenbasis of one, is drawn
        stacks = []
        monkeypatch.setattr(cli, "haar_qr", lambda g: stacks.append(g.shape) or haar_qr(g))
        argv = ["ineq", "--check", "eq2", "--dims", "2,2", "--trials", "1000", "--seed", "7"]
        assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == cli.EXIT_OK
        per_batch = max(1, cli.BATCH_ELEMENTS // 4**2)
        sizes = [min(per_batch, 1000 - lo) for lo in range(0, 1000, per_batch)]
        assert sorted(stacks) == sorted((n, 4, 4) for n in sizes)

    # 1: one trial per batch; 1000: ragged batches of 3 to 62 trials; 2**13:
    # eq1 2,2,2,2 x150 takes 2 batches at 2**15 and 5 at 2**13, ssa 2,2,2
    # x300 1 and 3
    @pytest.mark.parametrize("budget", [1, 1000, 2**13])
    def test_payloads_do_not_depend_on_the_batch(self, budget, monkeypatch, tmp_path):
        # every golden ineq command and four more, at the budget against
        # 2**15, both made in this run
        argvs = {key: argv for key, argv in golden.cases(tmp_path).items() if key.startswith("ineq.")}
        assert len(argvs) == 6 and cli.BATCH_ELEMENTS == 2**15
        argvs.update({
            f"{check} {dims}": [
                "ineq", "--check", check, "--dims", dims, "--trials", "50", "--seed", "7"
            ]
            for check, dims in [("ssa", "2,2,3"), ("eq1", "2,3,2"), ("eq2", "3"), ("eq2", "3,3")]
        })
        want = {key: golden.payload_bytes(argv, tmp_path) for key, argv in argvs.items()}
        monkeypatch.setattr(cli, "BATCH_ELEMENTS", budget)
        for key, argv in argvs.items():
            assert golden.payload_bytes(argv, tmp_path) == want[key], key


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBatchedDraws:
    """Each batch's draws and the arithmetic on them, bit for bit against
    each trial formed alone from its row of uniforms (tests/conftest.py
    oracles)."""

    @pytest.mark.parametrize(
        "d, ranks",
        [(6, [3, 1, 6, 3, 2, 6, 1, 1]), (5, [4, 1, 2, 5, 3]), (8, [5])],
        ids=["ragged", "every-rank", "batch-of-one"],
    )
    def test_densities(self, d, ranks):
        u = uniform_rows(31, 0, 0, len(ranks), 2 * d * d)[:, : 2 * d * d]
        rank_u = (np.array(ranks) - 0.5) / d
        got = random_densities(ginibre(u, d), rank_u)
        for t, rank in enumerate(ranks):
            assert same_bits(got[t], trial_density(rank_u[t], u[t], d))
            assert np.sum(np.linalg.eigvalsh(got[t]) > 1e-12) == rank

    @pytest.mark.parametrize("dims, trials", [((2, 2, 2), 40), ((2, 2, 2, 2), 1), ((3, 2), 30)])
    def test_ssa_and_eq1_states(self, dims, trials):
        d = math.prod(dims)
        u = uniform_rows(32, 1, 0, trials, sum(cli._state_widths(dims)))
        got = cli._random_states(dims, u)
        for t in range(trials):
            assert same_bits(got[t], trial_density(u[t, 0], u[t, 1 : 1 + 2 * d * d], d))
        ranks = set(1 + np.floor(u[:, 0] * d).astype(int))
        assert trials == 1 or ranks == set(range(1, d + 1))

    @pytest.mark.parametrize("factors, trials", [((2, 3), 12), ((3, 2), 1), ((2, 2), 9)])
    def test_eq2_inputs(self, factors, trials):
        u = uniform_rows(33, 3, 0, trials, sum(cli._eq2_widths(factors)))
        h_i, beta, channel = cli._eq2_inputs(factors, u)
        for t in range(trials):
            got = beta[t], h_i.levels[t], channel.unitary[t], channel.ancilla[t]
            for got_part, want_part in zip(got, eq2_trial(*factors, u[t])):
                assert same_bits(got_part, want_part)

    @pytest.mark.parametrize(
        "key", [f"ineq.{check}@{seed}" for check in ("ssa", "eq1", "eq2") for seed in golden.SEEDS]
    )
    def test_worst_trial_replays_alone(self, key, tmp_path):
        # trial T alone is row T of the check's uniforms through the same
        # batch function, and gives the payload's worst values bit for bit
        argv = golden.cases(tmp_path)[key]
        payload = json.loads(golden.payload_bytes(argv, tmp_path))
        check, dims, seed = (argv[argv.index(flag) + 1] for flag in ("--check", "--dims", "--seed"))
        tag, _, _, factors_of, widths, run_batch, _ = cli._INEQ_CHECKS[check]
        factors = factors_of(cli._parse_dims(dims))

        def alone(trial):
            return run_batch(factors, uniform_rows(int(seed), tag, trial, 1, sum(widths(factors))))

        if check == "eq2":
            slack = alone(payload["worst_slack_trial"]).rhs
        else:
            slack = alone(payload["worst_trial"]).slack
        assert same_bits(slack[0], payload["worst_slack"])


class TestJointDimensionLimit:
    @pytest.mark.parametrize("check, dims", [("eq2", "200,200"), ("ssa", "2,2,99999")])
    def test_oversized_ineq_dims_exit_2(self, check, dims, tmp_path):
        out = tmp_path / "out.json"
        proc = run_cli(
            "ineq", "--check", check, "--dims", dims, "--trials", "1", "--seed", "1",
            "--output", str(out),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert f"above the limit of {cli.MAX_JOINT_DIM}" in proc.stderr
        assert not out.exists()

    def test_oversized_exchange_exits_2(self, tmp_path, exchange_config):
        cfg = json.loads(open(exchange_config).read())
        cfg["epsilon"] = [float(i) for i in range(300)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        proc = run_cli("exchange", "--case", "v", "--config", str(path), "--output", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert "joint dimension of 90000" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("d", [cli.MAX_JOINT_DIM, cli.MAX_JOINT_DIM + 1])
    def test_clausius_levels_have_no_limit(self, tmp_path, capsys, d):
        # a cycle runs on d populations, with no d x d state (whose Gibbs
        # state alone would take seconds at this size), so the limit does not
        # apply to its levels
        levels = [float(i) for i in range(d)]
        cfg = {
            "schema_version": 1,
            "kind": "clausius",
            "system": {"levels": levels},
            "initial_state": {"kind": "gibbs", "beta": 1.0},
            "strokes": [
                {"kind": "contact", "temperature": 3.0, "phi": 0.7},
                {"kind": "quench", "levels": [2 * x for x in levels]},
                {"kind": "contact", "temperature": 1.0, "phi": 0.7},
                {"kind": "quench", "levels": levels},
            ],
        }
        path = tmp_path / "levels.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        started = time.perf_counter()
        assert cli.main(["clausius", "--config", str(path), "--output", str(out)]) == cli.EXIT_OK
        assert time.perf_counter() - started < 5.0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())["payload"]
        assert payload["clausius_pass"] and payload["stroke_pass"]
        assert payload["cycles_to_convergence"] > 1


class TestExchange:
    def test_entangled_demo_payload(self, exchange_config):
        proc = run_cli("exchange", "--case", "v", "--config", exchange_config)
        assert proc.returncode == 0, proc.stderr
        payload, _ = payload_of(proc)
        z = sum(math.exp(-k) for k in range(4))
        assert abs(payload["q_a"] - (-2 * math.exp(-2) / z)) <= 1e-12
        assert payload["energy_conserving"] is True

    @pytest.mark.parametrize("case", ["v", "s"])
    def test_identity_gap_in_payload(self, exchange_config, case):
        proc = run_cli("exchange", "--case", case, "--config", exchange_config)
        assert proc.returncode == 0, proc.stderr
        payload, _ = payload_of(proc)
        assert 0.0 <= payload["identity_gap"] <= 1e-9

    def test_product_demo_payload(self, exchange_config):
        proc = run_cli("exchange", "--case", "s", "--config", exchange_config)
        assert proc.returncode == 0, proc.stderr
        payload, _ = payload_of(proc)
        z = sum(math.exp(-k) for k in range(4))
        assert abs(payload["q_a"] - 2 * (math.exp(-3) - math.exp(-4)) / z**2) <= 1e-12

    def test_zero_angle_override(self, exchange_config):
        proc = run_cli("exchange", "--case", "v", "--config", exchange_config, "--phi", "0")
        payload, _ = payload_of(proc)
        assert payload["q_a"] == 0.0
        assert payload["q_b"] == 0.0
        assert payload["ds_a"] == 0.0

    def test_sweep_emits_csv(self, exchange_config):
        proc = run_cli(
            "exchange", "--case", "v", "--config", exchange_config, "--sweep", "phi=0:1.5:4"
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "phi,Q_A,Q_B,dS_A,dS_B,I_init,I_final,W"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0

    def test_non_degenerate_rotation_exits_3(self, tmp_path, exchange_config):
        cfg = json.loads(open(exchange_config).read())
        cfg["rotations"] = [[[0, 0], [1, 1], 0.3]]
        path = tmp_path / "bad_rot.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("exchange", "--case", "v", "--config", str(path))
        assert proc.returncode == 3

    @pytest.mark.parametrize("label", [2**63, 2**70, -1])
    def test_out_of_range_label_exits_2(self, tmp_path, exchange_config, capsys, label):
        # compared as a Python int, never cast to int64 (an OverflowError
        # would end in exit 5)
        cfg = json.loads(open(exchange_config).read())
        cfg["rotations"] = [[[2, 2], [0, 3], 0.3], [[label, 0], [0, 1], 0.3]]
        path = tmp_path / "bad_label.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["exchange", "--case", "v", "--config", str(path)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"entroflow: joint label ({label}, 0) out of range for dims (4, 4)\n"
        )

    def test_schema_violation_exits_2(self, tmp_path, exchange_config):
        cfg = json.loads(open(exchange_config).read())
        cfg["schema_version"] = 99
        path = tmp_path / "bad_schema.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("exchange", "--case", "v", "--config", str(path))
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "flag",
        [
            ("--phi", "nan"),
            ("--phi", "inf"),
            ("--sweep", "phi=0:inf:3"),
            ("--sweep", "phi=nan:1:3"),
        ],
    )
    def test_non_finite_angle_exits_2(self, exchange_config, flag):
        proc = run_cli("exchange", "--case", "v", "--config", exchange_config, *flag)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stdout == ""

    def test_phi_with_sweep_exits_2(self, exchange_config):
        # a sweep sets every angle, so an override beside it would be ignored
        proc = run_cli(
            "exchange", "--case", "v", "--config", exchange_config,
            "--phi", "0.3", "--sweep", "phi=0:1.5:4",
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "--phi" in proc.stderr and "--sweep" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "sweep, message",
        [
            # numpy refuses the first before allocating, and sizes the second
            # as an empty grid
            ("phi=0:1:100000000000000000000", "points is more than one array can hold"),
            (f"phi=0:1:{2**63 - 1}", "points is more than one array can hold"),
            # 8 PB, refused by the allocator before any memory is touched
            ("phi=0:1:1000000000000000", "points cannot be allocated"),
            # finite bounds whose step overflows
            ("phi=1e308:-1e308:3", "span between them must be finite"),
        ],
    )
    def test_unrepresentable_grid_exits_2(self, exchange_config, capsys, sweep, message):
        argv = ["exchange", "--case", "v", "--config", exchange_config, "--sweep", sweep]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("entroflow: config error: sweep ")
        assert len(captured.err.splitlines()) == 1 and message in captured.err

    def test_missing_epsilon_exits_2(self, tmp_path, exchange_config):
        cfg = json.loads(open(exchange_config).read())
        del cfg["epsilon"]
        path = tmp_path / "no_eps.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("exchange", "--case", "v", "--config", str(path))
        assert proc.returncode == 2


class TestClausius:
    def test_two_reservoir_cycle(self, clausius_config):
        proc = run_cli("clausius", "--config", clausius_config)
        assert proc.returncode == 0, proc.stderr
        payload, _ = payload_of(proc)
        assert payload["converged"] is True
        assert payload["clausius_sum"] <= 1e-8
        assert all(s["slack"] <= 1e-9 for s in payload["strokes"])

    def test_zero_angle_contacts(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "clausius",
            "system": {"levels": [0.0, 1.0]},
            "initial_state": {"kind": "gibbs", "beta": 1.0},
            "strokes": [
                {"kind": "contact", "temperature": 2.0, "phi": 0.0},
                {"kind": "contact", "temperature": 1.0, "phi": 0.0},
            ],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("clausius", "--config", str(path))
        assert proc.returncode == 0
        payload, _ = payload_of(proc)
        assert payload["clausius_sum"] == 0.0

    def test_non_restoring_quench_exits_2(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "clausius",
            "system": {"levels": [0.0, 1.0]},
            "initial_state": {"kind": "gibbs", "beta": 1.0},
            "strokes": [
                {"kind": "contact", "temperature": 2.0, "phi": 1.0},
                {"kind": "quench", "levels": [0.0, 2.0]},
            ],
        }
        path = tmp_path / "bad_cycle.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("clausius", "--config", str(path))
        assert proc.returncode == 2

    def test_dimension_changing_quench_exits_2(self, tmp_path):
        # the quenches restore H0, but the contact between them would act on
        # 3 levels
        cfg = {
            "schema_version": 1,
            "kind": "clausius",
            "system": {"levels": [0.0, 1.0]},
            "initial_state": {"kind": "gibbs", "beta": 1.0},
            "strokes": [
                {"kind": "quench", "levels": [0.0, 1.0, 2.0]},
                {"kind": "contact", "temperature": 2.0, "phi": 1.0},
                {"kind": "quench", "levels": [0.0, 1.0]},
            ],
        }
        path = tmp_path / "dim_cycle.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("clausius", "--config", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("entroflow: bad cycle:"), proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_no_convergence_exits_4(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "kind": "clausius",
            "system": {"levels": [0.0, 1.0]},
            "initial_state": {"kind": "gibbs", "beta": 9.0},
            "strokes": [{"kind": "contact", "temperature": 2.0, "phi": 0.15}],
        }
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("clausius", "--config", str(path), "--max-cycles", "2", "--fp-tol", "1e-12")
        assert proc.returncode == 4

    def refused_before_any_contact(self, clausius_config, tmp_path, monkeypatch, capsys, flag):
        # clausius_cycle refuses its iteration limits itself, before a contact
        def no_contact(*args, **kwargs):
            raise AssertionError("a contact ran")

        monkeypatch.setattr(exchange, "spectral_entropy", no_contact)
        out = tmp_path / "out.json"
        code = cli.main(["clausius", "--config", clausius_config, flag, "--output", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.out == ""
        assert not out.exists()
        return captured.err.splitlines()

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "0"])
    def test_non_finite_fp_tol_exits_2_before_any_contact(
        self, clausius_config, tmp_path, monkeypatch, capsys, value
    ):
        err = self.refused_before_any_contact(
            clausius_config, tmp_path, monkeypatch, capsys, f"--fp-tol={value}"
        )
        assert err == [
            f"entroflow: config error: fp_tol must be a finite positive number, got {float(value)}"
        ]

    def test_zero_max_cycles_exits_2_before_any_contact(
        self, clausius_config, tmp_path, monkeypatch, capsys
    ):
        err = self.refused_before_any_contact(
            clausius_config, tmp_path, monkeypatch, capsys, "--max-cycles=0"
        )
        assert err == ["entroflow: config error: max_cycles must be an integer >= 1, got 0"]


def _with(base, **fields):
    return {**base, **fields}


EXCHANGE_CFG = {
    "schema_version": 1,
    "kind": "exchange",
    "epsilon": [0.0, 1.0, 2.0, 3.0],
    "gamma": 1.0,
    "mu_a": 1.0,
    "mu_b": 0.5,
    "rotations": [[[2, 2], [0, 3], 1.5]],
}
CYCLE_CFG = {
    "schema_version": 1,
    "kind": "clausius",
    "system": {"levels": [0.0, 1.0]},
    "initial_state": {"kind": "gibbs", "beta": 1.0},
    "strokes": [{"kind": "contact", "temperature": 2.0, "phi": 1.0}],
}
CONTACT = CYCLE_CFG["strokes"][0]
NAN_POPULATIONS = {"kind": "diagonal", "populations": [float("nan"), 1.0]}
STRING_POPULATIONS = {"kind": "diagonal", "populations": ["0.5", 0.5]}


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2], [0, 3], 1.5]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2, 2], [0, 3], "x"]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2, 2.5], [0, 3], 1.5]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[True, 2], [0, 3], 1.5]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2, 2], [0, 3.0], 1.5]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2, 2], [0, 3]]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2, 2], [0, 3], True]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2, 2], [0, 3], 10**400]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations="abc")),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations={"ab": 1, "cde": 2})),
        (("exchange", "--case", "s"), _with(EXCHANGE_CFG, beta_a="hot")),
        (("exchange", "--case", "s"), _with(EXCHANGE_CFG, beta_b=float("inf"))),
        (("clausius",), _with(CYCLE_CFG, strokes=[_with(CONTACT, phi="abc")])),
        (("clausius",), _with(CYCLE_CFG, strokes=[_with(CONTACT, phi=[1])])),
        (("clausius",), _with(CYCLE_CFG, initial_state=NAN_POPULATIONS)),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, gamma=10**400)),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, epsilon=[0.0, 1.0, -(10**400), 3.0])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, mu_a=10**400)),
        (("exchange", "--case", "s"), _with(EXCHANGE_CFG, beta_a=10**400)),
        (("clausius",), _with(CYCLE_CFG, system={"levels": [0.0, 10**400]})),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, gamma=True)),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, mu_b="2.0")),
        (("clausius",), _with(CYCLE_CFG, strokes=[_with(CONTACT, temperature=True)])),
        (("clausius",), _with(CYCLE_CFG, strokes=[_with(CONTACT, phi=True)])),
        (("clausius",), _with(CYCLE_CFG, initial_state={"kind": "gibbs", "beta": 10**400})),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, epsilon=[0.0, True, 2.0, 3.0])),
        (("clausius",), _with(CYCLE_CFG, initial_state=STRING_POPULATIONS)),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, gamma=1e200, mu_a=1e200, mu_b=1e200)),
        (("clausius",), _with(CYCLE_CFG, strokes=[_with(CONTACT, temperature=1e-320)])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, beta_a="x")),
    ],
    ids=[
        "short-label", "angle-string", "fractional-label", "true-label", "float-label",
        "two-element-rotation", "true-angle", "angle-beyond-float", "no-rotations",
        "rotations-string", "rotations-object", "beta-string", "beta-inf",
        "stroke-phi-string", "stroke-phi-list", "population-nan", "gamma-beyond-float",
        "epsilon-beyond-float", "mu-beyond-float", "beta-beyond-float", "level-beyond-float",
        "gamma-true", "mu-string", "stroke-temperature-true", "stroke-phi-true",
        "gibbs-beta-beyond-float", "epsilon-true", "population-string", "derived-beta-inf",
        "contact-beta-inf", "case-v-beta-string",
    ],
)
def test_malformed_config_field_exits_2(tmp_path, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(*argv, "--config", str(path))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("entroflow: config error:")


@pytest.mark.parametrize("command", [["exchange", "--case", "v"], ["clausius"]])
@pytest.mark.parametrize(
    "text, reason",
    [
        (b'{"schema_version": 1, "kind": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 200_000, "maximum recursion depth exceeded"),
        (b'{"gamma": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    ],
    ids=["not-utf-8", "nested-too-deep", "integer-too-long"],
)
def test_unreadable_config_exits_2(tmp_path, capsys, command, text, reason):
    # a decode error, a nesting too deep for the parser or an integer of
    # more digits than Python converts is a config error, not an internal one
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert cli.main([*command, "--config", str(path)]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"entroflow: config error: cannot read config {path}: {reason}")
    assert len(captured.err.splitlines()) == 1


class TestGas:
    def test_reversal_demo(self):
        proc = run_cli(
            "gas", "--ma", "10", "--mb", "1", "--ta", "2", "--tb", "1",
            "--gamma", "1", "--mode", "entangled", "--samples", "50000", "--seed", "1",
        )
        assert proc.returncode == 0, proc.stderr
        payload, _ = payload_of(proc)
        x = payload["x"]
        assert abs(payload["mean_fractional_gain"] - 2 * x * (x - 1)) <= 3 * payload["stderr_fractional_gain"]
        assert payload["reversal_ratio"] == 5.0
        assert payload["verdict"] == 1
        assert abs(payload["z_de_a"]) <= 5.0 and payload["max_event_gap"] <= 1e-12

    def test_product_mode(self):
        proc = run_cli(
            "gas", "--ma", "10", "--mb", "1", "--ta", "2", "--tb", "1",
            "--gamma", "1", "--mode", "product", "--samples", "100000", "--seed", "1",
        )
        payload, _ = payload_of(proc)
        assert payload["mean_de_a"] < 0
        assert payload["mean_fractional_gain"] is None and payload["max_event_gap"] is None
        assert payload["exact_mean_de_a"] == -40.0 / 121.0 and abs(payload["z_de_a"]) <= 5.0

    def test_invalid_temperature_exits_2(self):
        proc = run_cli(
            "gas", "--ma", "10", "--mb", "1", "--ta", "0", "--tb", "1",
            "--gamma", "1", "--mode", "entangled", "--samples", "100", "--seed", "1",
        )
        assert proc.returncode == 2

    def test_overflowing_masses_exit_2(self):
        # m_a + m_b overflows: a NaN payload used to be written with exit 0
        proc = run_cli(
            "gas", "--ma", "1e308", "--mb", "1e308", "--ta", "2", "--tb", "1",
            "--gamma", "1", "--mode", "product", "--samples", "100", "--seed", "1",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("entroflow: config error:")

    @pytest.mark.parametrize(
        "flag, value", [("--samples", "1"), ("--ta", "0"), ("--seed", "-1")]
    )
    def test_refused_flag_exits_2(self, capsys, flag, value):
        flags = {
            "--ma": "10", "--mb": "1", "--ta": "2", "--tb": "1", "--gamma": "1",
            "--mode": "entangled", "--samples": "100", "--seed": "1", flag: value,
        }
        code = cli.main(["gas", *(part for item in flags.items() for part in item)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_VALIDATION
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("entroflow: config error:"), captured.err

    def test_non_finite_result_exits_2(self):
        # valid parameters whose momenta overflow inside the sampler: the
        # NaN is refused on output, in one line
        proc = run_cli(
            "gas", "--ma", "1e308", "--mb", "1", "--ta", "1", "--tb", "1",
            "--gamma", "1e-10", "--mode", "entangled", "--samples", "1000", "--seed", "1",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "not finite" in proc.stderr


class TestNonFiniteOutput:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_envelope_refuses_non_finite(self, value):
        with pytest.raises(NonFiniteResult):
            cli._dumps({"x": value})
        with pytest.raises(NonFiniteResult):
            cli.make_envelope("gas", {}, 1, {"x": [1.0, value]}, 0.0)

    def test_nan_inside_array_refused(self):
        with pytest.raises(NonFiniteResult):
            cli._dumps({"x": np.array([1.0, np.nan])})
        with pytest.raises(NonFiniteResult):
            cli.make_envelope("gas", {}, 1, {"x": np.array([[0.5], [np.inf]])}, 0.0)

    def test_sweep_rows_refuse_non_finite(self):
        assert cli._csv_rows(["a", "b"], [[1.0, 2.0]]) == "a,b\r\n1,2\r\n"
        with pytest.raises(NonFiniteResult):
            cli._csv_rows(["a", "b"], [[1.0, 2.0], [float("nan"), 0.0]])


class TestNumpyPayload:
    NUMPY = {
        "f": np.float64(0.1),
        "i": np.int64(-7),
        "b": np.bool_(True),
        "a": np.array([[1.5, -2.0], [3.0, 1e-300]]),
        "n": [np.float32(0.25), np.int32(3), np.bool_(False), np.arange(3)],
    }
    PLAIN = {
        "f": 0.1,
        "i": -7,
        "b": True,
        "a": [[1.5, -2.0], [3.0, 1e-300]],
        "n": [0.25, 3, False, [0, 1, 2]],
    }

    def test_same_bytes_as_python_values(self, tmp_path):
        assert cli._dumps(self.NUMPY) == cli._dumps(self.PLAIN)
        texts = []
        for name, payload in (("np", self.NUMPY), ("py", self.PLAIN)):
            path = tmp_path / f"{name}.json"
            cli._write_text(cli.make_envelope("gas", {"k": payload}, 1, payload, 0.0), str(path))
            texts.append(path.read_text())
        assert texts[0] == texts[1]

    def test_other_objects_still_refused(self):
        with pytest.raises(TypeError):
            cli._dumps({"x": object()})


class TestClausiusDefaults:
    def test_cli_defaults_are_clausius_cycle_defaults(self):
        args = cli.build_parser().parse_args(["clausius", "--config", "c.json"])
        defaults = inspect.signature(clausius_cycle).parameters
        assert args.max_cycles == defaults["max_cycles"].default
        assert args.fp_tol == defaults["fp_tol"].default


class TestInternalError:
    def test_unexpected_exception_maps_to_internal_code(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ValueError("boom\nsecond line")

        monkeypatch.setattr(cli, "ensemble_heat", broken)
        code = cli.main(
            ["gas", "--ma", "1", "--mb", "1", "--ta", "1", "--tb", "1", "--gamma", "1",
             "--mode", "product", "--samples", "10", "--seed", "1"]
        )
        assert code == cli.EXIT_INTERNAL
        assert code not in (
            cli.EXIT_OK, cli.EXIT_VIOLATION, cli.EXIT_VALIDATION,
            cli.EXIT_DEGENERACY, cli.EXIT_NO_CONVERGENCE,
        )
        err = capsys.readouterr().err
        assert err == "entroflow: internal error: ValueError: boom second line\n"


class TestUnwritableOutput:
    """An --output that cannot be written is a bad flag: exit 2 with one
    line, as for an unreadable --config, never an internal error."""

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_exits_2_with_one_line(self, where, tmp_path, capsys):
        path = tmp_path / "missing" / "x" if where == "missing-directory" else tmp_path
        argv = ["ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "2", "--seed", "1"]
        assert cli.main([*argv, "--output", str(path)]) == cli.EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"entroflow: config error: cannot write output {path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "missing").exists()


class TestParserCache:
    """One parser per process, and nothing of one command reaches the next."""

    def envelope(self, tmp_path, *argv):
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
        return json.loads(out.read_text())

    def test_one_parser(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_flag_leaks_into_the_next_command(self, tmp_path, exchange_config):
        exchange_argv = ("exchange", "--case", "v", "--config", exchange_config)
        assert self.envelope(tmp_path, *exchange_argv, "--phi", "0.5")["config"]["phi"] == 0.5
        assert self.envelope(tmp_path, *exchange_argv)["config"]["phi"] is None
        self.envelope(tmp_path, *TestReproducibility.GAS_ARGS[:-4], "--samples", "100", "--seed", "3")
        ineq = self.envelope(
            tmp_path, "ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "5", "--seed", "7"
        )
        assert sorted(ineq["config"]) == ["check", "dims", "seed", "trials"]

    def test_a_replaced_command_function_runs(self, monkeypatch, capsys):
        # the parser is built before the patch, as when a tracer wraps cmd_*
        # functions in a process that has already run commands
        cli.build_parser()
        monkeypatch.setattr(cli, "cmd_ineq", lambda args: ({}, {"replaced": True}, cli.EXIT_OK))
        assert cli.main(["ineq", "--check", "ssa", "--dims", "2,2,2", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"] == {"replaced": True}


class TestEnvelopeFormat:
    """``{``, one ``  "key": value`` line per sorted top-level key, ``}``;
    each value, the payload too, is its canonical compact JSON, ``_dumps``."""

    @pytest.mark.parametrize("command", ["ineq", "exchange", "clausius", "gas"])
    def test_one_line_per_key(self, tmp_path, exchange_config, clausius_config, command):
        argv = {
            "ineq": ("ineq", "--check", "eq2", "--dims", "2", "--trials", "3", "--seed", "7"),
            "exchange": ("exchange", "--case", "s", "--config", exchange_config),
            "clausius": ("clausius", "--config", clausius_config),
            "gas": (*TestReproducibility.GAS_ARGS[:-4], "--samples", "100", "--seed", "3"),
        }[command]
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
        text = out.read_text()
        envelope = json.loads(text)
        lines = text.split("\n")
        assert lines[0] == "{" and lines[-1] == "}"
        keys = sorted(envelope)
        assert len(lines) == len(keys) + 2
        for n, (key, line) in enumerate(zip(keys, lines[1:-1])):
            comma = "," if n < len(keys) - 1 else ""
            assert line == f'  "{key}": {cli._dumps(envelope[key])}{comma}'

    def test_same_document_as_the_indented_encoding(self):
        config = {"k": TestNumpyPayload.NUMPY, "dims": [2, 3], "phi": None, "name": "x\"y"}
        payload = {**TestNumpyPayload.NUMPY, "nested": {"b": [1.0, -0.0], "a": 1e-300}}
        text = cli.make_envelope("gas", config, 2**64 - 1, payload, 0.125)
        indented = json.dumps(
            {
                "tool_version": cli.__version__, "schema_version": cli.SCHEMA_VERSION,
                "command": "gas", "config": config, "seed": 2**64 - 1, "wall_time_s": 0.125,
                "payload": payload,
            },
            indent=2, sort_keys=True, allow_nan=False, default=cli._numpy_value,
        )
        assert json.loads(text) == json.loads(indented)


class TestExchangeAtTheLimit:
    """``cli.main exchange`` at the joint-dimension limit (64 levels a side,
    joint dimension 4096), with every plane of shell_planes(64): the
    payload is the library's report, bit for bit."""

    @staticmethod
    def configured(tmp_path, case):
        """The config file and the library's case and planes for it."""
        d = 64
        assert d * d == cli.MAX_JOINT_DIM
        rotations = [(first, second, 0.9) for first, second in shell_planes(d)]
        cfg = {
            "schema_version": 1, "kind": "exchange", "epsilon": [float(i) for i in range(d)],
            "gamma": 0.7, "mu_a": 1.0, "mu_b": 0.5, "rotations": rotations,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        spec = EntangledThermalSpec(np.arange(d, dtype=float), 0.7, 1.0, 0.5)
        h_a, h_b = spec.hamiltonian_a(), spec.hamiltonian_b()
        lib_case = (
            CaseSpec.case_v(spec) if case == "v"
            else CaseSpec.case_s(h_a, spec.beta_a, h_b, spec.beta_b)
        )
        return str(path), lib_case, givens_planes(h_a, h_b, rotations)

    @pytest.mark.parametrize("case", ["v", "s"])
    def test_payload_is_the_library_report(self, tmp_path, case):
        path, lib_case, planes = self.configured(tmp_path, case)
        out = tmp_path / "out.json"
        argv = ["exchange", "--case", case, "--config", path, "--output", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        payload = json.loads(out.read_text())["payload"]

        report = dataclasses.asdict(run_exchange(lib_case, planes))
        assert cli._dumps(payload) == cli._dumps(report)
        assert payload["energy_conserving"] is True
        assert payload["identity_gap"] <= 1e-14

    @pytest.mark.parametrize("case", ["v", "s"])
    def test_sweep_batches_are_one_angle_runs(self, tmp_path, monkeypatch, case):
        # a budget of 2 * 64**2 is 2 angles per run_exchange, so 5 points
        # take stacks of 2, 2 and 1; the CSV is that of one-angle runs
        path, lib_case, planes = self.configured(tmp_path, case)
        monkeypatch.setattr(cli, "BATCH_ELEMENTS", 2 * cli.MAX_JOINT_DIM)
        stacks = []

        def counted(case, planes):
            stacks.append(planes.phi.shape[:-1])
            return run_exchange(case, planes)

        monkeypatch.setattr(cli, "run_exchange", counted)
        out = tmp_path / "out.csv"
        argv = ["exchange", "--case", case, "--config", path, "--sweep", "phi=0.1:1.5:5"]
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
        assert stacks == [(2,), (2,), (1,)]

        rows = []
        for phi in np.linspace(0.1, 1.5, 5):
            report = run_exchange(lib_case, planes.at_angle(float(phi)))
            rows.append([phi, *(getattr(report, field) for _, field in cli._SWEEP_COLUMNS)])
        header = ["phi", *(name for name, _ in cli._SWEEP_COLUMNS)]
        assert out.read_bytes() == cli._csv_rows(header, rows).encode()


class TestWorkerCount:
    """ENTROFLOW_THREADS read against a patched CPU set: no thread starts."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def patch(threads, affinity=None, count=None):
            monkeypatch.setenv("ENTROFLOW_THREADS", threads)
            if affinity is None:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)))
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            return cli.worker_count()
        return patch

    @pytest.mark.parametrize(
        "threads, affinity, count, want",
        [
            ("0", 2, 64, 2),  # auto: the CPUs this process may run on, not the machine's
            ("16", 2, 64, 2),  # an explicit count is capped by them too
            ("1", 2, 64, 1),
            ("3", 4, 64, 3),
            ("0", None, 3, 3),  # no sched_getaffinity: os.cpu_count
            ("16", None, 3, 3),
            ("0", None, None, 1),  # neither known: one worker
        ],
    )
    def test_capped_at_the_usable_cpus(self, cpus, threads, affinity, count, want):
        assert cpus(threads, affinity, count) == want

    @pytest.mark.parametrize("threads", ["-1", "two", "1.5"])
    def test_bad_value_is_a_config_error(self, cpus, threads):
        with pytest.raises(cli.ConfigError, match="ENTROFLOW_THREADS"):
            cpus(threads, 2, 2)


class TestReproducibility:
    GAS_ARGS = (
        "gas", "--ma", "10", "--mb", "1", "--ta", "2", "--tb", "1",
        "--gamma", "1", "--mode", "entangled", "--samples", "150000", "--seed", "5",
    )

    def test_payload_stable_across_runs_and_threads(self):
        payloads = set()
        for threads in (1, 4, 8):
            proc = run_cli(*self.GAS_ARGS, threads=threads)
            assert proc.returncode == 0, proc.stderr
            payload, _ = payload_of(proc)
            payloads.add(json.dumps(payload, sort_keys=True))
        proc = run_cli(*self.GAS_ARGS, threads=1)
        payload, _ = payload_of(proc)
        payloads.add(json.dumps(payload, sort_keys=True))
        assert len(payloads) == 1

    def test_config_echoed(self):
        proc = run_cli(*self.GAS_ARGS)
        _, envelope = payload_of(proc)
        assert envelope["config"]["samples"] == 150000
        assert envelope["config"]["seed"] == 5
        assert envelope["tool_version"]


class TestEnvelopeEcho:
    """The exact config echo and seed of one run of each JSON command."""

    def envelope(self, tmp_path, *argv):
        out = tmp_path / "out.json"
        assert cli.main([*argv, "--output", str(out)]) == cli.EXIT_OK
        envelope = json.loads(out.read_text())
        assert sorted(envelope) == [
            "command", "config", "payload", "schema_version", "seed", "tool_version",
            "wall_time_s",
        ]
        assert envelope["command"] == argv[0]
        return envelope

    @staticmethod
    def same(echoed, expected):
        # as JSON text, so that 10 and 10.0 differ
        assert json.dumps(echoed, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_ineq(self, tmp_path):
        envelope = self.envelope(
            tmp_path, "ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "5", "--seed", "7"
        )
        self.same(envelope["config"], {"check": "ssa", "dims": [2, 2, 2], "trials": 5, "seed": 7})
        assert envelope["seed"] == 7

    def test_exchange(self, tmp_path, exchange_config):
        envelope = self.envelope(
            tmp_path, "exchange", "--case", "v", "--config", exchange_config, "--phi", "0.5"
        )
        with open(exchange_config) as fh:
            cfg = json.load(fh)
        self.same(
            envelope["config"], {"case": "v", "config_file": cfg, "phi": 0.5, "sweep": None}
        )
        assert envelope["seed"] is None

    def test_clausius(self, tmp_path, clausius_config):
        envelope = self.envelope(
            tmp_path, "clausius", "--config", clausius_config, "--max-cycles", "40",
            "--fp-tol", "1e-9",
        )
        with open(clausius_config) as fh:
            cfg = json.load(fh)
        self.same(envelope["config"], {"config_file": cfg, "max_cycles": 40, "fp_tol": 1e-9})
        assert envelope["seed"] is None

    def test_gas(self, tmp_path):
        envelope = self.envelope(
            tmp_path, "gas", "--ma", "10", "--mb", "1", "--ta", "2", "--tb", "1", "--gamma",
            "1", "--mode", "product", "--samples", "100", "--seed", "3", "--flux", "on",
        )
        expected = {
            "ma": 10.0, "mb": 1.0, "ta": 2.0, "tb": 1.0, "gamma": 1.0, "mode": "product",
            "samples": 100, "seed": 3, "flux": "on",
        }
        self.same(envelope["config"], expected)
        assert envelope["seed"] == 3
