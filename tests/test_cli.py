import hashlib
import inspect
import json
import math
import os
import subprocess
import sys

import golden
import numpy as np
import pytest

from conftest import eq2_trial, random_density

from entroflow import DensityOperator, NonFiniteResult, clausius_cycle, cli, exchange, substream
from entroflow.qmath import ginibre_draw, random_densities, substream_draws

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

    def test_ssa_needs_three_factors(self):
        proc = run_cli("ineq", "--check", "ssa", "--dims", "2", "--trials", "5", "--seed", "7")
        assert proc.returncode == 2

    def test_bad_flag_exits_2(self):
        proc = run_cli("ineq", "--check", "nope", "--dims", "2,2,2", "--trials", "5", "--seed", "7")
        assert proc.returncode == 2


class TestIneqBatches:
    def test_eigensolves_per_batch_not_per_trial(self, eigensolves, tmp_path):
        argv = ["ineq", "--check", "ssa", "--dims", "2,2,2", "--trials", "1000", "--seed", "7"]
        assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == cli.EXIT_OK
        batches = math.ceil(1000 / max(1, cli.BATCH_ELEMENTS // 8**2))
        # per batch: the validation and the four subsystem entropies
        assert len(eigensolves) == 5 * batches

    # 1: one trial per batch; 1000: ragged batches of 3 to 62 trials
    @pytest.mark.parametrize("budget", [1, 1000])
    def test_payloads_do_not_depend_on_the_batch(self, budget, monkeypatch, tmp_path):
        want = {key: digest for key, digest in golden.load().items() if key.startswith("ineq.")}
        argvs = {key: argv for key, argv in golden.cases(tmp_path).items() if key in want}
        assert len(argvs) == 6
        extra = {
            f"{check} {dims}": [
                "ineq", "--check", check, "--dims", dims, "--trials", "50", "--seed", "7"
            ]
            for check, dims in [("ssa", "2,2,3"), ("eq1", "2,3,2"), ("eq2", "3"), ("eq2", "3,3")]
        }
        for key, argv in extra.items():
            want[key] = golden.payload_bytes(argv, tmp_path)
        monkeypatch.setattr(cli, "BATCH_ELEMENTS", budget)
        for key, argv in argvs.items():
            got = golden.payload_bytes(argv, tmp_path)
            assert hashlib.sha256(got).hexdigest() == want[key], key
        for key, argv in extra.items():
            assert golden.payload_bytes(argv, tmp_path) == want[key], key


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBatchedDraws:
    """Each batch's draws and the arithmetic on them, bit for bit against
    each trial drawn and formed alone (tests/conftest.py oracles)."""

    @pytest.mark.parametrize(
        "d, ranks",
        [(6, [3, 1, 6, 3, 2, 6, 1, 1]), (5, [4, 1, 2, 5, 3]), (8, [5])],
        ids=["ragged", "every-rank", "batch-of-one"],
    )
    def test_densities(self, d, ranks):
        draws = [ginibre_draw((d, rank), substream(31, t)) for t, rank in enumerate(ranks)]
        got = random_densities(draws)
        for t, rank in enumerate(ranks):
            assert same_bits(got[t], random_density(d, rank, substream(31, t)))

    @pytest.mark.parametrize("dims, trials", [((2, 2, 2), 40), ((2, 2, 2, 2), 1), ((3, 2), 30)])
    def test_ssa_and_eq1_states(self, dims, trials):
        d = math.prod(dims)
        got = cli._random_states(dims, lambda draw: substream_draws(draw, range(trials), 32))
        ranks = set()
        for t in range(trials):
            rng = substream(32, t)
            rank = int(rng.integers(1, d + 1))
            ranks.add(rank)
            alone = DensityOperator(random_density(d, rank, rng), dims)
            assert same_bits(got.matrix[t], alone.matrix)
            assert same_bits(got.spectrum[t], alone.spectrum)
        assert trials == 1 or ranks == set(range(1, d + 1))

    @pytest.mark.parametrize("factors, trials", [((2, 3), 12), ((3, 2), 1), ((2, 2), 9)])
    def test_eq2_inputs(self, factors, trials):
        h_i, beta, channel, h_f = cli._eq2_inputs(
            factors, lambda draw: substream_draws(draw, range(trials), 33)
        )
        for t in range(trials):
            *want, ancilla = eq2_trial(*factors, substream(33, t))
            want.append(DensityOperator(ancilla, factors[1:]).matrix)
            got = (
                beta[t], h_i.levels[t], h_i.basis[t], h_f.levels[t], h_f.basis[t],
                channel.unitary[t], channel.ancilla.matrix[t],
            )
            for got_part, want_part in zip(got, want):
                assert same_bits(got_part, want_part)


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

    def test_oversized_clausius_system_exits_2(self, tmp_path, clausius_config):
        # refused before the 4097 x 4097 Gibbs state and its eigensolve
        cfg = json.loads(open(clausius_config).read())
        cfg["system"]["levels"] = [float(i) for i in range(cli.MAX_JOINT_DIM + 1)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out.json"
        proc = run_cli("clausius", "--config", str(path), "--output", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.count("\n") == 1
        assert f"above the limit of {cli.MAX_JOINT_DIM}" in proc.stderr
        assert not out.exists()


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

    def test_runs_no_dense_unitary_check(self, tmp_path):
        # the command applies plane rotations plane by plane; its gates are
        # per plane (cos^2 + sin^2 = 1, s (E_u - E_v)), and the payloads
        # keep their recorded bits
        want = golden.load()
        runs = {key: argv for key, argv in golden.cases(tmp_path).items() if argv[0] == "exchange"}
        assert {"demo.v", "demo.s", "exchange.sweep@7"} <= runs.keys()
        for key, argv in runs.items():
            got = hashlib.sha256(golden.payload_bytes(argv, tmp_path)).hexdigest()
            assert got == want[key], key

    def test_non_degenerate_rotation_exits_3(self, tmp_path, exchange_config):
        cfg = json.loads(open(exchange_config).read())
        cfg["rotations"] = [[[0, 0], [1, 1], 0.3]]
        path = tmp_path / "bad_rot.json"
        path.write_text(json.dumps(cfg))
        proc = run_cli("exchange", "--case", "v", "--config", str(path))
        assert proc.returncode == 3

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

        monkeypatch.setattr(exchange, "_contact_state", no_contact)
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
        assert err == ["entroflow: config error: max_cycles must be >= 1, got 0"]


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


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2], [0, 3], 1.5]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2, 2], [0, 3], "x"]])),
        (("exchange", "--case", "v"), _with(EXCHANGE_CFG, rotations=[[[2, 2.5], [0, 3], 1.5]])),
        (("exchange", "--case", "s"), _with(EXCHANGE_CFG, beta_a="hot")),
        (("exchange", "--case", "s"), _with(EXCHANGE_CFG, beta_b=float("inf"))),
        (("clausius",), _with(CYCLE_CFG, strokes=[_with(CONTACT, phi="abc")])),
        (("clausius",), _with(CYCLE_CFG, strokes=[_with(CONTACT, phi=[1])])),
        (("clausius",), _with(CYCLE_CFG, initial_state=NAN_POPULATIONS)),
    ],
    ids=[
        "short-label", "angle-string", "fractional-label", "beta-string", "beta-inf",
        "stroke-phi-string", "stroke-phi-list", "population-nan",
    ],
)
def test_malformed_config_field_exits_2(tmp_path, argv, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli(*argv, "--config", str(path))
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("entroflow: config error:")


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

    def test_product_mode(self):
        proc = run_cli(
            "gas", "--ma", "10", "--mb", "1", "--ta", "2", "--tb", "1",
            "--gamma", "1", "--mode", "product", "--samples", "100000", "--seed", "1",
        )
        payload, _ = payload_of(proc)
        assert payload["mean_de_a"] < 0
        assert payload["mean_fractional_gain"] is None

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
            cli.payload_json({"x": value})
        with pytest.raises(NonFiniteResult):
            cli.make_envelope("gas", {}, 1, {"x": [1.0, value]}, 0.0)

    def test_nan_inside_array_refused(self):
        with pytest.raises(NonFiniteResult):
            cli.payload_json({"x": np.array([1.0, np.nan])})
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
        assert cli.payload_json(self.NUMPY) == cli.payload_json(self.PLAIN)
        texts = []
        for name, payload in (("np", self.NUMPY), ("py", self.PLAIN)):
            path = tmp_path / f"{name}.json"
            cli._write_text(cli.make_envelope("gas", {"k": payload}, 1, payload, 0.0), str(path))
            texts.append(path.read_text())
        assert texts[0] == texts[1]

    def test_other_objects_still_refused(self):
        with pytest.raises(TypeError):
            cli.payload_json({"x": object()})


class TestClausiusDefaults:
    def test_cli_defaults_are_clausius_cycle_defaults(self):
        args = cli.build_parser().parse_args(["clausius", "--config", "c.json"])
        defaults = inspect.signature(clausius_cycle).parameters
        assert args.max_cycles == defaults["max_cycles"].default
        assert args.fp_tol == defaults["fp_tol"].default


class TestInternalError:
    def test_unexpected_exception_maps_to_internal_code(self, monkeypatch, capsys):
        def broken(args):
            raise ValueError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_gas", broken)
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
