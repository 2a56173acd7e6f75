"""Command-line driver: config ingestion, experiment dispatch, seeded
reproducibility, and JSON/CSV result emission.

Subcommands: ineq, exchange, clausius, gas.  Every JSON result is wrapped
in an envelope echoing the exact configuration and master seed; payloads
are bit-reproducible for a given (config, seed) at any worker count.

Exit codes: 0 success, 1 inequality violation, 2 validation/config error
or a non-finite result, 3 degeneracy failure of a requested rotation, 4 no
fixed-point convergence, 5 internal error (an exception outside the
package's error taxonomy).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from functools import partial
from typing import Callable

import numpy as np

from . import __version__
from .errors import (
    BadCycle,
    ConfigError,
    EntroflowError,
    InvalidSpec,
    NoConvergence,
    NonFiniteResult,
    NotDegenerate,
    OverlappingPlanes,
)
from .exchange import (
    CLAUSIUS_TOL,
    FIXED_POINT_TOL,
    MAX_CYCLES,
    STROKE_TOL,
    CaseSpec,
    ClausiusStroke,
    clausius_cycle,
    givens_planes,
    joint_energies,
    run_exchange,
)
from .gas import CollisionSpec, ensemble_heat
from .inequalities import (
    IDENTITY_TOL,
    RHS_TOL,
    SLACK_TOL,
    AncillaChannel,
    GibbsEvolutionReport,
    SlackReport,
    average_correlation_bound,
    check_ssa,
    gibbs_evolution_identity,
)
from .qmath import (
    MAX_JOINT_DIM,
    density_draw,
    ginibre_draw,
    haar_unitaries,
    random_densities,
    substream_draws,
)
from .states import (
    STATE_TOL,
    DensityOperator,
    EntangledThermalSpec,
    HamiltonianSpec,
    gibbs_state,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_VALIDATION = 2
EXIT_DEGENERACY = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INTERNAL = 5

# ineq evaluates its trials in batches of as many as fit this many complex
# entries (128 KiB) per stacked joint-space array; no payload depends on
# the batch.  Larger budgets were no faster at the README sizes overall
# (eq1 gained what eq2 lost).  In the benchmark's ensembles pass the later
# gas runs set the peak memory, 59 MB at this budget; 2^14 and 2^16 raise
# it to 61 MB, and the ineq commands' own peak from 41 to 43 MB (2 vCPU,
# numpy 2.4.6).
BATCH_ELEMENTS = 2**13


def worker_count() -> int:
    """Worker cap from ENTROFLOW_THREADS (0 or unset = auto); results never
    depend on it."""
    raw = os.environ.get("ENTROFLOW_THREADS", "0")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"ENTROFLOW_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigError(f"ENTROFLOW_THREADS must be >= 0, got {value}")
    return value if value > 0 else (os.cpu_count() or 1)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _numpy_value(value):
    # json encodes np.float64 as the float it is; other numpy scalars and
    # arrays become the Python values they hold
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(value, **kwargs) -> str:
    # NaN and infinity are not JSON: such a result is refused, not written
    try:
        return json.dumps(value, sort_keys=True, allow_nan=False, default=_numpy_value, **kwargs)
    except ValueError as exc:
        raise NonFiniteResult(f"result is not finite: {exc}") from exc


def payload_json(payload: dict) -> str:
    """Canonical serialization: key-sorted, round-trip-exact doubles."""
    return _dumps(payload)


def make_envelope(command: str, config: dict, seed: int | None, payload: dict, wall_time: float) -> str:
    """The result envelope, encoded as indented JSON text."""
    envelope = {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "wall_time_s": wall_time,
        "payload": payload,
    }
    return _dumps(envelope, indent=2)


def _write_text(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _csv_rows(header: list[str], rows: list[list[float]]) -> str:
    if not all(math.isfinite(v) for row in rows for v in row):
        raise NonFiniteResult("result is not finite: a CSV row holds NaN or infinity")
    lines = [",".join(header)]
    lines.extend(",".join(_fmt17(v) for v in row) for row in rows)
    return "\r\n".join(lines) + "\r\n"


def _load_config(path: str, expected_kind: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')!r}"
        )
    if cfg.get("kind") != expected_kind:
        raise ConfigError(f"config kind must be {expected_kind!r}, got {cfg.get('kind')!r}")
    return cfg


def _is_finite_number(value) -> bool:
    # exact types: JSON true/false load as bool, an int subclass
    return type(value) in (int, float) and math.isfinite(value)


def _require_number_list(cfg: dict, key: str) -> list[float]:
    value = cfg.get(key)
    if not isinstance(value, list) or not value or not all(map(_is_finite_number, value)):
        raise ConfigError(f"config field {key!r} must be a nonempty array of finite numbers")
    return [float(v) for v in value]


def _require_positive(cfg: dict, key: str) -> float:
    value = cfg.get(key)
    if not _is_finite_number(value) or not value > 0:
        raise ConfigError(f"config field {key!r} must be a finite positive number")
    return float(value)


def _require_finite(value, what: str) -> float:
    if not _is_finite_number(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _require_joint_dim(joint: int, source: str) -> int:
    if joint > MAX_JOINT_DIM:
        raise ConfigError(
            f"{source} gives a joint dimension of {joint}, above the limit of {MAX_JOINT_DIM}"
        )
    return joint


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ConfigError(f"--seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--dims must be comma-separated integers, got {text!r}") from exc
    if not dims or any(d < 2 for d in dims):
        raise ConfigError(f"--dims entries must all be >= 2, got {text!r}")
    return dims


def _parse_sweep(text: str) -> np.ndarray:
    # accepted shape: phi=a:b:n
    try:
        name, rng = text.split("=", 1)
        lo, hi, count = rng.split(":")
        lo_f, hi_f, n_i = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ConfigError(f"--sweep must look like phi=a:b:n, got {text!r}") from exc
    if name != "phi":
        raise ConfigError(f"only phi sweeps are supported, got {name!r}")
    if not (math.isfinite(lo_f) and math.isfinite(hi_f)):
        raise ConfigError(f"sweep bounds must be finite, got {text!r}")
    if n_i < 2:
        raise ConfigError(f"sweep needs at least 2 points, got {n_i}")
    return np.linspace(lo_f, hi_f, n_i)


# ---------------------------------------------------------------- ineq ---

# a batch's trials: runs a per-trial draw on each trial's own stream and
# returns the draws in trial order (a bound ``qmath.substream_draws``)
Trials = Callable[[Callable[[np.random.Generator], object]], list]


def _random_states(dims: tuple[int, ...], trials: Trials) -> DensityOperator:
    return DensityOperator(random_densities(trials(partial(density_draw, math.prod(dims)))), dims)


# eq2's beta is exp of a uniform draw on [ln 0.1, ln 10]
_LN_BETA_RANGE = (np.log(0.1), np.log(10.0))


def _hamiltonian_draw(d: int, rng: np.random.Generator) -> tuple:
    # the levels and the Ginibre draw of the eigenbasis; the span cap of 1.2
    # is part of the seeded eq2 draw, and changing it moves every eq2 digest
    return rng.uniform(0.0, 1.2, d), ginibre_draw((d, d), rng)


def _hamiltonians(draws) -> HamiltonianSpec:
    levels, bases = zip(*draws)
    return HamiltonianSpec(np.sort(np.stack(levels), axis=-1), basis=haar_unitaries(bases))


def _eq2_draw(d_sys: int, d_anc: int, rng: np.random.Generator) -> tuple:
    return (
        rng.uniform(*_LN_BETA_RANGE),
        _hamiltonian_draw(d_sys, rng),
        _hamiltonian_draw(d_sys, rng),
        ginibre_draw((d_sys * d_anc, d_sys * d_anc), rng),
        density_draw(d_anc, rng),
    )


def _eq2_inputs(factors: tuple[int, int], trials: Trials) -> tuple:
    # (h_i, beta, channel, h_f) of gibbs_evolution_identity for a batch
    ln_beta, h_i, h_f, g_u, ancilla = zip(*trials(partial(_eq2_draw, *factors)))
    channel = AncillaChannel(
        haar_unitaries(g_u), DensityOperator(random_densities(ancilla), factors[1:])
    )
    return _hamiltonians(h_i), np.exp(np.array(ln_beta)), channel, _hamiltonians(h_f)


def _slacks(report: SlackReport) -> dict:
    worst = int(np.argmin(report.slack))
    return {
        "worst_slack": float(report.slack[worst]),
        "worst_trial": worst,
        "tol": SLACK_TOL,
        "all_pass": bool(np.all(report.passed)),
    }


def _gibbs(report: GibbsEvolutionReport) -> dict:
    gaps, slacks = report.identity_gap, report.rhs
    worst_gap = int(np.argmax(gaps))
    worst_slack = int(np.argmin(slacks))
    return {
        "worst_identity_gap": float(gaps[worst_gap]),
        "worst_gap_trial": worst_gap,
        "worst_slack": float(slacks[worst_slack]),
        "worst_slack_trial": worst_slack,
        "gap_tol": IDENTITY_TOL,
        "slack_tol": RHS_TOL,
        "all_pass": bool(gaps[worst_gap] <= IDENTITY_TOL and slacks[worst_slack] >= -RHS_TOL),
    }


# check -> (substream tag, factor-count rule, its error, tensor factors of a
# trial, a batch's draws and report, payload fields); trial t draws the
# stream of substream (seed, tag, t), so checks sharing a master seed never
# consume the same stream; an eq2 ancilla is a qubit unless --dims names it
_INEQ_CHECKS = {
    "ssa": (
        1, lambda n: n == 3, "ssa needs exactly 3 factors in --dims", tuple,
        lambda dims, trials: check_ssa(_random_states(dims, trials), 0, 1, 2), _slacks,
    ),
    "eq1": (
        2, lambda n: n >= 3, "eq1 needs at least 3 factors in --dims", tuple,
        lambda dims, trials: average_correlation_bound(_random_states(dims, trials)), _slacks,
    ),
    "eq2": (
        3, lambda n: n <= 2, "eq2 takes --dims SYSTEM or SYSTEM,ANCILLA",
        lambda dims: (*dims, 2)[:2],
        lambda dims, trials: gibbs_evolution_identity(*_eq2_inputs(dims, trials)), _gibbs,
    ),
}


def cmd_ineq(args: argparse.Namespace) -> tuple:
    dims = _parse_dims(args.dims)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    seed = _check_seed(args.seed)
    tag, dims_ok, dims_error, factors_of, run_batch, fields = _INEQ_CHECKS[args.check]
    if not dims_ok(len(dims)):
        raise ConfigError(dims_error)
    factors = factors_of(dims)
    joint = _require_joint_dim(math.prod(factors), "--dims")

    # a trial runs only its RNG calls, on the stream of substream(seed, tag,
    # t) in trial order; the Philox keys of a batch's trials are derived in
    # one vectorised pass (qmath.substream_draws), everything derived from
    # the draws runs once per batch, and the batch reports join into one
    batch = max(1, BATCH_ELEMENTS // joint**2)
    reports = []
    for first in range(0, args.trials, batch):
        trials = range(first, min(first + batch, args.trials))
        reports.append(run_batch(factors, lambda draw: substream_draws(draw, trials, seed, tag)))
    report = type(reports[0])(
        *(np.concatenate(column) for column in zip(*map(dataclasses.astuple, reports)))
    )
    payload = {"check": args.check, "trials": args.trials, **fields(report)}
    return {"dims": list(dims)}, payload, EXIT_OK if payload["all_pass"] else EXIT_VIOLATION


# ------------------------------------------------------------ exchange ---

def _exchange_setup(args: argparse.Namespace):
    cfg = _load_config(args.config, "exchange")
    epsilon = _require_number_list(cfg, "epsilon")
    _require_joint_dim(len(epsilon) ** 2, "config field 'epsilon'")
    gamma = _require_positive(cfg, "gamma")
    mu_a = _require_positive(cfg, "mu_a")
    mu_b = _require_positive(cfg, "mu_b")
    spec = EntangledThermalSpec(np.asarray(epsilon), gamma, mu_a, mu_b)

    rotations_cfg = cfg.get("rotations")
    if not isinstance(rotations_cfg, list) or not rotations_cfg or not all(
        map(_is_rotation, rotations_cfg)
    ):
        raise ConfigError(
            "config field 'rotations' must be a list of [[i,j],[i2,j2],phi] "
            "with integer labels and a finite angle"
        )
    planes = [((i, j), (i2, j2), float(phi)) for (i, j), (i2, j2), phi in rotations_cfg]

    if args.case == "v":
        case = CaseSpec.case_v(spec)
    else:
        case = CaseSpec.case_s(
            spec.hamiltonian_a(),
            spec.beta_a if cfg.get("beta_a") is None else _require_positive(cfg, "beta_a"),
            spec.hamiltonian_b(),
            spec.beta_b if cfg.get("beta_b") is None else _require_positive(cfg, "beta_b"),
        )
    return cfg, case, planes


def _is_rotation(rot) -> bool:
    return (
        isinstance(rot, list)
        and len(rot) == 3
        and all(
            isinstance(label, list) and len(label) == 2 and all(type(v) is int for v in label)
            for label in rot[:2]
        )
        and _is_finite_number(rot[2])
    )


# sweep CSV columns after phi: (header, ExchangeReport field)
_SWEEP_COLUMNS = (
    ("Q_A", "q_a"),
    ("Q_B", "q_b"),
    ("dS_A", "ds_a"),
    ("dS_B", "ds_b"),
    ("I_init", "mutual_info_initial"),
    ("I_final", "mutual_info_final"),
    ("W", "work_leak"),
)


def cmd_exchange(args: argparse.Namespace) -> tuple | str:
    if args.phi is not None and args.sweep is not None:
        raise ConfigError("--phi and --sweep both set the angle; give one of them")
    if args.phi is not None:
        _require_finite(args.phi, "--phi")
    cfg, case, planes = _exchange_setup(args)
    grid = None if args.sweep is None else _parse_sweep(args.sweep)
    # the planes are checked once; --phi and each sweep point only swap the
    # angle, and no D x D unitary is built
    h_a, h_b = case.hamiltonians()
    form = givens_planes((h_a.dim, h_b.dim), planes, joint_energies(h_a, h_b))

    if grid is not None:
        rows = []
        for phi in grid:
            report = run_exchange(case, form.at_angle(float(phi)))
            rows.append([float(phi), *(getattr(report, field) for _, field in _SWEEP_COLUMNS)])
        header = ["phi", *(name for name, _ in _SWEEP_COLUMNS)]
        return _csv_rows(header, rows)

    report = run_exchange(case, form if args.phi is None else form.at_angle(args.phi))
    return {"config_file": cfg}, dataclasses.asdict(report), EXIT_OK


# ------------------------------------------------------------ clausius ---

def _clausius_setup(args: argparse.Namespace):
    cfg = _load_config(args.config, "clausius")
    system_cfg = cfg.get("system")
    if not isinstance(system_cfg, dict):
        raise ConfigError("config field 'system' must be an object with 'levels'")
    levels = _require_number_list(system_cfg, "levels")
    # the states and contacts are dense d x d: refuse before building one
    _require_joint_dim(len(levels), "config field 'system.levels'")
    h0 = HamiltonianSpec(np.asarray(levels))

    init_cfg = cfg.get("initial_state")
    if not isinstance(init_cfg, dict) or "kind" not in init_cfg:
        raise ConfigError("config field 'initial_state' must carry a 'kind'")
    if init_cfg["kind"] == "gibbs":
        rho0 = gibbs_state(h0, _require_positive(init_cfg, "beta"))
    elif init_cfg["kind"] == "diagonal":
        pops = np.asarray(_require_number_list(init_cfg, "populations"))
        if pops.size != h0.dim or np.any(pops < 0) or abs(pops.sum() - 1.0) > STATE_TOL:
            raise ConfigError("'populations' must be a normalized distribution over the levels")
        rho0 = DensityOperator(np.diag(pops).astype(complex), (h0.dim,))
    elif init_cfg["kind"] == "maximally_mixed":
        rho0 = DensityOperator(np.eye(h0.dim, dtype=complex) / h0.dim, (h0.dim,))
    else:
        raise ConfigError(f"unknown initial_state kind {init_cfg['kind']!r}")

    strokes_cfg = cfg.get("strokes")
    if not isinstance(strokes_cfg, list) or not strokes_cfg:
        raise ConfigError("config field 'strokes' must be a nonempty list")
    strokes = []
    for entry in strokes_cfg:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError("every stroke must be an object with a 'kind'")
        if entry["kind"] == "contact":
            strokes.append(
                ClausiusStroke.contact(
                    _require_positive(entry, "temperature"),
                    _require_finite(entry.get("phi", math.pi / 2), "stroke field 'phi'"),
                )
            )
        elif entry["kind"] == "quench":
            strokes.append(
                ClausiusStroke.quench(
                    HamiltonianSpec(np.asarray(_require_number_list(entry, "levels")))
                )
            )
        else:
            raise ConfigError(f"unknown stroke kind {entry['kind']!r}")
    return cfg, h0, rho0, strokes


def cmd_clausius(args: argparse.Namespace) -> tuple:
    cfg, h0, rho0, strokes = _clausius_setup(args)
    report = clausius_cycle((h0, rho0), strokes, max_cycles=args.max_cycles, fp_tol=args.fp_tol)
    payload = dataclasses.asdict(report)
    payload["converged"] = True
    payload["clausius_pass"] = report.clausius_sum <= CLAUSIUS_TOL
    payload["stroke_pass"] = all(r.slack <= STROKE_TOL for r in report.strokes)
    return {"config_file": cfg}, payload, EXIT_OK if payload["clausius_pass"] else EXIT_VIOLATION


# ----------------------------------------------------------------- gas ---

def cmd_gas(args: argparse.Namespace) -> tuple:
    flux = None if args.flux is None else (args.flux == "on")
    _check_seed(args.seed)
    spec = CollisionSpec(
        m_a=args.ma,
        m_b=args.mb,
        t_a=args.ta,
        t_b=args.tb,
        gamma=args.gamma,
        flux_weighting=flux,
    )
    report = ensemble_heat(spec, args.mode, args.samples, args.seed, workers=worker_count())
    payload = dataclasses.asdict(report)
    payload["reversal_ratio"] = spec.reversal_ratio
    return {}, payload, EXIT_OK


# ---------------------------------------------------------------- main ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroflow",
        description="Heat-flow direction experiments for correlated quantum systems.",
    )
    parser.add_argument("--version", action="version", version=f"entroflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ineq = sub.add_parser("ineq", help="random-ensemble entropy-inequality checks")
    p_ineq.add_argument(
        "--check",
        required=True,
        choices=["ssa", "eq1", "eq2"],
        help="ssa: strong subadditivity; eq1: average-correlation bound; "
        "eq2: Gibbs-evolution identity",
    )
    p_ineq.add_argument("--dims", required=True, help="comma-separated factor dimensions")
    p_ineq.add_argument("--trials", type=int, default=100)
    p_ineq.add_argument("--seed", type=int, required=True)
    p_ineq.add_argument("--output", default=None, help="output path (default stdout)")
    p_ineq.set_defaults(func=cmd_ineq)

    p_ex = sub.add_parser("exchange", help="two-system heat-exchange experiment")
    p_ex.add_argument("--case", required=True, choices=["s", "v"])
    p_ex.add_argument("--config", required=True, help="JSON experiment config")
    p_ex.add_argument("--phi", type=float, default=None, help="override all rotation angles")
    p_ex.add_argument("--sweep", default=None, help="phi=a:b:n emits CSV rows over the grid")
    p_ex.add_argument("--output", default=None)
    p_ex.set_defaults(func=cmd_exchange)

    p_cl = sub.add_parser("clausius", help="cyclic contact-with-reservoirs run")
    p_cl.add_argument("--config", required=True, help="JSON system + strokes config")
    p_cl.add_argument("--max-cycles", type=int, default=MAX_CYCLES)
    p_cl.add_argument("--fp-tol", type=float, default=FIXED_POINT_TOL)
    p_cl.add_argument("--output", default=None)
    p_cl.set_defaults(func=cmd_clausius)

    p_gas = sub.add_parser("gas", help="dilute-gas collision ensemble")
    p_gas.add_argument("--ma", type=float, required=True)
    p_gas.add_argument("--mb", type=float, required=True)
    p_gas.add_argument("--ta", type=float, required=True)
    p_gas.add_argument("--tb", type=float, required=True)
    p_gas.add_argument("--gamma", type=float, required=True)
    p_gas.add_argument("--mode", required=True, choices=["entangled", "product"])
    p_gas.add_argument("--samples", type=int, required=True)
    p_gas.add_argument("--seed", type=int, required=True)
    p_gas.add_argument("--flux", choices=["on", "off"], default=None)
    p_gas.add_argument("--output", default=None)
    p_gas.set_defaults(func=cmd_gas)
    return parser


# argparse dests the envelope does not echo: a command echoes the parsed
# config file, not its path
_NOT_ECHOED = ("command", "func", "output", "config")


def main(argv: list[str] | None = None) -> int:
    """Run one command.  A command returns CSV text (a sweep), written as it
    is, or (parsed inputs, payload, exit code); the envelope then echoes
    every flag with the parsed inputs over them."""
    args = build_parser().parse_args(argv)
    try:
        # numpy's floating-point warnings would add lines to stderr; a
        # non-finite result is refused on output instead (NonFiniteResult)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            started = time.perf_counter()
            result = args.func(args)
            if isinstance(result, str):
                _write_text(result, args.output)
                return EXIT_OK
            parsed, payload, code = result
            config = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED} | parsed
            wall_time = time.perf_counter() - started
            envelope = make_envelope(args.command, config, config.get("seed"), payload, wall_time)
            _write_text(envelope, args.output)
            return code
    except (ConfigError, InvalidSpec) as exc:
        print(f"entroflow: config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BadCycle as exc:
        print(f"entroflow: bad cycle: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NotDegenerate, OverlappingPlanes) as exc:
        print(f"entroflow: degeneracy error: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except NoConvergence as exc:
        print(f"entroflow: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except EntroflowError as exc:
        print(f"entroflow: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        # a defect of the program, not of its input; never exit 1, which
        # means "an inequality check failed"
        message = " ".join(str(exc).split())
        print(f"entroflow: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
