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
from functools import cache

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
    finite_real,
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
from .qmath import MAX_JOINT_DIM, ginibre, haar_qr, random_densities, uniform_rows
from .states import EntangledThermalSpec, HamiltonianSpec, gibbs_populations

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_VALIDATION = 2
EXIT_DEGENERACY = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INTERNAL = 5

# ineq evaluates its trials in batches of as many as fit this many complex
# entries (512 KiB) per stacked joint-space array, and exchange --sweep its
# angles in batches of this many real entries (256 KiB), d_A d_B an angle;
# no payload depends on the batch.  Against 2^13, in-process at 1 worker
# (median of 15 interleaved rounds, 2 vCPU, numpy 2.4.6), eq1 2,2,2,2 x500
# went 37.9 -> 31.7 ms, ssa 2,2,2 x1000 18.7 -> 18.3 ms and eq2 2,2 x1000
# 11.2 -> 10.8 ms.  The gas runs set the peak memory of the benchmark's
# ensembles pass, 54-55 MB at either budget.
BATCH_ELEMENTS = 2**15


def worker_count() -> int:
    """Worker cap from ENTROFLOW_THREADS (0 or unset = auto), at most the
    CPUs this process may run on; results never depend on it."""
    raw = os.environ.get("ENTROFLOW_THREADS", "0")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"ENTROFLOW_THREADS must be an integer, got {raw!r}") from exc
    if value < 0:
        raise ConfigError(f"ENTROFLOW_THREADS must be >= 0, got {value}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    return min(value or cpus, cpus)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _numpy_value(value):
    # json encodes np.float64 as the float it is; other numpy scalars and
    # arrays become the Python values they hold
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dumps(value) -> str:
    # canonical JSON: compact, key-sorted, round-trip-exact doubles; NaN and inf refused
    try:
        return json.dumps(value, sort_keys=True, allow_nan=False, default=_numpy_value)
    except ValueError as exc:
        raise NonFiniteResult(f"result is not finite: {exc}") from exc


def make_envelope(command: str, config: dict, seed: int | None, payload: dict, wall_time: float) -> str:
    """The result envelope as JSON text, one line per top-level key in sorted
    order; each value, the payload too, is ``_dumps``' canonical JSON, which
    is compact, so json's C encoder runs (it does not with ``indent``)."""
    envelope = {
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "seed": seed,
        "wall_time_s": wall_time,
        "payload": payload,
    }
    lines = ",\n".join(f'  "{key}": {_dumps(value)}' for key, value in sorted(envelope.items()))
    return "{\n" + lines + "\n}"


def _write_text(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {path}: {exc}") from exc


def _csv_rows(header: list[str], rows: list[list[float]]) -> str:
    if not all(math.isfinite(v) for row in rows for v in row):
        raise NonFiniteResult("result is not finite: a CSV row holds NaN or infinity")
    lines = [",".join(header)]
    lines.extend(",".join(_fmt17(v) for v in row) for row in rows)
    return "\r\n".join(lines) + "\r\n"


def _load_config(path: str, expected_kind: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    # ValueError: a JSON or UTF-8 decode error, or an integer too long to
    # convert; RecursionError: arrays or objects nested too deep
    except (OSError, ValueError, RecursionError) as exc:
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


def _require_number_list(cfg: dict, key: str) -> list[float]:
    value = cfg.get(key)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config field {key!r} must be a nonempty array of finite numbers")
    return [finite_real(v, f"{key}[{i}]") for i, v in enumerate(value)]


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
    # finite bounds can still be too far apart for a finite step
    if not math.isfinite(hi_f - lo_f):
        raise ConfigError(f"sweep bounds and the span between them must be finite, got {text!r}")
    if n_i < 2:
        raise ConfigError(f"sweep needs at least 2 points, got {n_i}")
    # numpy refuses a grid of more bytes than an intp holds (and near 2**63
    # points returns an empty one)
    if n_i > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"sweep of {n_i} points is more than one array can hold")
    try:
        return np.linspace(lo_f, hi_f, n_i)
    except MemoryError as exc:
        raise ConfigError(f"sweep of {n_i} points cannot be allocated") from exc


# ---------------------------------------------------------------- ineq ---

# the uniforms of an ssa or eq1 trial, in order: the rank of its state, its
# D x D factor
def _state_widths(dims: tuple[int, ...]) -> tuple[int, ...]:
    return 1, 2 * math.prod(dims) ** 2


def _random_states(dims: tuple[int, ...], u: np.ndarray) -> np.ndarray:
    rank, factor, _ = np.split(u, np.cumsum(_state_widths(dims)), axis=1)
    return random_densities(ginibre(factor, math.prod(dims)), rank[:, 0])


# the uniforms of an eq2 trial, in order: ln beta, the levels of H_i, the
# ancilla's rank, the joint unitary, the ancilla's factor.  No final
# Hamiltonian, whose energy cancels, and no basis of H_i: a trial runs in its
# eigenbasis, and for Haar B_i and U, (B_i^dag (x) 1) U (B_i (x) 1) is Haar
def _eq2_widths(factors: tuple[int, int]) -> tuple[int, ...]:
    d_sys, d_anc = factors
    return 1, d_sys, 1, 2 * (d_sys * d_anc) ** 2, 2 * d_anc**2


def _eq2_inputs(factors: tuple[int, int], u: np.ndarray) -> tuple:
    # (h_i, beta, channel) of gibbs_evolution_identity for a batch
    d_sys, d_anc = factors
    cuts = np.cumsum(_eq2_widths(factors))
    ln_beta, levels, rank, unitary, factor, _ = np.split(u, cuts, axis=1)
    # beta is exp of a uniform on [ln 0.1, ln 10], and the levels are 1.2 u:
    # the span cap of 1.2 is part of the seeded draw
    beta = np.exp(np.log(0.1) + (np.log(10.0) - np.log(0.1)) * ln_beta[:, 0])
    channel = AncillaChannel(
        haar_qr(ginibre(unitary, d_sys * d_anc)), random_densities(ginibre(factor, d_anc), rank[:, 0])
    )
    return HamiltonianSpec(np.sort(1.2 * levels, axis=-1)), beta, channel


def _slacks(report: SlackReport) -> dict:
    worst = int(np.argmin(report.slack))
    return {
        "worst_slack": float(report.slack[worst]),
        "worst_trial": worst,
        "tol": SLACK_TOL,
        "all_pass": bool(np.all(report.passed)),
    }


def _gibbs(report: GibbsEvolutionReport) -> dict:
    # the gap is the rounding of ln Z + beta U_i - S(p), so only the slack,
    # D(rho_f || gamma_i) >= 0, names its trial
    gap, slacks = float(np.max(report.identity_gap)), report.rhs
    worst_slack = int(np.argmin(slacks))
    return {
        "worst_identity_gap": gap,
        "worst_slack": float(slacks[worst_slack]),
        "worst_slack_trial": worst_slack,
        "gap_tol": IDENTITY_TOL,
        "slack_tol": RHS_TOL,
        "all_pass": bool(gap <= IDENTITY_TOL and slacks[worst_slack] >= -RHS_TOL),
    }


# check -> (Philox tag, factor-count rule, its error, tensor factors of a
# trial, the widths of the uniforms a trial reads, a batch's report from its
# rows of uniforms, payload fields); trial t reads row t of
# qmath.uniform_rows(seed, tag, ...), so checks sharing a master seed never
# read the same stream; an eq2 ancilla is a qubit unless --dims names it
_INEQ_CHECKS = {
    "ssa": (
        1, lambda n: n == 3, "ssa needs exactly 3 factors in --dims", tuple, _state_widths,
        lambda dims, u: check_ssa(_random_states(dims, u), dims, 0, 1, 2), _slacks,
    ),
    "eq1": (
        2, lambda n: n >= 3, "eq1 needs at least 3 factors in --dims", tuple, _state_widths,
        lambda dims, u: average_correlation_bound(_random_states(dims, u), dims), _slacks,
    ),
    "eq2": (
        3, lambda n: n <= 2, "eq2 takes --dims SYSTEM or SYSTEM,ANCILLA",
        lambda dims: (*dims, 2)[:2], _eq2_widths,
        lambda dims, u: gibbs_evolution_identity(*_eq2_inputs(dims, u)), _gibbs,
    ),
}


def cmd_ineq(args: argparse.Namespace) -> tuple:
    dims = _parse_dims(args.dims)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    seed = _check_seed(args.seed)
    tag, dims_ok, dims_error, factors_of, widths, run_batch, fields = _INEQ_CHECKS[args.check]
    if not dims_ok(len(dims)):
        raise ConfigError(dims_error)
    factors = factors_of(dims)
    joint = _require_joint_dim(math.prod(factors), "--dims")

    # a batch is one draw of its trials' rows of uniforms, and everything
    # derived from them runs once per batch; the batch reports join into one
    batch, k = max(1, BATCH_ELEMENTS // joint**2), sum(widths(factors))
    reports = [
        run_batch(factors, uniform_rows(seed, tag, first, min(batch, args.trials - first), k))
        for first in range(0, args.trials, batch)
    ]
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
    spec = EntangledThermalSpec(np.asarray(epsilon), *map(cfg.get, ("gamma", "mu_a", "mu_b")))

    rotations = cfg.get("rotations")
    # givens_planes checks each rotation
    if not isinstance(rotations, list) or not rotations:
        raise ConfigError("config field 'rotations' must be a nonempty list")

    # an override is checked for either case; case V's temperatures are mu * gamma
    beta_a, beta_b = (
        getattr(spec, k) if cfg.get(k) is None else finite_real(cfg[k], k, positive=True)
        for k in ("beta_a", "beta_b")
    )
    if args.case == "v":
        return cfg, CaseSpec.case_v(spec), rotations
    return cfg, CaseSpec.case_s(spec.hamiltonian_a(), beta_a, spec.hamiltonian_b(), beta_b), rotations


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
        finite_real(args.phi, "--phi")
    cfg, case, rotations = _exchange_setup(args)
    grid = None if args.sweep is None else _parse_sweep(args.sweep)
    # the planes are checked once; --phi and the sweep only swap the angles,
    # and no D x D unitary is built
    h_a, h_b = case.hamiltonians()
    form = givens_planes(h_a, h_b, rotations)

    if grid is not None:
        # one run_exchange per batch of angles, within the BATCH_ELEMENTS budget
        batch = max(1, BATCH_ELEMENTS // (h_a.dim * h_b.dim))
        chunks = np.split(grid, range(batch, grid.size, batch))
        reports = [run_exchange(case, form.at_angle(chunk)) for chunk in chunks]
        columns = [np.concatenate([getattr(r, f) for r in reports]) for _, f in _SWEEP_COLUMNS]
        header = ["phi", *(name for name, _ in _SWEEP_COLUMNS)]
        return _csv_rows(header, np.column_stack([grid, *columns]).tolist())

    report = run_exchange(case, form if args.phi is None else form.at_angle(args.phi))
    return {"config_file": cfg}, dataclasses.asdict(report), EXIT_OK


# ------------------------------------------------------------ clausius ---

def _clausius_setup(args: argparse.Namespace):
    cfg = _load_config(args.config, "clausius")
    system_cfg = cfg.get("system")
    if not isinstance(system_cfg, dict):
        raise ConfigError("config field 'system' must be an object with 'levels'")
    h0 = HamiltonianSpec(np.asarray(_require_number_list(system_cfg, "levels")))

    init_cfg = cfg.get("initial_state")
    if not isinstance(init_cfg, dict) or "kind" not in init_cfg:
        raise ConfigError("config field 'initial_state' must carry a 'kind'")
    # populations over the levels; clausius_cycle checks them
    if init_cfg["kind"] == "gibbs":
        p0 = gibbs_populations(h0, finite_real(init_cfg.get("beta"), "beta", positive=True))
    elif init_cfg["kind"] == "diagonal":
        p0 = _require_number_list(init_cfg, "populations")
    elif init_cfg["kind"] == "maximally_mixed":
        p0 = np.full(h0.dim, 1 / h0.dim)
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
                ClausiusStroke.contact(entry.get("temperature"), entry.get("phi", math.pi / 2))
            )
        elif entry["kind"] == "quench":
            strokes.append(
                ClausiusStroke.quench(
                    HamiltonianSpec(np.asarray(_require_number_list(entry, "levels")))
                )
            )
        else:
            raise ConfigError(f"unknown stroke kind {entry['kind']!r}")
    return cfg, h0, p0, strokes


def cmd_clausius(args: argparse.Namespace) -> tuple:
    cfg, h0, p0, strokes = _clausius_setup(args)
    report = clausius_cycle((h0, p0), strokes, max_cycles=args.max_cycles, fp_tol=args.fp_tol)
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

class _Parser(argparse.ArgumentParser):
    # a bad flag ends in one stderr line, no usage block (subparsers inherit)
    def error(self, message: str):
        self.exit(EXIT_VALIDATION, f"entroflow: config error: {self.prog}: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` leaves it unchanged."""
    parser = _Parser(
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

    p_ex = sub.add_parser("exchange", help="two-system heat-exchange experiment")
    p_ex.add_argument("--case", required=True, choices=["s", "v"])
    p_ex.add_argument("--config", required=True, help="JSON experiment config")
    p_ex.add_argument("--phi", type=float, default=None, help="override all rotation angles")
    p_ex.add_argument("--sweep", default=None, help="phi=a:b:n emits CSV rows over the grid")
    p_ex.add_argument("--output", default=None)

    p_cl = sub.add_parser("clausius", help="cyclic contact-with-reservoirs run")
    p_cl.add_argument("--config", required=True, help="JSON system + strokes config")
    p_cl.add_argument("--max-cycles", type=int, default=MAX_CYCLES)
    p_cl.add_argument("--fp-tol", type=float, default=FIXED_POINT_TOL)
    p_cl.add_argument("--output", default=None)

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
    return parser


# argparse dests the envelope does not echo: a command echoes the parsed
# config file, not its path
_NOT_ECHOED = ("command", "output", "config")


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
            # looked up per call, so a wrapped or replaced cmd_* is the one run
            result = globals()[f"cmd_{args.command}"](args)
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
