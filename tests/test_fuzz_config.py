"""Property test of the config parsers: any exchange or clausius config,
however malformed, ends in a documented exit code, and every refusal is one
``entroflow:`` line on stderr, never a traceback.  Exchange runs also draw
valid and malformed ``--sweep`` grids, alone or beside ``--phi``.

Each example is a valid config in which a few fields, at the top level
and (more rarely) nested, are dropped, set to junk (NaN, infinities,
bools, strings, nulls, containers, overflowing numbers) or wrapped in a
list, so that both the accepting and the refusing paths are exercised.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import cli

DOCUMENTED_EXITS = {
    cli.EXIT_OK,
    cli.EXIT_VIOLATION,
    cli.EXIT_VALIDATION,
    cli.EXIT_DEGENERACY,
    cli.EXIT_NO_CONVERGENCE,
}
SWEEP_HEADER = "phi,Q_A,Q_B,dS_A,dS_B,I_init,I_final,W"
FUZZ = settings(max_examples=150, derandomize=True, deadline=None)

JUNK = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, None, "1.0", "", [1.0], {"v": 1.0}, [], {},
     1e300, 1e-300]
)
POSITIVE = st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0])
ANGLE = st.sampled_from([0.0, 0.3, 1.0, math.pi / 2, math.pi, -2.0])
# ascending levels starting at 0, at most 6 of them
LEVELS = st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]), min_size=1, max_size=5).map(
    lambda tail: [0.0, *sorted(tail)]
)


@st.composite
def mutated(draw, cfg: dict, counts=(0, 0, 0, 1, 2)) -> dict:
    """cfg with a few fields (as many as drawn from counts) dropped, set to
    junk, or nested in a list."""
    cfg = dict(cfg)
    for _ in range(draw(st.sampled_from(counts))):
        key = draw(st.sampled_from(sorted(cfg))) if cfg else None
        how = draw(st.sampled_from(["drop", "junk", "nest"]))
        if key is None:
            break
        if how == "drop":
            del cfg[key]
        elif how == "junk":
            cfg[key] = draw(JUNK)
        else:
            cfg[key] = [cfg[key]]
    return cfg


def rarely_mutated(cfg: dict):
    """Nested fields: a mutation in about one draw of eight."""
    return mutated(cfg, counts=(0, 0, 0, 0, 0, 0, 0, 1))


@st.composite
def exchange_cases(draw):
    epsilon = draw(LEVELS)
    mu_a, mu_b = draw(POSITIVE), draw(POSITIVE)
    d = len(epsilon)
    labels = [(i, j) for i in range(d) for j in range(d)]
    energy = {(i, j): epsilon[i] / mu_a + epsilon[j] / mu_b for i, j in labels}
    degenerate = [
        [list(u), list(v)] for u in labels for v in labels if u < v and energy[u] == energy[v]
    ]
    plane = st.sampled_from(degenerate) if degenerate else st.nothing()
    any_plane = st.tuples(st.sampled_from(labels), st.sampled_from(labels)).map(
        lambda uv: [list(uv[0]), list(uv[1])]
    )
    rotation = st.tuples(st.one_of(plane, any_plane), ANGLE).map(lambda p: [*p[0], p[1]])
    malformed_rotation = st.one_of(
        st.tuples(plane, JUNK).map(lambda p: [*p[0], p[1]]),
        st.lists(st.integers(-1, d), max_size=3),
        JUNK,
    )
    rotations = draw(st.lists(rotation, min_size=1, max_size=4))
    if draw(st.sampled_from([False, False, False, True])):
        rotations[draw(st.integers(0, len(rotations) - 1))] = draw(malformed_rotation)
    cfg = {
        "schema_version": 1,
        "kind": "exchange",
        "epsilon": epsilon,
        "gamma": draw(POSITIVE),
        "mu_a": mu_a,
        "mu_b": mu_b,
        "rotations": rotations,
    }
    if draw(st.booleans()):
        cfg["beta_a"], cfg["beta_b"] = draw(POSITIVE), draw(POSITIVE)
    argv = ["exchange", "--case", draw(st.sampled_from(["s", "v"]))]
    phi = draw(st.sampled_from([None, None, None, 0.0, 1.0, math.nan, math.inf, -math.inf]))
    if phi is not None:
        argv.append(f"--phi={phi}")
    sweep = draw(
        st.sampled_from(
            [None, None, None, "phi=0:1:3", "phi=-1:2:4", "phi=0:nan:3", "phi=0:1:inf",
             "theta=0:1:3", "phi=0:1:1", "phi=a:b:c", "phi=0:1", "0:1:3"]
        )
    )
    if sweep is not None:
        argv.append(f"--sweep={sweep}")
    return argv, draw(mutated(cfg))


@st.composite
def clausius_cases(draw):
    levels = draw(LEVELS)
    d = len(levels)
    contact = st.builds(
        lambda t, phi: {"kind": "contact", "temperature": t, "phi": phi}, POSITIVE, ANGLE
    ).flatmap(rarely_mutated)
    strokes = draw(st.lists(contact, min_size=1, max_size=3))
    if draw(st.booleans()):
        # a quench away and one back (or, mutated, one that does not restore H0)
        away_levels = draw(st.one_of(LEVELS, st.just([2 * e for e in levels])))
        away = {"kind": "quench", "levels": away_levels}
        back = draw(rarely_mutated({"kind": "quench", "levels": levels}))
        strokes = [away, *strokes, back]
    initial = draw(
        st.sampled_from(
            [
                {"kind": "gibbs", "beta": 1.0},
                {"kind": "gibbs", "beta": 40.0},
                {"kind": "diagonal", "populations": [1.0 / d] * d},
                {"kind": "diagonal", "populations": [1.0] + [0.0] * (d - 1)},
                {"kind": "maximally_mixed"},
                {"kind": "thermal"},
            ]
        ).flatmap(rarely_mutated)
    )
    cfg = {
        "schema_version": 1,
        "kind": "clausius",
        "system": draw(rarely_mutated({"levels": levels})),
        "initial_state": initial,
        "strokes": strokes,
    }
    max_cycles = draw(st.sampled_from([30, 5, 1, 0, -1]))
    fp_tol = draw(
        st.sampled_from([1e-10, 1e-3, 1e-300, 1.0, 0.0, -1e-6, math.nan, math.inf, -math.inf])
    )
    argv = ["clausius", f"--max-cycles={max_cycles}", f"--fp-tol={fp_tol}"]
    return argv, draw(mutated(cfg))


def run(argv, cfg):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))  # NaN and Infinity written as JSON extensions
        output = Path(tmp) / "out.json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--config", str(config), "--output", str(output)])
        text = output.read_text() if output.exists() else None
    return code, err.getvalue(), text


def check_outcome(code, stderr, text, sweep=False):
    assert code in DOCUMENTED_EXITS, stderr
    if code in (cli.EXIT_OK, cli.EXIT_VIOLATION) and sweep:
        # one CSV row per grid point, every value finite
        assert code == cli.EXIT_OK
        header, *rows = text.splitlines()
        assert header == SWEEP_HEADER and len(rows) >= 2, text
        for row in rows:
            values = [float(v) for v in row.split(",")]
            assert len(values) == 8 and all(map(math.isfinite, values)), row
    elif code in (cli.EXIT_OK, cli.EXIT_VIOLATION):
        assert "payload" in json.loads(text)
    else:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("entroflow: "), stderr
        assert text is None


@FUZZ
@given(exchange_cases())
def test_exchange_config_fuzz(case):
    argv, _ = case
    check_outcome(*run(*case), sweep=any(arg.startswith("--sweep") for arg in argv))


@FUZZ
@given(clausius_cases())
def test_clausius_config_fuzz(case):
    check_outcome(*run(*case))
