"""The package root exports only what a command or an acceptance criterion
reaches."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entroflow"


def referenced_names(path: pathlib.Path) -> set[str]:
    """Every name a module's code uses: loaded or bound names, attribute
    names and imported names.  Docstrings and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def exports() -> dict[str, str]:
    """Each name ``entroflow/__init__.py`` re-exports, with the module that
    defines it."""
    out = {}
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            out.update((alias.asname or alias.name, node.module) for alias in node.names)
    return out


def test_every_export_is_reached_by_a_command_or_the_acceptance_suite():
    # a name counts as reached when a module other than __init__ and its own
    # uses it (the command line is one of them), or when the acceptance
    # suite does
    modules = {
        path.stem: referenced_names(path)
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
    }
    acceptance = referenced_names(ROOT / "tests" / "test_acceptance.py")
    unreached = sorted(
        f"{module}.{name}"
        for name, module in exports().items()
        if name not in acceptance
        and not any(name in used for other, used in modules.items() if other != module)
    )
    assert unreached == [], f"exported but reached by no command or acceptance test: {unreached}"



def private_imports(path: pathlib.Path) -> list[str]:
    """Each ``from <sibling> import _name`` of a package module; a dunder
    such as ``__version__`` is not a private helper."""
    return [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(path.read_text()))
        # a level-0 import names its module: an absolute import of the package
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.partition(".")[0] == "entroflow")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_no_private_helper_is_imported_across_modules():
    found = {path.name: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {}


def tolerance_homes() -> tuple[dict[str, list[str]], list[str]]:
    """Each ``*_TOL`` name assigned in a package module, with the modules
    that assign it, and each positive float literal below 1e-6 that is not
    the value of such an assignment, as ``module:line value``."""
    homes, stray = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        values = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_TOL")]
                for name in names:
                    homes.setdefault(name, []).append(path.stem)
                if names:
                    values.add(id(node.value))
        stray += [
            f"{path.stem}:{node.lineno} {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < node.value < 1e-6 and id(node) not in values
        ]
    return homes, stray


def test_each_tolerance_has_one_home():
    homes, stray = tolerance_homes()
    assert "STATE_TOL" in homes
    assert {name: where for name, where in homes.items() if len(where) != 1} == {}
    assert stray == [], f"small float literals outside a *_TOL assignment: {stray}"


# linalg calls that decide no spectrum: a norm, and haar_qr's orthonormal
# factor of a Ginibre draw
NOT_SPECTRAL = {"norm", "qr"}


def linalg_calls() -> list[str]:
    """Each call of a ``linalg`` function in a package module, as
    ``module.name``, and each name imported from a ``linalg`` module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value  # np.linalg or a bare linalg
                if getattr(owner, "attr", getattr(owner, "id", None)) == "linalg":
                    found.append(f"{path.stem}.{node.func.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                found += [f"{path.stem}.{alias.name}" for alias in node.names]
    return found


def test_every_spectrum_is_an_eigvalsh_in_states():
    # one spectral path: no Cholesky, eigh, svd or other eigensolver, and
    # eigvalsh in states alone
    spectral = {call for call in linalg_calls() if call.partition(".")[2] not in NOT_SPECTRAL}
    assert spectral == {"states.eigvalsh"}


def libm_phase_calls(path: pathlib.Path) -> list[str]:
    """Each cos or sin call in a module, and each exp call with an
    imaginary literal in its arguments, as ``module.name``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = node.func.attr
            imaginary = any(
                isinstance(c, ast.Constant) and isinstance(c.value, complex)
                for arg in node.args for c in ast.walk(arg)
            )
            if name in ("cos", "sin") or (name == "exp" and imaginary):
                found.append(f"{path.stem}.{name}")
    return found


def test_draws_take_no_libm_phase():
    # numpy's float64 cos and sin and its complex exp run as scalar libm; the
    # Box-Muller phase and the gas azimuth come from qmath.double_angle's tan.
    # exchange's plane angles keep np.cos/np.sin, which shows the scan works
    assert libm_phase_calls(PACKAGE / "qmath.py") + libm_phase_calls(PACKAGE / "gas.py") == []
    assert set(libm_phase_calls(PACKAGE / "exchange.py")) == {"exchange.cos", "exchange.sin"}
