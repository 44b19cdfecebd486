"""Every exported name resolves, and so does every call the benchmark tracer wraps.

eulerian reads a solution without importing either solver, and no module
imports scipy or sympy, which only the tests use: neither a Galerkin run nor
a finite-difference run with Eulerian snapshots loads scipy, and no run, not
even one from a custom expression, loads sympy. The runtime dependencies in
pyproject.toml are exactly the third-party modules svfree imports: numpy
alone. Set-up does not star-import numpy, and neither the verify suite nor
the canonical simulation loads numpy.random or numpy.ma. No module names a
private numpy attribute, so a step cannot skip np.linalg.solve's checks by
calling its gufunc.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import svfree

MODULES = sorted(
    f"svfree.{m.name}" for m in pkgutil.iter_modules(svfree.__path__) if not m.name.startswith("_")
)
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "svfree").glob("*.py"))
TRACING = ROOT / "perfbench" / "tracing.py"

# set up canonical as a run does, then optionally run a short FD solve and
# take an Eulerian snapshot of it, set up the sine config, set up a config
# of a custom profile and velocity, run the verify suite, or run the canonical
# simulation; prints the scipy modules loaded before and after, whether any
# sympy module was loaded after each stage, the names in svfree.jet bound to
# sympy objects, which modules that only `from numpy import *` pulls in were
# loaded by the set-up, and the numpy.random and numpy.ma modules loaded at
# the end
_IMPORT_PROBE = """
import json, sys, types
import svfree
def sympy_loaded():
    return any(m.split(".")[0] == "sympy" for m in sys.modules)

sympy = {"import": sympy_loaded()}
from svfree import cli, eulerian, fd_oracle, jet

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def from_sympy(value):
    if isinstance(value, tuple):
        return any(from_sympy(v) for v in value)
    if isinstance(value, types.ModuleType):
        origin = value.__name__
    else:
        origin = getattr(value, "__module__", None) or type(value).__module__
    return origin.split(".")[0] == "sympy"

_, profile, u0 = cli.build_problem(cli.load_config("configs/canonical.json"))
jet.initial_jet(profile, u0)
sympy["canonical"] = sympy_loaded()
decimal = {"canonical": "decimal" in sys.modules}
before = scipy_modules()
star = sorted(m for m in ("numpy.f2py", "numpy.testing", "unittest") if m in sys.modules)
if sys.argv[1] == "fd":
    eulerian.eulerian_fields(fd_oracle.fd_oracle_solve(profile, u0, 1e-3, 1e-4), 1e-3)
elif sys.argv[1] == "sine":
    _, profile, u0 = cli.build_problem(cli.load_config("configs/sine_compatible.json"))
    jet.initial_jet(profile, u0)
elif sys.argv[1] == "custom":
    _, profile, u0 = cli.build_problem(cli.config_from_dict({
        "profile": {"kind": "custom", "expr": "x*(1-x)*(1 + x/2)"},
        "u0": {"kind": "custom", "expr": "0.5*cos(pi*x)**2"},
    }))
    jet.initial_jet(profile, u0)
elif sys.argv[1] == "verify":
    cli.run_verification_suite(cli.load_config("configs/canonical.json"))
elif sys.argv[1] == "simulate":
    cli.run_simulation(cli.load_config("configs/canonical.json"))
sympy[sys.argv[1]] = sympy_loaded()
decimal[sys.argv[1]] = "decimal" in sys.modules
print(json.dumps({
    "before": before,
    "after": scipy_modules(),
    "sympy": sympy,
    "decimal": decimal,
    "jet_sympy": sorted(k for k, v in vars(jet).items() if from_sympy(v)),
    "star": star,
    "numpy_extras": sorted(m for m in sys.modules if m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"])),
}))
"""


def _probe(mode: str, out_dir: Path | None = None) -> dict:
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if out_dir is not None:
        env["SVFREE_OUT"] = str(out_dir)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, mode],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["svfree", *MODULES])
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    missing = [
        target for target in tracing.TARGETS
        if not hasattr(importlib.import_module("svfree." + target.split(".")[0]),
                       target.split(".", 1)[1])
    ]
    assert missing == []


def test_galerkin_setup_loads_no_scipy_and_jet_no_sympy():
    probe = _probe("setup")
    assert probe["before"] == [] and probe["after"] == []
    assert probe["jet_sympy"] == []


def test_setup_skips_numpy_star_import():
    assert _probe("setup")["star"] == []


def test_builtin_kinds_load_no_sympy():
    # canonical is parabolic with zero velocity; sine_compatible is sine with cosine
    assert _probe("setup")["sympy"] == {"import": False, "canonical": False, "setup": False}
    assert _probe("sine")["sympy"]["sine"] is False


@pytest.mark.parametrize("mode", ["sine", "simulate"])
def test_builtin_kinds_load_no_decimal(mode, tmp_path):
    # the built-in kinds are expressions on Taylor series, in float arithmetic
    assert _probe(mode, tmp_path)["decimal"] == {"canonical": False, mode: False}


def test_custom_expression_loads_no_sympy():
    assert _probe("custom")["sympy"] == {"import": False, "canonical": False, "custom": False}


def test_verify_loads_no_numpy_random_or_masked_arrays():
    assert _probe("verify")["numpy_extras"] == []


def test_simulate_loads_no_numpy_random_or_masked_arrays(tmp_path):
    assert _probe("simulate", tmp_path)["numpy_extras"] == []


def test_fd_solve_and_snapshot_load_no_scipy():
    probe = _probe("fd")
    assert probe["before"] == [] and probe["after"] == []


def _imported_modules(path: Path) -> set[str]:
    """Every module an svfree source file imports, at any depth (function bodies too).

    A relative import names its svfree module: `from .picard import x` and
    `from . import picard` both give 'svfree.picard'.
    """
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            found |= ({f"svfree.{node.module}"} if node.module
                      else {f"svfree.{alias.name}" for alias in node.names})
    return found


def _third_party_imports() -> set[str]:
    found = set().union(*(_imported_modules(path) for path in SOURCES))
    return {m.split(".")[0] for m in found} - set(sys.stdlib_module_names) - {"svfree"}


def test_eulerian_imports_no_solver_and_no_module_imports_scipy():
    imports = {path.stem: _imported_modules(path) for path in SOURCES}
    assert imports["eulerian"] & {"svfree.picard", "svfree.fd_oracle"} == set()
    assert "scipy" not in _third_party_imports()


def test_runtime_dependencies_are_the_imported_modules():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in project["dependencies"]}
    assert names == _third_party_imports() == {"numpy"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_numpy_names(source: str) -> list[str]:
    """Every dotted numpy name in source with a private part: imports and attribute chains.

    An imported numpy name is a root: after `import numpy as np`,
    `np.linalg._umath_linalg.solve` gives 'numpy.linalg._umath_linalg.solve'.
    """
    tree = ast.parse(source)
    roots = {"numpy": "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    found.append(alias.name)
                    if alias.asname:
                        roots[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "numpy":
            for alias in node.names:
                found.append(f"{node.module}.{alias.name}")
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in roots:
                found.append(".".join([roots[node.id], *reversed(parts)]))
    return sorted({name for name in found if any(_private(part) for part in name.split("."))})


def test_no_module_names_a_private_numpy_attribute():
    shortcuts = ("import numpy as np\nnp.linalg._umath_linalg.solve(a, b)\n"
                 "from numpy._core import multiarray\nimport numpy.linalg._linalg as la\n"
                 "from numpy import linalg as L\nL._umath_linalg.inv(a)\n")
    assert _private_numpy_names(shortcuts) == [
        "numpy._core.multiarray", "numpy.linalg._linalg", "numpy.linalg._umath_linalg",
        "numpy.linalg._umath_linalg.inv", "numpy.linalg._umath_linalg.solve",
    ]
    assert _private_numpy_names("import numpy as np\nnp.linalg.solve(a, b)\nnp.__version__\n") == []
    assert {path.name: _private_numpy_names(path.read_text()) for path in SOURCES} == {
        path.name: [] for path in SOURCES
    }
