import ast
import importlib
from pathlib import Path

import pytest

import spherecone

MODULES = ["lds", "specfun", "spheremap", "wce", "finance"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spherecone.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_exports_are_public_in_their_modules():
    # every public name the package re-exports from those modules is in
    # its defining module's __all__
    homes = {f"spherecone.{name}" for name in MODULES}
    stray = []
    for name, obj in vars(spherecone).items():
        home = getattr(obj, "__module__", None)
        if name.startswith("_") or home not in homes:
            continue
        if name not in importlib.import_module(home).__all__:
            stray.append(f"{home}.{name}")
    assert stray == []


# names that only the tests call, moved to tests/oracles.py: none may stay
# public in its old module or in the package
MOVED = {
    "wce": ["wce_isotropic_general", "radial_discrepancy", "kernel_K",
            "wce_sphere_cap", "kernel_psi_integral", "phi_psi_integral",
            "psi_density"],
    "spheremap": ["RadialShells.shell_mass", "SpherePartition.cell_area"],
    "finance": ["min_matrix_eigenvalues"],
    "specfun": ["chi_cdf", "normal_cdf"],
}


@pytest.mark.parametrize("name", MOVED)
def test_moved_names_are_gone(name):
    module = importlib.import_module(f"spherecone.{name}")
    left = []
    for dotted in MOVED[name]:
        owner, _, attr = dotted.rpartition(".")
        home = getattr(module, owner) if owner else module
        if (hasattr(home, attr) or attr in module.__all__
                or hasattr(spherecone, attr)):
            left.append(dotted)
    assert left == []


def test_no_scipy_integrate_in_src():
    # the closed forms are judged by quadrature in the tests, not in src/
    found = []
    for path in sorted(Path(spherecone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}: {n}" for n in names
                      if n.startswith("scipy.integrate")]
    assert found == []


def test_scipy_only_inside_special():
    # scipy.special is imported on first use, off the half-integer grid,
    # by specfun._special alone: no other import of scipy in src/
    found = []
    for path in sorted(Path(spherecone.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "specfun.py":
            special = next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef)
                           and node.name == "_special")
            allowed = {id(node) for node in ast.walk(special)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if id(node) not in allowed:
                found += [f"{path.name}:{node.lineno}: {n}" for n in names
                          if n.split(".")[0] == "scipy"]
    assert found == []
