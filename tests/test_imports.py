"""Imports of the package: it exports exactly the names listed here, every
imported name is used, and numpy is the only third-party module it needs.

Static checks with the standard library only: each ``src/maslovflow/*.py`` is
parsed with ``ast``. For the unused-name check, ``__init__.py`` (whose imports
are re-exports), names listed in a module's ``__all__`` and ``from
__future__`` imports are exempt. A name counts as used when it is read
anywhere in the module, including in a string annotation. Beyond the
standard library, a module may import numpy only. A subprocess then checks
that importing the package and running one trace loads no scipy.
"""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "maslovflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# The package's public names. An export added or removed by accident fails
# test_public_names; a deliberate one is made here too. Their number is the
# "exported names" count the roadmap tracks.
PUBLIC_NAMES = {
    # errors
    "ChartDomainError", "ConfigError", "HyperbolicityError", "MaslovError", "ModelError",
    "StepSizeError", "StructureError",
    # maslov
    "CrossingRecord", "MaslovResult", "RefineResult", "SweepRow", "SweepTable", "TraceResult",
    "crossings_from_chart", "detect_crossings", "end_intersection_dimension",
    "refine_eigenvalue", "run_trace", "sweep_lambda",
    # matrixkit
    "det_phase", "mat_exp", "sym_arctan", "sym_eig",
    # models
    "ModelSpec", "get_model", "kdv7_coefficients", "kdv7_field", "kdv7_wave",
    "poschl_teller_field",
    # riccati
    "ChartPath", "SymmetricChart", "integrate_chart", "singular_eigenvalue_count",
    "singular_threshold",
    # system
    "CoefficientField", "LagrangianFrame", "SymplecticCoefficients", "chart_from_frame",
    "farfield_frame", "total_frame_rank_loss", "validate_coefficients",
    # unitary
    "UnitaryPath", "UnitarySymmetric", "cayley", "integrate_unitary", "rotated_coefficients",
    "unitary_from_frame",
}


def test_public_names():
    import maslovflow

    public = {name for name, value in vars(maslovflow).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == PUBLIC_NAMES


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, nested ones too."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _used(tree) and name not in _exported(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\n"
                     "def f(x: 'd') -> None:\n    return b\n")
    assert {name for name in _imported(tree) if name not in _used(tree)} == {"os"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """Top-level package of every absolute import in the module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_numpy_and_stdlib_only(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _imported_modules(tree) - sys.stdlib_module_names <= {"numpy"}


def test_finds_a_nested_scipy_import():
    tree = ast.parse("import numpy as np\nfrom . import a\n"
                     "def f():\n    from scipy.optimize import x\n")
    assert _imported_modules(tree) - sys.stdlib_module_names == {"numpy", "scipy"}


def test_import_and_trace_leave_scipy_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent),
                                                        os.environ.get("PYTHONPATH", "")])}
    code = ("import sys\n"
            "import numpy as np\n"
            "import maslovflow as mf\n"
            "trace = mf.run_trace(mf.get_model('poschl_teller:1'), -0.5,\n"
            "                     np.linspace(-20, 20, 401), backend='both')\n"
            "print(trace.result.unsigned_count, any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["1", "False"]
