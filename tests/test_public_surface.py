"""The package exports one entry point per concept: each exported name is
used by the package or by perfbench, so no test-only wrapper creeps back."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import procfair

SRC = Path(procfair.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Oracles of the acceptance tests: exported for them, used by no module.
ORACLES = {"exact_shapley"}


def _exports() -> set[str]:
    """The original names of everything procfair/__init__.py imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}


def _uses(tree: ast.Module, in_package: bool) -> set[str]:
    """Names a module takes from procfair: imported from a procfair module,
    read in the package module that defines them, or (in perfbench, which
    also reaches modules through importlib) read as an attribute."""
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("procfair")):
            out |= {a.name for a in node.names}
        elif in_package and isinstance(node, ast.Name) and node.id in defined:
            out.add(node.id)
        elif not in_package and isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_export_is_used_outside_the_tests():
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            used |= _uses(ast.parse(path.read_text()), in_package=True)
    for path in sorted(PERFBENCH.glob("*.py")):
        used |= _uses(ast.parse(path.read_text()), in_package=False)
    assert sorted(_exports() - used) == sorted(ORACLES)
    # the scan counts an import and a read of a module's own function, but
    # not an attribute of the same name inside the package
    probe = "from .fairness import a\ndef b(): pass\nb()\ncfg.c\n"
    assert _uses(ast.parse(probe), in_package=True) == {"a", "b"}


def _loaded_after_cli_import(*modules: str) -> list[str]:
    """Those of `modules` that a fresh interpreter holds after importing
    procfair and procfair.cli."""
    code = f"import sys, procfair, procfair.cli; print(*[m in sys.modules for m in {modules!r}])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return [m for m, loaded in zip(modules, out.stdout.split()) if loaded == "True"]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is imported where the rank-sum test uses it, so a start of
    # the package or the CLI does not pay for it
    assert _loaded_after_cli_import("scipy.stats") == []


def test_import_leaves_scipy_spatial_and_linalg_unloaded():
    # pairing and the MMD kernel take their distances from util.euclidean;
    # scipy.spatial would also load scipy.linalg, about 10 MB resident
    assert _loaded_after_cli_import("scipy.spatial", "scipy.linalg") == []
