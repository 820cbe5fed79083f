import os
import subprocess
import sys

import modelcg

# the package core runs on numpy alone; scipy is a test extra
_IMPORT_ALL = """
import importlib, pkgutil, sys
import modelcg
names = [m.name for m in pkgutil.iter_modules(modelcg.__path__, "modelcg.")]
for name in names:
    importlib.import_module(name)
assert len(names) >= 9, names
print(",".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_core_imports_without_scipy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(modelcg.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ALL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"scipy imported by the core: {proc.stdout}"


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    modules = [modelcg] + [
        importlib.import_module(m.name)
        for m in pkgutil.iter_modules(modelcg.__path__, "modelcg.")
    ]
    for module in modules:
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], f"{module.__name__}.__all__ names {missing}"


def _relative_imports(module):
    """The package modules ``module`` imports, by name."""
    import ast

    path = os.path.join(os.path.dirname(modelcg.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_problem_modules_build_inputs_and_the_runner_runs_them():
    # a problem module builds solver inputs and runs no solver; the runner
    # runs any problem and builds none
    for problem in ("matfac", "regression"):
        assert _relative_imports(problem) <= {"geometry", "inner", "models"}, problem
    assert not _relative_imports("runner") & {"matfac", "regression"}


def test_only_geometry_states_the_argument_rules():
    # the integer and number rules live in geometry; every other module
    # calls them instead of testing types itself
    import ast

    pkg = os.path.dirname(modelcg.__file__)
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "geometry.py":
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "numbers" not in {a.name for a in node.names}, name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "numbers", name
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                assert not any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds), (
                    f"{name}:{node.lineno}")
