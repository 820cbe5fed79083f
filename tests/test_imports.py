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
