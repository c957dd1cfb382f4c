import importlib
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = reduce(getattr, attr.split("."), importlib.import_module(module))
        assert callable(obj), f"console script {name!r} -> {target} is not callable"


def test_runtime_imports_are_stdlib_and_numpy():
    """Importing every silentspeech module in a fresh interpreter loads no
    top-level module outside the standard library but numpy. Modules that
    were loaded at startup (such as those that ``.pth`` files import) are
    not counted."""
    script = """if True:
        import pkgutil, sys
        before = set(sys.modules)
        import silentspeech
        for info in pkgutil.walk_packages(silentspeech.__path__, "silentspeech."):
            __import__(info.name)
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "silentspeech"})))
    """
    path = [str(PYPROJECT.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
