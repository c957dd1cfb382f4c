import importlib
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
