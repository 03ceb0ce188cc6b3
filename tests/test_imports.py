"""Module boundaries: no dircp module imports a private name from another."""

import ast
from pathlib import Path

import dircp

SRC = Path(dircp.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """Each _-prefixed name that the source imports from a dircp module, as module.name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").partition(".")[0] == "dircp"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_guard_sees_relative_and_absolute_private_imports():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from numpy import _core\nfrom .geometry import _EPS, SectorPartition\n"
              "from dircp.scenario import _footprints\n")
    assert private_imports(source) == ["geometry._EPS", "dircp.scenario._footprints"]


def test_no_module_imports_another_modules_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = {p.name: private_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
