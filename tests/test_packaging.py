"""Declared runtime dependencies match what the package imports."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import bloomlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(bloomlab.__file__).parent


def _declared() -> set[str]:
    """Distribution names of [project].dependencies, without version specs.

    Each name here is also its import name."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in deps}


def _third_party_imports() -> set[str]:
    found = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found.update(t for t in tops if t not in sys.stdlib_module_names)
    return found - {"bloomlab"}


def test_every_import_is_declared():
    assert _third_party_imports() - _declared() == set()


def test_every_dependency_is_imported():
    assert _declared() - _third_party_imports() == set()


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, bloomlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out.strip() == "[]"
