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


def test_cli_import_loads_no_scipy_or_process_pool():
    """A CLI call's cold start loads no numeric stack, no worker pool, and
    neither the verify suites nor the oracle they check against (verify
    imports them when it runs)."""
    code = (
        "import sys, bloomlab.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in {'scipy', 'multiprocessing', 'concurrent'} "
        "or m in {'bloomlab.suites', 'bloomlab.oracle'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert out.strip() == "[]"


def _is_click_command(func: ast.FunctionDef) -> bool:
    """Decorated with @<group>.command, @click.group or either called."""
    for d in func.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Attribute) and target.attr in {"command", "group"}:
            return True
    return False


def test_every_function_in_src_has_a_caller_in_src():
    """Code only tests use belongs in tests/, not in the package."""
    defined = []  # (module, name) of each module-level function
    referenced = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = top.name
                if not _is_click_command(top):
                    defined.append((path.stem, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:  # a recursive call is not a caller
                    referenced.add(name)
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if name not in referenced and name not in bloomlab.__all__
    ]
    assert unused == [], f"module-level functions only tests use: {unused}"


# Every parameter in src/bloomlab that has a default, as (module, function,
# parameter), with the reason a caller may set it. A new option has to be
# listed here on purpose.
DEFAULTED = {
    ("filters", "BloomFilter.__init__", "bits"):
        "new filters start empty; deserialize and the set operations pass stored bits",
    ("filters", "BloomFilter.__init__", "count"):
        "new filters start at 0; filter_intersect passes None (unknown)",
    ("montecarlo", "run_validation", "workers"):
        "perfbench's workloads pass workers=1; the CLI and the suite take the default",
    ("montecarlo", "conjecture_scan", "k_values"):
        "the peak-monotonicity rows are optional; perfbench's scan ops omit them",
}


def _defaulted_parameters() -> set[tuple[str, str, str]]:
    found = set()

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = prefix + getattr(child, "name", "<lambda>")
                args = child.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                found.update((module, name, a.arg) for a in with_default)
                visit(child, module, f"{name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_defaulted_parameters_are_listed():
    assert _defaulted_parameters() == set(DEFAULTED)
