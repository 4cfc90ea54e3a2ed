"""The names perfbench's tracer wraps still exist in bloomlab.

perfbench/tracing.py wraps functions by (module, attribute). A wrapped name
that disappears is reported as an absent boundary, and its per-layer
metrics come out null, which the benchmark cannot accept as a result.
This reads the table from the file without importing perfbench.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Bindings listed in the table that bloomlab no longer has, each with the
# reason its span is still measured. analytics stopped importing stirling2
# when every moment moved into occupancy; kernel.stirling2 is traced
# through occupancy's binding.
STALE = {("bloomlab.analytics", "stirling2")}

MESSAGE = (
    "perfbench/tracing.py wraps {name!r} as {module}.{attr}, which no longer "
    "resolves, so its metrics would miss those calls or come out null. Rename "
    "or remove the wrapped name in a benchmark-only change first, then in "
    "bloomlab."
)


def _boundaries() -> list[tuple[str, str, str, bool]]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no BOUNDARIES table")


def _resolves(module: str, attr: str) -> bool:
    obj = importlib.import_module(module)
    for part in attr.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return callable(obj)


def test_every_traced_binding_resolves():
    bound = {}  # span name -> whether any of its bindings resolves
    for module, attr, name, _ in _boundaries():
        ok = _resolves(module, attr)
        bound[name] = bound.get(name, False) or ok
        if (module, attr) not in STALE:
            assert ok, MESSAGE.format(name=name, module=module, attr=attr)
    # what the tracer prints as "absent boundaries"
    absent = sorted(name for name, ok in bound.items() if not ok)
    assert bound and not absent, (
        f"absent boundaries {absent}: their metrics would be null; drop or "
        "rename them in a benchmark-only change first."
    )
