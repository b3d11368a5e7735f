"""The benchmark's traced run wraps program functions by name; each name must exist.

`perfbench/tracing.py` lists them in `SPANS` as (span, module, attribute
or Class.attribute).  The list is read as text, so this test runs none
of the benchmark's code.  Each name must be defined in the module it is
listed under, so that a span wraps the body and not a re-export.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPANS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPANS list in {TRACING}")


def test_every_traced_name_exists():
    spans = _spans()
    assert spans
    missing = []
    for span, module, attr in spans:
        owner = importlib.import_module(f"twinwidth.{module}")
        for name in attr.split("."):  # a class must define the method itself
            owner = getattr(owner, "__dict__", {}).get(name)
        if not callable(owner) or owner.__module__ != f"twinwidth.{module}":
            missing.append(f"{span}: twinwidth.{module}.{attr}")
    assert not missing, missing
