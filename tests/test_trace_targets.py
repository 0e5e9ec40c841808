"""Every function the benchmark's tracer wraps by name still exists.

perfbench/tracer.py patches lielocal functions listed in its TARGETS tuple
and fails at install time when one is missing.  Reading the tuple here
catches a rename in the fast suite instead of in a traced benchmark run.
"""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _targets() -> tuple[str, ...]:
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/tracer.py defines no TARGETS")


@pytest.mark.parametrize("target", _targets())
def test_trace_target_resolves(target):
    module_name, *path = target.split(".")
    owner = importlib.import_module("lielocal." + module_name)
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)
