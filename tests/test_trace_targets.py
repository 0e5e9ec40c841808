"""Every name the benchmark's tracer reads from lielocal still exists.

perfbench/tracer.py patches lielocal functions listed in its TARGETS tuple
and fails at install time when one is missing; the benchmark's set-up also
reads every guard constant named in its GUARDS dict.  Reading both here
catches a rename in the fast suite instead of in a benchmark run.
"""

import ast
import importlib
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer_constant(name: str):
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/tracer.py defines no {name}")


@pytest.mark.parametrize("target", _tracer_constant("TARGETS"))
def test_trace_target_resolves(target):
    module_name, *path = target.split(".")
    owner = importlib.import_module("lielocal." + module_name)
    for attr in path:
        owner = getattr(owner, attr)
    assert callable(owner)


@pytest.mark.parametrize("name, module_name", sorted(_tracer_constant("GUARDS").items()))
def test_guard_constant_resolves(name, module_name):
    value = getattr(importlib.import_module("lielocal." + module_name), name)
    assert type(value) is int and value > 0
