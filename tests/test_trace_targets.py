"""Every name the benchmark's tracer reads from lielocal still exists.

perfbench/tracer.py patches lielocal functions listed in its TARGETS tuple
and fails at install time when one is missing; the benchmark's set-up also
reads every guard constant named in its GUARDS dict.  Reading both here
catches a rename in the fast suite instead of in a benchmark run.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil

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


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_llt_query_calls_every_fock_llt_target(monkeypatch, capsys):
    """A traced ``llt`` query records a call to each fock_llt target, so a
    call dropped from the LLT path fails here and not as a zero per-layer
    metric in a benchmark run."""
    import lielocal

    tracer = _load_tracer()
    # the tracer rebinds names in place; record every binding so that
    # monkeypatch puts the untraced ones back afterwards
    for info in pkgutil.iter_modules(lielocal.__path__):
        if info.name != "__main__":
            module = importlib.import_module("lielocal." + info.name)
            for key, value in list(vars(module).items()):
                monkeypatch.setattr(module, key, value)
    for target in tracer.TARGETS:
        module_name, *path = target.split(".")
        if len(path) > 1:
            owner = getattr(importlib.import_module("lielocal." + module_name), path[0])
            monkeypatch.setattr(owner, path[-1], getattr(owner, path[-1]))
    weyl_group = importlib.import_module("lielocal.weyl").WeylGroup
    monkeypatch.setattr(weyl_group, "__init__", weyl_group.__init__)
    fock_llt = importlib.import_module("lielocal.fock_llt")
    monkeypatch.setattr(fock_llt, "_BASIS_CACHE", {})

    rec = tracer.Recorder()
    tracer.install(rec)
    assert importlib.import_module("lielocal.cli").main(["llt", "--n", "6", "--d", "2"]) == 0
    capsys.readouterr()
    calls = {name: count for name, (_, count) in tracer.self_times(rec.spans).items()}
    targets = [tracer.span_name(t) for t in tracer.TARGETS if t.startswith("fock_llt.")]
    assert targets
    assert [name for name in targets if not calls.get(name)] == []
    assert rec.counters["fock_llt.labels"] == 11
