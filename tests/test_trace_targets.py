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
RUN = os.path.join(os.path.dirname(TRACER), "run.py")


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


def _run_constant(name: str):
    """A module-level constant of perfbench/run.py, read with ``ast``: tuple
    and string literals, the names bound before it, and ``+`` of those."""
    with open(RUN, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    env = {}

    def value(node):
        if isinstance(node, ast.Name):
            return env[node.id]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return value(node.left) + value(node.right)
        if isinstance(node, ast.Dict):
            return {ast.literal_eval(k): value(v) for k, v in zip(node.keys, node.values)}
        return ast.literal_eval(node)

    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(
                node.targets[0], ast.Name):
            try:
                env[node.targets[0].id] = value(node.value)
            except (ValueError, KeyError):
                continue  # not a literal; no constant read here depends on it
            if node.targets[0].id == name:
                return env[name]
    raise LookupError(f"perfbench/run.py defines no {name}")


@pytest.fixture
def traced(monkeypatch):
    """The benchmark's tracer installed on lielocal; every binding it
    rebinds is put back afterwards.  Yields (tracer module, recorder)."""
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
    # an empty cache, so the llt query builds its basis under the tracer
    importlib.import_module("lielocal.fock_llt")._cached_basis.cache_clear()

    rec = tracer.Recorder()
    tracer.install(rec)
    yield tracer, rec


def test_traced_llt_query_calls_every_fock_llt_target(traced, capsys):
    """A traced ``llt`` query records a call to each fock_llt target, so a
    call dropped from the LLT path fails here and not as a zero per-layer
    metric in a benchmark run."""
    tracer, rec = traced
    assert importlib.import_module("lielocal.cli").main(["llt", "--n", "6", "--d", "2"]) == 0
    capsys.readouterr()
    calls = {name: count for name, (_, count) in tracer.self_times(rec.spans).items()}
    targets = [tracer.span_name(t) for t in tracer.TARGETS if t.startswith("fock_llt.")]
    assert targets
    assert [name for name in targets if not calls.get(name)] == []
    assert rec.counters["fock_llt.labels"] == 11


def test_traced_cli_weyl_queries_call_every_required_span(traced, capsys):
    """The benchmark's ``cli-weyl`` queries, traced in-process, call every
    span whose per-layer metric perfbench/run.py requires to read nonzero on
    that workload; a call dropped from the Weyl path fails here and not in a
    traced benchmark run."""
    tracer, rec = traced
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(os.path.dirname(TRACER), "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    spans = {tracer.span_name(t) for t in tracer.TARGETS}
    required = sorted({metric.rsplit(".", 1)[0]
                       for metric, where in _run_constant("NONZERO").items()
                       if "cli-weyl" in where} & spans)
    assert "cyclotomic.cyclo_rref" in required and "weyl.eigenspace_basis" in required
    main = importlib.import_module("lielocal.cli").main
    queries = workloads.WORKLOADS["cli-weyl"]
    assert len(queries) == 11
    for argv in queries:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    calls = {name: count for name, (_, count) in tracer.self_times(rec.spans).items()}
    assert [name for name in required if not calls.get(name)] == []
