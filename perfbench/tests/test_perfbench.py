"""Self-tests of the benchmark: python3 -m pytest -q perfbench/tests

The last test runs every workload traced (about three minutes on 2 CPUs);
deselect it with ``-k 'not traced_run'`` while editing.
"""

import json
import os
import shutil
import subprocess

import pytest

import answers
import run
import tracer
import workloads


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([run.PY, "-c", code], env=run.child_env(), cwd=run.BENCH,
                          capture_output=True, text=True, timeout=120)


def test_self_time_of_a_nested_span_tree():
    spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 0, 5.0, 9.0],
        ["b", 2, 6.0, 7.0],      # same name nested under another span
        ["d", 3, 6.25, 6.5],
    ]
    got = tracer.self_times(spans)
    assert got["a"] == [10.0 - 3.0 - 4.0, 1]
    assert got["b"] == [3.0 + (1.0 - 0.25), 2]
    assert got["c"] == [4.0 - 1.0, 1]
    assert got["d"] == [0.25, 1]
    assert sum(v[0] for v in got.values()) == 10.0  # self times partition the root


def test_unenumerated_poincare_counts_spans_without_enumeration_below():
    spans = [
        ["cli.main", -1, 0.0, 3.0],
        ["braid_hecke.hecke_poincare", 0, 0.0, 1.0],
        ["root_datum.cached_datum", 1, 0.1, 0.2],
        ["weyl.generate_weyl", 2, 0.1, 0.2],
        ["braid_hecke.hecke_poincare", 0, 1.0, 2.0],
    ]
    assert tracer.unenumerated_poincare(spans) == 1


@pytest.mark.parametrize("argv", [
    "braid verify-regular A3 --d 4",
    "sylow GL4 --q 2 --ell 5",
    "llt --n 5 --d 2 --csv",
    "hecke poincare E8",
    "order Z9",                       # exit 1 must come through unchanged
    "degenerate --ell 2 --factors 1:2",
])
def test_wrapped_and_unwrapped_cli_outputs_are_identical(argv, tmp_path):
    env = run.child_env()
    plain = subprocess.run([run.PY, "-m", "lielocal", *argv.split()], env=env,
                           capture_output=True, timeout=120)
    spans = tmp_path / "spans.json"
    traced = subprocess.run([run.PY, os.path.join(run.BENCH, "traced_cli.py"),
                             str(spans), *argv.split()], env=env,
                            capture_output=True, timeout=120)
    assert (traced.returncode, traced.stdout, traced.stderr) == \
        (plain.returncode, plain.stdout, plain.stderr)
    assert json.loads(spans.read_text())["self_times"]["cli.main"][1] == 1


def test_wrapped_and_unwrapped_api_results_are_identical():
    code = """
import json, session, tracer
calls = [("sylow", "D4", 2, 7), ("degenerate", 3, "1:2"), ("ell_part", "A3", 4, 5),
         ("knorr_robinson_sum", "B2", 3), ("lemma_counts", "A2", 4)]
if TRACED:
    tracer.install(tracer.Recorder())
print(json.dumps([session._run_call(c)() for c in calls], sort_keys=True))
"""
    plain = _python(code.replace("TRACED", "False"))
    traced = _python(code.replace("TRACED", "True"))
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout


def test_install_patches_every_binding():
    out = _python("""
import lielocal.linalg, lielocal.weyl, lielocal.cli, lielocal.ell_local, tracer
tracer.install(tracer.Recorder())
assert lielocal.weyl.rank is lielocal.linalg.rank
assert hasattr(lielocal.weyl.rank, "__wrapped__")
assert lielocal.ell_local.generate_weyl is lielocal.weyl.generate_weyl
assert lielocal.cli.sylow_structure is lielocal.ell_local.sylow_structure
assert hasattr(lielocal.weyl.WeylGroup.phi_d_dimensions, "__wrapped__")
""")
    assert out.returncode == 0, out.stderr


def test_a_missing_target_fails_loudly():
    out = _python("""
import tracer
tracer.TARGETS = tracer.TARGETS + ("weyl.WeylGroup.no_such_method",)
tracer.install(tracer.Recorder())
""")
    assert out.returncode != 0
    assert "LookupError" in out.stderr and "no_such_method" in out.stderr


def test_every_per_layer_metric_names_a_workload_that_must_reach_it():
    names = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(names) == sorted(run.NONZERO)
    for name in names:
        assert run.NONZERO[name], name
        assert set(run.NONZERO[name]) <= set(workloads.WORKLOADS), name
    spans = {tracer.span_name(t) for t in tracer.TARGETS} | {"session.serialize"}
    for name in names:
        if name.endswith((".self_s", ".calls")):
            assert name.rsplit(".", 1)[0] in spans, name


def test_a_metric_reading_zero_is_reported():
    values = {"fock_llt.labels": 0.0, "cli.main.self_s": 0.1}
    assert run.require_nonzero("cli-llt", values, list(values)) == ["fock_llt.labels"]
    assert run.require_nonzero("cli-weyl", values, list(values)) == []


def test_workloads_match_benchmark_json_and_recorded_answers():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(run.BENCH, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    for name, queries in workloads.WORKLOADS.items():
        ids = [workloads.query_id(q) for q in queries]
        assert len(ids) == len(set(ids))
        assert set(ids) == set(expected[name])
    assert len(workloads.dg_groups()) == 248


def test_seed_permutes_without_changing_the_work():
    for name in workloads.WORKLOADS:
        a, b = workloads.plan(name, 1), workloads.plan(name, 2)
        assert sorted(a) == sorted(b) == sorted(workloads.WORKLOADS[name])
        assert workloads.plan(name, 1) == a
    assert workloads.plan("api-session", 1) != workloads.plan("api-session", 2)


def test_answers_ignore_whitespace_and_dead_fields():
    out = subprocess.run([run.PY, "-m", "lielocal", "sylow", "D4", "--q", "2", "--ell", "7"],
                         env=run.child_env(), capture_output=True, text=True, timeout=120)
    data = json.loads(out.stdout)
    argv = ("sylow", "D4", "--q", "2", "--ell", "7")
    want = answers.cli_answer(argv, out.stdout)
    del data["d_split"]
    data["nu"] = int(data["nu"])
    assert answers.cli_answer(argv, json.dumps(data)) == want
    data["abelian"] = not data["abelian"]
    assert answers.cli_answer(argv, json.dumps(data)) != want
    assert answers.llt_csv("a, b\n1,v \n") == answers.llt_csv("a,b\n1,v\n\n")


def test_child_environment_drops_lielocal_and_python_settings(monkeypatch):
    monkeypatch.setenv("LIELOCAL_LLT_GUARD", "3")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run.child_env()
    assert not [k for k in env if k.startswith("LIELOCAL_")]
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONHASHSEED"] == "0" and env["PYTHONPATH"] == run.SRC


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run([run.PY, "perfbench/run.py", "--workload", "cli-llt",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_reports_every_metric(workload):
    out = subprocess.run([run.PY, os.path.join(run.BENCH, "run.py"), "--workload",
                          workload, "--seed", "7", "--seconds", "1", "--trace", "1"],
                         cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in _spec()["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        if workload in run.NONZERO[name]:
            assert result["metrics"][name]["value"] != 0, name
