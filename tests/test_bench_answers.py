"""Every cold-CLI benchmark query still gives its recorded answer.

The benchmark (perfbench/run.py) checks each query's answer against
perfbench/expected.json; a wrong answer there fails the benchmark run.
This runs the same ``cli-weyl`` and ``cli-llt`` queries in-process and
compares them the same way, so a changed answer fails the fast suite
first.  The benchmark's files are only read, never imported as a package.
"""

import importlib.util
import json
import os

import pytest

from lielocal import cli

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


answers = _load("answers")
workloads = _load("workloads")
with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)

QUERIES = [(workload, argv) for workload in ("cli-weyl", "cli-llt")
           for argv in workloads.WORKLOADS[workload]]


@pytest.mark.parametrize("workload, argv", QUERIES,
                         ids=[workloads.query_id(argv) for _, argv in QUERIES])
def test_cli_query_gives_the_recorded_answer(capsys, workload, argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    # canon, as the benchmark applies it: it reads decimal strings as ints
    got = answers.canon(answers.cli_answer(argv, out))
    assert got == EXPECTED[workload][workloads.query_id(argv)]
