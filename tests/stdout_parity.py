"""Compare the CLI output of two source trees, argv by argv.

    python tests/stdout_parity.py PARENT_SRC [CHANGE_SRC]

Each SRC is a directory that holds the ``lielocal`` package, such as the
``src`` of another checkout; CHANGE_SRC defaults to this checkout's
``src``.  One child process per tree runs every argv through
``lielocal.cli.main`` in turn and records its exit code, the sha256 of its
stdout, and its stderr.  Every argv whose records differ is printed, and the
exit status is 1 when any does.

The argv are the queries of tests/test_golden_stdout.py, the cold-CLI
queries of perfbench/workloads.py, ``weyl regular`` and ``braid
verify-regular`` for every label of rank <= 4 and GL1-GL6 at every d from 1
to 2 * (largest degree) * (twist order), ``weyl regular`` for every label of
rank 5 or 6 and GL7 at those d, ``sylow L --q Q --ell ELL`` for the labels
of rank <= 4 and GL1-GL6 at (Q, ELL) in (2, 3), (2, 5), (2, 7), (3, 5) and
(4, 7), ``hecke poincare``, ``order L`` and ``order L --q 4 --ell 5``
for every label L of ``ALL_LABELS`` and GL1-GL9,
``llt --n N --d D`` for every N <= 10 and D from 2 to 5, in JSON, with
``--csv`` and with ``--at-1``, and for N = 11, 12 and D = 2, 3 in JSON and
with ``--csv``, ``degenerate --ell ELL --factors F`` for ELL in 2, 3, 5
and ten factor lists F, ``degenerate --E`` for the eleven automorphism
groups of ``DEGENERATE_E`` (generators that are not symmetric matrices,
written to a temporary directory), and ``blocks``, ``alperin`` and
``kr-sum`` for every label of rank <= 3 and A4, 2A4, D4, 3D4, 2D4, B4, F4
at every prime power q <= 9.  The list is built from CHANGE_SRC.  Both
children run at once; the 1,917 argv took about 35-60 s on a 2-CPU machine.

This is a tool for checking that a refactor keeps every output; it is not a
test module, and pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_CHILD = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import lielocal
from lielocal import cli
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
    records.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                    err.getvalue()])
json.dump({"package": lielocal.__file__, "records": records}, sys.stdout)
"""


def _cycle(n: int) -> list[list[int]]:
    """The matrix sending g_j to g_{j+1 mod n}."""
    return [[int(k == (j + 1) % n) for j in range(n)] for k in range(n)]


# (ell, factors, generators) for ``degenerate --E``: each group has a
# generator that is not a symmetric matrix, so an action read off the
# transpose shows
DEGENERATE_E = [
    ("2", "1:3", [_cycle(3)]),
    ("2", "2:3", [_cycle(3)]),
    ("2", "1:7", [_cycle(7)]),
    ("5", "1:3", [_cycle(3)]),
    ("7", "1:3", [_cycle(3)]),
    ("5", "1:4", [_cycle(4), [[-(i == j) for j in range(4)] for i in range(4)]]),
    ("3", "1:4", [_cycle(4)]),
    ("3", "2:2", [[[0, -1], [1, 0]]]),
    ("3", "2:1,1:1", [[[1, 9], [3, 1]]]),
    ("3", "1:2", [[[1, 1], [0, 1]]]),  # |E| = 3 = ell: refused
    ("2", "2:1,1:3", [[[1, 0, 0, 0]] + [[0] + row for row in _cycle(3)]]),
]


def argv_list(src: str, tmp: str) -> list[list[str]]:
    """The argv to compare, with the labels and degrees read from ``src``;
    the matrix files of ``DEGENERATE_E`` are written to ``tmp``."""
    sys.path[:0] = [src, HERE, ROOT]
    from lielocal.root_datum import ALL_LABELS, gl_rank, labels_of_rank, parse_label, split_degrees
    from perfbench.workloads import CLI_LLT, CLI_WEYL
    from test_golden_stdout import GOLDEN

    queries = [q.split() for q in sorted(GOLDEN)] + [q.split() for q in CLI_WEYL + CLI_LLT]

    def top(label: str) -> int:
        """2 * (largest degree) * (twist order); GL_n has degrees 1..n."""
        if (n := gl_rank(label)) is not None:
            return 2 * n
        twist, family, n = parse_label(label)
        return 2 * max(split_degrees(family, n)) * twist

    for label in labels_of_rank(4) + [f"GL{n}" for n in range(1, 7)]:
        for d in range(1, top(label) + 1):
            queries.append(["weyl", "regular", label, "--d", str(d)])
            queries.append(["braid", "verify-regular", label, "--d", str(d)])
        for q, ell in ((2, 3), (2, 5), (2, 7), (3, 5), (4, 7)):
            queries.append(["sylow", label, "--q", str(q), "--ell", str(ell)])
    for label in [label for label in labels_of_rank(6) if label not in labels_of_rank(4)] + ["GL7"]:
        for d in range(1, top(label) + 1):
            queries.append(["weyl", "regular", label, "--d", str(d)])
    for label in list(ALL_LABELS) + [f"GL{n}" for n in range(1, 10)]:
        queries.append(["hecke", "poincare", label])
        queries.append(["order", label])
        queries.append(["order", label, "--q", "4", "--ell", "5"])
    for n in range(11):
        for d in range(2, 6):
            for style in ([], ["--csv"], ["--at-1"]):
                queries.append(["llt", "--n", str(n), "--d", str(d), *style])
    for n in (11, 12):
        for d in (2, 3):
            for style in ([], ["--csv"]):
                queries.append(["llt", "--n", str(n), "--d", str(d), *style])
    for ell in (2, 3, 5):
        for factors in ("1:1", "1:2", "2:1", "1:3", "3:1", "1:1,2:1", "2:2", "1:2,2:1",
                        "1:1,3:1", "4:1"):
            queries.append(["degenerate", "--ell", str(ell), "--factors", factors])
    for k, (ell, factors, generators) in enumerate(DEGENERATE_E):
        path = os.path.join(tmp, f"E{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(generators, handle)
        queries.append(["degenerate", "--ell", ell, "--factors", factors, "--E", path])
    for label in labels_of_rank(3) + ["A4", "2A4", "D4", "3D4", "2D4", "B4", "F4"]:
        for q in (2, 3, 4, 5, 7, 8, 9):
            for command in ("blocks", "alperin", "kr-sum"):
                queries.append([command, label, "--q", str(q)])
    return queries


def run_all(srcs: list[str], queries: list[list[str]]) -> list[list]:
    """The records of every query, one list per tree, the trees run at once."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    children = [subprocess.Popen([sys.executable, "-c", _CHILD, src], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, text=True, env=env)
                for src in srcs]
    for child in children:
        child.stdin.write(json.dumps(queries))
        child.stdin.close()
    results = []
    for src, child in zip(srcs, children):
        text = child.stdout.read()
        if child.wait() != 0:
            raise SystemExit(f"the child for {src} failed with exit code {child.returncode}")
        result = json.loads(text)
        package = os.path.realpath(result["package"])
        if not package.startswith(os.path.realpath(src) + os.sep):
            raise SystemExit(f"the child for {src} imported lielocal from {package}")
        results.append(result["records"])
    return results


def main(args: list[str]) -> int:
    if len(args) not in (1, 2):
        print("usage: python tests/stdout_parity.py PARENT_SRC [CHANGE_SRC]", file=sys.stderr)
        return 2
    srcs = [os.path.abspath(args[0]),
            os.path.abspath(args[1] if len(args) == 2 else os.path.join(ROOT, "src"))]
    with tempfile.TemporaryDirectory() as tmp:
        queries = argv_list(srcs[1], tmp)
        parent, change = run_all(srcs, queries)
    differ = 0
    for argv, old, new in zip(queries, parent, change):
        if old != new:
            differ += 1
            fields = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                      if a != b]
            print(" ".join(argv), "--", ", ".join(fields), "differ")
    print(f"{len(queries)} argv compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
