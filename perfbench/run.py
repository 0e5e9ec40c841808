"""The lielocal benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) as a closed loop with a
single client, from the root of a checkout, against the sources in
``src/``.  A pass is the workload's whole query list in the order the seed
gives; passes repeat until ``--seconds`` have elapsed, at least one.  Every
answer is checked against ``expected.json``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it has the
per-layer metrics, from passes whose queries run with lielocal's public
functions wrapped in spans (tracer.py), each traced pass following an
untraced one of the same queries.  The lines before it record the machine,
Python version, effective guard constants and every failure.  The exit
code is 1 when a query failed or a per-layer metric that must be nonzero
reads zero, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import answers
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PY = sys.executable

QUERY_TIMEOUT_S = 90      # one cold query
RUN_BUDGET_S = 165        # queries not started by then count as failed
SETUP_STARTS = 6          # cold starts for setup_s before the passes, and again after

GUARD_PROBE = (
    "import importlib, json, lielocal.cli; "
    f"print(json.dumps({{name: getattr(importlib.import_module('lielocal.' + mod), name) "
    f"for name, mod in {tracer.GUARDS!r}.items()}}))"
)

# Workloads on which each per-layer metric must read nonzero.  A metric
# that reads zero there means a renamed or removed function, or a workload
# that no longer reaches the layer; the traced run then fails.
CLI = ("cli-weyl", "cli-llt")
ALL = CLI + ("api-session",)
NONZERO = {
    "root_datum.cached_datum.self_s": ("cli-weyl", "api-session"),
    "weyl.generate_weyl.self_s": ("cli-weyl", "api-session"),
    "weyl.gl_weyl.self_s": ("cli-weyl",),
    "weyl.elements": ("cli-weyl", "api-session"),
    "weyl.f_conjugacy_classes.self_s": ("cli-weyl",),
    "weyl.classes": ("cli-weyl",),
    "weyl.phi_d_dimensions.self_s": ("cli-weyl", "api-session"),
    "weyl.phi_d_dimensions.calls": ("cli-weyl", "api-session"),
    "weyl.phi_d_dimensions.hit_ratio": ("cli-weyl", "api-session"),
    "weyl.eigenspace_basis.self_s": ("cli-weyl", "api-session"),
    "weyl.eigenspace_basis.calls": ("cli-weyl", "api-session"),
    "weyl.regular_elements.self_s": ("cli-weyl",),
    "weyl.centralizer_of_twisted.self_s": ("cli-weyl", "api-session"),
    "weyl.centralizer_of_twisted.calls": ("cli-weyl", "api-session"),
    "linalg.rank.self_s": ("cli-weyl", "api-session"),
    "linalg.rank.calls": ("cli-weyl", "api-session"),
    "linalg.smith_normal_form.self_s": ("api-session",),
    "cyclotomic.cyclo_rref.self_s": ("cli-weyl", "api-session"),
    "cyclotomic.cyclo_rref.calls": ("cli-weyl", "api-session"),
    "generic_order.generic_order.self_s": ("cli-weyl", "api-session"),
    "generic_order.ell_part.self_s": ("cli-weyl", "api-session"),
    "generic_order.ell_part.calls": ("cli-weyl", "api-session"),
    "ell_local.sylow_structure.self_s": ("cli-weyl", "api-session"),
    "ell_local.gl_sylow_structure.self_s": ("cli-weyl",),
    "braid_hecke.verify_regular_braid_identity.self_s": ("cli-weyl",),
    "braid_hecke.garside_nf.self_s": ("cli-weyl",),
    "braid_hecke.garside_nf.calls": ("cli-weyl",),
    "braid_hecke.candidates_checked": ("cli-weyl",),
    "braid_hecke.hecke_poincare.self_s": ("cli-weyl",),
    "fock_llt.bar_invariant_family.self_s": ("cli-llt",),
    "fock_llt.llt_canonical_basis.self_s": ("cli-llt",),
    "fock_llt.verify_bar_invariance.self_s": ("cli-llt",),
    "fock_llt.shape_check.self_s": ("cli-llt",),
    "fock_llt.labels": ("cli-llt",),
    "defining_char.center_dual.self_s": ("api-session",),
    "defining_char.lemma_counts.self_s": ("api-session",),
    "defining_char.block_partition.self_s": ("api-session",),
    "defining_char.alperin_weights.self_s": ("api-session",),
    "defining_char.knorr_robinson_sum.self_s": ("api-session",),
    "defining_char.weights": ("api-session",),
    "degeneration.build_isomorphism.self_s": ("cli-weyl", "api-session"),
    "degeneration.radical_section.self_s": ("cli-weyl", "api-session"),
    "degeneration.dg_cohomology_check.self_s": ("cli-weyl", "api-session"),
    "degeneration.groups": ("cli-weyl", "api-session"),
    "cli.main.self_s": CLI,
    "cli.out_bytes": CLI,
    "session.serialize.self_s": ("api-session",),
    "proc.start_s": ALL,
    "proc.cpu_s": ALL,
    "proc.queries": ALL,
    "trace.overhead_frac": ALL,
    "checks.poincare_unenumerated": ("cli-weyl",),
    "checks.dg_incomplete": ("api-session",),
    "checks.sylow_outside_hypotheses": ("api-session",),
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, no interpreter start)."""


def child_env() -> dict:
    """A developer's LIELOCAL_* and PYTHON* settings must not change the
    work.  Dropping PYTHONDONTWRITEBYTECODE lets the discarded first start
    write bytecode, so that compiling stays out of setup_s."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LIELOCAL_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def run_child(cmd: list, tmp: str, timeout: float) -> dict:
    """Run one process to completion; wall time, rusage, exit code, output."""
    out_path = os.path.join(tmp, "stdout")
    err_path = os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=child_env(), cwd=ROOT)
        done: dict = {}

        def reap():
            done["status"] = os.wait4(proc.pid, 0)
            done["end"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(max(timeout, 0.0))
            timed_out = waiter.is_alive()
        finally:  # also when the benchmark itself is interrupted
            if waiter.is_alive():
                proc.kill()
                waiter.join()
    _, status, usage = done["status"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "wall": done["end"] - start,
        "rc": proc.returncode,
        "timed_out": timed_out,
        "stdout": stdout,
        "stderr": stderr,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def probe(tmp: str) -> dict:
    """One discarded start: compiles bytecode and reads the guard constants."""
    res = run_child([PY, "-c", GUARD_PROBE], tmp, QUERY_TIMEOUT_S)
    if res["rc"] != 0:
        raise BenchError("cannot import lielocal.cli from src/: "
                         + res["stderr"].strip()[-500:])
    return json.loads(res["stdout"])


def setup_starts(tmp: str) -> list:
    """Wall times of interpreter start plus ``import lielocal.cli``.  The
    starts are taken before and after the passes, so that their median
    does not rest on a single slow or fast spell of the machine."""
    times = []
    for _ in range(SETUP_STARTS):
        res = run_child([PY, "-c", "import lielocal.cli"], tmp, QUERY_TIMEOUT_S)
        if res["rc"] != 0:
            raise BenchError("cold start failed: " + res["stderr"].strip()[-500:])
        times.append(res["wall"])
    return times


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def cold_pass(queries: list, tmp: str, deadline: float, traced: bool) -> dict:
    """One pass of a cold-CLI workload: a fresh process per query."""
    records = []
    traces = []
    for argv in queries:
        rec = {"id": workloads.query_id(argv)}
        records.append(rec)
        left = deadline - time.perf_counter()
        if left <= 0:
            rec.update(seconds=0.0, error="not started: run budget spent")
            continue
        spans_path = os.path.join(tmp, "spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        if traced:
            cmd = [PY, os.path.join(BENCH, "traced_cli.py"), spans_path, *argv]
        else:
            cmd = [PY, "-m", "lielocal", *argv]
        res = run_child(cmd, tmp, min(QUERY_TIMEOUT_S, left))
        rec.update(seconds=res["wall"], rss_mb=res["rss_mb"], cpu_s=res["cpu_s"],
                   bytes=len(res["stdout"].encode()))
        if res["timed_out"]:
            rec["error"] = "timed out"
        elif res["rc"] != 0:
            rec["error"] = f"exit {res['rc']}: {res['stderr'].strip()[-300:]}"
        else:
            try:
                rec["answer"] = answers.cli_answer(argv, res["stdout"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                rec["error"] = f"unreadable output: {exc!r}"
        if traced:
            trace = _load_json(spans_path)
            if trace is None:
                rec.setdefault("error", "no spans written")
            else:
                trace["wall"] = res["wall"]
                traces.append(trace)
    return {"records": records, "traces": traces}


def session_pass(seed: int, tmp: str, deadline: float, traced: bool) -> dict:
    """One pass of api-session: a single process making every call."""
    out_path = os.path.join(tmp, "session.json")
    spans_path = os.path.join(tmp, "spans.json")
    for path in (out_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [PY, os.path.join(BENCH, "session.py"), "--seed", str(seed),
           "--out", out_path]
    if traced:
        cmd += ["--spans", spans_path]
    res = run_child(cmd, tmp, deadline - time.perf_counter())
    records = _load_json(out_path) if res["rc"] == 0 else None
    if records is None:
        why = "timed out" if res["timed_out"] else \
            f"session exit {res['rc']}: {res['stderr'].strip()[-300:]}"
        records = [{"id": workloads.query_id(c), "seconds": 0.0, "error": why}
                   for c in workloads.plan("api-session", seed)]
    for rec in records:
        rec["rss_mb"] = res["rss_mb"]
    records[0]["cpu_s"] = res["cpu_s"]
    traces = []
    if traced:
        trace = _load_json(spans_path)
        if trace is not None:
            trace["wall"] = res["wall"]
            traces.append(trace)
        else:
            records[0].setdefault("error", "no spans written")
    return {"records": records, "traces": traces}


def run_pass(workload: str, seed: int, tmp: str, deadline: float, traced: bool):
    if workload in workloads.COLD:
        return cold_pass(workloads.plan(workload, seed), tmp, deadline, traced)
    return session_pass(seed, tmp, deadline, traced)


def check_answers(workload: str, records: list, expected: dict) -> None:
    """Mark every record whose answer differs from the recorded one."""
    table = expected[workload]
    for rec in records:
        if "error" in rec:
            continue
        want = table.get(rec["id"])
        if want is None:
            rec["error"] = "no recorded answer"
        elif answers.canon(rec["answer"]) != want:
            rec["error"] = "wrong answer"


def end_to_end(passes: list, setup_s: float) -> dict:
    walls = [sum(r["seconds"] for r in p["records"]) for p in passes]
    slowest = [max(r["seconds"] for r in p["records"]) for p in passes]
    rss = [r["rss_mb"] for p in passes for r in p["records"] if "rss_mb" in r]
    return {
        "wall_s": statistics.median(walls),
        "max_query_s": statistics.median(slowest),
        "peak_rss_mb": max(rss, default=0.0),
        "setup_s": setup_s,
    }


def per_layer(workload: str, plain: list, traced: list) -> dict:
    """Per-pass means over the traced passes; CPU time from the untraced."""
    n = len(traced)
    totals: dict[str, float] = {}
    counters: dict[str, float] = {}
    start_s = 0.0
    for p in traced:
        for trace in p["traces"]:
            for name, (self_s, calls) in trace["self_times"].items():
                totals[name + ".self_s"] = totals.get(name + ".self_s", 0.0) + self_s
                totals[name + ".calls"] = totals.get(name + ".calls", 0) + calls
            start_s += trace["wall"] - trace["top_s"] - trace["dump_s"]
            for key, value in trace["counters"].items():
                counters[key] = counters.get(key, 0) + value
    out = {name: value / n for name, value in totals.items()}
    out.update({name: value / n for name, value in counters.items()})
    calls = totals.get("weyl.phi_d_dimensions.calls", 0)
    out["weyl.phi_d_dimensions.hit_ratio"] = (
        counters.get("weyl.phi_d_dimensions.repeats", 0) / calls if calls else 0.0)
    out["proc.start_s"] = start_s / n
    out["proc.cpu_s"] = sum(r.get("cpu_s", 0.0) for p in plain
                            for r in p["records"]) / len(plain)
    out["proc.queries"] = len(traced[0]["records"])
    if workload in workloads.COLD:
        out["cli.out_bytes"] = sum(r.get("bytes", 0) for p in traced
                                   for r in p["records"]) / n
    plain_wall = sum(r["seconds"] for p in plain for r in p["records"])
    traced_wall = sum(r["seconds"] for p in traced for r in p["records"])
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return out


def require_nonzero(workload: str, values: dict, names: list) -> list:
    return [name for name in names
            if workload in NONZERO.get(name, ()) and not values.get(name)]


def environment() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1].strip())
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "lielocal", "cli.py")):
        print(f"perfbench: no lielocal sources under {SRC}", file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        deadline = time.perf_counter() + RUN_BUDGET_S
        guards = probe(tmp)
        starts = [] if args.trace else setup_starts(tmp)
        plain, traced = [], []
        started = time.perf_counter()
        while True:
            plain.append(run_pass(args.workload, args.seed, tmp, deadline, False))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, tmp, deadline, True))
            if time.perf_counter() - started >= args.seconds:
                break
        if not args.trace:
            starts += setup_starts(tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = [r for p in plain + traced for r in p["records"]]
    check_answers(args.workload, records, expected)
    failures = [{"id": r["id"], "error": r["error"]} for r in records if "error" in r]

    silent = []
    if args.trace:
        specs = spec["per_layer"]
        values = per_layer(args.workload, plain, traced)
        silent = require_nonzero(args.workload, values, [m["name"] for m in specs])
    else:
        specs = spec["end_to_end"]
        values = end_to_end(plain, statistics.median(starts))
    attempted = len(records)
    failed = len(failures)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "passes": len(plain), "environment": environment(),
                      "guards": guards, "fail_frac": failed / attempted,
                      "failures": failures, "metrics_reading_zero": silent}))
    for m in specs:
        print(f"{m['name']:>48} = {values.get(m['name'], 0.0):.6g} {m['unit']}")
    if not args.trace:
        print(f"{'max_query_s':>48} = {values['max_query_s']:.6g} s")
    print(f"{'fail_frac':>48} = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in specs}
    ok = not failed and not silent
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
