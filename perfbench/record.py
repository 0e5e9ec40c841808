"""Record the expected answer of every query in every workload's pool.

    python3 perfbench/record.py

Runs each workload once, untraced, and writes the answer fields of every
query (answers.py) to perfbench/expected.json.  Refuses to write when any
query fails.  Re-record only when a change is meant to alter an answer,
and say so in the change.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import answers
import run
import workloads


def main() -> int:
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    table = {}
    try:
        for workload in workloads.WORKLOADS:
            result = run.run_pass(workload, 0, tmp, time.perf_counter() + 3600, False)
            failed = [r for r in result["records"] if "error" in r]
            if failed:
                for r in failed:
                    print(f"{workload}: {r['id']}: {r['error']}", file=sys.stderr)
                return 1
            table[workload] = {r["id"]: answers.canon(r["answer"])
                               for r in result["records"]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = []
    for workload in sorted(table):
        rows = [f"  {json.dumps(qid)}: {json.dumps(ans, sort_keys=True)}"
                for qid, ans in sorted(table[workload].items())]
        lines.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(os.path.join(run.BENCH, "expected.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
