"""The api-session workload: one process calling lielocal's public API.

Run by run.py as a child process::

    python3 perfbench/session.py --seed N --out RESULTS.json [--spans SPANS.json]

Each call is timed together with its serialisation, which is done the way
the CLI does it (``to_json`` then ``json.dumps(..., sort_keys=True,
indent=2)``).  The answer fields are read from the serialised dict after
the timer stops.  A call that raises or exceeds the per-call timeout is
recorded as failed and the session goes on.  With ``--spans`` the public
functions are wrapped first (see tracer.py) and the spans are written
there.
"""

from __future__ import annotations

import argparse
import json
import signal
import time

import answers
import tracer
import workloads

CALL_TIMEOUT_S = 60


def _run_call(call):
    """Make one API call; return a function giving its JSON-ready dict.

    The imports stay here so that they read the module attributes after
    ``tracer.install`` has replaced them."""
    from lielocal.defining_char import (alperin_weights, block_partition,
                                        knorr_robinson_sum, lemma_counts)
    from lielocal.degeneration import (AbelianLGroup, build_isomorphism,
                                       dg_cohomology_check)
    from lielocal.ell_local import sylow_structure
    from lielocal.generic_order import ell_part, generic_order
    from lielocal.root_datum import cached_datum

    kind, *args = call
    if kind == "degenerate":
        ell, factors = args
        group = AbelianLGroup(ell=ell, factors=tuple(
            tuple(int(x) for x in part.split(":")) for part in factors.split(",")))
        iso = build_isomorphism(group)
        dg = dg_cohomology_check(group, 2 * max(group.moduli))
        return lambda: {"isomorphism": iso.to_json(), "dg": dg.to_json()}
    datum = cached_datum(args[0])
    if kind == "ell_part":
        d, nu = ell_part(generic_order(datum), args[1], args[2])
        return lambda: {"d": d, "nu": str(nu)}
    fn = {
        "lemma_counts": lemma_counts,
        "block_partition": block_partition,
        "alperin_weights": alperin_weights,
        "knorr_robinson_sum": knorr_robinson_sum,
        "sylow": sylow_structure,
    }[kind]
    report = fn(datum, *args[1:])
    return report.to_json


class CallTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimeout(f"call exceeded {CALL_TIMEOUT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    rec = tracer.Recorder()
    if args.spans:
        tracer.install(rec)
    import lielocal.cli  # noqa: F401  same imports as a CLI start, outside the timers

    signal.signal(signal.SIGALRM, _alarm)
    results = []
    with rec.span("session.run"):
        for call in workloads.plan("api-session", args.seed):
            entry = {"id": workloads.query_id(call)}
            signal.alarm(CALL_TIMEOUT_S)
            start = time.perf_counter()
            try:
                to_json = _run_call(call)
                with rec.span("session.serialize"):
                    data = to_json()
                    text = json.dumps(data, sort_keys=True, indent=2)
                entry["seconds"] = time.perf_counter() - start
                signal.alarm(0)
                entry["bytes"] = len(text)
                entry["answer"] = answers.API_EXTRACTORS[call[0]](data)
            except Exception as exc:  # a failed call is counted, not fatal
                signal.alarm(0)
                entry["seconds"] = time.perf_counter() - start
                entry["error"] = f"{type(exc).__name__}: {exc}"
            # nothing of this call may stay alive into the next one
            to_json = data = text = None
            results.append(entry)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    if args.spans:
        rec.dump(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
