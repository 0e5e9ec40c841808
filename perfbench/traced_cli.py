"""One traced CLI query: ``python3 perfbench/traced_cli.py SPANS.json ARGV...``.

Wraps lielocal's public functions (tracer.py), then runs the same entry
point as ``python -m lielocal ARGV...`` and writes the spans to SPANS.json.
Standard output and the exit code are the CLI's own.
"""

import sys

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracer.Recorder()
    tracer.install(rec)
    import lielocal.cli

    try:
        return lielocal.cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
