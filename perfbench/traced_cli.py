"""Run ``transduct.cli.main(argv)`` with the layer spans installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- transduct-args...

Spans and counters stay in memory and are written to SPANS_JSON after
``main`` returns; the exit code is ``main``'s.
"""
import json
import sys

# transduct applies TRANSDUCT_THREADS before numpy loads, so it must be
# imported before the tracer (which imports numpy).
import transduct.cli

from tracer import CLI_TARGETS, Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- ARGS...")
    tracer = Tracer(CLI_TARGETS)
    tracer.install()
    try:
        code = transduct.cli.main(argv)
    finally:
        spans, counts = tracer.take()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
