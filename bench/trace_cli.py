"""Run one ``stride`` command with spans recorded, for traced cli runs.

Usage: python bench/trace_cli.py SPANS_FILE ARG...

Times ``import stride.cli`` in this fresh interpreter, installs the same
spans as the in-process traced runs, calls ``stride.cli.main`` with the
remaining arguments inside a ``cli.main`` span, and writes the spans to
SPANS_FILE.  The exit code is the command's own.
"""

import sys
import time


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    import stride.cli

    import_ns = time.perf_counter_ns() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("cli.main", stride.cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file, import_ns=import_ns)


if __name__ == "__main__":
    raise SystemExit(main())
