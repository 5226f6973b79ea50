"""Run one ``ga`` command with the benchmark's tracing wrappers installed.

    python launcher.py SPAN_FILE ARG...

behaves like ``python -m cga.cli ARG...`` (same output, same exit code) and
also writes the spans and counts of the command to SPAN_FILE as JSON.
"""

import json
import sys

from tracing import Tracer


def main():
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    import cga.cli
    try:
        code = tracer.span("cli.main", cga.cli.main)(argv)
    finally:
        tracer.restore()
        sys.stdout.flush()
        with open(span_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
