"""Run one ``cvshadow`` CLI command with its layer calls traced.

Usage: python3 bench/cli_traced.py SPANS_OUT MEMORY <cvshadow arguments...>

Wraps the names ``cvshadow.cli`` imports from the library layers, runs
``cvshadow.cli.main`` and writes the spans to SPANS_OUT when it returns.
MEMORY is 1 to record allocation peaks (see ``spans.Tracer``), else 0.
"""

import sys

from spans import Tracer, install_cli_tracing


def main() -> int:
    spans_out, memory, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer(memory=memory)
    install_cli_tracing(tracer)
    import cvshadow.cli

    code = cvshadow.cli.main(argv)
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
