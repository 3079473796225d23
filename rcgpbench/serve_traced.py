"""Run ``rcgp serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 serve_traced.py TRACE.json serve --store DIR ...``.
The arguments after the trace path go to the ``rcgp`` command line
unchanged; after the server drains (SIGTERM), the span totals are
written to ``TRACE.json``.
"""

from __future__ import annotations

import sys

import common


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    common.bootstrap()
    import tracing
    from repro.cli import main as rcgp_main
    tracer = tracing.Tracer().install()
    try:
        return rcgp_main(cli_args)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
