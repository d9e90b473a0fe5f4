"""Run ``sgsim.cli.main`` with spans around its layers, then save the trace.

Usage: python cli_traced.py TRACE_JSON EXPERIMENT [sgsim CLI flags...]

This is the traced form of ``python -m sgsim.cli EXPERIMENT ...``: the same
work in a fresh interpreter, plus an ``cli.import`` span for ``import
sgsim.cli`` and the spans :meth:`spans.Tracer.install_sgsim` adds.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import sgsim.cli
    tracer.install_sgsim()
    with tracer.span("cli.main"):
        code = sgsim.cli.main(argv)
    tracer.uninstall()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
