"""Run one anomdiff command with per-layer tracing installed.

    python3 benchmarks/traced_cli.py --command ... [--param ...]

Behaves as `python -m anomdiff.cli`, then writes one last line to standard
error: `@@trace ` followed by the raw span statistics as JSON.
"""

from __future__ import annotations

import json
import sys

from anomdiff import cli
from tracer import Tracer

MARKER = "@@trace "


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write("\n" + MARKER + json.dumps(tracer.raw()) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
