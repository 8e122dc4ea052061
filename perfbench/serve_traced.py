"""``repro serve`` with the benchmark's tracer installed.

    python3 perfbench/serve_traced.py OUT.json serve --port 0 ...

Runs the program's own CLI with the given arguments; when the server has
drained and exited (``POST /shutdown``), writes the spans and counters
it recorded to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from repro.__main__ import main as repro_main

    tracer = Tracer().install()
    try:
        status = repro_main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as handle:
            json.dump(tracer.export(), handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
