"""Run one `kronred` command line in a fresh interpreter, as the CLI would.

    python3 perfbench/entry.py STAMP TRACE [kronred arguments ...]

Imports kronred.cli from the checkout's ``src/``, writes the
CLOCK_MONOTONIC time at which that import finished to STAMP (the
parent subtracts its spawn time to get the set-up time), then calls
``kronred.cli.main``.  With TRACE other than ``-``, the layer wrappers
of tracer.py are installed first and the spans are written to TRACE.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import kronred.cli  # noqa: E402


def main() -> int:
    Path(sys.argv[1]).write_text(repr(time.monotonic()))
    trace_path, argv = sys.argv[2], sys.argv[3:]
    if trace_path == "-":
        return kronred.cli.main(argv)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span("cli", kronred.cli.main)(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
