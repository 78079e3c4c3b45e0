"""Start ``qpt serve`` with the layer wrappers installed.

    python3 perfbench/serve_launcher.py SPANS_PATH serve --port 0 ...

Installs :mod:`tracing`'s wrappers, then hands the remaining arguments
to ``repro.tools.qpt_cli.main`` unchanged, so the traced daemon runs
the code a user's ``python -m repro.tools.qpt_cli serve`` runs, plus
the wrappers. SIGUSR1 turns recording on, SIGUSR2 off (the benchmark
toggles it to measure tracing overhead). The spans are written to
SPANS_PATH when the daemon stops.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from repro.tools import qpt_cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGUSR1, tracer.enable)
    signal.signal(signal.SIGUSR2, tracer.disable)
    try:
        return qpt_cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
