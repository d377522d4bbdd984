"""``repro serve`` with the benchmark's layer spans installed.

Usage: ``python perfbench/serve_traced.py SPANS_PATH serve --port 0 ...``

Runs :func:`repro.cli.main` on the arguments after ``SPANS_PATH`` with
:class:`tracing.LayerPatch` in place, and writes every span the daemon
recorded to ``SPANS_PATH`` once it shuts down (SIGTERM is graceful).
Run with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: "list[str]") -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from repro.cli import main as repro_main

    tracer = tracing.Tracer()
    patch = tracing.LayerPatch(tracer).install()
    try:
        return repro_main(cli_args)
    finally:
        patch.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
