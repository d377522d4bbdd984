"""Shared helpers for the benchmark suite.

Each ``bench_e<id>_*.py`` module regenerates one experiment from
EXPERIMENTS.md: it measures the paper's quantity under ``pytest-benchmark``
timing, prints the paper-shaped table, and asserts the qualitative claim
(who wins, growth exponents, exact identities).  Run with::

    pytest benchmarks/ --benchmark-only -s

(the ``-s`` shows the tables; EXPERIMENTS.md records a reference copy).
"""

import os

import pytest


def env_backend(default: str) -> str:
    """The ``REPRO_BACKEND`` perf knob, validated against the registry.

    Accepts any registered backend name or resolution alias of the
    unified runtime; a typo fails fast with the registry's vocabulary
    instead of deep inside a sweep.
    """
    from repro.engine.runtime import backend_choices

    backend = os.environ.get("REPRO_BACKEND", default)
    if backend not in backend_choices():
        raise SystemExit(
            f"REPRO_BACKEND={backend!r}: pick one of {', '.join(backend_choices())}"
        )
    return backend


def emit(renderable) -> None:
    """Print a table/section with surrounding blank lines (visible via -s)."""
    print()
    print(renderable)
    print()


@pytest.fixture
def report():
    """The table printer as a fixture, for symmetry with benchmark."""
    return emit
