"""The kernel-mode names ``perfbench/run.py`` reads for its box block.

Every kernel in this package has one pure-numpy implementation, so the
mode is always ``"numpy"``.  Nothing in ``repro`` imports this module:
it keeps the two names the benchmark's ``box`` block imports, until the
benchmark change that drops that import (ROADMAP item 1) deletes it.
"""

__all__ = ["HAVE_NUMBA", "kernel_mode"]

HAVE_NUMBA = False


def kernel_mode() -> str:
    """The kernels' implementation: always ``"numpy"``."""
    return "numpy"
