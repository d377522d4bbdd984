"""Fused kernels: single-pass vectorized inner loops for the hot engines.

The counts backend dominates BENCH_engine.json because its whole round is
one broadcast multinomial; the agent and async paths paid per-node
gathers and a per-tick Python loop.  This package closes that gap with
three kernels, each registered through the runtime's backend registry
(:mod:`repro.engine.runtime`) so ``backend="auto"`` routes to them via
the cost model:

* :func:`~repro.engine.kernels.sync.run_fused_agent_ensemble`
  (``kernel-agent``) — the synchronous agent ensemble lumped *exactly in
  distribution* to an ``(R, k)`` switch-and-redistribute counts chain,
  with active-slot compaction shrinking wide matrices to their live
  columns.
* :func:`~repro.engine.kernels.asynchronous.run_fused_asynchronous_ensemble`
  (``kernel-async``) — the one-node-per-tick scheduler resolved in
  conflict-free wavefronts instead of a Python tick loop, with provably
  sequential semantics.
* :func:`~repro.engine.kernels.sync.fused_colors_step` — a colors-
  preserving fused round (counts → law → one inverse-cdf draw per node)
  the §5 adversary runner uses for its honest step.

Every kernel is pure numpy.  ``rng_mode="per-replica"`` plans never
reach a kernel: the kernels reorder stream consumption, so the runtime
routes exact-stream requests to the established engines and the
bit-for-bit runtime-matrix contract is untouched.

Writing a kernel
----------------

A kernel is an alternative *executor* for semantics some engine already
defines; the registry treats it as just another backend (see
"Writing a new backend" in :mod:`repro.engine.runtime`).  A lock-step
kernel supplies only its ``advance`` (one round, or one check stride of
ticks) and runs through the engines' shared loop,
:func:`repro.engine.ensemble._run_lockstep`, which owns the round-0
check, the recorder, replica retirement, the limit and the survivors'
final counts; ``widen`` restores full-width counts for a kernel that
drops columns.  The discipline that keeps kernels trustworthy, in the
order that caught real bugs while building these three:

1. **Name the invariant before vectorizing.**  State exactly what the
   kernel preserves and in which sense — bit-for-bit (same generator
   stream, same results), exact in distribution (the SR lumping), or
   statistical.  The wavefront kernel's first draft fired a tick when no
   *earlier* pending tick wrote its read set; the sequential semantics
   also forbid a *later* writer overtaking a pending reader, and only a
   bitwise replay test against the naive per-tick loop exposed it.
2. **Keep every random draw on the caller's generator, in a documented
   shape order.**  Drawing ``(R, B)`` activations then ``(R, B, s)``
   samples — the same order as the engine being replaced — is what makes
   the bitwise test even possible.
3. **Gate eligibility on declared capabilities, not process names.**
   These kernels key off ``has_kernel_form`` / ``has_sample_update``
   plus the default color representation; a new process opts in by
   implementing the law, not by being added to a list.  A node rule
   alone is not enough for the wavefront: 2-Median has
   ``update_from_samples``, but its asynchronous tick draws a full round,
   so it keeps ``has_sample_update`` off and stays on ``ensemble-async``.
4. **Register the backend with an honest cost.**  The registry's
   ``auto`` only routes well if the kernel's cost formula sits where
   measurements put it (slightly above the counts chain, far below the
   agent gather); BENCH_engine.json's ``kernels`` section and the
   ``kernels-smoke`` step of ``scripts/check.sh`` keep the recorded
   numbers honest.
"""

from .asynchronous import async_kernel_eligible, run_fused_asynchronous_ensemble
from .sync import (
    compaction_safe,
    fused_colors_step,
    kernel_eligible,
    kernel_step_counts,
    run_fused_agent_ensemble,
)

__all__ = [
    "async_kernel_eligible",
    "compaction_safe",
    "fused_colors_step",
    "kernel_eligible",
    "kernel_step_counts",
    "run_fused_agent_ensemble",
    "run_fused_asynchronous_ensemble",
]
