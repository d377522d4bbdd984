"""Fused asynchronous kernel: dependency-wavefront tick batching.

:func:`repro.engine.asynchronous.run_asynchronous_ensemble` batches its
randomness but still walks a Python loop of ``B`` ticks per check
stride — each tick a handful of ``O(R)`` array ops, so interpreter
dispatch dominates for small ``R``.  This kernel replaces the loop with
*conflict-free wavefronts*: all ``R·B`` ticks of a chunk are resolved in
a few vectorized passes, each pass firing every tick whose dependencies
are already settled.

Exact sequential semantics
--------------------------

A tick activates node ``a`` and reads sampled nodes ``sm``.  Firing tick
``t`` is safe once every earlier tick it conflicts with has fired:

* an earlier *writer* of ``a`` (write-write),
* an earlier *writer* of any node in ``sm`` (``t`` must read their
  post-update values… i.e. must wait for them — write-read),
* an earlier *reader* of ``a`` (they must read the pre-``t`` value —
  read-write).

Within a wave all fired ticks are mutually conflict-free, every gather
happens against the pre-wave state and every write target is distinct,
so the wave equals *some* sequential order — and chaining the three
blocking rules makes it equal *the* sequential order.  The test-suite
pins this bitwise: for processes whose sample rule draws no extra
randomness, the kernel reproduces the per-tick engine exactly, final
colors and all.

The vectorized pass tracks, per node, the earliest pending activation
(``first_act``, a reversed scatter — last write wins, so the smallest
position lands) and the earliest pending read (``first_read``); a tick
fires when it owns its node's earliest activation, no sampled node has
an earlier pending activation, and no earlier pending read covers its
own node.  Ticks are processed in chunks smaller than the check stride:
conflict-chain depth grows with chunk length, and ~1/8 of ``n`` ticks
per chunk keeps the wave count low while the arrays stay wide enough to
amortise numpy dispatch.

With numba active (:mod:`.numba_support`) the wave *schedule* — a
deterministic function of the drawn ticks — is computed by a single
compiled scan instead of iterated array passes; the grouping it produces
is provably the same, so both modes consume the generator identically.
"""

from __future__ import annotations

import numpy as np

from ...core.configuration import Configuration
from ...processes.base import AgentProcess
from ..asynchronous import AsyncEnsembleResult, _default_tick_limit
from ..ensemble import _counts_matrix_fast, _run_lockstep, narrow_int_dtype
from ..rng import RandomSource, as_generator
from ..stopping import Consensus, StoppingCondition
from .numba_support import kernel_mode, njit_or_none

__all__ = ["async_kernel_eligible", "run_fused_asynchronous_ensemble"]


def async_kernel_eligible(process: AgentProcess) -> bool:
    """The wavefront needs node-sample ticks and the default representation."""
    return (
        process.has_sample_update
        and type(process).initial_colors is AgentProcess.initial_colors
        and type(process).configuration_of is AgentProcess.configuration_of
    )


def _chunk_ticks(reps: int, n: int, batch: int) -> int:
    """Ticks resolved per wavefront: bounded by ``n/8`` (conflict-chain
    depth grows with chunk length) and sized so ``reps·chunk`` stays wide
    enough to amortise numpy dispatch."""
    target = max(64, 16384 // max(reps, 1))
    cap = max(64, n // 8)
    return max(1, min(batch, target, cap))


def _wave_schedule_scalar(a, sm, last_act, last_read, wave):  # pragma: no cover
    m, s = sm.shape
    w = 0
    for t in range(m):
        w = last_act[a[t]]
        if last_read[a[t]] > w:
            w = last_read[a[t]]
        for j in range(s):
            lw = last_act[sm[t, j]]
            if lw > w:
                w = lw
        w += 1
        wave[t] = w
        last_act[a[t]] = w
        for j in range(s):
            if w > last_read[sm[t, j]]:
                last_read[sm[t, j]] = w
    return w if m else 0


_wave_schedule_numba = njit_or_none(_wave_schedule_scalar)


class _WaveBuffers:
    """Per-node scratch arrays, reallocated only when the flat size changes."""

    def __init__(self):
        self.size = -1

    def ensure(self, size: int) -> None:
        if size == self.size:
            return
        self.size = size
        self.big = np.iinfo(np.int64).max
        self.first_act = np.full(size, self.big, dtype=np.int64)
        self.first_read = np.full(size, self.big, dtype=np.int64)
        self.last_act = np.zeros(size, dtype=np.int64)
        self.last_read = np.zeros(size, dtype=np.int64)


def _apply_chunk_numpy(process, flat, a, sm, p, rng, buffers) -> None:
    """Dynamic wavefront: fire, apply, compact, repeat until drained."""
    first_act = buffers.first_act
    first_read = buffers.first_read
    big = buffers.big
    s = sm.shape[1]
    while a.size:
        reversed_p = p[::-1]
        first_act[a[::-1]] = reversed_p
        # One scatter with ticks descending: the last write per node is the
        # earliest pending read.  (Per-column scatters would let a later
        # column overwrite an earlier tick's position.)
        first_read[sm[::-1].ravel()] = np.repeat(reversed_p, s)
        candidate = (first_act[a] == p) & (first_read[a] >= p)
        ci = np.flatnonzero(candidate)
        sm_c = sm[ci]
        blocked = first_act[sm_c[:, 0]] < p[ci]
        for j in range(1, s):
            blocked |= first_act[sm_c[:, j]] < p[ci]
        fire = ci[~blocked]
        targets = a[fire]
        flat[targets] = process.update_from_samples(
            flat[targets], flat[sm[fire]], rng
        )
        first_act[targets] = big
        for j in range(s):
            first_read[sm[fire, j]] = big
        keep = np.ones(a.size, dtype=bool)
        keep[fire] = False
        a = a[keep]
        p = p[keep]
        sm = sm[keep]


def _apply_chunk_numba(process, flat, a, sm, p, rng, buffers) -> None:
    """Scheduled wavefront: one compiled scan yields each tick's wave, the
    groups are then applied in wave order — the identical grouping (and
    within-wave original order) the dynamic pass produces."""
    if a.size == 0:
        return
    wave = np.empty(a.size, dtype=np.int64)
    _wave_schedule_numba(a, sm, buffers.last_act, buffers.last_read, wave)
    buffers.last_act[a] = 0
    for j in range(sm.shape[1]):
        buffers.last_read[sm[:, j]] = 0
    order = np.argsort(wave, kind="stable")
    bounds = np.searchsorted(wave[order], np.arange(2, wave[order[-1]] + 2))
    lo = 0
    for hi in bounds:
        fire = order[lo:hi]
        lo = hi
        if fire.size == 0:
            continue
        targets = a[fire]
        flat[targets] = process.update_from_samples(
            flat[targets], flat[sm[fire]], rng
        )


def run_fused_asynchronous_ensemble(
    process: AgentProcess,
    initial: Configuration,
    repetitions: int,
    rng: RandomSource = None,
    stop: "StoppingCondition | None" = None,
    max_ticks: "int | None" = None,
    check_every: "int | None" = None,
    recorder=None,
) -> AsyncEnsembleResult:
    """Wavefront-batched one-node-per-tick scheduler for ``R`` replicas.

    The engine contract (stopping at check strides, replica retirement,
    recorder observations, tick accounting) is shared with
    :func:`~repro.engine.asynchronous.run_asynchronous_ensemble`, not
    copied from it: both supply one check stride as the ``advance`` of
    :func:`repro.engine.ensemble._run_lockstep`.  The per-stride
    randomness is drawn in the same shapes and order, so for processes
    whose sample rule consumes no extra randomness the two are
    bit-for-bit identical — the wavefront is purely a faster application
    order within each stride.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    if not async_kernel_eligible(process):
        raise TypeError(
            f"{process.name} is not eligible: the wavefront kernel needs ticks "
            "that draw only the activated node's samples (has_sample_update) "
            "and the default color representation"
        )
    generator = as_generator(rng)
    condition = stop if stop is not None else Consensus()
    n = initial.num_nodes
    limit = max_ticks if max_ticks is not None else _default_tick_limit(n)
    stride = check_every if check_every is not None else n
    if stride < 1:
        raise ValueError("check_every must be positive")
    num_slots = initial.num_slots
    samples = max(1, int(process.samples_per_round))

    dtype = narrow_int_dtype(max(n, num_slots + 1))
    colors = np.tile(
        process.initial_colors(initial).astype(dtype, copy=False),
        (repetitions, 1),
    )
    buffers = _WaveBuffers()
    apply_chunk = (
        _apply_chunk_numba if kernel_mode() == "numba" else _apply_chunk_numpy
    )

    def advance(colors, _, tick):
        batch = min(stride, limit - tick)
        reps = colors.shape[0]
        base = (np.arange(reps, dtype=np.int64) * n)[:, None]
        # Same draw shapes and order as the per-tick engine — the streams
        # coincide, only the application strategy differs.
        activated = generator.integers(0, n, size=(reps, batch))
        sampled = generator.integers(0, n, size=(reps, batch, samples))
        buffers.ensure(reps * n)
        flat = colors.ravel()
        chunk = _chunk_ticks(reps, n, batch)
        for lo in range(0, batch, chunk):
            hi = min(lo + chunk, batch)
            a = (activated[:, lo:hi] + base).ravel()
            sm = (sampled[:, lo:hi] + base[:, :, None]).reshape(-1, samples)
            p = np.broadcast_to(
                np.arange(hi - lo, dtype=np.int64), (reps, hi - lo)
            ).ravel()
            apply_chunk(process, flat, a, sm, p, generator, buffers)
        return colors, _counts_matrix_fast(colors, num_slots), tick + batch

    ticks, stopped, final_counts = _run_lockstep(
        colors, _counts_matrix_fast(colors, num_slots), advance, condition,
        limit, recorder,
    )
    return AsyncEnsembleResult(
        process_name=process.name,
        num_nodes=n,
        ticks=ticks,
        stopped=stopped,
        final_counts=final_counts,
        stop_label=condition.label,
    )
