"""Unit tests for the fused kernel layer (:mod:`repro.engine.kernels`).

Three invariants, in decreasing strictness:

* **bit-for-bit** — the async wavefront kernel draws its per-stride
  randomness in the engine's exact shapes and order, so for processes
  whose sample rule consumes no extra randomness it must reproduce
  :func:`repro.engine.asynchronous.run_asynchronous_ensemble` identically
  (ticks, stop masks, final counts).  This is the test that caught the
  wavefront's read-write blocking bug.
* **exact in distribution** — the switch-and-redistribute lumping and the
  fused colors step are identically distributed to the agent-level
  engines; cross-validated with KS / z-score checks.
* **contract** — eligibility gates, rng-mode rejections, compaction
  bookkeeping, and the numba/numpy mode switch (``REPRO_NO_NUMBA``).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import Configuration
from repro.engine import (
    Consensus,
    ColorsAtMost,
    MaxSupportAbove,
    run_agent_ensemble,
    run_asynchronous_ensemble,
    run_counts_ensemble,
)
from repro.engine.kernels import (
    HAVE_NUMBA,
    async_kernel_eligible,
    compaction_safe,
    force_numpy,
    fused_colors_step,
    kernel_eligible,
    kernel_mode,
    kernel_step_counts,
    run_fused_agent_ensemble,
    run_fused_asynchronous_ensemble,
)
from repro.engine.metrics import MetricRecorder
from repro.engine.stopping import StoppingCondition
from repro.processes import ThreeMajority, TwoChoices, Voter
from repro.processes.base import AgentProcess
from repro.processes.three_majority import ThreeMajorityResample

SEED = 20170729

#: Processes whose ``update_from_samples`` draws no extra randomness —
#: for these the wavefront kernel must equal the per-tick engine bitwise.
DRAW_FREE = [
    pytest.param(Voter, id="voter"),
    pytest.param(ThreeMajority, id="3-majority"),
    pytest.param(ThreeMajorityResample, id="3-majority-resample"),
    pytest.param(TwoChoices, id="2-choices"),
]


class _RandomTieBreak3Majority(ThreeMajority):
    """3-Majority with the *drawing* tie-break the paper states literally.

    Footnote 1 makes the fixed-sample tie-break (what :class:`ThreeMajority`
    now implements) equal in distribution, so this variant survives only as
    the test double for rules whose sample update consumes extra
    randomness — the case the wavefront kernel can match distributionally
    but never bitwise.
    """

    name = "3-majority/drawing"

    def update_from_samples(self, own, picks, rng):
        a, b, c = picks[..., 0], picks[..., 1], picks[..., 2]
        random_pick = rng.integers(0, 3, size=a.shape)
        fallback = np.take_along_axis(picks, random_pick[..., None], axis=-1)[..., 0]
        return np.where(
            a == b, a, np.where(b == c, b, np.where(a == c, a, fallback))
        )


class _NoKernelProcess(AgentProcess):
    """A sample-rule process with no switch-and-redistribute form."""

    name = "no-kernel"
    samples_per_round = 1
    has_sample_update = True

    def update(self, colors, rng):
        return colors.copy()

    def update_from_samples(self, own, picks, rng):
        return picks[..., 0]


class _IndexPinnedStop(StoppingCondition):
    """Keyed to an absolute color index — *not* compaction-safe."""

    label = "slot0-extinct"

    def satisfied(self, counts):
        return counts[0] == 0

    def satisfied_ensemble(self, counts):
        return counts[:, 0] == 0


# ---------------------------------------------------------------------------
# Async wavefront kernel: bitwise against the per-tick engine.


@pytest.mark.parametrize("factory", DRAW_FREE)
@pytest.mark.parametrize(
    "n, k, reps, check_every",
    [
        (64, 5, 12, 50),
        (300, 3, 8, 250),
        (257, 4, 6, 97),  # stride not dividing the budget, odd shapes
    ],
)
def test_async_kernel_bitwise_equals_engine(factory, n, k, reps, check_every):
    process = factory()
    initial = Configuration.balanced(n, k)
    budget = 30 * n
    engine = run_asynchronous_ensemble(
        process, initial, reps, rng=SEED, max_ticks=budget,
        check_every=check_every,
    )
    kernel = run_fused_asynchronous_ensemble(
        process, initial, reps, rng=SEED, max_ticks=budget,
        check_every=check_every,
    )
    assert np.array_equal(kernel.ticks, engine.ticks)
    assert np.array_equal(kernel.stopped, engine.stopped)
    assert np.array_equal(kernel.final_counts, engine.final_counts)
    assert kernel.stop_label == engine.stop_label


def test_async_kernel_bitwise_under_stopping_and_truncation():
    """Retirement mid-run and a tight tick budget stay on the same stream."""
    initial = Configuration.balanced(120, 6)
    stop = ColorsAtMost(2)
    engine = run_asynchronous_ensemble(
        Voter(), initial, 10, rng=SEED, stop=stop, max_ticks=700,
        check_every=64,
    )
    kernel = run_fused_asynchronous_ensemble(
        Voter(), initial, 10, rng=SEED, stop=stop, max_ticks=700,
        check_every=64,
    )
    assert np.array_equal(kernel.ticks, engine.ticks)
    assert np.array_equal(kernel.stopped, engine.stopped)
    assert np.array_equal(kernel.final_counts, engine.final_counts)


def test_async_kernel_statistical_for_drawing_rules():
    """A tie-break that *draws* makes the streams diverge (the kernel's
    draw shapes differ), so such rules are pinned distributionally:
    consensus-tick samples from engine and kernel pass a KS test."""
    from scipy.stats import ks_2samp

    initial = Configuration.balanced(96, 2)
    engine = run_asynchronous_ensemble(
        _RandomTieBreak3Majority(), initial, 80, rng=SEED, max_ticks=30_000,
    )
    kernel = run_fused_asynchronous_ensemble(
        _RandomTieBreak3Majority(), initial, 80, rng=SEED + 1, max_ticks=30_000,
    )
    assert engine.stopped.all() and kernel.stopped.all()
    statistic = ks_2samp(engine.ticks, kernel.ticks)
    assert statistic.pvalue > 1e-3, (
        f"wavefront consensus ticks diverge (p={statistic.pvalue:.2e})"
    )


def test_async_kernel_recorder_matches_engine():
    recorder_engine = MetricRecorder(("num_colors",))
    recorder_kernel = MetricRecorder(("num_colors",))
    initial = Configuration.balanced(100, 4)
    run_asynchronous_ensemble(
        Voter(), initial, 5, rng=SEED, max_ticks=600, check_every=100,
        recorder=recorder_engine,
    )
    run_fused_asynchronous_ensemble(
        Voter(), initial, 5, rng=SEED, max_ticks=600, check_every=100,
        recorder=recorder_kernel,
    )
    assert recorder_engine.rounds == recorder_kernel.rounds
    for name in recorder_engine.names:
        assert np.array_equal(
            recorder_engine.series(name), recorder_kernel.series(name)
        )


def test_async_kernel_rejects_processes_without_sample_rule():
    # A sample rule alone is enough for the wavefront (no kernel form
    # needed) — the gate is update_from_samples, not kernel_switch_law.
    assert async_kernel_eligible(_NoKernelProcess())

    class _NoSampleRule(AgentProcess):
        name = "no-sample-rule"

        def update(self, colors, rng):
            return colors.copy()

    assert not async_kernel_eligible(_NoSampleRule())
    with pytest.raises(TypeError, match="sample"):
        run_fused_asynchronous_ensemble(
            _NoSampleRule(), Configuration.balanced(16, 2), 2, rng=0,
            max_ticks=8,
        )


# ---------------------------------------------------------------------------
# Sync kernel: the exact lumping, distribution checks.


def test_kernel_step_counts_preserves_totals_and_support():
    rng = np.random.default_rng(SEED)
    counts = np.tile(Configuration.biased(500, 6, 40).counts_array(), (64, 1))
    for process in (ThreeMajority(), Voter(), TwoChoices()):
        stepped = kernel_step_counts(process, counts.copy(), rng)
        assert stepped.shape == counts.shape
        assert (stepped >= 0).all()
        assert np.array_equal(stepped.sum(axis=1), counts.sum(axis=1))
        # Absorbing support: dead colors stay dead.
        dead = counts[0] == 0
        assert (stepped[:, dead] == 0).all()


def test_kernel_step_counts_matches_ac_law_exactly():
    """For an AC-process the lumped chain *is* the count chain: same σ≡1
    multinomial law, checked against step_counts_ensemble moments."""
    counts = np.tile(Configuration.biased(400, 3, 60).counts_array(), (4000, 1))
    process = ThreeMajority()
    lumped = kernel_step_counts(process, counts, np.random.default_rng(3))
    exact = process.step_counts_ensemble(counts, np.random.default_rng(4))
    # Identical one-round law ⇒ matching mean/std of each class within
    # Monte-Carlo noise (4000 replicas, ~5σ bands).
    for column in range(counts.shape[1]):
        mu_l, mu_e = lumped[:, column].mean(), exact[:, column].mean()
        sd = max(exact[:, column].std(), 1e-9)
        assert abs(mu_l - mu_e) < 5 * sd / np.sqrt(4000), (column, mu_l, mu_e)


def test_fused_agent_first_passage_matches_engines_distributionally():
    from scipy.stats import ks_2samp

    initial = Configuration.biased(256, 4, 16)
    kernel = run_fused_agent_ensemble(
        TwoChoices(), initial, 200, rng=SEED, max_rounds=20_000
    )
    agent = run_agent_ensemble(
        TwoChoices(), initial, 200, rng=SEED + 1, max_rounds=20_000
    )
    assert kernel.all_stopped and agent.all_stopped
    statistic = ks_2samp(kernel.times, agent.times)
    assert statistic.pvalue > 1e-3, (
        f"lumped 2-choices first passage diverges (p={statistic.pvalue:.2e}, "
        f"means {kernel.times.mean():.2f} vs {agent.times.mean():.2f})"
    )


def test_fused_agent_matches_counts_chain_for_ac_processes():
    from scipy.stats import ks_2samp

    initial = Configuration.balanced(512, 2)
    kernel = run_fused_agent_ensemble(
        ThreeMajority(), initial, 300, rng=SEED, max_rounds=20_000
    )
    counts = run_counts_ensemble(
        ThreeMajority(), initial, 300, rng=SEED + 1, max_rounds=20_000
    )
    statistic = ks_2samp(kernel.times, counts.times)
    assert statistic.pvalue > 1e-3


def test_fused_colors_step_distribution():
    """One fused round from a fixed matrix matches update_ensemble's
    marginal switch rate and destination law (z-score bands)."""
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(12)
    initial = Configuration.biased(300, 5, 30)
    reps = 2000
    colors = np.tile(initial.to_assignment(), (reps, 1))
    process = TwoChoices()
    fused = fused_colors_step(process, colors, 5, rng_a)
    reference = process.update_ensemble(colors, rng_b)
    assert fused.shape == colors.shape
    # Compare per-color occupancy after one round.
    for color in range(5):
        occ_f = (fused == color).sum(axis=1).mean()
        occ_r = (reference == color).sum(axis=1).mean()
        sd = max((reference == color).sum(axis=1).std(), 1e-9)
        band = 5 * sd / np.sqrt(reps)
        assert abs(occ_f - occ_r) < band, (color, occ_f, occ_r, band)
    # The keep-own-color branch: a node visibly changes color iff it
    # switches (σ = ‖x‖²) to a class other than its own, so the expected
    # change rate is σ · Σ_i x_i (1 − q_i).
    switched = (fused != colors).mean()
    x = initial.fractions()
    norm_sq = float(np.dot(x, x))
    q = x**2 / norm_sq
    change_rate = norm_sq * float((x * (1.0 - q)).sum())
    assert abs(switched - change_rate) < 0.02, (switched, change_rate)


# ---------------------------------------------------------------------------
# Compaction.


def test_compaction_safe_classification():
    assert compaction_safe(Consensus())
    assert compaction_safe(ColorsAtMost(2) | Consensus())
    assert compaction_safe(MaxSupportAbove(10) & Consensus())
    assert not compaction_safe(_IndexPinnedStop())
    assert not compaction_safe(Consensus() | _IndexPinnedStop())


def test_fused_agent_compaction_restores_full_width():
    initial = Configuration.singletons(512)
    result = run_fused_agent_ensemble(
        Voter(), initial, 20, rng=SEED, max_rounds=200_000
    )
    assert result.all_stopped
    assert result.final_counts.shape == (20, 512)
    assert (result.final_counts.sum(axis=1) == 512).all()
    # Consensus: exactly one surviving color per replica, at full support.
    assert ((result.final_counts == 512).sum(axis=1) == 1).all()
    assert (np.count_nonzero(result.final_counts, axis=1) == 1).all()


def test_fused_agent_compaction_matches_uncompacted_distribution():
    """The kernel compacts a 128-slot start on its own; its first-passage
    law must match the exact counts chain, which never drops a column."""
    from scipy.stats import ks_2samp

    initial = Configuration.singletons(128)
    compacted = run_fused_agent_ensemble(
        ThreeMajority(), initial, 150, rng=SEED, max_rounds=100_000,
    )
    plain = run_counts_ensemble(
        ThreeMajority(), initial, 150, rng=SEED + 1, max_rounds=100_000,
    )
    statistic = ks_2samp(compacted.times, plain.times)
    assert statistic.pvalue > 1e-3


def test_fused_agent_compaction_gates():
    # An index-pinned stop turns compaction off instead of raising.
    initial = Configuration.singletons(64)
    result = run_fused_agent_ensemble(
        Voter(), initial, 4, rng=0, stop=_IndexPinnedStop(),
        max_rounds=100_000,
    )
    assert result.final_counts.shape[1] == 64


# ---------------------------------------------------------------------------
# Contract: eligibility, rng modes, implementation modes.


def test_kernel_eligibility_gates():
    initial = Configuration.balanced(60, 3)
    assert kernel_eligible(TwoChoices(), initial)
    assert kernel_eligible(ThreeMajority(), initial)
    assert not kernel_eligible(_NoKernelProcess(), initial)
    with pytest.raises(TypeError, match="switch-and-redistribute"):
        run_fused_agent_ensemble(_NoKernelProcess(), initial, 2, rng=0)


def test_fused_agent_rejects_per_replica_mode():
    with pytest.raises(ValueError, match="batched-only"):
        run_fused_agent_ensemble(
            Voter(), Configuration.balanced(60, 3), 4, rng=0,
            rng_mode="per-replica",
        )


def test_force_numpy_context():
    before = kernel_mode()
    with force_numpy():
        assert kernel_mode() == "numpy"
        with force_numpy():  # reentrant
            assert kernel_mode() == "numpy"
        assert kernel_mode() == "numpy"
    assert kernel_mode() == before


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_numba_mode_matches_numpy_fallback_bitwise():
    initial = Configuration.biased(200, 4, 20)
    with force_numpy():
        fallback = run_fused_agent_ensemble(
            TwoChoices(), initial, 30, rng=SEED, max_rounds=20_000
        )
    accelerated = run_fused_agent_ensemble(
        TwoChoices(), initial, 30, rng=SEED, max_rounds=20_000
    )
    assert np.array_equal(fallback.times, accelerated.times)
    assert np.array_equal(fallback.final_counts, accelerated.final_counts)
    with force_numpy():
        fallback_async = run_fused_asynchronous_ensemble(
            Voter(), Configuration.balanced(128, 2), 6, rng=SEED,
            max_ticks=2000,
        )
    accelerated_async = run_fused_asynchronous_ensemble(
        Voter(), Configuration.balanced(128, 2), 6, rng=SEED, max_ticks=2000,
    )
    assert np.array_equal(fallback_async.ticks, accelerated_async.ticks)
    assert np.array_equal(
        fallback_async.final_counts, accelerated_async.final_counts
    )


def test_repro_no_numba_env_forces_numpy_mode():
    """``REPRO_NO_NUMBA=1`` pins the numpy fallback at import time, and the
    kernels still produce the identical (generator-stream) results."""
    script = (
        "import numpy as np\n"
        "from repro.core import Configuration\n"
        "from repro.engine.kernels import kernel_mode, HAVE_NUMBA\n"
        "from repro.engine.kernels import run_fused_asynchronous_ensemble\n"
        "from repro.processes import Voter\n"
        "assert kernel_mode() == 'numpy', kernel_mode()\n"
        "assert not HAVE_NUMBA\n"
        "r = run_fused_asynchronous_ensemble(\n"
        "    Voter(), Configuration.balanced(60, 3), 4, rng=%d, max_ticks=500)\n"
        "print(','.join(map(str, r.ticks)))\n" % SEED
    )
    env = dict(os.environ, REPRO_NO_NUMBA="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(__file__), "..", "src"),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    subprocess_ticks = [int(v) for v in proc.stdout.strip().split(",")]
    engine = run_asynchronous_ensemble(
        Voter(), Configuration.balanced(60, 3), 4, rng=SEED, max_ticks=500
    )
    assert subprocess_ticks == engine.ticks.tolist()
