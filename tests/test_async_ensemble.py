"""Tests for the batched asynchronous engines and per-node sample rules.

Covers the two halves of the async rework:

* the sequential :func:`run_asynchronous` now computes only the activated
  node's update (``update_node`` / ``update_from_samples``) instead of a
  full synchronous round per tick — semantics checked against the rule
  and, in distribution, against the synchronous engine;
* :func:`run_asynchronous_ensemble` advances ``R`` replicas lock-step
  with batch-drawn randomness and incremental counts; its tick
  distributions must match the sequential scheduler within statistical
  tolerance.
"""

import numpy as np
import pytest

from repro.core import Configuration
from repro.engine import (
    ColorsAtMost,
    Consensus,
    EnsembleMetricRecorder,
    repeat_first_passage,
    run_asynchronous,
    run_asynchronous_ensemble,
)
from repro.processes import (
    UNDECIDED,
    HMajority,
    ThreeMajority,
    TwoChoices,
    TwoMedian,
    UndecidedDynamics,
    Voter,
)
from repro.processes.three_majority import ThreeMajorityResample

#: Node-rule processes whose asynchronous tick draws a full round.
_FULL_ROUND = (UndecidedDynamics, TwoMedian)


# ---------------------------------------------------------------------------
# Per-node sample rules.


@pytest.mark.parametrize(
    "process_cls",
    [ThreeMajority, ThreeMajorityResample, TwoChoices, Voter, *_FULL_ROUND],
)
def test_update_from_samples_matches_update(process_cls):
    """The sample rule applied to a full round's picks equals `update`."""
    process = process_cls()
    assert process.has_sample_update == (process_cls not in _FULL_ROUND)
    colors = Configuration.biased(151, 5, 13).to_assignment()
    n = colors.size
    seed = 99
    # Reproduce update()'s own draws, then re-apply the rule by hand.
    rng_a = np.random.default_rng(seed)
    expected = process.update(colors, rng_a)
    rng_b = np.random.default_rng(seed)
    sampled = rng_b.integers(
        0, n, size=(n, process.samples_per_round)
    )
    picks = colors[sampled]
    actual = process.update_from_samples(colors, picks, rng_b)
    assert np.array_equal(expected, actual)


@pytest.mark.parametrize(
    "process_cls", [ThreeMajority, ThreeMajorityResample, TwoChoices, Voter]
)
def test_update_node_scalar_shape(process_cls):
    process = process_cls()
    colors = Configuration.biased(60, 4, 10).to_assignment()
    rng = np.random.default_rng(3)
    new = process.update_node(colors, 7, rng)
    assert np.ndim(new) == 0
    assert 0 <= int(new) < 4


def test_update_node_fallback_is_full_round_slice():
    """Processes without a sample rule fall back to update()[node]."""
    process = TwoMedian()
    assert not process.has_sample_update
    colors = Configuration.biased(40, 3, 6).to_assignment()
    seed = 17
    expected = process.update(colors, np.random.default_rng(seed))[5]
    actual = process.update_node(colors, 5, np.random.default_rng(seed))
    assert int(expected) == int(actual)


def test_update_from_samples_not_implemented_without_rule():
    with pytest.raises(NotImplementedError):
        HMajority(3).update_from_samples(
            np.zeros(3, dtype=np.int64),
            np.zeros((3, 3), dtype=np.int64),
            np.random.default_rng(0),
        )


def test_two_median_rule_is_the_median_of_three():
    values = np.arange(-2, 4)
    own, first, second = (
        grid.ravel() for grid in np.meshgrid(values, values, values)
    )
    picks = np.stack([first, second], axis=-1)
    expected = np.median(np.stack([own, first, second]), axis=0)
    actual = TwoMedian().update_from_samples(own, picks, np.random.default_rng(0))
    assert actual.dtype == own.dtype
    assert np.array_equal(actual, expected.astype(own.dtype))


def _undecided_mask_update(colors, sample_colors):
    """The mask-based Undecided round the node rule replaced."""
    out = colors.copy()
    undecided_mask = colors == UNDECIDED
    out[undecided_mask] = sample_colors[undecided_mask]
    conflict = (
        ~undecided_mask
        & (sample_colors != UNDECIDED)
        & (sample_colors != colors)
    )
    out[conflict] = UNDECIDED
    return out


@pytest.mark.parametrize("dtype", [np.int64, np.int8])
def test_undecided_rule_matches_mask_update(dtype):
    values = np.array([UNDECIDED, 0, 1, 2], dtype=dtype)
    own, seen = (grid.ravel() for grid in np.meshgrid(values, values))
    actual = UndecidedDynamics().update_from_samples(
        own, seen[:, None], np.random.default_rng(0)
    )
    assert actual.dtype == own.dtype
    assert np.array_equal(actual, _undecided_mask_update(own, seen))


# ---------------------------------------------------------------------------
# Sequential scheduler on the fast tick path.


def test_sequential_async_reaches_consensus():
    result = run_asynchronous(ThreeMajority(), Configuration.balanced(32, 4), rng=2)
    assert result.reached_consensus
    assert result.stopped


def test_sequential_async_round_equivalents_match_sync_scale():
    config = Configuration.balanced(32, 4)
    sync_mean = repeat_first_passage(
        Voter, config, Consensus(), 30, rng=7, backend="counts"
    ).mean()
    async_equivalents = [
        run_asynchronous(Voter(), config, rng=500 + s).round_equivalents()
        for s in range(15)
    ]
    assert 0.3 < np.mean(async_equivalents) / sync_mean < 3.0


# ---------------------------------------------------------------------------
# Lock-step asynchronous ensemble.


def test_async_ensemble_consensus_and_population_invariants():
    result = run_asynchronous_ensemble(
        Voter(), Configuration.balanced(64, 4), 12, rng=3
    )
    assert result.all_stopped
    assert result.repetitions == 12
    assert np.all(result.ticks > 0)
    assert np.all(result.final_counts.sum(axis=1) == 64)
    assert np.all(np.count_nonzero(result.final_counts, axis=1) == 1)
    assert np.all(result.round_equivalents() == result.ticks / 64.0)


def test_async_ensemble_deterministic():
    config = Configuration.balanced(48, 3)
    a = run_asynchronous_ensemble(ThreeMajority(), config, 8, rng=5)
    b = run_asynchronous_ensemble(ThreeMajority(), config, 8, rng=5)
    assert np.array_equal(a.ticks, b.ticks)
    assert np.array_equal(a.final_counts, b.final_counts)


@pytest.mark.parametrize("process_cls", [ThreeMajority, Voter, TwoChoices])
def test_async_ensemble_matches_sequential_distribution(process_cls):
    """Tick distributions agree with the sequential scheduler (tolerance)."""
    config = Configuration.balanced(64, 2)
    repetitions = 40
    sequential = np.asarray(
        [
            run_asynchronous(process_cls(), config, rng=1000 + s).ticks
            for s in range(repetitions)
        ],
        dtype=float,
    )
    ensemble = run_asynchronous_ensemble(
        process_cls(), config, repetitions, rng=4
    )
    assert ensemble.all_stopped
    ratio = ensemble.ticks.mean() / sequential.mean()
    assert 0.5 < ratio < 2.0, (ensemble.ticks.mean(), sequential.mean())


def test_async_ensemble_fallback_process_matches_sequential_distribution():
    """Processes without a sample rule ride the per-replica fallback."""
    config = Configuration.biased(40, 3, 6)
    ensemble = run_asynchronous_ensemble(
        TwoMedian(), config, 10, rng=6, max_ticks=100_000
    )
    assert ensemble.all_stopped
    sequential = np.asarray(
        [
            run_asynchronous(TwoMedian(), config, rng=2000 + s).ticks
            for s in range(10)
        ],
        dtype=float,
    )
    ratio = ensemble.ticks.mean() / sequential.mean()
    assert 0.4 < ratio < 2.5


def test_async_ensemble_custom_stop_and_tick_limit():
    result = run_asynchronous_ensemble(
        Voter(),
        Configuration.singletons(24),
        6,
        rng=4,
        stop=ColorsAtMost(6),
    )
    assert result.all_stopped
    assert np.all(np.count_nonzero(result.final_counts, axis=1) <= 6)
    limited = run_asynchronous_ensemble(
        Voter(), Configuration.balanced(24, 3), 4, rng=5, max_ticks=3
    )
    assert np.all(limited.ticks <= 3)
    assert np.all(limited.final_counts.sum(axis=1) == 24)


def test_async_ensemble_check_every_stride():
    result = run_asynchronous_ensemble(
        Voter(), Configuration.balanced(30, 2), 5, rng=8, check_every=7
    )
    # Stopping is only evaluated on the stride, so recorded ticks are
    # multiples of it (except replicas stopped at tick 0).
    assert np.all(result.ticks % 7 == 0)
    with pytest.raises(ValueError):
        run_asynchronous_ensemble(
            Voter(), Configuration.balanced(30, 2), 5, rng=8, check_every=0
        )
    with pytest.raises(ValueError):
        run_asynchronous_ensemble(Voter(), Configuration.balanced(30, 2), 0)


def test_async_ensemble_recorder_hook():
    recorder = EnsembleMetricRecorder(
        names=("num_colors", "max_support"), aggregate="mean"
    )
    run_asynchronous_ensemble(
        ThreeMajority(),
        Configuration.balanced(60, 3),
        6,
        rng=9,
        recorder=recorder,
    )
    assert len(recorder) >= 2
    series = recorder.series("num_colors")
    assert series[0] == 3.0
    assert series[-1] <= series[0]


def test_async_ensemble_projected_counts():
    """Processes with widened projections recompute counts on stride."""
    from repro.processes import UndecidedDynamics

    process = UndecidedDynamics()
    initial = Configuration.biased(50, 3, 20)
    result = run_asynchronous_ensemble(
        process, initial, 4, rng=6, max_ticks=200_000
    )
    assert result.final_counts.shape == (4, initial.num_slots + 1)
    assert np.all(result.final_counts.sum(axis=1) == 50)
