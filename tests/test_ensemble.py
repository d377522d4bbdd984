"""Tests for the vectorized ensemble engine (repro.engine.ensemble).

The load-bearing guarantee: with ``rng_mode="per-replica"`` the ensemble
entry points run the sequential loop on the same child generators as
``repeat_first_passage``, so the first-passage samples agree
*bit-for-bit* — on the count-level backend and on the agent level (where
processes without a vectorized batched rule run that way in either
rng mode).
"""

import numpy as np
import pytest

from repro.core import Configuration
from repro.core.ac_process import (
    HMajorityFunction,
    PowerDriftFunction,
    ThreeMajorityFunction,
    VoterFunction,
    multinomial_step_batch,
)
from repro.engine import (
    AllOf,
    AnyOf,
    BiasAtLeast,
    ColorsAtMost,
    Consensus,
    MaxSupportAbove,
    RoundLimitExceeded,
    repeat_first_passage,
    run_agent_ensemble,
    run_counts_ensemble,
    run_ensemble,
)
from repro.engine.stopping import StoppingCondition
from repro.processes import (
    LazyVoter,
    ThreeMajority,
    TwoChoices,
    TwoMedian,
    UndecidedDynamics,
    Voter,
)
from repro.processes.three_majority import ThreeMajorityResample


# ---------------------------------------------------------------------------
# Count-level backend: bit-exact reproduction of the sequential samples.


@pytest.mark.parametrize("process_cls", [ThreeMajority, Voter])
def test_counts_per_replica_matches_sequential(process_cls):
    initial = Configuration.biased(500, 4, 10)
    sequential = repeat_first_passage(
        lambda: process_cls(), initial, Consensus(), 12, rng=42, backend="counts"
    )
    ensemble = run_counts_ensemble(
        process_cls(), initial, 12, rng=42, rng_mode="per-replica"
    )
    assert np.array_equal(ensemble.times, sequential)
    assert ensemble.all_stopped
    assert ensemble.backend == "counts"


def test_repeat_first_passage_ensemble_counts_exact():
    initial = Configuration.balanced(400, 2)
    sequential = repeat_first_passage(
        lambda: ThreeMajority(), initial, Consensus(), 10, rng=5, backend="counts"
    )
    ensemble = repeat_first_passage(
        lambda: ThreeMajority(),
        initial,
        Consensus(),
        10,
        rng=5,
        backend="ensemble-counts",
        rng_mode="per-replica",
    )
    assert np.array_equal(sequential, ensemble)


def test_counts_batched_mode_is_deterministic_and_plausible():
    initial = Configuration.balanced(1000, 2)
    a = run_counts_ensemble(ThreeMajority(), initial, 20, rng=3)
    b = run_counts_ensemble(ThreeMajority(), initial, 20, rng=3)
    assert np.array_equal(a.times, b.times)
    assert a.all_stopped
    assert np.all(a.times > 0)
    # Each final configuration is a consensus on n nodes.
    assert np.all(np.count_nonzero(a.final_counts, axis=1) == 1)
    assert np.all(a.final_counts.sum(axis=1) == 1000)


def test_counts_ensemble_rejects_non_ac_process():
    with pytest.raises(TypeError):
        run_counts_ensemble(TwoChoices(), Configuration.balanced(20, 2), 3, rng=0)


# ---------------------------------------------------------------------------
# Batched process functions.


@pytest.mark.parametrize(
    "function",
    [VoterFunction(), ThreeMajorityFunction(), PowerDriftFunction(2.0), HMajorityFunction(3)],
)
def test_probabilities_batch_matches_rowwise(function):
    rng = np.random.default_rng(9)
    counts = rng.multinomial(200, [0.4, 0.3, 0.2, 0.1], size=6)
    batch = function.probabilities_batch(counts)
    for r in range(counts.shape[0]):
        np.testing.assert_allclose(batch[r], function.probabilities(counts[r]), atol=1e-12)


def test_multinomial_step_batch_preserves_row_sums():
    rng = np.random.default_rng(0)
    alpha = np.asarray([[0.5, 0.5], [0.1, 0.9], [1.0, 0.0]])
    totals = np.asarray([100, 50, 7])
    out = multinomial_step_batch(totals, alpha, rng)
    assert out.shape == alpha.shape
    assert np.array_equal(out.sum(axis=1), totals)
    assert out[2, 1] == 0  # zero-probability slot stays empty


def test_step_counts_ensemble_shapes_and_population():
    process = ThreeMajority()
    counts = np.tile(Configuration.balanced(300, 3).counts_array(), (5, 1))
    out = process.step_counts_ensemble(counts, np.random.default_rng(1))
    assert out.shape == counts.shape
    assert np.all(out.sum(axis=1) == 300)


# ---------------------------------------------------------------------------
# Vectorized stopping-mask semantics.


class _EveryRowEven(StoppingCondition):
    """Custom condition exercising the base-class ensemble fallback."""

    label = "even-total"

    def satisfied(self, counts: np.ndarray) -> bool:
        return int(counts.sum()) % 2 == 0


@pytest.mark.parametrize(
    "condition",
    [
        Consensus(),
        ColorsAtMost(2),
        MaxSupportAbove(7),
        BiasAtLeast(3),
        AnyOf(Consensus(), MaxSupportAbove(7)),
        AllOf(ColorsAtMost(3), MaxSupportAbove(5)),
        _EveryRowEven(),
    ],
)
def test_satisfied_ensemble_agrees_with_rowwise(condition):
    matrix = np.asarray(
        [
            [10, 0, 0, 0],
            [0, 0, 12, 0],
            [5, 5, 5, 5],
            [8, 4, 0, 0],
            [3, 3, 3, 2],
            [0, 9, 2, 1],
        ],
        dtype=np.int64,
    )
    mask = condition.satisfied_ensemble(matrix)
    expected = np.asarray([condition.satisfied(row) for row in matrix])
    assert mask.dtype == bool
    assert np.array_equal(mask, expected)


def test_bias_at_least_single_slot_ensemble():
    condition = BiasAtLeast(4)
    matrix = np.asarray([[3], [4], [9]], dtype=np.int64)
    assert np.array_equal(
        condition.satisfied_ensemble(matrix), np.asarray([False, True, True])
    )


# ---------------------------------------------------------------------------
# Agent-level backend.


@pytest.mark.parametrize(
    "process_cls",
    [ThreeMajority, ThreeMajorityResample, TwoChoices, Voter, TwoMedian,
     UndecidedDynamics],
)
def test_vectorized_update_ensemble_matches_update_at_r1(process_cls):
    """The batched rule consumes the stream exactly like the scalar rule."""
    process = process_cls()
    colors = Configuration.biased(257, 5, 13).to_assignment()
    scalar = process.update(colors, np.random.default_rng(11))
    batched = process.update_ensemble(colors[None, :], np.random.default_rng(11))
    assert batched.shape == (1, colors.size)
    assert np.array_equal(scalar, batched[0])


@pytest.mark.parametrize(
    "process_cls,initial",
    [
        (TwoMedian, Configuration.biased(60, 5, 6)),
        (UndecidedDynamics, Configuration.biased(60, 3, 30)),
    ],
)
def test_generic_loop_fallback_matches_sequential(process_cls, initial):
    """Non-batched processes ride the per-replica loop and agree exactly."""
    process = process_cls()
    assert not process.has_vectorized_ensemble
    sequential = repeat_first_passage(
        lambda: process_cls(), initial, Consensus(), 6, rng=2024,
        max_rounds=5000, backend="agent",
    )
    ensemble = run_agent_ensemble(
        process, initial, 6, rng=2024, max_rounds=5000
    )
    assert np.array_equal(ensemble.times, sequential)
    assert ensemble.all_stopped


def test_agent_per_replica_mode_matches_sequential_for_vectorized_process():
    """Forcing per-replica rng reproduces sequential runs even for processes
    that normally take the batched path."""
    initial = Configuration.biased(120, 4, 20)
    sequential = repeat_first_passage(
        lambda: TwoChoices(), initial, Consensus(), 8, rng=77, backend="agent"
    )
    ensemble = run_agent_ensemble(
        TwoChoices(), initial, 8, rng=77, rng_mode="per-replica"
    )
    assert np.array_equal(ensemble.times, sequential)


def test_update_ensemble_without_node_rule_raises():
    colors = np.tile(Configuration.biased(40, 3, 4).to_assignment(), (3, 1))
    with pytest.raises(NotImplementedError):
        LazyVoter().update_ensemble(colors, np.random.default_rng(0))


def test_update_ensemble_generic_fallback_shape():
    process = TwoMedian()
    colors = np.tile(Configuration.biased(40, 3, 4).to_assignment(), (3, 1))
    out = process.update_ensemble(colors, np.random.default_rng(0))
    assert out.shape == colors.shape


def test_undecided_projection_in_ensemble_counts():
    """Undecided's widened counts projection flows through the mask path."""
    process = UndecidedDynamics()
    initial = Configuration.biased(50, 3, 20)
    result = run_agent_ensemble(process, initial, 4, rng=6, max_rounds=5000)
    # One extra slot for the undecided sentinel.
    assert result.final_counts.shape == (4, initial.num_slots + 1)
    assert np.all(result.final_counts.sum(axis=1) == 50)


# ---------------------------------------------------------------------------
# Dispatch, compaction and limit semantics.


def test_run_ensemble_auto_dispatch():
    narrow = Configuration.balanced(200, 2)
    assert run_ensemble(ThreeMajority(), narrow, 4, rng=0).backend == "counts"
    assert run_ensemble(TwoChoices(), Configuration.biased(100, 3, 20), 4, rng=0).backend == "agent"
    assert (
        run_ensemble(ThreeMajority(), narrow, 4, rng=0, backend="agent").backend
        == "agent"
    )
    with pytest.raises(TypeError):
        run_ensemble(TwoChoices(), narrow, 4, rng=0, backend="counts")
    with pytest.raises(ValueError):
        run_ensemble(ThreeMajority(), narrow, 4, rng=0, backend="warp")
    with pytest.raises(ValueError):
        run_ensemble(ThreeMajority(), narrow, 4, rng=0, rng_mode="entangled")
    with pytest.raises(ValueError):
        run_ensemble(ThreeMajority(), narrow, 0, rng=0)


def test_round_limit_semantics():
    initial = Configuration.singletons(64)
    with pytest.raises(RoundLimitExceeded):
        run_ensemble(TwoChoices(), initial, 3, rng=0, max_rounds=1)
    lenient = run_ensemble(
        TwoChoices(), initial, 3, rng=0, max_rounds=1, raise_on_limit=False
    )
    assert not lenient.stopped.any()
    assert np.all(lenient.times == 1)


def test_agent_partial_stop_on_limit_round():
    """Replicas stopping exactly when the limit is hit must retire cleanly
    while the stragglers report the limit round (regression: the agent
    backend crashed on the post-loop write-back when the active set and the
    last counts matrix disagreed in size)."""
    result = run_agent_ensemble(
        TwoChoices(),
        Configuration.singletons(64),
        20,
        rng=0,
        stop=MaxSupportAbove(4),
        max_rounds=6,
        raise_on_limit=False,
    )
    assert result.stopped.any() and not result.all_stopped
    assert np.all(result.times[~result.stopped] == 6)
    assert np.all(result.times[result.stopped] <= 6)
    assert np.all(result.final_counts.sum(axis=1) == 64)
    assert np.all(result.final_counts[result.stopped].max(axis=1) > 4)


def test_counts_partial_stop_on_limit_round():
    result = run_counts_ensemble(
        ThreeMajority(),
        Configuration.balanced(800, 2),
        30,
        rng=1,
        max_rounds=14,
        raise_on_limit=False,
    )
    assert result.stopped.any() and not result.all_stopped
    assert np.all(result.times[~result.stopped] == 14)
    assert np.all(result.final_counts.sum(axis=1) == 800)


def test_already_satisfied_stops_at_round_zero():
    initial = Configuration.monochromatic(30, num_slots=3)
    result = run_ensemble(ThreeMajority(), initial, 5, rng=1)
    assert np.all(result.times == 0)
    assert result.all_stopped
    assert np.array_equal(result.final_counts, np.tile(initial.counts_array(), (5, 1)))


def test_per_replica_stopping_mask_with_max_support():
    """Replicas retire individually; recorded times are their own rounds."""
    initial = Configuration.singletons(128)
    threshold = 6
    ensemble = run_agent_ensemble(
        ThreeMajority(),
        initial,
        10,
        rng=13,
        stop=MaxSupportAbove(threshold),
        max_rounds=2000,
        rng_mode="per-replica",
    )
    sequential = repeat_first_passage(
        lambda: ThreeMajority(),
        initial,
        MaxSupportAbove(threshold),
        10,
        rng=13,
        max_rounds=2000,
        backend="agent",
    )
    assert np.array_equal(ensemble.times, sequential)
    assert np.all(ensemble.final_counts.max(axis=1) > threshold)


def test_agent_ensemble_narrow_dtype_and_overflow_guard():
    """Color/count matrices ride int32 below 2³¹ and int64 above."""
    from repro.engine import narrow_int_dtype

    assert narrow_int_dtype(10**8) == np.int32
    assert narrow_int_dtype(2**31 - 1) == np.int32
    assert narrow_int_dtype(2**31) == np.int64
    result = run_agent_ensemble(
        ThreeMajority(), Configuration.biased(120, 4, 20), 5, rng=1
    )
    assert result.final_counts.dtype == np.int32
    assert np.all(result.final_counts.sum(axis=1) == 120)


def test_ensemble_recorder_designated_replica_matches_sequential():
    """Recording replica 0 on the counts ensemble equals a sequential run
    with the same stream (per-replica mode)."""
    from repro.engine import (
        EnsembleMetricRecorder,
        MetricRecorder,
        run,
        spawn_generators,
    )

    initial = Configuration.biased(300, 3, 10)
    recorder = EnsembleMetricRecorder(names=("num_colors", "max_support"))
    run_counts_ensemble(
        ThreeMajority(), initial, 5, rng=21, rng_mode="per-replica",
        recorder=recorder,
    )
    reference = MetricRecorder(names=("num_colors", "max_support"))
    run(
        ThreeMajority(),
        initial,
        rng=spawn_generators(21, 5)[0],
        backend="counts",
        recorder=reference,
    )
    assert np.array_equal(recorder.series("num_colors"), reference.series("num_colors"))
    assert np.array_equal(recorder.series("max_support"), reference.series("max_support"))
    assert recorder.rounds == reference.rounds


def test_ensemble_recorder_mean_aggregate_and_agent_backend():
    from repro.engine import EnsembleMetricRecorder

    recorder = EnsembleMetricRecorder(
        names=("monochromatic_fraction",), aggregate="mean"
    )
    result = run_agent_ensemble(
        ThreeMajority(), Configuration.balanced(100, 4), 6, rng=2,
        recorder=recorder,
    )
    assert result.all_stopped
    series = recorder.series("monochromatic_fraction")
    assert len(series) >= 2
    assert series[0] == pytest.approx(0.25)
    # Replicas drift toward consensus, so the ensemble mean ends higher.
    assert series[-1] > series[0]


def test_ensemble_recorder_validation_and_plain_recorder_hook():
    from repro.engine import EnsembleMetricRecorder, MetricRecorder

    with pytest.raises(ValueError):
        EnsembleMetricRecorder(aggregate="median")
    with pytest.raises(ValueError):
        EnsembleMetricRecorder(replica=-1)
    with pytest.raises(ValueError):
        EnsembleMetricRecorder(replica=3, aggregate="mean")
    # A plain MetricRecorder rides the ensemble hook tracking replica 0.
    recorder = MetricRecorder(names=("num_colors",))
    run_ensemble(
        ThreeMajority(), Configuration.balanced(200, 2), 4, rng=3,
        recorder=recorder,
    )
    assert len(recorder) >= 1
    assert recorder.series("num_colors")[-1] == 1


def test_repeat_first_passage_ensemble_auto_sane():
    initial = Configuration.balanced(600, 3)
    times = repeat_first_passage(
        lambda: ThreeMajority(), initial, Consensus(), 25, rng=4, backend="ensemble-auto"
    )
    assert times.shape == (25,)
    assert np.all(times > 0)
    # Same seed, sequential path: statistically indistinguishable scale.
    reference = repeat_first_passage(
        lambda: ThreeMajority(), initial, Consensus(), 25, rng=4, backend="auto"
    )
    assert 0.4 < times.mean() / reference.mean() < 2.5
