"""Tests for the simulation engine: rng, metrics, stopping, simulator, batch."""

import numpy as np
import pytest

from repro.core import Configuration
from repro.engine import (
    AllOf,
    AnyOf,
    BiasAtLeast,
    ColorsAtMost,
    Consensus,
    MaxSupportAbove,
    MetricRecorder,
    RoundLimitExceeded,
    as_generator,
    cdf_dominates,
    consensus_time,
    default_round_limit,
    derive_seed,
    empirical_cdf,
    reduction_time,
    repeat_first_passage,
    run,
    run_agent,
    run_counts,
    spawn_generators,
    summarize,
    symmetry_breaking_time,
)
from repro.engine.metrics import (
    METRICS,
    bias,
    collision_probability,
    entropy,
    max_support,
    monochromatic_fraction,
    num_colors,
)
from repro.processes import ThreeMajority, TwoChoices, Voter


class TestRng:
    def test_as_generator_from_int(self):
        g1 = as_generator(42)
        g2 = as_generator(42)
        assert g1.integers(1000) == g2.integers(1000)

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(3)
        assert as_generator(g) is g

    def test_as_generator_rejects_negative(self):
        with pytest.raises(ValueError):
            as_generator(-1)

    def test_as_generator_rejects_junk(self):
        with pytest.raises(TypeError):
            as_generator("seed")

    def test_spawn_independent_and_deterministic(self):
        a = spawn_generators(7, 3)
        b = spawn_generators(7, 3)
        for ga, gb in zip(a, b):
            assert ga.integers(10**6) == gb.integers(10**6)
        fresh = spawn_generators(7, 3)
        draws = [g.integers(10**6) for g in fresh]
        assert len(set(draws)) == 3  # overwhelmingly likely distinct

    def test_spawn_validates_count(self):
        with pytest.raises(ValueError):
            spawn_generators(1, -1)

    def test_derive_seed_stable(self):
        assert derive_seed(5, 0) == derive_seed(5, 0)
        assert derive_seed(5, 0) != derive_seed(5, 1)

    def test_derive_seed_validates_stream(self):
        with pytest.raises(ValueError):
            derive_seed(5, -1)

    def test_derive_seed_int_sources_equal_spawn(self):
        # Integer sources build child ``stream`` directly; it must be the
        # child that spawn(stream + 1) hands out.
        seeds = [0, 1, 11, 2**32, 2**63 - 1, 2**63, 2**63 + 1, np.int64(7),
                 np.uint64(2**63 - 5)]
        streams = [0, 1, 2, 63, 999, 1000, 1001, 1500]
        for seed in seeds:
            children = np.random.SeedSequence(int(seed)).spawn(max(streams) + 1)
            for stream in streams:
                state = children[stream].generate_state(1, dtype=np.uint64)[0]
                assert derive_seed(seed, stream) == int(state >> 1), (seed, stream)

    def test_derive_seed_spawns_from_seed_sequences(self):
        # Caller-owned sequences number children from n_children_spawned
        # and advance it, so repeated derivations differ.
        seq = np.random.SeedSequence(5)
        first = derive_seed(seq, 2)
        assert first == derive_seed(5, 2)
        assert seq.n_children_spawned == 3
        assert derive_seed(seq, 2) != first
        assert seq.n_children_spawned == 6
        generator = np.random.default_rng(5)
        assert derive_seed(generator, 0) == derive_seed(5, 0)
        assert generator.bit_generator.seed_seq.n_children_spawned == 1


class TestMetrics:
    def test_num_colors(self):
        assert num_colors(np.asarray([0, 3, 0, 2])) == 2

    def test_bias(self):
        assert bias(np.asarray([5, 9, 1])) == 4

    def test_max_support(self):
        assert max_support(np.asarray([5, 9, 1])) == 9

    def test_collision_probability(self):
        assert collision_probability(np.asarray([5, 5])) == pytest.approx(0.5)

    def test_entropy(self):
        assert entropy(np.asarray([10, 0])) == pytest.approx(0.0)

    def test_monochromatic_fraction(self):
        assert monochromatic_fraction(np.asarray([3, 1])) == pytest.approx(0.75)

    def test_registry_complete(self):
        assert set(METRICS) >= {
            "num_colors",
            "bias",
            "max_support",
            "collision_probability",
            "entropy",
            "monochromatic_fraction",
        }

    def test_recorder_stride(self):
        rec = MetricRecorder(names=("num_colors",), stride=2)
        for t in range(5):
            rec.observe(t, np.asarray([2, 2]))
        assert list(rec.rounds) == [0, 2, 4]
        assert len(rec) == 3

    def test_recorder_unknown_metric(self):
        with pytest.raises(KeyError):
            MetricRecorder(names=("nope",))

    def test_recorder_series_and_dict(self):
        rec = MetricRecorder(names=("num_colors", "bias"))
        rec.observe(0, np.asarray([3, 1]))
        out = rec.as_dict()
        assert out["num_colors"][0] == 2
        assert out["bias"][0] == 2
        assert rec.series("bias")[0] == 2


class TestStopping:
    def test_consensus(self):
        assert Consensus()(np.asarray([4, 0]))
        assert not Consensus()(np.asarray([3, 1]))

    def test_colors_at_most(self):
        cond = ColorsAtMost(2)
        assert cond(np.asarray([2, 2, 0]))
        assert not cond(np.asarray([2, 1, 1]))

    def test_max_support_above(self):
        cond = MaxSupportAbove(3)
        assert cond(np.asarray([4, 0]))
        assert not cond(np.asarray([3, 1]))

    def test_bias_at_least(self):
        cond = BiasAtLeast(2)
        assert cond(np.asarray([4, 1, 1]))
        assert not cond(np.asarray([3, 2, 1]))

    def test_combinators(self):
        both = Consensus() & MaxSupportAbove(3)
        either = Consensus() | MaxSupportAbove(100)
        assert both(np.asarray([4, 0]))
        assert not both(np.asarray([3, 1]))
        assert either(np.asarray([4, 0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ColorsAtMost(0)
        with pytest.raises(ValueError):
            MaxSupportAbove(-1)
        with pytest.raises(ValueError):
            BiasAtLeast(-1)
        with pytest.raises(ValueError):
            AnyOf()
        with pytest.raises(ValueError):
            AllOf()

    def test_labels(self):
        assert "consensus" in (Consensus() | ColorsAtMost(3)).label


class TestSimulator:
    def test_consensus_time_deterministic_given_seed(self):
        config = Configuration.singletons(64)
        t1 = consensus_time(ThreeMajority(), config, rng=11)
        t2 = consensus_time(ThreeMajority(), config, rng=11)
        assert t1 == t2

    def test_backends_agree_statistically(self):
        # Count-level and agent-level 3-Majority are the same process;
        # their mean consensus times must agree within Monte-Carlo noise.
        config = Configuration.balanced(60, 6)
        times_counts = repeat_first_passage(
            ThreeMajority, config, Consensus(), 120, rng=1, backend="counts"
        )
        times_agent = repeat_first_passage(
            ThreeMajority, config, Consensus(), 120, rng=2, backend="agent"
        )
        mean_c = times_counts.mean()
        mean_a = times_agent.mean()
        pooled_sem = np.sqrt(times_counts.var() / 120 + times_agent.var() / 120)
        assert abs(mean_c - mean_a) < 4 * pooled_sem + 1.0

    def test_counts_backend_rejects_non_ac(self):
        with pytest.raises(TypeError):
            run_counts(TwoChoices(), Configuration([2, 2]), rng=0)

    def test_run_counts_backend_label(self):
        res = run(Voter(), Configuration.balanced(20, 4), rng=0, backend="counts")
        assert res.backend == "counts"
        assert res.reached_consensus

    def test_run_agent_backend_label(self):
        res = run(TwoChoices(), Configuration.balanced(20, 2), rng=0)
        assert res.backend == "agent"

    def test_auto_prefers_counts_for_ac(self):
        res = run(Voter(), Configuration.balanced(20, 4), rng=0, backend="auto")
        assert res.backend == "counts"

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            run(Voter(), Configuration([2, 2]), backend="quantum")

    def test_round_limit_raises(self):
        with pytest.raises(RoundLimitExceeded):
            run(Voter(), Configuration.singletons(64), rng=0, max_rounds=1)

    def test_round_limit_soft(self):
        res = run(
            Voter(),
            Configuration.singletons(64),
            rng=0,
            max_rounds=1,
            raise_on_limit=False,
        )
        assert not res.stopped
        assert res.rounds == 1

    def test_already_stopped_at_round_zero(self):
        res = run(Voter(), Configuration.monochromatic(10), rng=0)
        assert res.rounds == 0
        assert res.stopped

    def test_recorder_integration(self):
        rec = MetricRecorder(names=("num_colors",))
        res = run(Voter(), Configuration.balanced(30, 3), rng=5, recorder=rec)
        series = res.metric("num_colors")
        assert series[0] == 3
        assert series[-1] == 1
        assert np.all(np.diff(series) <= 0)  # Voter never adds colors

    def test_metric_requires_recorder(self):
        res = run(Voter(), Configuration.balanced(10, 2), rng=0)
        with pytest.raises(ValueError):
            res.metric("num_colors")

    def test_reduction_time(self):
        t = reduction_time(Voter(), Configuration.singletons(64), kappa=8, rng=3)
        assert t >= 1

    def test_symmetry_breaking_time(self):
        rounds, fired = symmetry_breaking_time(
            ThreeMajority(), Configuration.singletons(128), threshold=10, rng=4
        )
        assert fired
        assert rounds >= 1

    def test_symmetry_breaking_soft_limit(self):
        rounds, fired = symmetry_breaking_time(
            TwoChoices(),
            Configuration.singletons(256),
            threshold=256,
            rng=4,
            max_rounds=5,
            raise_on_limit=False,
        )
        assert not fired
        assert rounds == 5

    def test_default_round_limit_scales(self):
        assert default_round_limit(100) > default_round_limit(10) > 0

    def test_agent_run_final_colors_exposed(self):
        res = run_agent(TwoChoices(), Configuration.balanced(30, 2), rng=0)
        assert res.final_colors is not None
        assert res.final_colors.shape == (30,)


class TestBatch:
    def test_summary_fields(self):
        s = summarize([1, 2, 3, 4, 5])
        assert s.count == 5
        assert s.mean == pytest.approx(3.0)
        assert s.median == pytest.approx(3.0)
        assert s.minimum == 1 and s.maximum == 5

    def test_summary_ci(self):
        s = summarize(np.full(100, 10.0))
        lo, hi = s.mean_ci95()
        assert lo == pytest.approx(10.0)
        assert hi == pytest.approx(10.0)

    def test_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_format_row(self):
        assert "mean=" in summarize([1.0, 2.0]).format_row("label")

    def test_repeat_first_passage_deterministic(self):
        config = Configuration.balanced(40, 4)
        a = repeat_first_passage(Voter, config, Consensus(), 10, rng=9)
        b = repeat_first_passage(Voter, config, Consensus(), 10, rng=9)
        assert np.array_equal(a, b)

    def test_repeat_validates(self):
        with pytest.raises(ValueError):
            repeat_first_passage(Voter, Configuration([2, 2]), Consensus(), 0, rng=0)

    def test_empirical_cdf(self):
        cdf = empirical_cdf(np.asarray([1.0, 2.0, 3.0, 4.0]))
        assert cdf(0.5) == 0.0
        assert cdf(2.0) == pytest.approx(0.5)
        assert cdf(10.0) == 1.0

    def test_cdf_dominates_trivial(self):
        fast = np.asarray([1, 2, 3])
        slow = np.asarray([4, 5, 6])
        assert cdf_dominates(fast, slow)
        assert not cdf_dominates(slow, fast)

    def test_cdf_dominates_slack(self):
        a = np.asarray([1, 3])
        b = np.asarray([2, 2])
        # a's CDF dips below b's at t=2 by 1/2; slack saves it.
        assert not cdf_dominates(a, b, slack=0.0)
        assert cdf_dominates(a, b, slack=0.6)
