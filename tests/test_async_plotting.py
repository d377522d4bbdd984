"""Tests for the asynchronous scheduler."""

import numpy as np
import pytest

from repro.core import Configuration
from repro.engine import (
    ColorsAtMost,
    run_asynchronous,
    ticks_to_round_equivalents,
)
from repro.graphs import CycleGraph
from repro.processes import GraphVoter, ThreeMajority, TwoChoices, Voter


class TestAsynchronous:
    def test_reaches_consensus(self):
        result = run_asynchronous(Voter(), Configuration.balanced(24, 3), rng=1)
        assert result.reached_consensus
        assert result.stopped
        assert result.ticks >= 1

    def test_round_equivalents(self):
        assert ticks_to_round_equivalents(100, 25) == 4.0
        with pytest.raises(ValueError):
            ticks_to_round_equivalents(10, 0)

    def test_three_majority_async(self):
        result = run_asynchronous(ThreeMajority(), Configuration.balanced(32, 4), rng=2)
        assert result.reached_consensus

    def test_two_choices_async(self):
        result = run_asynchronous(TwoChoices(), Configuration.balanced(24, 2), rng=3)
        assert result.reached_consensus

    def test_custom_stop(self):
        result = run_asynchronous(
            Voter(), Configuration.singletons(24), rng=4, stop=ColorsAtMost(6)
        )
        assert result.final.num_colors <= 6

    def test_tick_limit(self):
        result = run_asynchronous(
            Voter(), Configuration.balanced(24, 3), rng=5, max_ticks=3
        )
        assert result.ticks == 3 or result.stopped

    def test_check_every_validation(self):
        with pytest.raises(ValueError):
            run_asynchronous(Voter(), Configuration([2, 2]), check_every=0)

    def test_async_voter_comparable_to_sync_rounds(self):
        # n async ticks perform n adoption draws: round-equivalents should
        # be on the same scale as the synchronous consensus time.
        from repro.engine import repeat_first_passage, Consensus

        config = Configuration.balanced(32, 4)
        sync_mean = repeat_first_passage(
            Voter, config, Consensus(), 30, rng=7, backend="counts"
        ).mean()
        async_equivalents = [
            run_asynchronous(Voter(), config, rng=100 + s).round_equivalents()
            for s in range(15)
        ]
        ratio = np.mean(async_equivalents) / sync_mean
        assert 0.3 < ratio < 3.0

    def test_no_parity_trap_on_even_cycle(self):
        # The synchronous even-cycle oscillation disappears under the
        # asynchronous scheduler (sequential updates break the symmetry).
        n = 8
        process = GraphVoter(CycleGraph(n))
        initial = Configuration.from_assignment([i % 2 for i in range(n)])
        result = run_asynchronous(process, initial, rng=6, max_ticks=10**6)
        assert result.reached_consensus
