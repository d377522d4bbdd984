"""Smoke tests: every shipped example runs end-to-end (at reduced size).

Examples are public API usage documentation; these tests keep them from
rotting.  Where an example accepts a size argument we pass a small one;
the heavyweight coupled-LP example is exercised through its library call
at a reduced size rather than the full script.
"""

import runpy
import sys

import numpy as np
import pytest


def _run_example(path: str, argv: list) -> None:
    saved = sys.argv
    sys.argv = [path] + argv
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = saved


class TestExamples:
    def test_quickstart(self, capsys):
        _run_example("examples/quickstart.py", ["256"])
        out = capsys.readouterr().out
        assert "consensus time" in out
        assert "3-majority" in out

    def test_leader_election_race(self, capsys):
        _run_example("examples/leader_election_race.py", ["1024"])
        out = capsys.readouterr().out
        assert "mean consensus time" in out
        assert "remaining colors over time" in out

    def test_byzantine_agreement(self, capsys):
        _run_example("examples/byzantine_agreement.py", [])
        out = capsys.readouterr().out
        assert "3-Majority under dynamic adversaries" in out
        assert "midpoint attack outcomes" in out

    def test_duality_walkthrough(self, capsys):
        _run_example("examples/duality_walkthrough.py", [])
        out = capsys.readouterr().out
        assert "maps identical: True" in out
        assert "coalescence T^k_C" in out

    def test_hierarchy_explorer(self, capsys):
        _run_example("examples/hierarchy_explorer.py", [])
        out = capsys.readouterr().out
        assert "7/12" in out
        assert "Conjecture 1" in out

    def test_coupling_lemma2_reduced(self):
        # The full example couples 12 rounds at n=6 plus 4 replays;
        # exercise the same code path at n=5 to keep the suite fast.
        from repro.core import Configuration, run_coupled_chains
        from repro.core.ac_process import ThreeMajorityFunction, VoterFunction

        trajectory = run_coupled_chains(
            ThreeMajorityFunction(),
            VoterFunction(),
            Configuration.singletons(5),
            rounds=8,
            rng=np.random.default_rng(11),
        )
        assert trajectory.majorization_maintained()
        assert trajectory.colors_never_more()
