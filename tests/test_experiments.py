"""Tests for repro.experiments: workloads, harness, reporting."""

import numpy as np
import pytest

from repro import api
from repro.analysis import voter_reduction_upper
from repro.experiments import (
    Table,
    WORKLOADS,
    balanced,
    biased,
    bounded_support,
    format_table,
    power_law,
    random_composition,
    singletons,
)
from repro.study import load_study_store, study_report
from repro.study import runner as runner_module


class TestWorkloads:
    def test_singletons(self):
        c = singletons(10)
        assert c.num_colors == 10 and c.max_support == 1

    def test_balanced(self):
        c = balanced(100, 7)
        assert c.num_nodes == 100 and c.num_colors == 7 and c.bias <= 1

    def test_biased(self):
        c = biased(100, 5, bias=20)
        assert c.bias == 20

    def test_bounded_support_respects_cap(self, rng):
        c = bounded_support(200, max_support=8, rng=rng)
        assert c.num_nodes == 200
        assert c.max_support <= 8

    def test_bounded_support_validates(self):
        with pytest.raises(ValueError):
            bounded_support(10, 0)

    def test_power_law_shape(self, rng):
        c = power_law(1000, 10, exponent=2.0, rng=rng)
        assert c.num_nodes == 1000
        counts = sorted(c.counts, reverse=True)
        assert counts[0] > counts[-1]

    def test_power_law_validates(self):
        with pytest.raises(ValueError):
            power_law(10, 0)
        with pytest.raises(ValueError):
            power_law(10, 3, exponent=0.0)

    def test_random_composition_total(self, rng):
        c = random_composition(50, 7, rng=rng)
        assert c.num_nodes == 50 and c.num_colors == 7

    def test_random_composition_k_one(self, rng):
        assert random_composition(50, 1, rng=rng).is_consensus

    def test_random_composition_validates(self):
        with pytest.raises(ValueError):
            random_composition(3, 5)

    def test_registry(self):
        assert set(WORKLOADS) == {
            "singletons",
            "balanced",
            "biased",
            "bounded_support",
            "power_law",
            "random_composition",
        }


class TestSweep:
    def test_voter_reduction_sweep(self):
        result = api.sweep(
            "voter",
            [32, 64, 128],
            repetitions=10,
            seed=42,
            stop="colors<=4",
            predicted=lambda n: voter_reduction_upper(n, 4),
            name="voter reduction to k=4",
        )
        assert len(result.points) == 3
        assert np.all(np.diff(result.means()) > 0)  # grows with n
        fit = result.fit()
        assert 0.3 < fit.exponent < 1.6

    def test_sweep_deterministic(self):
        def run_once():
            return api.sweep(
                "voter",
                [16, 32, 64],
                repetitions=5,
                seed=7,
                workload={"name": "balanced", "kwargs": {"k": 4}},
            )

        a, b = run_once(), run_once()
        for pa, pb in zip(a.points, b.points):
            assert np.array_equal(pa.samples, pb.samples)

    def test_table_rendering(self):
        result = api.sweep(
            "voter",
            [16, 32, 64],
            repetitions=5,
            seed=1,
            workload={"name": "balanced", "kwargs": {"k": 2}},
            predicted=lambda n: float(n),
            name="demo",
        )
        text = result.to_table().render()
        assert "demo" in text
        assert "fit:" in text
        assert result.prediction_ratio_drift() >= 1.0

    def test_table_skips_the_fit_when_a_mean_is_zero(self):
        # Every start already has <= 64 colors: all times are 0.
        result = api.sweep(
            "3-majority", [16, 32, 64], repetitions=2, seed=1, stop="colors<=64"
        )
        assert not result.means().any()
        text = result.to_table().render()
        assert "fit: n/a (mean 0 at n=16, 32, 64;" in text

    def test_table_and_report_agree_on_repeated_sizes(self, tmp_path):
        # Three points but one distinct size: neither view may fit.
        result = api.sweep("voter", [16, 16, 16], repetitions=2, seed=1)
        text = result.to_table().render()
        assert "fit: n/a (need at least three distinct sizes)" in text
        store_path = str(tmp_path / "sweep.json")
        api.sweep("voter", [16, 16, 16], repetitions=2, seed=1, store_path=store_path)
        assert "fit [" not in study_report(load_study_store(store_path)).render()

    @pytest.mark.parametrize("bad", [16.7, True, "16"])
    def test_sizes_are_checked_not_coerced(self, bad, monkeypatch):
        def no_cell_may_run(*_args, **_kwargs):
            raise AssertionError("a cell ran before the sizes were checked")

        monkeypatch.setattr(runner_module, "execute", no_cell_may_run)
        with pytest.raises(TypeError, match=f"got {bad!r}"):
            api.sweep("voter", [bad, 32], repetitions=2, seed=1)

    def test_numpy_integer_sizes_are_accepted(self):
        result = api.sweep("voter", np.arange(16, 48, 16), repetitions=2, seed=1)
        assert [p.param for p in result.points] == [16, 32]


class TestReporting:
    def test_table_basics(self):
        t = Table(title="T", columns=["a", "b"])
        t.add_row(1, 2.5)
        t.add_row("x", True)
        t.add_footnote("note")
        out = t.render()
        assert "T" in out and "note" in out and "yes" in out

    def test_row_width_validation(self):
        t = Table(title="T", columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_format_table_alignment(self):
        out = format_table("t", ["col"], [("123456",)])
        lines = out.splitlines()
        assert any("123456" in line for line in lines)

    def test_float_formatting(self):
        t = Table(title="T", columns=["v"])
        t.add_row(123456.0)
        t.add_row(0.00001)
        t.add_row(0.0)
        text = t.render()
        assert "1.23e+05" in text or "123456" in text
        assert "1e-05" in text
        assert str(t) == text
