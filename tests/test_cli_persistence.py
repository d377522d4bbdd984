"""Tests for the CLI (repro.cli) and sweep persistence."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import Configuration
from repro.engine import Consensus
from repro.experiments import (
    load_sweep,
    save_sweep,
    sweep_first_passage,
    sweep_from_dict,
    sweep_to_dict,
)
from repro.processes import Voter
from repro.study import load_study_store


def _reject_constant(value):
    raise AssertionError(f"non-strict JSON constant in file: {value}")


def _small_sweep():
    return sweep_first_passage(
        name="demo",
        process_factory=lambda n: Voter(),
        workload=lambda n: Configuration.balanced(n, 4),
        stop=lambda n: Consensus(),
        n_values=[16, 32, 64],
        repetitions=4,
        seed=5,
        predicted=lambda n: float(n),
    )


class TestPersistence:
    def test_round_trip_in_memory(self):
        original = _small_sweep()
        rebuilt = sweep_from_dict(sweep_to_dict(original))
        assert rebuilt.name == original.name
        assert rebuilt.param_name == original.param_name
        for a, b in zip(original.points, rebuilt.points):
            assert a.param == b.param
            assert np.array_equal(a.samples, b.samples)
            assert a.predicted == b.predicted
            assert a.summary.mean == pytest.approx(b.summary.mean)

    def test_round_trip_on_disk(self, tmp_path):
        original = _small_sweep()
        path = tmp_path / "sweep.json"
        save_sweep(original, str(path))
        rebuilt = load_sweep(str(path))
        assert rebuilt.fit().exponent == pytest.approx(original.fit().exponent)

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        save_sweep(_small_sweep(), str(path))
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 2
        assert len(payload["points"]) == 3

    def test_round_trips_provenance_fields(self):
        original = _small_sweep()
        payload = sweep_to_dict(original)
        assert payload["rng_mode"] == original.rng_mode
        assert all(p["resolved_backend"] for p in payload["points"])
        rebuilt = sweep_from_dict(payload)
        assert rebuilt.rng_mode == original.rng_mode
        for a, b in zip(original.points, rebuilt.points):
            assert a.resolved_backend == b.resolved_backend

    def test_reads_legacy_version1_files(self):
        payload = sweep_to_dict(_small_sweep())
        legacy = {
            "format_version": 1,
            "name": payload["name"],
            "param_name": payload["param_name"],
            "points": [
                {k: p[k] for k in ("param", "samples", "predicted")}
                for p in payload["points"]
            ],
        }
        rebuilt = sweep_from_dict(legacy)
        assert rebuilt.rng_mode == "batched"
        assert all(p.resolved_backend is None for p in rebuilt.points)

    def test_rejects_unknown_future_versions(self):
        with pytest.raises(ValueError, match="unsupported sweep format version"):
            sweep_from_dict({"format_version": 99, "points": []})

    def test_missing_prediction_stays_strict_json(self, tmp_path):
        # api.sweep without predicted= leaves NaN predictions; the file
        # must still be strict JSON (null), round-tripping back to NaN.
        from repro import api

        result = api.sweep("voter", [16, 32], repetitions=2, seed=3)
        path = tmp_path / "sweep.json"
        save_sweep(result, str(path))
        payload = json.loads(path.read_text(), parse_constant=_reject_constant)
        assert all(p["predicted"] is None for p in payload["points"])
        rebuilt = load_sweep(str(path))
        assert all(np.isnan(p.predicted) for p in rebuilt.points)

    def test_summaries_recomputed_from_samples(self):
        payload = sweep_to_dict(_small_sweep())
        payload["points"][0]["samples"] = [1, 1, 1, 1]
        rebuilt = sweep_from_dict(payload)
        assert rebuilt.points[0].summary.mean == pytest.approx(1.0)


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "voter", "-n", "64"])
        assert args.command == "simulate"
        assert args.nodes == 64

    def test_simulate_runs(self, capsys):
        code = main(["simulate", "3-majority", "-n", "128", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "consensus after" in out

    def test_simulate_with_trace(self, capsys):
        code = main(
            ["simulate", "voter", "-n", "64", "-k", "4", "--trace", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trajectory" in out

    def test_simulate_biased(self, capsys):
        code = main(
            ["simulate", "2-choices", "-n", "128", "-k", "2", "--bias", "64", "--seed", "2"]
        )
        assert code == 0
        assert "consensus after" in capsys.readouterr().out

    def test_simulate_bias_requires_colors(self):
        with pytest.raises(SystemExit):
            main(["simulate", "voter", "--bias", "10"])

    def test_sweep_runs_and_saves(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "3-majority",
                "--min-n", "64",
                "--max-n", "128",
                "-r", "2",
                "-o", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fit:" in out
        assert out_file.exists()
        rebuilt = load_sweep(str(out_file))
        assert len(rebuilt.points) == 2

    def test_sweep_validates_range(self):
        with pytest.raises(SystemExit):
            main(["sweep", "voter", "--min-n", "128", "--max-n", "64"])
        with pytest.raises(SystemExit):
            main(["sweep", "voter", "--colors", "1"])

    def test_sweep_backend_choices_derive_from_registry(self):
        from repro.engine import backend_choices

        parser = build_parser()
        for name in backend_choices():
            args = parser.parse_args(["sweep", "voter", "--backend", name])
            assert args.backend == name
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "voter", "--backend", "warp-drive"])

    def test_sweep_asynchronous_scheduler(self, capsys):
        code = main(
            [
                "sweep", "3-majority",
                "--min-n", "32", "--max-n", "64",
                "-r", "2", "--scheduler", "asynchronous",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "consensus ticks" in out

    def test_sweep_adversary_plan(self, capsys):
        code = main(
            [
                "sweep", "3-majority",
                "--min-n", "64", "--max-n", "128",
                "-r", "2", "--colors", "3",
                "--adversary", "plant-invalid", "--budget", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "stable valid regime" in out
        assert "plant-invalid" in out

    def test_sweep_per_replica_rng_matches_sequential_backend(self, tmp_path):
        args = [
            "sweep", "voter",
            "--min-n", "16", "--max-n", "32",
            "-r", "3", "--seed", "5",
        ]
        ref_file = tmp_path / "seq.json"
        ens_file = tmp_path / "ens.json"
        assert main(args + ["--backend", "counts", "-o", str(ref_file)]) == 0
        assert main(
            args
            + [
                "--backend", "ensemble-counts",
                "--rng-mode", "per-replica",
                "-o", str(ens_file),
            ]
        ) == 0
        reference = load_sweep(str(ref_file))
        ensemble = load_sweep(str(ens_file))
        for a, b in zip(reference.points, ensemble.points):
            assert np.array_equal(a.samples, b.samples)

    def test_counterexample_command(self, capsys):
        code = main(["counterexample"])
        out = capsys.readouterr().out
        assert code == 0
        assert "7/12" in out

    def test_unknown_process_errors(self):
        with pytest.raises(KeyError):
            main(["simulate", "no-such-process"])

    def test_simulate_smoke_over_every_registered_process(self, capsys):
        """`repro simulate` runs end-to-end for every registry name."""
        from repro.processes import available_processes

        for name in available_processes():
            if name == "h-majority:<h>":
                name = "h-majority:3"  # the parameterised scheme's exemplar
            code = main(
                ["simulate", name, "-n", "32", "-k", "2", "--seed", "1",
                 "--max-rounds", "5000"]
            )
            out = capsys.readouterr().out
            assert code == 0, name
            assert "consensus after" in out, name


class TestCliStudy:
    """End-to-end coverage of the `repro study` subcommands."""

    SPEC_TOML = """\
name = "cli-study"
seed = 11
repetitions = 2

[axes]
process = ["3-majority", "voter"]
n = [32]
rng_mode = ["per-replica"]
"""

    def _write_spec(self, tmp_path):
        path = tmp_path / "cli-study.toml"
        path.write_text(self.SPEC_TOML)
        return str(path)

    def test_run_reports_and_checkpoints(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        code = main(["study", "run", spec_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "complete" in out
        assert "cli-study" in out
        store = load_study_store(str(tmp_path / "cli-study.store.json"))
        assert len(store) == 2

    def test_run_refuses_to_clobber_without_resume(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        assert main(["study", "run", spec_path]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="already exists"):
            main(["study", "run", spec_path])

    def test_kill_and_resume_completes_only_missing_cells(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        store_path = str(tmp_path / "partial.json")
        full_path = str(tmp_path / "full.json")
        # The uninterrupted reference run.
        assert main(["study", "run", spec_path, "-o", full_path, "--quiet"]) == 0
        # An "interrupted" run: one cell, then the process dies.
        assert main(
            ["study", "run", spec_path, "-o", store_path, "--max-cells", "1",
             "--quiet"]
        ) == 0
        assert len(load_study_store(store_path)) == 1
        capsys.readouterr()
        assert main(["study", "resume", spec_path, "-o", store_path]) == 0
        out = capsys.readouterr().out
        # Only the second cell ran on resume.
        assert "[2/2]" in out and "[1/2]" not in out
        resumed = load_study_store(store_path)
        full = load_study_store(full_path)
        assert resumed.results_equal(full)

    def test_resume_without_store_errors(self, tmp_path):
        spec_path = self._write_spec(tmp_path)
        with pytest.raises(SystemExit, match="no store to resume"):
            main(["study", "resume", spec_path])

    def test_report_renders_saved_store(self, tmp_path, capsys):
        spec_path = self._write_spec(tmp_path)
        store_path = str(tmp_path / "s.json")
        assert main(["study", "run", spec_path, "-o", store_path, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["study", "report", store_path]) == 0
        out = capsys.readouterr().out
        assert "cli-study" in out
        assert "3-majority" in out and "voter" in out

    def test_bad_spec_is_a_usage_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('name = "x"\n[axes]\nprocess = ["warp-dynamics"]\n')
        with pytest.raises(SystemExit, match="cannot"):
            main(["study", "run", str(path)])
        # A mistyped scalar is a TypeError from the spec, not a traceback.
        path.write_text(self.SPEC_TOML.replace("repetitions = 2", "repetitions = 2.5"))
        with pytest.raises(SystemExit, match="cannot load spec"):
            main(["study", "run", str(path)])
