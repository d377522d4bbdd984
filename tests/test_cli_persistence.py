"""Tests for the CLI (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.study import load_study_store
from repro.study import runner as runner_module


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
                "--max-n", "256",
                "-r", "2",
                "-o", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fit:" in out
        assert f"study store saved to {out_file}" in out
        store = load_study_store(str(out_file))
        assert store.is_complete() and len(store) == 3
        assert main(["study", "report", str(out_file)]) == 0
        report = capsys.readouterr().out
        assert "3-majority" in report
        assert "fit [3-majority]:" in report

    def test_sweep_output_refuses_to_clobber_a_store(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        args = ["sweep", "voter", "--min-n", "16", "--max-n", "32", "-r", "2",
                "-o", str(out_file)]
        assert main(args) == 0
        before = out_file.read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(args)
        message = str(exc.value.code)
        assert message.startswith("cannot run this sweep:")
        assert "already exists" in message and "\n" not in message
        assert out_file.read_bytes() == before

    def test_sweep_output_into_a_missing_directory_fails_first(
        self, tmp_path, monkeypatch
    ):
        def no_cell_may_run(*_args, **_kwargs):
            raise AssertionError("a cell ran before --output was checked")

        monkeypatch.setattr(runner_module, "execute", no_cell_may_run)
        missing = tmp_path / "no-such-dir" / "sweep.json"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "voter", "--min-n", "16", "--max-n", "32", "-r", "2",
                  "-o", str(missing)])
        message = str(exc.value.code)
        assert message.startswith("cannot run this sweep:")
        assert "no-such-dir" in message and "\n" not in message
        assert not missing.parent.exists()

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
        reference = load_study_store(str(ref_file)).records()
        ensemble = load_study_store(str(ens_file)).records()
        assert len(reference) == len(ensemble) == 2
        for a, b in zip(reference, ensemble):
            assert np.array_equal(a.times, b.times)

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
