"""Tests for the fault-injection subsystem and the failure-isolating runner.

Covers the three layers the faults axis threads through:

* the fault models and schedules themselves (semantics: stasis under
  total crash/loss, recovery after a closed window, node conservation,
  plan-validation of the incompatible axes);
* the declarative vocabulary (canonical dicts, CLI grammar, TOML
  round-trip, spec/cell hash stability for fault-free specs);
* the failure-isolating ``run_study`` (failed cells recorded with
  tracebacks, retry on fresh sub-seeds, resume re-attempting exactly
  the failed/missing cells, store format v2 + v1 upgrade,
  :class:`StoreCorruptError` on mangled files).
"""

import json

import numpy as np
import pytest

import repro
from repro import StudySpec, api
from repro.core import Configuration
from repro.engine import Consensus, SimulationPlan, execute, run
from repro.faults import (
    CrashRecovery,
    CrashStop,
    FaultSchedule,
    MessageLoss,
    as_fault_schedule,
    build_fault_schedule,
    canonical_fault_value,
    encode_fault_value,
    parse_fault_cli,
)
from repro.processes import ThreeMajority, TwoChoices
from repro.study import (
    ExecutionPolicy,
    StoreCorruptError,
    StudyStore,
    compile_study,
    dumps_spec,
    load_study_store,
    loads_spec,
    run_study,
    spec_hash,
    study_report,
)
from repro.study.runner import _record_cell


# ---------------------------------------------------------------------------
# Fault model semantics
# ---------------------------------------------------------------------------


class TestFaultSemantics:
    def test_total_crash_is_stasis(self):
        initial = Configuration.balanced(48, 3)
        result = run(
            ThreeMajority(),
            initial,
            rng=5,
            faults=CrashStop(1.0),
            max_rounds=50,
            raise_on_limit=False,
        )
        assert not result.stopped
        assert np.array_equal(result.final.counts_array(), initial.counts_array())

    def test_total_loss_is_stasis_on_agent_backend(self):
        initial = Configuration.biased(32, 4, 8)
        result = run(
            TwoChoices(),
            initial,
            rng=5,
            faults=MessageLoss(1.0),
            max_rounds=50,
            raise_on_limit=False,
        )
        assert not result.stopped
        assert np.array_equal(result.final.counts_array(), initial.counts_array())

    def test_recovery_after_closed_window_reaches_consensus(self):
        # Total crash for rounds [0, 5), then recovery drains the crashed
        # pool and the dynamics converge normally.
        schedule = FaultSchedule(CrashRecovery(1.0, 0.5), start=0, stop=5)
        result = run(
            ThreeMajority(),
            Configuration.balanced(48, 3),
            rng=11,
            faults=schedule,
            max_rounds=5_000,
        )
        assert result.stopped
        assert result.final.is_consensus

    def test_population_conserved_under_active_faults(self):
        schedule = FaultSchedule((CrashRecovery(0.1, 0.2), MessageLoss(0.1)))
        for backend in ("counts", "agent"):
            result = run(
                ThreeMajority(),
                Configuration.balanced(60, 3),
                rng=3,
                backend=backend,
                faults=schedule,
                max_rounds=2_000,
            )
            assert int(result.final.counts_array().sum()) == 60

    def test_trivial_schedules_collapse_to_none(self):
        assert as_fault_schedule(None) is None
        assert as_fault_schedule(CrashStop(0.0)) is None
        assert as_fault_schedule(FaultSchedule(())) is None
        assert as_fault_schedule(MessageLoss(0.0)) is None
        live = as_fault_schedule(MessageLoss(0.5))
        assert isinstance(live, FaultSchedule)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            CrashStop(1.5)
        with pytest.raises(ValueError):
            CrashRecovery(0.1, -0.2)
        with pytest.raises(ValueError):
            FaultSchedule(CrashStop(0.1), start=-1)
        with pytest.raises(ValueError):
            FaultSchedule(CrashStop(0.1), start=5, stop=5)
        with pytest.raises(TypeError):
            as_fault_schedule("crash")

    def test_plan_rejects_incompatible_axes(self):
        base = dict(
            process=ThreeMajority,
            initial=Configuration.balanced(24, 3),
            stop=Consensus(),
            repetitions=2,
            rng=0,
            faults=CrashStop(0.1),
        )
        with pytest.raises(ValueError, match="synchronous"):
            SimulationPlan(scheduler="asynchronous", **base)
        from repro.adversary import PlantInvalid

        with pytest.raises(ValueError, match="mutually exclusive"):
            SimulationPlan(adversary=PlantInvalid(1, invalid_color=9), **base)

    def test_windowed_schedule_active(self):
        schedule = FaultSchedule(MessageLoss(0.5), start=2, stop=9)
        assert not schedule.active(1)
        assert schedule.active(2)
        assert schedule.active(8)
        assert not schedule.active(9)
        open_ended = FaultSchedule(MessageLoss(0.5), start=3)
        assert open_ended.active(10**9)


# ---------------------------------------------------------------------------
# Declarative vocabulary
# ---------------------------------------------------------------------------


class TestDeclarativeVocabulary:
    def test_canonical_fills_defaults(self):
        assert canonical_fault_value(None) is None
        assert canonical_fault_value("none") is None
        value = canonical_fault_value({"crash": 0.01, "recover": 0.1})
        assert value == {
            "crash": 0.01, "recover": 0.1, "loss": 0.0,
            "byzantine": 0.0, "color": None, "start": 0, "stop": None,
        }

    def test_canonical_validation(self):
        with pytest.raises(KeyError):
            canonical_fault_value({"chaos": 1})
        with pytest.raises(ValueError):
            canonical_fault_value({"crash": 2.0})
        with pytest.raises(ValueError):
            canonical_fault_value({"recover": 0.5})  # recover without crash
        with pytest.raises(ValueError):
            canonical_fault_value({"crash": 0.1, "start": 5, "stop": 3})

    def test_encode_drops_defaults(self):
        assert encode_fault_value(None) == "none"
        assert encode_fault_value({"crash": 0.0}) == "none"
        assert encode_fault_value({"crash": 0.01, "start": 0}) == {"crash": 0.01}
        roundtrip = canonical_fault_value(
            encode_fault_value({"loss": 0.05, "start": 2, "stop": 9})
        )
        assert roundtrip == canonical_fault_value(
            {"loss": 0.05, "start": 2, "stop": 9}
        )

    def test_cli_grammar(self):
        assert parse_fault_cli(None) is None
        assert parse_fault_cli("none") is None
        assert parse_fault_cli("crash:p=0.01,recover=0.1") == canonical_fault_value(
            {"crash": 0.01, "recover": 0.1}
        )
        assert parse_fault_cli("loss:p=0.05,start=2,stop=9") == (
            canonical_fault_value({"loss": 0.05, "start": 2, "stop": 9})
        )
        merged = parse_fault_cli("crash:p=0.01", loss=0.05)
        assert merged["loss"] == 0.05 and merged["crash"] == 0.01
        assert parse_fault_cli(None, loss=0.05) == canonical_fault_value(
            {"loss": 0.05}
        )
        with pytest.raises(ValueError):
            parse_fault_cli("meteor:p=0.5")
        with pytest.raises(ValueError):
            parse_fault_cli("crash")
        with pytest.raises(ValueError):
            parse_fault_cli("crash:p=0.01,zap=2")

    def test_build_fault_schedule_picks_models(self):
        assert build_fault_schedule(None) is None
        crash = build_fault_schedule({"crash": 0.01})
        assert isinstance(crash.faults[0], CrashStop)
        recovery = build_fault_schedule({"crash": 0.01, "recover": 0.1})
        assert isinstance(recovery.faults[0], CrashRecovery)
        both = build_fault_schedule({"crash": 0.01, "loss": 0.05})
        assert len(both.faults) == 2
        assert isinstance(both.faults[1], MessageLoss)

    def test_spec_hash_stable_without_faults_axis(self):
        """Adding the axis must not orphan existing stores and specs."""
        base = StudySpec(name="s", axes={"process": ["voter"], "n": [16]})
        explicit = StudySpec(
            name="s", axes={"process": ["voter"], "n": [16], "faults": ["none"]}
        )
        assert spec_hash(base) == spec_hash(explicit)
        assert "faults" not in base.to_dict()["axes"]
        # Fault-free cells keep their pre-fault cell ids too.
        for cell in compile_study(base):
            assert "faults" not in cell.params

    def test_spec_toml_roundtrip_with_faults_axis(self):
        spec = StudySpec(
            name="faulty",
            seed=2,
            repetitions=2,
            axes={
                "process": ["3-majority"],
                "n": [24],
                "faults": ["none", {"crash": 0.01, "recover": 0.1}, {"loss": 0.05}],
            },
        )
        assert loads_spec(dumps_spec(spec)) == spec
        assert spec_hash(loads_spec(dumps_spec(spec))) == spec_hash(spec)
        assert spec.num_cells() == 3

    def test_compiled_fault_cells_carry_plans_and_labels(self):
        spec = StudySpec(
            name="faulty",
            repetitions=2,
            axes={
                "process": ["3-majority"],
                "n": [24],
                "faults": ["none", {"crash": 0.01}],
            },
        )
        cells = compile_study(spec)
        assert cells[0].plan.faults is None
        assert isinstance(cells[1].plan.faults, FaultSchedule)
        assert "faults(crash=0.01)" in cells[1].label()
        assert "faults" not in cells[0].label()

    def test_api_simulate_accepts_fault_forms(self):
        kwargs = dict(n=32, workload={"name": "balanced", "kwargs": {"k": 3}}, seed=4)
        by_dict = api.simulate("3-majority", faults={"loss": 0.1}, **kwargs)
        by_str = api.simulate("3-majority", faults="loss:p=0.1", **kwargs)
        by_obj = api.simulate("3-majority", faults=MessageLoss(0.1), **kwargs)
        assert np.array_equal(by_dict.times, by_str.times)
        assert np.array_equal(by_dict.times, by_obj.times)


# ---------------------------------------------------------------------------
# Failure-isolating runner + store v2
# ---------------------------------------------------------------------------


def failing_spec(**overrides):
    """Two cells: one healthy, one that deterministically explodes.

    ``crash = 1.0`` freezes every node from round 0, so the stasis can
    never reach consensus and ``raise_on_limit=True`` turns the tiny
    horizon into a :class:`RoundLimitExceeded` — a deliberate, repeatable
    in-cell failure.
    """
    defaults = dict(
        name="half-broken",
        seed=9,
        repetitions=3,
        axes={
            "process": ["3-majority"],
            "workload": [{"name": "balanced", "kwargs": {"k": 3}}],
            "n": [48],
            "max_rounds": [400],
            "faults": ["none", {"crash": 1.0}],
        },
    )
    defaults.update(overrides)
    return StudySpec(**defaults)


class TestFailureIsolation:
    def test_failed_cell_recorded_with_traceback(self):
        store = run_study(failing_spec())
        records = store.records()
        assert len(records) == 2
        ok, failed = records[0], records[1]
        assert ok.ok and ok.status == "ok" and ok.error is None
        assert not failed.ok and failed.status == "failed"
        assert failed.resolved_backend == "-"
        assert failed.times.size == 0
        assert failed.error["type"] == "RoundLimitExceeded"
        assert "RoundLimitExceeded" in failed.error["traceback"]
        assert failed.error["attempts"] == 2
        assert not store.is_complete()
        assert store.failed() == [failed]

    def test_on_error_raise_propagates(self):
        from repro.engine import RoundLimitExceeded

        with pytest.raises(RoundLimitExceeded):
            run_study(failing_spec(), on_error="raise")
        with pytest.raises(ValueError):
            run_study(failing_spec(), on_error="explode")

    def test_transient_failure_recovers_on_retry(self, monkeypatch):
        from repro.study import runner as runner_module

        calls = {"count": 0}
        real_execute = runner_module.execute

        def flaky_execute(plan):
            calls["count"] += 1
            if calls["count"] == 1:
                raise OSError("worker pool lost a process")
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute", flaky_execute)
        spec = StudySpec(
            name="flaky", seed=1, repetitions=2,
            axes={"process": ["voter"], "n": [16]},
        )
        store = run_study(spec, max_attempts=2)
        assert calls["count"] == 2
        [record] = store.records()
        assert record.ok
        assert store.is_complete()

    def test_resume_retries_only_failed_cells(self, tmp_path):
        spec = failing_spec()
        path = str(tmp_path / "store.json")
        first = run_study(spec, store_path=path)
        assert len(first.failed()) == 1
        # Resume re-attempts the failed cell (still deterministic failure:
        # one record per cell, replaced in place) and nothing else.
        resumed = run_study(spec, store_path=path, resume=True)
        assert len(resumed) == 2
        assert len(resumed.failed()) == 1
        # The healthy cell was NOT re-run: bit-for-bit equal records.
        assert resumed.records()[0].same_results(first.records()[0])

    def test_interrupt_and_resume_ok_cells_bit_for_bit(self, tmp_path):
        spec = failing_spec()
        path = str(tmp_path / "store.json")
        run_study(spec, store_path=path, max_cells=1)
        resumed = run_study(spec, store_path=path, resume=True)
        fresh = run_study(spec)
        assert resumed.records()[0].same_results(fresh.records()[0])
        assert resumed.records()[1].status == fresh.records()[1].status == "failed"

    def test_report_summarises_failures(self):
        store = run_study(failing_spec())
        rendered = study_report(store).render()
        assert "1 failed" in rendered
        assert "FAILED cell 1" in rendered
        assert "RoundLimitExceeded" in rendered
        assert "resume the study to retry" in rendered

    def test_store_add_replaces_failed_only(self):
        spec = failing_spec()
        store = run_study(spec)
        failed = store.failed()[0]
        ok = store.records()[0]
        with pytest.raises(ValueError, match="already recorded"):
            store.add(ok)
        replacement = _record_cell(
            [c for c in compile_study(spec) if c.cell_id == failed.cell_id][0],
            on_error="record",
            policy=ExecutionPolicy(max_attempts=1),
        )
        store.add(replacement)  # failed → replaced, not duplicated
        assert len(store) == 2

    def test_store_roundtrip_preserves_failure_columns(self, tmp_path):
        path = str(tmp_path / "store.json")
        store = run_study(failing_spec(), store_path=path)
        loaded = load_study_store(path)
        assert loaded.results_equal(store)
        assert len(loaded.failed()) == 1
        assert loaded.failed()[0].error["type"] == "RoundLimitExceeded"

    def test_v1_store_upgrades_in_memory(self, tmp_path):
        spec = StudySpec(name="v1", seed=3, repetitions=2,
                         axes={"process": ["voter"], "n": [16]})
        store = run_study(spec)
        payload = store.to_dict()
        payload["format_version"] = 1
        del payload["columns"]["status"]
        del payload["columns"]["error"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload))
        loaded = load_study_store(str(path))
        assert all(record.ok for record in loaded.records())
        assert loaded.results_equal(store)
        # Future versions still refuse with the upgrade message.
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported study-store"):
            load_study_store(str(path))

    def test_corrupt_store_raises_named_error(self, tmp_path):
        spec = StudySpec(name="c", seed=3, repetitions=2,
                         axes={"process": ["voter"], "n": [16]})
        path = tmp_path / "store.json"
        run_study(spec, store_path=str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # truncated checkpoint
        with pytest.raises(StoreCorruptError, match=str(path)):
            load_study_store(str(path))
        # Structurally damaged (valid JSON, missing column) names it too.
        payload = json.loads(text)
        del payload["columns"]["times"]
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreCorruptError, match=str(path)):
            load_study_store(str(path))
        assert issubclass(StoreCorruptError, ValueError)

    def test_cli_reports_corrupt_store_actionably(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "store.json"
        path.write_text('{"format_version": 2, "kind": "repro-study-store"')
        with pytest.raises(SystemExit) as excinfo:
            main(["study", "report", str(path)])
        assert "corrupt" in str(excinfo.value)

    @pytest.mark.parametrize("payload", ["[]", "42", "null", '"store"'])
    def test_non_object_store_is_corrupt_not_a_traceback(
        self, tmp_path, payload
    ):
        from repro.cli import main

        path = tmp_path / "store.json"
        path.write_text(payload)
        with pytest.raises(StoreCorruptError, match="JSON object"):
            load_study_store(str(path))
        with pytest.raises(SystemExit, match="cannot load store"):
            main(["study", "report", str(path)])

    def test_cli_sweep_rejects_fault_conflicts(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="mutually exclusive"):
            main([
                "sweep", "3-majority", "--min-n", "16", "--max-n", "16",
                "--faults", "crash:p=0.1", "--adversary", "plant-invalid",
            ])
        with pytest.raises(SystemExit, match="synchronous"):
            main([
                "sweep", "3-majority", "--min-n", "16", "--max-n", "16",
                "--loss", "0.1", "--scheduler", "asynchronous",
            ])
        with pytest.raises(SystemExit, match="bad --faults"):
            main([
                "sweep", "3-majority", "--min-n", "16", "--max-n", "16",
                "--faults", "meteor:p=0.1",
            ])

    def test_run_study_exit_zero_with_recorded_failures(self, tmp_path):
        from repro.cli import main
        from repro.study import save_spec

        spec_path = str(tmp_path / "spec.toml")
        save_spec(failing_spec(), spec_path)
        assert main(["study", "run", spec_path, "--quiet"]) == 0
        store = load_study_store(str(tmp_path / "spec.store.json"))
        assert len(store.failed()) == 1

    def test_faulted_study_resolves_fault_capable_backend(self):
        spec = StudySpec(
            name="faulted-backends",
            seed=5,
            repetitions=2,
            axes={
                "process": ["3-majority"],
                "workload": [{"name": "balanced", "kwargs": {"k": 3}}],
                "n": [48],
                "backend": ["auto", "ensemble-auto", "sequential-auto"],
                "rng_mode": ["per-replica"],
                "faults": [{"crash": 0.02, "recover": 0.3}],
            },
        )
        store = run_study(spec, on_error="raise")
        records = store.records()
        assert len(records) == 3
        assert all(record.ok for record in records)
        # Each family resolves to its fault-capable counts member (cells
        # derive distinct seeds, so sample equality across backends is
        # covered by the runtime matrix, not here).
        assert [r.resolved_backend for r in records] == [
            "counts", "ensemble-counts", "counts",
        ]


# ---------------------------------------------------------------------------
# Byzantine faults (the fourth model: rewrites, not reverts)
# ---------------------------------------------------------------------------


class TestByzantine:
    """Semantics of hostile rewrites in both state representations."""

    def test_rate_one_pinned_color_is_instant_consensus(self):
        # Every node is a traitor every round; all announce color 2 — the
        # very first round lands the whole system on the hostile color.
        result = api.simulate(
            "3-majority",
            n=32,
            workload={"name": "balanced", "kwargs": {"k": 4}},
            faults={"byzantine": 1.0, "color": 2},
            backend="agent",
            rng_mode="per-replica",
            repetitions=3,
            seed=13,
        )
        assert np.array_equal(result.times, [1, 1, 1])
        assert result.stopped.all()
        assert np.array_equal(result.final_counts[:, 2], [32, 32, 32])

    def test_rate_one_pinned_color_counts_projection(self):
        from repro.core.ac_process import ThreeMajorityFunction
        from repro.faults import Byzantine

        runtime = FaultSchedule((Byzantine(1.0, color=0),)).counts_runtime(
            ThreeMajorityFunction()
        )
        out = runtime.step_row(
            np.array([40, 30, 30]), np.random.default_rng(1), 0
        )
        assert np.array_equal(out, [100, 0, 0])

    def test_counts_projection_conserves_nodes(self):
        from repro.core.ac_process import ThreeMajorityFunction
        from repro.faults import Byzantine

        runtime = FaultSchedule((Byzantine(0.3),)).counts_runtime(
            ThreeMajorityFunction()
        )
        rng = np.random.default_rng(7)
        counts = np.array([50, 30, 20])
        for round_index in range(20):
            counts = runtime.step_row(counts, rng, round_index)
            assert counts.sum() == 100
            assert (counts >= 0).all()

    def test_color_outside_slot_space_rejected(self):
        with pytest.raises(ValueError, match="outside the color space"):
            api.simulate(
                "3-majority",
                n=24,
                workload={"name": "balanced", "kwargs": {"k": 3}},
                faults={"byzantine": 0.5, "color": 7},
                backend="agent",
                repetitions=1,
                seed=3,
            )

    def test_constructor_validation(self):
        from repro.faults import Byzantine

        with pytest.raises(ValueError):
            Byzantine(1.5)
        with pytest.raises(ValueError):
            Byzantine(0.1, color=-1)
        with pytest.raises(ValueError):
            Byzantine(0.1, color=True)
        assert Byzantine(0.0).is_trivial()
        assert not Byzantine(0.2, color=1).is_trivial()

    def test_rate_zero_collapses_like_other_models(self):
        assert build_fault_schedule({"byzantine": 0.0}) is None
        assert encode_fault_value({"byzantine": 0.0}) == "none"
        assert as_fault_schedule(build_fault_schedule({"byzantine": 0.0})) is None

    def test_color_without_byzantine_rejected(self):
        with pytest.raises(ValueError, match="meaningless"):
            canonical_fault_value({"color": 1})
        # ...but a pinned color with a positive rate is fine.
        value = canonical_fault_value({"byzantine": 0.02, "color": 1})
        assert value["byzantine"] == 0.02 and value["color"] == 1

    def test_cli_grammar(self):
        value = parse_fault_cli("byzantine:p=0.02,color=1")
        assert value["byzantine"] == 0.02
        assert value["color"] == 1
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_cli("gremlins:p=0.5")

    def test_vocabulary_round_trips_through_toml(self):
        spec = StudySpec(
            name="byzantine-round-trip",
            seed=4,
            repetitions=2,
            axes={
                "process": ["3-majority"],
                "n": [32],
                "faults": [
                    "none",
                    {"byzantine": 0.1},
                    {"byzantine": 0.05, "color": 0, "start": 2},
                ],
            },
        )
        reloaded = loads_spec(dumps_spec(spec))
        assert spec_hash(reloaded) == spec_hash(spec)
        assert reloaded.axes["faults"][2]["color"] == 0

    def test_build_constructs_byzantine_model(self):
        from repro.faults import Byzantine

        schedule = build_fault_schedule(
            {"crash": 0.01, "byzantine": 0.05, "color": 1, "stop": 9}
        )
        kinds = [type(model) for model in schedule.faults]
        assert CrashStop in kinds and Byzantine in kinds
        byz = schedule.faults[kinds.index(Byzantine)]
        assert byz.rate == 0.05 and byz.color == 1
        assert schedule.stop == 9


# ---------------------------------------------------------------------------
# A faults value that configures nothing
# ---------------------------------------------------------------------------


#: A faults axis holding a fault and a zero-rate value, as TOML.
_MIXED_ZERO_TOML = """\
name = "zero rate beside a crash"
seed = 3
repetitions = 2
raise_on_limit = false

[axes]
process = ["voter"]
n = [8]
max_rounds = [400]
faults = [{ crash = 0.1 }, { loss = 0.0 }]
"""


class TestZeroRateFaults:
    @pytest.mark.parametrize(
        "value", [{}, {"crash": 0.0}, {"loss": 0.0, "start": 5}, {"stop": "none"}]
    )
    def test_no_positive_rate_canonicalises_to_none(self, value):
        assert canonical_fault_value(value) is None
        assert encode_fault_value(value) == "none"

    def test_cross_key_rules_still_run_first(self):
        with pytest.raises(ValueError, match="meaningless"):
            canonical_fault_value({"recover": 0.5})
        with pytest.raises(ValueError, match="exceed"):
            canonical_fault_value({"loss": 0.0, "start": 5, "stop": 3})

    def test_a_zero_loss_flag_parses_to_no_faults(self):
        assert parse_fault_cli(None, loss=0.0) is None
        assert parse_fault_cli("crash:p=0.0") is None

    def test_a_single_zero_rate_value_runs_to_a_store_that_loads(self, tmp_path):
        axes = {"process": ["voter"], "n": [8, 12]}
        spec = StudySpec(
            name="zero rate", seed=2, repetitions=2,
            axes={**axes, "faults": [{"loss": 0.0, "start": 5}]},
        )
        assert spec_hash(spec) == spec_hash(
            StudySpec(name="zero rate", seed=2, repetitions=2, axes=axes)
        )
        path = str(tmp_path / "s.json")
        store = run_study(spec, store_path=path)
        loaded = load_study_store(path)
        assert loaded.spec == spec
        assert loaded.results_equal(store)

    def test_cli_validates_runs_and_reports_a_zero_rate_value(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        spec_path = tmp_path / "spec.toml"
        spec_path.write_text(_MIXED_ZERO_TOML)
        store_path = str(tmp_path / "s.json")
        assert main(["study", "validate", str(spec_path)]) == 0
        assert main(["study", "run", str(spec_path), "-o", store_path]) == 0
        assert main(["study", "report", store_path]) == 0
        assert "faults(crash=0.1)" in capsys.readouterr().out

    def test_a_zero_loss_sweep_store_reports(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "s.json")
        assert main([
            "sweep", "voter", "--min-n", "8", "--max-n", "16", "-r", "2",
            "--loss", "0", "-o", path,
        ]) == 0
        assert main(["study", "report", path]) == 0
