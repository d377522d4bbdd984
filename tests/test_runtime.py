"""Unit tests for the unified runtime (repro.engine.plan / runtime).

Covers plan validation, registry mechanics (registration, lookup,
aliases), the cost model's resolution decisions, rejection errors for
capability mismatches, the recorder threading rules, and the
``rng_mode`` plumbing through :func:`repro.api.sweep`.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro import api
from repro.adversary import PlantInvalid
from repro.core import Configuration
from repro.engine import (
    BackendSpec,
    Consensus,
    EnsembleMetricRecorder,
    MetricRecorder,
    SimulationPlan,
    backend_choices,
    backend_names,
    backend_specs,
    execute,
    get_backend,
    register_backend,
    repeat_first_passage,
    resolve_backend,
)
from repro.engine.runtime import _REGISTRY
from repro.processes import ThreeMajority, TwoChoices, Voter, make_process


def _plan(**overrides):
    kwargs = dict(
        process=ThreeMajority,
        initial=Configuration.balanced(120, 3),
        stop=Consensus(),
        repetitions=4,
        rng=7,
    )
    kwargs.update(overrides)
    return SimulationPlan(**kwargs)


class TestPlanValidation:
    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError):
            _plan(repetitions=0)
        with pytest.raises(ValueError):
            _plan(scheduler="sometimes")
        with pytest.raises(ValueError):
            _plan(rng_mode="psychic")
        with pytest.raises(ValueError):
            _plan(stable_fraction=0.4, adversary=PlantInvalid(1, invalid_color=9))
        with pytest.raises(ValueError):
            _plan(max_rounds=0)

    @pytest.mark.parametrize("check_every", [0, -3])
    def test_rejects_non_positive_check_every(self, check_every):
        with pytest.raises(ValueError, match="check_every"):
            _plan(scheduler="asynchronous", check_every=check_every)

    def test_adversary_requires_synchronous_scheduler(self):
        with pytest.raises(ValueError):
            _plan(
                scheduler="asynchronous",
                adversary=PlantInvalid(1, invalid_color=9),
            )

    def test_spawn_process_accepts_instances_and_factories(self):
        process = ThreeMajority()
        assert _plan(process=process).spawn_process() is process
        built = _plan(process=ThreeMajority).spawn_process()
        assert built.name == process.name

    def test_schedule_wraps_bare_adversaries(self):
        plan = _plan(adversary=PlantInvalid(1, invalid_color=9))
        assert plan.schedule().adversary.budget == 1
        with pytest.raises(ValueError):
            _plan().schedule()


class TestRegistry:
    def test_choices_cover_names_and_aliases(self):
        names = backend_names()
        choices = backend_choices()
        assert set(names) <= set(choices)
        for alias in ("auto", "sequential-auto", "ensemble-auto", "kernel-auto"):
            assert alias in choices
        assert len(backend_specs()) == len(names)

    def test_registry_has_the_eleven_in_process_backends(self):
        kinds = [spec.kind for spec in backend_specs()]
        assert len(backend_names()) == 11
        assert (
            kinds.count("sequential"), kinds.count("ensemble"), kinds.count("kernel")
        ) == (4, 5, 2)

    def test_unknown_backend_lists_vocabulary(self):
        with pytest.raises(ValueError, match="ensemble-counts"):
            get_backend("warp-drive")
        with pytest.raises(ValueError):
            execute(_plan(backend="warp-drive"))

    def test_duplicate_and_reserved_registration_rejected(self):
        existing = get_backend("agent")
        with pytest.raises(ValueError):
            register_backend(existing)
        class Fake:
            spec = BackendSpec(
                name="auto", kind="ensemble", scheduler="synchronous",
                adversary=False, representation="agent",
                requires_counts_tractable=False, description="reserved clash",
            )
        with pytest.raises(ValueError):
            register_backend(Fake())

    def test_custom_backend_registers_and_resolves(self):
        inner = get_backend("ensemble-agent")
        class Custom:
            spec = BackendSpec(
                name="custom-test", kind="ensemble", scheduler="synchronous",
                adversary=False, representation="agent",
                requires_counts_tractable=False, description="test double",
            )
            def supports(self, plan):
                return inner.supports(plan)
            def eligible(self, plan):
                return False  # never auto-picked
            def cost(self, plan):
                return inner.cost(plan)
            def execute(self, plan):
                return inner.execute(plan)
        try:
            register_backend(Custom())
            result = execute(_plan(backend="custom-test"))
            assert result.all_stopped
        finally:
            _REGISTRY.pop("custom-test", None)


class TestResolution:
    def test_auto_prefers_counts_chain_for_repeated_ac_runs(self):
        assert resolve_backend(_plan()).spec.name == "ensemble-counts"

    def test_auto_prefers_sequential_for_single_runs(self):
        assert resolve_backend(_plan(repetitions=1)).spec.kind == "sequential"

    def test_auto_routes_wide_slot_plans_to_the_fused_kernel(self):
        # Beyond the count chain's slot limit the plain counts backends
        # drop out; the fused kernel (whose active-slot compaction makes
        # wide starts cheap) is now the batched winner, while per-replica
        # exact streams still fall back to the agent ensemble.
        plan = _plan(initial=Configuration.singletons(8192))
        assert resolve_backend(plan).spec.name == "kernel-agent"
        per_replica = _plan(
            initial=Configuration.singletons(8192), rng_mode="per-replica"
        )
        assert resolve_backend(per_replica).spec.name == "ensemble-agent"

    def test_non_ac_process_resolves_to_agent_family(self):
        # 2-Choices is not an AC-process, but its switch-and-redistribute
        # form makes the fused kernel the batched winner; exact-stream
        # plans keep resolving to the agent representation.
        plan = _plan(process=TwoChoices)
        assert resolve_backend(plan).spec.name == "kernel-agent"
        per_replica = _plan(process=TwoChoices, rng_mode="per-replica")
        assert resolve_backend(per_replica).spec.name == "ensemble-agent"

    def test_counts_backend_rejects_non_ac_process(self):
        for name in ("counts", "ensemble-counts"):
            with pytest.raises(TypeError):
                resolve_backend(_plan(process=TwoChoices, backend=name))

    def test_counts_backends_reject_h_majority_beyond_its_enumeration_limit(self):
        # Exact 3-majority enumeration covers at most 12 colors: a named
        # count backend must refuse a 32-color start when it resolves,
        # not accept it and raise in the middle of a run.
        wide = dict(
            process=lambda: make_process("h-majority:3"),
            initial=Configuration.singletons(32),
        )
        for rng_mode in ("batched", "per-replica"):
            for name in ("counts", "ensemble-counts"):
                plan = _plan(backend=name, rng_mode=rng_mode, **wide)
                assert not get_backend(name).supports(plan)
                with pytest.raises(ValueError, match="cannot execute"):
                    resolve_backend(plan)
            auto = resolve_backend(_plan(rng_mode=rng_mode, **wide))
            assert auto.spec.representation == "agent"
            narrow = _plan(
                backend="counts", rng_mode=rng_mode,
                process=lambda: make_process("h-majority:3"),
            )
            assert resolve_backend(narrow).spec.name == "counts"

    def test_axis_mismatch_rejected_with_guidance(self):
        plan = _plan(
            adversary=PlantInvalid(1, invalid_color=9), backend="ensemble-agent"
        )
        with pytest.raises(ValueError, match="ensemble-adversary"):
            resolve_backend(plan)

    def test_adversary_alias_resolution_adapts_to_the_axis(self):
        plan = _plan(
            adversary=PlantInvalid(1, invalid_color=9), backend="ensemble-auto"
        )
        assert resolve_backend(plan).spec.name == "ensemble-adversary-counts"
        per_replica = _plan(
            adversary=PlantInvalid(1, invalid_color=9),
            backend="ensemble-auto",
            rng_mode="per-replica",
        )
        # The count-level robust chain is batched-only.
        assert resolve_backend(per_replica).spec.name == "ensemble-adversary-agent"


class TestExecutionSurface:
    def test_sequential_recorder_single_run(self):
        recorder = MetricRecorder(names=("num_colors",))
        result = execute(_plan(repetitions=1, backend="counts", recorder=recorder))
        assert result.all_stopped
        assert len(recorder) >= 1

    @pytest.mark.parametrize(
        "make_recorder, repetitions",
        [
            (lambda: MetricRecorder(names=("num_colors", "max_support")), 9),
            (lambda: EnsembleMetricRecorder(names=("bias", "entropy"), replica=2), 9),
            (lambda: EnsembleMetricRecorder(
                names=("num_colors", "entropy", "collision_probability"),
                aggregate="mean",
            ), 9),
            (lambda: EnsembleMetricRecorder(names=("entropy",), aggregate="mean"), 1),
        ],
        ids=["plain", "replica-2", "mean", "mean-R1"],
    )
    @pytest.mark.parametrize(
        "process, sequential, ensemble",
        [(TwoChoices, "agent", "ensemble-agent"),
         (ThreeMajority, "counts", "ensemble-counts")],
    )
    def test_sequential_backends_record_batches_like_ensembles(
        self, make_recorder, repetitions, process, sequential, ensemble
    ):
        # Recorded per-replica plans run the same replica loop on the
        # sequential and ensemble names, so they record the same
        # trajectories (in the same floats) as well as the same samples.
        recorders, times = [], []
        for name in (sequential, ensemble):
            recorder = make_recorder()
            plan = _plan(
                process=process, initial=Configuration.balanced(60, 4),
                repetitions=repetitions, rng_mode="per-replica", recorder=recorder,
                backend=name,
            )
            result = execute(plan)
            assert result.backend == name
            recorders.append(recorder)
            times.append(result.times)
        assert np.array_equal(times[0], times[1])
        first, second = recorders
        assert len(first) > 1 and first.rounds == second.rounds
        for metric in first.names:
            a, b = first.series(metric), second.series(metric)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), metric

    def test_legacy_auto_is_the_sequential_reference(self):
        initial = Configuration.balanced(120, 3)
        legacy = repeat_first_passage(
            ThreeMajority, initial, Consensus(), 5, rng=13, backend="auto"
        )
        counts = repeat_first_passage(
            ThreeMajority, initial, Consensus(), 5, rng=13, backend="counts"
        )
        assert np.array_equal(legacy, counts)

    @pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.serve"])
    def test_import_leaves_multiprocessing_unloaded(self, module):
        # Every backend runs in-process, and scipy / networkx are imported
        # inside the few functions that call them: no start-up path pays
        # for a process pool or for either library.
        probe = (
            f"import sys, {module}\n"
            "print(sorted({'multiprocessing', 'scipy', 'networkx'}\n"
            "             & {m.split('.')[0] for m in sys.modules}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_study_run_with_a_fit_leaves_scipy_unloaded(self, tmp_path):
        spec = tmp_path / "fit.toml"
        spec.write_text(
            'name = "fit probe"\nseed = 3\nrepetitions = 2\n\n'
            '[axes]\nprocess = "3-majority"\nn = [16, 24, 32]\n'
        )
        probe = (
            "import sys, repro.cli\n"
            f"repro.cli.main(['study', 'run', {str(spec)!r}, "
            f"'--store', {str(tmp_path / 'fit.store.json')!r}])\n"
            "print(sorted({'scipy', 'networkx'}\n"
            "             & {m.split('.')[0] for m in sys.modules}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
        ).stdout
        assert "fit [3-majority]: y ≈" in out
        assert out.strip().splitlines()[-1] == "[]"

    def test_execution_result_metadata(self):
        result = execute(_plan(backend="ensemble-counts"))
        assert result.backend == "ensemble-counts"
        assert result.unit == "rounds"
        assert result.repetitions == 4
        assert result.raw.backend == "counts"


class TestSweepThreading:
    def test_rng_mode_threads_through_sweeps(self):
        kwargs = dict(
            workload={"name": "balanced", "kwargs": {"k": 4}},
            repetitions=4,
            seed=7,
        )
        reference = api.sweep("voter", [16, 32], backend="counts", **kwargs)
        per_replica = api.sweep(
            "voter", [16, 32], backend="ensemble-counts",
            rng_mode="per-replica", **kwargs
        )
        for a, b in zip(reference.points, per_replica.points):
            assert np.array_equal(a.samples, b.samples)

    def test_adversary_sweep_accepts_per_n_factories(self):
        result = api.sweep(
            "3-majority",
            [64, 128],
            workload={"name": "balanced", "kwargs": {"k": 3}},
            repetitions=3,
            seed=3,
            max_rounds=3000,
            adversary={"name": "plant-invalid", "budget": 2},
        )
        assert len(result.points) == 2
        assert all(p.summary.count == 3 for p in result.points)

    def test_async_sweep_measures_ticks(self):
        result = api.sweep(
            "3-majority",
            [32, 64],
            workload={"name": "balanced", "kwargs": {"k": 2}},
            repetitions=3,
            seed=5,
            scheduler="asynchronous",
        )
        # Ticks run ~n per synchronous-round equivalent.
        assert result.points[0].summary.mean > 32
