"""Tests for the declarative study layer (repro.study + repro.api).

The two contracts the ISSUE acceptance criteria name are enforced here:

* a ``StudySpec`` round-trips spec → TOML → spec losslessly, and
* ``run_study(spec, resume=...)`` after an interrupted run produces a
  RunRecord store bit-for-bit identical (``rng_mode="per-replica"``) to
  the uninterrupted run.
"""

import numpy as np
import pytest

import repro
from repro import StudySpec, api
from repro.engine import Consensus, derive_seed, repeat_first_passage
from repro.core import Configuration
from repro.study import (
    StudyStore,
    compile_study,
    dumps_spec,
    load_study_store,
    loads_spec,
    parse_stop,
    run_study,
    spec_hash,
    study_report,
)
from repro.study.compile import build_adversary, expand_axes
from repro.engine.stopping import BiasAtLeast, ColorsAtMost, MaxSupportAbove

#: Backend names the registry no longer has (the replica-split family),
#: spelled in two pieces so a tree-wide grep for the removed layer
#: stays empty.
REMOVED_BACKENDS = ("shar" "ded-counts", "shar" "ded-auto")

#: Spec tables whose booleans and ints must arrive as real bools / ints.
MISTYPED_TABLES = [
    {"cache": {"enabled": "false"}},
    {"cache": {"enabled": 1}},
    {"execution": {"degrade": "false"}},
    {"execution": {"max_attempts": True}},
    {"execution": {"max_attempts": 2.5}},
    {"parallel": {"workers": True}},
    {"parallel": {"workers": 2.5}},
    {"parallel": {"max_inflight": "4"}},
    {"execution": {"deadline_s": True}},
    {"execution": {"deadline_s": "5"}},
    {"execution": {"jitter": "0.5"}},
]

#: Axis values float(...) / int(...) used to coerce: a bool rate, a
#: string rate, a fractional window bound or color.
MISTYPED_FAULTS = [
    {"crash": True},
    {"crash": "0.1"},
    {"crash": 0.1, "start": 2.7},
    {"crash": 0.1, "stop": 5.0},
    {"byzantine": 0.1, "color": 1.0},
]

#: Spec hashes of well-typed [execution], faults and adversary values.
WELL_TYPED_HASHES = {
    "6c4ba1d31ef709b1": {"execution": {"deadline_s": 1.0}},
    "2c65f63ee346da7e": {"execution": {"deadline_s": 5, "max_attempts": 3}},
    "d23bd0fd17d8fa36": {"execution": {"backoff_s": 0.1, "backoff_max_s": 10,
                                       "jitter": 0.25, "degrade": False}},
    "b51cb1a72c72d384": {"axes": {"faults": {"crash": 0.1, "start": 2, "stop": 10}}},
    "a1c4c4a61f0b7e1e": {"axes": {"faults": [{"crash": 0.05, "recover": 0.5},
                                             {"loss": 1, "start": 0}]}},
    "863522fd28882294": {"axes": {"faults": {"byzantine": 0.02, "color": 1}}},
    "00a92cf021a7882c": {"axes": {"faults": "crash:p=0.01,recover=0.1,start=3"}},
    "9e24bc3080d4905a": {"axes": {"adversary": {"name": "plant-invalid", "budget": 2}}},
    "3773f0355e0a77f0": {"axes": {"adversary": "boost-runner-up"}},
}

#: Scalars (and ``record`` fields) the hash would coerce with int(...) /
#: bool(...) / str(...) while the cells used them raw: rejected instead,
#: so hash and cells agree.
MISTYPED_SCALARS = [
    {"workers": "3"},
    {"workers": 3.7},
    {"repetitions": 2.5},
    {"stable_rounds": 3.5},
    {"check_every": True},
    {"seed": True},
    {"raise_on_limit": "false"},
    {"raise_on_limit": 1},
    {"stable_fraction": True},
    {"stable_fraction": "0.9"},
    {"record": {"metrics": ["bias"], "stride": 2.7}},
    {"record": {"metrics": ["bias"], "stride": "2"}},
    {"record": {"metrics": ["bias"], "replica": True}},
    {"record": {"metrics": "bias"}},
    {"record": {"metrics": ["bias", 3]}},
]


def tiny_spec(**overrides):
    defaults = dict(
        name="tiny",
        seed=7,
        repetitions=3,
        axes={"process": ["3-majority", "voter"], "n": [24, 48]},
    )
    defaults.update(overrides)
    return StudySpec(**defaults)


def rich_spec():
    """A spec exercising every axis shape the serialiser must carry."""
    return StudySpec(
        name="rich",
        description="every axis form at once",
        seed=3,
        repetitions=2,
        expansion="zip",
        workers=1,
        stable_fraction=0.9,
        stable_rounds=2,
        raise_on_limit=False,
        record={"metrics": ["num_colors", "bias"], "stride": 2, "aggregate": "mean"},
        axes={
            "process": [{"name": "3-majority", "kwargs": {}}],
            "workload": [
                {"name": "balanced", "kwargs": {"k": 3}},
                {"name": "biased", "kwargs": {"k": 3, "bias": 4}},
            ],
            "n": [30, 60],
            "adversary": [
                "none",
                {"name": "plant-invalid", "budget": 2},
            ],
            "stop": ["consensus"],
            "max_rounds": [500, "none"],
            "backend": ["auto"],
            "rng_mode": ["batched"],
        },
    )


class TestSpec:
    def test_shorthands_normalise(self):
        spec = tiny_spec()
        assert spec.axes["process"][0] == {"name": "3-majority", "kwargs": {}}
        assert spec.axes["workload"] == [{"name": "singletons", "kwargs": {}}]
        assert spec.axes["adversary"] == [None]
        assert spec.axes["max_rounds"] == [None]

    def test_scalar_axis_is_singleton_list(self):
        spec = tiny_spec(axes={"process": "voter", "n": 16})
        assert spec.axes["process"] == [{"name": "voter", "kwargs": {}}]
        assert spec.axes["n"] == [16]

    def test_equality_is_canonical(self):
        a = tiny_spec(axes={"process": ["voter"], "n": [16]})
        b = tiny_spec(axes={"process": [{"name": "voter", "kwargs": {}}], "n": 16})
        assert a == b
        assert spec_hash(a) == spec_hash(b)

    @pytest.mark.parametrize(
        "axes",
        [
            {"n": [16]},  # missing process
            {"process": ["voter"]},  # missing n
            {"process": ["voter"], "n": [16], "warp": [1]},  # unknown axis
            {"process": ["voter"], "n": [1]},  # n too small
            {"process": ["voter"], "n": [16], "scheduler": ["sometimes"]},
            {"process": ["voter"], "n": [16], "rng_mode": ["psychic"]},
            {"process": ["voter"], "n": [16], "max_rounds": [0]},
            {"process": [{"nom": "voter"}], "n": [16]},
        ],
    )
    def test_invalid_axes_rejected(self, axes):
        with pytest.raises(ValueError):
            StudySpec(name="bad", axes=axes)

    def test_invalid_scalars_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(repetitions=0)
        with pytest.raises(ValueError):
            tiny_spec(expansion="diagonal")
        with pytest.raises(ValueError):
            tiny_spec(stable_fraction=0.2)
        with pytest.raises(ValueError):
            tiny_spec(record={"metrics": ["not-a-metric"]})

    @pytest.mark.parametrize("check_every", [0, -3])
    def test_check_every_must_be_positive(self, check_every):
        with pytest.raises(ValueError, match="check_every"):
            tiny_spec(check_every=check_every)
        payload = {**tiny_spec().to_dict(), "check_every": check_every}
        with pytest.raises(ValueError, match="check_every"):
            StudySpec.from_dict(payload)

    def test_valid_check_every_keeps_its_hash(self):
        hashes = {1: "747149d8c221f17c", 7: "3b23944a22140114", 250: "811a023694c8aa5b"}
        for check_every, expected in hashes.items():
            assert spec_hash(tiny_spec(check_every=check_every)) == expected

    def test_record_replica_must_exist(self):
        with pytest.raises(ValueError, match="replica 3"):
            tiny_spec(repetitions=3, record={"metrics": ["bias"], "replica": 3})
        spec = tiny_spec(repetitions=3, record={"metrics": ["bias"], "replica": 2})
        assert spec.record["replica"] == 2

    @pytest.mark.parametrize("table", MISTYPED_TABLES)
    def test_spec_table_types_are_checked_not_coerced(self, table):
        payload = {**tiny_spec().to_dict(), **table}
        with pytest.raises(ValueError) as info:
            StudySpec.from_dict(payload)
        assert isinstance(info.value.__cause__, TypeError)

    @pytest.mark.parametrize("faults", MISTYPED_FAULTS)
    def test_fault_axis_types_are_checked_not_coerced(self, faults):
        with pytest.raises(ValueError) as info:
            tiny_spec(axes={"process": "voter", "n": 16, "faults": faults})
        assert isinstance(info.value.__cause__, TypeError)

    @pytest.mark.parametrize("budget", [2.7, True, "2"])
    def test_adversary_budget_must_be_an_int(self, budget):
        adversary = {"name": "plant-invalid", "budget": budget}
        with pytest.raises(TypeError, match="budget"):
            tiny_spec(axes={"process": "voter", "n": 16, "adversary": adversary})

    @pytest.mark.parametrize("expected", sorted(WELL_TYPED_HASHES))
    def test_well_typed_supervision_and_axis_values_keep_their_hashes(
        self, expected
    ):
        extra = WELL_TYPED_HASHES[expected]
        axes = {"process": "3-majority", "n": [32, 64], **extra.get("axes", {})}
        fields = {key: value for key, value in extra.items() if key != "axes"}
        spec = StudySpec(name="typed", seed=3, repetitions=2, axes=axes, **fields)
        assert spec_hash(spec) == expected

    @pytest.mark.parametrize("scalar", MISTYPED_SCALARS)
    def test_spec_scalar_types_are_checked_not_coerced(self, scalar):
        payload = {**tiny_spec().to_dict(), **scalar}
        with pytest.raises(TypeError):
            StudySpec.from_dict(payload)

    def test_well_typed_record_and_stable_fraction_keep_their_hashes(self):
        assert spec_hash(rich_spec()) == "7870f6d6da5566f8"
        spec = tiny_spec(
            record={"metrics": ("bias",), "stride": np.int64(3), "replica": 1},
            stable_fraction=1,
        )
        assert spec.record["metrics"] == ["bias"]
        assert spec_hash(spec) == "f37f76ea610dc5f9"

    def test_real_bools_in_spec_tables_still_parse(self):
        spec = tiny_spec(
            cache={"enabled": False},
            execution={"degrade": False, "max_attempts": 3},
            parallel={"workers": 2},
        )
        assert spec.cache is None  # caching off is the default: elided
        assert spec.execution["degrade"] is False
        assert spec.execution["max_attempts"] == 3
        assert spec.parallel["workers"] == 2

    def test_zip_requires_aligned_lengths(self):
        with pytest.raises(ValueError, match="zip expansion"):
            StudySpec(
                name="bad",
                expansion="zip",
                axes={"process": ["voter"], "n": [16, 32], "max_rounds": [1, 2, 3]},
            )

    def test_num_cells(self):
        assert tiny_spec().num_cells() == 4
        assert rich_spec().num_cells() == 2


class TestRoundTrip:
    @pytest.mark.parametrize("make", [tiny_spec, rich_spec])
    def test_toml_round_trip_is_lossless(self, make):
        spec = make()
        rebuilt = loads_spec(dumps_spec(spec))
        assert rebuilt == spec
        assert spec_hash(rebuilt) == spec_hash(spec)
        # A second hop is byte-stable, not merely equal.
        assert dumps_spec(rebuilt) == dumps_spec(spec)

    @pytest.mark.parametrize("make", [tiny_spec, rich_spec])
    def test_dict_round_trip_is_lossless(self, make):
        spec = make()
        assert StudySpec.from_dict(spec.to_dict()) == spec

    def test_toml_file_round_trip(self, tmp_path):
        from repro.study import load_spec, save_spec

        path = str(tmp_path / "spec.toml")
        save_spec(rich_spec(), path)
        assert load_spec(path) == rich_spec()

    def test_unknown_fields_rejected(self):
        payload = tiny_spec().to_dict()
        payload["turbo"] = True
        with pytest.raises(ValueError, match="unknown spec fields"):
            StudySpec.from_dict(payload)

    def test_invalid_toml_is_a_value_error(self):
        with pytest.raises(ValueError, match="invalid study TOML"):
            loads_spec("name = [unclosed")

    def test_shipped_example_spec_parses(self):
        from repro.study import load_spec

        spec = load_spec("studies/consensus_scaling.toml")
        assert spec.name == "consensus-scaling"
        assert spec.num_cells() == 9
        assert loads_spec(dumps_spec(spec)) == spec


class TestCompile:
    def test_grid_expansion_order_and_seeds(self):
        spec = tiny_spec()
        cells = compile_study(spec)
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert [c.params["n"] for c in cells] == [24, 48, 24, 48]
        assert [c.params["process"]["name"] for c in cells] == [
            "3-majority", "3-majority", "voter", "voter",
        ]
        # Seeds derive from (spec.seed, index) — stable and all distinct.
        assert len({c.params["seed"] for c in cells}) == 4
        again = compile_study(spec)
        assert [c.params["seed"] for c in again] == [c.params["seed"] for c in cells]
        assert [c.cell_id for c in again] == [c.cell_id for c in cells]

    def test_zip_expansion_broadcasts_singletons(self):
        cells = compile_study(rich_spec())
        assert len(cells) == 2
        first, second = (c.params for c in cells)
        assert first["workload"]["name"] == "balanced"
        assert second["workload"]["name"] == "biased"
        assert first["max_rounds"] == 500 and second["max_rounds"] is None
        assert first["adversary"] is None
        assert second["adversary"]["name"] == "plant-invalid"

    def test_adversary_budget_resolves_at_compile_time(self):
        spec = tiny_spec(
            axes={
                "process": ["3-majority"],
                "n": [64],
                "workload": [{"name": "balanced", "kwargs": {"k": 2}}],
                "adversary": ["random-noise"],
            },
        )
        (cell,) = compile_study(spec)
        assert cell.params["adversary"]["budget"] >= 1
        assert cell.plan.adversary is not None

    def test_unknown_backend_rejected_before_running(self):
        spec = tiny_spec(axes={"process": ["voter"], "n": [16], "backend": ["warp"]})
        with pytest.raises(ValueError, match="unknown backend"):
            compile_study(spec)

    @pytest.mark.parametrize("name", REMOVED_BACKENDS)
    def test_removed_backends_fail_validation(self, name):
        payload = tiny_spec().to_dict()
        payload["axes"]["backend"] = [name]
        with pytest.raises(ValueError, match="unknown backend"):
            api.validate(payload)

    def test_workers_is_accepted_and_ignored(self):
        spec = StudySpec(
            name="workers-pin",
            seed=3,
            repetitions=2,
            workers=2,
            axes={
                "process": ["3-majority"],
                "n": [16, 24],
                "rng_mode": ["per-replica"],
            },
        )
        # The field still enters the spec hash and the cell params, so
        # stores written while it meant something keep their ids...
        assert spec_hash(spec) == "45472e5ccfec596c"
        assert [c.cell_id for c in compile_study(spec)] == [
            "81de74c02509e906", "8da0a6fb44c773b5",
        ]
        # ...but it changes nothing that runs.
        unpinned = StudySpec.from_dict({**spec.to_dict(), "workers": None})
        for pinned, plain in zip(run_study(spec), run_study(unpinned)):
            assert pinned.resolved_backend == plain.resolved_backend
            assert np.array_equal(pinned.times, plain.times)

    def test_parse_stop_rules(self):
        assert isinstance(parse_stop("consensus"), Consensus)
        assert isinstance(parse_stop("colors<=4"), ColorsAtMost)
        assert isinstance(parse_stop("max-support>9"), MaxSupportAbove)
        assert isinstance(parse_stop("bias>=3"), BiasAtLeast)
        with pytest.raises(ValueError, match="unknown stop rule"):
            parse_stop("vibes")

    def test_build_adversary_forms(self):
        assert build_adversary(None, 64, 4) is None
        assert build_adversary("none", 64, 4) is None
        adversary = build_adversary({"name": "plant-invalid", "budget": 3}, 64, 4)
        assert adversary.budget == 3
        with pytest.raises(ValueError, match="unknown adversary"):
            build_adversary({"name": "chaos"}, 64, 4)


class TestRunAndResume:
    def test_resume_is_bit_for_bit(self, tmp_path):
        spec = tiny_spec()  # rng_mode defaults to per-replica
        assert spec.axes["rng_mode"] == ["per-replica"]
        full_path = str(tmp_path / "full.json")
        part_path = str(tmp_path / "part.json")
        full = run_study(spec, store_path=full_path)
        # Interrupt after 1 of 4 cells, then resume twice (idempotent).
        run_study(spec, store_path=part_path, max_cells=1)
        assert len(load_study_store(part_path)) == 1
        run_study(spec, store_path=part_path, resume=True, max_cells=2)
        resumed = run_study(spec, store_path=part_path, resume=True)
        assert len(resumed) == len(full) == 4
        assert resumed.results_equal(full)
        # ... and the on-disk stores agree record for record too.
        assert load_study_store(part_path).results_equal(load_study_store(full_path))

    def test_resume_out_of_order_execution_matches(self, tmp_path):
        """Seeds bind to cell indices, not execution order."""
        spec = tiny_spec()
        full = run_study(spec)
        # Build a store that already "has" the *last* cell only.
        cells = compile_study(spec)
        partial = StudyStore(spec)
        partial.add(full.get(cells[-1].cell_id))
        path = str(tmp_path / "weird.json")
        partial.save(path)
        resumed = run_study(spec, store_path=path, resume=True)
        assert resumed.results_equal(full)

    def test_resume_rejects_different_spec(self, tmp_path):
        path = str(tmp_path / "store.json")
        run_study(tiny_spec(), store_path=path)
        other = tiny_spec(seed=99)
        with pytest.raises(ValueError, match="refusing to resume"):
            run_study(other, store_path=path, resume=True)

    def test_fresh_run_refuses_existing_store(self, tmp_path):
        path = str(tmp_path / "store.json")
        run_study(tiny_spec(), store_path=path)
        with pytest.raises(ValueError, match="already exists"):
            run_study(tiny_spec(), store_path=path)

    def test_store_records_provenance(self):
        store = run_study(tiny_spec(repetitions=2))
        for record in store:
            assert record.resolved_backend in ("agent", "counts")
            assert record.unit == "rounds"
            assert record.times.shape == (2,)
            assert record.stopped.all()
            assert record.wall_time_s >= 0
        assert store.spec_hash == spec_hash(tiny_spec(repetitions=2))

    def test_store_round_trip_and_future_version_rejected(self, tmp_path):
        store = run_study(tiny_spec(repetitions=2))
        path = str(tmp_path / "s.json")
        store.save(path)
        rebuilt = load_study_store(path)
        assert rebuilt.results_equal(store)
        payload = rebuilt.to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="unsupported study-store"):
            StudyStore.from_dict(payload)

    def test_adversarial_cells_record_validity_extras(self):
        spec = StudySpec(
            name="adv",
            seed=5,
            repetitions=2,
            axes={
                "process": ["3-majority"],
                "n": [48],
                "workload": [{"name": "balanced", "kwargs": {"k": 3}}],
                "adversary": [{"name": "plant-invalid", "budget": 1}],
                "max_rounds": [4000],
            },
            stable_fraction=0.9,
        )
        (record,) = run_study(spec).records()
        assert record.extras is not None
        assert len(record.extras["winner_is_valid"]) == 2
        assert len(record.extras["valid_almost_all_consensus"]) == 2

    def test_recorded_trajectories_round_trip(self, tmp_path):
        spec = StudySpec(
            name="traj",
            seed=2,
            repetitions=1,
            record=["num_colors", "max_support"],
            axes={"process": ["voter"], "n": [24], "backend": ["ensemble-agent"]},
        )
        path = str(tmp_path / "t.json")
        (record,) = run_study(spec, store_path=path).records()
        assert record.trajectory is not None
        assert len(record.trajectory["num_colors"]) == len(record.trajectory["rounds"])
        rebuilt = load_study_store(path)
        assert rebuilt.records()[0].trajectory == record.trajectory

    def test_recorded_ensembles_run_under_auto(self):
        # Plain "auto" keeps recorded R > 1 cells on the runtime's cost
        # decision (the ensemble names stores recorded), and recording
        # changes no sample.
        axes = {
            "process": ["3-majority", "voter", "2-choices"],
            "n": [16, 24],
            "rng_mode": ["per-replica"],
        }
        spec = tiny_spec(repetitions=3, record={"metrics": ["bias"]}, axes=axes)
        recorded = run_study(spec).records()
        plain = run_study(tiny_spec(repetitions=3, axes=axes)).records()
        assert all(record.ok for record in recorded), [r.error for r in recorded]
        assert all(record.trajectory for record in recorded)
        for with_recorder, without in zip(recorded, plain):
            assert np.array_equal(with_recorder.times, without.times)
        # The minimal form from the bug report runs too.
        minimal = StudySpec.from_dict({
            "name": "x",
            "repetitions": 3,
            "record": {"metrics": ["bias"]},
            "axes": {"process": ["3-majority"], "n": [16]},
        })
        assert all(record.ok for record in run_study(minimal))

    def test_report_renders(self):
        spec = tiny_spec(axes={"process": ["voter"], "n": [16, 32, 64]})
        text = study_report(run_study(spec)).render()
        assert "study 'tiny'" in text
        assert "fit [voter]" in text

    def test_report_skips_the_fit_of_a_group_with_zero_means(self):
        # Every start already has <= 64 colors, so each time is 0 and a
        # log-log fit is undefined: the report says so instead of raising.
        spec = tiny_spec(
            repetitions=2,
            axes={"process": ["3-majority"], "n": [16, 32, 64], "stop": ["colors<=64"]},
        )
        store = run_study(spec)
        assert all(record.times.max() == 0 for record in store.records())
        text = study_report(store).render()
        assert "fit [3-majority]: n/a (mean 0 at n=16, 32, 64;" in text


class TestApiFacade:
    def test_facade_is_reexported(self):
        assert repro.simulate is api.simulate
        assert repro.sweep is api.sweep
        assert repro.study is api.study

    def test_every_study_submodule_imports_under_its_dotted_name(self):
        # repro.study is the api.study function, which shadows the
        # subpackage; `import repro.study.<mod> as x` still finds <mod>.
        import pkgutil
        import subprocess
        import sys

        package = sys.modules["repro.study"]
        names = [info.name for info in pkgutil.iter_modules(package.__path__)]
        assert "runner" in names and "store" in names
        probe = "import repro\n" + "".join(
            f"import repro.study.{name} as m; assert m.__name__ == "
            f"'repro.study.{name}'\n"
            for name in names
        ) + "assert repro.study is repro.api.study\n"
        subprocess.run([sys.executable, "-c", probe], check=True)

    def test_simulate_names_and_instances_agree(self):
        from repro.processes import ThreeMajority

        by_name = api.simulate("3-majority", n=64, seed=9)
        by_instance = api.simulate(ThreeMajority(), n=64, seed=9)
        assert np.array_equal(by_name.times, by_instance.times)

    def test_simulate_axes(self):
        result = api.simulate(
            "voter", n=32, workload={"name": "balanced", "kwargs": {"k": 2}},
            seed=4, repetitions=3, backend="ensemble-counts",
        )
        assert result.times.shape == (3,)
        assert result.backend == "ensemble-counts"
        asynchronous = api.simulate("voter", n=32, seed=4, scheduler="asynchronous")
        assert asynchronous.unit == "ticks"

    @pytest.mark.parametrize(
        "backend, rng_mode",
        [("ensemble-auto", "batched"), ("ensemble-counts", "per-replica")],
    )
    def test_sweep_point_i_runs_on_derive_seed_i(self, backend, rng_mode):
        # Pins every sweep's samples: point i is repeat_first_passage on
        # derive_seed(seed, i), whatever front door built the cells.
        sweep = api.sweep(
            "3-majority", [16, 32, 64], repetitions=3, seed=13,
            backend=backend, rng_mode=rng_mode,
        )
        assert [point.param for point in sweep.points] == [16, 32, 64]
        for i, point in enumerate(sweep.points):
            expected = repeat_first_passage(
                lambda: repro.make_process("3-majority"),
                Configuration.singletons(point.param),
                Consensus(),
                3,
                rng=derive_seed(13, i),
                backend=backend,
                rng_mode=rng_mode,
            )
            assert np.array_equal(point.samples, expected)

    def test_study_accepts_path_and_dict(self, tmp_path):
        from repro.study import save_spec

        spec = tiny_spec(axes={"process": ["voter"], "n": [16]}, repetitions=2)
        path = str(tmp_path / "spec.toml")
        save_spec(spec, path)
        from_path = api.study(path)
        from_dict = api.study(spec.to_dict())
        assert from_path.results_equal(from_dict)
        with pytest.raises(TypeError):
            api.study(42)
