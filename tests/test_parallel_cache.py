"""Tests for cell dispatch, the ``[parallel]`` table and the result cache.

The contracts under test:

* **accepted and ignored** — ``workers=`` and the ``[parallel]`` spec
  table keep their validation and their hashes, and change no result;
  cells run one after another on the calling thread, and a SIGKILL
  mid-run resumes to the same store bit-for-bit;
* **deadlines off the main thread** — a study driven from another
  thread (every ``repro serve`` job) still times a hung cell out;
* **provenance-clean caching** — the result cache replays only clean
  records, keyed by cell identity (spec name is *not* part of it, so
  overlapping studies share entries), stamps ``cache_hit`` without
  perturbing ``same_results``, and shrugs off corrupt entries.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import StudySpec, api
from repro.cli import main
from repro.engine.runtime import execute as real_execute
from repro.study import (
    ResultCache,
    canonical_cache_value,
    canonical_parallel_value,
    compile_study,
    dumps_spec,
    journal_path,
    loads_spec,
    run_study,
    save_spec,
    spec_hash,
)
from repro.study import runner as runner_module
from repro.study.scheduler import CellScheduler


def grid_spec(**overrides):
    defaults = dict(
        name="parallel grid",
        seed=13,
        repetitions=2,
        axes={
            "process": ["3-majority", "voter"],
            "n": [24, 48],
            "rng_mode": ["per-replica"],
        },
    )
    defaults.update(overrides)
    return StudySpec(**defaults)


# ---------------------------------------------------------------------------
# The [parallel] / [cache] vocabulary
# ---------------------------------------------------------------------------


class TestVocabulary:
    def test_parallel_canonicalisation(self):
        assert canonical_parallel_value(None) is None
        assert canonical_parallel_value(1) is None  # workers=1 is the default
        assert canonical_parallel_value(4) == {"workers": 4, "max_inflight": None}
        assert canonical_parallel_value({"workers": 1}) is None
        with pytest.raises(ValueError):
            canonical_parallel_value(0)
        with pytest.raises(KeyError, match="unknown parallel keys"):
            canonical_parallel_value({"workers": 2, "nope": 1})
        with pytest.raises(TypeError):
            canonical_parallel_value(True)

    def test_cache_canonicalisation(self):
        assert canonical_cache_value(None) is None
        assert canonical_cache_value(False) is None
        assert canonical_cache_value(True) == {"enabled": True, "dir": None}
        # A bare directory implies enabled.
        assert canonical_cache_value("/tmp/c") == {"enabled": True, "dir": "/tmp/c"}
        assert canonical_cache_value({"enabled": False}) is None
        with pytest.raises(KeyError, match="unknown cache keys"):
            canonical_cache_value({"directory": "/tmp/c"})

    def test_default_tables_elide_from_hash(self):
        plain = grid_spec()
        assert spec_hash(grid_spec(parallel=1)) == spec_hash(plain)
        assert spec_hash(grid_spec(cache=False)) == spec_hash(plain)
        assert spec_hash(grid_spec(parallel=2)) != spec_hash(plain)
        assert "[parallel]" not in dumps_spec(plain)
        assert "[cache]" not in dumps_spec(plain)

    def test_tables_round_trip_through_toml(self, tmp_path):
        spec = grid_spec(
            parallel={"workers": 2, "max_inflight": 6},
            cache={"dir": str(tmp_path / "c"), "enabled": False},
        )
        assert loads_spec(dumps_spec(spec)) == spec


# ---------------------------------------------------------------------------
# Dispatch: workers= and [parallel] are ignored, cells run in order
# ---------------------------------------------------------------------------


def hang_small(plan):
    """Hang the n=24 cell for 3 s; run every other cell for real."""
    if plan.initial.num_nodes == 24:
        time.sleep(3.0)
    return real_execute(plan)


def hang_spec():
    return grid_spec(axes={
        "process": ["3-majority"],
        "n": [24, 48],
        "rng_mode": ["per-replica"],
    })


class TestParallelEquality:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_matches_sequential(self, workers):
        sequential = run_study(grid_spec())
        parallel = api.study(grid_spec(), workers=workers)
        assert parallel.results_equal(sequential)
        assert [r.status for r in parallel.records()] == ["ok"] * 4

    def test_parallel_table_keeps_its_hash_and_changes_no_result(self):
        spec = grid_spec(
            name="parallel-pin",
            seed=5,
            parallel={"workers": 2, "max_inflight": 6},
            axes={
                "process": ["3-majority"],
                "n": [16, 24],
                "rng_mode": ["per-replica"],
            },
        )
        # The table still enters the spec hash, never the cell ids...
        assert spec_hash(spec) == "74edb5f1b8a4fbcd"
        assert [c.cell_id for c in compile_study(spec)] == [
            "9bf9ff09ec8514d8", "f98be754c37a8abb",
        ]
        # ...and neither it nor workers= changes a result.
        reference = run_study(spec)
        assert api.study(spec, workers=2).results_equal(reference)
        plain = run_study(StudySpec.from_dict(
            {k: v for k, v in spec.to_dict().items() if k != "parallel"}
        ))
        assert spec_hash(plain.spec) != spec_hash(spec)
        for with_table, without in zip(reference.records(), plain.records()):
            assert with_table.same_results(without)
        assert [r.status for r in reference.records()] == ["ok"] * 2

    @pytest.mark.parametrize("workers", [0, True])
    def test_api_study_still_checks_workers(self, workers):
        with pytest.raises((TypeError, ValueError)):
            api.study(grid_spec(), workers=workers)

    def test_removed_workers_flag_is_a_usage_error(self, tmp_path):
        spec_path = str(tmp_path / "spec.toml")
        save_spec(grid_spec(), spec_path)
        with pytest.raises(SystemExit) as info:
            main(["study", "run", spec_path, "--workers", "2"])
        assert info.value.code == 2
        assert not os.path.exists(str(tmp_path / "spec.store.json"))

    def test_scheduler_runs_cells_in_order_on_the_calling_thread(self):
        threads = []

        def run_cell(cell):
            threads.append(threading.get_ident())
            return cell * 10

        pairs = list(CellScheduler(run_cell).run(iter(range(4))))
        assert pairs == [(0, 0), (1, 10), (2, 20), (3, 30)]
        assert threads == [threading.get_ident()] * 4

    def test_sigkill_mid_parallel_run_resumes_bitwise(self, tmp_path):
        spec = grid_spec(
            name="parallel kill",
            repetitions=3,
            axes={
                "process": ["3-majority"],
                "n": [32, 48, 64, 80, 96, 128],
                "rng_mode": ["per-replica"],
            },
        )
        reference = run_study(spec)
        spec_path = str(tmp_path / "spec.toml")
        save_spec(spec, spec_path)
        store_path = str(tmp_path / "killed.json")
        jpath = journal_path(store_path)

        child_src = (
            "import sys, time\n"
            "from repro import api\n"
            "api.study(sys.argv[1], store_path=sys.argv[2],\n"
            "          progress=lambda cell, record: time.sleep(0.2))\n"
        )
        env = {
            **os.environ,
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
        }
        for attempt in range(5):
            child = subprocess.Popen(
                [sys.executable, "-c", child_src, spec_path, store_path], env=env
            )
            try:
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    if child.poll() is not None:
                        break
                    try:
                        with open(jpath, "rb") as handle:
                            if handle.read().count(b"\n") >= 2:
                                break
                    except FileNotFoundError:
                        pass
                    time.sleep(0.01)
                if child.poll() is None:
                    child.send_signal(signal.SIGKILL)
                    child.wait()
                    if os.path.exists(jpath):
                        break  # the kill landed mid-run
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
            for stale in (store_path, jpath):  # child won the race: retry
                if os.path.exists(stale):
                    os.remove(stale)
        else:
            raise AssertionError("could not SIGKILL the parallel study mid-run")

        assert not os.path.exists(store_path), "SIGKILL must skip compaction"
        resumed = run_study(spec, store_path=store_path, resume=True)
        assert resumed.is_complete()
        assert resumed.results_equal(reference)
        assert not os.path.exists(jpath), "journal not compacted after resume"

    def test_timeout_of_one_inflight_cell_spares_siblings(self, monkeypatch):
        monkeypatch.setattr(runner_module, "execute", hang_small)
        store = run_study(hang_spec(), deadline_s=0.2)
        hung, healthy = store.records()
        assert hung.status == "timeout"
        assert hung.error["deadline_s"] == 0.2
        assert healthy.ok, "the sibling cell must survive the timeout"

    def test_deadline_holds_off_the_main_thread(self, monkeypatch):
        monkeypatch.setattr(runner_module, "execute", hang_small)
        outcome = {}

        def drive():
            start = time.perf_counter()
            outcome["store"] = run_study(hang_spec(), deadline_s=0.2)
            outcome["wall"] = time.perf_counter() - start

        study_thread = threading.Thread(target=drive)
        study_thread.start()
        study_thread.join(30.0)
        assert not study_thread.is_alive()
        hung, healthy = outcome["store"].records()
        assert hung.status == "timeout"
        assert hung.error["deadline_s"] == 0.2
        assert hung.error["attempts"] == 1
        assert healthy.ok, "the sibling cell must survive the timeout"
        assert outcome["wall"] < 1.5, outcome["wall"]


# ---------------------------------------------------------------------------
# The content-addressed result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_study(grid_spec(), cache=cache_dir)
        assert all(not r.cache_hit for r in cold.records())
        warm = run_study(grid_spec(), cache=cache_dir)
        assert all(r.cache_hit for r in warm.records())
        assert warm.results_equal(cold)  # cache_hit is not part of identity
        stats = ResultCache(cache_dir).stats()
        assert stats["entries"] == 4
        assert stats["hits"] == 4 and stats["misses"] == 4

    def test_overlapping_spec_shares_entries(self, tmp_path):
        """Cell identity is params+seed, not the spec name: a renamed spec
        with the same axes replays every record from the first study.
        The *stores* are distinct artifacts (different ``spec_hash``), so
        the overlap shows record by record, not via ``results_equal``."""
        cache_dir = str(tmp_path / "cache")
        first = run_study(grid_spec(), cache=cache_dir)
        renamed = grid_spec(name="same grid, different study")
        assert spec_hash(renamed) != spec_hash(grid_spec())
        second = run_study(renamed, cache=cache_dir)
        assert all(r.cache_hit for r in second.records())
        for record in second.records():
            assert record.same_results(first.get(record.cell_id))

    def test_resumed_run_consults_the_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        reference = run_study(grid_spec())
        # A partial run caches what it completed; a fresh store on the
        # same spec replays those cells and computes only the rest.
        store_path = str(tmp_path / "partial.json")
        run_study(grid_spec(), store_path=store_path, max_cells=2,
                  cache=cache_dir)
        resumed = run_study(grid_spec(), store_path=store_path, resume=True,
                            cache=cache_dir)
        assert resumed.is_complete()
        assert resumed.results_equal(reference)
        fresh = run_study(grid_spec(), cache=cache_dir)
        assert all(r.cache_hit for r in fresh.records())

    def test_corrupt_entry_is_warned_and_recomputed(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_study(grid_spec(), cache=cache_dir)
        cache = ResultCache(cache_dir)
        victim = compile_study(grid_spec())[0]
        path = cache.entry_path(victim.cell_id)
        with open(path, "r+b") as handle:
            handle.write(b"garbage")
        with pytest.warns(RuntimeWarning, match="cache"):
            store = run_study(grid_spec(), cache=cache_dir)
        by_id = {r.cell_id: r for r in store.records()}
        assert not by_id[victim.cell_id].cache_hit  # recomputed
        hits = [r for r in store.records() if r.cache_hit]
        assert len(hits) == 3, "the other entries must still replay"
        assert not os.path.exists(path) or cache.get(victim.cell_id) is not None

    def test_non_object_entry_is_warned_and_missed(self, tmp_path):
        from repro.study.store import _journal_line

        cache = ResultCache(str(tmp_path / "cache"))
        cell = compile_study(grid_spec())[0]
        path = cache.entry_path(cell.cell_id)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as handle:
            handle.write(_journal_line([1, 2]))  # CRC-valid, not a record
        with pytest.warns(RuntimeWarning, match="corrupt result-cache entry"):
            assert cache.get(cell.cell_id) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert not os.path.exists(path)

    def test_failed_records_are_never_cached(self, tmp_path, monkeypatch):
        def fail_small(plan):
            if plan.initial.num_nodes == 24:
                raise ValueError("boom")
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute", fail_small)
        cache_dir = str(tmp_path / "cache")
        spec = grid_spec(axes={
            "process": ["3-majority"],
            "n": [24, 48],
            "rng_mode": ["per-replica"],
        })
        store = run_study(spec, cache=cache_dir, max_attempts=1)
        failed, healthy = store.records()
        assert failed.status == "failed" and healthy.ok
        cache = ResultCache(cache_dir)
        assert cache.get(failed.cell_id) is None
        assert cache.get(healthy.cell_id) is not None

    def test_gc_expires_and_evicts(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_study(grid_spec(), cache=cache_dir)
        cache = ResultCache(cache_dir)
        assert cache.stats()["entries"] == 4
        report = cache.gc(max_age_s=0.0)
        assert report == {"removed": 4, "entries": 0, "bytes": 0}
        assert cache.stats()["entries"] == 0
        # LRU eviction: refill, then squeeze to a byte budget.
        run_study(grid_spec(), cache=cache_dir)
        total = cache.stats()["bytes"]
        report = cache.gc(max_bytes=total // 2)
        assert 0 < report["entries"] < 4
        assert report["bytes"] <= total // 2
