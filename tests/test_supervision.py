"""Tests for supervised execution: policy, deadlines, degradation, journal.

The four pillars of the execution policy layer:

* the ``ExecutionPolicy`` vocabulary — canonical dicts, default elision
  (an all-default policy serialises to nothing, so every pre-existing
  ``spec_hash`` survives), error classification and deterministic
  backoff;
* classified retries in ``_record_cell`` — fatal errors fail fast,
  transient errors retry with backoff, unknown errors keep the
  historical retry;
* the degradation ladder — transient exhaustion on an ensemble or
  kernel backend re-resolves down to the sequential engine, stamps
  ``degraded_from``, and the per-replica rng contract keeps the result
  bit-for-bit;
* the crash-safe journal — fsync'd per-record checkpoint lines, torn
  tails salvaged (never raised), and resume completing the wreckage
  bit-for-bit.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import StudySpec
from repro.engine.runtime import degradation_ladder, execute as real_execute
from repro.engine.simulator import RoundLimitExceeded
from repro.study import (
    CellDeadlineExceeded,
    ExecutionPolicy,
    StudyStore,
    as_execution_policy,
    canonical_policy_value,
    compile_study,
    dumps_spec,
    encode_policy_value,
    journal_path,
    load_study_store,
    loads_spec,
    resolve_policy,
    run_study,
    spec_hash,
    study_report,
)
from repro.study import runner as runner_module
from repro.study.policy import backoff_delay, classify_error
from repro.study.runner import _execute_within, _record_cell


def one_cell_spec(backend="auto", *, seed=5, **spec_overrides):
    defaults = dict(
        name="supervised",
        seed=seed,
        repetitions=3,
        axes={
            "process": ["3-majority"],
            "n": [48],
            "backend": [backend],
            "rng_mode": ["per-replica"],
        },
    )
    defaults.update(spec_overrides)
    return StudySpec(**defaults)


def one_cell(backend="auto", **kwargs):
    return compile_study(one_cell_spec(backend, **kwargs))[0]


def fast_policy(**overrides):
    """A policy that never sleeps between retries (test speed)."""
    defaults = dict(backoff_s=0.0)
    defaults.update(overrides)
    return ExecutionPolicy(**defaults)


# ---------------------------------------------------------------------------
# The policy vocabulary
# ---------------------------------------------------------------------------


class TestPolicyVocabulary:
    def test_defaults_collapse_to_none(self):
        assert canonical_policy_value(None) is None
        assert canonical_policy_value({}) is None
        assert canonical_policy_value(ExecutionPolicy()) is None
        assert canonical_policy_value(
            {"max_attempts": 2, "deadline_s": "none"}
        ) is None
        assert encode_policy_value({}) is None

    def test_canonical_fills_defaults(self):
        value = canonical_policy_value({"max_attempts": 3})
        assert value == {
            "deadline_s": None,
            "max_attempts": 3,
            "backoff_s": 0.05,
            "backoff_max_s": 30.0,
            "jitter": 0.5,
            "degrade": True,
        }
        # Encoding drops the default-valued keys again.
        assert encode_policy_value(value) == {"max_attempts": 3}

    def test_unknown_keys_rejected(self):
        with pytest.raises(KeyError, match="unknown execution keys"):
            canonical_policy_value({"retries": 3})

    @pytest.mark.parametrize(
        "bad",
        [
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
            {"max_attempts": 0},
            {"jitter": 1.5},
            {"backoff_s": -0.1},
            {"backoff_max_s": -1.0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            canonical_policy_value(bad)

    def test_as_execution_policy(self):
        policy = ExecutionPolicy(max_attempts=4)
        assert as_execution_policy(policy) is policy
        assert as_execution_policy(None) == ExecutionPolicy()
        assert as_execution_policy({"deadline_s": 60}) == ExecutionPolicy(
            deadline_s=60.0
        )

    def test_resolve_precedence_and_overrides(self):
        spec_value = {"max_attempts": 5, "deadline_s": 100.0}
        # The spec table wins over defaults...
        assert resolve_policy(None, spec_value).max_attempts == 5
        # ...an explicit policy wins over the spec table...
        explicit = ExecutionPolicy(max_attempts=7)
        assert resolve_policy(explicit, spec_value).max_attempts == 7
        assert resolve_policy(explicit, spec_value).deadline_s is None
        # ...and the CLI-style overrides patch whichever base won.
        patched = resolve_policy(
            None, spec_value, max_attempts=1, deadline_s=9.0
        )
        assert patched.max_attempts == 1
        assert patched.deadline_s == 9.0


class TestClassifyAndBackoff:
    def test_classification(self):
        assert classify_error(MemoryError()) == "transient"
        assert classify_error(OSError("disk")) == "transient"
        assert classify_error(ValueError("bad plan")) == "fatal"
        assert classify_error(TypeError("bad type")) == "fatal"
        assert classify_error(KeyError("missing")) == "fatal"
        # Unknown errors (e.g. a stochastic round-limit blowout) keep the
        # historical retry-on-sub-seed behaviour.
        assert classify_error(RuntimeError("???")) == "unknown"
        assert classify_error(
            RoundLimitExceeded("voter", 10, "consensus")
        ) == "unknown"

    def test_transient_opt_in_attribute(self):
        class FlakyConfig(ValueError):
            transient = True

        assert classify_error(FlakyConfig("wire glitch")) == "transient"

    def test_backoff_is_deterministic_and_bounded(self):
        policy = ExecutionPolicy(backoff_s=0.1, backoff_max_s=1.0, jitter=0.5)
        for attempt in (1, 2, 3, 4, 5):
            base = min(0.1 * 2.0 ** (attempt - 1), 1.0)
            delay = backoff_delay(policy, 123, attempt)
            assert delay == backoff_delay(policy, 123, attempt)
            assert 0.5 * base <= delay <= 1.5 * base
        # Different cells (and attempts) jitter differently.
        assert backoff_delay(policy, 123, 1) != backoff_delay(policy, 124, 1)

    def test_backoff_edge_cases(self):
        policy = ExecutionPolicy(backoff_s=0.2, jitter=0.0)
        assert backoff_delay(policy, 1, 0) == 0.0
        assert backoff_delay(policy, 1, 1) == 0.2
        assert backoff_delay(fast_policy(), 1, 3) == 0.0


# ---------------------------------------------------------------------------
# The [execution] spec table
# ---------------------------------------------------------------------------


class TestSpecExecutionTable:
    def test_default_policy_preserves_spec_hash(self):
        bare = one_cell_spec()
        defaulted = one_cell_spec(execution={"max_attempts": 2})
        assert defaulted.execution is None
        assert spec_hash(defaulted) == spec_hash(bare)
        assert "[execution]" not in dumps_spec(defaulted)
        assert [c.cell_id for c in compile_study(defaulted)] == [
            c.cell_id for c in compile_study(bare)
        ]

    def test_non_default_policy_round_trips(self):
        spec = one_cell_spec(
            execution={"deadline_s": 60.0, "max_attempts": 3}
        )
        text = dumps_spec(spec)
        assert "[execution]" in text
        reloaded = loads_spec(text)
        assert spec_hash(reloaded) == spec_hash(spec)
        assert reloaded.execution["deadline_s"] == 60.0
        assert reloaded.execution["max_attempts"] == 3
        # The supervision table changes the hash (it is spec content)...
        assert spec_hash(spec) != spec_hash(one_cell_spec())
        # ...but never the cells: supervision is not measurement.
        assert [c.cell_id for c in compile_study(spec)] == [
            c.cell_id for c in compile_study(one_cell_spec())
        ]

    def test_invalid_execution_rejected_with_context(self):
        with pytest.raises(ValueError, match="execution"):
            one_cell_spec(execution={"max_attempts": 0})
        with pytest.raises((KeyError, ValueError), match="execution"):
            one_cell_spec(execution={"retries": 9})

    def test_spec_table_drives_the_runner(self, monkeypatch):
        calls = []

        def failing(plan):
            calls.append(plan)
            raise RuntimeError("stochastic blowout")

        monkeypatch.setattr(runner_module, "execute", failing)
        spec = one_cell_spec(
            execution={"max_attempts": 3, "backoff_s": 0.0}
        )
        store = run_study(spec)
        (record,) = store.records()
        assert record.status == "failed"
        assert record.error["attempts"] == 3
        assert len(calls) == 3


# ---------------------------------------------------------------------------
# Classified retries in the runner
# ---------------------------------------------------------------------------


class TestRetryClassification:
    def test_fatal_errors_fail_fast(self, monkeypatch):
        calls = []

        def fatal(plan):
            calls.append(plan)
            raise ValueError("deterministic config error")

        monkeypatch.setattr(runner_module, "execute", fatal)
        record = _record_cell(
            one_cell(), on_error="record", policy=fast_policy(max_attempts=4)
        )
        assert record.status == "failed"
        assert record.error["type"] == "ValueError"
        assert record.error["attempts"] == 1
        assert len(calls) == 1
        assert record.degraded_from is None
        assert len(record.error["attempt_walls_s"]) == 1

    def test_transient_errors_retry_then_succeed(self, monkeypatch):
        calls = []

        def flaky(plan):
            calls.append(plan)
            if len(calls) == 1:
                raise OSError("resource temporarily unavailable")
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute", flaky)
        record = _record_cell(
            one_cell(), on_error="record", policy=fast_policy()
        )
        assert record.ok
        assert record.error is None
        assert record.degraded_from is None
        assert len(calls) == 2
        # The retry runs on a jittered sub-seed, not the pristine plan.
        assert calls[1].rng != calls[0].rng

    def test_unknown_errors_keep_historical_retry(self, monkeypatch):
        calls = []

        def unknown(plan):
            calls.append(plan)
            raise RuntimeError("round limit")

        monkeypatch.setattr(runner_module, "execute", unknown)
        record = _record_cell(
            one_cell(), on_error="record", policy=fast_policy()
        )
        assert record.status == "failed"
        assert record.error["attempts"] == 2
        assert len(calls) == 2
        assert record.degraded_from is None  # unknown ≠ transient: no ladder

    def test_raise_mode_propagates_first_error(self, monkeypatch):
        calls = []

        def flaky(plan):
            calls.append(plan)
            raise MemoryError("out of memory")

        monkeypatch.setattr(runner_module, "execute", flaky)
        with pytest.raises(MemoryError):
            _record_cell(one_cell(), on_error="raise", policy=fast_policy())
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_ladder_shape(self):
        assert degradation_ladder("ensemble-counts") == ("counts",)
        assert degradation_ladder("ensemble-agent") == ("agent",)
        assert degradation_ladder("ensemble-adversary-counts") == ("adversary",)
        assert degradation_ladder("kernel-agent") == ("agent",)
        assert degradation_ladder("kernel-async") == ("async",)
        assert degradation_ladder("counts") == ()
        assert degradation_ladder("no-such-backend") == ()

    def test_transient_exhaustion_degrades_bit_for_bit(self, monkeypatch):
        def oom(plan):
            if plan.backend == "ensemble-counts":
                raise MemoryError("ensemble matrix too large")
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute", oom)
        store = run_study(
            one_cell_spec("ensemble-counts"),
            policy=fast_policy(max_attempts=1),
        )
        (record,) = store.records()
        assert record.ok
        assert record.degraded_from == "ensemble-counts"
        assert record.resolved_backend == "counts"
        # The per-replica contract: the degraded record carries exactly
        # the samples the sequential reference produces.
        reference = run_study(one_cell_spec("counts"), on_error="raise")
        (ref_record,) = reference.records()
        assert np.array_equal(record.times, ref_record.times)
        assert np.array_equal(record.stopped, ref_record.stopped)
        # ...and the report marks the degradation honestly.
        text = str(study_report(store))
        assert "DEGRADED" in text
        assert "ensemble-counts" in text

    @pytest.mark.parametrize("aggregate", [None, "mean"])
    def test_failed_attempts_leave_no_rounds_in_the_trajectory(
        self, monkeypatch, aggregate
    ):
        # Each attempt, and the degraded rung, records into its own copy
        # of the cell's recorder: a recorded R > 1 cell whose ensemble
        # attempts die mid-run degrades to `counts` and keeps exactly
        # the trajectory a clean `counts` run records.
        record = {"metrics": ["num_colors", "entropy"]}
        if aggregate is not None:
            record["aggregate"] = aggregate

        def dies_mid_run(plan):
            if plan.backend == "ensemble-counts":
                plan.recorder.observe(0, np.array([48]))
                raise MemoryError("ensemble matrix too large")
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute", dies_mid_run)
        store = run_study(
            one_cell_spec("ensemble-counts", record=record),
            policy=fast_policy(max_attempts=2),
        )
        (degraded,) = store.records()
        assert degraded.degraded_from == "ensemble-counts"
        reference = run_study(one_cell_spec("counts", record=record))
        (clean,) = reference.records()
        assert degraded.trajectory == clean.trajectory
        assert np.array_equal(degraded.times, clean.times)

    def test_degradation_disabled_records_failure(self, monkeypatch):
        def disk_full(plan):
            raise OSError("no space left on device")

        monkeypatch.setattr(runner_module, "execute", disk_full)
        store = run_study(
            one_cell_spec("ensemble-counts"),
            policy=fast_policy(max_attempts=1, degrade=False),
        )
        (record,) = store.records()
        assert record.status == "failed"
        assert record.error["type"] == "OSError"
        assert record.degraded_from is None


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_timeout_recorded_and_run_continues(self, monkeypatch):
        calls = []

        def hang_first(plan):
            calls.append(plan)
            if len(calls) == 1:
                time.sleep(30.0)
            return real_execute(plan)

        monkeypatch.setattr(runner_module, "execute", hang_first)
        spec = one_cell_spec(axes={
            "process": ["3-majority"],
            "n": [24, 48],
            "rng_mode": ["per-replica"],
        })
        store = run_study(spec, deadline_s=0.2)
        records = store.records()
        assert len(records) == 2
        timed_out, healthy = records
        assert timed_out.status == "timeout"
        assert timed_out.error["deadline_s"] == 0.2
        assert timed_out.error["attempts"] == 1  # hangs are not retried in-run
        assert timed_out.error["attempt_walls_s"][0] == pytest.approx(
            0.2, abs=0.15
        )
        assert healthy.ok
        assert store.timeouts() == [timed_out]
        text = str(study_report(store))
        assert "TIMEOUT" in text and "timed out" in text

    def test_resume_reattempts_timeout(self, tmp_path, monkeypatch):
        spec = one_cell_spec(axes={
            "process": ["3-majority"],
            "n": [24, 48],
            "rng_mode": ["per-replica"],
        })
        reference = run_study(spec)
        store_path = str(tmp_path / "study.json")
        calls = []

        def hang_first(plan):
            calls.append(plan)
            if len(calls) == 1:
                time.sleep(30.0)
            return real_execute(plan)

        with monkeypatch.context() as patch:
            patch.setattr(runner_module, "execute", hang_first)
            interrupted = run_study(spec, store_path=store_path, deadline_s=0.2)
        assert len(interrupted.timeouts()) == 1
        assert not os.path.exists(journal_path(store_path))  # compacted
        resumed = run_study(spec, store_path=store_path, resume=True)
        assert resumed.is_complete()
        assert resumed.results_equal(reference)

    def test_raise_mode_still_enforces_deadline(self, monkeypatch):
        def hang(plan):
            time.sleep(30.0)

        monkeypatch.setattr(runner_module, "execute", hang)
        with pytest.raises(CellDeadlineExceeded):
            _record_cell(
                one_cell(),
                on_error="raise",
                policy=ExecutionPolicy(deadline_s=0.2),
            )

    def test_no_deadline_is_a_no_op(self, monkeypatch):
        """No deadline: the attempt runs inline — no alarm, no thread."""
        seen = []

        def record(plan):
            seen.append((plan, threading.get_ident()))
            return "result"

        monkeypatch.setattr(runner_module, "execute", record)
        before = signal.getitimer(signal.ITIMER_REAL)
        assert _execute_within("plan", None) == "result"
        assert seen == [("plan", threading.get_ident())]
        assert signal.getitimer(signal.ITIMER_REAL) == before


# ---------------------------------------------------------------------------
# The journaled store
# ---------------------------------------------------------------------------


def _journal_only(path: str, spec: StudySpec, records) -> str:
    """Checkpoint ``records`` into a journal and simulate a hard kill.

    The handle is closed without :meth:`StudyStore.compact`, so only the
    sidecar journal exists afterwards — the exact on-disk state a
    ``kill -9`` mid-study leaves behind.  With no records the journal
    holds its header alone, as a kill inside the first checkpoint's
    write can leave it (a store adopts its journal at that checkpoint).
    """
    from repro.study.store import _journal_line

    store = StudyStore(spec)
    store.begin_journal(path)
    for record in records:
        store.add(record)
        store.checkpoint(record)
    if store._journal is None:
        with open(journal_path(path), "wb") as handle:
            handle.write(_journal_line(store._journal_header()))
    else:
        store._journal.close()
        store._journal = None
    return journal_path(path)


class TestJournaledStore:
    def test_journal_alone_rebuilds_the_store(self, tmp_path):
        spec = one_cell_spec()
        reference = run_study(spec)
        path = str(tmp_path / "store.json")
        _journal_only(path, spec, reference.records())
        loaded = load_study_store(path)
        assert loaded.salvage is None
        assert loaded.results_equal(reference)

    def test_torn_tail_is_salvaged_not_raised(self, tmp_path):
        spec = one_cell_spec(axes={
            "process": ["3-majority"],
            "n": [24, 48],
            "rng_mode": ["per-replica"],
        })
        reference = run_study(spec)
        path = str(tmp_path / "store.json")
        jpath = _journal_only(path, spec, reference.records())
        with open(jpath, "r+b") as handle:
            handle.truncate(os.path.getsize(jpath) - 10)
        loaded = load_study_store(path)
        assert loaded.salvage is not None
        assert loaded.salvage["bytes_discarded"] > 0
        assert len(loaded) == 1  # the record in flight is lost, no more
        assert "SALVAGED" in str(study_report(loaded))

    def test_mid_journal_corruption_stops_at_the_tear(self, tmp_path):
        spec = one_cell_spec(axes={
            "process": ["3-majority"],
            "n": [24, 48],
            "rng_mode": ["per-replica"],
        })
        reference = run_study(spec)
        path = str(tmp_path / "store.json")
        jpath = _journal_only(path, spec, reference.records())
        lines = open(jpath, "rb").read().splitlines(keepends=True)
        # Flip one byte inside the *first record* line: the CRC check
        # must reject it and everything after it is unreachable.
        broken = bytearray(lines[1])
        broken[len(broken) // 2] ^= 0xFF
        with open(jpath, "wb") as handle:
            handle.write(lines[0] + bytes(broken) + lines[2])
        loaded = load_study_store(path)
        assert loaded.salvage is not None
        assert len(loaded) == 0
        assert loaded.salvage["records_salvaged"] == 0

    def test_non_object_record_row_is_salvaged_as_a_tear(self, tmp_path):
        from repro.study.store import _journal_line

        spec = one_cell_spec()
        reference = run_study(spec)
        path = str(tmp_path / "store.json")
        jpath = _journal_only(path, spec, reference.records())
        # CRC-valid, so only the decoder can reject it.
        with open(jpath, "ab") as handle:
            handle.write(_journal_line({"record": [1]}))
        loaded = load_study_store(path)
        assert loaded.salvage is not None
        assert loaded.salvage["records_salvaged"] == 1
        assert loaded.results_equal(reference)

    def test_a_checkpoint_after_a_non_record_row_stays_visible(self, tmp_path):
        """Resuming adopts the prefix the load reads: the CRC-valid row
        the load stops at is cut, not appended after, so the records the
        resumed run checkpoints load before any compaction."""
        from repro.study.store import _journal_line

        spec = one_cell_spec(axes={
            "process": ["3-majority"],
            "n": [24, 48],
            "rng_mode": ["per-replica"],
        })
        first, second = run_study(spec).records()
        path = str(tmp_path / "store.json")
        jpath = _journal_only(path, spec, [first])
        bad = _journal_line({"record": [1]})
        with open(jpath, "ab") as handle:
            handle.write(bad)
        salvage = load_study_store(path).salvage
        assert salvage["bytes_discarded"] == len(bad)
        resumed = load_study_store(path)
        resumed.begin_journal(path)
        resumed.add(second)
        resumed.checkpoint(second)
        resumed._journal.close()
        loaded = load_study_store(path)
        assert loaded.salvage is None
        assert [r.cell_id for r in loaded.records()] == [
            first.cell_id, second.cell_id,
        ]

    def test_an_empty_journal_beside_a_store_is_no_salvage(self, tmp_path):
        # A resume killed inside its first checkpoint, before any byte
        # reached the journal it adopted, leaves it empty: nothing was torn.
        spec = one_cell_spec()
        path = str(tmp_path / "store.json")
        reference = run_study(spec, store_path=path)
        open(journal_path(path), "wb").close()
        loaded = load_study_store(path)
        assert loaded.salvage is None
        assert loaded.results_equal(reference)

    def test_resume_completes_a_torn_journal_bit_for_bit(self, tmp_path):
        spec = one_cell_spec(axes={
            "process": ["3-majority"],
            "n": [24, 48, 96],
            "rng_mode": ["per-replica"],
        })
        reference = run_study(spec)
        path = str(tmp_path / "store.json")
        jpath = _journal_only(path, spec, reference.records())
        with open(jpath, "r+b") as handle:
            handle.truncate(os.path.getsize(jpath) - 25)
        resumed = run_study(spec, store_path=path, resume=True)
        assert resumed.is_complete()
        assert resumed.results_equal(reference)
        assert not os.path.exists(jpath)  # compacted into the base JSON
        assert load_study_store(path).results_equal(reference)

    def test_compaction_crash_duplicates_converge(self, tmp_path):
        # A kill between save() and the journal unlink leaves the same
        # record in both files; replay must upsert, not raise.
        spec = one_cell_spec()
        reference = run_study(spec)
        path = str(tmp_path / "store.json")
        reference.save(path)
        _journal_only(path, spec, reference.records())
        loaded = load_study_store(path)
        assert len(loaded) == 1
        assert loaded.results_equal(reference)

    def test_fresh_run_refuses_leftover_journal(self, tmp_path):
        spec = one_cell_spec()
        path = str(tmp_path / "store.json")
        _journal_only(path, spec, [])
        with pytest.raises(ValueError, match="already exists"):
            run_study(spec, store_path=path)

    def test_foreign_journal_rejected(self, tmp_path):
        path = str(tmp_path / "store.json")
        run_study(one_cell_spec(), store_path=path)
        other = one_cell_spec(seed=99)
        _journal_only(path, other, [])
        with pytest.raises(ValueError, match="spec_hash"):
            load_study_store(path)
        with pytest.raises(ValueError, match="spec_hash"):
            run_study(one_cell_spec(), store_path=path, resume=True)

    def test_torn_header_with_no_base_reads_as_missing(self, tmp_path):
        spec = one_cell_spec()
        path = str(tmp_path / "store.json")
        jpath = _journal_only(path, spec, [])
        with open(jpath, "r+b") as handle:
            handle.truncate(7)
        with pytest.raises(FileNotFoundError):
            load_study_store(path)
        # resume=True treats it as a fresh start and completes anyway.
        store = run_study(spec, store_path=path, resume=True)
        assert store.is_complete()
        assert not os.path.exists(jpath)

    def test_checkpoint_requires_begin_journal(self):
        spec = one_cell_spec()
        store = run_study(spec)
        with pytest.raises(RuntimeError, match="begin_journal"):
            StudyStore(spec).checkpoint(store.records()[0])

    def test_v2_and_v1_stores_upgrade_in_memory(self, tmp_path):
        import json

        spec = one_cell_spec()
        store = run_study(spec)
        payload = store.to_dict()
        # A v2 file: no degraded_from column, version stamp 2.
        payload["format_version"] = 2
        del payload["columns"]["degraded_from"]
        path = str(tmp_path / "v2.json")
        with open(path, "w") as handle:
            json.dump(payload, handle)
        loaded = load_study_store(path)
        assert loaded.records()[0].degraded_from is None
        assert loaded.results_equal(store)
