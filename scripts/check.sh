#!/usr/bin/env bash
# One-command verification: tier-1 + plan-matrix + study-smoke +
# faults-smoke + supervision-smoke + serve-smoke + throughput +
# perfbench-toy.
#
# Steps:
#   1. tier-1    — the full test suite.
#   2. plan-matrix — the cross-backend matrix (bench_smoke marker).
#      Per-replica plans run one loop per family whichever backend name
#      resolves them, so the matrix pins the routing: every sequential
#      and ensemble name, and the plan-resolved "auto", give the same
#      per-replica samples on 3-Majority / 2-Choices / Voter, with and
#      without faults; the async and adversary plan axes match their
#      sequential runners; the batched kernels match the engines in
#      distribution.
#   3. study-smoke — the declarative-study resume contract end-to-end
#      through the CLI: a 2-cell StudySpec run to completion, the same
#      spec killed after one cell and resumed, both stores reported, and
#      the resumed store asserted bit-for-bit equal to the uninterrupted
#      one (per-replica rng_mode).  The same for a recorded spec
#      ([record] aggregate = "mean", R = 9, 2-Choices and 3-Majority,
#      per-replica): its cells record R > 1 trajectories through the
#      replica-by-replica loop, and the resumed store must equal the
#      uninterrupted one, trajectories included.  The same for an
#      asynchronous per-replica spec (3-Majority, 2-Choices, Voter,
#      Undecided, 2-Median, h-Majority:3; n = 16, 32; R = 3), so both
#      loops of the async scheduler run through the CLI: the stride-block
#      loop of the node-rule processes and the per-tick loop of
#      h-Majority.  `repro study validate` must refuse (exit non-zero)
#      a recorded asynchronous per-replica spec (3-Majority; n = 16,
#      32), whose cells no registered backend executes, and a spec
#      whose workload draws its start (random_composition, k = 3) with
#      no integer rng kwarg, whose cell_id would mean a new start on
#      every compile; it must accept that spec with rng = 7.  The same as
#      above for a batched recorded spec ([record]
#      aggregate = "mean"; 3-Majority, 2-Choices, Voter; n = 64,
#      balanced(k=4); both schedulers; ensemble-auto and kernel-auto;
#      R = 5): its 12 cells resolve to all five lock-step engines
#      (ensemble-counts, ensemble-agent, kernel-agent, ensemble-async,
#      kernel-async), and the resumed store must equal the uninterrupted
#      one, trajectories included.  Then the result cache's counters
#      round-trip through the CLI: the 2-cell spec runs twice over one
#      --cache-dir (all misses, then all hits, equal results), `study
#      cache stats` must report 2 hits and 2 misses, and after `study
#      cache gc` 0 and 0.  Then a warm run over that cache is cut after
#      one cell (--max-cells 1) and resumed over it: the store must equal
#      the cold one with every record a hit (the hits after the last
#      simulated cell land with the compaction).  Then two `study run`
#      processes start at once over one fresh --cache-dir, with specs
#      whose cells overlap: the first spec's two cells are the first
#      half of the second's four (a shared cell keeps its index, since
#      its seed derives from it).  A third spec covering both (the four
#      cells under another name) must then be all hits and equal a
#      --no-cache run, and `study cache stats` must report 4 entries,
#      one per distinct cell (about 3 s).  Then a 3-point
#      `repro sweep -o` round trip: the sweep's study store is
#      reported, loads with 3 complete cells, and a second identical
#      `sweep -o` must exit non-zero and leave the store results-equal
#      to the first.
#   4. faults-smoke — the failure-isolation contract: a 2-cell spec with
#      a faults axis whose crash=1.0 cell deterministically exceeds its
#      round budget.  The run still exits 0, records the failure with a
#      traceback, the report surfaces it, and resuming a store that only
#      has the healthy cell retries just the broken one — leaving the
#      healthy cell's samples bit-for-bit what the uninterrupted run got.
#   5. supervision-smoke — the execution policy's chaos story: a cell
#      whose process hangs is killed at its deadline (status="timeout",
#      run continues, resume re-attempts it), and a study subprocess is
#      SIGKILL'd mid-run, its journal truncated at a random byte offset,
#      then resumed — the resumed store must be bit-for-bit identical to
#      an uninterrupted run.
#   6. serve-smoke — the service contract end-to-end: a daemon
#      subprocess accepts studies/consensus_scaling.toml over HTTP,
#      streams ndjson progress, is SIGKILL'd mid-run, and jobs.jsonl is
#      torn (half a line, no newline) before a second daemon on the
#      same state dir resumes the job to a store bit-for-bit equal to
#      an uninterrupted foreground run (every jobs.jsonl line must then
#      decode, and the file end in a newline); then
#      resubmission dedup (attach, no recompute) and 5 renamed copies
#      served at 100% cache hits from the state-dir result cache, whose
#      median submit→done time must stay under 0.08 s (the event stream
#      wakes on each checkpoint, so a cached job waits on no timer).
#   7. smoke     — the engine-throughput benchmark in ≤30 s mode
#      (sequential vs ensemble headline, async / adversary engines,
#      fault-path overhead, the study-cache section — a cold study run,
#      then a warm rerun that must replay every cell and equal it — the
#      fused-kernel section, and the runtime's resolved-backend record
#      per section).
#   8. kernels-smoke — the fused-kernel regression gate: re-measures the
#      smoke-size kernel scenarios once (the kernels are numpy-only) and
#      fails on a >20% speedup drop vs the baselines recorded in the
#      committed BENCH_engine.json (kernels.smoke_reference), after
#      three attempts.
#   9. perfbench-toy — the end-to-end benchmark's `grid` and `daemon`
#      workloads at toy size (`perfbench/run.py --toy`, a few seconds
#      each), untraced and traced (`--trace 1`): each run must exit 0
#      and end with a JSON line reading "correct": true and "failed": 0
#      (every cell and job ok, warm passes equal to cold ones, a daemon
#      job equal to the same spec run in-process; traced, also results
#      equal to the untraced ones and layer self times plus
#      `unaccounted` equal to the traced wall time).  The tracer wraps
#      repro's entry points by name (compile_study, resolve_backend,
#      each backend's execute, Configuration.__init__,
#      StudyStore.checkpoint/compact, ResultCache.get/put,
#      CellScheduler.run), so the traced runs fail when a refactor
#      renames one.
#
#   scripts/check.sh            # everything
#   scripts/check.sh -k engine  # extra args forwarded to the tier-1 run
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest -x -q "$@"
echo "== plan-matrix: cross-backend equivalence =="
python -m pytest -x -q -m bench_smoke tests/test_runtime_matrix.py
echo "== study-smoke: save -> resume -> report, bit-for-bit (plain, recorded, async, batched); validate refuses unexecutable cells and unseeded random starts; cache counters; cut warm run resumed from the cache; concurrent cache writers; sweep -o store =="
STUDY_TMP="$(mktemp -d)"
trap 'rm -rf "$STUDY_TMP"' EXIT
cat > "$STUDY_TMP/smoke.toml" <<'EOF'
name = "check.sh study smoke"
seed = 7
repetitions = 3

[axes]
process = "3-majority"
n = [64, 96]
rng_mode = "per-replica"
EOF
python -m repro study run "$STUDY_TMP/smoke.toml" --store "$STUDY_TMP/full.json" --quiet
python -m repro study run "$STUDY_TMP/smoke.toml" --store "$STUDY_TMP/part.json" --max-cells 1 --quiet
python -m repro study resume "$STUDY_TMP/smoke.toml" --store "$STUDY_TMP/part.json" --quiet
python -m repro study report "$STUDY_TMP/part.json"
python -m repro study run "$STUDY_TMP/smoke.toml" -o "$STUDY_TMP/cold.json" --cache-dir "$STUDY_TMP/cache" --quiet
python -m repro study run "$STUDY_TMP/smoke.toml" -o "$STUDY_TMP/warm.json" --cache-dir "$STUDY_TMP/cache" --quiet
python -m repro study cache stats --dir "$STUDY_TMP/cache" | tee "$STUDY_TMP/stats.txt"
if ! grep -qF "(2 hits / 2 misses since last gc)" "$STUDY_TMP/stats.txt"; then
    echo "study-smoke FAILED: cache stats did not count 2 hits and 2 misses" >&2
    exit 1
fi
python -m repro study cache gc --dir "$STUDY_TMP/cache"
python -m repro study cache stats --dir "$STUDY_TMP/cache" | tee "$STUDY_TMP/stats.txt"
if ! grep -qF "(0 hits / 0 misses since last gc)" "$STUDY_TMP/stats.txt"; then
    echo "study-smoke FAILED: cache gc did not reset the counters" >&2
    exit 1
fi
python -m repro study run "$STUDY_TMP/smoke.toml" -o "$STUDY_TMP/cut.json" --cache-dir "$STUDY_TMP/cache" --max-cells 1 --quiet
python -m repro study resume "$STUDY_TMP/smoke.toml" --store "$STUDY_TMP/cut.json" --cache-dir "$STUDY_TMP/cache" --quiet
for part in a b c; do
    case $part in a) sizes="40, 48" ;; *) sizes="40, 48, 56, 64" ;; esac
    cat > "$STUDY_TMP/share-$part.toml" <<EOF
name = "check.sh shared cache $part"
seed = 17
repetitions = 3

[axes]
process = "3-majority"
n = [$sizes]
rng_mode = "per-replica"
EOF
done
python -m repro study run "$STUDY_TMP/share-a.toml" -o "$STUDY_TMP/share-a.json" --cache-dir "$STUDY_TMP/shared" --quiet &
writer_a=$!
python -m repro study run "$STUDY_TMP/share-b.toml" -o "$STUDY_TMP/share-b.json" --cache-dir "$STUDY_TMP/shared" --quiet &
writer_b=$!
wait "$writer_a"
wait "$writer_b"
python -m repro study run "$STUDY_TMP/share-c.toml" -o "$STUDY_TMP/share-c.json" --cache-dir "$STUDY_TMP/shared" --quiet
python -m repro study run "$STUDY_TMP/share-c.toml" -o "$STUDY_TMP/share-c-plain.json" --no-cache --quiet
python -m repro study cache stats --dir "$STUDY_TMP/shared" | tee "$STUDY_TMP/shared-stats.txt"
if ! grep -qE "^entries +: 4$" "$STUDY_TMP/shared-stats.txt"; then
    echo "study-smoke FAILED: two concurrent writers did not leave 4 distinct entries" >&2
    exit 1
fi
cat > "$STUDY_TMP/record.toml" <<'EOF'
name = "check.sh record smoke"
seed = 5
repetitions = 9

[record]
metrics = ["num_colors", "entropy", "collision_probability"]
aggregate = "mean"

[axes]
process = ["2-choices", "3-majority"]
n = 48
workload = { name = "balanced", kwargs = { k = 6 } }
rng_mode = "per-replica"
EOF
python -m repro study run "$STUDY_TMP/record.toml" --store "$STUDY_TMP/rfull.json" --quiet
python -m repro study run "$STUDY_TMP/record.toml" --store "$STUDY_TMP/rpart.json" --max-cells 1 --quiet
python -m repro study resume "$STUDY_TMP/record.toml" --store "$STUDY_TMP/rpart.json" --quiet
cat > "$STUDY_TMP/async.toml" <<'EOF'
name = "check.sh async smoke"
seed = 13
repetitions = 3

[axes]
process = ["3-majority", "2-choices", "voter", "undecided-dynamics", "2-median", "h-majority:3"]
n = [16, 32]
scheduler = "asynchronous"
rng_mode = "per-replica"
EOF
python -m repro study run "$STUDY_TMP/async.toml" --store "$STUDY_TMP/afull.json" --quiet
python -m repro study run "$STUDY_TMP/async.toml" --store "$STUDY_TMP/apart.json" --max-cells 1 --quiet
python -m repro study resume "$STUDY_TMP/async.toml" --store "$STUDY_TMP/apart.json" --quiet
cat > "$STUDY_TMP/async-recorded.toml" <<'EOF'
name = "check.sh recorded async smoke"
seed = 13
repetitions = 3

[record]
metrics = ["num_colors"]

[axes]
process = "3-majority"
n = [16, 32]
scheduler = "asynchronous"
rng_mode = "per-replica"
EOF
if python -m repro study validate "$STUDY_TMP/async-recorded.toml"; then
    echo "study-smoke FAILED: validate accepted cells no backend executes" >&2
    exit 1
fi
cat > "$STUDY_TMP/random-start.toml" <<'EOF'
name = "check.sh random start"
seed = 3
repetitions = 2

[axes]
process = "3-majority"
n = 12
workload = { name = "random_composition", kwargs = { k = 3 } }
EOF
if python -m repro study validate "$STUDY_TMP/random-start.toml"; then
    echo "study-smoke FAILED: validate accepted a random start with no integer rng" >&2
    exit 1
fi
sed 's/kwargs = { k = 3 }/kwargs = { k = 3, rng = 7 }/' \
    "$STUDY_TMP/random-start.toml" > "$STUDY_TMP/random-start-seeded.toml"
python -m repro study validate "$STUDY_TMP/random-start-seeded.toml"
cat > "$STUDY_TMP/batched.toml" <<'EOF'
name = "check.sh batched smoke"
seed = 11
repetitions = 5

[record]
metrics = ["num_colors", "entropy"]
aggregate = "mean"

[axes]
process = ["3-majority", "2-choices", "voter"]
n = 64
workload = { name = "balanced", kwargs = { k = 4 } }
scheduler = ["synchronous", "asynchronous"]
backend = ["ensemble-auto", "kernel-auto"]
rng_mode = "batched"
EOF
python -m repro study run "$STUDY_TMP/batched.toml" --store "$STUDY_TMP/bfull.json" --quiet
python -m repro study run "$STUDY_TMP/batched.toml" --store "$STUDY_TMP/bpart.json" --max-cells 1 --quiet
python -m repro study resume "$STUDY_TMP/batched.toml" --store "$STUDY_TMP/bpart.json" --quiet
python -m repro sweep voter --min-n 16 --max-n 64 -r 2 --seed 3 -o "$STUDY_TMP/sweep.json"
python -m repro study report "$STUDY_TMP/sweep.json"
cp "$STUDY_TMP/sweep.json" "$STUDY_TMP/sweep.first.json"
if python -m repro sweep voter --min-n 16 --max-n 64 -r 2 --seed 3 -o "$STUDY_TMP/sweep.json"; then
    echo "study-smoke FAILED: a second sweep -o ran over an existing store" >&2
    exit 1
fi
python - "$STUDY_TMP" <<'EOF'
import sys
from repro.study import load_study_store
tmp = sys.argv[1]
full = load_study_store(f"{tmp}/full.json")
resumed = load_study_store(f"{tmp}/part.json")
assert full.is_complete() and resumed.is_complete(), "smoke study left cells unrun"
assert resumed.results_equal(full), (
    "resumed store diverged from the uninterrupted run"
)
cold = load_study_store(f"{tmp}/cold.json")
warm = load_study_store(f"{tmp}/warm.json")
assert not any(r.cache_hit for r in cold.records()), "cold run hit the cache"
assert all(r.cache_hit for r in warm.records()), "warm run missed the cache"
assert cold.results_equal(full) and warm.results_equal(full), (
    "cached runs diverged from the uncached one"
)
cut = load_study_store(f"{tmp}/cut.json")
assert cut.results_equal(cold), "a cut warm run resumed to other results"
assert all(r.cache_hit for r in cut.records()), (
    "a cut warm run simulated a cell on resume"
)
shared = load_study_store(f"{tmp}/share-c.json")
assert all(r.cache_hit for r in shared.records()), (
    "a spec covering two concurrent writers' cells missed the cache"
)
assert shared.results_equal(load_study_store(f"{tmp}/share-c-plain.json")), (
    "the concurrently written cache replayed other results"
)
rfull = load_study_store(f"{tmp}/rfull.json")
rpart = load_study_store(f"{tmp}/rpart.json")
assert rfull.is_complete() and rpart.is_complete(), "record smoke left cells unrun"
assert len(rfull) == 2 and all(r.trajectory for r in rfull.records()), (
    "record smoke kept no trajectories"
)
assert rpart.results_equal(rfull), (
    "resumed recorded store diverged from the uninterrupted run"
)
afull = load_study_store(f"{tmp}/afull.json")
apart = load_study_store(f"{tmp}/apart.json")
assert afull.is_complete() and apart.is_complete(), "async smoke left cells unrun"
assert len(afull) == 12 and all(r.ok for r in afull.records()), (
    "async smoke has missing or failed cells"
)
assert apart.results_equal(afull), (
    "resumed asynchronous store diverged from the uninterrupted run"
)
bfull = load_study_store(f"{tmp}/bfull.json")
bpart = load_study_store(f"{tmp}/bpart.json")
assert bfull.is_complete() and bpart.is_complete(), "batched smoke left cells unrun"
assert len(bfull) == 12 and all(r.ok and r.trajectory for r in bfull.records()), (
    "batched smoke has missing or failed cells, or kept no trajectories"
)
assert {r.resolved_backend for r in bfull.records()} == {
    "ensemble-counts", "ensemble-agent", "kernel-agent",
    "ensemble-async", "kernel-async",
}, "batched smoke missed a lock-step engine"
assert bpart.results_equal(bfull), (
    "resumed batched store diverged from the uninterrupted run"
)
sweep = load_study_store(f"{tmp}/sweep.json")
assert sweep.is_complete() and len(sweep) == 3, "sweep store is missing cells"
assert sweep.results_equal(load_study_store(f"{tmp}/sweep.first.json")), (
    "a refused second sweep -o changed the store"
)
print("study-smoke OK: resumed stores (plain, recorded, asynchronous and "
      "batched) are bit-for-bit the uninterrupted ones; a warm cached run "
      "replayed every cell, also when cut and resumed; two concurrent "
      "writers left a cache that replays every cell; sweep -o wrote a "
      "3-cell store and refused to clobber it")
EOF
echo "== faults-smoke: record failure -> resume -> report =="
cat > "$STUDY_TMP/faults.toml" <<'EOF'
name = "check.sh faults smoke"
seed = 9
repetitions = 3

[axes]
process = "3-majority"
workload = { name = "balanced", kwargs = { k = 3 } }
n = 48
max_rounds = 400
rng_mode = "per-replica"
faults = ["none", { crash = 1.0 }]
EOF
# crash = 1.0 freezes every node from round 0, so that cell can never
# reach consensus and deterministically blows its 400-round budget; the
# run must still exit 0 with the failure recorded, not raise.
python -m repro study run "$STUDY_TMP/faults.toml" --store "$STUDY_TMP/ffull.json" --quiet
python -m repro study run "$STUDY_TMP/faults.toml" --store "$STUDY_TMP/fpart.json" --max-cells 1 --quiet
python -m repro study resume "$STUDY_TMP/faults.toml" --store "$STUDY_TMP/fpart.json" --quiet
python -m repro study report "$STUDY_TMP/fpart.json"
python - "$STUDY_TMP" <<'EOF'
import sys
from repro.study import load_study_store
tmp = sys.argv[1]
full = load_study_store(f"{tmp}/ffull.json")
resumed = load_study_store(f"{tmp}/fpart.json")
for store in (full, resumed):
    by_status = {record.status: record for record in store.records()}
    assert set(by_status) == {"ok", "failed"}, sorted(by_status)
    failed = by_status["failed"]
    assert failed.error["type"] == "RoundLimitExceeded", failed.error
    assert failed.error["attempts"] == 2, "failed cell was not retried"
    assert "Traceback" in failed.error["traceback"], "no traceback recorded"
ok_full = [record for record in full.records() if record.ok]
ok_resumed = [record for record in resumed.records() if record.ok]
assert len(ok_full) == len(ok_resumed) == 1
assert ok_resumed[0].same_results(ok_full[0]), (
    "resume disturbed the healthy cell's samples"
)
print("faults-smoke OK: failure recorded with traceback; healthy cell untouched")
EOF
echo "== supervision-smoke: deadline kill + torn-journal resume =="
python scripts/supervision_smoke.py
echo "== serve-smoke: daemon SIGKILL -> restart resume + dedup + cache =="
python scripts/serve_smoke.py
python benchmarks/bench_engine_throughput.py --smoke
echo "== kernels-smoke: fused-kernel regression gate =="
python benchmarks/bench_engine_throughput.py --kernels-check
echo "== perfbench-toy: grid and daemon end to end at toy size, untraced and traced, correct with 0 failures =="
for workload in grid daemon; do
    for trace in 0 1; do
        out="$STUDY_TMP/perfbench-$workload-trace$trace.txt"
        python3 perfbench/run.py --workload "$workload" --toy --trace "$trace" > "$out"
        tail -n 1 "$out" | python -c '
import json, sys
result = json.load(sys.stdin)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"perfbench-toy FAILED: {sys.argv[1]} ended with {result}")
' "$workload --trace $trace"
        echo "perfbench-toy OK: $workload --trace $trace ended correct with 0 failed"
    done
done
