#!/usr/bin/env bash
# One-command verification: tier-1 + plan-matrix + study-smoke +
# faults-smoke + supervision-smoke + throughput.
#
# Steps:
#   1. tier-1    — the full test suite.
#   2. plan-matrix — the cross-backend equivalence matrix (bench_smoke
#      marker): per-replica bit-for-bit agreement of sequential vs
#      ensemble vs plan-resolved "auto" on 3-Majority / 2-Choices /
#      Voter, plus the async and adversary plan axes against their
#      sequential runners.
#   3. study-smoke — the declarative-study resume contract end-to-end
#      through the CLI: a 2-cell StudySpec run to completion, the same
#      spec killed after one cell and resumed, both stores reported, and
#      the resumed store asserted bit-for-bit equal to the uninterrupted
#      one (per-replica rng_mode).
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
#   6. parallel-smoke — the concurrent-study contract: the same spec run
#      sequentially and with workers=2 (bit-for-bit results_equal), a
#      parallel subprocess SIGKILL'd mid-run and resumed to the identical
#      store, and a second run over the warm result cache replaying every
#      cell (100% hits) — plus the committed BENCH_engine.json carrying a
#      study-parallel section with positive parallel throughput.
#   7. serve-smoke — the service contract end-to-end: a daemon
#      subprocess accepts studies/consensus_scaling.toml over HTTP,
#      streams ndjson progress, is SIGKILL'd mid-run, and a second
#      daemon on the same state dir resumes the job to a store
#      bit-for-bit equal to an uninterrupted foreground run; then
#      resubmission dedup (attach, no recompute) and a renamed spec
#      served at 100% cache hits from the state-dir result cache.
#   8. smoke     — the engine-throughput benchmark in ≤30 s mode
#      (sequential vs ensemble headline, async / adversary engines,
#      fault-path overhead, the study-parallel section, the fused-kernel
#      section, and the runtime's resolved-backend record per section).
#   9. kernels-smoke — the fused-kernel regression gate: re-measures the
#      smoke-size kernel scenarios under REPRO_NO_NUMBA=0 and =1 and
#      fails on a >20% speedup drop vs the baselines recorded in the
#      committed BENCH_engine.json (kernels.smoke_reference).  Both env
#      settings run so the pure-numpy fallback is gated alongside the
#      JIT path.
#
#   scripts/check.sh            # everything
#   scripts/check.sh -k engine  # extra args forwarded to the tier-1 run
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m pytest -x -q "$@"
echo "== plan-matrix: cross-backend equivalence =="
python -m pytest -x -q -m bench_smoke tests/test_runtime_matrix.py
echo "== study-smoke: save -> resume -> report, bit-for-bit =="
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
print("study-smoke OK: resumed store is bit-for-bit the uninterrupted one")
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
echo "== parallel-smoke: workers=2 bit-for-bit + SIGKILL resume + warm cache =="
python scripts/parallel_smoke.py
echo "== serve-smoke: daemon SIGKILL -> restart resume + dedup + cache =="
python scripts/serve_smoke.py
python benchmarks/bench_engine_throughput.py --smoke
echo "== kernels-smoke: fused-kernel regression gate (numba + numpy fallback) =="
REPRO_NO_NUMBA=0 python benchmarks/bench_engine_throughput.py --kernels-check
REPRO_NO_NUMBA=1 python benchmarks/bench_engine_throughput.py --kernels-check
