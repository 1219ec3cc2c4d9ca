#!/usr/bin/env bash
# Local CI: the exact gates a PR must pass.
#   ./scripts/ci.sh
# Offline by design — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test"
cargo build --offline --release --workspace
cargo test --offline -q --workspace
# The one front end every smoke below drives.
underradar=./target/release/underradar

echo "==> full-scale churn acceptance (release-only sizing)"
cargo test --offline --release -q -p underradar-ids --lib one_million_flow_churn

echo "==> engine equivalence (grouped/DFA hot path vs reference semantics)"
# Property-driven: random rulesets and packet schedules through the
# production engine and a naive evaluate-everything reference; alert
# output must be byte-identical (see crates/ids/tests/engine_equiv.rs).
cargo test --offline --release -q -p underradar-ids --test engine_equiv

echo "==> perf bench + snapshot schema (all acceptance bounds; BENCH_perf.json drift)"
# The committed snapshot pins the bench *schema* — the set of quoted
# strings (bench names + JSON keys); timings drift run to run and are
# not compared. An unfiltered bench run rewrites the file in place, so
# stash the committed copy first and restore it after the check.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cp BENCH_perf.json "$tmpdir/BENCH_perf.committed.json"
cargo bench --offline -p underradar-bench --bench perf
grep -o '"[^"]*"' "$tmpdir/BENCH_perf.committed.json" | sort > "$tmpdir/schema_committed"
grep -o '"[^"]*"' BENCH_perf.json | sort > "$tmpdir/schema_fresh"
if ! diff -u "$tmpdir/schema_committed" "$tmpdir/schema_fresh"; then
  echo "BENCH_perf.json schema drifted: re-run 'cargo bench --bench perf' and commit the new snapshot" >&2
  cp "$tmpdir/BENCH_perf.committed.json" BENCH_perf.json
  exit 1
fi
cp "$tmpdir/BENCH_perf.committed.json" BENCH_perf.json

echo "==> e14 population-scale smoke (120k flows; batch + 1-vs-4-shard identity internal)"
# The experiment itself asserts flow residency under the per-flow byte
# budget, batched-vs-per-packet verdict identity, and 1-vs-4-shard merged
# output identity; stdout is deterministic (throughput goes to stderr),
# so a double run pins report byte-stability too.
"$underradar" experiments e14 > "$tmpdir/e14_a.txt" 2>/dev/null
"$underradar" experiments e14 > "$tmpdir/e14_b.txt" 2>/dev/null
cmp "$tmpdir/e14_a.txt" "$tmpdir/e14_b.txt"
grep -q "batched vs per-packet verdicts: identical" "$tmpdir/e14_a.txt"
grep -q "shard merged output: byte-identical" "$tmpdir/e14_a.txt"
grep -q "PASSED" "$tmpdir/e14_a.txt"

echo "==> e13 divergence-matrix smoke (35-cell golden; 1-vs-4-shard verdict identity)"
# The matrix sweep is fully deterministic (seeded impairments, trace time
# = schedule position), so a double run pins report byte-stability, the
# golden line pins the divergence count, and the shard line pins that
# worker count cannot change campaign verdicts.
"$underradar" experiments e13 > "$tmpdir/e13_a.txt" 2>/dev/null
"$underradar" experiments e13 > "$tmpdir/e13_b.txt" 2>/dev/null
cmp "$tmpdir/e13_a.txt" "$tmpdir/e13_b.txt"
grep -q "divergence matrix: 35 cells, 30 verdict flips" "$tmpdir/e13_a.txt"
grep -q "1-vs-4-shard verdicts: byte-identical" "$tmpdir/e13_a.txt"
grep -q "PASSED" "$tmpdir/e13_a.txt"

echo "==> campaign determinism smoke (sequential vs 4-shard byte identity)"
"$underradar" campaign --json --shards 1 > "$tmpdir/campaign_1.json"
"$underradar" campaign --json --shards 4 > "$tmpdir/campaign_4.json"
cmp "$tmpdir/campaign_1.json" "$tmpdir/campaign_4.json"

echo "==> impairment determinism smoke (reorder/duplicate knobs, 1 vs 4 shards)"
"$underradar" campaign --impair --json --shards 1 > "$tmpdir/campaign_impair_1.json"
"$underradar" campaign --impair --json --shards 4 > "$tmpdir/campaign_impair_4.json"
cmp "$tmpdir/campaign_impair_1.json" "$tmpdir/campaign_impair_4.json"
if cmp -s "$tmpdir/campaign_1.json" "$tmpdir/campaign_impair_1.json"; then
  echo "impairment knobs had no effect on the campaign output" >&2
  exit 1
fi

echo "==> flight-recorder smoke (--trace: report unchanged, shard-stable, chains non-empty)"
"$underradar" campaign --shards 1 > "$tmpdir/campaign_plain.txt"
"$underradar" campaign --trace --shards 1 > "$tmpdir/campaign_trace_1.txt"
"$underradar" campaign --trace --shards 4 > "$tmpdir/campaign_trace_4.txt"
# Tracing is additive: the traced output must start with the exact bytes
# of the untraced report (so leaving --trace off can never change results),
# and must itself be byte-identical across shard counts.
plain_bytes=$(wc -c < "$tmpdir/campaign_plain.txt")
head -c "$plain_bytes" "$tmpdir/campaign_trace_1.txt" | cmp - "$tmpdir/campaign_plain.txt"
cmp "$tmpdir/campaign_trace_1.txt" "$tmpdir/campaign_trace_4.txt"
# Every non-Inconclusive verdict must come with a non-empty causal chain:
# the explainer may answer "because=no-recorded-decisions" only for
# inconclusive trials.
awk '
  /^--- explain ---$/ { in_explain = 1; next }
  in_explain && /^trial=/ {
    chains++
    if ($0 !~ /verdict=inconclusive/ && $0 ~ /because=no-recorded-decisions/) {
      print "unexplained verdict: " $0; bad = 1
    }
  }
  END {
    if (chains == 0) { print "no explainer chains in traced output"; exit 1 }
    print "explainer chains: " chains
    exit bad
  }
' "$tmpdir/campaign_trace_1.txt"

echo "==> worker-count smoke (1 vs 8 workers byte identity)"
"$underradar" campaign --shards 8 > "$tmpdir/campaign_8.txt" 2>/dev/null
cmp "$tmpdir/campaign_plain.txt" "$tmpdir/campaign_8.txt"

echo "==> argument smoke (a bad command line exits 2 and names the input)"
expect_usage_error() { # expected-text, underradar args...
  local want="$1"; shift
  local status=0
  "$underradar" "$@" > /dev/null 2> "$tmpdir/bad_args.err" || status=$?
  if [ "$status" -ne 2 ] || ! grep -q -- "$want" "$tmpdir/bad_args.err"; then
    echo "underradar $* exited $status, want 2 naming $want:" >&2
    cat "$tmpdir/bad_args.err" >&2
    exit 1
  fi
}
expect_usage_error "'--shard'" campaign --shard 4
expect_usage_error "'--jsno'" experiments e2 --jsno
expect_usage_error "'--json' and '--trace'" experiments e2 --json --trace
expect_usage_error "'abc'" experiments e2 --trace-capacity abc
expect_usage_error "'--json'" experiments all --json
expect_usage_error "trial 999" campaign --synthetic 20 --trace-diff 3 999

echo "==> pipe smoke (--jsonl into a closed pipe fails stop instead of hanging)"
# head exits after one row; the sink's next write fails with EPIPE and
# the run must return promptly. A timeout (status 124) means a hang.
set +e
timeout 30 "$underradar" campaign --synthetic 20000 --shards 2 --jsonl 2>/dev/null \
  | head -1 > "$tmpdir/pipe_head.txt"
pipe_status=("${PIPESTATUS[@]}")
set -e
if [ "${pipe_status[0]}" -eq 124 ]; then
  echo "underradar campaign --jsonl hung on a closed pipe (killed after 30s)" >&2
  exit 1
fi
grep -q '^{"index":' "$tmpdir/pipe_head.txt"

echo "==> stdout pipe smoke (a closed stdout is a named error, never a panic)"
# Status 101 is a Rust panic. The e13 trace is far larger than a pipe
# buffer, so its write must meet the closed pipe: exit 1, naming stdout.
set +e
"$underradar" experiments e2 --json | head -1 > /dev/null
e2_status=${PIPESTATUS[0]}
"$underradar" experiments e13 --trace 2> "$tmpdir/stdout_pipe.err" | head -1 > /dev/null
e13_status=${PIPESTATUS[0]}
set -e
if [ "$e2_status" -eq 101 ] || [ "$e13_status" -ne 1 ]; then
  echo "closed stdout: e2 --json exited $e2_status, e13 --trace exited $e13_status (want 1)" >&2
  exit 1
fi
grep -q 'stdout: Broken pipe' "$tmpdir/stdout_pipe.err"

echo "==> safety-audit smoke (--audit: double run, 1-vs-4 and 1-vs-8-shard identity)"
# The exposure ledger rides the merged telemetry registry, so the audit
# inherits the campaign's determinism contract: byte-identical for any
# shard count. The paper
# matrix must also surface at least one declared-vs-observed divergence
# (a cell that declares itself fully evaded while the adversary holds
# attributable events).
"$underradar" campaign --audit > "$tmpdir/audit_a.txt" 2>/dev/null
"$underradar" campaign --audit > "$tmpdir/audit_b.txt" 2>/dev/null
cmp "$tmpdir/audit_a.txt" "$tmpdir/audit_b.txt"
"$underradar" campaign --audit --shards 4 > "$tmpdir/audit_4.txt" 2>/dev/null
cmp "$tmpdir/audit_a.txt" "$tmpdir/audit_4.txt"
"$underradar" campaign --audit --shards 8 > "$tmpdir/audit_8.txt" 2>/dev/null
cmp "$tmpdir/audit_a.txt" "$tmpdir/audit_8.txt"
grep -q '^divergence: ' "$tmpdir/audit_a.txt"
# Auditing is additive: the plain report's exact bytes lead the output.
head -c "$plain_bytes" "$tmpdir/audit_a.txt" | cmp - "$tmpdir/campaign_plain.txt"

echo "==> crash-resume smoke (SIGKILL mid-run, resume from journal, byte identity vs clean run)"
# A synthetic matrix big enough that the kill lands mid-run (~5s clean on
# CI hardware); the resumed run must both restore journaled trials and
# execute the remainder, and its stdout must match the uninterrupted run.
# The kill waits on progress, not on a timer: it fires once the journal
# holds >= 250 KB (about 1,000 scan records of ~247 B each, out of 30k),
# so a faster host or scheduler cannot make it miss the middle of the
# run. The wait is capped at 60 s.
n=30000
"$underradar" campaign --synthetic "$n" --shards 4 > "$tmpdir/service_clean.txt" 2>/dev/null
"$underradar" campaign --synthetic "$n" --shards 4 \
  --checkpoint "$tmpdir/ckpt.journal" > /dev/null 2>&1 &
victim=$!
journal_bytes() { if [ -f "$1" ]; then wc -c < "$1"; else echo 0; fi; }
deadline=$((SECONDS + 60))
while [ "$(journal_bytes "$tmpdir/ckpt.journal")" -lt 250000 ] \
  && kill -0 "$victim" 2>/dev/null && [ "$SECONDS" -lt "$deadline" ]; do
  sleep 0.05
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
"$underradar" campaign --synthetic "$n" --shards 4 \
  --checkpoint "$tmpdir/ckpt.journal" > "$tmpdir/service_resumed.txt" 2> "$tmpdir/service_resumed.err"
cmp "$tmpdir/service_clean.txt" "$tmpdir/service_resumed.txt"
grep -E 'service: [0-9]+ executed, [0-9]+ restored' "$tmpdir/service_resumed.err"
if grep -qE 'service: 0 executed|service: [0-9]+ executed, 0 restored' "$tmpdir/service_resumed.err"; then
  echo "crash-resume smoke did not exercise a mid-run kill (adjust n or the journal threshold)" >&2
  exit 1
fi

echo "==> telemetry-mode resume smoke (a plain journal is refused by --audit)"
# Journaled trials carry the registry of the mode that ran them; a plain
# run records none, so an audit resumed from its journal would report
# zero exposure. The journal is keyed by the telemetry mode and refused.
"$underradar" campaign --synthetic 200 --checkpoint "$tmpdir/plain.journal" > /dev/null 2>&1
set +e
"$underradar" campaign --synthetic 200 --audit --checkpoint "$tmpdir/plain.journal" \
  > /dev/null 2> "$tmpdir/mode_resume.err"
mode_resume_status=$?
set -e
if [ "$mode_resume_status" -ne 1 ]; then
  echo "--audit resumed a plain journal: exit $mode_resume_status, want 1" >&2
  exit 1
fi
grep -q 'different campaign or telemetry mode' "$tmpdir/mode_resume.err"

echo "==> progress smoke (--progress: snapshots stream on stderr, stdout untouched)"
# Interval snapshots go to stderr only; stdout must be byte-identical to
# the silent run of the same matrix (service_clean.txt from above).
"$underradar" campaign --synthetic "$n" --shards 4 --progress=5000 \
  > "$tmpdir/progress_on.txt" 2> "$tmpdir/progress_on.err"
cmp "$tmpdir/service_clean.txt" "$tmpdir/progress_on.txt"
grep -q '"rows_per_sec"' "$tmpdir/progress_on.err"

echo "CI green"
