#!/usr/bin/env bash
# Tier-1 verify as one command: check formatting, build everything in
# release mode, run the whole-workspace test suite, and hold the tree to
# zero clippy warnings. The workspace has no external dependencies, so
# this runs fully offline.
#
# The test suite runs under a worker × shard matrix — LOVM_THREADS ∈ {1,4}
# crossed with LOVM_SHARDS ∈ {1,8} — because two layers each guarantee
# invariant output: the parallel execution layer (crates/par) is
# bit-identical at any worker count, and the sharded market engine
# (auction::shard) is bit-identical to the monolithic path on the top-K
# rounds the LOVM loop runs (LOVM_SHARDS only re-routes those rounds).
# Every cell includes the golden-output suite (crates/bench
# tests/golden_experiments.rs: every exp_e* bin's stdout vs
# tests/golden/*.md) and the payment-engine differential suite
# (crates/auction tests/pivot_equivalence.rs: incremental vs naive vs
# oracle, bit-identical), so all four cells re-prove both contracts off
# the same snapshots.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release
for shards in 1 8; do
  for threads in 1 4; do
    echo "ci: test pass LOVM_SHARDS=$shards LOVM_THREADS=$threads"
    LOVM_SHARDS=$shards LOVM_THREADS=$threads cargo test -q
  done
done
# One more whole-suite pass with eight test threads regardless of the
# machine's core count, so a race between tests that share process-global
# state (the counting allocator, the telemetry switch) shows up even on a
# one-CPU box, where libtest would otherwise run them one at a time.
echo "ci: test pass --test-threads=8"
cargo test -q -- --test-threads=8
# One more whole-suite pass with telemetry live: the sink is a real file,
# so every golden-output and determinism test re-proves the pure-observer
# contract with recording and emission enabled (the zero-alloc audit also
# covers its telemetry-on phase under a configured global sink).
telemetry_log=$(mktemp)
echo "ci: test pass LOVM_TELEMETRY=$telemetry_log"
LOVM_TELEMETRY="$telemetry_log" cargo test -q
rm -f "$telemetry_log"
cargo clippy --all-targets -- -D warnings

# Smoke the sharded-market experiment: a 10⁵-bidder (scale 0.1) budgeted
# round through partition → per-shard solve → champion reconciliation.
LOVM_SCALE=0.1 ./target/release/exp_e14_sharding > /dev/null
echo "ci: exp_e14_sharding smoke ok"

# Smoke the streaming-ingestion experiment at both worker counts: the
# virtual-time driver is deterministic, so both passes must produce the
# byte-identical table set (the golden suite already pins its content).
e15_ref=""
for t in 1 4; do
  out=$(LOVM_SCALE=0.1 LOVM_THREADS=$t ./target/release/exp_e15_streaming)
  if [ "$t" = 1 ]; then
    e15_ref="$out"
  elif [ "$out" != "$e15_ref" ]; then
    echo "ci: FAIL — exp_e15_streaming output differs between LOVM_THREADS=1 and =4"
    exit 1
  fi
done
echo "ci: exp_e15_streaming smoke ok (thread-invariant)"

# Smoke the strategic-adversary gate across the full shard × thread
# matrix: the binary itself exits nonzero if any regret cell dips below
# -1e-9 (a profitable deviation — a truthfulness break) or if no
# adversary strictly loses, and because e16 pins every topology per cell
# in code, all four passes must also produce byte-identical tables.
e16_ref=""
for shards in 1 8; do
  for t in 1 4; do
    if ! out=$(LOVM_SCALE=0.1 LOVM_SHARDS=$shards LOVM_THREADS=$t \
        ./target/release/exp_e16_adversary); then
      echo "ci: FAIL — exp_e16_adversary truthfulness gate broke at LOVM_SHARDS=$shards LOVM_THREADS=$t"
      printf '%s\n' "$out" | tail -5
      exit 1
    fi
    if [ -z "$e16_ref" ]; then
      e16_ref="$out"
    elif [ "$out" != "$e16_ref" ]; then
      echo "ci: FAIL — exp_e16_adversary output differs at LOVM_SHARDS=$shards LOVM_THREADS=$t"
      exit 1
    fi
  done
done
echo "ci: exp_e16_adversary truthfulness gate ok (shard- and thread-invariant)"

# Smoke the payment-path benchmark in both modes (tiny sample counts: this
# checks the bins run and report, not the timings themselves) and gate the
# payment-engine regression: the incremental leave-one-out engine must stay
# at least 5x faster than the naive per-winner re-solve for the n=1024
# budgeted payment path on a single worker. The win is algorithmic
# (O(n·G) total DP work vs O(n²·G)), so one core is exactly where it must
# show.
bench_out=""
for t in 1 4; do
  out=$(LOVM_THREADS=$t LOVM_BENCH_SAMPLES=5 LOVM_BENCH_BATCH_NS=200000 \
    ./target/release/bench_payments)
  if [ "$t" = 1 ]; then bench_out="$out"; fi
done

median_of() {
  # `|| true`: a missing row must fall through to the awk diagnostic below,
  # not kill the script via set -e / pipefail at the assignment.
  printf '%s\n' "$bench_out" | { grep -F "\"bench\":\"payment_engine/$1\"" || true; } \
    | sed 's/.*"median_ns":\([0-9.e+-]*\).*/\1/'
}
naive_ns=$(median_of "1024_naive")
incremental_ns=$(median_of "1024_incremental")
awk -v n="$naive_ns" -v i="$incremental_ns" 'BEGIN {
  if (n == "" || i == "" || i <= 0) {
    print "ci: payment_engine rows missing from bench_payments output"; exit 1
  }
  speedup = n / i
  printf "ci: payment engine n=1024 speedup %.2fx (naive %.0f ns, incremental %.0f ns)\n", speedup, n, i
  if (speedup < 5.0) {
    print "ci: FAIL — incremental payment engine below the 5x floor at n=1024"; exit 1
  }
}'

# Smoke the solver roofline in both thread modes and gate the arena-vs-
# legacy regression: on the capped budgeted n=4096 row (the shape a LOVM
# round actually solves — budget plus max_winners), the production arena
# solver must stay at least 1.3x faster than the frozen allocating
# reference kernels (auction::properties::reference_solve_view, timed as
# the `legacy` rows). The win is micro-architectural (no per-item traceback
# allocation, saturated-span skipping, word-packed flags), so one worker is
# where it must show; LOVM_THREADS only exercises that the bin runs under
# both.
solver_out=""
for t in 1 4; do
  out=$(LOVM_THREADS=$t LOVM_BENCH_SAMPLES=5 LOVM_BENCH_BATCH_NS=200000 \
    ./target/release/bench_solver)
  if [ "$t" = 1 ]; then solver_out="$out"; fi
done
solver_median_of() {
  printf '%s\n' "$solver_out" | { grep -F "\"bench\":\"solver/$1\"" || true; } \
    | sed 's/.*"median_ns":\([0-9.e+-]*\).*/\1/'
}
legacy_ns=$(solver_median_of "budgetcap_n4096_g4000_legacy")
arena_ns=$(solver_median_of "budgetcap_n4096_g4000_arena")
awk -v l="$legacy_ns" -v a="$arena_ns" 'BEGIN {
  if (l == "" || a == "" || a <= 0) {
    print "ci: solver rows missing from bench_solver output"; exit 1
  }
  speedup = l / a
  printf "ci: solver arena n=4096 g=4000 budget+cap speedup %.2fx (legacy %.0f ns, arena %.0f ns)\n", speedup, l, a
  if (speedup < 1.3) {
    print "ci: FAIL — arena solver below the 1.3x floor on the capped budgeted n=4096 row"; exit 1
  }
}'
# The roofline artifact must be valid JSON with the expected shape, proven
# by re-parsing the file through metrics::json (`--check` runs the parser
# and schema assertions without re-benchmarking).
if ! [ -s BENCH_solver.json ]; then
  echo "ci: FAIL — bench_solver did not write BENCH_solver.json"; exit 1
fi
if ! ./target/release/bench_solver --check BENCH_solver.json; then
  echo "ci: FAIL — BENCH_solver.json failed metrics::json validation"; exit 1
fi
echo "ci: BENCH_solver.json written and parse-validated"

# Telemetry overhead gate: observing the full streamed round loop must
# cost no more than 5% vs telemetry disabled. bench_telemetry times the
# two modes as back-to-back pairs (no sink, so the delta is pure
# recording) and reports the median per-pair on/off ratio — pairing is
# what makes the gate stable on a noisy box, where sequential phases
# drift by far more than the effect being measured.
tel_bench=$(LOVM_THREADS=1 LOVM_BENCH_SAMPLES=25 ./target/release/bench_telemetry)
ratio=$(printf '%s\n' "$tel_bench" \
  | { grep -F "\"bench\":\"telemetry_stream/overhead\"" || true; } \
  | sed 's/.*"median_ratio":\([0-9.e+-]*\).*/\1/')
awk -v r="$ratio" 'BEGIN {
  if (r == "" || r <= 0) {
    print "ci: overhead row missing from bench_telemetry output"; exit 1
  }
  printf "ci: telemetry round-loop overhead %+.2f%% (paired median)\n", (r - 1.0) * 100
  if (r > 1.05) {
    print "ci: FAIL — telemetry overhead above the 5% ceiling"; exit 1
  }
}'

# Kill-and-recover smoke for the event-sourced market server: run an
# uninterrupted reference session, then the same session interrupted by
# SIGKILL with a round's arrivals journaled but unsealed, restart the
# server from its journal, and require the client's concatenated sealed
# lines and final state line to be byte-identical to the reference. The
# drive client regenerates bids deterministically from the seed, so the
# re-drive after the crash re-sends exactly what the torn tail lost.
smoke_dir=$(mktemp -d)
serve_pid=""
follower_pid=""
cleanup_serve() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
  [ -n "$follower_pid" ] && kill "$follower_pid" 2>/dev/null || true
  rm -rf "$smoke_dir"
}
trap cleanup_serve EXIT

start_server() { # $1 = journal dir, $2 = log file; sets serve_addr/serve_pid
  LOVM_JOURNAL="$1" LOVM_SNAPSHOT_EVERY=2 LOVM_COMPACT="${compact_every:-0}" \
    ./target/release/lovm serve --addr 127.0.0.1:0 --v 20 --budget 2 >"$2" 2>&1 &
  serve_pid=$!
  serve_addr=""
  for _ in $(seq 1 100); do
    serve_addr=$(sed -n 's/^listening on //p' "$2")
    [ -n "$serve_addr" ] && break
    sleep 0.1
  done
  if [ -z "$serve_addr" ]; then
    echo "ci: FAIL — lovm serve did not come up"
    exit 1
  fi
}
stop_server() { # $1 = signal
  kill "-$1" "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  serve_pid=""
}
drive() {
  ./target/release/lovm drive --addr "$serve_addr" --session smoke \
    --seed 7 --bidders 6 "$@" 2>/dev/null
}

start_server "$smoke_dir/ref" "$smoke_dir/ref.log"
drive --from 0 --to 8 >"$smoke_dir/ref.out"
stop_server TERM

start_server "$smoke_dir/crash" "$smoke_dir/c1.log"
drive --from 0 --to 4 >"$smoke_dir/c1.out"
# Journal round 4's arrivals but never seal them, then SIGKILL mid-round.
drive --from 4 --to 5 --partial >/dev/null
stop_server KILL

start_server "$smoke_dir/crash" "$smoke_dir/c2.log"
drive --from 0 --to 8 >"$smoke_dir/c2.out"
stop_server TERM

cat "$smoke_dir/c1.out" "$smoke_dir/c2.out" \
  | { grep '"event":"sealed"' || true; } >"$smoke_dir/crash.sealed"
{ grep '"event":"sealed"' "$smoke_dir/ref.out" || true; } >"$smoke_dir/ref.sealed"
if ! diff -q "$smoke_dir/crash.sealed" "$smoke_dir/ref.sealed" >/dev/null; then
  echo "ci: FAIL — recovered server's sealed rounds differ from the uninterrupted run"
  diff "$smoke_dir/crash.sealed" "$smoke_dir/ref.sealed" || true
  exit 1
fi
if ! diff -q <(grep '"event":"state"' "$smoke_dir/c2.out") \
            <(grep '"event":"state"' "$smoke_dir/ref.out") >/dev/null; then
  echo "ci: FAIL — recovered server's final state differs from the uninterrupted run"
  exit 1
fi
echo "ci: serve kill-and-recover smoke ok (byte-identical after SIGKILL)"

# Kill-and-promote smoke for live replication: a leader serves with
# journal compaction on, `lovm follow` replicates it into its own journal
# directory, the leader is SIGKILLed mid-round (a round's arrivals
# journaled but unsealed), the follower promotes itself to a server, and
# re-driving against the promoted server must yield sealed/state lines
# byte-identical to an uninterrupted reference run.
compact_every=2
start_server "$smoke_dir/repl-ref" "$smoke_dir/repl-ref.log"
./target/release/lovm drive --addr "$serve_addr" --session repl \
  --seed 7 --bidders 6 --from 0 --to 8 2>/dev/null >"$smoke_dir/repl-ref.out"
stop_server TERM

start_server "$smoke_dir/leader" "$smoke_dir/leader.log"
LOVM_JOURNAL="$smoke_dir/replica" LOVM_SNAPSHOT_EVERY=2 LOVM_COMPACT=2 \
  ./target/release/lovm follow --addr "$serve_addr" --session repl \
  --serve-addr 127.0.0.1:0 --v 20 --budget 2 >"$smoke_dir/follow.log" 2>&1 &
follower_pid=$!
./target/release/lovm drive --addr "$serve_addr" --session repl \
  --seed 7 --bidders 6 --from 0 --to 4 2>/dev/null >"$smoke_dir/p1.out"
./target/release/lovm drive --addr "$serve_addr" --session repl \
  --seed 7 --bidders 6 --from 4 --to 5 --partial 2>/dev/null >/dev/null
stop_server KILL

promoted_addr=""
for _ in $(seq 1 100); do
  promoted_addr=$(sed -n 's/^listening on //p' "$smoke_dir/follow.log")
  [ -n "$promoted_addr" ] && break
  sleep 0.1
done
if [ -z "$promoted_addr" ]; then
  echo "ci: FAIL — the follower did not promote itself after the leader died"
  cat "$smoke_dir/follow.log"
  exit 1
fi
./target/release/lovm drive --addr "$promoted_addr" --session repl \
  --seed 7 --bidders 6 --from 0 --to 8 2>/dev/null >"$smoke_dir/p2.out"
kill "$follower_pid" 2>/dev/null || true
wait "$follower_pid" 2>/dev/null || true
follower_pid=""

cat "$smoke_dir/p1.out" "$smoke_dir/p2.out" \
  | { grep '"event":"sealed"' || true; } >"$smoke_dir/promoted.sealed"
{ grep '"event":"sealed"' "$smoke_dir/repl-ref.out" || true; } >"$smoke_dir/repl-ref.sealed"
if ! diff -q "$smoke_dir/promoted.sealed" "$smoke_dir/repl-ref.sealed" >/dev/null; then
  echo "ci: FAIL — promoted follower's sealed rounds differ from the uninterrupted run"
  diff "$smoke_dir/promoted.sealed" "$smoke_dir/repl-ref.sealed" || true
  exit 1
fi
if ! diff -q <(grep '"event":"state"' "$smoke_dir/p2.out") \
            <(grep '"event":"state"' "$smoke_dir/repl-ref.out") >/dev/null; then
  echo "ci: FAIL — promoted follower's final state differs from the uninterrupted run"
  exit 1
fi
echo "ci: follower kill-and-promote smoke ok (byte-identical after leader SIGKILL)"

# Telemetry serve smoke: the same served session with LOVM_TELEMETRY on
# must be a pure observer — the drive client's full output byte-identical
# to the telemetry-off reference run above — while the server emits one
# valid lovm.telemetry.round.v1 record per sealed round, and the live
# `stats` wire command must feed a `lovm top` frame.
compact_every=0
telemetry_file="$smoke_dir/telemetry.jsonl"
export LOVM_TELEMETRY="$telemetry_file"
start_server "$smoke_dir/tel" "$smoke_dir/tel.log"
drive --from 0 --to 8 >"$smoke_dir/tel.out"
top_out=$(./target/release/lovm top --addr "$serve_addr" --frames 1)
stop_server TERM
unset LOVM_TELEMETRY
if ! diff -q "$smoke_dir/tel.out" "$smoke_dir/ref.out" >/dev/null; then
  echo "ci: FAIL — telemetry-on serve output differs from the telemetry-off run"
  diff "$smoke_dir/tel.out" "$smoke_dir/ref.out" || true
  exit 1
fi
./target/release/lovm telemetry-check --file "$telemetry_file"
records=$(wc -l <"$telemetry_file")
if [ "$records" -ne 8 ]; then
  echo "ci: FAIL — expected 8 telemetry records (one per sealed round), got $records"
  exit 1
fi
if ! printf '%s\n' "$top_out" | grep -q "rounds.sealed"; then
  echo "ci: FAIL — lovm top frame is missing the rounds.sealed counter"
  printf '%s\n' "$top_out"
  exit 1
fi
echo "ci: telemetry serve smoke ok (pure observer, $records valid records, live top frame)"

echo "ci: all green"
