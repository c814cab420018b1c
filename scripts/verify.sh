#!/usr/bin/env sh
# Tier-1 verification gate plus an exploration-engine smoke run.
#
#   scripts/verify.sh          # from the repository root
#
# Steps:
#   1. release build of the whole workspace
#   2. the tier-1 test gate (root package) and the full workspace suite
#   3. the canonical-vs-raw equivalence property suite (symmetry
#      quotient must never change a verdict)
#   4. object-kind conformance properties: every bridged threaded
#      object against its ObjectKind operational semantics
#   5. the differential harness: threaded runtime vs simulator vs
#      explorer, per registry protocol
#   6. explore_perf --smoke: a small exploration measured raw and
#      canonical, sequential and parallel; the binary exits nonzero on
#      any divergence (parallel vs sequential, or canonical verdicts vs
#      raw verdicts), which fails this script
#   7. randsync run smoke: one protocol per backing on real threads
#   8. observability smoke: --metrics must yield a non-empty explore.*
#      snapshot, and a --trace recording must replay bit-for-bit via
#      `randsync replay` (nonzero exit on divergence fails this script)
#   9. job-server smoke: serve on an ephemeral loopback port, submit a
#      valency job, a threaded run, and a metrics control frame, then
#      drain with `randsync shutdown` (the server must exit cleanly)
#  10. out-of-core + resume smoke: spill/resume property suite; a
#      deadline-cut `valency --checkpoint` resumed via `randsync
#      resume --mem-budget` must print the same verdict as an
#      uninterrupted `randsync check`; and a truncated `explore` job's
#      checkpoint id must resume over the wire to the un-truncated
#      configuration count
#  11. partial-order reduction + guided search: the POR-vs-raw
#      equivalence property suite; a `valency --por` smoke asserting
#      the reduced run visits no more configurations than raw (and
#      strictly fewer on the localcoin showcase) with an identical
#      verdict line; and a `valency --best-first` smoke whose
#      minimized witness trace must shrink idempotently and replay
#      bit-for-bit via `randsync replay`
#  12. distributed frontier smoke: two `randsync worker` shard
#      processes plus a coordinator `serve --workers-addrs` on
#      ephemeral loopback ports; a valency job submitted through the
#      ensemble must answer byte-identically to a single-node server,
#      every process must drain cleanly, and `dist_perf --smoke` must
#      report identical-to-single-node results for 1..3 workers
#  13. telemetry soak + trace smoke: `randsync soak` drives a traced
#      coordinator + 1 worker for ~5s and must pass the baked
#      threshold catalog (zero gauge leaks, sane p99, cache floor); a
#      traced submit's per-process JSONL sinks must stitch via
#      `randsync trace-tree` (nonzero exit on orphans fails this
#      script), and withholding the coordinator's file must be
#      detected as an orphaned-parent tree
#  14. the fail-closed verification gate: `randsync gate --filter
#      smoke` runs the machine-readable property catalog (Thm 3.3,
#      Lemma 3.6, Thms 4.2/4.4, the Thm 2.1 composition bound, and the
#      workspace equivalence properties) plus the checksummed witness
#      regression corpus end-to-end; ANY failed property, violated
#      bound, lost or tampered witness, or skip exits nonzero
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (tier-1 gate) =="
cargo test -q

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== canonical/raw equivalence properties =="
cargo test -q --release -p randsync-consensus --test prop_canonical_equiv

echo "== object-kind conformance properties =="
cargo test -q --release -p randsync-objects --test prop_kind_conformance

echo "== differential harness (runtime vs simulator vs explorer) =="
cargo test -q --release --test differential

echo "== consensus unit tests in release (registry identity, release-only codegen) =="
cargo test -q --release -p randsync-consensus --lib

echo "== explore_perf --smoke (raw + canonical, verdict divergence fails) =="
cargo run --release --bin explore_perf -- --smoke --out target/BENCH_explore_smoke.json

echo "== randsync run smoke (threaded runtime) =="
cargo run --release --bin randsync -- run walk-counter 2 1
cargo run --release --bin randsync -- run fetchinc2 2 7
cargo run --release --bin randsync -- run cas 3 42

echo "== observability smoke (metrics snapshot + trace round-trip) =="
# Capture to a file: `grep -q` on a pipe would close it early and the
# binary's later prints would die on SIGPIPE.
cargo run --release --bin randsync -- valency walk-counter 0 --metrics \
    > target/verify_metrics.txt 2>&1
grep -q "explore\." target/verify_metrics.txt \
    || { echo "FAIL: --metrics snapshot missing explore.* entries"; exit 1; }
trace_file="target/verify_trace.jsonl"
cargo run --release --bin randsync -- run walk-counter 2 1 --trace "$trace_file"
cargo run --release --bin randsync -- replay "$trace_file"

echo "== job-server smoke (serve -> submit -> shutdown over loopback) =="
svc_log="target/verify_svc.log"
./target/release/randsync serve 127.0.0.1:0 --workers 2 --queue 8 \
    > "$svc_log" 2>&1 &
svc_pid=$!
svc_addr=""
for _ in $(seq 1 50); do
    svc_addr=$(sed -n 's/^randsync-svc listening on //p' "$svc_log")
    [ -n "$svc_addr" ] && break
    sleep 0.1
done
[ -n "$svc_addr" ] || { echo "FAIL: job server never reported its address"; kill "$svc_pid" 2>/dev/null; exit 1; }
./target/release/randsync submit "$svc_addr" valency protocol=cas
./target/release/randsync submit "$svc_addr" run protocol=walk-counter seed=7
./target/release/randsync submit "$svc_addr" metrics > target/verify_svc_metrics.txt
grep -q "svc.jobs.ok" target/verify_svc_metrics.txt \
    || { echo "FAIL: metrics frame missing svc.* entries"; kill "$svc_pid" 2>/dev/null; exit 1; }
./target/release/randsync shutdown "$svc_addr"
wait "$svc_pid" || { echo "FAIL: job server exited nonzero"; exit 1; }
grep -q "drained and stopped" "$svc_log" \
    || { echo "FAIL: job server did not drain cleanly"; exit 1; }

echo "== out-of-core + resume smoke (spill tier, checkpoint round-trip) =="
cargo test -q --release -p randsync-consensus --test prop_spill_resume
ckpt_file="target/verify_resume.ckpt"
rm -f "$ckpt_file"
# An already-expired deadline cuts the search at the first level
# boundary and must leave a checkpoint behind (exit is nonzero by
# design: a truncated valency run fails).
./target/release/randsync valency walk-counter 0 \
    --deadline-ms 0 --checkpoint "$ckpt_file" \
    > target/verify_resume_cut.txt 2>&1 \
    && { echo "FAIL: deadline-cut valency run must exit nonzero"; exit 1; }
[ -f "$ckpt_file" ] || { echo "FAIL: deadline-cut run wrote no checkpoint"; exit 1; }
# Resuming on the spill tier must print the verdict an uninterrupted
# `randsync check` prints, byte for byte.
./target/release/randsync resume "$ckpt_file" --mem-budget 65536 \
    > target/verify_resume_out.txt 2> /dev/null
./target/release/randsync check walk-counter > target/verify_check_out.txt
diff target/verify_resume_out.txt target/verify_check_out.txt \
    || { echo "FAIL: resumed verdict diverged from randsync check"; exit 1; }

echo "== job-server resume smoke (explore -> checkpoint id -> resume) =="
svc_log="target/verify_svc_resume.log"
./target/release/randsync serve 127.0.0.1:0 --workers 2 --queue 8 \
    --checkpoint-dir target/verify_svc_ckpt > "$svc_log" 2>&1 &
svc_pid=$!
svc_addr=""
for _ in $(seq 1 50); do
    svc_addr=$(sed -n 's/^randsync-svc listening on //p' "$svc_log")
    [ -n "$svc_addr" ] && break
    sleep 0.1
done
[ -n "$svc_addr" ] || { echo "FAIL: job server never reported its address"; kill "$svc_pid" 2>/dev/null; exit 1; }
# Capture to a file first: piping `submit` straight into sed would
# mask a nonzero submit exit behind sed's status (even under set -e,
# only the last command of a pipeline is load-bearing).
./target/release/randsync submit "$svc_addr" explore protocol=naive \
    > target/verify_svc_full.txt \
    || { echo "FAIL: explore job failed"; kill "$svc_pid" 2>/dev/null; exit 1; }
full_configs=$(sed -n 's/.*"configs":\([0-9]*\).*/\1/p' target/verify_svc_full.txt)
[ -n "$full_configs" ] || { echo "FAIL: explore job reported no config count"; kill "$svc_pid" 2>/dev/null; exit 1; }
./target/release/randsync submit "$svc_addr" explore protocol=naive max_depth=2 mem_budget=4096 \
    > target/verify_svc_cut.txt
grep -q '"truncation_reason":"depth-cap"' target/verify_svc_cut.txt \
    || { echo "FAIL: capped explore job did not report depth-cap"; kill "$svc_pid" 2>/dev/null; exit 1; }
ckpt_id=$(sed -n 's/.*"checkpoint":"\(ckpt-[0-9]*\)".*/\1/p' target/verify_svc_cut.txt)
[ -n "$ckpt_id" ] || { echo "FAIL: capped explore job returned no checkpoint id"; kill "$svc_pid" 2>/dev/null; exit 1; }
./target/release/randsync submit "$svc_addr" resume checkpoint="$ckpt_id" \
    > target/verify_svc_resumed.txt
grep -q "\"configs\":$full_configs," target/verify_svc_resumed.txt \
    || { echo "FAIL: resumed job did not reach the uninterrupted count ($full_configs)"; kill "$svc_pid" 2>/dev/null; exit 1; }
./target/release/randsync shutdown "$svc_addr"
wait "$svc_pid" || { echo "FAIL: job server exited nonzero"; exit 1; }

echo "== POR equivalence properties + witness shrinking =="
cargo test -q --release -p randsync-consensus --test prop_por_equiv
cargo test -q --release -p randsync-core --test prop_bounds

echo "== valency --por smoke (reduction >= 1x, verdicts identical) =="
./target/release/randsync valency localcoin > target/verify_por_raw.txt
./target/release/randsync valency localcoin --por > target/verify_por_red.txt
raw_cfg=$(sed -n 's/^configurations      : //p' target/verify_por_raw.txt)
por_cfg=$(sed -n 's/^configurations      : //p' target/verify_por_red.txt)
[ -n "$raw_cfg" ] && [ -n "$por_cfg" ] \
    || { echo "FAIL: valency runs printed no configuration count"; exit 1; }
[ "$por_cfg" -le "$raw_cfg" ] \
    || { echo "FAIL: POR visited more configurations ($por_cfg) than raw ($raw_cfg)"; exit 1; }
[ "$por_cfg" -lt "$raw_cfg" ] \
    || { echo "FAIL: POR pruned nothing on the localcoin showcase"; exit 1; }
grep -q "partial-order red.  : on" target/verify_por_red.txt \
    || { echo "FAIL: --por run did not report the reduction"; exit 1; }
# Everything but the counted sizes must be identical: valency verdict,
# per-class emptiness facts, cycle/critical lines.
raw_verdict=$(sed -n 's/^initial valency     : //p' target/verify_por_raw.txt)
por_verdict=$(sed -n 's/^initial valency     : //p' target/verify_por_red.txt)
[ "$raw_verdict" = "$por_verdict" ] && [ -n "$raw_verdict" ] \
    || { echo "FAIL: --por changed the valency verdict ($raw_verdict vs $por_verdict)"; exit 1; }
raw_cycle=$(sed -n 's/^bivalent cycle      : //p' target/verify_por_raw.txt)
por_cycle=$(sed -n 's/^bivalent cycle      : //p' target/verify_por_red.txt)
[ "$raw_cycle" = "$por_cycle" ] && [ -n "$raw_cycle" ] \
    || { echo "FAIL: --por changed the bivalent-cycle fact ($raw_cycle vs $por_cycle)"; exit 1; }

echo "== valency --best-first smoke (witness, shrink, replay round-trip) =="
bf_dir=target/verify_bestfirst
rm -rf "$bf_dir" && mkdir -p "$bf_dir"
(cd "$bf_dir" && ../../target/release/randsync valency naive --best-first) \
    > target/verify_bestfirst.txt 2>&1 \
    || { echo "FAIL: best-first did not produce a verified witness"; exit 1; }
grep -q "guided search       : inconsistency reached" target/verify_bestfirst.txt \
    || { echo "FAIL: best-first found no inconsistency on naive"; exit 1; }
grep -q "minimized           : " target/verify_bestfirst.txt \
    || { echo "FAIL: best-first witness was not minimized"; exit 1; }
bf_trace=$(ls "$bf_dir"/randsync-witness-*.jsonl 2>/dev/null | head -n 1)
[ -n "$bf_trace" ] || { echo "FAIL: best-first dumped no flight trace"; exit 1; }
./target/release/randsync replay "$bf_trace" \
    || { echo "FAIL: best-first flight trace did not replay"; exit 1; }
./target/release/randsync shrink "$bf_trace" --out "$bf_dir/min.jsonl" \
    || { echo "FAIL: shrink rejected the best-first trace"; exit 1; }
./target/release/randsync replay "$bf_dir/min.jsonl" \
    || { echo "FAIL: minimized trace did not replay"; exit 1; }

echo "== distributed frontier smoke (coordinator + 2 workers over loopback) =="
# Two shard processes, a coordinator pointed at them, and a plain
# single-node server as the baseline the ensemble must agree with.
w1_log=target/verify_dist_w1.log
w2_log=target/verify_dist_w2.log
coord_log=target/verify_dist_coord.log
single_log=target/verify_dist_single.log
./target/release/randsync worker 127.0.0.1:0 > "$w1_log" 2>&1 &
w1_pid=$!
./target/release/randsync worker 127.0.0.1:0 > "$w2_log" 2>&1 &
w2_pid=$!
w1_addr=""; w2_addr=""
for _ in $(seq 1 50); do
    w1_addr=$(sed -n 's/^randsync-svc listening on //p' "$w1_log")
    w2_addr=$(sed -n 's/^randsync-svc listening on //p' "$w2_log")
    [ -n "$w1_addr" ] && [ -n "$w2_addr" ] && break
    sleep 0.1
done
[ -n "$w1_addr" ] && [ -n "$w2_addr" ] \
    || { echo "FAIL: frontier workers never reported their addresses"; kill "$w1_pid" "$w2_pid" 2>/dev/null; exit 1; }
./target/release/randsync serve 127.0.0.1:0 --workers 2 --queue 8 \
    --workers-addrs "$w1_addr,$w2_addr" > "$coord_log" 2>&1 &
coord_pid=$!
./target/release/randsync serve 127.0.0.1:0 --workers 2 --queue 8 \
    > "$single_log" 2>&1 &
single_pid=$!
coord_addr=""; single_addr=""
for _ in $(seq 1 50); do
    coord_addr=$(sed -n 's/^randsync-svc listening on //p' "$coord_log")
    single_addr=$(sed -n 's/^randsync-svc listening on //p' "$single_log")
    [ -n "$coord_addr" ] && [ -n "$single_addr" ] && break
    sleep 0.1
done
[ -n "$coord_addr" ] && [ -n "$single_addr" ] \
    || { echo "FAIL: coordinator/baseline never reported an address"; kill "$w1_pid" "$w2_pid" "$coord_pid" "$single_pid" 2>/dev/null; exit 1; }
./target/release/randsync submit "$coord_addr" valency protocol=cas \
    > target/verify_dist_sharded.txt
./target/release/randsync submit "$single_addr" valency protocol=cas \
    > target/verify_dist_baseline.txt
diff target/verify_dist_sharded.txt target/verify_dist_baseline.txt \
    || { echo "FAIL: sharded valency diverged from the single-node answer"; exit 1; }
./target/release/randsync shutdown "$coord_addr"
./target/release/randsync shutdown "$single_addr"
./target/release/randsync shutdown "$w1_addr"
./target/release/randsync shutdown "$w2_addr"
wait "$coord_pid" || { echo "FAIL: coordinator exited nonzero"; exit 1; }
wait "$single_pid" || { echo "FAIL: baseline server exited nonzero"; exit 1; }
wait "$w1_pid" || { echo "FAIL: worker 1 exited nonzero"; exit 1; }
wait "$w2_pid" || { echo "FAIL: worker 2 exited nonzero"; exit 1; }
grep -q "drained and stopped" "$coord_log" && grep -q "drained and stopped" "$w1_log" \
    && grep -q "drained and stopped" "$w2_log" \
    || { echo "FAIL: a distributed process did not drain cleanly"; exit 1; }
cargo run --release --bin dist_perf -- --smoke --out target/BENCH_distributed_smoke.json

echo "== telemetry soak + trace-tree smoke (traced coordinator + 1 worker) =="
soak_w_log=target/verify_soak_w.log
soak_coord_log=target/verify_soak_coord.log
soak_w_trace=target/verify_soak_worker.jsonl
soak_coord_trace=target/verify_soak_coord.jsonl
soak_client_trace=target/verify_soak_client.jsonl
rm -f "$soak_w_trace" "$soak_coord_trace" "$soak_client_trace"
./target/release/randsync worker 127.0.0.1:0 --trace "$soak_w_trace" \
    > "$soak_w_log" 2>&1 &
soak_w_pid=$!
soak_w_addr=""
for _ in $(seq 1 50); do
    soak_w_addr=$(sed -n 's/^randsync-svc listening on //p' "$soak_w_log")
    [ -n "$soak_w_addr" ] && break
    sleep 0.1
done
[ -n "$soak_w_addr" ] \
    || { echo "FAIL: soak worker never reported its address"; kill "$soak_w_pid" 2>/dev/null; exit 1; }
./target/release/randsync serve 127.0.0.1:0 --workers 2 --queue 8 \
    --workers-addrs "$soak_w_addr" --trace "$soak_coord_trace" \
    > "$soak_coord_log" 2>&1 &
soak_coord_pid=$!
soak_coord_addr=""
for _ in $(seq 1 50); do
    soak_coord_addr=$(sed -n 's/^randsync-svc listening on //p' "$soak_coord_log")
    [ -n "$soak_coord_addr" ] && break
    sleep 0.1
done
[ -n "$soak_coord_addr" ] \
    || { echo "FAIL: soak coordinator never reported its address"; kill "$soak_w_pid" "$soak_coord_pid" 2>/dev/null; exit 1; }
# ~5s of mixed load at the backpressure boundary; nonzero exit means a
# gauge leaked, a p99 ceiling broke, or the cache hit rate fell through
# the floor of the baked catalog.
./target/release/randsync soak "$soak_coord_addr" --duration-s 5 \
    > target/verify_soak_report.txt \
    || { echo "FAIL: soak monitor flagged the server"; cat target/verify_soak_report.txt; exit 1; }
grep -q "PASS" target/verify_soak_report.txt \
    || { echo "FAIL: soak report has no PASS line"; exit 1; }
# One traced submit whose spans must stitch across all three
# processes. The soak already ran (and cached) valency on cas, so use
# naive: a cache hit would answer without ever opening a server span.
./target/release/randsync submit "$soak_coord_addr" valency \
    --trace "$soak_client_trace" protocol=naive > /dev/null
./target/release/randsync shutdown "$soak_coord_addr"
./target/release/randsync shutdown "$soak_w_addr"
wait "$soak_coord_pid" || { echo "FAIL: soak coordinator exited nonzero"; exit 1; }
wait "$soak_w_pid" || { echo "FAIL: soak worker exited nonzero"; exit 1; }
./target/release/randsync trace-tree \
    "$soak_client_trace" "$soak_coord_trace" "$soak_w_trace" \
    > target/verify_trace_tree.txt \
    || { echo "FAIL: collected trace sinks did not stitch"; cat target/verify_trace_tree.txt; exit 1; }
grep -q "frontier_" target/verify_trace_tree.txt \
    || { echo "FAIL: stitched tree is missing the worker's frontier spans"; exit 1; }
# Withholding the coordinator's sink severs the workers' ancestry: the
# tool must refuse the orphaned-parent tree.
./target/release/randsync trace-tree "$soak_client_trace" "$soak_w_trace" \
    > /dev/null 2>&1 \
    && { echo "FAIL: orphaned-parent tree was not detected"; exit 1; }

echo "== fail-closed verification gate (property catalog + witness corpus) =="
# The smoke tag covers every fast catalog entry plus the full witness
# regression corpus; the binary exits nonzero on any failed property,
# violated bound, lost/tampered witness, or unexplained skip. The
# report and bench artifacts land in target/ for inspection.
./target/release/randsync gate --filter smoke \
    --report target/verify_gate_report.json \
    --bench target/BENCH_gate_smoke.json \
    || { echo "FAIL: the verification gate went red"; exit 1; }
grep -q '"passed":true' target/verify_gate_report.json \
    || { echo "FAIL: gate report disagrees with its exit status"; exit 1; }

echo "verify.sh: all gates passed"
