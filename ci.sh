#!/bin/sh
# Repository gate: formatting, lints, and the full test suite.
# Run from the workspace root before committing.
set -eux

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace -q
# Static verification: every built-in profile must lint clean — with
# the run-loop effect audit included — warnings promoted to errors
# (generation is seed-deterministic, so this is stable).
cargo run --release -- lint --all-profiles --effects --deny all

# Derived-effects + abstract-interpretation gate: the exhaustive
# resume-safety audit, and SMC-freedom and stack-depth proofs for every
# profile image. --deny all promotes any foregone continuation to an
# error.
cargo run --release -- verify --all-profiles --deny all

# Fault-campaign gate: an injected run must take its machine checks and
# still reconcile all three instruments exactly (nonzero exit otherwise).
cargo run --release -- inject --faults parity,sbi-timeout --seed 780 \
    --workload educational --instructions 20000 --warmup 5000 --report

# Checkpoint/resume gate: "kill" a composite campaign after 2 jobs, resume
# it from the checkpoint, and require the exact numbers of an
# uninterrupted campaign.
CKPT_DIR=$(mktemp -d)
trap 'rm -rf "$CKPT_DIR"' EXIT
cargo run --release -- run --workload all --instructions 5000 --warmup 1500 \
    > "$CKPT_DIR/uninterrupted.txt"
cargo run --release -- run --workload all --instructions 5000 --warmup 1500 \
    --checkpoint "$CKPT_DIR/campaign.ckpt" --halt-after 2 > /dev/null
cargo run --release -- run --workload all --instructions 5000 --warmup 1500 \
    --checkpoint "$CKPT_DIR/campaign.ckpt" > "$CKPT_DIR/resumed.txt"
diff "$CKPT_DIR/uninterrupted.txt" "$CKPT_DIR/resumed.txt"

# Serve gate: the job queue must survive kill -9. Start a server, feed
# it a mixed batch (one fault-plan job included) over its socket,
# SIGKILL it mid-queue, then settle the same journal offline — the
# merged result JSONL must be byte-identical to an uninterrupted
# serial reference: zero lost, zero duplicated, bit-identical.
cargo build --release
VAX780=target/release/vax780
SERVE_SPECS="workload=timesharing-light instructions=500000 warmup=5000 seed=1
workload=sci-eng instructions=500000 warmup=5000 seed=2
workload=commercial instructions=500000 warmup=5000 seed=3 faults=cache-parity+sbi-timeout fault-seed=780 fault-count=2
workload=educational instructions=2000000 warmup=5000 seed=4
workload=timesharing-heavy instructions=3000000 warmup=5000 seed=5"
echo "$SERVE_SPECS" | while IFS= read -r spec; do
    "$VAX780" enqueue --queue "$CKPT_DIR/reference.journal" --spec "$spec"
done
"$VAX780" drain --queue "$CKPT_DIR/reference.journal" --serial \
    --out "$CKPT_DIR/reference.jsonl"
"$VAX780" serve --queue "$CKPT_DIR/live.journal" \
    --socket "$CKPT_DIR/sock" --jobs 2 &
SERVE_PID=$!
echo "$SERVE_SPECS" | while IFS= read -r spec; do
    "$VAX780" enqueue --socket "$CKPT_DIR/sock" --spec "$spec"
done
# Wait for the first settled job, then kill -9 mid-queue.
while ! grep -q '^complete ' "$CKPT_DIR/live.journal" 2>/dev/null; do
    sleep 0.05
done
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true
# The kill must have left unsettled work behind, or the gate proves
# nothing.
SETTLED=$(grep -c -e '^complete ' -e '^fail ' "$CKPT_DIR/live.journal")
test "$SETTLED" -lt 5
# Restart the queue offline; the merge must match the reference bit
# for bit.
"$VAX780" drain --queue "$CKPT_DIR/live.journal" --jobs 2 \
    --out "$CKPT_DIR/merged.jsonl"
diff "$CKPT_DIR/reference.jsonl" "$CKPT_DIR/merged.jsonl"
test "$(wc -l < "$CKPT_DIR/merged.jsonl")" -eq 5

# Compaction gate: fold settled records into the v2 snapshot segment
# mid-campaign (over the socket, with auto-compaction armed), kill -9
# the server, compact the crash survivor again offline, and resume —
# the merged results must still match the reference bit for bit.
"$VAX780" serve --queue "$CKPT_DIR/compact.journal" \
    --socket "$CKPT_DIR/csock" --jobs 2 --compact-every 2 &
SERVE_PID=$!
echo "$SERVE_SPECS" | while IFS= read -r spec; do
    "$VAX780" enqueue --socket "$CKPT_DIR/csock" --spec "$spec"
done
while ! grep -q '^complete ' "$CKPT_DIR/compact.journal" 2>/dev/null; do
    sleep 0.05
done
"$VAX780" compact --socket "$CKPT_DIR/csock"
kill -9 "$SERVE_PID"
wait "$SERVE_PID" || true
# The snapshot segment exists and carries the v2 header.
test -s "$CKPT_DIR/compact.journal.snap"
grep -q '^vax-queue-snapshot v2 ' "$CKPT_DIR/compact.journal.snap"
# Offline compaction of the crash survivor must be safe too.
"$VAX780" compact --queue "$CKPT_DIR/compact.journal"
"$VAX780" drain --queue "$CKPT_DIR/compact.journal" --jobs 2 \
    --out "$CKPT_DIR/compacted.jsonl"
diff "$CKPT_DIR/reference.jsonl" "$CKPT_DIR/compacted.jsonl"

# Remote-worker gate: a server with zero local workers on TCP, one
# `vax780 worker` process settling the queue over the claim protocol.
# The streamed results — digests included — must be byte-identical to
# the in-process reference.
"$VAX780" serve --queue "$CKPT_DIR/remote.journal" \
    --socket tcp:127.0.0.1:17780 --jobs 0 &
SERVE_PID=$!
echo "$SERVE_SPECS" | while IFS= read -r spec; do
    "$VAX780" enqueue --socket tcp:127.0.0.1:17780 --spec "$spec"
done
"$VAX780" worker --connect tcp:127.0.0.1:17780 &
WORKER_PID=$!
"$VAX780" drain --socket tcp:127.0.0.1:17780 --out "$CKPT_DIR/remote.jsonl"
wait "$SERVE_PID"
wait "$WORKER_PID"
diff "$CKPT_DIR/reference.jsonl" "$CKPT_DIR/remote.jsonl"

# Self-characterization gate: the full probe campaign — every opcode x
# addressing-mode pair the five profiles execute, plus the per-mode
# reference carriers — must measure, reconcile all three instruments
# exactly, and agree with the static latency model everywhere except
# the refinements recorded (with evidence) in PROBE_ALLOW.txt. Stale
# allowlist entries are warnings, promoted to errors here by --deny all.
cargo run --release -- probe --allowlist PROBE_ALLOW.txt --deny all \
    --out "$CKPT_DIR/probe-tables.txt"
# The artifact must round-trip and carry its provenance stamps.
test -s "$CKPT_DIR/probe-tables.txt"
grep -q '^vax-probe-tables v1$' "$CKPT_DIR/probe-tables.txt"
grep -q '^meta cpu-model ' "$CKPT_DIR/probe-tables.txt"
grep -q '^end$' "$CKPT_DIR/probe-tables.txt"

# Simulator benchmark gate (the host-loop trajectory): time both
# interpreter tiers — naive byte-by-byte and fast — and fail on ANY
# instrument divergence between them: bit-identical histograms, hardware
# counters, and trace streams, plus proof that the fast tier actually
# engaged (predecode hits, instructions retired without a step
# prologue), or nonzero exit. Sizes are pinned smaller than the bench
# default so the gate stays fast; the equivalence machinery exercised is
# identical.
cargo run --release -- bench --instructions 200000 --trace-instructions 10000 \
    --warmup 10000 --repeat 2 --json "$CKPT_DIR/BENCH_ci.json"
