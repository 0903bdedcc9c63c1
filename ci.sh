#!/usr/bin/env bash
# CI entry point: build everything, run the full test pyramid, check style.
#
# The build is fully offline — external dependencies are vendored under
# vendor/ (see README.md) — so this runs in a network-less container.
set -euo pipefail
cd "$(dirname "$0")"

# Every `section` prints its `== … ==` banner and closes the one before it;
# `section_summary` prints each section's wall time (bash's $SECONDS) so the
# cost of every step of the matrix is visible in the log.
section_names=()
section_secs=()
section_started=$SECONDS
section() {
  close_section
  section_names+=("$1")
  section_started=$SECONDS
  echo "== $1 =="
}
close_section() {
  if [ "${#section_names[@]}" -gt "${#section_secs[@]}" ]; then
    section_secs+=($((SECONDS - section_started)))
  fi
}
section_summary() {
  close_section
  echo "== section times =="
  local i
  for i in "${!section_names[@]}"; do
    printf '%6ds  %s\n' "${section_secs[$i]}" "${section_names[$i]}"
  done
  printf '%6ds  %s\n' "$SECONDS" "total"
}

section "cargo build --release"
cargo build --release

section "cargo check bench_e2e (standalone package)"
# BENCHMARK.json builds the ledger binary from its own manifest, not
# through the workspace. Check it the same way, so a library name it calls
# going away (or a crate it needs) fails here, not in a benchmark run. Its
# own target dir keeps the workspace build untouched.
cargo check --offline --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml \
  --target-dir target/bench_e2e

# The whole suite runs twice: single-threaded and on a 4-thread pool. The
# execution layer's determinism contract says results are bit-identical, so
# both runs must pass the *same* assertions.
section "cargo test -q (TUCKER_THREADS=1)"
TUCKER_THREADS=1 cargo test -q

section "cargo test -q (TUCKER_THREADS=4)"
TUCKER_THREADS=4 cargo test -q

# The microkernel determinism contract (ISSUE 8) says the TUCKER_SIMD tier is
# invisible in the result bits. Re-run the kernel-level suites and the
# pipeline determinism suites under a forced-scalar tier and under explicit
# auto-dispatch; both must pass the same bitwise assertions. (The in-process
# force_tier sweeps inside `microkernel`/`simd_tiers` additionally compare
# the tiers directly against each other.) The streaming, facade-equivalence
# and distributed-equivalence suites ride along: the first-mode Gram (a
# transposed-A SYRK), the masked edge tiles and the distributed Gram's
# SYRK/pair blocks all run on the tier's vector kernel and the blocking's
# tile grid. So do the query-contract and store round-trip suites: window
# queries contract in a window-shaped mode order, which sends TTM shapes of
# its own through the packed tile grid, and eager ≡ lazy ≡ daemon must hold
# bit for bit under every tier and blocking. So does the norm-contract
# suite: ‖X‖² is the trace of the first processed mode's Gram, which runs on
# the tier's kernel and the blocking's grid. The determinism suite's
# reconstruction battery (the TTM chain's fused expanding tail against a
# per-mode chain) rides along too: its in-tile GEMMs are shaped by the tile
# width, not by the tensor.
section "linalg + determinism suites (TUCKER_SIMD=scalar)"
TUCKER_SIMD=scalar cargo test -q -p tucker-linalg
TUCKER_SIMD=scalar cargo test -q --test determinism --test simd_tiers \
  --test streaming --test api_equivalence --test distributed_equivalence \
  --test query_contract --test store_roundtrip --test gram_contract \
  --test norm_contract
section "linalg + determinism suites (TUCKER_SIMD=auto)"
TUCKER_SIMD=auto cargo test -q -p tucker-linalg
TUCKER_SIMD=auto cargo test -q --test determinism --test simd_tiers \
  --test streaming --test api_equivalence --test distributed_equivalence \
  --test query_contract --test store_roundtrip --test gram_contract \
  --test norm_contract

# The blocking contract (ISSUE 9) says MC/KC/NC only schedule the packed tile
# grid — a TUCKER_BLOCK override must be invisible in the result bits, for
# the raw kernels and for the blocked factorizations built on them. Re-run
# the same suites under a deliberately tiny blocking so every tile-grid edge
# case fires. (The in-process force_blocking sweeps inside `factorizations`/
# `simd_tiers` additionally compare overridden runs against the default.)
section "linalg + determinism suites (TUCKER_BLOCK=16,16,16)"
TUCKER_BLOCK=16,16,16 cargo test -q -p tucker-linalg
TUCKER_BLOCK=16,16,16 cargo test -q --test determinism --test simd_tiers \
  --test streaming --test api_equivalence --test distributed_equivalence \
  --test query_contract --test store_roundtrip --test gram_contract \
  --test norm_contract

section "cargo test -q --test service (TUCKER_THREADS=1 and 4)"
# The daemon's concurrency suite under both pool shapes: 8-client
# byte-identity, graceful-shutdown drain, typed-Busy backpressure, and the
# socket-level fault injection at the daemon (§4) and at the client (§5)
# must hold on a single-thread pool too. (The cursor-level battery of the
# frame codec both wires share is tests/transport_faults.rs §1.)
TUCKER_THREADS=1 cargo test -q --test service
TUCKER_THREADS=4 cargo test -q --test service

section "cargo test -q -p tucker-core --test no_input_copy (TUCKER_THREADS=1 and 4)"
# The allocation pins: ST-HOSVD never copies its input, and a full
# reconstruction never allocates its expanding tail's intermediate. The
# tail's tile buffers are allocated once per scatter part, so the pin must
# hold on a single-thread pool and on a 4-thread one.
TUCKER_THREADS=1 cargo test -q -p tucker-core --test no_input_copy
TUCKER_THREADS=4 cargo test -q -p tucker-core --test no_input_copy

section "cargo test -q --test streaming (TUCKER_THREADS=32, oversubscribed)"
# The streaming determinism suite again, on a pool far larger than any CI
# machine has cores: slab decomposition and oversubscription must both be
# invisible in the bits.
TUCKER_THREADS=32 cargo test -q --test streaming

# The transport contract (ISSUE 10) says the backend behind the distmem
# Communicator — in-process threads or TCP-connected spawned processes — is
# invisible in the result bits. Re-run the transport, determinism, and
# distributed-equivalence suites with the TCP backend at 2 and 4 real
# worker processes; the env-driven tests in each suite re-exec this very
# test binary as the worker fleet.
section "transport suites (TUCKER_TRANSPORT=tcp, TUCKER_RANKS=2)"
TUCKER_TRANSPORT=tcp TUCKER_RANKS=2 cargo test -q \
  --test transport --test transport_faults \
  --test determinism --test distributed_equivalence
section "transport suites (TUCKER_TRANSPORT=tcp, TUCKER_RANKS=4)"
TUCKER_TRANSPORT=tcp TUCKER_RANKS=4 cargo test -q \
  --test transport --test transport_faults \
  --test determinism --test distributed_equivalence

section "table7_transport (cross-backend artifact-identity gate)"
# Runs the same distributed ST-HOSVD grid over the in-process and TCP
# backends and diffs the serialized .tkr artifacts byte-for-byte; also
# checks the TCP run moved real bytes on the wire and the in-process run
# moved none. Exits non-zero on any mismatch; the watchdog turns a wedged
# transport into exit code 3.
TUCKER_RANKS=2 cargo run --release -p tucker-bench --bin table7_transport
# P = 3 runs grid [3,1,1] on 16 rows: the only case in which a block
# received on the Gram ring has a different mode-n extent than the local one.
TUCKER_RANKS=3 cargo run --release -p tucker-bench --bin table7_transport
TUCKER_RANKS=4 cargo run --release -p tucker-bench --bin table7_transport

section "table3_storage (storage-layer shape check)"
# The binary asserts finite compression ratios and round-trip errors within
# the declared eps + quantization budget; any violation exits non-zero.
cargo run --release -p tucker-bench --bin table3_storage

section "table4_threads (kernel determinism across thread counts)"
# Exits non-zero if any multi-threaded kernel produces different results
# than the single-threaded run (smoke shape keeps this fast).
TUCKER_TABLE4_SMOKE=1 cargo run --release -p tucker-bench --bin table4_threads

section "table5_memory (out-of-core peak-memory gate)"
# Tracking-allocator measurement of the compress-and-store pipelines; exits
# non-zero if the streaming path peaks at >= 50% of the in-memory path or
# the two artifacts are not byte-identical.
cargo run --release -p tucker-bench --bin table5_memory

section "table6_service (daemon byte-identity + liveness gate)"
# In-process load generation against the tucker-serve daemon: 8 concurrent
# clients, mixed workload, every response compared bit-for-bit against a
# direct reader. Exits non-zero on any mismatch, lost reply, or deadlock
# (the watchdog turns a wedged service into exit code 3).
TUCKER_TABLE6_SMOKE=1 cargo run --release -p tucker-bench --bin table6_service

section "obs_overhead (observability overhead gate)"
# Full compress→store→query pipeline on the SP surrogate, alternating
# metrics-off / metrics-on trials; exits non-zero if the metrics-on median
# breaks the 5%-plus-jitter-floor budget (ARCHITECTURE §9 contract).
TUCKER_OBS_SMOKE=1 cargo run --release -p tucker-bench --bin obs_overhead

section "bench_e2e all --smoke (end-to-end functional gate)"
# All five ledger workloads on tiny shapes (~15 s; timings are not compared).
# The run's own checks — served responses == a direct reader bit for bit,
# streamed artifact == in-memory artifact, TCP artifact == in-process
# artifact, error within the header budget — fail the build on exit != 0.
cargo run --release -p tucker-bench --bin bench_e2e -- all --smoke

section "cargo doc --workspace (missing/broken docs are errors)"
# The facade crate carries #![deny(missing_docs)]; this pass additionally
# promotes rustdoc warnings (broken or private intra-doc links, ambiguous
# link targets, bad code fences) to errors in every crate of the workspace,
# so no crate's documented surface can rot.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

section "panic-grep gate on the fallible-surface modules"
# The try_* validation layers promise "every failure is a returned value".
# The microkernel hot-path modules (pack/microkernel/simd) make the same
# promise: misconfiguration warns and falls back, it never aborts a kernel.
# So does the whole store (codec/format/writer/reader/lazy/shared): every
# open, parse and write returns a StoreError, and a query on an opened
# artifact fails with a typed error or not at all. And so does every file
# the decode path of both wires runs through: the frame codec (net/frame),
# the shared body cursor (distmem/transport), the mesh reader (net/tcp), the
# daemon's session loop (serve/server) and the client (serve/client).
# Fail CI if a panic!/unwrap/expect/assert lands in them (doc comments and
# #[cfg(test)] modules are stripped before grepping).
gate_ok=1
for f in crates/api/src/lib.rs crates/api/src/error.rs \
         crates/api/src/compressor.rs crates/api/src/query.rs \
         crates/core/src/validate.rs crates/store/src/error.rs \
         crates/store/src/codec.rs crates/store/src/lazy.rs \
         crates/store/src/shared.rs crates/store/src/writer.rs \
         crates/store/src/reader.rs crates/store/src/format.rs \
         crates/serve/src/proto.rs crates/serve/src/client.rs \
         crates/serve/src/server.rs crates/serve/src/metrics.rs \
         crates/net/src/tcp.rs crates/distmem/src/transport.rs \
         crates/obs/src/lib.rs \
         crates/obs/src/metrics.rs crates/obs/src/trace.rs \
         crates/linalg/src/pack.rs crates/linalg/src/microkernel.rs \
         crates/linalg/src/simd.rs crates/linalg/src/blocking.rs \
         crates/net/src/frame.rs crates/net/src/error.rs; do
  if [ ! -f "$f" ]; then
    echo "panic-grep gate: fallible-surface file $f is missing (renamed? update ci.sh)"
    gate_ok=0
    continue
  fi
  if awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" \
      | grep -v '^[[:space:]]*//' \
      | grep -nE 'panic!|\.unwrap\(\)|\.expect\(|unreachable!|todo!|unimplemented!|assert!|assert_eq!|assert_ne!' ; then
    echo "panic-grep gate: forbidden pattern in fallible-surface file $f"
    gate_ok=0
  fi
done
if [ "$gate_ok" -ne 1 ]; then
  echo "panic-grep gate FAILED"
  exit 1
fi
echo "panic-grep gate OK"

section "cargo clippy --workspace --all-targets (warnings are errors)"
# Every target — libraries, binaries, tests, examples, benches — is
# lint-clean. Where a BLAS/LAPACK-style signature is the contract, or a
# literal is data that only looks like a constant, the item carries an
# `#[expect(clippy::…, reason = …)]`.
cargo clippy --workspace --all-targets --quiet -- -D warnings

section "cargo fmt --check"
cargo fmt --check

section_summary
echo "CI OK"
