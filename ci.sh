#!/usr/bin/env sh
# Offline CI gate: tier-1 build + tests, lints, and formatting.
#
# Everything runs with --offline against the vendored/registry-free
# dependency set — the workspace has no external crate dependencies, so
# a network-less container passes this script from a cold checkout.
#
#   ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release (tier-1)"
cargo build --offline --workspace --release

echo "==> cargo test (tier-1)"
cargo test --offline --workspace -q

echo "==> cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc -D warnings"
# Broken, private and redundant intra-doc links fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> bench smoke (sim_throughput --json BENCH_sim.json)"
# cargo runs bench binaries with cwd = the package root, so pass an
# absolute path to land the trajectory file at the repo root.
# check_bench_json fails the trajectory if attached streaming
# (machine/baseline+streaming) drops below 0.8x the detached baseline,
# or if any throughput entry carries a missing/non-finite/negative
# elems_per_s.
cargo bench --offline -p atc-bench --bench sim_throughput -- --samples 2 --json "$PWD/BENCH_sim.json"
# Perf floor: machine/baseline's best-case rate must stay at or above
# 0.85x the batched core's committed trajectory value (8,875,119
# elem/s median). The measured decomposition shows the loop within
# ~15% of the per-component floor on this hardware (DESIGN.md §10,
# EXPERIMENTS.md), so the gate holds the no-regression line rather
# than a speedup target. The 0.85 multiple
# is the observed noise band: across 8 back-to-back 10-sample runs the
# best-case rate ranged 7.86-9.47 M elem/s on this shared container,
# while a true regression to the seed loop (~7.0 M best-case) still
# lands below the floor. Raise the multiple if the floor ever moves.
cargo run --offline --release -p atc-bench --bin check_bench_json -- \
    --min-ratio "machine/baseline:8875119:0.85" BENCH_sim.json

echo "==> harness scaling bench (harness_scaling --append)"
# Suite wall-time at 1 and 2 workers, merged into the same trajectory
# document (--append replaces same-name results, keeps the rest).
# 3 samples so min/median are meaningful; --scaling-report prints the
# w1-vs-w2 jobs/s ratio without gating (the CI host is a shared 2-vCPU
# container, so the ratio moves with host load — see EXPERIMENTS.md).
cargo bench --offline -p atc-harness --bench harness_scaling -- \
    --samples 3 --append --json "$PWD/BENCH_sim.json"
cargo run --offline --release -p atc-bench --bin check_bench_json -- \
    --scaling-report BENCH_sim.json

echo "==> prefetcher micro-bench (prefetchers --append)"
# Per-call cost of each prefetcher's on_access (prefetch/<label>, 20k
# calls per iteration), merged into the same trajectory document. No
# floor: absolute rates on this shared host move with its load, so the
# entries record a trajectory rather than gate one.
cargo bench --offline -p atc-bench --bench prefetchers -- \
    --samples 3 --append --json "$PWD/BENCH_sim.json"

echo "==> suite smoke (full sweep catalog, checkpointed)"
# --check requires every job to succeed and gates the smoke-class paper
# claims (crates/experiments/src/claims.rs); claims of a larger class
# are reported "not evaluated" on stderr.
SUITE="cargo run --offline --release -p atc-experiments --bin suite --"
SUITE_FLAGS="--scale test --warmup 2000 --instructions 20000"
rm -f target/ci-suite.jsonl
$SUITE $SUITE_FLAGS --jobs 4 --manifest target/ci-suite.jsonl --check \
    > target/ci-suite.out 2> target/ci-suite.err

echo "==> trace footprint (suite smoke stderr)"
# The captured streams and the bytes they hold are a deterministic
# function of the catalog and the trace layout (a 1 B head per record,
# 8 B per memory record and 8 B per 64-record block; DESIGN.md §8), so
# this exact line gates trace-memory regressions without timing noise.
grep -Fx "suite: 59 instruction streams captured (21.8 MiB shared)" \
    target/ci-suite.err

echo "==> small-scale suite byte-identity (golden stdout)"
# Every benchmark's stream at Scale::Small, graph kernels included, end
# to end: stdout must match tests/golden/suite_small.out byte for byte.
# The golden file predates per-vertex graph generation (12807 bytes,
# FNV-1a 0x6a9cfad3e29d458f); regenerate it only for an intended change
# to the streams or the tables. --check also gates the smoke- and
# golden-class paper claims.
rm -f target/ci-small.jsonl
$SUITE --seed 42 --scale small --warmup 10000 --instructions 50000 --jobs 2 \
    --manifest target/ci-small.jsonl --check > target/ci-small.out
diff tests/golden/suite_small.out target/ci-small.out

echo "==> default-budget suite (every paper claim)"
# The default budget (--scale small, 200k warmup + 2M measured) reaches
# every claim's class, so this run evaluates all of them, the expected
# divergences D1/D2/D4/D5 included, and fails if any no longer holds.
# About 90-115 s and 460-560 MiB peak RSS on the 2-vCPU development host.
rm -f target/ci-full.jsonl
$SUITE --jobs 2 --manifest target/ci-full.jsonl --check > /dev/null

echo "==> streaming smoke (--progress, telemetry.jsonl, trace.json)"
# The same sweep with the sampler attached: live progress on stderr at
# a 50 ms cadence, a checksummed atc-telemetry-stream-v1 file with at
# least 4 epochs whose delta sums must reconcile with the final
# cumulative snapshot (check_bench_json --stream), and a lifecycle
# trace-event timeline. Streaming must not perturb stdout: the tables
# stay byte-identical to the detached run above. The last live line must
# report every job done, none inflight and none retried.
rm -f target/ci-stream.jsonl target/ci-telemetry.jsonl target/ci-trace.json
$SUITE $SUITE_FLAGS --jobs 4 --manifest target/ci-stream.jsonl --check \
    --progress=50ms --telemetry-out target/ci-telemetry.jsonl \
    --trace-out target/ci-trace.json \
    > target/ci-stream.out 2> target/ci-stream.err
diff target/ci-suite.out target/ci-stream.out
grep '^progress: ' target/ci-stream.err | tail -n 1 \
    | grep -Eq '^progress: ([0-9]+)/\1 done, 0 inflight, 0 retried'
cargo run --offline --release -p atc-bench --bin check_bench_json -- \
    --stream --min-epochs 4 target/ci-telemetry.jsonl
test -s target/ci-trace.json

echo "==> batched-core determinism smoke (--jobs 1 vs --jobs 4 stdout)"
# Every suite job runs through the one interleaved engine (the
# single-core Machine is its one-thread case); identical stdout at 1 and
# 4 workers pins scheduler determinism end-to-end (the pinned RunStats,
# SMT and multicore digests live in tests/oracle_equivalence.rs).
rm -f target/ci-det1.jsonl target/ci-det4.jsonl
$SUITE $SUITE_FLAGS --figures fig14,fig16 --jobs 1 \
    --manifest target/ci-det1.jsonl > target/ci-det1.out
$SUITE $SUITE_FLAGS --figures fig14,fig16 --jobs 4 \
    --manifest target/ci-det4.jsonl > target/ci-det4.out
diff target/ci-det1.out target/ci-det4.out

echo "==> suite resume smoke (kill-free: run half, resume the rest)"
# fig16 is 18 jobs (base + tempo x 9 benchmarks): run 5, then resume
# and require that exactly the 13 missing jobs execute.
rm -f target/ci-resume.jsonl
$SUITE $SUITE_FLAGS --figures fig16 --jobs 4 --max-jobs 5 \
    --manifest target/ci-resume.jsonl > /dev/null
$SUITE $SUITE_FLAGS --figures fig16 --jobs 4 --resume --check \
    --assert-executed 13 --manifest target/ci-resume.jsonl > /dev/null

echo "==> fault-plan smoke (seeded panic+transient+stall+torn, then heal)"
# A faulted pass may legitimately leave failed/panicked records (the
# point is that the process survives and records them); the healing
# pass resumes with faults off, re-executes every non-ok record, and
# must render stdout byte-identical to a clean run.
rm -f target/ci-fault.jsonl target/ci-clean.jsonl
$SUITE $SUITE_FLAGS --figures fig14,fig16 --jobs 4 \
    --manifest target/ci-clean.jsonl > target/ci-clean.out
$SUITE $SUITE_FLAGS --figures fig14,fig16 --jobs 4 \
    --retries 2 --backoff-ms 1 --deadline-ms 60000 \
    --fault-plan "7:panic@0.4,transient@0.4,stall5@0.4,torn@0.5" \
    --manifest target/ci-fault.jsonl > /dev/null || true
$SUITE $SUITE_FLAGS --figures fig14,fig16 --jobs 4 --resume --retry-failed \
    --check --manifest target/ci-fault.jsonl > target/ci-healed.out
diff target/ci-clean.out target/ci-healed.out

echo "==> SIGKILL resume smoke (kill -9 mid-sweep, resume byte-identical)"
# The crash point is fault-plan-chosen: fig16 schedules tempo/* jobs
# ahead of base/*, so stalling key=base/ parks the tail of the sweep
# while the tempo records are written; we kill -9 once the manifest
# shows progress, then --resume must complete the sweep with stdout
# byte-identical to the clean run above. Every record is written
# through as its job completes, so each of the L newline-terminated
# lines the kill left is a usable record (the plan tears nothing, and
# no job fails): the resume must execute exactly TOTAL - L jobs, where
# TOTAL is the job count the killed run announced on stderr. The same
# scenario runs as a cargo test
# (crates/experiments/tests/crash_resume.rs); this smoke exercises it
# against the release binary with a real kill -9.
rm -f target/ci-sigkill.jsonl target/ci-sigkill.err
cargo build --offline --release -q -p atc-experiments --bin suite
target/release/suite $SUITE_FLAGS --figures fig14,fig16 --jobs 2 \
    --fault-plan "42:stall30000@key=base/" \
    --manifest target/ci-sigkill.jsonl > /dev/null 2> target/ci-sigkill.err &
SUITE_PID=$!
tries=0
until [ -s target/ci-sigkill.jsonl ]; do
    tries=$((tries + 1))
    [ "$tries" -le 1200 ] || { echo "manifest never progressed"; exit 1; }
    sleep 0.1
done
kill -9 "$SUITE_PID"
wait "$SUITE_PID" 2>/dev/null || true
TOTAL=$(sed -n 's/^suite: \([0-9][0-9]*\) jobs across .*/\1/p' target/ci-sigkill.err)
L=$(wc -l < target/ci-sigkill.jsonl)
[ -n "$TOTAL" ] && [ "$L" -lt "$TOTAL" ] || {
    echo "bad SIGKILL state: TOTAL=$TOTAL L=$L"
    exit 1
}
$SUITE $SUITE_FLAGS --figures fig14,fig16 --jobs 2 --resume --check \
    --assert-executed $((TOTAL - L)) \
    --manifest target/ci-sigkill.jsonl > target/ci-sigkill.out
diff target/ci-clean.out target/ci-sigkill.out

echo "==> telemetry smoke (telemetry_study --json target/telemetry_smoke.json)"
# Runs a small workload with telemetry attached; the example itself
# exits nonzero if telemetry counters fail to reconcile with RunStats,
# and the validator checks the atc-telemetry-v1 document it wrote.
cargo run --offline --release --example telemetry_study -- \
    --warmup 10000 --measure 60000 --json target/telemetry_smoke.json
cargo run --offline --release -p atc-bench --bin check_bench_json -- target/telemetry_smoke.json

echo "CI OK"
