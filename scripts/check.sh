#!/usr/bin/env sh
# Repo gate: formatting, lints on the whole workspace, the tier-1 suite and the
# whole workspace's tests.
# Run from the repo root: ./scripts/check.sh
set -eu

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + full test suite (adaptive scheduler)"
cargo build --release
cargo test -q

echo "== whole workspace: every crate's unit and integration tests, not only the root package's"
cargo test --workspace --no-fail-fast -q

echo "== perf harness unit tests (a read-only consumer of the product crates)"
cargo test -q --manifest-path perf/Cargo.toml

echo "== tier-1 under both forced scheduler modes"
RHEEM_SCHED=conc cargo test -q
RHEEM_SCHED=seq cargo test -q

echo "== tier-1 with the cross-job result cache enabled"
RHEEM_CACHE=on cargo test -q

echo "== tier-1 with the cache spilling to disk (tight memory, 64 MB spill tier)"
RHEEM_CACHE=on RHEEM_CACHE_MB=1 RHEEM_CACHE_DISK_MB=64 cargo test -q

echo "== tier-1 with columnar batch execution disabled (row interpreter)"
RHEEM_BATCH=off cargo test -q

echo "== trace round-trip (native JSON + chrome export)"
cargo run --release -q -p rheem-bench --bin trace_dump

echo "== scheduler bench gate (makespan < sequential sum; pool < spawn)"
cargo run --release -q -p rheem-bench --bin sched_bench

echo "== result-cache bench gate (warm rerun >= 2x; structural sharing >= 2x; spill replay >= 2x)"
cargo run --release -q -p rheem-bench --bin cache_bench

echo "== columnar batch bench gate (>= 1.5x on wordcount, scan, shuffle exchange; join reported)"
cargo run --release -q -p rheem-bench --bin batch_bench

echo "== multi-tenant service stress suite (2-core and 8-core pool shapes)"
RHEEM_POOL=2 cargo test -q --release --test service -- --test-threads=1
RHEEM_POOL=8 cargo test -q --release --test service -- --test-threads=1

echo "== job-service bench gate (>= 2x jobs/sec at 16 tenants vs serial)"
cargo run --release -q -p rheem-bench --bin service_bench

echo "== observability suite (recorder, exposition, watchdog over live TCP scrapes)"
cargo test -q --release --test obs -- --test-threads=1

echo "== observability bench gate (recorder+SLO overhead < 5%; live scrape leg)"
cargo run --release -q -p rheem-bench --bin obs_bench

echo "== all checks passed"

echo "== non-test rust lines per crate (report, not a gate)"
./scripts/loc.sh
