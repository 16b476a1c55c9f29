#!/usr/bin/env sh
# Repo gate: formatting, lints on the whole workspace, the workspace's docs
# with warnings denied (a deleted or renamed item leaves no broken intra-doc
# link behind), the whole workspace's tests (a superset of tier-1's
# `cargo test -q`), the perf harness's tests, the trace round trip, the
# differential, cross-platform, chaos (nested loops included),
# fault-tolerance, explain and cache suites on a one-worker pool (where every
# partition runs inline; explain's golden span structure pins the stage-span
# and operator-span attributes a job's runs and per-operator profiles are
# derived from; cache publication takes a
# different path per node kind), the service and fault-tolerance suites on
# 2- and 8-worker pools (job coordinators on pool workers included), and the
# obs suite on 1-, 2- and 8-worker pools (straggler verdicts come from the
# completion path). Batch and cache modes are forced in-process by
# tests/differential.rs and tests/cache.rs, so the suite runs once.
# Run from the repo root: ./scripts/check.sh
set -eu

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace (deny warnings: broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== build + every crate's unit and integration tests"
cargo build --release
cargo test --workspace --no-fail-fast -q

echo "== perf harness unit tests (a read-only consumer of the product crates)"
cargo test -q --manifest-path perf/Cargo.toml

echo "== trace round-trip (native JSON + chrome export)"
cargo run --release -q -p rheem-bench --bin trace_dump

echo "== multi-tenant service stress, fault-tolerance and obs suites (1-, 2- and 8-worker pool shapes)"
RHEEM_POOL=1 cargo test -q --release --test service --test obs -- --test-threads=1
RHEEM_POOL=2 cargo test -q --release --test service --test fault_tolerance -- --test-threads=1
RHEEM_POOL=8 cargo test -q --release --test service --test fault_tolerance --test obs -- --test-threads=1

echo "== one-worker pool: every par_each_idx partition runs inline"
RHEEM_POOL=1 cargo test -q --release --test differential --test cross_platform \
    --test chaos --test fault_tolerance --test explain --test cache

echo "== observability suite (job records, exposition, watchdog over live TCP scrapes)"
cargo test -q --release --test obs -- --test-threads=1

echo "== all checks passed"

echo "== non-test rust lines per crate (report, not a gate)"
./scripts/loc.sh
