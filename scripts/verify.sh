#!/bin/sh
# Full verification: release build, the complete test suite, and the
# panic-freedom lint gate (clippy::unwrap_used / expect_used / panic are
# denied workspace-wide; see [workspace.lints.clippy] in Cargo.toml).
#
# With --soak, additionally runs the 60-second daemon soak test: four
# clients hammer a picola-server under rotating chaos (worker panics,
# dropped sockets, shed queues, poisoned cache shards) and the run fails
# on any hang, lost job, or cache-conservation violation. Override the
# duration with PICOLA_SOAK_SECS (e.g. PICOLA_SOAK_SECS=10 for a quick
# local pass).
set -eu

cd "$(dirname "$0")/.."

SOAK=0
for arg in "$@"; do
    case "$arg" in
        --soak) SOAK=1 ;;
        *) echo "verify.sh: unknown argument '$arg' (supported: --soak)" >&2
           exit 2 ;;
    esac
done

echo "== cargo build --release"
cargo build --release --offline

echo "== cargo test (workspace)"
# Runs every crate's tests, the differential (differential_encoders,
# chaos_parallel, determinism) and property (prop_sat, prop_flat_cover,
# ...) suites included. The vendored proptest derives its input stream
# from each test's name and never reads *.proptest-regressions files;
# shrunk failures worth pinning are converted to deterministic tests
# instead (see tests/paper_properties.rs::historical_shrunk_instances_stay_fixed)
# — do not check regression files in.
cargo test -q --offline --workspace

echo "== cargo clippy -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== golden table fixtures"
sh scripts/regen_tables.sh --check

echo "== extraction golden on scf (release)"
# tests/extract_golden.rs pins extraction on every suite row; the scf row
# runs full multi-valued ESPRESSO, so it is ignored in debug and runs here.
cargo test -q --offline --release --test extract_golden -- --ignored

echo "== bench_json --smoke (obs metrics + work regression vs BENCH_pr3.json)"
cargo run -q --offline --release -p picola-bench --bin bench_json -- \
    --smoke --out /tmp/bench_smoke.json
if command -v python3 >/dev/null 2>&1; then
    # The smoke instances are a prefix of the standard corpus, so their
    # deterministic work counters must stay within +20% of the checked-in
    # baseline. The smoke report is schema v11, which carries no refine or
    # engine A/B blocks; the checked-in reports below still do, and their
    # invariants are validated there.
    python3 scripts/check_bench_metrics.py /tmp/bench_smoke.json \
        --baseline BENCH_pr3.json
    python3 scripts/check_bench_metrics.py BENCH_pr4.json
    # The checked-in large-tier report carries the serve_ab A/B (schema
    # v5): warm global-cache runs must be bit-identical to cold runs and
    # must actually hit the shared cache (warm_hit_rate >= 0.9).
    python3 scripts/check_bench_metrics.py BENCH_pr6.json
    # Schema v6 adds the mv_ab leg (flat vs legacy on multi-valued covers,
    # bit-identical costs required); the deterministic work counters are
    # additionally gated against the pr6 report (+20%).
    python3 scripts/check_bench_metrics.py BENCH_pr7.json \
        --baseline BENCH_pr6.json
    # Schema v7 adds the sat_ab optimality-gap leg: every in-guard
    # instance must carry a proven optimum, cross-checked against the
    # exact evaluator, zero mismatches, and no heuristic below the floor;
    # per-encoder total gaps must not grow vs the pr7 report.
    python3 scripts/check_bench_metrics.py BENCH_pr8.json \
        --baseline BENCH_pr7.json
    # Schema v8 added the kernel_ab leg (Wide vs Scalar kernel backends on
    # the flat engine; v10 dropped it with the backends): in the pr9 report
    # both legs must be bit-identical and the aggregate wide wall-per-work
    # must not regress below scalar; the deterministic work counters are
    # additionally gated against the pr8 report (+20%).
    python3 scripts/check_bench_metrics.py BENCH_pr9.json \
        --baseline BENCH_pr8.json
    # Schema v9 adds the stream block (huge-tier streaming-store A/B):
    # zero record mismatches across the memoryless/cold/warm legs, warm
    # hit rate >= 0.9, peak live instances within the pipeline bound, and
    # (on full-sized runs) a warm speedup of at least 5x; the
    # deterministic work counters are gated against the pr9 report (+20%).
    python3 scripts/check_bench_metrics.py BENCH_pr10.json \
        --baseline BENCH_pr9.json
else
    # Fallback without python: the metrics block must at least be present
    # and non-trivially populated in every instance.
    grep -q '"metrics"' /tmp/bench_smoke.json
    grep -q '"total_work"' /tmp/bench_smoke.json
fi
rm -f /tmp/bench_smoke.json /tmp/bench_smoke.records.bin

if [ "$SOAK" = 1 ]; then
    echo "== server soak (${PICOLA_SOAK_SECS:-60}s under rotating chaos)"
    cargo test -q --offline --release --test server_soak -- --ignored
fi

echo "verify: OK"
