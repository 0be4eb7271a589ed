#!/usr/bin/env bash
# Pre-merge guard: the size ceiling, release build, the whole test
# suite, the four examples, the benchmark package's own tests, the chaos
# and SQL-fuzz corpora, then
# `sstore-bench smoke` — the gated bench cases at smoke length. Every
# bench gate is evaluated in Rust on typed values
# (crates/bench/src/cases/mod.rs; EXPERIMENTS.md "Smoke gates" lists
# them) and is a count invariant or a ratio of two things measured
# alternately in one process: nothing here parses bench output.
set -euo pipefail
cd "$(dirname "$0")/.."

# run_corpus <label> <word the last line must contain> <cargo args...>
# A corpus run prints its divergences (with the reproducing seed) and
# exits nonzero on one; a run cut short by its time box is still clean.
run_corpus() {
    local label=$1 clean=$2 out
    shift 2
    if ! out=$(cargo run --release -q "$@" 2>&1); then
        echo "$out"
        echo "bench_smoke: $label found a divergence (seed above)" >&2
        exit 1
    fi
    echo "$out" | tail -1
    case "$out" in
        *"$clean"* | *"time box"*) ;;
        *)
            echo "bench_smoke: $label did not report a clean sweep" >&2
            exit 1
            ;;
    esac
}

# The ROADMAP's tracked number, in every pre-merge run, checked first:
# `crates/` must stay under the ROADMAP's ceiling.
LOC_CEILING=21000
echo "== size (scripts/loc.sh) =="
total=$(scripts/loc.sh | awk '$1 == "total" { print $2 }')
echo "crates/ total: $total (ceiling $LOC_CEILING)"
if [ "$total" -ge "$LOC_CEILING" ]; then
    echo "bench_smoke: crates/ is $total non-test lines, at or over the $LOC_CEILING ceiling" >&2
    exit 1
fi

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

# The examples drive the app builder end to end and assert their own
# results: linear_road compares state across crash and recovery in both
# modes, fault_tolerance checks post-recovery counts. A failed assert
# exits nonzero.
echo "== examples =="
for example in quickstart leaderboard linear_road fault_tolerance; do
    cargo run --release -q --example "$example" > /dev/null
    echo "$example: ok"
done

# The benchmark package is outside the workspace and imports engine,
# SQL and storage names directly; its own tests (a 1/50-size run of all
# four workloads among them) fail here, not in the pipeline, when a PR
# renames one. Path dependencies only: builds offline.
echo "== perfbench tests =="
cargo test -q --manifest-path perfbench/Cargo.toml

# Seeded fault schedules (crashes at named engine crash points, torn
# writes, fsync errors) against the model oracle in both recovery
# modes. Replay a seed with CHAOS_SEED=<seed> cargo run -p chaos.
echo "== chaos smoke (200 seeds, both recovery modes) =="
run_corpus "chaos" "zero oracle divergences" -p chaos -- --seeds 200 --start 1 --time-box 120

# Same oracle, 3-5x the operations, forced checkpoint cadence and small
# segments: seal / GC / incremental checkpoint / recovery over many
# generations per seed.
echo "== chaos longrun smoke (100 seeds) =="
run_corpus "chaos longrun" "zero oracle divergences" -p chaos -- --seeds 100 --start 1 --mode longrun --time-box 120

# Seeded random SQL through two engine configurations (fresh state and
# post-crash replayed state) against the naive reference executor: rows
# bit-exactly, errors by wire code. Where a table has a B-tree, a
# quarter of its SELECTs are ORDER BY <index prefix> LIMIT 1-5, which
# the planner answers by walking the index. Replay with
# SQLFUZZ_SEED=<seed> cargo run -p sqlfuzz --release [-- --large].
echo "== sqlfuzz smoke (2000 seeds) =="
run_corpus "sqlfuzz" "seeds clean in" -p sqlfuzz -- --seeds 2000 --time-box 120

# First table 1100-2500 rows, ORDER BY + small LIMIT and GROUP BY
# weighted up: top-K survivors, group slots and tie-breaks have to
# outlive a 1024-row columnar batch.
echo "== sqlfuzz large-table smoke (200 seeds) =="
run_corpus "sqlfuzz --large" "seeds clean in" -p sqlfuzz -- --large --seeds 200 --time-box 120

echo "== bench smoke (hotpath, colscan, timewindow, scaling, overload, server, recovery) =="
./target/release/sstore-bench smoke
echo "bench_smoke: OK"
