//! Fixed-seed differential-fuzzing smoke: a deterministic slice of the
//! sqlfuzz corpus runs inside `cargo test` so the tier-1 suite catches
//! query-path divergences without the full release sweep
//! (`cargo run -p sqlfuzz --release -- --seeds 2000`, wired into
//! `scripts/bench_smoke.sh`).

use sqlfuzz::driver::run_case;
use sqlfuzz::gen::{generate, generate_large};

/// Seeds chosen to include past bug-finding neighborhoods (1113: index
/// key-expression errors; 1210: NaN payload bits; 2603: large Int/Float
/// join keys; 4374: constant-aggregate dedup) plus a spread of fresh
/// ones. Each case is 24–48 statements across four engine
/// configurations, so this comfortably exceeds 200 distinct queries.
const SMOKE_SEEDS: [u64; 10] = [0, 1, 2, 3, 1113, 1210, 2603, 4374, 7777, 12345];

#[test]
fn fuzz_corpus_smoke_has_no_divergences() {
    let mut stmts = 0;
    for &seed in &SMOKE_SEEDS {
        let case = generate(seed);
        stmts += case.stmts.len();
        if let Some(d) = run_case(&case) {
            panic!("divergence at seed {seed}: {d}\nreplay: SQLFUZZ_SEED={seed} cargo run -p sqlfuzz");
        }
    }
    assert!(stmts >= 200, "smoke corpus too small: {stmts} statements");
}

/// The large-table mode: one table of 1 100–2 500 rows, so every scan of
/// it crosses the columnar batch boundary, under ORDER BY + LIMIT and
/// GROUP BY mostly.
#[test]
fn fuzz_large_table_smoke_has_no_divergences() {
    for seed in [0u64, 1, 2, 3] {
        if let Some(d) = run_case(&generate_large(seed)) {
            panic!(
                "divergence at large seed {seed}: {d}\nreplay: SQLFUZZ_SEED={seed} cargo run -p sqlfuzz -- --large"
            );
        }
    }
}

#[test]
fn fuzz_generator_is_deterministic() {
    for seed in [0u64, 1113, 4374] {
        let a = generate(seed);
        let b = generate(seed);
        assert_eq!(a.script(), b.script(), "seed {seed} generated different cases");
    }
}
