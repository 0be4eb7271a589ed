//! Fixed-seed chaos smoke: a deterministic slice of the chaos corpus runs
//! inside `cargo test`, so the tier-1 suite checks crash recovery against
//! the model oracle without the full release sweep
//! (`cargo run -p chaos --release -- --seeds 200`, and `--mode longrun`,
//! wired into `scripts/bench_smoke.sh`).

use chaos::{generate, generate_longrun, run_scenario, Scenario};
use sstore_engine::RecoveryMode;

/// Runs `sc` in both recovery modes, failing with the line that replays
/// the first divergence.
fn run_both(sc: &Scenario, seed: u64, longrun: bool) {
    for (mode, name) in [(RecoveryMode::Strong, "strong"), (RecoveryMode::Weak, "weak")] {
        if let Err(d) = run_scenario(sc, mode) {
            // `--mode longrun` runs both recovery modes.
            let flag = if longrun { "longrun" } else { name };
            panic!(
                "chaos divergence at seed {seed} ({name} mode): {d}\n\
                 replay: CHAOS_SEED={seed} cargo run -p chaos -- --mode {flag}"
            );
        }
    }
}

/// Seeds 1–20 of the default corpus, which hold seed 10 (where a clean
/// close that dropped acknowledged work was caught), plus seed 521 (a
/// fault firing during replay, after a recovery that succeeded).
#[test]
fn chaos_corpus_smoke_has_no_divergences() {
    for seed in (1..=20).chain([521]) {
        run_both(&generate(seed), seed, false);
    }
}

/// Longrun seeds 1–5: more operations, forced checkpoints and small log
/// segments, so checkpoint chains, segment GC and compaction all run.
#[test]
fn chaos_longrun_smoke_has_no_divergences() {
    for seed in 1..=5 {
        run_both(&generate_longrun(seed), seed, true);
    }
}
