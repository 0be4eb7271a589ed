//! Fixed-seed chaos smoke: a deterministic slice of the chaos corpus runs
//! inside `cargo test`, so the tier-1 suite checks crash recovery against
//! the model oracle without the full release sweep
//! (`cargo run -p chaos --release -- --seeds 200`, and `--mode longrun`,
//! wired into `scripts/bench_smoke.sh`).

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

use chaos::{generate, generate_longrun, run_scenario, Scenario};
use sstore_engine::RecoveryMode;

/// How long one scenario may run in one mode. The whole smoke takes
/// about a second in a debug build, so a run past this is hung, not
/// slow: a slide that stays pending, say, is scheduled for ever.
const BOUND: Duration = Duration::from_secs(60);

/// Runs `sc` in both recovery modes, each on its own thread and one at
/// a time, failing with the line that replays the first divergence, or
/// the first run that panicked or did not finish within [`BOUND`].
fn run_both(sc: &Scenario, seed: u64, longrun: bool) {
    for (mode, name) in [(RecoveryMode::Strong, "strong"), (RecoveryMode::Weak, "weak")] {
        // `--mode longrun` runs both recovery modes.
        let flag = if longrun { "longrun" } else { name };
        let replay = format!("replay: CHAOS_SEED={seed} cargo run -p chaos -- --mode {flag}");
        let (tx, rx) = mpsc::channel();
        let sc = sc.clone();
        thread::spawn(move || tx.send(run_scenario(&sc, mode)));
        match rx.recv_timeout(BOUND) {
            Ok(Ok(_)) => {}
            Ok(Err(d)) => panic!("chaos divergence at seed {seed} ({name} mode): {d}\n{replay}"),
            Err(RecvTimeoutError::Timeout) => panic!(
                "chaos scenario at seed {seed} ({name} mode) did not finish within {BOUND:?}\n\
                 {replay}"
            ),
            Err(RecvTimeoutError::Disconnected) => {
                panic!("chaos scenario at seed {seed} ({name} mode) panicked\n{replay}")
            }
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
