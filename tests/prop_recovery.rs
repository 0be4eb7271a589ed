//! Property tests over the whole engine: for random vote workloads and
//! random checkpoint positions, (a) strong recovery reproduces the
//! exact pre-crash state, (b) weak recovery reproduces the same state
//! for this deterministic workflow, and (c) aborted work never leaks.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use sstore::engine::recovery::recover;
use sstore::engine::{Engine, EngineConfig, LoggingConfig, RecoveryMode};
use sstore::workloads::gen::VoteGen;
use sstore::workloads::voter;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn cfg(mode: RecoveryMode) -> EngineConfig {
    EngineConfig::default()
        .with_data_dir(std::env::temp_dir().join(format!(
            "sstore-prop-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        )))
        .with_recovery(mode)
        .with_logging(LoggingConfig { enabled: true, group_commit: 4, fsync: false, ..Default::default() })
}

/// Full observable state of the voter app:
/// (total, recorded votes, per-contestant counts, leaderboard rows).
type VoterState = (i64, i64, Vec<i64>, Vec<(String, i64, i64)>);

fn observe(engine: &Engine) -> VoterState {
    let total = engine
        .query(0, "SELECT n FROM total_votes", vec![])
        .unwrap()
        .scalar()
        .map(|v| v.as_int().unwrap())
        .unwrap_or(0);
    let nvotes = engine
        .query(0, "SELECT COUNT(*) FROM votes", vec![])
        .unwrap()
        .scalar()
        .unwrap()
        .as_int()
        .unwrap();
    let counts = engine
        .query(0, "SELECT cnt FROM vote_counts ORDER BY contestant", vec![])
        .unwrap()
        .rows
        .iter()
        .map(|t| t.get(0).as_int().unwrap())
        .collect::<Vec<i64>>();
    let board = engine
        .query(0, "SELECT kind, contestant, cnt FROM leaderboard ORDER BY kind, contestant", vec![])
        .unwrap()
        .rows
        .iter()
        .map(|r| {
            (
                r.get(0).as_text().unwrap().to_owned(),
                r.get(1).as_int().unwrap(),
                r.get(2).as_int().unwrap(),
            )
        })
        .collect();
    (total, nvotes, counts, board)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn recovery_reproduces_state(
        seed in 0u64..1000,
        nvotes in 50usize..220,
        checkpoint_at in proptest::option::of(10usize..40),
        mode_weak in any::<bool>(),
    ) {
        let mode = if mode_weak { RecoveryMode::Weak } else { RecoveryMode::Strong };
        let config = cfg(mode);
        let engine = Engine::start(config.clone(), voter::leaderboard_app(true)).unwrap();
        voter::seed(&engine, 6).unwrap();
        let votes = VoteGen::new(seed, 6, 150).votes(nvotes);
        for (i, v) in votes.iter().enumerate() {
            engine.ingest("votes_in", vec![v.tuple()]).unwrap();
            if checkpoint_at == Some(i) {
                engine.drain().unwrap();
                engine.checkpoint().unwrap();
            }
        }
        engine.drain().unwrap();
        engine.flush_logs().unwrap();
        let before = observe(&engine);
        engine.shutdown();

        let (recovered, _) = recover(config, voter::leaderboard_app(true)).unwrap();
        let after = observe(&recovered);
        prop_assert_eq!(&before, &after, "mode={:?} seed={} n={}", mode, seed, nvotes);

        // And the engine still works: one more vote (from a phone no
        // generator ever issues) extends the count.
        recovered
            .ingest("votes_in", vec![sstore::common::tuple![9_999_999_999i64, 1i64, 0i64]])
            .unwrap();
        recovered.drain().unwrap();
        let (total2, ..) = observe(&recovered);
        prop_assert_eq!(total2, before.0 + 1);
        recovered.shutdown();
    }
}

#[test]
fn aborted_transactions_leak_nothing() {
    // Duplicate-heavy input: under validation these drop mid-workflow.
    // The final state must equal a run fed only the accepted votes.
    let votes = VoteGen::new(1234, 6, 400).votes(300);
    let run = |only_valid: bool| {
        let engine = Engine::start(
            cfg(RecoveryMode::Strong),
            voter::leaderboard_app(true),
        )
        .unwrap();
        voter::seed(&engine, 6).unwrap();
        let mut seen = std::collections::HashSet::new();
        for v in &votes {
            if only_valid && !seen.insert(v.phone) {
                continue;
            }
            engine.ingest("votes_in", vec![v.tuple()]).unwrap();
        }
        engine.drain().unwrap();
        let state = observe(&engine);
        engine.shutdown();
        state
    };
    assert_eq!(run(false), run(true));
}
