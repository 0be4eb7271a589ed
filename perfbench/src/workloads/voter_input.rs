//! Vote generation and state checking shared by the two voter
//! workloads.

use sstore_engine::Engine;
use sstore_workloads::gen::{Vote, VoteGen};

use super::Report;
use crate::model::{BoardRow, VoterModel};

pub const CONTESTANTS: usize = 500;
pub const DUPLICATE_PERMILLE: u32 = 10;
/// Votes ingested, in one-vote batches, before anything is timed.
pub const WARMUP_VOTES: usize = 10_000;

/// `n` votes from `VoteGen(seed, 500, 10‰)`, in batches of `batch`,
/// folded through the reference model as they are drawn: a vote for a
/// contestant the show has already eliminated is re-aimed at the nearest
/// remaining one below it, as a viewer's would be. Without that, a
/// quarter of late votes would take the one-statement reject path (the
/// generator's popularity skew eliminates the high ids first and keeps
/// drawing them), and "a vote" would mean less work the longer the run.
/// Returns `n + extra` votes and the model as it stands after the
/// first `n` — the state the engine must hold when the workload ends;
/// the extra votes continue the same stream for the layer probes.
pub fn generate(seed: u64, n: usize, batch: usize, extra: usize) -> (Vec<Vote>, VoterModel) {
    let mut gen = VoteGen::new(seed, CONTESTANTS, DUPLICATE_PERMILLE);
    let mut model = VoterModel::new(CONTESTANTS);
    let mut at_n = None;
    let mut votes = Vec::with_capacity(n + extra);
    while votes.len() < n + extra {
        if votes.len() == n {
            at_n = Some(model.clone());
        }
        let limit = if votes.len() < n { n } else { n + extra };
        let take = batch.min(limit - votes.len());
        let start = votes.len();
        for _ in 0..take {
            let mut v = gen.vote();
            v.contestant = model.nearest_active(v.contestant);
            votes.push(v);
        }
        model.apply_batch(&votes[start..]);
    }
    (votes, at_n.unwrap_or(model))
}

fn ints(engine: &Engine, sql: &str, cols: usize) -> Vec<Vec<i64>> {
    let rows = engine.query(0, sql, vec![]).expect("state query").rows;
    rows.iter()
        .map(|r| {
            (0..cols)
                .map(|c| r.get(c).as_int().expect("integer column"))
                .collect()
        })
        .collect()
}

/// The voter tables a recovery must reproduce and the model must match.
#[derive(Debug, PartialEq, Eq, Clone)]
pub struct VoterState {
    pub vote_counts: Vec<(i64, i64)>,
    pub total_votes: i64,
    pub leaderboard: Vec<BoardRow>,
    pub votes_rows: i64,
}

pub fn read_state(engine: &Engine) -> VoterState {
    let board = engine
        .query(0, "SELECT kind, contestant, cnt FROM leaderboard", vec![])
        .expect("leaderboard query")
        .rows;
    let mut leaderboard: Vec<BoardRow> = board
        .iter()
        .map(|r| {
            (
                r.get(0).as_text().expect("kind").to_owned(),
                r.get(1).as_int().expect("contestant"),
                r.get(2).as_int().expect("cnt"),
            )
        })
        .collect();
    leaderboard.sort();
    VoterState {
        vote_counts: ints(
            engine,
            "SELECT contestant, cnt FROM vote_counts ORDER BY contestant",
            2,
        )
        .into_iter()
        .map(|r| (r[0], r[1]))
        .collect(),
        total_votes: ints(engine, "SELECT n FROM total_votes", 1)[0][0],
        leaderboard,
        votes_rows: ints(engine, "SELECT COUNT(*) FROM votes", 1)[0][0],
    }
}

pub fn model_state(model: &VoterModel) -> VoterState {
    VoterState {
        vote_counts: model.vote_counts(),
        total_votes: model.total_votes(),
        leaderboard: model.leaderboard(),
        votes_rows: model.votes_rows() as i64,
    }
}

/// Final-state equality plus the steady-state guards: the show still
/// has contestants, and rejects are duplicates, not a collapsed show.
pub fn check(report: &mut Report, engine: &Engine, model: &VoterModel, sent: u64) {
    let (got, want) = (read_state(engine), model_state(model));
    report.check_eq("vote_counts", got.vote_counts, want.vote_counts);
    report.check_eq("total_votes", got.total_votes, want.total_votes);
    report.check_eq("leaderboard", got.leaderboard, want.leaderboard);
    report.check_eq("votes_rows", got.votes_rows, want.votes_rows);
    let active = model.active_contestants();
    report.check(
        "active_contestants",
        active >= 100,
        format!("{active} active, need ≥ 100"),
    );
    let share = model.rejected as f64 / sent.max(1) as f64;
    let limit = 2.0 * f64::from(DUPLICATE_PERMILLE) / 1000.0;
    report.check(
        "reject_share",
        share <= limit,
        format!("{:.4} of votes rejected, limit {limit}", share),
    );
}
