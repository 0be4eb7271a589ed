//! The paper's motivating application (§1.1): TV-show vote leaderboard
//! maintenance with validation, a 100-vote trending window, and
//! elimination every 1000 votes — all fully transactional.
//!
//! ```sh
//! cargo run --release --example leaderboard
//! ```

use sstore::engine::{Engine, EngineConfig};
use sstore::workloads::gen::VoteGen;
use sstore::workloads::voter;

fn main() -> sstore::common::Result<()> {
    let engine = Engine::start(
        EngineConfig::default().with_data_dir(std::env::temp_dir().join("sstore-leaderboard")),
        voter::leaderboard_app(true),
    )?;
    voter::seed(&engine, 10)?;

    // Stream 2500 votes (a few duplicate phone numbers sprinkled in —
    // validation rejects those).
    let mut gen = VoteGen::new(2024, 10, 30);
    for vote in gen.votes(2500) {
        engine.ingest("votes_in", vec![vote.tuple()])?;
    }
    engine.drain()?;

    // The OLTP side of the hybrid workload: a dashboard reading the
    // shared tables the streaming side maintains.
    let total = engine.query(0, "SELECT n FROM total_votes", vec![])?;
    println!("valid votes processed: {}", total.scalar().unwrap());

    println!("\nTop-3 leaderboard:");
    let top = engine.query(
        0,
        "SELECT contestant, cnt FROM leaderboard WHERE kind = 'top' ORDER BY cnt DESC",
        vec![],
    )?;
    for row in &top.rows {
        println!("  contestant {:>2} — {:>4} votes", row.get(0), row.get(1));
    }

    println!("\nTrending (last {} votes):", voter::TREND_WINDOW);
    let trend = engine.query(
        0,
        "SELECT contestant, cnt FROM leaderboard WHERE kind = 'trend' ORDER BY cnt DESC",
        vec![],
    )?;
    for row in &trend.rows {
        println!("  contestant {:>2} — {:>4} recent votes", row.get(0), row.get(1));
    }

    let eliminated = engine.query(
        0,
        "SELECT id FROM contestants WHERE active = 0 ORDER BY id",
        vec![],
    )?;
    println!(
        "\neliminated after {} votes: {:?}",
        2500,
        eliminated.rows.iter().map(|t| t.get(0).as_int()).collect::<Result<Vec<i64>, _>>()?
    );
    assert_eq!(eliminated.rows.len(), 2, "two eliminations in 2000+ valid votes");

    engine.shutdown();
    Ok(())
}
