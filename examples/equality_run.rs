//! The byte-equality run: a fixed, seeded workload whose every output
//! file and every printed query result must stay identical across a
//! change that claims to move no state (SQL, storage and window
//! changes). `scripts/equality_run.sh <rev>` runs it on a revision and
//! on the working tree and compares the two byte for byte.
//!
//! Under `<dir>` it writes, with command logging on:
//!
//! * `voter/` — the leaderboard app (validation on): 50 000 one-vote
//!   batches, a base checkpoint after half of them and a delta
//!   checkpoint after three quarters;
//! * `linearroad/` — 500 Linear Road ticks, shuffled with one- and
//!   two-tick stragglers, on 2 partitions, checkpointed the same way;
//! * `voter-recovered/`, `linearroad-recovered/` — a copy of each data
//!   directory taken after the engine closed, then recovered in place.
//!
//! It prints, per app, every table's row count and a digest of its rows
//! in scan order, plus a few readable results, before the close and
//! again after recovery, and fails if the two differ.
//!
//! ```sh
//! cargo run --release --example equality_run -- /tmp/eq
//! ```

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore::common::{Result, TableId, Tuple};
use sstore::engine::recovery::recover;
use sstore::engine::{App, Engine, EngineConfig, LoggingConfig};
use sstore::workloads::gen::{TrafficGen, VoteGen};
use sstore::workloads::{linearroad, voter};

const VOTES: usize = 50_000;
const CONTESTANTS: usize = 100;
const TICKS: usize = 500;

/// One-vote batches.
fn vote_batches() -> Vec<Vec<Tuple>> {
    let mut gen = VoteGen::new(2024, CONTESTANTS, 30);
    gen.votes(VOTES).iter().map(|v| vec![v.tuple()]).collect()
}

/// Per tick and x-way, ~10% of reports deferred one tick and ~2% two,
/// each batch's order scrambled (as `examples/linear_road.rs`).
fn report_batches() -> Vec<Vec<Tuple>> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut traffic = TrafficGen::new(7, 4, 40);
    let mut deferred: [Vec<Tuple>; 2] = [Vec::new(), Vec::new()];
    let mut out = Vec::new();
    for _ in 0..TICKS {
        let mut due = std::mem::take(&mut deferred[0]);
        deferred.swap(0, 1);
        if !due.is_empty() {
            for i in (1..due.len()).rev() {
                due.swap(i, rng.gen_range(0..i + 1));
            }
            out.push(due);
        }
        for batch in traffic.tick() {
            let mut rows = Vec::with_capacity(batch.len());
            for r in &batch {
                match rng.gen_range(0..100) {
                    0..=9 => deferred[0].push(r.tuple()),
                    10..=11 => deferred[1].push(r.tuple()),
                    _ => rows.push(r.tuple()),
                }
            }
            for i in (1..rows.len()).rev() {
                rows.swap(i, rng.gen_range(0..i + 1));
            }
            out.push(rows);
        }
    }
    out
}

/// FNV-1a over a row's text: a digest that depends on nothing but the
/// bytes it is given.
fn fnv(hash: u64, text: &str) -> u64 {
    text.bytes().fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Every table of every partition, in scan order, then `queries`.
fn observe(engine: &Engine, queries: &[&str]) -> Result<Vec<String>> {
    let mut out = Vec::new();
    for p in 0..engine.partitions() {
        for t in 0..engine.ids().table_count() {
            let name = engine.ids().table_name(TableId(t as u32)).clone();
            let rows = engine.query(p, &format!("SELECT * FROM {name}"), vec![])?.rows;
            let digest = rows.iter().fold(0xcbf2_9ce4_8422_2325, |h, r| fnv(h, &format!("{r};")));
            out.push(format!("p{p} {name}: {} rows, digest {digest:016x}", rows.len()));
        }
        for sql in queries {
            for row in engine.query(p, sql, vec![])?.rows {
                out.push(format!("p{p} {sql} -> {row}"));
            }
        }
    }
    Ok(out)
}

/// One app's part of the run.
struct Workload {
    name: &'static str,
    config: EngineConfig,
    app: fn() -> App,
    setup: fn(&Engine) -> Result<()>,
    stream: &'static str,
    batches: Vec<Vec<Tuple>>,
    queries: &'static [&'static str],
}

/// Runs the batches with a base checkpoint at half and a delta at
/// three quarters, closes the engine, recovers a copy of its data
/// directory, and prints what both answer.
fn run(dir: &Path, w: Workload) -> Result<()> {
    let logging =
        LoggingConfig { enabled: true, group_commit: 8, fsync: false, ..Default::default() };
    let config = w.config.with_data_dir(dir.join(w.name)).with_logging(logging);
    std::fs::remove_dir_all(&config.data_dir).ok();
    let engine = Engine::start(config.clone(), (w.app)())?;
    (w.setup)(&engine)?;
    let n = w.batches.len();
    for (i, batch) in w.batches.into_iter().enumerate() {
        if i == n / 2 || i == n * 3 / 4 {
            engine.drain()?;
            engine.checkpoint()?;
        }
        engine.ingest(w.stream, batch)?;
    }
    engine.drain()?;
    engine.flush_logs()?;
    let before = observe(&engine, w.queries)?;
    engine.close()?;

    let copy = dir.join(format!("{}-recovered", w.name));
    std::fs::remove_dir_all(&copy).ok();
    copy_dir(&config.data_dir, &copy)?;
    let (recovered, report) = recover(config.with_data_dir(copy), (w.app)())?;
    let after = observe(&recovered, w.queries)?;
    recovered.close()?;

    println!("== {}: {n} batches, {} log records replayed", w.name, report.records_replayed);
    for line in &before {
        println!("{line}");
    }
    assert_eq!(before, after, "{}: recovery must reproduce the state it was handed", w.name);
    println!("== {}: recovered copy answers identically", w.name);
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> Result<()> {
    std::fs::create_dir_all(to)?;
    let mut entries: Vec<_> = std::fs::read_dir(from)?.collect::<std::io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let target = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &target)?;
        } else {
            std::fs::copy(e.path(), target)?;
        }
    }
    Ok(())
}

fn main() -> Result<()> {
    let dir = std::env::args().nth(1).expect("usage: equality_run <dir>");
    let dir = Path::new(&dir);
    std::fs::create_dir_all(dir)?;
    run(
        dir,
        Workload {
            name: "voter",
            config: EngineConfig::default(),
            app: || voter::leaderboard_app(true),
            setup: |e| voter::seed(e, CONTESTANTS),
            stream: "votes_in",
            batches: vote_batches(),
            queries: &[
                "SELECT kind, contestant, cnt FROM leaderboard ORDER BY kind, contestant",
                "SELECT n FROM total_votes",
            ],
        },
    )?;
    run(
        dir,
        Workload {
            name: "linearroad",
            config: EngineConfig::default().with_partitions(2),
            app: linearroad::linear_road_app,
            setup: |_| Ok(()),
            stream: "reports",
            batches: report_batches(),
            queries: &["SELECT SUM(amount) FROM tolls", "SELECT COUNT(*) FROM seg_speed5"],
        },
    )?;
    Ok(())
}
