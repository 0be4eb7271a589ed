//! Cross-crate integration tests through the `sstore` facade: the full
//! leaderboard application checked against an independent reference
//! model, hybrid OLTP/streaming consistency, and the formal §2.2
//! schedule conditions on real traces.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use sstore::engine::workflow::check_schedule;
use sstore::engine::{Engine, EngineConfig};
use sstore::workloads::gen::{Vote, VoteGen};
use sstore::workloads::voter;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn cfg(tag: &str) -> EngineConfig {
    EngineConfig::default().with_data_dir(std::env::temp_dir().join(format!(
        "sstore-e2e-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    )))
}

/// Independent reference model of the leaderboard workflow.
struct Model {
    seen_phones: HashSet<i64>,
    counts: HashMap<i64, i64>,
    active: HashSet<i64>,
    total: i64,
    votes: Vec<(i64, i64)>, // (phone, contestant) still recorded
}

impl Model {
    fn new(contestants: i64) -> Model {
        Model {
            seen_phones: HashSet::new(),
            counts: (1..=contestants).map(|c| (c, 0)).collect(),
            active: (1..=contestants).collect(),
            total: 0,
            votes: Vec::new(),
        }
    }

    fn vote(&mut self, v: &Vote) {
        if !self.active.contains(&v.contestant) {
            return;
        }
        if !self.seen_phones.insert(v.phone) {
            return;
        }
        *self.counts.get_mut(&v.contestant).expect("active contestant") += 1;
        self.votes.push((v.phone, v.contestant));
        self.total += 1;
        if self.total % voter::DELETE_EVERY == 0 && self.active.len() > 1 {
            // Lowest count, ties by smallest id (matches the SQL).
            let lowest = *self
                .active
                .iter()
                .min_by_key(|c| (self.counts[c], **c))
                .expect("non-empty");
            self.active.remove(&lowest);
            self.counts.remove(&lowest);
            // "Votes submitted for him or her will be deleted,
            // effectively returning the votes to the people who cast
            // them" (§1.1) — those phones may vote again.
            for (phone, c) in &self.votes {
                if *c == lowest {
                    self.seen_phones.remove(phone);
                }
            }
            self.votes.retain(|(_, c)| *c != lowest);
        }
    }
}

#[test]
fn leaderboard_matches_reference_model() {
    let engine = Engine::start(cfg("model"), voter::leaderboard_app(true)).unwrap();
    voter::seed(&engine, 10).unwrap();
    let mut model = Model::new(10);
    let votes = VoteGen::new(99, 10, 60).votes(2500);
    for v in &votes {
        model.vote(v);
        engine.ingest("votes_in", vec![v.tuple()]).unwrap();
    }
    engine.drain().unwrap();

    // Total valid votes.
    let total =
        engine.query(0, "SELECT n FROM total_votes", vec![]).unwrap().scalar().unwrap().as_int().unwrap();
    assert_eq!(total, model.total);

    // Recorded votes (post-elimination purges).
    let nvotes = engine
        .query(0, "SELECT COUNT(*) FROM votes", vec![])
        .unwrap()
        .scalar()
        .unwrap()
        .as_int()
        .unwrap();
    assert_eq!(nvotes as usize, model.votes.len());

    // Active contestants and their counts.
    let rows = engine
        .query(0, "SELECT contestant, cnt FROM vote_counts ORDER BY contestant", vec![])
        .unwrap();
    let engine_counts: HashMap<i64, i64> = rows
        .rows
        .iter()
        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
        .collect();
    assert_eq!(engine_counts, model.counts);

    // Top-3 equals the model's top-3 (count desc, id asc).
    let mut expect: Vec<(i64, i64)> = model.counts.iter().map(|(c, n)| (*c, *n)).collect();
    expect.sort_by_key(|(c, n)| (std::cmp::Reverse(*n), *c));
    expect.truncate(3);
    let top = engine
        .query(
            0,
            "SELECT contestant, cnt FROM leaderboard WHERE kind = 'top' ORDER BY cnt DESC, contestant",
            vec![],
        )
        .unwrap();
    let got: Vec<(i64, i64)> = top
        .rows
        .iter()
        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap()))
        .collect();
    assert_eq!(got, expect);
    engine.shutdown();
}

#[test]
fn hybrid_oltp_reads_see_consistent_snapshots() {
    // Interleave dashboard reads with the vote stream: every read must
    // see SUM(vote_counts.cnt) == total_votes.n (the invariant the three
    // serial SPs maintain; a scheduler that interleaved mid-workflow
    // would break it).
    let engine = Engine::start(cfg("hybrid").with_trace(), voter::leaderboard_app(true)).unwrap();
    voter::seed(&engine, 10).unwrap();
    let mut gen = VoteGen::new(3, 10, 0);
    for (i, v) in gen.votes(600).into_iter().enumerate() {
        engine.ingest("votes_in", vec![v.tuple()]).unwrap();
        if i % 25 == 0 {
            // The two reads below are separate OLTP-side queries; quiesce
            // so TEs cannot commit between them (each individual query
            // already runs between TEs — serial execution — but the
            // *pair* is not atomic).
            engine.drain().unwrap();
            let q = engine
                .query(
                    0,
                    "SELECT n FROM total_votes",
                    vec![],
                )
                .unwrap();
            let total = q.scalar().unwrap().as_int().unwrap();
            let sum = engine
                .query(0, "SELECT SUM(cnt) FROM vote_counts", vec![])
                .unwrap()
                .scalar()
                .unwrap()
                .as_int()
                .unwrap_or(0);
            // maintain bumps both in the same TE, so they can never
            // diverge by more than the single in-flight TE (queries run
            // between TEs ⇒ exactly equal).
            assert_eq!(total, sum, "dashboard saw a torn workflow state");
        }
    }
    engine.drain().unwrap();
    check_schedule(engine.ids(), &engine.metrics().trace_snapshot()).unwrap();
    engine.shutdown();
}

#[test]
fn trace_satisfies_formal_conditions_under_load() {
    let engine = Engine::start(cfg("formal").with_trace(), voter::leaderboard_app(true)).unwrap();
    voter::seed(&engine, 5).unwrap();
    let mut gen = VoteGen::new(4, 5, 200);
    for v in gen.votes(400) {
        engine.ingest("votes_in", vec![v.tuple()]).unwrap();
    }
    engine.drain().unwrap();
    let trace = engine.metrics().trace_snapshot();
    assert!(trace.len() >= 400, "at least one TE per vote");
    check_schedule(engine.ids(), &trace).unwrap();
    engine.shutdown();
}

#[test]
fn facade_reexports_are_usable() {
    use sstore::common::{tuple, Value};
    use sstore::sql::Planner;
    use sstore::storage::{Catalog, TableKind};

    let mut c = Catalog::new();
    c.create_table(
        "t",
        TableKind::Base,
        sstore::common::Schema::of(&[("v", sstore::common::DataType::Int)]),
    )
    .unwrap();
    c.table_mut("t").unwrap().insert(tuple![5i64]).unwrap();
    let stmt = Planner::new(&c).plan_sql("SELECT v + 1 FROM t").unwrap();
    let mut fx = Vec::new();
    let r = sstore::sql::execute(&mut c, &stmt, &[], &mut fx).unwrap();
    assert_eq!(r.rows[0].get(0), &Value::Int(6));
}
