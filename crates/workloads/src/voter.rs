//! The leaderboard-maintenance application (§1.1, Figure 1) on the
//! S-Store engine — the workload of Figures 8 and 10.
//!
//! Workflow of three stored procedures per incoming vote:
//!
//! 1. `validate` — check the contestant exists and is active, check the
//!    phone has not voted (a *unique-index probe* on `votes.phone` — the
//!    access path §4.6.3 credits for S-Store's win over Spark), record
//!    the vote, forward it;
//! 2. `maintain` — slide the 100-vote trending window, bump the
//!    contestant's total, and refresh the top-3 / bottom-3 / trending
//!    leaderboards;
//! 3. `delete_lowest` — every 1000 votes, remove the least popular
//!    contestant, delete their votes (returning them to voters), and
//!    repair the leaderboards.
//!
//! All three run serially per vote (guaranteed by the streaming
//! scheduler), and all state (Votes, Contestants, Leaderboards, the
//! trending window) is transactional.

use sstore_common::{DataType, Schema, Tuple, Value};
use sstore_engine::{App, Engine};
use sstore_storage::index::IndexDef;
use sstore_storage::IndexKind;

/// Size of the trending window (votes).
pub const TREND_WINDOW: usize = 100;
/// A contestant is eliminated every this many valid votes.
pub const DELETE_EVERY: i64 = 1000;

fn vote_schema() -> Schema {
    Schema::of(&[("phone", DataType::Int), ("contestant", DataType::Int), ("ts", DataType::Int)])
}

/// Builds the leaderboard app. `validate_phones == false` gives the
/// Figure 10 "no validation" variant (§4.6.3): the per-vote uniqueness
/// probe is skipped, everything else is identical.
pub fn leaderboard_app(validate_phones: bool) -> App {
    let mut b = App::builder()
        .stream("votes_in", vote_schema())
        .stream("validated", vote_schema())
        .stream("maintained", vote_schema())
        .table_indexed(
            "contestants",
            Schema::of(&[("id", DataType::Int), ("name", DataType::Text), ("active", DataType::Int)]),
            vec![IndexDef {
                name: "contestants_pk".into(),
                key_columns: vec![0],
                kind: IndexKind::Hash,
                unique: true,
            }],
        )
        .table_indexed(
            "votes",
            vote_schema(),
            vec![
                IndexDef {
                    name: "votes_by_phone".into(),
                    key_columns: vec![0],
                    kind: IndexKind::Hash,
                    // The "no validation" variant (§4.6.3) must accept
                    // repeat phones, so uniqueness is only enforced when
                    // validation is on.
                    unique: validate_phones,
                },
                IndexDef {
                    name: "votes_by_contestant".into(),
                    key_columns: vec![1],
                    kind: IndexKind::BTree,
                    unique: false,
                },
            ],
        )
        .table_indexed(
            "vote_counts",
            Schema::of(&[("contestant", DataType::Int), ("cnt", DataType::Int)]),
            vec![
                IndexDef {
                    name: "vote_counts_pk".into(),
                    key_columns: vec![0],
                    kind: IndexKind::Hash,
                    unique: true,
                },
                // The leaderboards' order: `fill_top`, `fill_bottom` and
                // `lowest` walk it from one end instead of sorting every
                // contestant to keep three.
                IndexDef {
                    name: "vote_counts_by_cnt".into(),
                    key_columns: vec![1, 0],
                    kind: IndexKind::BTree,
                    unique: false,
                },
            ],
        )
        .table(
            "leaderboard",
            Schema::of(&[("kind", DataType::Text), ("contestant", DataType::Int), ("cnt", DataType::Int)]),
        )
        .table("total_votes", Schema::of(&[("n", DataType::Int)]))
        .window("w_trend", "maintain", Schema::of(&[("contestant", DataType::Int)]), TREND_WINDOW, 1);

    // Setup procedure: contestants and counters. Params: n_contestants.
    b = b.proc(
        "seed",
        &[
            ("ins_c", "INSERT INTO contestants (id, name, active) VALUES (?, ?, 1)"),
            ("ins_cnt", "INSERT INTO vote_counts (contestant, cnt) VALUES (?, 0)"),
            ("ins_total", "INSERT INTO total_votes (n) VALUES (0)"),
        ],
        &[],
        |ctx| {
            let n = ctx.params()[0].as_int()?;
            for id in 1..=n {
                ctx.sql("ins_c", &[Value::Int(id), Value::Text(format!("contestant-{id}"))])?;
                ctx.sql("ins_cnt", &[Value::Int(id)])?;
            }
            ctx.sql("ins_total", &[])?;
            Ok(())
        },
    );

    // SP1: validate + record.
    b = b.proc(
        "validate",
        &[
            ("chk_contestant", "SELECT id FROM contestants WHERE id = ? AND active = 1"),
            ("chk_phone", "SELECT phone FROM votes WHERE phone = ?"),
            ("record", "INSERT INTO votes (phone, contestant, ts) VALUES (?, ?, ?)"),
        ],
        &["validated"],
        move |ctx| {
            let rows = ctx.input().to_vec();
            let mut valid = Vec::with_capacity(rows.len());
            for r in rows {
                let contestant = r.get(1).clone();
                if ctx.sql("chk_contestant", &[contestant])?.rows.is_empty() {
                    continue; // inactive or unknown contestant: drop
                }
                if validate_phones {
                    let phone = r.get(0).clone();
                    if !ctx.sql("chk_phone", &[phone])?.rows.is_empty() {
                        continue; // duplicate vote: drop
                    }
                }
                ctx.sql("record", &[r.get(0).clone(), r.get(1).clone(), r.get(2).clone()])?;
                valid.push(r);
            }
            if valid.is_empty() {
                return Ok(()); // nothing downstream this round
            }
            ctx.emit("validated", valid)
        },
    );

    // SP2: leaderboard maintenance.
    b = b.proc(
        "maintain",
        &[
            ("w_ins", "INSERT INTO w_trend (contestant) VALUES (?)"),
            ("bump", "UPDATE vote_counts SET cnt = cnt + 1 WHERE contestant = ?"),
            ("bump_total", "UPDATE total_votes SET n = n + 1"),
            ("clear_top", "DELETE FROM leaderboard WHERE kind = 'top'"),
            (
                "fill_top",
                "INSERT INTO leaderboard (kind, contestant, cnt) \
                 SELECT 'top', contestant, cnt FROM vote_counts ORDER BY cnt DESC, contestant LIMIT 3",
            ),
            ("clear_bottom", "DELETE FROM leaderboard WHERE kind = 'bottom'"),
            (
                "fill_bottom",
                "INSERT INTO leaderboard (kind, contestant, cnt) \
                 SELECT 'bottom', contestant, cnt FROM vote_counts ORDER BY cnt ASC, contestant LIMIT 3",
            ),
            ("clear_trend", "DELETE FROM leaderboard WHERE kind = 'trend'"),
            (
                "fill_trend",
                "INSERT INTO leaderboard (kind, contestant, cnt) \
                 SELECT 'trend', contestant, COUNT(*) FROM w_trend \
                 GROUP BY contestant ORDER BY COUNT(*) DESC, contestant LIMIT 3",
            ),
        ],
        &["maintained"],
        |ctx| {
            let rows = ctx.input().to_vec();
            for r in &rows {
                ctx.sql("w_ins", &[r.get(1).clone()])?;
                ctx.sql("bump", &[r.get(1).clone()])?;
                ctx.sql("bump_total", &[])?;
            }
            ctx.sql("clear_top", &[])?;
            ctx.sql("fill_top", &[])?;
            ctx.sql("clear_bottom", &[])?;
            ctx.sql("fill_bottom", &[])?;
            ctx.sql("clear_trend", &[])?;
            ctx.sql("fill_trend", &[])?;
            ctx.emit("maintained", rows)
        },
    );

    // SP3: eliminate the lowest contestant every DELETE_EVERY votes.
    b = b.proc(
        "delete_lowest",
        &[
            ("total", "SELECT n FROM total_votes"),
            (
                "lowest",
                "SELECT contestant FROM vote_counts ORDER BY cnt ASC, contestant ASC LIMIT 1",
            ),
            ("actives", "SELECT COUNT(*) FROM vote_counts"),
            ("deactivate", "UPDATE contestants SET active = 0 WHERE id = ?"),
            ("purge_votes", "DELETE FROM votes WHERE contestant = ?"),
            ("purge_count", "DELETE FROM vote_counts WHERE contestant = ?"),
            ("purge_board", "DELETE FROM leaderboard WHERE contestant = ?"),
        ],
        &[],
        |ctx| {
            let total = ctx.sql("total", &[])?.scalar().map(|v| v.as_int()).transpose()?.unwrap_or(0);
            if total == 0 || total % DELETE_EVERY != 0 {
                return Ok(());
            }
            let remaining =
                ctx.sql("actives", &[])?.scalar().map(|v| v.as_int()).transpose()?.unwrap_or(0);
            if remaining <= 1 {
                return Ok(()); // a single winner remains
            }
            let lowest = match ctx.sql("lowest", &[])?.scalar() {
                Some(v) => v.clone(),
                None => return Ok(()),
            };
            ctx.sql("deactivate", std::slice::from_ref(&lowest))?;
            ctx.sql("purge_votes", std::slice::from_ref(&lowest))?;
            ctx.sql("purge_count", std::slice::from_ref(&lowest))?;
            ctx.sql("purge_board", &[lowest])?;
            Ok(())
        },
    );

    b.pe_trigger("votes_in", "validate")
        .pe_trigger("validated", "maintain")
        .pe_trigger("maintained", "delete_lowest")
        .build()
        .expect("leaderboard app is valid")
}

/// Seeds contestants; call once after [`Engine::start`].
pub fn seed(engine: &Engine, contestants: usize) -> sstore_common::Result<()> {
    for p in 0..engine.partitions() {
        engine.call_at(p, "seed", vec![Value::Int(contestants as i64)])?;
    }
    Ok(())
}

/// Converts votes to ingestion tuples.
pub fn vote_tuples(votes: &[crate::gen::Vote]) -> Vec<Tuple> {
    votes.iter().map(|v| v.tuple()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::VoteGen;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use sstore_engine::{Engine, EngineConfig};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn cfg(tag: &str) -> EngineConfig {
        EngineConfig::default().with_data_dir(std::env::temp_dir().join(format!(
            "sstore-voter-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }

    fn run(validate: bool, votes: usize, dup_permille: u32) -> Engine {
        let engine = Engine::start(cfg("run"), leaderboard_app(validate)).unwrap();
        seed(&engine, 10).unwrap();
        let mut gen = VoteGen::new(42, 10, dup_permille);
        for v in gen.votes(votes) {
            engine.ingest("votes_in", vec![v.tuple()]).unwrap();
        }
        engine.drain().unwrap();
        engine
    }

    #[test]
    fn duplicate_votes_are_rejected_only_with_validation() {
        let with = run(true, 400, 100);
        let without = run(false, 400, 100);
        let n_with = with
            .query(0, "SELECT COUNT(*) FROM votes", vec![])
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        let n_without = without
            .query(0, "SELECT COUNT(*) FROM votes", vec![])
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert!(n_with < 400, "≈10% duplicates must be dropped, kept {n_with}");
        assert_eq!(n_without, 400, "without validation every vote lands");
        with.shutdown();
        without.shutdown();
    }

    /// §4.6.3: validation is a probe of the unique index on
    /// `votes.phone`, not a scan — one index lookup per vote, however
    /// many votes the table holds. `validate`'s statements run on a
    /// standalone EE, where the table's access-path counters can be read.
    #[test]
    fn validation_probes_the_phone_index_and_never_scans() {
        use sstore_engine::ee::ExecutionEngine;
        use sstore_engine::metrics::EngineMetrics;
        use sstore_engine::names::AppIds;
        use std::sync::Arc;

        let app = leaderboard_app(true);
        let ids = Arc::new(AppIds::build(&app).unwrap());
        let (mut ee, stmts) =
            ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).unwrap();
        let validate = &stmts["validate"];
        for phone in 0..200i64 {
            let phone = Value::Int(phone % 150); // the last 50 are repeats
            let before = ee.table_stats("votes").unwrap().clone();
            ee.begin(None).unwrap();
            let probe = ee.exec(validate["chk_phone"], std::slice::from_ref(&phone)).unwrap();
            let seen = !probe.rows.is_empty();
            if !seen {
                ee.exec(validate["record"], &[phone, Value::Int(1), Value::Int(0)]).unwrap();
            }
            ee.commit().unwrap();
            let after = ee.table_stats("votes").unwrap();
            assert_eq!(after.index_lookups(), before.index_lookups() + 1);
            assert_eq!(after.scans(), 0, "an equality lookup fell back to a scan");
        }
        assert_eq!(ee.table_len("votes").unwrap(), 150);
    }

    /// The leaderboard refresh walks `vote_counts_by_cnt` from one end:
    /// with every count distinct, `fill_top` fetches the three rows it
    /// returns (and reads one index entry past them), not all 500.
    #[test]
    fn leaderboard_refresh_walks_the_count_index() {
        use sstore_engine::ee::ExecutionEngine;
        use sstore_engine::metrics::EngineMetrics;
        use sstore_engine::names::AppIds;
        use std::sync::Arc;

        let app = leaderboard_app(true);
        let ids = Arc::new(AppIds::build(&app).unwrap());
        let (mut ee, stmts) =
            ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).unwrap();
        ee.begin(None).unwrap();
        for id in 1..=500i64 {
            ee.exec(stmts["seed"]["ins_cnt"], &[Value::Int(id)]).unwrap();
            for _ in 0..id * 7 % 500 {
                ee.exec(stmts["maintain"]["bump"], &[Value::Int(id)]).unwrap();
            }
        }
        for (proc, stmt, returned) in
            [("maintain", "fill_top", 3), ("maintain", "fill_bottom", 3), ("delete_lowest", "lowest", 1)]
        {
            let before = ee.table_stats("vote_counts").unwrap().ordered_visits();
            ee.exec(stmts[proc][stmt], &[]).unwrap();
            let visited = ee.table_stats("vote_counts").unwrap().ordered_visits() - before;
            assert!((1..=4).contains(&visited), "{stmt} visited {visited} rows to return {returned}");
        }
        let top = ee.query("SELECT contestant, cnt FROM leaderboard WHERE kind = 'top'", &[]).unwrap();
        let mut want: Vec<(i64, i64)> = (1..=500).map(|id| (id * 7 % 500, id)).collect();
        want.sort_unstable_by_key(|&(cnt, _)| std::cmp::Reverse(cnt));
        let want: Vec<Tuple> =
            want[..3].iter().map(|&(cnt, id)| Tuple::new(vec![Value::Int(id), Value::Int(cnt)])).collect();
        assert_eq!(top.rows, want);
        ee.commit().unwrap();
    }

    /// `fill_trend` reads the trending board off the group index the
    /// engine derived for `w_trend`: once the window has filled, every
    /// refresh is answered from the index and no batch of window rows is
    /// scanned, each walks the index's count order and stops after the
    /// three groups it returns, and the board is what a scan of the
    /// window gives.
    #[test]
    fn fill_trend_reads_the_group_index() {
        use sstore_common::BatchId;
        use sstore_engine::ee::ExecutionEngine;
        use sstore_engine::metrics::EngineMetrics;
        use sstore_engine::names::AppIds;
        use std::sync::Arc;

        let app = leaderboard_app(true);
        let ids = Arc::new(AppIds::build(&app).unwrap());
        let metrics = Arc::new(EngineMetrics::new());
        let (mut ee, stmts) = ExecutionEngine::install(&app, ids, metrics.clone()).unwrap();
        let maintain = &stmts["maintain"];
        let mut gen = VoteGen::new(7, 500, 0);
        let warm_up = TREND_WINDOW as u64 + 1;
        for n in 1..=3 * warm_up {
            if n == warm_up + 1 {
                ee.table_stats("w_trend").unwrap().reset();
                metrics.columnar_batches.store(0, Ordering::Relaxed);
            }
            ee.begin(Some(BatchId(n))).unwrap();
            ee.exec(maintain["w_ins"], &[Value::Int(gen.vote().contestant)]).unwrap();
            ee.exec(maintain["clear_trend"], &[]).unwrap();
            ee.exec(maintain["fill_trend"], &[]).unwrap();
            if n > warm_up && n % 7 == 0 {
                ee.abort().unwrap();
            } else {
                ee.commit().unwrap();
            }
        }
        let stats = ee.table_stats("w_trend").unwrap();
        assert_eq!(stats.group_reads(), 2 * warm_up);
        assert_eq!(EngineMetrics::get(&metrics.columnar_batches), 0, "fill_trend scanned the window");
        // Of the window's ≈ 80 groups a refresh visits the three it
        // returns: a later group of the third one's count run loses its
        // tie on `contestant` (≈ 7.7 when the walk reads that run to its
        // end, ≈ 80 offering every group).
        assert_eq!(stats.ordered_visits(), 3 * stats.group_reads(), "groups visited by the refreshes");
        let board = ee
            .query("SELECT contestant, cnt FROM leaderboard WHERE kind = 'trend' ORDER BY cnt DESC, contestant", &[])
            .unwrap();
        // A WHERE keeps the planner off the index: this one scans.
        let scanned = ee
            .query(
                "SELECT contestant, COUNT(*) FROM w_trend WHERE contestant > 0 \
                 GROUP BY contestant ORDER BY COUNT(*) DESC, contestant LIMIT 3",
                &[],
            )
            .unwrap();
        assert_eq!(board.rows, scanned.rows);
        assert_eq!(board.rows.len(), 3);
    }

    #[test]
    fn leaderboards_are_consistent_with_counts() {
        let engine = run(true, 500, 0);
        // Sum of per-contestant counts equals total valid votes.
        let total = engine
            .query(0, "SELECT n FROM total_votes", vec![])
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(total, 500);
        let sum = engine
            .query(0, "SELECT SUM(cnt) FROM vote_counts", vec![])
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(sum, 500);
        // Top-3 leaderboard matches a direct query.
        let lb = engine
            .query(
                0,
                "SELECT contestant FROM leaderboard WHERE kind = 'top' ORDER BY cnt DESC, contestant",
                vec![],
            )
            .unwrap()
            .int_column(0)
            .unwrap();
        let direct = engine
            .query(0, "SELECT contestant FROM vote_counts ORDER BY cnt DESC, contestant LIMIT 3", vec![])
            .unwrap()
            .int_column(0)
            .unwrap();
        assert_eq!(lb, direct);
        // Trending window holds at most TREND_WINDOW votes.
        let trend_total = engine
            .query(0, "SELECT COUNT(*) FROM w_trend", vec![])
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(trend_total, TREND_WINDOW as i64);
        engine.shutdown();
    }

    #[test]
    fn elimination_fires_every_thousand_votes() {
        let engine = run(true, 2100, 0);
        let active = engine
            .query(0, "SELECT COUNT(*) FROM contestants WHERE active = 1", vec![])
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(active, 8, "two eliminations after 2000 valid votes");
        // The eliminated contestants' votes were returned (deleted).
        let remaining_votes = engine
            .query(0, "SELECT COUNT(*) FROM votes", vec![])
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert!(remaining_votes < 2100);
        // No vote references an inactive contestant.
        let orphans = engine
            .query(
                0,
                "SELECT COUNT(*) FROM votes v JOIN contestants c ON v.contestant = c.id \
                 WHERE c.active = 0",
                vec![],
            )
            .unwrap()
            .scalar()
            .unwrap()
            .as_int()
            .unwrap();
        assert_eq!(orphans, 0);
        engine.shutdown();
    }

    #[test]
    fn workflow_metrics_add_up() {
        let engine = run(true, 300, 0);
        let m = engine.metrics();
        // 300 workflows completed (each vote traverses to a terminal TE).
        assert_eq!(m.workflows_completed.load(Ordering::Relaxed), 300);
        // seed + 3 TEs per vote.
        assert_eq!(m.txns_committed.load(Ordering::Relaxed), 1 + 3 * 300);
        engine.shutdown();
    }
}
