//! Admission-edge tests: credit accounting across commits, aborts,
//! sheds, and drains; overload policies (Shed rejection before any
//! state is touched, Block parking with bounded in-flight work and a
//! timeout); per-class latency histograms; and the ad-hoc hybrid path
//! (`Engine::query_at` — admitted, logged, undo-able).

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use sstore_common::{tuple, DataType, Error, Schema, Value};
use sstore_engine::admission::TxnClass;
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::recovery::recover;
use sstore_engine::{
    App, Engine, EngineConfig, LoggingConfig, OverloadPolicy, RecoveryMode,
};
use sstore_storage::index::{IndexDef, IndexKind};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn test_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sstore-adm-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Relaxed)
    ))
}

fn int_schema() -> Schema {
    Schema::of(&[("v", DataType::Int)])
}

/// Two independent border streams feeding one sink table, a pair of
/// OLTP procs (one commits, one always aborts), with `work_us` of
/// artificial execution time per border transaction so admission
/// pressure can build while a test floods the edge.
fn app(work_us: u64) -> App {
    let sink_schema = Schema::of(&[("src", DataType::Int), ("v", DataType::Int)]);
    let border = move |src: i64| {
        move |ctx: &mut sstore_engine::ProcCtx<'_>| {
            if work_us > 0 {
                std::thread::sleep(Duration::from_micros(work_us));
            }
            for r in ctx.input().to_vec() {
                let v = r.get(0).as_int()?;
                if v < 0 {
                    return Err(ctx.abort("negative input"));
                }
                ctx.sql("ins", &[Value::Int(src), Value::Int(v)])?;
            }
            Ok(())
        }
    };
    App::builder()
        .stream("s1", int_schema())
        .stream("s2", int_schema())
        .table("sink", sink_schema)
        .proc("bp1", &[("ins", "INSERT INTO sink (src, v) VALUES (?, ?)")], &[], border(1))
        .proc("bp2", &[("ins", "INSERT INTO sink (src, v) VALUES (?, ?)")], &[], border(2))
        .proc(
            "ok_call",
            &[("ins", "INSERT INTO sink (src, v) VALUES (0, ?)")],
            &[],
            |ctx| {
                let v = ctx.params()[0].clone();
                ctx.sql("ins", &[v])?;
                Ok(())
            },
        )
        .proc("fail_call", &[], &[], |ctx| Err(ctx.abort("always aborts")))
        .pe_trigger("s1", "bp1")
        .pe_trigger("s2", "bp2")
        .build()
        .unwrap()
}

fn sink_count(engine: &Engine) -> i64 {
    engine
        .query(0, "SELECT COUNT(*) FROM sink", vec![])
        .unwrap()
        .scalar()
        .unwrap()
        .as_int()
        .unwrap()
}

// ----------------------------------------------------------------------
// Overload policies
// ----------------------------------------------------------------------

#[test]
fn shed_rejects_at_border_with_no_effect_and_credits_return() {
    let credits = 2;
    let config = EngineConfig::default()
        .with_data_dir(test_dir("shed"))
        .with_admission_credits(credits)
        .with_overload(OverloadPolicy::Shed);
    let engine = Engine::start(config, app(500)).unwrap();

    let total = 200;
    let mut shed = 0u64;
    for i in 0..total {
        match engine.ingest("s1", vec![tuple![i]]) {
            Ok(_) => {}
            Err(Error::Overloaded(_)) => shed += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(shed > 0, "200 fast sends against 2 credits and 500us/txn must shed");
    assert!(shed < total as u64, "the first {credits} sends must always be admitted");
    engine.drain().unwrap();

    // Shed batches had no effect: exactly the admitted ones committed.
    assert_eq!(sink_count(&engine), total - shed as i64);
    let m = engine.metrics();
    assert_eq!(EngineMetrics::get(&m.shed_batches), shed);
    assert_eq!(m.shed_for("s1"), shed);
    assert_eq!(m.shed_for("s2"), 0);
    assert_eq!(m.sheds_by_origin(), vec![("s1".to_string(), shed)]);

    // Quiesced: every credit is back in the gate.
    assert_eq!(engine.admitted_in_flight(0), 0);
    assert_eq!(engine.admission_available(0), credits);

    // The admitted borders were latency-accounted with ordered quantiles.
    let border = m.class_latency(TxnClass::Border);
    assert_eq!(border.end_to_end.count, total as u64 - shed);
    assert!(border.end_to_end.p50 <= border.end_to_end.p95);
    assert!(border.end_to_end.p95 <= border.end_to_end.p99);
    assert!(
        border.execution.p50 >= Duration::from_micros(500),
        "border execution includes the artificial work: {:?}",
        border.execution.p50
    );
    engine.shutdown();
}

#[test]
fn block_bounds_inflight_and_admits_everything() {
    let credits = 2;
    let config = EngineConfig::default()
        .with_data_dir(test_dir("block"))
        .with_admission_credits(credits)
        .with_overload(OverloadPolicy::Block { timeout: Duration::from_secs(30) });
    let engine = Engine::start(config, app(300)).unwrap();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let max_seen = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Relaxed) {
                max_seen.fetch_max(engine.admitted_in_flight(0), Relaxed);
                std::thread::yield_now();
            }
        });
        for i in 0..100i64 {
            engine.ingest("s1", vec![tuple![i]]).expect("Block admits everything");
        }
        engine.drain().unwrap();
        stop.store(true, Relaxed);
    });

    assert_eq!(sink_count(&engine), 100, "no batch was shed under Block");
    assert_eq!(EngineMetrics::get(&engine.metrics().shed_batches), 0);
    let max_seen = max_seen.load(Relaxed);
    assert!(max_seen <= credits, "in-flight {max_seen} exceeded {credits} credits");
    assert!(max_seen > 0, "sampler must have observed admitted work");
    assert_eq!(engine.admission_available(0), credits);
    engine.shutdown();
}

#[test]
fn block_timeout_rejects_as_overloaded() {
    let config = EngineConfig::default()
        .with_data_dir(test_dir("block-timeout"))
        .with_admission_credits(1)
        .with_overload(OverloadPolicy::Block { timeout: Duration::from_millis(40) });
    // Each border transaction takes ~100ms, so a second ingest cannot
    // get the single credit within the 40ms timeout.
    let engine = Engine::start(config, app(100_000)).unwrap();
    engine.ingest("s1", vec![tuple![1i64]]).unwrap();
    let err = engine.ingest("s1", vec![tuple![2i64]]).unwrap_err();
    assert!(matches!(err, Error::Overloaded(_)), "got: {err}");
    assert_eq!(engine.metrics().shed_for("s1"), 1);
    engine.drain().unwrap();
    assert_eq!(sink_count(&engine), 1);
    assert_eq!(engine.admission_available(0), 1);
    engine.shutdown();
}

#[test]
fn oltp_calls_are_admitted_and_classed() {
    let config = EngineConfig::default().with_data_dir(test_dir("oltp-class"));
    let engine = Engine::start(config, app(0)).unwrap();
    for i in 0..10i64 {
        engine.call("ok_call", vec![Value::Int(i)]).unwrap();
    }
    assert!(engine.call("fail_call", vec![]).is_err());
    engine.drain().unwrap();
    let m = engine.metrics();
    let oltp = m.class_latency(TxnClass::Oltp);
    assert_eq!(oltp.end_to_end.count, 11, "commits AND aborts are accounted");
    assert_eq!(engine.admission_available(0), engine.config().admission_credits);
    // Distinct class from Border (nothing was ingested).
    assert_eq!(m.class_latency(TxnClass::Border).end_to_end.count, 0);
    engine.shutdown();
}

/// Block admission must not reorder batches: per stream and per
/// partition, border transactions execute in batch-id order. The hard
/// case is two threads flooding the SAME stream while all of them
/// fight over two credits — a parked ingester must not end up holding
/// an earlier batch id than one admitted after it (ids are drawn only
/// after admission, and id-assignment + send are atomic under the
/// counter lock). A third thread on a second stream adds cross-stream
/// contention for the same credits. A fourth makes back-to-back
/// synchronous round trips beside them: its caller parks on a reply
/// channel while the partition thread parks and wakes on its inbox, so
/// a lost wakeup on either side shows as a stall past the time bound
/// (or a hang).
#[test]
fn block_admission_preserves_per_stream_batch_order() {
    let config = EngineConfig::default()
        .with_data_dir(test_dir("block-order"))
        .with_admission_credits(2)
        .with_overload(OverloadPolicy::Block { timeout: Duration::from_secs(30) })
        .with_trace();
    let engine = Engine::start(config, app(100)).unwrap();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for i in 0..20i64 {
                    engine.ingest("s1", vec![tuple![i]]).unwrap();
                }
            });
        }
        s.spawn(|| {
            for i in 0..40i64 {
                engine.ingest("s2", vec![tuple![i]]).unwrap();
            }
        });
        s.spawn(|| {
            for i in 0..1000i64 {
                engine.call_at(0, "ok_call", vec![Value::Int(i)]).unwrap();
                sink_count(&engine);
            }
        });
    });
    let took = start.elapsed();
    assert!(took < Duration::from_secs(10), "round trips stalled: {took:?}");
    engine.drain().unwrap();
    for proc in ["bp1", "bp2"] {
        let batches: Vec<u64> = engine
            .metrics()
            .trace_snapshot()
            .iter()
            .filter(|e| e.proc == proc)
            .map(|e| e.batch.unwrap().raw())
            .collect();
        assert_eq!(batches.len(), 40);
        assert!(
            batches.windows(2).all(|w| w[0] < w[1]),
            "{proc} executed out of batch order: {batches:?}"
        );
    }
    engine.shutdown();
}

/// Satellite regression: a split batch that fails all-or-nothing
/// admission sheds *every one of its sub-requests* — including those
/// whose credits were acquired and rolled back — so `shed_batches`
/// always equals offered − admitted sub-requests. (The old accounting
/// counted only the one failing acquisition.)
#[test]
fn split_batch_shed_counts_every_subrequest() {
    use sstore_engine::engine::hash_partition;

    // Two keys that land on different partitions of a 2-partition
    // engine (routing is deterministic, so probe once).
    let key_on = |p: usize| {
        (0..100i64)
            .find(|k| hash_partition(&Value::Int(*k), 2) == p)
            .expect("some key maps to each partition")
    };
    let (k0, k1) = (key_on(0), key_on(1));

    let kv = sstore_common::Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let app = App::builder()
        .stream_partitioned("ps", kv.clone(), "k")
        .table("psink", kv)
        .proc("pb", &[("ins", "INSERT INTO psink (k, v) VALUES (?, ?)")], &[], |ctx| {
            std::thread::sleep(Duration::from_millis(200));
            for r in ctx.input().to_vec() {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("ps", "pb")
        .build()
        .unwrap();
    // `occupied` is the partition whose single credit a slow border
    // transaction holds. occupied=0 sheds on the FIRST acquisition;
    // occupied=1 sheds on the second, after partition 0's credit was
    // acquired and must roll back — both count both sub-requests.
    for occupied in [0usize, 1] {
        let config = EngineConfig::default()
            .with_data_dir(test_dir("split-shed"))
            .with_partitions(2)
            .with_admission_credits(1)
            .with_overload(OverloadPolicy::Shed);
        let engine = Engine::start(config, app.clone()).unwrap();

        let slow_key = if occupied == 0 { k0 } else { k1 };
        engine.ingest("ps", vec![tuple![slow_key, 0i64]]).unwrap(); // holds the credit ~200ms
        let err = engine
            .ingest("ps", vec![tuple![k0, 1i64], tuple![k1, 2i64]])
            .expect_err("split batch must shed while a credit is held");
        assert!(matches!(err, Error::Overloaded(_)), "got: {err}");

        // offered = 1 (slow) + 2 (split) sub-requests; admitted = 1.
        let offered = 3u64;
        let admitted = 1u64;
        let m = engine.metrics();
        assert_eq!(
            EngineMetrics::get(&m.shed_batches),
            offered - admitted,
            "occupied={occupied}: counter must equal offered − admitted sub-requests"
        );
        assert_eq!(m.shed_for("ps"), offered - admitted);
        // The rolled-back credit of the *other* partition is back.
        assert_eq!(engine.admission_available(1 - occupied), 1);

        engine.drain().unwrap();
        // Only the slow batch's row landed.
        let rows: i64 = (0..2)
            .map(|p| {
                engine
                    .query(p, "SELECT COUNT(*) FROM psink", vec![])
                    .unwrap()
                    .scalar()
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .sum();
        assert_eq!(rows, 1, "the shed split batch had no effect");
        assert_eq!(engine.admission_available(0), 1);
        assert_eq!(engine.admission_available(1), 1);
        engine.shutdown();
    }
}

// ----------------------------------------------------------------------
// Credit-leak property
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever mix of committing, aborting, shed, and ad-hoc client
    /// work hits the edge, credits never leak: every acquired credit
    /// is back after `drain`, and the shed/commit/abort accounting
    /// exactly partitions the offered requests.
    #[test]
    fn credits_never_leak(
        ops in proptest::collection::vec((0u8..5, 0i64..100), 1..60),
        credits in 1usize..4,
    ) {
        let config = EngineConfig::default()
            .with_data_dir(test_dir("prop-leak"))
            .with_admission_credits(credits)
            .with_overload(OverloadPolicy::Shed);
        let engine = Engine::start(config, app(200)).unwrap();
        let mut shed = 0u64;
        let mut aborted_admitted = 0u64;
        let mut ok_rows = 0i64;
        for (kind, v) in &ops {
            let outcome = match kind {
                // Committing border batch.
                0 => engine.ingest("s1", vec![tuple![*v]]).map(|_| true),
                // Aborting border batch (negative value).
                1 => engine.ingest("s2", vec![tuple![-1i64 - *v]]).map(|_| false),
                // Committing OLTP call.
                2 => engine.call("ok_call", vec![Value::Int(*v)]).map(|_| true),
                // Aborting OLTP call: admitted, then aborts.
                3 => match engine.call("fail_call", vec![]) {
                    Err(Error::Overloaded(_)) => Err(Error::Overloaded("shed".into())),
                    Err(_) => Ok(false),
                    Ok(_) => panic!("fail_call cannot commit"),
                },
                // Ad-hoc SQL write (admitted + logged-path shaped).
                _ => engine
                    .query_at(0, "INSERT INTO sink (src, v) VALUES (9, ?)", vec![Value::Int(*v)])
                    .map(|_| true),
            };
            match outcome {
                Ok(true) => ok_rows += 1,
                Ok(false) => aborted_admitted += 1,
                Err(Error::Overloaded(_)) => shed += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        engine.drain().unwrap();
        // Credits: acquired == returned.
        prop_assert_eq!(engine.admitted_in_flight(0), 0);
        prop_assert_eq!(engine.admission_available(0), credits);
        // Accounting partitions the offered load exactly. (Committed
        // rows: aborting borders insert nothing.)
        let m = engine.metrics();
        prop_assert_eq!(EngineMetrics::get(&m.shed_batches), shed);
        prop_assert_eq!(EngineMetrics::get(&m.txns_aborted), aborted_admitted);
        prop_assert_eq!(sink_count(&engine), ok_rows);
        // Every admitted request was latency-accounted in some class.
        let accounted: u64 = m.latency_snapshot().iter().map(|c| c.end_to_end.count).sum();
        prop_assert_eq!(accounted, ops.len() as u64 - shed);
        engine.shutdown();
    }
}

// ----------------------------------------------------------------------
// Ad-hoc hybrid access (Engine::query_at)
// ----------------------------------------------------------------------

fn hybrid_app() -> App {
    App::builder()
        .stream("in", int_schema())
        .table_indexed(
            "t",
            Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
            vec![IndexDef {
                name: "t_pk".into(),
                key_columns: vec![0],
                kind: IndexKind::Hash,
                unique: true,
            }],
        )
        .proc("bp", &[("ins", "INSERT INTO t (k, v) VALUES (?, 0)")], &[], |ctx| {
            for r in ctx.input().to_vec() {
                ctx.sql("ins", &[r.get(0).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("in", "bp")
        .build()
        .unwrap()
}

#[test]
fn query_at_reads_and_writes_shared_tables() {
    let engine =
        Engine::start(EngineConfig::default().with_data_dir(test_dir("adhoc")), hybrid_app())
            .unwrap();
    // Streaming side maintains t…
    engine.ingest_sync("in", vec![tuple![1i64], tuple![2i64], tuple![3i64]]).unwrap();
    engine.drain().unwrap();
    // …and the OLTP side reads and writes it ad hoc, transactionally.
    let r = engine.query_at(0, "SELECT COUNT(*) FROM t", vec![]).unwrap();
    assert_eq!(r.scalar().unwrap().as_int().unwrap(), 3);
    let r = engine
        .query_at(0, "UPDATE t SET v = ? WHERE k = ?", vec![Value::Int(7), Value::Int(2)])
        .unwrap();
    assert_eq!(r.rows_affected, 1);
    engine.query_at(0, "INSERT INTO t (k, v) VALUES (10, 10)", vec![]).unwrap();
    let r = engine.query(0, "SELECT v FROM t ORDER BY k", vec![]).unwrap();
    let got: Vec<i64> = r.rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
    assert_eq!(got, vec![0, 7, 0, 10]);
    // Ad-hoc OLTP work is admitted and accounted under the Oltp class.
    assert!(engine.metrics().class_latency(TxnClass::Oltp).end_to_end.count >= 3);

    // Planned at the engine edge: bad SQL fails there, before admission.
    let err = engine.query_at(0, "SELECT nope FROM t", vec![]).unwrap_err();
    assert!(matches!(err, Error::Plan(_)), "got: {err}");
    // Stream writes need a workflow batch: rejected inside the txn.
    assert!(engine.query_at(0, "INSERT INTO in (v) VALUES (1)", vec![]).is_err());
    engine.shutdown();
}

#[test]
fn adhoc_selects_run_columnar_and_count_batches() {
    let engine = Engine::start(
        EngineConfig::default().with_data_dir(test_dir("adhoc-columnar")),
        hybrid_app(),
    )
    .unwrap();
    // Enough rows to clear the columnar small-table cutoff (64).
    for k in 0..100i64 {
        engine
            .query_at(0, "INSERT INTO t (k, v) VALUES (?, ?)", vec![Value::Int(k), Value::Int(k % 5)])
            .unwrap();
    }
    let m = engine.metrics();
    let before = EngineMetrics::get(&m.columnar_batches);
    let r = engine
        .query_at(0, "SELECT v, COUNT(*) FROM t WHERE k >= 10 GROUP BY v", vec![])
        .unwrap();
    assert_eq!(r.rows.len(), 5);
    let after = EngineMetrics::get(&m.columnar_batches);
    assert!(after > before, "full-scan SELECT must go through the columnar path");
    // An indexed point lookup stays on the row path: no new batches.
    let r = engine.query_at(0, "SELECT v FROM t WHERE k = 3", vec![]).unwrap();
    assert_eq!(r.scalar().unwrap().as_int().unwrap(), 3);
    assert_eq!(EngineMetrics::get(&m.columnar_batches), after);
    engine.shutdown();
}

#[test]
fn adhoc_plan_cache_hits_answer_like_a_fresh_plan() {
    let engine = Engine::start(
        EngineConfig::default().with_data_dir(test_dir("adhoc-plancache")),
        hybrid_app(),
    )
    .unwrap();
    for k in 0..80i64 {
        engine
            .query_at(0, "INSERT INTO t (k, v) VALUES (?, ?)", vec![Value::Int(k), Value::Int(k % 3)])
            .unwrap();
    }
    let m = engine.metrics();
    let sql = "SELECT v, COUNT(*), SUM(k) FROM t GROUP BY v ORDER BY v";
    let fresh = engine.query_at(0, sql, vec![]).unwrap();
    let hits = EngineMetrics::get(&m.adhoc_plan_hits);
    let misses = EngineMetrics::get(&m.adhoc_plan_misses);
    assert!(misses >= 1, "first use of each SQL text must plan");
    // Same text again: served from the cache, same answer.
    let cached = engine.query_at(0, sql, vec![]).unwrap();
    assert_eq!(EngineMetrics::get(&m.adhoc_plan_hits), hits + 1);
    assert_eq!(EngineMetrics::get(&m.adhoc_plan_misses), misses);
    assert_eq!(cached.rows, fresh.rows, "cached plan must answer like a fresh one");
    // The least recently used entry goes first once the cache is full
    // (128 plans): as many other texts push this one out, its next use
    // plans again — and still answers identically.
    for k in 0..128 {
        engine.query_at(0, &format!("SELECT v FROM t WHERE k = {k}"), vec![]).unwrap();
    }
    let misses = EngineMetrics::get(&m.adhoc_plan_misses);
    let replanned = engine.query_at(0, sql, vec![]).unwrap();
    assert_eq!(EngineMetrics::get(&m.adhoc_plan_misses), misses + 1);
    assert_eq!(replanned.rows, fresh.rows);
    engine.shutdown();
}

#[test]
fn query_at_failure_rolls_back_whole_statement() {
    let engine =
        Engine::start(EngineConfig::default().with_data_dir(test_dir("adhoc-undo")), hybrid_app())
            .unwrap();
    engine.query_at(0, "INSERT INTO t (k, v) VALUES (5, 0)", vec![]).unwrap();
    // Multi-row ad-hoc insert whose second row collides on the unique
    // key: the already-inserted first row must roll back with it.
    let err = engine
        .query_at(0, "INSERT INTO t (k, v) VALUES (6, 0), (5, 1)", vec![])
        .unwrap_err();
    assert!(matches!(err, Error::UniqueViolation { .. }), "got: {err}");
    let r = engine.query(0, "SELECT k FROM t ORDER BY k", vec![]).unwrap();
    let got: Vec<i64> = r.rows.iter().map(|t| t.get(0).as_int().unwrap()).collect();
    assert_eq!(got, vec![5], "partial insert leaked");
    assert_eq!(engine.admission_available(0), engine.config().admission_credits);
    engine.shutdown();
}

#[test]
fn query_at_replays_from_the_command_log() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let dir = test_dir("adhoc-recover");
        let config = EngineConfig::default()
            .with_data_dir(dir.clone())
            .with_recovery(mode)
            .with_logging(LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() });
        let engine = Engine::start(config.clone(), hybrid_app()).unwrap();
        engine.ingest_sync("in", vec![tuple![1i64], tuple![2i64]]).unwrap();
        engine.drain().unwrap();
        engine
            .query_at(0, "UPDATE t SET v = 42 WHERE k = 1", vec![])
            .unwrap();
        engine.query_at(0, "INSERT INTO t (k, v) VALUES (99, 9)", vec![]).unwrap();
        engine.flush_logs().unwrap();
        engine.shutdown(); // simulated crash: no checkpoint

        let (recovered, report) = recover(config, hybrid_app()).unwrap();
        assert!(report.records_replayed >= 3, "borders + 2 ad-hoc records");
        let r = recovered.query(0, "SELECT k, v FROM t ORDER BY k", vec![]).unwrap();
        let rows: Vec<(i64, i64)> = r
            .rows
            .iter()
            .map(|t| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap()))
            .collect();
        assert_eq!(
            rows,
            vec![(1, 42), (2, 0), (99, 9)],
            "{mode:?} recovery must replay ad-hoc writes"
        );
        recovered.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
