//! Cross-partition dataflow tests: hash-split ingestion, exchange
//! workflow edges, the §3.2.4 scheduler guarantees across the exchange,
//! and recovery parity between multi-partition and crash-free runs.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use sstore_common::{tuple, BatchId, DataType, Schema, Tuple, Value};
use sstore_engine::config::SchedulerMode;
use sstore_engine::recovery::recover;
use sstore_engine::workflow::{check_schedule, TraceEvent};
use sstore_engine::{App, Engine, EngineConfig, EngineMode, LoggingConfig, RecoveryMode};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn test_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sstore-ex-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Relaxed)
    ))
}

fn kv_schema() -> Schema {
    Schema::of(&[("k", DataType::Int), ("v", DataType::Int)])
}

/// The first stage's re-keying: `(k, v) → (v % 3, v * 2)`.
fn rekey(v: i64) -> (i64, i64) {
    (v % 3, v * 2)
}

/// Two-stage pipeline whose stages run on different partitions:
/// xin (border, keyed k) → sp1 (re-key) → xmid (exchange) → sp2 → xout.
///
/// Deliberately duplicates `sstore_workloads::micro::exchange_pipeline`
/// (same shape, same re-keying): `sstore-engine` cannot dev-depend on
/// `sstore-workloads` without a dependency cycle, and this suite wants
/// the workflow under test defined next to the assertions anyway. The
/// root-level `tests/crash_recovery.rs` and the scaling bench exercise
/// the `micro::` copy, so drift between the two shows up there.
fn exchange_app() -> App {
    App::builder()
        .stream_partitioned("xin", kv_schema(), "k")
        .exchange_stream("xmid", kv_schema(), "k")
        .table("xout", kv_schema())
        .proc("sp1", &[], &["xmid"], |ctx| {
            let out: Vec<Tuple> = ctx
                .input()
                .iter()
                .map(|r| {
                    let (k2, v2) = rekey(r.get(1).as_int().unwrap());
                    Tuple::new(vec![Value::Int(k2), Value::Int(v2)])
                })
                .collect();
            ctx.emit("xmid", out)
        })
        .proc("sp2", &[("ins", "INSERT INTO xout (k, v) VALUES (?, ?)")], &[], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("xin", "sp1")
        .pe_trigger("xmid", "sp2")
        .build()
        .unwrap()
}

/// Three-stage variant with a *local* hop after the exchange:
/// xin → sp1 → xmid (exchange) → sp2 → s3 (plain stream) → sp3 → out.
/// The sp2→sp3 hop is where the streaming scheduler's fast-tracking is
/// observable per partition.
fn three_stage_app() -> App {
    App::builder()
        .stream_partitioned("xin", kv_schema(), "k")
        .exchange_stream("xmid", kv_schema(), "k")
        .stream("s3", kv_schema())
        .table("out", kv_schema())
        .proc("sp1", &[], &["xmid"], |ctx| {
            let out: Vec<Tuple> = ctx
                .input()
                .iter()
                .map(|r| {
                    let (k2, v2) = rekey(r.get(1).as_int().unwrap());
                    Tuple::new(vec![Value::Int(k2), Value::Int(v2)])
                })
                .collect();
            ctx.emit("xmid", out)
        })
        .proc("sp2", &[], &["s3"], |ctx| {
            let rows = ctx.input().to_vec();
            ctx.emit("s3", rows)
        })
        .proc("sp3", &[("ins", "INSERT INTO out (k, v) VALUES (?, ?)")], &[], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("xin", "sp1")
        .pe_trigger("xmid", "sp2")
        .pe_trigger("s3", "sp3")
        .build()
        .unwrap()
}

/// Mixed-key input batches: batch `b` carries rows `(k, v)` for several
/// keys, so both ingest routing and the exchange scatter rows.
fn mixed_batches(n: usize) -> Vec<Vec<Tuple>> {
    (0..n as i64)
        .map(|b| (0..4i64).map(|k| tuple![k, b * 4 + k]).collect())
        .collect()
}

fn table_union(engine: &Engine, table: &str) -> Vec<(i64, i64)> {
    let mut all = Vec::new();
    for p in 0..engine.partitions() {
        let got = engine.query(p, &format!("SELECT k, v FROM {table}"), vec![]).unwrap();
        all.extend(got.rows.iter().map(|r| {
            (r.get(0).as_int().unwrap(), r.get(1).as_int().unwrap())
        }));
    }
    all.sort();
    all
}

#[test]
fn multi_partition_output_equals_single_partition_oracle() {
    let batches = mixed_batches(10);
    let mut outputs = Vec::new();
    for partitions in [1usize, 2, 3] {
        let config = EngineConfig::default()
            .with_partitions(partitions)
            .with_trace()
            .with_data_dir(test_dir("oracle"));
        let engine = Engine::start(config, exchange_app()).unwrap();
        for b in &batches {
            engine.ingest("xin", b.clone()).unwrap();
        }
        engine.drain().unwrap();
        check_schedule(engine.ids(), &engine.metrics().trace_snapshot()).unwrap();
        outputs.push(table_union(&engine, "xout"));
        engine.shutdown();
    }
    assert_eq!(outputs[0], outputs[1], "2 partitions must match the 1-partition oracle");
    assert_eq!(outputs[0], outputs[2], "3 partitions must match the 1-partition oracle");
    // And the oracle itself is the re-keyed input.
    let mut want: Vec<(i64, i64)> = (0..40i64).map(rekey).collect();
    want.sort();
    assert_eq!(outputs[0], want);
}

#[test]
fn exchange_rows_land_on_their_key_partition() {
    let config = EngineConfig::default().with_partitions(2).with_data_dir(test_dir("home"));
    let engine = Engine::start(config, exchange_app()).unwrap();
    for b in mixed_batches(6) {
        engine.ingest("xin", b).unwrap();
    }
    engine.drain().unwrap();
    for p in 0..2 {
        let got = engine.query(p, "SELECT k FROM xout", vec![]).unwrap();
        for r in &got.rows {
            assert_eq!(
                sstore_engine::engine::hash_partition(r.get(0), 2),
                p,
                "row with key {} on wrong partition {p}",
                r.get(0)
            );
        }
    }
    assert!(
        sstore_engine::metrics::EngineMetrics::get(&engine.metrics().exchange_batches) > 0,
        "the exchange path must actually have run"
    );
    engine.shutdown();
}

/// Per-partition trace slices of one proc, in commit order.
fn proc_events<'a>(trace: &'a [TraceEvent], partition: usize) -> Vec<&'a TraceEvent> {
    trace.iter().filter(|e| e.partition == partition).collect()
}

fn batches_of(events: &[&TraceEvent], proc: &str) -> Vec<BatchId> {
    events.iter().filter(|e| e.proc == proc).map(|e| e.batch.unwrap()).collect()
}

fn run_three_stage(mode: SchedulerMode) -> Vec<TraceEvent> {
    let config = EngineConfig::default()
        .with_partitions(2)
        .with_scheduler(mode)
        .with_trace()
        .with_data_dir(test_dir("sched"));
    let engine = Engine::start(config, three_stage_app()).unwrap();
    for b in mixed_batches(40) {
        engine.ingest("xin", b).unwrap();
    }
    engine.drain().unwrap();
    let trace = engine.metrics().trace_snapshot();
    // Both disciplines keep the §2.2 constraints on this linear chain.
    check_schedule(engine.ids(), &trace).unwrap();
    engine.shutdown();
    trace
}

#[test]
fn streaming_scheduler_keeps_batch_order_and_round_contiguity_across_exchange() {
    let trace = run_three_stage(SchedulerMode::Streaming);
    for p in 0..2 {
        let events = proc_events(&trace, p);
        // Downstream TEs triggered by b1 < b2 execute in batch order on
        // every partition they land on, even though the exchange
        // interleaves sub-batches from two sources.
        for proc in ["sp1", "sp2", "sp3"] {
            let batches = batches_of(&events, proc);
            assert_eq!(batches.len(), 40, "{proc} ran once per batch on partition {p}");
            assert!(
                batches.windows(2).all(|w| w[0] < w[1]),
                "{proc} must run in batch order on partition {p}"
            );
        }
        // Fast-tracking (§3.2.4): the local successor of an
        // exchange-delivered TE runs immediately after it — queued
        // work never separates sp2(b) from sp3(b).
        for w in events.windows(2) {
            if w[0].proc == "sp2" {
                assert_eq!(w[1].proc, "sp3", "sp3 must immediately follow sp2 (partition {p})");
                assert_eq!(w[1].batch, w[0].batch, "and for the same batch (partition {p})");
            }
        }
    }
}

#[test]
fn fifo_ablation_violates_fast_track_ordering_across_exchange() {
    // Plain FIFO (H-Store's scheduler) still satisfies the bare §2.2
    // constraints for this linear workflow — check_schedule passes
    // inside run_three_stage — but it breaks the §3.2.4 fast-track
    // guarantee the streaming test above asserts: a triggered sp3(b)
    // waits at the back of the queue, so queued borders and later
    // exchange deliveries interleave between sp2(b) and sp3(b).
    let trace = run_three_stage(SchedulerMode::Fifo);
    let interleaved = (0..2).any(|p| {
        let events = proc_events(&trace, p);
        events.windows(2).any(|w| {
            w[0].proc == "sp2" && !(w[1].proc == "sp3" && w[1].batch == w[0].batch)
        })
    });
    assert!(
        interleaved,
        "FIFO must interleave foreign work between sp2(b) and its triggered sp3(b)"
    );
}

fn logging_config(tag: &str, mode: RecoveryMode, partitions: usize) -> EngineConfig {
    EngineConfig::default()
        .with_partitions(partitions)
        .with_data_dir(test_dir(tag))
        .with_recovery(mode)
        .with_logging(LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() })
}

#[test]
fn multi_partition_recovery_reproduces_state_strong_and_weak() {
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        for checkpoint_mid in [false, true] {
            let cfg = logging_config("rec", mode, 2);
            let engine = Engine::start(cfg.clone(), exchange_app()).unwrap();
            for (i, b) in mixed_batches(8).into_iter().enumerate() {
                engine.ingest("xin", b).unwrap();
                if checkpoint_mid && i == 3 {
                    engine.drain().unwrap();
                    engine.checkpoint().unwrap();
                }
            }
            engine.drain().unwrap();
            engine.flush_logs().unwrap();
            let before = table_union(&engine, "xout");
            engine.shutdown();

            let (recovered, _) = recover(cfg, exchange_app()).unwrap();
            assert_eq!(
                table_union(&recovered, "xout"),
                before,
                "mode={mode:?} checkpoint_mid={checkpoint_mid}"
            );
            // No double-applies: every input row appears exactly once.
            assert_eq!(before.len(), 32);
            // The recovered engine keeps flowing across partitions.
            recovered.ingest("xin", vec![tuple![0i64, 1000i64], tuple![1i64, 1001i64]]).unwrap();
            recovered.drain().unwrap();
            assert_eq!(table_union(&recovered, "xout").len(), 34);
            recovered.shutdown();
        }
    }
}

#[test]
fn dangling_exchange_batches_reship_after_recovery() {
    // Crash "mid-workflow": borders commit (H-Store mode, so no PE
    // triggers and no exchange sends — every xmid batch is left
    // dangling on its producing partition), a checkpoint captures the
    // dangling state, and recovery in S-Store mode must ship those
    // batches to their key partitions and finish the workflows.
    let dir = test_dir("dangle");
    let mk = |mode| EngineConfig {
        mode,
        ..EngineConfig::default()
            .with_partitions(2)
            .with_data_dir(dir.clone())
            .with_recovery(RecoveryMode::Weak)
            .with_logging(LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() })
    };
    let engine = Engine::start(mk(EngineMode::HStore), exchange_app()).unwrap();
    for b in mixed_batches(5) {
        engine.ingest_sync("xin", b).unwrap();
    }
    engine.drain().unwrap();
    assert!(table_union(&engine, "xout").is_empty(), "no triggers in H-Store mode");
    engine.checkpoint().unwrap();
    engine.flush_logs().unwrap();
    engine.shutdown();

    let (recovered, report) = recover(mk(EngineMode::SStore), exchange_app()).unwrap();
    assert!(report.triggers_fired >= 5, "dangling xmid batches must ship: {report:?}");
    let mut want: Vec<(i64, i64)> = (0..20i64).map(rekey).collect();
    want.sort();
    assert_eq!(table_union(&recovered, "xout"), want);
    recovered.shutdown();
}

#[test]
fn data_dependent_interior_stage_does_not_starve_the_exchange() {
    // xin → driver (per-row SQL INSERT into s1 — emits nothing for an
    // empty sub-batch) → s1 → sp1 → xmid (exchange) → sp2 → xout.
    // Each input batch keeps ALL rows on one key, so the other
    // partition's broadcast sub-batch is empty and its driver inserts
    // no rows. Without alignment pre-registration of declared outputs,
    // sp1 would never run there, its xmid sub-batch would never ship,
    // and every merge would wait forever — silently stranding all rows.
    let app = App::builder()
        .stream_partitioned("xin", kv_schema(), "k")
        .stream("s1", kv_schema())
        .exchange_stream("xmid", kv_schema(), "k")
        .table("xout", kv_schema())
        .proc("driver", &[("ins", "INSERT INTO s1 (k, v) VALUES (?, ?)")], &["s1"], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .proc("sp1", &[], &["xmid"], |ctx| {
            let out: Vec<Tuple> = ctx
                .input()
                .iter()
                .map(|r| {
                    let (k2, v2) = rekey(r.get(1).as_int().unwrap());
                    Tuple::new(vec![Value::Int(k2), Value::Int(v2)])
                })
                .collect();
            ctx.emit("xmid", out)
        })
        .proc("sp2", &[("ins", "INSERT INTO xout (k, v) VALUES (?, ?)")], &[], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("xin", "driver")
        .pe_trigger("s1", "sp1")
        .pe_trigger("xmid", "sp2")
        .build()
        .unwrap();
    let config = EngineConfig::default().with_partitions(2).with_data_dir(test_dir("starve"));
    let engine = Engine::start(config, app).unwrap();
    for b in 0..8i64 {
        // One key per batch: the whole batch lands on one partition.
        let rows: Vec<Tuple> = (0..3i64).map(|j| tuple![b, b * 3 + j]).collect();
        engine.ingest("xin", rows).unwrap();
    }
    engine.drain().unwrap();
    let mut want: Vec<(i64, i64)> = (0..24i64).map(rekey).collect();
    want.sort();
    assert_eq!(table_union(&engine, "xout"), want, "no batch may strand in the merge");
    engine.shutdown();
}

#[test]
fn a_nested_parent_ships_and_aligns_its_childs_exchange_output() {
    // xin → parent[child] → xmid (exchange, declared by the child) →
    // sp2 → xout. One key per batch leaves the other partition an empty
    // border sub-batch: the parent must still run there (xin feeds the
    // exchange), pre-register xmid and ship it, or the merge would
    // wait forever.
    let app = App::builder()
        .stream_partitioned("xin", kv_schema(), "k")
        .exchange_stream("xmid", kv_schema(), "k")
        .table("xout", kv_schema())
        .proc("child", &[], &["xmid"], |ctx| {
            let out: Vec<Tuple> = ctx
                .input()
                .iter()
                .map(|r| {
                    let (k2, v2) = rekey(r.get(1).as_int().unwrap());
                    Tuple::new(vec![Value::Int(k2), Value::Int(v2)])
                })
                .collect();
            ctx.emit("xmid", out)
        })
        .nested("parent", &["child"])
        .proc("sp2", &[("ins", "INSERT INTO xout (k, v) VALUES (?, ?)")], &[], |ctx| {
            for r in ctx.input().to_vec() {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("xin", "parent")
        .pe_trigger("xmid", "sp2")
        .build()
        .unwrap();
    let config =
        EngineConfig::default().with_partitions(2).with_trace().with_data_dir(test_dir("nested-x"));
    let engine = Engine::start(config, app).unwrap();
    for b in 0..6i64 {
        let rows: Vec<Tuple> = (0..3i64).map(|j| tuple![b, b * 3 + j]).collect();
        engine.ingest("xin", rows).unwrap();
    }
    engine.drain().unwrap();
    let mut want: Vec<(i64, i64)> = (0..18i64).map(rekey).collect();
    want.sort();
    assert_eq!(table_union(&engine, "xout"), want, "no batch may strand in the merge");
    let trace = engine.metrics().trace_snapshot();
    assert_eq!(trace.iter().filter(|e| e.proc == "parent").count(), 12, "both partitions, every batch");
    check_schedule(engine.ids(), &trace).unwrap();
    engine.shutdown();
}

#[test]
fn nested_child_exchange_producer_fed_by_two_borders_rejected() {
    // The producer declares the exchange stream through a nested
    // child; the nested parent is what the borders trigger. The
    // batch-id collision validation must see through the nesting.
    let err = App::builder()
        .stream_partitioned("in_a", kv_schema(), "k")
        .stream_partitioned("in_b", kv_schema(), "k")
        .exchange_stream("xmid", kv_schema(), "k")
        .proc("child", &[], &["xmid"], |ctx| {
            let rows = ctx.input().to_vec();
            ctx.emit("xmid", rows)
        })
        .nested("parent", &["child"])
        .proc("sink", &[], &[], |_| Ok(()))
        .pe_trigger("in_a", "parent")
        .pe_trigger("in_b", "parent")
        .pe_trigger("xmid", "sink")
        .build()
        .unwrap_err();
    assert!(matches!(err, sstore_common::Error::StreamViolation(_)), "got {err:?}");
}

#[test]
fn exchange_stream_with_two_producers_rejected() {
    // Batch ids are unique per border stream, so two producers would
    // ship colliding (stream, batch) sub-batches into one merge.
    let err = App::builder()
        .stream_partitioned("xin", kv_schema(), "k")
        .exchange_stream("xmid", kv_schema(), "k")
        .proc("a", &[], &["xmid"], |ctx| {
            let rows = ctx.input().to_vec();
            ctx.emit("xmid", rows)
        })
        .proc("b", &[], &["xmid"], |ctx| {
            let rows = ctx.input().to_vec();
            ctx.emit("xmid", rows)
        })
        .proc("sink", &[], &[], |_| Ok(()))
        .pe_trigger("xin", "a")
        .pe_trigger("xin", "b")
        .pe_trigger("xmid", "sink")
        .build()
        .unwrap_err();
    assert!(matches!(err, sstore_common::Error::StreamViolation(_)), "got {err:?}");
}

#[test]
fn exchange_stream_fed_by_two_border_streams_rejected() {
    // One producer, but triggered by two border streams whose batch
    // counters are independent — the same collision, one hop removed.
    let err = App::builder()
        .stream_partitioned("in_a", kv_schema(), "k")
        .stream_partitioned("in_b", kv_schema(), "k")
        .exchange_stream("xmid", kv_schema(), "k")
        .proc("merge", &[], &["xmid"], |ctx| {
            let rows = ctx.input().to_vec();
            ctx.emit("xmid", rows)
        })
        .proc("sink", &[], &[], |_| Ok(()))
        .pe_trigger("in_a", "merge")
        .pe_trigger("in_b", "merge")
        .pe_trigger("xmid", "sink")
        .build()
        .unwrap_err();
    assert!(matches!(err, sstore_common::Error::StreamViolation(_)), "got {err:?}");
}

#[test]
fn ingest_into_exchange_stream_rejected() {
    // Exchange batches are produced by the workflow; an externally
    // injected batch would draw from the wrong batch counter and skip
    // the alignment broadcast.
    let config = EngineConfig::default().with_partitions(2).with_data_dir(test_dir("noinject"));
    let engine = Engine::start(config, exchange_app()).unwrap();
    let err = engine.ingest("xmid", vec![tuple![1i64, 1i64]]).unwrap_err();
    assert!(matches!(err, sstore_common::Error::StreamViolation(_)), "got {err:?}");
    engine.shutdown();
}

#[test]
fn exchange_stream_without_pe_trigger_rejected() {
    let err = App::builder()
        .stream_partitioned("xin", kv_schema(), "k")
        .exchange_stream("dead_end", kv_schema(), "k")
        .proc("sp1", &[], &["dead_end"], |ctx| {
            let rows = ctx.input().to_vec();
            ctx.emit("dead_end", rows)
        })
        .pe_trigger("xin", "sp1")
        .build()
        .unwrap_err();
    assert!(matches!(err, sstore_common::Error::StreamViolation(_)), "got {err:?}");
}
