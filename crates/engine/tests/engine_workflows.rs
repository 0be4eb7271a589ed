//! End-to-end engine tests: workflows over PE triggers, the streaming
//! scheduler's ordering guarantees (§2.2), H-Store-mode client driving,
//! aborts, nested transactions, hybrid OLTP interleaving, and
//! multi-partition ingestion.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use sstore_common::{tuple, DataType, Schema, Tuple, Value};
use sstore_engine::config::SchedulerMode;
use sstore_engine::workflow::{check_nested_contiguity, check_schedule};
use sstore_engine::{App, BoundaryMode, Engine, EngineConfig, EngineMode};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn test_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sstore-it-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Relaxed)
    ))
}

fn int_schema() -> Schema {
    Schema::of(&[("v", DataType::Int)])
}

/// input → sp1 (validate, ×2) → s12 → sp2 (+1) → s23 → sp3 (sink).
fn pipeline_app() -> App {
    App::builder()
        .stream("input", int_schema())
        .stream("s12", int_schema())
        .stream("s23", int_schema())
        .table("audit", int_schema())
        .table("final", int_schema())
        .proc("sp1", &[("log", "INSERT INTO audit (v) VALUES (?)")], &["s12"], |ctx| {
            let rows = ctx.input().to_vec();
            let mut out = Vec::with_capacity(rows.len());
            for r in &rows {
                let v = r.get(0).as_int()?;
                if v < 0 {
                    return Err(ctx.abort("negative input"));
                }
                ctx.sql("log", &[Value::Int(v)])?;
                out.push(Tuple::new(vec![Value::Int(v * 2)]));
            }
            ctx.emit("s12", out)
        })
        .proc("sp2", &[], &["s23"], |ctx| {
            let out: Vec<Tuple> = ctx
                .input()
                .iter()
                .map(|r| Tuple::new(vec![Value::Int(r.get(0).as_int().unwrap() + 1)]))
                .collect();
            ctx.emit("s23", out)
        })
        .proc("sp3", &[("fin", "INSERT INTO final (v) VALUES (?)")], &[], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("fin", &[r.get(0).clone()])?;
            }
            Ok(())
        })
        .proc("count_final", &[("n", "SELECT COUNT(*) FROM final")], &[], |ctx| {
            let r = ctx.sql("n", &[])?;
            ctx.set_result(r);
            Ok(())
        })
        .pe_trigger("input", "sp1")
        .pe_trigger("s12", "sp2")
        .pe_trigger("s23", "sp3")
        .build()
        .unwrap()
}

fn final_values(engine: &Engine, partition: usize) -> Vec<i64> {
    engine
        .query(partition, "SELECT v FROM final ORDER BY v", vec![])
        .unwrap()
        .int_column(0)
        .unwrap()
}

#[test]
fn single_batch_flows_through_workflow() {
    for boundary in [BoundaryMode::Inline, BoundaryMode::Channel] {
        let config = EngineConfig::default()
            .with_boundary(boundary)
            .with_data_dir(test_dir("flow"));
        let engine = Engine::start(config, pipeline_app()).unwrap();
        engine.ingest("input", vec![tuple![5i64]]).unwrap();
        engine.drain().unwrap();
        // 5 → ×2 → +1 → 11
        assert_eq!(final_values(&engine, 0), vec![11]);
        let m = engine.metrics();
        assert_eq!(m.txns_committed.load(Relaxed), 3, "three TEs per workflow");
        assert_eq!(m.workflows_completed.load(Relaxed), 1);
        assert_eq!(m.pe_trigger_fires.load(Relaxed), 2);
        engine.shutdown();
    }
}

#[test]
fn many_batches_satisfy_ordering_constraints() {
    let config = EngineConfig::default().with_trace().with_data_dir(test_dir("order"));
    let engine = Engine::start(config, pipeline_app()).unwrap();
    for v in 0..50i64 {
        engine.ingest("input", vec![tuple![v]]).unwrap();
    }
    engine.drain().unwrap();
    assert_eq!(final_values(&engine, 0).len(), 50);
    assert_eq!(engine.metrics().workflows_completed.load(Relaxed), 50);
    let trace = engine.metrics().trace_snapshot();
    assert_eq!(trace.len(), 150);
    check_schedule(engine.ids(), &trace).unwrap();
    engine.shutdown();
}

#[test]
fn streaming_scheduler_keeps_rounds_contiguous() {
    // With the streaming scheduler, each workflow round runs back to
    // back: the trace is sp1,sp2,sp3 repeated per batch.
    let config = EngineConfig::default().with_trace().with_data_dir(test_dir("contig"));
    let engine = Engine::start(config, pipeline_app()).unwrap();
    for v in 0..10i64 {
        engine.ingest("input", vec![tuple![v]]).unwrap();
    }
    engine.drain().unwrap();
    let trace = engine.metrics().trace_snapshot();
    for chunk in trace.chunks(3) {
        assert_eq!(chunk[0].proc, "sp1");
        assert_eq!(chunk[1].proc, "sp2");
        assert_eq!(chunk[2].proc, "sp3");
        assert_eq!(chunk[0].batch, chunk[2].batch);
    }
    engine.shutdown();
}

#[test]
fn fifo_ablation_still_correct_for_pure_streams_but_interleaves() {
    // FIFO (H-Store's scheduler) with asynchronous ingestion interleaves
    // rounds: sp1 of batch 2 can run before sp3 of batch 1. That is
    // still a *legal* schedule per §2.2 for this linear workflow; the
    // point of the streaming scheduler is latency and isolation of
    // rounds. We assert both the legality and the interleaving.
    let config = EngineConfig::default()
        .with_scheduler(SchedulerMode::Fifo)
        .with_trace()
        .with_data_dir(test_dir("fifo"));
    let engine = Engine::start(config, pipeline_app()).unwrap();
    for v in 0..20i64 {
        engine.ingest("input", vec![tuple![v]]).unwrap();
    }
    engine.drain().unwrap();
    let trace = engine.metrics().trace_snapshot();
    check_schedule(engine.ids(), &trace).unwrap();
    let interleaved = trace
        .windows(2)
        .any(|w| w[0].proc == "sp1" && w[1].proc == "sp1" && w[0].batch != w[1].batch);
    assert!(interleaved, "FIFO should pipeline rounds (sp1 of several batches first)");
    engine.shutdown();
}

#[test]
fn abort_rolls_back_whole_te_and_skips_downstream() {
    let config = EngineConfig::default().with_data_dir(test_dir("abort"));
    let engine = Engine::start(config, pipeline_app()).unwrap();
    engine.ingest("input", vec![tuple![3i64]]).unwrap();
    // This batch aborts in sp1: the audit insert that happened before
    // the abort must roll back, and sp2/sp3 must never run for it.
    engine.ingest("input", vec![tuple![-1i64]]).unwrap();
    engine.ingest("input", vec![tuple![4i64]]).unwrap();
    engine.drain().unwrap();
    assert_eq!(final_values(&engine, 0), vec![7, 9]);
    let audit = engine.query(0, "SELECT v FROM audit ORDER BY v", vec![]).unwrap();
    assert_eq!(audit.int_column(0).unwrap(), vec![3, 4]);
    let m = engine.metrics();
    assert_eq!(m.txns_aborted.load(Relaxed), 1);
    assert_eq!(m.workflows_completed.load(Relaxed), 2);
    engine.shutdown();
}

/// A procedure body that panics takes its partition thread down (there
/// is no `catch_unwind`). Whatever is asked of that partition after
/// that must fail naming it — never hang — and closing the engine must
/// not read as a clean shutdown.
#[test]
fn a_dead_partition_is_named_and_never_closes_clean() {
    for boundary in [BoundaryMode::Inline, BoundaryMode::Channel] {
        let app = App::builder()
            .table("t", int_schema())
            .proc("boom", &[], &[], |_| panic!("procedure body panicked"))
            .build()
            .unwrap();
        let config =
            EngineConfig::default().with_data_dir(test_dir("dead")).with_boundary(boundary);
        let engine = Engine::start(config, app).unwrap();
        let names_p0 = |what: &str, err: sstore_common::Error| {
            assert!(err.to_string().contains("partition 0"), "{boundary:?} {what}: {err}");
        };
        names_p0("call", engine.call("boom", vec![]).unwrap_err());
        names_p0("query", engine.query(0, "SELECT v FROM t", vec![]).unwrap_err());
        names_p0("drain", engine.drain().unwrap_err());
        let err = engine.close().unwrap_err();
        assert!(err.to_string().contains("procedure body panicked"), "{err}");
        names_p0("close", err);
    }
}

#[test]
fn hstore_mode_requires_client_driving() {
    let config = EngineConfig {
        mode: EngineMode::HStore,
        ..EngineConfig::default()
    }
    .with_data_dir(test_dir("hstore"));
    let engine = Engine::start(config, pipeline_app()).unwrap();

    let (_, outcome) = engine.ingest_sync("input", vec![tuple![5i64]]).unwrap();
    // Border committed, but nothing flowed downstream on its own.
    assert_eq!(outcome.pending.len(), 1);
    assert_eq!(outcome.pending[0].proc, "sp2");
    engine.drain().unwrap();
    assert!(final_values(&engine, 0).is_empty(), "no PE triggers in H-Store mode");

    // The client drives each step itself (one round trip per step).
    engine.drive(0, outcome).unwrap();
    assert_eq!(final_values(&engine, 0), vec![11]);
    assert_eq!(engine.metrics().pe_trigger_fires.load(Relaxed), 0);
    engine.shutdown();
}

#[test]
fn oltp_calls_interleave_with_streams() {
    let config = EngineConfig::default().with_trace().with_data_dir(test_dir("hybrid"));
    let engine = Engine::start(config, pipeline_app()).unwrap();
    for v in 0..10i64 {
        engine.ingest("input", vec![tuple![v]]).unwrap();
        if v % 2 == 0 {
            let out = engine.call("count_final", vec![]).unwrap();
            assert!(out.result.scalar().is_some());
        }
    }
    engine.drain().unwrap();
    // The mixed schedule is still correct.
    check_schedule(engine.ids(), &engine.metrics().trace_snapshot()).unwrap();
    assert_eq!(final_values(&engine, 0).len(), 10);
    engine.shutdown();
}

#[test]
fn oltp_writes_to_streams_are_rejected() {
    let app = App::builder()
        .stream("s", int_schema())
        .proc("bad_oltp", &[("w", "INSERT INTO s (v) VALUES (1)")], &[], |ctx| {
            ctx.sql("w", &[])?;
            Ok(())
        })
        .proc("sink", &[], &[], |_| Ok(()))
        .pe_trigger("s", "sink")
        .build()
        .unwrap();
    let config = EngineConfig::default().with_data_dir(test_dir("oltp-stream"));
    let engine = Engine::start(config, app).unwrap();
    let err = engine.call("bad_oltp", vec![]).unwrap_err();
    assert!(err.to_string().contains("stream"), "got: {err}");
    engine.shutdown();
}

/// Nested-transaction app: votes → nested(validate, tally) where
/// validate writes a table + emits, tally consumes within the same
/// transaction and updates a counter table.
fn nested_app() -> App {
    App::builder()
        .stream("votes", int_schema())
        .stream("valid", int_schema())
        .table("seen", int_schema())
        .table("tally", Schema::of(&[("n", DataType::Int)]))
        .proc("validate", &[("rec", "INSERT INTO seen (v) VALUES (?)")], &["valid"], |ctx| {
            let rows = ctx.input().to_vec();
            for r in &rows {
                ctx.sql("rec", &[r.get(0).clone()])?;
            }
            ctx.emit("valid", rows)
        })
        .proc(
            "tally",
            &[
                ("cnt", "SELECT COUNT(*) FROM tally"),
                ("ins", "INSERT INTO tally (n) VALUES (?)"),
            ],
            &[],
            |ctx| {
                let n = ctx.input().len() as i64;
                if n > 0 {
                    ctx.sql("ins", &[Value::Int(n)])?;
                }
                Ok(())
            },
        )
        .nested("vote_round", &["validate", "tally"])
        .pe_trigger("votes", "vote_round")
        .pe_trigger("valid", "tally")
        .build()
        .unwrap()
}

#[test]
fn nested_transaction_runs_children_as_one_unit() {
    let config = EngineConfig::default().with_trace().with_data_dir(test_dir("nested"));
    let engine = Engine::start(config, nested_app()).unwrap();
    for v in 0..5i64 {
        engine.ingest("votes", vec![tuple![v]]).unwrap();
    }
    engine.drain().unwrap();
    // Each round: one committed TE (the nested unit), both children ran.
    let m = engine.metrics();
    assert_eq!(m.txns_committed.load(Relaxed), 5);
    assert_eq!(engine.query(0, "SELECT COUNT(*) FROM seen", vec![]).unwrap().scalar().unwrap(), &Value::Int(5));
    assert_eq!(engine.query(0, "SELECT COUNT(*) FROM tally", vec![]).unwrap().scalar().unwrap(), &Value::Int(5));
    // The intermediate stream was consumed inside the nested unit: no
    // dangling batches, and `tally` never ran as a separate TE.
    let trace = m.trace_snapshot();
    assert!(trace.iter().all(|e| e.proc == "vote_round"));
    check_nested_contiguity(&trace, &["vote_round".to_string()]).unwrap();
    engine.shutdown();
}

/// The workflow order counts a nested transaction's children's outputs
/// as its own: `n` runs `c`, so `n` produces `s2` and precedes `d`,
/// wherever `c` and `d` were declared.
#[test]
fn topological_order_folds_nested_outputs() {
    let pass = |ctx: &mut sstore_engine::ProcCtx<'_>, out: &str| {
        let rows = ctx.input().to_vec();
        ctx.emit(out, rows)
    };
    let app = App::builder()
        .stream("s0", int_schema())
        .stream("s1", int_schema())
        .stream("s2", int_schema())
        .proc("c", &[], &["s2"], move |ctx| pass(ctx, "s2"))
        .proc("u", &[], &["s1"], move |ctx| pass(ctx, "s1"))
        .nested("n", &["c"])
        .proc("d", &[], &[], |_| Ok(()))
        .pe_trigger("s0", "u")
        .pe_trigger("s1", "n")
        .pe_trigger("s2", "d")
        .build()
        .unwrap();
    let config = EngineConfig::default().with_trace().with_data_dir(test_dir("nested-topo"));
    let engine = Engine::start(config, app).unwrap();
    engine.ingest("s0", vec![tuple![1i64]]).unwrap();
    engine.drain().unwrap();
    let trace = engine.metrics().trace_snapshot();
    let procs: Vec<&str> = trace.iter().map(|e| e.proc.as_str()).collect();
    assert_eq!(procs, ["u", "n", "d"]);
    check_schedule(engine.ids(), &trace).unwrap();
    let pos = |name| engine.ids().proc(engine.ids().proc_id(name).unwrap()).topo_pos;
    assert!(pos("u") < pos("n") && pos("n") < pos("d"));
    engine.shutdown();
}

/// An ingested batch is one border transaction: a stream that triggers
/// two procedures cannot be ingested into, and nothing runs.
#[test]
fn ingest_into_a_stream_with_two_pe_triggers_is_rejected() {
    fn sink(ctx: &mut sstore_engine::ProcCtx<'_>) -> sstore_common::Result<()> {
        for r in ctx.input().to_vec() {
            ctx.sql("ins", &[r.get(0).clone()])?;
        }
        Ok(())
    }
    let app = App::builder()
        .stream("in", int_schema())
        .table("a_out", int_schema())
        .table("b_out", int_schema())
        .proc("a", &[("ins", "INSERT INTO a_out (v) VALUES (?)")], &[], sink)
        .proc("b", &[("ins", "INSERT INTO b_out (v) VALUES (?)")], &[], sink)
        .pe_trigger("in", "a")
        .pe_trigger("in", "b")
        .build()
        .unwrap();
    let config = EngineConfig::default().with_data_dir(test_dir("two-triggers"));
    let engine = Engine::start(config, app).unwrap();
    let err = engine.ingest("in", vec![tuple![1i64], tuple![2i64]]).unwrap_err();
    assert!(matches!(err, sstore_common::Error::StreamViolation(_)), "{err:?}");
    let msg = err.to_string();
    assert!(msg.contains("a, b"), "the error names both procedures: {msg}");
    engine.drain().unwrap();
    for table in ["a_out", "b_out"] {
        let n = engine.query(0, &format!("SELECT COUNT(*) FROM {table}"), vec![]).unwrap();
        assert_eq!(n.scalar().unwrap(), &Value::Int(0), "{table}");
    }
    engine.shutdown();
}

#[test]
fn nested_abort_undoes_all_children() {
    let app = App::builder()
        .stream("votes", int_schema())
        .stream("valid", int_schema())
        .table("seen", int_schema())
        .proc("validate", &[("rec", "INSERT INTO seen (v) VALUES (?)")], &["valid"], |ctx| {
            let rows = ctx.input().to_vec();
            for r in &rows {
                ctx.sql("rec", &[r.get(0).clone()])?;
            }
            ctx.emit("valid", rows)
        })
        .proc("explode", &[], &[], |ctx| {
            if ctx.input().iter().any(|r| r.get(0).as_int().unwrap() == 13) {
                return Err(ctx.abort("unlucky"));
            }
            Ok(())
        })
        .nested("round", &["validate", "explode"])
        .pe_trigger("votes", "round")
        .pe_trigger("valid", "explode")
        .build()
        .unwrap();
    let config = EngineConfig::default().with_data_dir(test_dir("nested-abort"));
    let engine = Engine::start(config, app).unwrap();
    engine.ingest("votes", vec![tuple![1i64]]).unwrap();
    engine.ingest("votes", vec![tuple![13i64]]).unwrap(); // child 2 aborts
    engine.ingest("votes", vec![tuple![2i64]]).unwrap();
    engine.drain().unwrap();
    // The aborted round left no trace: validate's insert rolled back.
    let seen = engine.query(0, "SELECT v FROM seen ORDER BY v", vec![]).unwrap();
    assert_eq!(seen.int_column(0).unwrap(), vec![1, 2]);
    assert_eq!(engine.metrics().txns_aborted.load(Relaxed), 1);
    engine.shutdown();
}

#[test]
fn multi_partition_routing_and_isolation() {
    let app = App::builder()
        .stream_partitioned("input", Schema::of(&[("key", DataType::Int), ("v", DataType::Int)]), "key")
        .table("out", Schema::of(&[("key", DataType::Int), ("v", DataType::Int)]))
        .proc("sink", &[("ins", "INSERT INTO out (key, v) VALUES (?, ?)")], &[], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("input", "sink")
        .build()
        .unwrap();
    let config = EngineConfig::default().with_partitions(4).with_data_dir(test_dir("multi"));
    let engine = Engine::start(config, app).unwrap();
    assert_eq!(engine.partitions(), 4);
    for key in 0..16i64 {
        engine.ingest("input", vec![tuple![key, key * 10]]).unwrap();
    }
    engine.drain().unwrap();
    // All rows landed somewhere, partitioned by key: same key → same
    // partition, and total adds up.
    let mut total = 0i64;
    for p in 0..4 {
        let n = engine.query(p, "SELECT COUNT(*) FROM out", vec![]).unwrap();
        total += n.scalar().unwrap().as_int().unwrap();
    }
    assert_eq!(total, 16);
    assert_eq!(engine.metrics().txns_committed.load(Relaxed), 16);
    engine.shutdown();
}

#[test]
fn batch_ids_are_monotone_per_stream() {
    let config = EngineConfig::default().with_data_dir(test_dir("batches"));
    let engine = Engine::start(config, pipeline_app()).unwrap();
    let b1 = engine.ingest("input", vec![tuple![1i64]]).unwrap();
    let b2 = engine.ingest("input", vec![tuple![2i64]]).unwrap();
    assert!(b2 > b1);
    engine.drain().unwrap();
    engine.shutdown();
}

#[test]
fn ingest_rejects_schema_violations_and_unknown_streams() {
    let config = EngineConfig::default().with_data_dir(test_dir("badingest"));
    let engine = Engine::start(config, pipeline_app()).unwrap();
    assert!(engine.ingest("input", vec![tuple!["wrong type"]]).is_err());
    assert!(engine.ingest("nosuch", vec![tuple![1i64]]).is_err());
    // s12 has a PE trigger but is an interior stream — ingesting into it
    // is allowed mechanically (it has a trigger target), so only
    // genuinely unknown streams fail. The workflow-order guarantees are
    // the application's to respect at injection points.
    engine.shutdown();
}

#[test]
fn mixed_key_batch_splits_across_partitions() {
    let app = App::builder()
        .stream_partitioned("input", Schema::of(&[("key", DataType::Int), ("v", DataType::Int)]), "key")
        .table("out", Schema::of(&[("key", DataType::Int), ("v", DataType::Int)]))
        .proc("sink", &[("ins", "INSERT INTO out (key, v) VALUES (?, ?)")], &[], |ctx| {
            let rows = ctx.input().to_vec();
            for r in rows {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("input", "sink")
        .build()
        .unwrap();
    let config = EngineConfig::default().with_partitions(2).with_data_dir(test_dir("mixed"));
    let engine = Engine::start(config, app).unwrap();
    // Uniform-key batches route whole to one partition.
    engine.ingest("input", vec![tuple![7i64, 1i64], tuple![7i64, 2i64]]).unwrap();
    // A batch mixing partition keys is hash-split into per-partition
    // sub-batches that share one logical batch id.
    let b = engine
        .ingest("input", vec![tuple![0i64, 3i64], tuple![1i64, 4i64], tuple![2i64, 5i64]])
        .unwrap();
    assert_eq!(b.raw(), 2, "second logical batch on the stream");
    engine.drain().unwrap();
    // Every row landed exactly once, on the partition its key hashes
    // to — 0..=2 hash to different partitions under hash_partition.
    let mut all: Vec<(i64, i64)> = Vec::new();
    for p in 0..2 {
        let got = engine.query(p, "SELECT key, v FROM out ORDER BY v", vec![]).unwrap();
        for r in &got.rows {
            let key = r.get(0).as_int().unwrap();
            assert_eq!(
                sstore_engine::engine::hash_partition(r.get(0), 2),
                p,
                "key {key} must live on its hash partition"
            );
            all.push((key, r.get(1).as_int().unwrap()));
        }
    }
    all.sort();
    assert_eq!(all, vec![(0, 3), (1, 4), (2, 5), (7, 1), (7, 2)]);
    engine.shutdown();
}
