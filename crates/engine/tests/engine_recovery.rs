//! Recovery tests (§2.4, §3.2.5): strong recovery reproduces the exact
//! pre-crash state; weak recovery reproduces a legal state (identical
//! here because the workflows are deterministic); both resume correctly
//! (batch counters, log LSNs) and handle checkpoints, empty logs, and
//! mid-workflow dangling batches.

use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::atomic::Ordering::Relaxed;

use sstore_common::{tuple, DataType, Schema, Tuple, Value};
use sstore_engine::recovery::recover;
use sstore_engine::{App, Engine, EngineConfig, LoggingConfig, RecoveryMode};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn test_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sstore-rec-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Relaxed)
    ))
}

fn int_schema() -> Schema {
    Schema::of(&[("v", DataType::Int)])
}

/// input → sp1 (×2, audit) → mid → sp2 (sum into totals; sink).
fn app() -> App {
    App::builder()
        .stream("input", int_schema())
        .stream("mid", int_schema())
        .table("audit", int_schema())
        .table("totals", Schema::of(&[("batch_sum", DataType::Int)]))
        .proc("sp1", &[("log", "INSERT INTO audit (v) VALUES (?)")], &["mid"], |ctx| {
            let rows = ctx.input().to_vec();
            let mut out = Vec::new();
            for r in &rows {
                ctx.sql("log", &[r.get(0).clone()])?;
                out.push(Tuple::new(vec![Value::Int(r.get(0).as_int()? * 2)]));
            }
            ctx.emit("mid", out)
        })
        .proc(
            "sp2",
            &[("ins", "INSERT INTO totals (batch_sum) VALUES (?)")],
            &[],
            |ctx| {
                let sum: i64 = ctx.input().iter().map(|r| r.get(0).as_int().unwrap()).sum();
                ctx.sql("ins", &[Value::Int(sum)])?;
                Ok(())
            },
        )
        .proc(
            "bump_oltp",
            &[("ins", "INSERT INTO totals (batch_sum) VALUES (?)")],
            &[],
            |ctx| {
                let v = ctx.params()[0].clone();
                ctx.sql("ins", &[v])?;
                Ok(())
            },
        )
        .pe_trigger("input", "sp1")
        .pe_trigger("mid", "sp2")
        .build()
        .unwrap()
}

fn config(tag: &str, mode: RecoveryMode) -> EngineConfig {
    EngineConfig::default()
        .with_data_dir(test_dir(tag))
        .with_recovery(mode)
        .with_logging(LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() })
}

fn state(engine: &Engine) -> (Vec<i64>, Vec<i64>) {
    let audit = engine
        .query(0, "SELECT v FROM audit ORDER BY v", vec![])
        .unwrap()
        .rows
        .iter()
        .map(|t| t.get(0).as_int().unwrap())
        .collect::<Vec<i64>>();
    let totals = engine
        .query(0, "SELECT batch_sum FROM totals ORDER BY batch_sum", vec![])
        .unwrap()
        .rows
        .iter()
        .map(|t| t.get(0).as_int().unwrap())
        .collect::<Vec<i64>>();
    (audit, totals)
}

fn run_workload(cfg: &EngineConfig, checkpoint_after: Option<usize>) -> (Vec<i64>, Vec<i64>) {
    let engine = Engine::start(cfg.clone(), app()).unwrap();
    for v in 1..=8i64 {
        engine.ingest("input", vec![tuple![v]]).unwrap();
        if checkpoint_after == Some(v as usize) {
            engine.drain().unwrap();
            engine.checkpoint().unwrap();
        }
        if v == 5 {
            engine.call("bump_oltp", vec![Value::Int(1000 + v)]).unwrap();
        }
    }
    engine.drain().unwrap();
    engine.flush_logs().unwrap();
    let s = state(&engine);
    engine.shutdown();
    s
}

#[test]
fn strong_recovery_reproduces_exact_state() {
    for checkpoint_after in [None, Some(4)] {
        let cfg = config("strong", RecoveryMode::Strong);
        let before = run_workload(&cfg, checkpoint_after);
        let (engine, report) = recover(cfg, app()).unwrap();
        assert_eq!(state(&engine), before, "checkpoint_after={checkpoint_after:?}");
        if checkpoint_after.is_none() {
            // 8 borders + 8 interiors + 1 OLTP replayed via client path.
            assert_eq!(report.records_replayed, 17);
        } else {
            assert!(report.records_replayed < 17, "checkpoint must shorten replay");
        }
        engine.shutdown();
    }
}

#[test]
fn weak_recovery_reproduces_legal_state() {
    for checkpoint_after in [None, Some(4)] {
        let cfg = config("weak", RecoveryMode::Weak);
        let before = run_workload(&cfg, checkpoint_after);
        let (engine, report) = recover(cfg, app()).unwrap();
        // Deterministic linear workflow ⇒ the legal state is unique.
        assert_eq!(state(&engine), before, "checkpoint_after={checkpoint_after:?}");
        // Weak logs only borders (+ the OLTP call): 9 without checkpoint.
        if checkpoint_after.is_none() {
            assert_eq!(report.records_replayed, 9);
        }
        engine.shutdown();
    }
}

#[test]
fn weak_logging_writes_fewer_records() {
    let strong_cfg = config("strongcount", RecoveryMode::Strong);
    run_workload(&strong_cfg, None);
    let strong_records =
        sstore_engine::log::CommandLog::read_all(strong_cfg.log_path(0)).unwrap().len();

    let weak_cfg = config("weakcount", RecoveryMode::Weak);
    run_workload(&weak_cfg, None);
    let weak_records =
        sstore_engine::log::CommandLog::read_all(weak_cfg.log_path(0)).unwrap().len();

    assert_eq!(strong_records, 17);
    assert_eq!(weak_records, 9);
}

#[test]
fn recovered_engine_resumes_cleanly() {
    let cfg = config("resume", RecoveryMode::Strong);
    run_workload(&cfg, Some(4));
    let (engine, _) = recover(cfg.clone(), app()).unwrap();
    // New ingests get fresh batch ids and extend the state.
    let b = engine.ingest("input", vec![tuple![100i64]]).unwrap();
    assert!(b.raw() > 8, "batch counter resumed past replayed batches, got {b}");
    engine.drain().unwrap();
    let (audit, totals) = state(&engine);
    assert_eq!(audit.len(), 9);
    assert!(totals.contains(&200));
    engine.flush_logs().unwrap();
    engine.shutdown();

    // And a second crash/recovery still works (log was appended, not
    // truncated).
    let (engine2, _) = recover(cfg, app()).unwrap();
    let (audit2, totals2) = state(&engine2);
    assert_eq!(audit2.len(), 9);
    assert_eq!(totals2.len(), totals.len());
    engine2.shutdown();
}

#[test]
fn dangling_batches_refire_after_recovery() {
    // Simulate a crash between a border commit and its interior: build
    // the state by checkpointing right after borders were committed but
    // interiors not yet run. We approximate by running with PE triggers
    // effectively "too slow": ingest borders in H-Store mode (no
    // triggers), checkpoint, then recover in S-Store mode — the interior
    // work must be re-derived from the dangling stream batches.
    let dir = test_dir("dangle");
    let mk = |mode| {
        EngineConfig::default()
            .with_data_dir(dir.clone())
            .with_recovery(RecoveryMode::Weak)
            .with_logging(LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() })
            .with_scheduler(mode)
    };
    let hstore_cfg = EngineConfig {
        mode: sstore_engine::EngineMode::HStore,
        ..mk(sstore_engine::config::SchedulerMode::Streaming)
    };
    let engine = Engine::start(hstore_cfg, app()).unwrap();
    for v in 1..=3i64 {
        // Border commits; pending activations are dropped (client never
        // drives them) — batches sit on `mid`.
        engine.ingest_sync("input", vec![tuple![v]]).unwrap();
    }
    engine.checkpoint().unwrap();
    engine.flush_logs().unwrap();
    engine.shutdown();

    let sstore_cfg = mk(sstore_engine::config::SchedulerMode::Streaming);
    let (engine, report) = recover(sstore_cfg, app()).unwrap();
    assert!(report.triggers_fired >= 3, "dangling mid batches must fire: {report:?}");
    let (_, totals) = state(&engine);
    assert_eq!(totals, vec![2, 4, 6], "interiors re-derived from dangling batches");
    engine.shutdown();
}

#[test]
fn recovery_from_empty_dir_is_a_fresh_start() {
    let cfg = config("fresh", RecoveryMode::Strong);
    let (engine, report) = recover(cfg, app()).unwrap();
    assert_eq!(report.records_replayed, 0);
    assert_eq!(state(&engine), (vec![], vec![]));
    engine.ingest("input", vec![tuple![1i64]]).unwrap();
    engine.drain().unwrap();
    assert_eq!(state(&engine).1, vec![2]);
    engine.shutdown();
}

#[test]
fn group_commit_reduces_flushes() {
    let base = test_dir("gc");
    let mk = |group: usize, sub: &str| {
        EngineConfig::default()
            .with_data_dir(base.join(sub))
            .with_recovery(RecoveryMode::Strong)
            .with_logging(LoggingConfig { enabled: true, group_commit: group, fsync: false, ..Default::default() })
    };
    let run = |cfg: &EngineConfig| {
        let engine = Engine::start(cfg.clone(), app()).unwrap();
        for v in 1..=20i64 {
            engine.ingest("input", vec![tuple![v]]).unwrap();
        }
        engine.drain().unwrap();
        engine.flush_logs().unwrap();
        let flushes = engine.metrics().log_flushes.load(Relaxed);
        engine.shutdown();
        flushes
    };
    let no_group = run(&mk(1, "nogroup"));
    let grouped = run(&mk(8, "grouped"));
    assert!(grouped * 4 <= no_group, "group commit must cut flushes: {grouped} vs {no_group}");
}

/// Set once the pre-crash run is over: `dies_on_replay`'s body panics
/// from then on, so only recovery's replay reaches the panic.
static REPLAYING: AtomicBool = AtomicBool::new(false);

/// A body that panics during strong replay takes partition 0 down
/// mid-recovery: recovery returns an error naming the partition, and
/// neither hangs nor panics itself.
#[test]
fn a_partition_that_dies_during_replay_is_named() {
    let app = || {
        App::builder()
            .stream("input", int_schema())
            .table("audit", int_schema())
            .proc("dies_on_replay", &[("log", "INSERT INTO audit (v) VALUES (?)")], &[], |ctx| {
                assert!(!REPLAYING.load(Relaxed), "procedure body panicked during replay");
                for r in ctx.input().to_vec() {
                    ctx.sql("log", &[r.get(0).clone()])?;
                }
                Ok(())
            })
            .pe_trigger("input", "dies_on_replay")
            .build()
            .unwrap()
    };
    let cfg = config("dies-on-replay", RecoveryMode::Strong);
    let engine = Engine::start(cfg.clone(), app()).unwrap();
    engine.ingest("input", vec![tuple![1i64]]).unwrap();
    engine.drain().unwrap();
    engine.flush_logs().unwrap();
    engine.shutdown();
    REPLAYING.store(true, Relaxed);
    let err = recover(cfg, app()).map(|_| ()).unwrap_err();
    assert!(err.to_string().contains("partition 0"), "{err}");
}
