//! Recovery-time benchmark: RTO vs log length, full replay vs the
//! segmented + incremental-checkpoint lifecycle.
//!
//! Runs the logged exchange pipeline (strong recovery mode) to a given
//! log length, kills the engine, and times `recover()` from the durable
//! state:
//!
//! * **full-replay** — no checkpoints ever run; recovery replays the
//!   entire command log from LSN 1. RTO grows linearly with history.
//! * **segmented** — small segments, an incremental checkpoint (delta
//!   chain) every `interval` batches, GC truncating covered segments.
//!   Recovery restores the checkpoint chain and replays only the
//!   post-checkpoint suffix — RTO tracks data-since-last-checkpoint,
//!   not total history.
//!
//! A third section, **chain_restore**, times the restore half alone on
//! the voter application: a base + 4-delta chain against a base-only
//! image of the same final state, interleaved in one run. A delta
//! carries a dirtied table whole, so the chain holds five images of
//! `votes`; restore decodes only the newest, and the ratio of the two
//! medians (what `scripts/bench_smoke.sh` gates) stays near 1.
//!
//! Emits JSON (see `BENCH_recovery.json` at the repo root and the
//! "Log lifecycle & RTO" section of EXPERIMENTS.md for methodology).
//!
//! Usage: `cargo run --release -p sstore-bench --bin recovery [scale]`
//! (`scale` multiplies every log length; default 1).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use sstore_bench::bench_dir;
use sstore_common::{tuple, Tuple};
use sstore_engine::checkpoint::read_checkpoint;
use sstore_engine::ee::ExecutionEngine;
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::names::AppIds;
use sstore_engine::recovery::recover;
use sstore_engine::{Engine, EngineConfig, LoggingConfig, RecoveryMode};
use sstore_workloads::gen::VoteGen;
use sstore_workloads::micro::exchange_pipeline;
use sstore_workloads::voter;

fn batches(n: usize) -> Vec<Vec<Tuple>> {
    (0..n as i64).map(|b| (0..4i64).map(|k| tuple![k, b * 4 + k]).collect()).collect()
}

struct Sample {
    batches: usize,
    replayed: usize,
    recover_ms: f64,
    log_bytes: u64,
    segments_gced: u64,
}

/// Runs `n` batches with (or without) periodic checkpoints, shuts the
/// engine down as a crash would leave it (logs flushed, no final
/// checkpoint), and times recovery.
fn run_one(tag: &str, n: usize, checkpoint_every: Option<usize>) -> Sample {
    let mut config = EngineConfig::default()
        .with_partitions(2)
        .with_data_dir(bench_dir(tag))
        .with_recovery(RecoveryMode::Strong)
        .with_logging(LoggingConfig {
            enabled: true,
            group_commit: 8,
            fsync: false,
            ..Default::default()
        });
    if checkpoint_every.is_some() {
        config = config.with_segment_bytes(16 * 1024).with_delta_chain_max(4);
    }
    let engine = Engine::start(config.clone(), exchange_pipeline()).expect("engine start");
    for (i, b) in batches(n).into_iter().enumerate() {
        engine.ingest("xin", b).expect("ingest");
        if let Some(every) = checkpoint_every {
            if (i + 1) % every == 0 {
                engine.drain().expect("drain");
                engine.checkpoint().expect("checkpoint");
            }
        }
    }
    engine.drain().expect("drain");
    engine.flush_logs().expect("flush");
    let segments_gced = EngineMetrics::get(&engine.metrics().gc_segments_deleted);
    engine.shutdown();

    let log_bytes: u64 = std::fs::read_dir(&config.data_dir)
        .expect("data dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".cmdlog"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();

    let t0 = Instant::now();
    let (recovered, report) = recover(config, exchange_pipeline()).expect("recover");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    recovered.shutdown();
    Sample {
        batches: n,
        replayed: report.records_replayed,
        recover_ms,
        log_bytes,
        segments_gced,
    }
}

/// Restores a base + 4-delta chain and a base-only image of the same
/// voter state (`votes_per_image` votes between checkpoints), `reps`
/// times each, alternating; returns the two median times in ms.
fn chain_restore(votes_per_image: usize, reps: usize) -> (f64, f64) {
    let config = EngineConfig::default().with_data_dir(bench_dir("rec-chain"));
    let app = voter::leaderboard_app(true);
    let engine = Engine::start(config.clone(), app.clone()).expect("engine start");
    voter::seed(&engine, 100).expect("seed");
    let mut gen = VoteGen::new(7, 100, 10);
    let mut chain = Vec::new();
    for epoch in 1..=5 {
        for _ in 0..votes_per_image / 100 {
            engine.ingest("votes_in", voter::vote_tuples(&gen.votes(100))).expect("ingest");
        }
        engine.drain().expect("drain");
        engine.checkpoint().expect("checkpoint");
        let file = read_checkpoint(&config.checkpoint_path(0, epoch)).expect("image");
        chain.push(file.expect("present").ee_image);
    }
    engine.shutdown();

    let ids = Arc::new(AppIds::build(&app).expect("app ids"));
    let (mut ee, _) =
        ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).expect("install");
    ee.restore_chain(&chain).expect("restore chain");
    let base_only = [ee.checkpoint().expect("base image of the same state")];
    let (mut chained_ms, mut base_ms) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        for (images, ms) in [(&chain[..], &mut chained_ms), (&base_only[..], &mut base_ms)] {
            let t0 = Instant::now();
            ee.restore_chain(images).expect("restore");
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let median = |ms: &mut Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    (median(&mut chained_ms), median(&mut base_ms))
}

fn emit(json: &mut String, label: &str, rows: &[Sample], last: bool) {
    let _ = writeln!(json, "  \"{label}\": [");
    for (i, s) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"batches\": {}, \"records_replayed\": {}, \"recover_ms\": {:.2}, \
             \"log_bytes\": {}, \"segments_gced\": {} }}{comma}",
            s.batches, s.replayed, s.recover_ms, s.log_bytes, s.segments_gced
        );
    }
    let _ = writeln!(json, "  ]{}", if last { "" } else { "," });
}

fn main() {
    let scale: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(1);
    // Checkpoint every 100 batches: the segmented run's replay suffix
    // is bounded by the interval no matter how long the log grows.
    let interval = 100 * scale;
    // Offset each length by half an interval so every segmented run
    // ends the same distance past its last checkpoint — RTO should
    // come out flat while full replay grows with total history.
    let lengths: Vec<usize> =
        [300, 600, 1200, 2400].iter().map(|n| n * scale + interval / 2).collect();

    let mut full = Vec::new();
    let mut seg = Vec::new();
    for &n in &lengths {
        full.push(run_one("rec-full", n, None));
        seg.push(run_one("rec-seg", n, Some(interval)));
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"recovery\",");
    let _ = writeln!(json, "  \"checkpoint_interval_batches\": {interval},");
    emit(&mut json, "full_replay", &full, false);
    emit(&mut json, "segmented_incremental", &seg, false);
    let (chained_ms, base_only_ms) = chain_restore(8_000 * scale, 9);
    let _ = writeln!(
        json,
        "  \"chain_restore\": {{ \"chained_ms\": {chained_ms:.2}, \"base_only_ms\": \
         {base_only_ms:.2}, \"ratio\": {:.3} }}",
        chained_ms / base_only_ms
    );
    json.push('}');
    println!("{json}");
}
