//! `recovery`: RTO vs log length, full replay vs the segmented +
//! incremental-checkpoint lifecycle.
//!
//! Runs the logged exchange pipeline (strong recovery mode) to a given
//! log length, kills the engine, and times `recover()` from the durable
//! state:
//!
//! * **full replay** — no checkpoints ever run; recovery replays the
//!   entire command log from LSN 1. RTO grows linearly with history.
//! * **segmented + incremental** — small segments, an incremental
//!   checkpoint (delta chain) every `interval` batches, GC truncating
//!   covered segments. Recovery restores the checkpoint chain and
//!   replays only the post-checkpoint suffix — RTO tracks
//!   data-since-last-checkpoint, not total history.
//!
//! The two are recovered alternately, three times each, from the same
//! directories, and the medians at the longest history are the rows a
//! gate divides. A second section, the **chain restore**, times the
//! restore half alone on the voter application: a base + 4-delta chain
//! against a base-only image of the same final state, interleaved. A
//! delta carries a dirtied table whole, so the chain holds five images
//! of `votes`; restore decodes only the newest, and the ratio of the
//! two medians stays near 1.

use std::sync::Arc;
use std::time::Instant;

use sstore_common::{tuple, Tuple};
use sstore_engine::checkpoint::read_checkpoint;
use sstore_engine::ee::ExecutionEngine;
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::names::AppIds;
use sstore_engine::recovery::recover;
use sstore_engine::{EngineConfig, LoggingConfig, RecoveryMode};
use sstore_workloads::gen::VoteGen;
use sstore_workloads::micro::exchange_pipeline;
use sstore_workloads::voter;

use crate::{interleaved, start, DataDir, Figure, Params, Report};

/// A history on disk as a crash leaves it, and what writing it showed.
struct History {
    config: EngineConfig,
    log_bytes: u64,
    segments_gced: u64,
}

/// Runs `n` batches with (or without) periodic checkpoints and shuts
/// the engine down as a crash would leave it (logs flushed, no final
/// checkpoint).
fn write_history(dir: &DataDir, n: usize, checkpoint_every: Option<usize>) -> History {
    let mut config = EngineConfig::default()
        .with_partitions(2)
        .with_data_dir(dir.fresh("recovery"))
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
    let engine = start(config.clone(), exchange_pipeline());
    for b in 0..n as i64 {
        let batch: Vec<Tuple> = (0..4i64).map(|k| tuple![k, b * 4 + k]).collect();
        engine.ingest("xin", batch).expect("ingest");
        if checkpoint_every.is_some_and(|every| (b as usize + 1) % every == 0) {
            engine.drain().expect("drain");
            engine.checkpoint().expect("checkpoint");
        }
    }
    engine.drain().expect("drain");
    engine.flush_logs().expect("flush");
    let segments_gced = EngineMetrics::get(&engine.metrics().gc_segments_deleted);
    engine.shutdown();

    let log_bytes = std::fs::read_dir(&config.data_dir)
        .expect("data dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains(".cmdlog"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    History { config, log_bytes, segments_gced }
}

/// Recovers `h` once: (wall ms, records replayed).
fn recover_once(h: &History) -> (f64, usize) {
    let t0 = Instant::now();
    let (recovered, replay) = recover(h.config.clone(), exchange_pipeline()).expect("recover");
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    recovered.shutdown();
    (ms, replay.records_replayed)
}

/// Restores a base + 4-delta chain and a base-only image of the same
/// voter state (`batches_per_image` 100-vote batches between
/// checkpoints), 9 times each, alternating; the two medians in ms.
fn chain_restore(dir: &DataDir, batches_per_image: usize) -> Vec<f64> {
    let config = EngineConfig::default().with_data_dir(dir.fresh("chain"));
    let app = voter::leaderboard_app(true);
    let engine = start(config.clone(), app.clone());
    voter::seed(&engine, 100).expect("seed");
    let mut gen = VoteGen::new(7, 100, 10);
    let mut chain = Vec::new();
    for epoch in 1..=5 {
        for _ in 0..batches_per_image {
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
    interleaved(9, 2, |side| {
        let images = if side == 0 { &chain[..] } else { &base_only[..] };
        let t0 = Instant::now();
        ee.restore_chain(images).expect("restore");
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// Four log lengths (`--scale` × 350, 650, 1 250, 2 450 batches), then
/// the chain restore (`--scale` × 8 000 votes per image).
pub fn recovery(p: &Params, dir: &DataDir) -> Report {
    // Checkpoint every 100 batches: the segmented run's replay suffix
    // is bounded by the interval no matter how long the log grows.
    let interval = p.scaled(100);
    let params = [("scale", p.scale), ("checkpoint_interval_batches", interval as f64)];
    let mut report = Report::new("recovery", &params);
    // Offset each length by half an interval so every segmented run
    // ends the same distance past its last checkpoint — RTO should
    // come out flat while full replay grows with total history.
    let lengths: Vec<f64> =
        [300, 600, 1200, 2400].iter().map(|&n| (p.scaled(n) + interval / 2) as f64).collect();
    let mut log_bytes = Vec::new();
    let labels = ["Recovery time vs log length", "batches", "recover() wall ms, median of 3"];
    let series = ["full replay", "segmented+incr"];
    let recover_ms = Figure::sweep(labels, series, &lengths, |n| {
        let histories = [None, Some(interval)].map(|every| write_history(dir, n as usize, every));
        let mut replayed = [0, 0];
        let ms = interleaved(3, 2, |side| {
            let (ms, records) = recover_once(&histories[side]);
            replayed[side] = records;
            ms
        });
        log_bytes.push([histories[0].log_bytes as f64, histories[1].log_bytes as f64]);
        if Some(&n) == lengths.last() {
            for (side, prefix) in ["full", "seg"].into_iter().enumerate() {
                report.row(format!("{prefix}_recover_ms"), ms[side], "ms");
                report.row(format!("{prefix}_records_replayed"), replayed[side] as f64, "count");
                report.row(
                    format!("{prefix}_segments_gced"),
                    histories[side].segments_gced as f64,
                    "count",
                );
            }
        }
        [ms[0], ms[1]]
    });
    let mut log_bytes = log_bytes.into_iter();
    let labels = ["Command log on disk at the crash", "batches", "bytes"];
    let log_bytes =
        Figure::sweep(labels, series, &lengths, |_| log_bytes.next().expect("one per length"));
    report.figures = vec![recover_ms, log_bytes];
    let restore = chain_restore(dir, p.scaled(80));
    report.row("chained_ms", restore[0], "ms");
    report.row("base_only_ms", restore[1], "ms");
    report
}
