//! `timewindow`: watermark-driven slides under churn.
//!
//! Streams timestamped tuples (with bounded intra-batch disorder and a
//! trickle of beyond-lateness stragglers) through a tumbling and a
//! sliding event-time window whose on-slide triggers aggregate into a
//! stats table, and reports tuples/sec through the full
//! ingest → stage → watermark-advance → slide-txn → trigger path beside
//! the same ingest into two plain tables — the in-run baseline its gate
//! divides by — plus the slide and late-drop counts. A second stage
//! runs a Linear Road-shaped grouped slide trigger, whose extent scans
//! take the columnar window path (columnar against row-wise on one plan
//! is `colscan`'s to measure, through the two entry points).

use sstore_common::{tuple, DataType, Schema, Tuple};
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::{App, Engine, EngineConfig};

use crate::{interleaved, run_for, start, DataDir, Params, Report};

const ROUNDS: usize = 3;

/// Event-time step per tuple (ms): 100 tuples per 1s window.
const TS_STEP_MS: i64 = 10;

fn event_schema() -> Schema {
    Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)])
}

/// The windowed app, or (`windowed == false`) its baseline: the same
/// stream and the same two inserts per tuple, but into plain tables the
/// procedure empties at the start of each batch (tables that kept every
/// row would measure memory growth) — no watermark, no staging, no
/// slide transactions, no trigger.
fn app(windowed: bool) -> App {
    let mut b = App::builder().table(
        "stats",
        Schema::of(&[("wts", DataType::Int), ("cnt", DataType::Int), ("total", DataType::Int)]),
    );
    let mut stmts = vec![
        ("w1", "INSERT INTO tumble (ts, v) VALUES (?, ?)"),
        ("w2", "INSERT INTO slide5 (ts, v) VALUES (?, ?)"),
    ];
    if windowed {
        // Tumbling 1s and sliding 5s/1s — the Linear Road shape scaled
        // down so slides fire every ~100 tuples.
        b = b
            .stream_timed("events", event_schema(), "ts")
            .time_window("tumble", "feed", event_schema(), "ts", 1_000, 1_000, 200)
            .time_window("slide5", "feed", event_schema(), "ts", 5_000, 1_000, 200)
            // The event-time axis is gap-free here, so every fired
            // extent holds data and the ungrouped aggregate never emits
            // NULLs.
            .ee_trigger(
                "tumble",
                &["INSERT INTO stats (wts, cnt, total) \
                   SELECT MIN(ts), COUNT(*), SUM(v) FROM tumble"],
            );
    } else {
        b = b
            .stream("events", event_schema())
            .table("tumble", event_schema())
            .table("slide5", event_schema());
        stmts.extend([("d1", "DELETE FROM tumble"), ("d2", "DELETE FROM slide5")]);
    }
    b.proc("feed", &stmts, &[], move |ctx| {
        if !windowed {
            ctx.sql("d1", &[])?;
            ctx.sql("d2", &[])?;
        }
        for r in ctx.input().to_vec() {
            let params = [r.get(0).clone(), r.get(1).clone()];
            ctx.sql("w1", &params)?;
            ctx.sql("w2", &params)?;
        }
        Ok(())
    })
    .pe_trigger("events", "feed")
    .build()
    .expect("timewindow app is valid")
}

/// One 100-tuple batch: timestamps ascend overall but are scrambled
/// within the batch, and one tuple in ~50 batches is an ancient
/// straggler that lands beyond lateness (exercising the drop path).
fn make_batch(seq: &mut i64) -> Vec<Tuple> {
    let base = *seq * TS_STEP_MS * 100;
    let mut rows: Vec<Tuple> = (0..100)
        .map(|i| {
            // Deterministic scramble: bit-reversed-ish order.
            let j = (i * 37) % 100;
            tuple![base + j * TS_STEP_MS, j]
        })
        .collect();
    if *seq % 50 == 49 && base > 2_000 {
        rows[0] = tuple![base - 2_000, -1i64];
    }
    *seq += 1;
    rows
}

/// Linear Road-shaped grouped stage: same churn, but the slide trigger
/// runs a `GROUP BY seg` over each ~100-row extent — the shape whose
/// scan the vectorized hash group-by accelerates.
fn grouped_app() -> App {
    let lane_schema =
        Schema::of(&[("ts", DataType::Int), ("seg", DataType::Int), ("spd", DataType::Int)]);
    App::builder()
        .stream_timed("cars", lane_schema.clone(), "ts")
        .table(
            "stats_seg",
            Schema::of(&[
                ("wts", DataType::Int),
                ("seg", DataType::Int),
                ("cnt", DataType::Int),
                ("total", DataType::Int),
            ]),
        )
        .time_window("lane", "feed", lane_schema, "ts", 1_000, 1_000, 200)
        .proc("feed", &[("w", "INSERT INTO lane (ts, seg, spd) VALUES (?, ?, ?)")], &[], |ctx| {
            for r in ctx.input().to_vec() {
                ctx.sql("w", &[r.get(0).clone(), r.get(1).clone(), r.get(2).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("cars", "feed")
        .ee_trigger(
            "lane",
            &["INSERT INTO stats_seg (wts, seg, cnt, total) \
               SELECT MIN(ts), seg, COUNT(*), SUM(spd) FROM lane GROUP BY seg"],
        )
        .build()
        .expect("grouped timewindow app is valid")
}

fn make_seg_batch(seq: &mut i64) -> Vec<Tuple> {
    let base = *seq * TS_STEP_MS * 100;
    *seq += 1;
    (0..100)
        .map(|i| {
            let j = (i * 37) % 100;
            tuple![base + j * TS_STEP_MS, j % 4, (j * 7) % 50]
        })
        .collect()
}

/// One timed run of `app` fed by `batch`; the engine is handed to
/// `after` (to read its counters) before it shuts down.
fn run(
    dir: &DataDir,
    app: App,
    stream: &str,
    batch: fn(&mut i64) -> Vec<Tuple>,
    secs: f64,
    after: impl FnOnce(&Engine),
) -> f64 {
    let engine = start(EngineConfig::default().with_data_dir(dir.fresh("timewindow")), app);
    let mut seq = 0i64;
    let rate = run_for(&engine, stream, || batch(&mut seq), secs);
    after(&engine);
    engine.shutdown();
    rate
}

/// Slide path vs plain tables in three interleaved rounds of
/// `--secs / 3` (default 3 s), then the grouped slide stage for as long
/// again.
pub fn timewindow(p: &Params, dir: &DataDir) -> Report {
    let secs = p.secs_or(3.0);
    let round = secs / ROUNDS as f64;
    let mut report = Report::new("timewindow", &[("secs", secs)]);

    let (mut slides, mut dropped) = (0, 0);
    let rates = interleaved(ROUNDS, 2, |side| match side {
        0 => run(dir, app(true), "events", make_batch, round, |e| {
            slides += EngineMetrics::get(&e.metrics().window_slides);
            dropped += EngineMetrics::get(&e.metrics().window_late_dropped);
        }),
        _ => run(dir, app(false), "events", make_batch, round, |_| ()),
    });
    report.row("tuples_per_sec", rates[0], "tuples/s");
    report.row("plain_tuples_per_sec", rates[1], "tuples/s");
    report.row("window_slides", slides as f64, "count");
    report.row("late_dropped", dropped as f64, "count");

    let mut batches = 0;
    let rate = run(dir, grouped_app(), "cars", make_seg_batch, secs, |e| {
        batches = EngineMetrics::get(&e.metrics().columnar_window_batches);
    });
    report.row("grouped_columnar_tuples_per_sec", rate, "tuples/s");
    report.row("windowed_columnar_batches", batches as f64, "count");
    report
}
