//! Engine-level time-window tests: watermark-driven slides ride the
//! scheduler's fast lane, slide-trigger outputs compose with PE
//! triggers, late tuples merge or drop per the lateness bound, and
//! both recovery modes reconverge watermarks deterministically from
//! the log (with and without a mid-run checkpoint).

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use sstore_common::{tuple, Column, DataType, Schema};
use sstore_engine::checkpoint::{read_checkpoint, write_checkpoint};
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::recovery::recover;
use sstore_engine::{App, Engine, EngineConfig, LoggingConfig, RecoveryMode};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn test_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "sstore-tw-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Relaxed)
    ))
}

fn nullable_int(name: &str) -> Schema {
    // SUM over an empty extent is NULL; sinks of slide triggers must
    // accept it.
    Schema::new(vec![Column::nullable(name, DataType::Int)]).unwrap()
}

/// arrivals (event-timed) → wproc stages into `tw` (tumbling 30,
/// lateness 15); each slide's trigger emits the extent SUM onto
/// `alerts`, whose PE trigger logs it — a slide output driving a
/// downstream workflow stage.
fn twapp() -> App {
    App::builder()
        .stream_timed(
            "arrivals",
            Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]),
            "ts",
        )
        .stream("alerts", nullable_int("total"))
        .table("alert_log", nullable_int("total"))
        .time_window(
            "tw",
            "wproc",
            Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]),
            "ts",
            30,
            30,
            15,
        )
        .proc("wproc", &[("ins", "INSERT INTO tw (ts, v) VALUES (?, ?)")], &[], |ctx| {
            for r in ctx.input().to_vec() {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone()])?;
            }
            Ok(())
        })
        .proc("alarm", &[("ins", "INSERT INTO alert_log (total) VALUES (?)")], &[], |ctx| {
            for r in ctx.input().to_vec() {
                ctx.sql("ins", &[r.get(0).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("arrivals", "wproc")
        .pe_trigger("alerts", "alarm")
        .ee_trigger("tw", &["INSERT INTO alerts (total) SELECT SUM(v) FROM tw"])
        .build()
        .unwrap()
}

/// The out-of-order workload every test drives: extent [0,30) fires at
/// the second batch, a late merge and a late drop follow, and extent
/// [30,60) fires at the last batch.
fn drive(engine: &Engine) {
    for batch in [
        vec![tuple![5i64, 1i64], tuple![20i64, 2i64]],
        vec![tuple![40i64, 4i64], tuple![31i64, 3i64]], // out of order inside the batch
        vec![tuple![25i64, 100i64]],                    // late, within lateness → merge
        vec![tuple![2i64, 1i64]],                       // late, beyond lateness → drop
        vec![tuple![70i64, 7i64]],
    ] {
        engine.ingest("arrivals", batch).unwrap();
    }
    engine.drain().unwrap();
}

fn observe(engine: &Engine) -> (Vec<Vec<sstore_common::Tuple>>, usize) {
    let tw = engine.query(0, "SELECT ts, v FROM tw ORDER BY ts", vec![]).unwrap().rows;
    let log = engine.query(0, "SELECT total FROM alert_log ORDER BY total", vec![]).unwrap().rows;
    let n = log.len();
    (vec![tw, log], n)
}

#[test]
fn watermark_slides_fire_through_the_scheduler() {
    let engine = Engine::start(EngineConfig::default(), twapp()).unwrap();
    drive(&engine);
    let (state, alerts) = observe(&engine);
    // Extent [0,30) summed 1+2=3; extent [30,60) summed 3+4=7. The
    // merged late tuple (25,100) landed in the window table between
    // the slides without re-firing the trigger.
    assert_eq!(state[1], vec![tuple![3i64], tuple![7i64]]);
    assert_eq!(alerts, 2);
    // Active extent is [30,60): ts 31 and 40 visible, ts 70 staged.
    assert_eq!(state[0], vec![tuple![31i64, 3i64], tuple![40i64, 4i64]]);
    let m = engine.metrics();
    assert_eq!(EngineMetrics::get(&m.window_slides), 2);
    assert_eq!(EngineMetrics::get(&m.window_late_merged), 1);
    assert_eq!(EngineMetrics::get(&m.window_late_dropped), 1);
    // Exactly 5 border txns + 2 slide txns + 2 alert interiors — no
    // duplicate (no-op) slide transactions inflating the counters.
    assert_eq!(EngineMetrics::get(&m.txns_committed), 9);
    assert_eq!(EngineMetrics::get(&m.txns_aborted), 0);
    engine.shutdown();
}

fn config(tag: &str, mode: RecoveryMode) -> EngineConfig {
    EngineConfig::default()
        .with_data_dir(test_dir(tag))
        .with_recovery(mode)
        .with_logging(LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() })
}

/// Crash-free oracle: the same workload plus the post-recovery batch,
/// on an engine that never went down.
fn oracle_state() -> Vec<Vec<sstore_common::Tuple>> {
    let engine = Engine::start(EngineConfig::default(), twapp()).unwrap();
    drive(&engine);
    engine.ingest("arrivals", vec![tuple![95i64, 9i64]]).unwrap();
    engine.drain().unwrap();
    let (state, _) = observe(&engine);
    engine.shutdown();
    state
}

#[test]
fn both_recovery_modes_reconverge_watermarks() {
    let oracle = oracle_state();
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let cfg = config("reconverge", mode);
        let engine = Engine::start(cfg.clone(), twapp()).unwrap();
        drive(&engine);
        let (pre_crash, _) = observe(&engine);
        engine.flush_logs().unwrap();
        engine.close().unwrap();

        let (recovered, _) = recover(cfg, twapp()).unwrap();
        let (post, _) = observe(&recovered);
        assert_eq!(post, pre_crash, "{mode:?}: replay reproduces the pre-crash state");
        // The recovered watermark must continue where the original
        // left off: the next boundary crossing fires exactly the
        // extents an uncrashed engine would fire.
        recovered.ingest("arrivals", vec![tuple![95i64, 9i64]]).unwrap();
        recovered.drain().unwrap();
        let (after_more, _) = observe(&recovered);
        assert_eq!(after_more, oracle, "{mode:?}: watermark reconverged");
        recovered.shutdown();
    }
}

/// Satellite regression for the window-decode guards: flip every byte
/// of the checkpoint's *window section* (one at a time) and recover.
/// No flip may panic, over-allocate, or hang — each either fails with
/// a clean error or restores a decodable state. A corrupted staging
/// count in particular must fail fast with an error naming the window.
#[test]
fn window_section_byte_flips_fail_cleanly() {
    let cfg = config("flip", RecoveryMode::Strong);
    let engine = Engine::start(cfg.clone(), twapp()).unwrap();
    drive(&engine);
    engine.checkpoint().unwrap();
    engine.close().unwrap();
    // The log replays on top of the checkpoint; remove it so recovery
    // exercises the image alone.
    std::fs::remove_file(cfg.log_path(0)).unwrap();

    let path = cfg.checkpoint_path(0, 1);
    let clean = read_checkpoint(&path).unwrap().unwrap();
    // The window section is the tail of the EE image; its first bytes
    // are the variant tag + the window's name ("tw" as a length-
    // prefixed string). The name also appears in the catalog section,
    // so take the LAST occurrence.
    let needle = [2u8, b't', b'w'];
    let start = clean
        .ee_image
        .windows(needle.len())
        .rposition(|w| w == needle)
        .expect("window name in image")
        - 1; // variant tag byte
    let mut outcomes = (0usize, 0usize); // (clean errors, benign restores)
    for i in start..clean.ee_image.len() {
        let mut ck = clean.clone();
        ck.ee_image[i] ^= 0xFF;
        write_checkpoint(&path, &ck).unwrap();
        match recover(cfg.clone(), twapp()) {
            Err(_) => outcomes.0 += 1,
            Ok((engine, _)) => {
                outcomes.1 += 1;
                engine.shutdown();
            }
        }
    }
    assert!(outcomes.0 > 0, "some flips must be caught ({outcomes:?})");
    // The staging section ends the image (the active rows are the
    // table's, encoded with it): truncate inside it — a count its
    // bytes cannot cover, or a tuple cut short — and the error must
    // carry the window's name.
    let mut ck = clean.clone();
    let img = &mut ck.ee_image;
    img.truncate(img.len() - 8);
    write_checkpoint(&path, &ck).unwrap();
    let err = match recover(cfg.clone(), twapp()) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("truncated window section must not restore"),
    };
    assert!(err.contains("window tw") || err.contains("tw"), "error should name the window: {err}");
    // Restore the clean image: recovery works again.
    write_checkpoint(&path, &clean).unwrap();
    let (engine, _) = recover(cfg, twapp()).unwrap();
    engine.shutdown();
}

/// Satellite: ad-hoc SQL (`Engine::query_at`) reading a window table
/// mid-stream must observe either the pre-slide or the post-slide
/// extent — never a torn one mixing panes. Slides run as their own
/// transactions on the serial partition queue, so an ad-hoc reader
/// interleaves *between* transactions, not inside one; this drives the
/// interleaving deterministically (async ingests queue ahead of each
/// synchronous ad-hoc read) and proves it from the execution trace.
#[test]
fn query_at_sees_whole_extents_never_torn_ones() {
    let config = EngineConfig::default().with_data_dir(test_dir("adhoc-slide")).with_trace();
    let engine = Engine::start(config, twapp()).unwrap();
    let mut observed: Vec<Vec<i64>> = Vec::new();
    // Each pane [30k, 30k+30) gets three tuples across two async
    // batches; every third round a synchronous ad-hoc read queues
    // behind them — landing between border/slide transactions, while
    // later panes' batches are still being ingested.
    for pane in 0..30i64 {
        let base = pane * 30;
        engine.ingest("arrivals", vec![tuple![base + 1, 1i64]]).unwrap();
        engine
            .ingest("arrivals", vec![tuple![base + 5, 2i64], tuple![base + 9, 3i64]])
            .unwrap();
        if pane % 3 == 2 && pane < 29 {
            let r = engine.query_at(0, "SELECT ts FROM tw", vec![]).unwrap();
            observed.push(
                r.rows.iter().map(|t| t.get(0).as_int().unwrap()).collect(),
            );
        }
    }
    engine.drain().unwrap();

    // No observation mixes panes: all visible rows belong to ONE
    // 30-unit extent (a torn slide would show old and new rows).
    for obs in &observed {
        assert!(!obs.is_empty(), "ad-hoc read raced past every fired pane");
        let pane = obs[0].div_euclid(30);
        assert!(
            obs.iter().all(|ts| ts.div_euclid(30) == pane),
            "torn extent observed: {obs:?}"
        );
    }
    // Trace-based interleaving proof: every ad-hoc read committed
    // strictly between border transactions (not after the stream
    // ended), and slide transactions really ran in between.
    let trace = engine.metrics().trace_snapshot();
    let last_border = trace.iter().rposition(|e| e.proc == "wproc").unwrap();
    let adhoc: Vec<usize> = trace
        .iter()
        .enumerate()
        .filter(|(_, e)| e.proc == "@adhoc")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(adhoc.len(), observed.len());
    assert!(
        adhoc.iter().all(|&i| i < last_border),
        "ad-hoc reads must interleave with the stream, not trail it"
    );
    let m = engine.metrics();
    assert!(EngineMetrics::get(&m.window_slides) >= 28, "panes fired while reads ran");
    engine.shutdown();
}

/// Linear Road-style slide aggregation: a tumbling window big enough
/// to clear `COLUMNAR_MIN_ROWS`, whose slide trigger runs a
/// `GROUP BY seg` over the extent into a `seg_stats` table.
fn lrapp() -> App {
    let lane = Schema::of(&[("ts", DataType::Int), ("seg", DataType::Int), ("spd", DataType::Int)]);
    App::builder()
        .stream_timed("cars", lane.clone(), "ts")
        .table(
            "seg_stats",
            Schema::new(vec![
                Column::nullable("wid", DataType::Int),
                Column::nullable("seg", DataType::Int),
                Column::new("cnt", DataType::Int),
                Column::nullable("total", DataType::Int),
            ])
            .unwrap(),
        )
        .time_window("w", "feed", lane, "ts", 100, 100, 0)
        .proc("feed", &[("ins", "INSERT INTO w (ts, seg, spd) VALUES (?, ?, ?)")], &[], |ctx| {
            for r in ctx.input().to_vec() {
                ctx.sql("ins", &[r.get(0).clone(), r.get(1).clone(), r.get(2).clone()])?;
            }
            Ok(())
        })
        .pe_trigger("cars", "feed")
        .ee_trigger(
            "w",
            &["INSERT INTO seg_stats (wid, seg, cnt, total) \
               SELECT MIN(ts), seg, COUNT(*), SUM(spd) FROM w GROUP BY seg"],
        )
        .build()
        .unwrap()
}

/// Two 80-row panes (80 ≥ COLUMNAR_MIN_ROWS, so the slide trigger's
/// scan is columnar-eligible) plus a closer tuple: the slide trigger's
/// GROUP BY goes through the columnar window path and writes what a
/// plain fold of the input says. (That the two executors agree on every
/// plan is `prop_columnar` / `edge_semantics`' to check, through the
/// two entry points.)
#[test]
fn slide_trigger_grouping_scans_its_extent_columnar() {
    let engine = Engine::start(EngineConfig::default(), lrapp()).unwrap();
    // (wid, seg) → (cnt, total): wid is the pane's MIN(ts) per segment.
    let mut want = std::collections::BTreeMap::<(i64, i64), (i64, i64)>::new();
    for pane in 0..2i64 {
        let mut batch = Vec::new();
        for i in 0..80i64 {
            let (ts, seg, spd) = (pane * 100 + i, i % 4, (i * 7 + pane) % 50);
            batch.push(tuple![ts, seg, spd]);
            let group = want.entry((pane * 100 + seg, seg)).or_default();
            *group = (group.0 + 1, group.1 + spd);
        }
        engine.ingest("cars", batch).unwrap();
    }
    engine.ingest("cars", vec![tuple![250i64, 0i64, 1i64]]).unwrap();
    engine.drain().unwrap();
    let rows = engine
        .query(0, "SELECT wid, seg, cnt, total FROM seg_stats ORDER BY wid, seg", vec![])
        .unwrap()
        .rows;
    // Two panes × four segments, each group 20 rows.
    let want: Vec<_> =
        want.into_iter().map(|((wid, seg), (cnt, total))| tuple![wid, seg, cnt, total]).collect();
    assert_eq!(want.len(), 8);
    assert_eq!(rows, want);
    let batches = EngineMetrics::get(&engine.metrics().columnar_window_batches);
    assert!(batches >= 2, "slide scans must go columnar: {batches}");
    engine.shutdown();
}

#[test]
fn checkpointed_time_window_state_survives_and_resumes() {
    let oracle = oracle_state();
    for mode in [RecoveryMode::Strong, RecoveryMode::Weak] {
        let cfg = config("ckpt", mode);
        let engine = Engine::start(cfg.clone(), twapp()).unwrap();
        // First two batches (extent [0,30) fires), then checkpoint —
        // staging, active rows, watermark, and high marks all live in
        // the image; replay covers only the suffix.
        engine.ingest("arrivals", vec![tuple![5i64, 1i64], tuple![20i64, 2i64]]).unwrap();
        engine.ingest("arrivals", vec![tuple![40i64, 4i64], tuple![31i64, 3i64]]).unwrap();
        engine.drain().unwrap();
        engine.checkpoint().unwrap();
        for batch in [
            vec![tuple![25i64, 100i64]],
            vec![tuple![2i64, 1i64]],
            vec![tuple![70i64, 7i64]],
        ] {
            engine.ingest("arrivals", batch).unwrap();
        }
        engine.drain().unwrap();
        let (pre_crash, _) = observe(&engine);
        engine.flush_logs().unwrap();
        engine.close().unwrap();

        let (recovered, _) = recover(cfg, twapp()).unwrap();
        let (post, _) = observe(&recovered);
        assert_eq!(post, pre_crash, "{mode:?}: checkpoint + suffix replay converged");
        recovered.ingest("arrivals", vec![tuple![95i64, 9i64]]).unwrap();
        recovered.drain().unwrap();
        let (after_more, _) = observe(&recovered);
        assert_eq!(after_more, oracle, "{mode:?}: watermark resumed from the image");
        recovered.shutdown();
    }
}
