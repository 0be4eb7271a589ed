//! Linear Road subset (§4.7, §6) for the multi-partition scalability
//! experiment (Figure 11) — segment statistics on *event-time* windows.
//!
//! Only the streaming-position-report side of the benchmark, as in the
//! paper (historical queries excluded). Position reports carry event
//! time in milliseconds; the `reports` stream declares `time` as its
//! event-timestamp column, so each partition's watermark advances with
//! the reports it ingests and drives the two segment-statistics
//! windows:
//!
//! * `seg_win` — **tumbling 30 s** (the paper's statistics interval):
//!   every report is inserted; when the watermark passes an extent
//!   boundary, the on-slide trigger aggregates the extent into
//!   `seg_stats` (per-segment count + speed sum per 30 s window).
//! * `speed_win` — **sliding 5 min / 1 min** (the Linear Road toll
//!   formula's averaging interval): the same reports, aggregated into
//!   `seg_speed5` once per minute over the trailing five minutes.
//!
//! Out-of-order reports are absorbed by window staging until the
//! watermark passes; reports older than `allowed_lateness` are counted
//! and dropped (the `window_late_dropped` metric). Both windows are
//! owned by `update_position` (§3.2.2 scoping).
//!
//! The rest of the workflow is unchanged: `update_position` (SP1)
//! tracks vehicle positions, charges tolls on segment crossings, and
//! detects stopped vehicles; a minute tick triggers `minute_rollup`
//! (SP2), which clears accidents whose vehicles moved on.
//!
//! Tolls and accidents are x-way-local, so batches partition cleanly by
//! x-way (`stream_partitioned_timed`), each partition running the whole
//! workflow — windows and watermark included — serially, the property
//! §4.7 exploits for linear scaling.

use sstore_common::{DataType, Schema, Value};
use sstore_engine::App;
use sstore_storage::index::IndexDef;
use sstore_storage::IndexKind;

/// Consecutive zero-speed reports that define an accident.
pub const STOP_REPORTS_FOR_ACCIDENT: i64 = 4;

/// Segment-statistics interval (ms): the tumbling window.
pub const STATS_WINDOW_MS: i64 = 30_000;

/// Toll-formula averaging interval (ms): the sliding window's size.
pub const SPEED_WINDOW_MS: i64 = 300_000;

/// The sliding window's slide (ms).
pub const SPEED_SLIDE_MS: i64 = 60_000;

/// How far behind the watermark a report may arrive and still count
/// (ms). One-tick (30 s) disorder is absorbed by staging *before* the
/// watermark passes; this bound only governs stragglers arriving after
/// their extent already fired.
pub const ALLOWED_LATENESS_MS: i64 = 10_000;

fn report_schema() -> Schema {
    Schema::of(&[
        ("vid", DataType::Int),
        ("time", DataType::Int),
        ("xway", DataType::Int),
        ("seg", DataType::Int),
        ("speed", DataType::Int),
    ])
}

fn window_schema() -> Schema {
    Schema::of(&[
        ("ts", DataType::Int),
        ("xway", DataType::Int),
        ("seg", DataType::Int),
        ("speed", DataType::Int),
    ])
}

fn stats_schema() -> Schema {
    Schema::of(&[
        ("xway", DataType::Int),
        ("seg", DataType::Int),
        ("wts", DataType::Int),
        ("cnt", DataType::Int),
        ("speed_sum", DataType::Int),
    ])
}

/// Builds the Linear Road subset app.
pub fn linear_road_app() -> App {
    App::builder()
        .stream_partitioned_timed("reports", report_schema(), "xway", "time")
        .stream("minute_ticks", Schema::of(&[("xway", DataType::Int), ("minute", DataType::Int)]))
        .time_window(
            "seg_win",
            "update_position",
            window_schema(),
            "ts",
            STATS_WINDOW_MS,
            STATS_WINDOW_MS,
            ALLOWED_LATENESS_MS,
        )
        .time_window(
            "speed_win",
            "update_position",
            window_schema(),
            "ts",
            SPEED_WINDOW_MS,
            SPEED_SLIDE_MS,
            ALLOWED_LATENESS_MS,
        )
        .table_indexed(
            "vehicles",
            Schema::of(&[
                ("vid", DataType::Int),
                ("xway", DataType::Int),
                ("seg", DataType::Int),
                ("time", DataType::Int),
                ("stopped", DataType::Int),
            ]),
            vec![IndexDef {
                name: "vehicles_pk".into(),
                key_columns: vec![0],
                kind: IndexKind::Hash,
                unique: true,
            }],
        )
        // Per-30s-window per-segment statistics (windowed counterpart
        // of the paper's per-minute SegAvgSpeed maintenance). `wts` is
        // the window's earliest report timestamp — extents are
        // disjoint in event time, so it keys the window uniquely.
        .table_indexed(
            "seg_stats",
            stats_schema(),
            vec![IndexDef {
                name: "seg_stats_key".into(),
                key_columns: vec![0, 1, 2],
                kind: IndexKind::Hash,
                unique: true,
            }],
        )
        // Trailing-5-minute per-segment statistics, slid every minute
        // (what the Linear Road toll formula averages over). NOT
        // unique-keyed: sliding extents OVERLAP, so a segment's oldest
        // report is the MIN(ts) of up to size/slide consecutive
        // extents — a unique (xway, seg, wts) key would abort every
        // slide after the first. The non-unique index still serves
        // lookups.
        .table_indexed(
            "seg_speed5",
            stats_schema(),
            vec![IndexDef {
                name: "seg_speed5_key".into(),
                key_columns: vec![0, 1, 2],
                kind: IndexKind::Hash,
                unique: false,
            }],
        )
        .table_indexed(
            "accidents",
            Schema::of(&[("xway", DataType::Int), ("seg", DataType::Int), ("cleared", DataType::Int)]),
            vec![IndexDef {
                name: "accidents_key".into(),
                key_columns: vec![0, 1],
                kind: IndexKind::Hash,
                unique: true,
            }],
        )
        .table_indexed(
            "tolls",
            Schema::of(&[("vid", DataType::Int), ("amount", DataType::Int)]),
            vec![IndexDef {
                name: "tolls_pk".into(),
                key_columns: vec![0],
                kind: IndexKind::Hash,
                unique: true,
            }],
        )
        .table(
            "notifications",
            Schema::of(&[("vid", DataType::Int), ("time", DataType::Int), ("seg", DataType::Int)]),
        )
        .proc(
            "update_position",
            &[
                ("get_vehicle", "SELECT seg, stopped, time FROM vehicles WHERE vid = ?"),
                (
                    "ins_vehicle",
                    "INSERT INTO vehicles (vid, xway, seg, time, stopped) VALUES (?, ?, ?, ?, 0)",
                ),
                (
                    "upd_vehicle",
                    "UPDATE vehicles SET seg = ?, time = ?, stopped = ? WHERE vid = ?",
                ),
                (
                    "win30",
                    "INSERT INTO seg_win (ts, xway, seg, speed) VALUES (?, ?, ?, ?)",
                ),
                (
                    "win300",
                    "INSERT INTO speed_win (ts, xway, seg, speed) VALUES (?, ?, ?, ?)",
                ),
                ("notify", "INSERT INTO notifications (vid, time, seg) VALUES (?, ?, ?)"),
                ("get_toll", "SELECT amount FROM tolls WHERE vid = ?"),
                ("ins_toll", "INSERT INTO tolls (vid, amount) VALUES (?, 2)"),
                ("charge", "UPDATE tolls SET amount = amount + 2 WHERE vid = ?"),
                ("get_accident", "SELECT cleared FROM accidents WHERE xway = ? AND seg = ?"),
                ("ins_accident", "INSERT INTO accidents (xway, seg, cleared) VALUES (?, ?, 0)"),
            ],
            &["minute_ticks"],
            |ctx| {
                let rows = ctx.input().to_vec();
                let mut minute_crossed: Option<(i64, i64)> = None;
                for r in rows {
                    let (vid, time, xway, seg, speed) = (
                        r.get(0).as_int()?,
                        r.get(1).as_int()?,
                        r.get(2).as_int()?,
                        r.get(3).as_int()?,
                        r.get(4).as_int()?,
                    );
                    // Vehicle position update + stopped-car detection.
                    let prev = ctx.sql("get_vehicle", &[Value::Int(vid)])?;
                    let (crossed, stopped) = match prev.rows.first() {
                        None => {
                            ctx.sql(
                                "ins_vehicle",
                                &[Value::Int(vid), Value::Int(xway), Value::Int(seg), Value::Int(time)],
                            )?;
                            (true, 0)
                        }
                        Some(p) => {
                            let prev_seg = p.get(0).as_int()?;
                            let prev_stopped = p.get(1).as_int()?;
                            let stopped = if speed == 0 && prev_seg == seg {
                                prev_stopped + 1
                            } else {
                                0
                            };
                            ctx.sql(
                                "upd_vehicle",
                                &[Value::Int(seg), Value::Int(time), Value::Int(stopped), Value::Int(vid)],
                            )?;
                            (prev_seg != seg, stopped)
                        }
                    };
                    // Accident: 4 consecutive stopped reports at a segment.
                    if stopped >= STOP_REPORTS_FOR_ACCIDENT {
                        let seen = ctx.sql("get_accident", &[Value::Int(xway), Value::Int(seg)])?;
                        if seen.rows.is_empty() {
                            ctx.sql("ins_accident", &[Value::Int(xway), Value::Int(seg)])?;
                        }
                    }
                    // Segment crossing: toll notification + charge.
                    if crossed {
                        ctx.sql("notify", &[Value::Int(vid), Value::Int(time), Value::Int(seg)])?;
                        let t = ctx.sql("get_toll", &[Value::Int(vid)])?;
                        if t.rows.is_empty() {
                            ctx.sql("ins_toll", &[Value::Int(vid)])?;
                        } else {
                            ctx.sql("charge", &[Value::Int(vid)])?;
                        }
                    }
                    // Segment statistics: stage the report into both
                    // event-time windows; the watermark does the rest.
                    let win_params =
                        [Value::Int(time), Value::Int(xway), Value::Int(seg), Value::Int(speed)];
                    ctx.sql("win30", &win_params)?;
                    ctx.sql("win300", &win_params)?;
                    if time % 60_000 == 0 {
                        minute_crossed = Some((xway, time / 60_000));
                    }
                }
                if let Some((xway, minute)) = minute_crossed {
                    ctx.emit("minute_ticks", vec![sstore_common::tuple![xway, minute]])?;
                }
                Ok(())
            },
        )
        .proc(
            "minute_rollup",
            &[("clear", "UPDATE accidents SET cleared = 1 WHERE xway = ? AND cleared = 0")],
            &[],
            |ctx| {
                let rows = ctx.input().to_vec();
                for r in rows {
                    ctx.sql("clear", &[r.get(0).clone()])?;
                }
                Ok(())
            },
        )
        .pe_trigger("reports", "update_position")
        .pe_trigger("minute_ticks", "minute_rollup")
        // On-slide aggregation: one row per (xway, seg) per fired
        // extent. GROUP BY yields no rows for an empty extent, so
        // expire-only slides insert nothing.
        .ee_trigger(
            "seg_win",
            &["INSERT INTO seg_stats (xway, seg, wts, cnt, speed_sum) \
               SELECT xway, seg, MIN(ts), COUNT(*), SUM(speed) FROM seg_win \
               GROUP BY xway, seg"],
        )
        .ee_trigger(
            "speed_win",
            &["INSERT INTO seg_speed5 (xway, seg, wts, cnt, speed_sum) \
               SELECT xway, seg, MIN(ts), COUNT(*), SUM(speed) FROM speed_win \
               GROUP BY xway, seg"],
        )
        .build()
        .expect("linear road app is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TrafficGen;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use sstore_engine::{Engine, EngineConfig};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn cfg(parts: usize) -> EngineConfig {
        EngineConfig::default().with_partitions(parts).with_data_dir(
            std::env::temp_dir().join(format!(
                "sstore-lr-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            )),
        )
    }

    fn drive(parts: usize, xways: usize, ticks: usize) -> Engine {
        let engine = Engine::start(cfg(parts), linear_road_app()).unwrap();
        let mut traffic = TrafficGen::new(17, xways, 30);
        for _ in 0..ticks {
            for batch in traffic.tick() {
                let rows = batch.iter().map(|r| r.tuple()).collect();
                engine.ingest("reports", rows).unwrap();
            }
        }
        engine.drain().unwrap();
        engine
    }

    fn scalar(engine: &Engine, p: usize, sql: &str) -> i64 {
        engine.query(p, sql, vec![]).unwrap().scalar().unwrap().as_int().unwrap()
    }

    /// Both slide triggers carry `MIN(ts)`, which no group index keeps
    /// (it cannot be taken back when a row expires): neither window
    /// derives one, and every statement is planned as it was without them.
    #[test]
    fn neither_window_carries_a_group_index() {
        use sstore_engine::ee::ExecutionEngine;
        use sstore_engine::metrics::EngineMetrics;
        use sstore_engine::names::AppIds;
        use sstore_sql::plan::{Access, BoundStatement};
        use sstore_sql::Planner;
        use std::sync::Arc;

        let app = linear_road_app();
        let ids = Arc::new(AppIds::build(&app).unwrap());
        let (ee, _) = ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).unwrap();
        for w in ["seg_win", "speed_win"] {
            assert_eq!(ee.catalog().table(w).unwrap().group_index_defs().count(), 0, "{w}");
        }
        let registered = app
            .procs
            .iter()
            .flat_map(|p| p.statements.iter().map(|(_, sql)| sql))
            .chain(app.ee_triggers.iter().flat_map(|t| &t.sql));
        for sql in registered {
            let select = match Planner::new(ee.catalog()).plan_sql(sql).unwrap() {
                BoundStatement::Select(s) => s,
                BoundStatement::Insert(i) => match i.select {
                    Some(s) => *s,
                    None => continue,
                },
                _ => continue,
            };
            assert!(!matches!(select.from.access, Access::GroupIndex { .. }), "{sql}");
        }
    }

    #[test]
    fn positions_tolls_and_stats_accumulate() {
        let ticks = 8;
        let engine = drive(1, 2, ticks);
        let vehicles = scalar(&engine, 0, "SELECT COUNT(*) FROM vehicles");
        assert_eq!(vehicles, 60, "30 vehicles × 2 x-ways all tracked");
        let notifications = scalar(&engine, 0, "SELECT COUNT(*) FROM notifications");
        assert!(notifications >= 60, "each vehicle crossed at least its first segment");
        let toll_total = scalar(&engine, 0, "SELECT SUM(amount) FROM tolls");
        assert!(toll_total > 0);
        // 30s tumbling stats: ticks land at 30k, 60k, …; the extent
        // holding tick t fires when tick t+1 moves the watermark, so
        // all but the final tick are aggregated — and every aggregated
        // report is counted exactly once.
        let counted = scalar(&engine, 0, "SELECT SUM(cnt) FROM seg_stats");
        assert_eq!(counted, (60 * (ticks as i64 - 1)), "in-order input loses nothing");
        // 5min/1min sliding stats cover each report up to 5 times, and
        // MULTIPLE extents must have fired (a wedged window shows as a
        // single wts value — regression guard for the unique-key
        // collision across overlapping extents).
        let speed_rows = scalar(&engine, 0, "SELECT COUNT(*) FROM seg_speed5");
        assert!(speed_rows > 0, "sliding window fired");
        let extents = scalar(&engine, 0, "SELECT COUNT(DISTINCT wts) FROM seg_speed5");
        assert!(extents > 1, "multiple sliding extents fired, got {extents}");
        let max_cnt = scalar(&engine, 0, "SELECT MAX(cnt) FROM seg_speed5");
        assert!(max_cnt >= 1);
        // No slide transaction may have aborted (a unique-violation in
        // an on-slide trigger aborts silently — reply-less txns).
        use sstore_engine::metrics::EngineMetrics;
        assert_eq!(
            EngineMetrics::get(&engine.metrics().txns_aborted),
            0,
            "slide transactions must not abort"
        );
        // Windows stay procedure-private: the active extent is visible
        // to its owner's queries only through the table — but its
        // *size* is bounded by one extent of reports.
        let active = scalar(&engine, 0, "SELECT COUNT(*) FROM seg_win");
        assert_eq!(active, 60, "active 30s extent holds exactly one tick of reports");
        engine.shutdown();
    }

    #[test]
    fn accidents_are_detected_and_cleared() {
        // Long run so some vehicle stops 4× (5‰ chance per report).
        let engine = drive(1, 2, 40);
        let accidents = scalar(&engine, 0, "SELECT COUNT(*) FROM accidents");
        assert!(accidents > 0, "stopped vehicles must produce accidents");
        let cleared = scalar(&engine, 0, "SELECT COUNT(*) FROM accidents WHERE cleared = 1");
        assert!(cleared > 0, "rollups clear accidents");
        engine.shutdown();
    }

    #[test]
    fn partitioned_run_covers_all_xways() {
        let parts = 3;
        let xways = 6;
        let engine = drive(parts, xways, 6);
        let mut total_vehicles = 0;
        for p in 0..parts {
            total_vehicles += scalar(&engine, p, "SELECT COUNT(*) FROM vehicles");
        }
        assert_eq!(total_vehicles, (xways * 30) as i64);
        // Same x-way never splits across partitions: per-partition x-way
        // sets are disjoint by the routing hash.
        let mut seen: Vec<i64> = Vec::new();
        for p in 0..parts {
            let xs = engine
                .query(p, "SELECT xway, COUNT(*) FROM vehicles GROUP BY xway", vec![])
                .unwrap()
                .int_column(0)
                .unwrap();
            for x in xs {
                assert!(!seen.contains(&x), "x-way {x} appears on two partitions");
                seen.push(x);
            }
        }
        assert_eq!(seen.len(), xways);
        // Per-partition watermarks: every partition aggregated its own
        // x-ways' windows.
        for p in 0..parts {
            assert!(scalar(&engine, p, "SELECT COUNT(*) FROM seg_stats") > 0);
        }
        engine.shutdown();
    }

    #[test]
    fn out_of_order_reports_within_a_tick_change_nothing() {
        // Reverse every batch: intra-batch disorder is fully absorbed
        // by window staging (the watermark only advances at commit).
        let run = |reverse: bool| {
            let engine = Engine::start(cfg(1), linear_road_app()).unwrap();
            let mut traffic = TrafficGen::new(23, 2, 20);
            for _ in 0..6 {
                for batch in traffic.tick() {
                    let mut rows: Vec<_> = batch.iter().map(|r| r.tuple()).collect();
                    if reverse {
                        rows.reverse();
                    }
                    engine.ingest("reports", rows).unwrap();
                }
            }
            engine.drain().unwrap();
            let stats = engine
                .query(
                    0,
                    "SELECT xway, seg, wts, cnt, speed_sum FROM seg_stats \
                     ORDER BY xway, seg, wts",
                    vec![],
                )
                .unwrap()
                .rows;
            engine.shutdown();
            stats
        };
        assert_eq!(run(false), run(true));
    }
}
