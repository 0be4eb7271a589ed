//! `colscan`: the vectorized SELECT path vs the row-at-a-time executor
//! on the same table, same queries.
//!
//! Four stages. First, one scan over a table as loaded against the
//! same scan over a twin churned by random point UPDATEs: where an
//! update leaves its row is a property of the code, and a gate bounds
//! what the churn costs the scan. Then interleaved A/B repetitions
//! (rowwise, columnar, rowwise, …) of each query at the SQL layer — no
//! engine, no logging, so the numbers isolate the executor — reported
//! as per-case medians plus the speedup, equality-checked between
//! executors before timing counts. Then voter's two leaderboard-refresh SELECTs against a bare
//! scan of the same rows, in one interleaved loop: what the output edge
//! (grouping, ordering, limiting) costs on top of reading the rows is a
//! property of the code, and a gate bounds it — and each once more over
//! the same rows with the index the voter app gives them (the window's
//! derived group index, the counts' declared B-tree), where the planner
//! must read the index instead. Last, a full engine
//! answering ad-hoc SELECTs through `query_at`, whose
//! `columnar_batches` metric proves the fast path is wired into the
//! ad-hoc read path.

use std::fmt::Write as _;
use std::time::Instant;

use sstore_common::{Column, DataType, Schema, Tuple, Value};
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::{App, EngineConfig};
use sstore_sql::exec::{execute, run_select_rows, run_select_rows_rowwise};
use sstore_sql::plan::{BoundSelect, BoundStatement};
use sstore_sql::vexec::run_select_columnar;
use sstore_sql::Planner;
use sstore_storage::index::IndexDef;
use sstore_storage::{Catalog, GroupIndexDef, IndexKind, TableKind};

use crate::{interleaved, start, DataDir, Params, Report};

const REPS: usize = 9;

fn build_catalog(rows: usize) -> Catalog {
    let mut c = Catalog::new();
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("g", DataType::Int),
        Column::nullable("v", DataType::Int),
        Column::nullable("f", DataType::Float),
        Column::nullable("s", DataType::Text),
        // Group-key columns at three cardinalities, for the hash
        // group-by cases: 2, ~100, and ~10k distinct groups.
        Column::new("g2", DataType::Int),
        Column::new("h", DataType::Int),
        Column::new("m", DataType::Int),
    ])
    .unwrap();
    let t = c.create_table("t", TableKind::Base, schema).unwrap();
    let texts = ["alpha", "beta", "gamma", "delta"];
    for i in 0..rows as i64 {
        let v = loaded_v(i);
        let f = if i % 23 == 0 { Value::Null } else { Value::Float((i % 997) as f64 * 0.5) };
        let s = Value::Text(texts[(i % 4) as usize].to_owned());
        t.insert(Tuple::new(vec![
            Value::Int(i),
            Value::Int(i % 8),
            v,
            f,
            s,
            Value::Int(i % 2),
            Value::Int(i * 31 % 100),
            Value::Int(i * 131 % 10_000),
        ]))
        .unwrap();
    }
    c
}

/// Row `k`'s `v` as loaded: a deterministic mix, ~6% NULLs and values
/// spread over 0..1000.
fn loaded_v(k: i64) -> Value {
    if k % 17 == 0 { Value::Null } else { Value::Int(k * 37 % 1000) }
}

const QUERIES: &[(&str, &str)] = &[
    ("filter_count", "SELECT COUNT(*) FROM t WHERE v > 500"),
    ("filter_project", "SELECT k, v FROM t WHERE v > 900 AND s = 'beta' ORDER BY k LIMIT 100"),
    ("agg_full", "SELECT COUNT(v), SUM(v), MIN(v), MAX(v), MIN(f), MAX(f) FROM t"),
    ("agg_filtered", "SELECT SUM(v), COUNT(*) FROM t WHERE f >= 100.0 AND v IS NOT NULL"),
    ("group_by", "SELECT g, COUNT(*), SUM(v), MAX(f) FROM t GROUP BY g"),
    ("group_by_2", "SELECT g2, COUNT(*), SUM(v) FROM t GROUP BY g2"),
    ("group_by_100", "SELECT h, COUNT(*), SUM(v), MIN(v) FROM t GROUP BY h"),
    ("group_by_10k", "SELECT m, COUNT(*), SUM(v) FROM t GROUP BY m"),
    ("group_by_expr", "SELECT v % 10, COUNT(*), MAX(k) FROM t GROUP BY v % 10"),
    // Two Int keys, 200 groups: `(i % 8, i * 31 % 100)` repeats every 200 rows.
    ("group_by_pair", "SELECT g, h, MIN(v), COUNT(*), SUM(v) FROM t GROUP BY g, h"),
    ("project_expr", "SELECT v + 1 FROM t"),
    ("topk", "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 10"),
];

fn plan(c: &Catalog, sql: &str) -> BoundSelect {
    match Planner::new(c).plan_sql(sql).unwrap() {
        BoundStatement::Select(s) => s,
        _ => panic!("not a SELECT: {sql}"),
    }
}

fn time_us(f: impl FnOnce() -> Vec<Tuple>) -> f64 {
    let start = Instant::now();
    let rows = f();
    let us = start.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(rows);
    us
}

/// Edge stage: voter's `fill_trend` and `fill_top` SELECTs over a
/// 100-row window and a 500-row counts table, each beside a COUNT(*)
/// that reads the same rows, `fill_trend` over a copy of the window
/// with the group index the engine derives for it, and `fill_top` over a
/// copy of the counts with the app's B-tree on `(cnt, contestant)`; the
/// six medians, in µs.
fn edge_stage(report: &mut Report, rounds: usize) {
    let mut c = Catalog::new();
    for name in ["vote_counts", "vote_counts_ix"] {
        let counts = c
            .create_table(
                name,
                TableKind::Base,
                Schema::of(&[("contestant", DataType::Int), ("cnt", DataType::Int)]),
            )
            .unwrap();
        for i in 0..500i64 {
            counts.insert(Tuple::new(vec![Value::Int(i + 1), Value::Int(i * 7919 % 4001)])).unwrap();
        }
    }
    c.table_mut("vote_counts_ix")
        .unwrap()
        .create_index(IndexDef {
            name: "by_cnt".into(),
            key_columns: vec![1, 0],
            kind: IndexKind::BTree,
            unique: false,
        })
        .unwrap();
    for name in ["w_trend", "w_trend_ix"] {
        let window = c
            .create_table(name, TableKind::Window, Schema::of(&[("contestant", DataType::Int)]))
            .unwrap();
        for i in 0..100i64 {
            // Skewed like votes: about 60 distinct contestants in 100 rows.
            window.insert(Tuple::new(vec![Value::Int(1 + (i * i * 31) % 97 % 500)])).unwrap();
        }
    }
    // The group index the engine derives for `fill_trend` (`ee.rs`).
    c.table_mut("w_trend_ix")
        .unwrap()
        .create_group_index(GroupIndexDef { key_columns: vec![0], agg_columns: vec![] })
        .unwrap();
    let plans = [
        ("count_window_us", "SELECT COUNT(*) FROM w_trend"),
        (
            "trend_us",
            "SELECT 'trend', contestant, COUNT(*) FROM w_trend \
             GROUP BY contestant ORDER BY COUNT(*) DESC, contestant LIMIT 3",
        ),
        (
            "trend_maintained_us",
            "SELECT 'trend', contestant, COUNT(*) FROM w_trend_ix \
             GROUP BY contestant ORDER BY COUNT(*) DESC, contestant LIMIT 3",
        ),
        ("count_filtered_us", "SELECT COUNT(*) FROM vote_counts WHERE cnt > 2000"),
        (
            "top_us",
            "SELECT 'top', contestant, cnt FROM vote_counts ORDER BY cnt DESC, contestant LIMIT 3",
        ),
        (
            "top_indexed_us",
            "SELECT 'top', contestant, cnt FROM vote_counts_ix ORDER BY cnt DESC, contestant LIMIT 3",
        ),
    ]
    .map(|(name, sql)| (name, plan(&c, sql)));
    // Through the dispatch, as the engine runs them: columnar for the
    // scans (both tables are past the cutoff), the group index for the
    // maintained window, the walk for the last.
    let run = |i: usize| time_us(|| run_select_rows(&c, &plans[i].1, &[]).unwrap());
    assert_eq!(run_select_rows(&c, &plans[1].1, &[]), run_select_rows(&c, &plans[2].1, &[]));
    assert_eq!(run_select_rows(&c, &plans[4].1, &[]), run_select_rows(&c, &plans[5].1, &[]));
    interleaved(rounds / 10, plans.len(), run); // warm-up
    for ((name, _), us) in plans.iter().zip(interleaved(rounds, plans.len(), run)) {
        report.row(*name, us, "us");
    }
}

/// Churn stage: one scan shape over a catalog as loaded and over a
/// twin that has taken 2 × `rows` point UPDATEs of random rows through
/// `execute`, each one's effects dropped as a commit drops them; the two
/// medians of interleaved scans, in µs, and their ratio. Every update
/// writes the value its row was loaded with, so both tables hold the
/// same rows and only where the rows live can differ: a table that
/// writes a row where it lives scans its churned rows as fast as its
/// loaded ones, one that swaps a fresh allocation in per update leaves
/// them scattered over the heap and pays a miss per row for it.
fn churn_stage(report: &mut Report, rows: usize) {
    let (fresh, mut churned) = (build_catalog(rows), build_catalog(rows));
    let pk = IndexDef { name: "pk".into(), key_columns: vec![0], kind: IndexKind::Hash, unique: true };
    churned.table_mut("t").unwrap().create_index(pk).unwrap();
    let update = Planner::new(&churned).plan_sql("UPDATE t SET v = ? WHERE k = ?").unwrap();
    let (mut effects, mut z) = (Vec::new(), 0u64);
    for _ in 0..2 * rows {
        // A 64-bit LCG's high bits: a fixed, well-spread sequence of rows.
        z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let k = ((z >> 33) % rows as u64) as i64;
        execute(&mut churned, &update, &[loaded_v(k), Value::Int(k)], &mut effects).unwrap();
        effects.clear();
    }
    let scans = [&fresh, &churned].map(|c| (c, plan(c, "SELECT COUNT(*) FROM t WHERE v > 500")));
    assert_eq!(run_select_rows(scans[0].0, &scans[0].1, &[]), run_select_rows(scans[1].0, &scans[1].1, &[]));
    let us = interleaved(3 * REPS, 2, |side| time_us(|| run_select_rows(scans[side].0, &scans[side].1, &[]).unwrap()));
    report.row("scan_fresh_us", us[0], "us");
    report.row("scan_churned_us", us[1], "us");
    report.row("scan_after_updates_ratio", us[1] / us[0], "x");
}

/// Engine stage: a live engine answering ad-hoc SELECTs must route
/// them through the columnar path and count batches in its metrics.
fn engine_stage(report: &mut Report, dir: &DataDir) {
    let app = App::builder()
        .table("et", Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]))
        .build()
        .unwrap();
    let engine = start(EngineConfig::default().with_data_dir(dir.fresh("colscan")), app);
    // 50 multi-row inserts x 100 rows = 5000 rows, each its own txn.
    for chunk in 0..50 {
        let mut sql = String::from("INSERT INTO et (k, v) VALUES ");
        for i in 0..100 {
            let k = chunk * 100 + i;
            let _ = write!(sql, "{}({k}, {})", if i > 0 { ", " } else { "" }, k % 100);
        }
        engine.query_at(0, &sql, vec![]).unwrap();
    }
    let queries = 20;
    for _ in 0..queries {
        let r = engine.query_at(0, "SELECT COUNT(*) FROM et WHERE v < 50", vec![]).unwrap();
        assert_eq!(r.scalar().unwrap().as_int().unwrap(), 2500);
    }
    report.row("engine_adhoc_selects", queries as f64, "count");
    report.row(
        "engine_columnar_batches",
        EngineMetrics::get(&engine.metrics().columnar_batches) as f64,
        "count",
    );
    engine.shutdown();
}

/// Columnar vs row-wise over `--scale` × 100 000 rows, 9 interleaved
/// repetitions per query.
pub fn colscan(p: &Params, dir: &DataDir) -> Report {
    let rows = p.scaled(100_000);
    let mut report = Report::new("colscan", &[("rows", rows as f64), ("reps", REPS as f64)]);
    // First, while the heap holds nothing else: both of its tables load
    // into fresh memory alike.
    churn_stage(&mut report, p.scaled(400_000));
    let c = build_catalog(rows);
    let mut group_min_speedup = f64::INFINITY;
    for (name, sql) in QUERIES {
        let s = plan(&c, sql);
        assert!(sstore_sql::vexec::eligible(&s), "{name} must be columnar-eligible");
        // Correctness first: both executors must agree bit-for-bit.
        let rowwise = || run_select_rows_rowwise(&c, &s, &[]).unwrap();
        let columnar = || run_select_columnar(&c, &s, &[]).unwrap();
        assert_eq!(rowwise(), columnar(), "{name}: executors disagree");
        let us = interleaved(
            REPS,
            2,
            |side| {
                if side == 0 {
                    time_us(rowwise)
                } else {
                    time_us(columnar)
                }
            },
        );
        let speedup = us[0] / us[1];
        if name.starts_with("group_by") {
            group_min_speedup = group_min_speedup.min(speedup);
        }
        report.row(format!("{name}_rowwise_us"), us[0], "us");
        report.row(format!("{name}_columnar_us"), us[1], "us");
        report.row(format!("{name}_speedup"), speedup, "x");
    }
    report.row("group_min_speedup", group_min_speedup, "x");
    edge_stage(&mut report, p.scaled(2000).max(10));
    engine_stage(&mut report, dir);
    report
}
