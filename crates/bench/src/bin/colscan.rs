//! Columnar scan/aggregate micro-benchmark: the vectorized SELECT path
//! vs the row-at-a-time executor on the same table, same queries.
//!
//! Runs interleaved A/B repetitions (rowwise, columnar, rowwise, …) of
//! each query at the SQL layer — no engine, no logging, so the numbers
//! isolate the executor — and reports per-case medians plus the
//! speedup. A second stage drives a full engine through `query_at` and
//! reports the `columnar_batches` metric, proving the fast path is
//! actually wired into the ad-hoc read path (bench_smoke asserts it is
//! non-zero). Results are equality-checked between executors on every
//! case before timing counts. A third stage times voter's two
//! leaderboard-refresh SELECTs against a bare scan of the same rows, in
//! one interleaved loop, and reports the ratios: what the output edge
//! (grouping, ordering, limiting) costs on top of reading the rows is a
//! property of the code, and bench_smoke bounds it.
//!
//! Usage: `cargo run --release -p sstore-bench --bin colscan [rows] [reps]`

use std::fmt::Write as _;
use std::time::Instant;

use sstore_bench::bench_dir;
use sstore_common::{Column, DataType, Schema, Tuple, Value};
use sstore_engine::{App, Engine, EngineConfig};
use sstore_sql::exec::run_select_rows_rowwise;
use sstore_sql::plan::BoundStatement;
use sstore_sql::vexec::run_select_columnar;
use sstore_sql::Planner;
use sstore_storage::{Catalog, TableKind};

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
        // Deterministic mix: ~6% NULLs, values spread over 0..1000.
        let v = if i % 17 == 0 { Value::Null } else { Value::Int(i * 37 % 1000) };
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

const CASES: &[(&str, &str)] = &[
    ("filter_count", "SELECT COUNT(*) FROM t WHERE v > 500"),
    ("filter_project", "SELECT k, v FROM t WHERE v > 900 AND s = 'beta' ORDER BY k LIMIT 100"),
    ("agg_full", "SELECT COUNT(v), SUM(v), MIN(v), MAX(v), MIN(f), MAX(f) FROM t"),
    ("agg_filtered", "SELECT SUM(v), COUNT(*) FROM t WHERE f >= 100.0 AND v IS NOT NULL"),
    ("group_by", "SELECT g, COUNT(*), SUM(v), MAX(f) FROM t GROUP BY g"),
    ("group_by_2", "SELECT g2, COUNT(*), SUM(v) FROM t GROUP BY g2"),
    ("group_by_100", "SELECT h, COUNT(*), SUM(v), MIN(v) FROM t GROUP BY h"),
    ("group_by_10k", "SELECT m, COUNT(*), SUM(v) FROM t GROUP BY m"),
    ("group_by_expr", "SELECT v % 10, COUNT(*), MAX(k) FROM t GROUP BY v % 10"),
    ("project_expr", "SELECT v + 1 FROM t"),
    ("topk", "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 10"),
];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn time_us(f: impl Fn() -> Vec<Tuple>) -> f64 {
    let start = Instant::now();
    let r = f();
    let us = start.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(r);
    us
}

/// Engine stage: a live engine answering ad-hoc SELECTs must route
/// them through the columnar path and count batches in its metrics.
fn engine_stage() -> (u64, usize) {
    let app = App::builder()
        .table("et", Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]))
        .build()
        .unwrap();
    let engine =
        Engine::start(EngineConfig::default().with_data_dir(bench_dir("colscan")), app).unwrap();
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
    let batches = sstore_engine::metrics::EngineMetrics::get(&engine.metrics().columnar_batches);
    engine.shutdown();
    (batches, queries)
}

/// Edge stage: voter's `fill_trend` and `fill_top` SELECTs over a
/// 100-row window and a 500-row counts table, each beside a COUNT(*) that
/// reads the same rows. Returns the four medians in µs, in the order
/// (count over the window, trend, filtered count over the counts, top).
fn edge_stage() -> [f64; 4] {
    let rounds = 2000;
    let mut c = Catalog::new();
    let counts = c
        .create_table(
            "vote_counts",
            TableKind::Base,
            Schema::of(&[("contestant", DataType::Int), ("cnt", DataType::Int)]),
        )
        .unwrap();
    for i in 0..500i64 {
        counts.insert(Tuple::new(vec![Value::Int(i + 1), Value::Int(i * 7919 % 4001)])).unwrap();
    }
    let window = c
        .create_table("w_trend", TableKind::Window, Schema::of(&[("contestant", DataType::Int)]))
        .unwrap();
    for i in 0..100i64 {
        // Skewed like votes: about 60 distinct contestants in 100 rows.
        window.insert(Tuple::new(vec![Value::Int(1 + (i * i * 31) % 97 % 500)])).unwrap();
    }
    let plans: Vec<BoundStatement> = [
        "SELECT COUNT(*) FROM w_trend",
        "SELECT 'trend', contestant, COUNT(*) FROM w_trend \
         GROUP BY contestant ORDER BY COUNT(*) DESC, contestant LIMIT 3",
        "SELECT COUNT(*) FROM vote_counts WHERE cnt > 2000",
        "SELECT 'top', contestant, cnt FROM vote_counts ORDER BY cnt DESC, contestant LIMIT 3",
    ]
    .iter()
    .map(|sql| Planner::new(&c).plan_sql(sql).unwrap())
    .collect();
    let mut us: [Vec<f64>; 4] = Default::default();
    for round in 0..rounds + rounds / 10 {
        for (samples, plan) in us.iter_mut().zip(&plans) {
            let BoundStatement::Select(s) = plan else { unreachable!("all four are SELECTs") };
            let t = time_us(|| run_select_columnar(&c, s, &[]).unwrap());
            if round >= rounds / 10 {
                samples.push(t);
            }
        }
    }
    us.map(median)
}

fn main() {
    let rows: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(100_000);
    let reps: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(9);
    let c = build_catalog(rows);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"colscan\",");
    let _ = writeln!(json, "  \"rows\": {rows},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"cases\": {{");
    let mut min_speedup = f64::INFINITY;
    let mut group_min_speedup = f64::INFINITY;
    for (i, (name, sql)) in CASES.iter().enumerate() {
        let stmt = Planner::new(&c).plan_sql(sql).unwrap();
        let BoundStatement::Select(s) = &stmt else { panic!("{name} is not a SELECT") };
        assert!(sstore_sql::vexec::eligible(s), "{name} must be columnar-eligible");
        // Correctness first: both executors must agree bit-for-bit.
        let rw = run_select_rows_rowwise(&c, s, &[]).unwrap();
        let cw = run_select_columnar(&c, s, &[]).unwrap();
        assert_eq!(rw, cw, "{name}: executors disagree");

        // Interleaved A/B reps so drift hits both sides equally.
        let mut row_us = Vec::with_capacity(reps);
        let mut col_us = Vec::with_capacity(reps);
        for _ in 0..reps {
            row_us.push(time_us(|| run_select_rows_rowwise(&c, s, &[]).unwrap()));
            col_us.push(time_us(|| run_select_columnar(&c, s, &[]).unwrap()));
        }
        let (rm, cm) = (median(row_us), median(col_us));
        let speedup = rm / cm;
        min_speedup = min_speedup.min(speedup);
        if name.starts_with("group_by") {
            group_min_speedup = group_min_speedup.min(speedup);
        }
        eprintln!("{name:<16} rowwise {rm:>9.0}us  columnar {cm:>9.0}us  speedup {speedup:.2}x");
        let comma = if i + 1 < CASES.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{name}\": {{ \"rowwise_us\": {rm:.0}, \"columnar_us\": {cm:.0}, \"speedup\": {speedup:.2} }}{comma}"
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"min_speedup\": {min_speedup:.2},");
    let _ = writeln!(json, "  \"group_min_speedup\": {group_min_speedup:.2},");

    let [count_window, trend, count_filtered, top] = edge_stage();
    let (trend_ratio, top_ratio) = (trend / count_window, top / count_filtered);
    eprintln!(
        "edge stage: trend {trend:.2}us = {trend_ratio:.1}x COUNT(*) over the window ({count_window:.2}us), \
         top {top:.2}us = {top_ratio:.1}x a filtered COUNT(*) over the counts ({count_filtered:.2}us)"
    );
    let _ = writeln!(
        json,
        "  \"edge\": {{ \"count_window_us\": {count_window:.2}, \"trend_us\": {trend:.2}, \"trend_ratio\": {trend_ratio:.2}, \"count_filtered_us\": {count_filtered:.2}, \"top_us\": {top:.2}, \"top_ratio\": {top_ratio:.2} }},"
    );

    let (batches, queries) = engine_stage();
    eprintln!("engine stage: {batches} columnar batches over {queries} ad-hoc SELECTs");
    let _ = writeln!(json, "  \"engine_adhoc_selects\": {queries},");
    let _ = writeln!(json, "  \"engine_columnar_batches\": {batches}");
    json.push('}');
    println!("{json}");
}
