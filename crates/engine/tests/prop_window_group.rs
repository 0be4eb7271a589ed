//! Property test for window-resident aggregates: a real
//! [`ExecutionEngine`] with a tuple window and a time window, whose owner
//! registers grouped statements the engine derives group indexes for, is
//! driven through random arrivals (Int / Text / NULL keys, NULL, negative
//! and `i64::MAX`-sized summands, out-of-order and late timestamps),
//! commits and aborts, watermark slides, and `checkpoint` →
//! `restore_chain` into a fresh engine. After every transaction each
//! statement, run as the engine runs it (planned to read the group index,
//! inside a transaction), must equal the same plan forced to scan — rows
//! identical bit for bit, an error exactly when the scan has one —
//! every group index must equal a recomputation from its window's rows,
//! and every window must agree with its table (`verify_window`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use sstore_common::{BatchId, Column, DataType, Schema, Tuple, Value};
use sstore_engine::ee::{ExecutionEngine, ProcStmtMap};
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::names::AppIds;
use sstore_engine::App;
use sstore_sql::exec::run_select_rows;
use sstore_sql::plan::{Access, BoundStatement};
use sstore_sql::Planner;

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("ts", DataType::Int),
        Column::nullable("k", DataType::Int),
        Column::nullable("s", DataType::Text),
        Column::nullable("v", DataType::Int),
    ])
    .unwrap()
}

/// The grouped statements registered against each window (`{w}`): all
/// shapes a group index answers, with the edge's clauses on top — one
/// whose projection fails on some groups, one whose HAVING filters —
/// then top-k by `COUNT(*)`, which walk the count order and stop early:
/// ties broken by the leading keys ascending or by arrival (the walk may
/// stop inside a run), by a key descending or a later key (it stops at a
/// run's end), Text, NULL and two-column keys, a summed column behind the
/// overflow guard, no keys, `LIMIT 1` and a LIMIT past the number of
/// groups.
const QUERIES: [&str; 13] = [
    "SELECT k, COUNT(*), SUM(v), COUNT(v) FROM {w} GROUP BY k",
    "SELECT s, k, COUNT(*) FROM {w} GROUP BY s, k HAVING COUNT(*) > 1 \
     ORDER BY COUNT(*) DESC, s LIMIT 3",
    "SELECT SUM(v), COUNT(*), COUNT(s) FROM {w}",
    "SELECT k, 100 / SUM(v) FROM {w} GROUP BY k",
    "SELECT s, SUM(v) FROM {w} GROUP BY s ORDER BY SUM(v) DESC, s",
    "SELECT 'trend', k, COUNT(*) FROM {w} GROUP BY k ORDER BY COUNT(*) DESC, k LIMIT 2",
    "SELECT s, COUNT(*) FROM {w} GROUP BY s ORDER BY COUNT(*) LIMIT 2",
    "SELECT s, k, COUNT(*) FROM {w} GROUP BY s, k ORDER BY COUNT(*) DESC, s DESC LIMIT 3",
    "SELECT k, SUM(v), COUNT(*) FROM {w} GROUP BY k ORDER BY COUNT(*) DESC LIMIT 1",
    "SELECT s, COUNT(*) FROM {w} GROUP BY s ORDER BY COUNT(*), s DESC LIMIT 50",
    "SELECT COUNT(*), SUM(v) FROM {w} ORDER BY COUNT(*) DESC LIMIT 1",
    "SELECT s, k, COUNT(*) FROM {w} GROUP BY s, k ORDER BY COUNT(*), s, k LIMIT 3",
    "SELECT s, k, COUNT(*) FROM {w} GROUP BY s, k ORDER BY COUNT(*) DESC, k LIMIT 3",
];

const WINDOWS: [&str; 2] = ["tw", "ew"];

#[derive(Debug, Clone, Copy)]
struct Shape {
    size: usize,
    slide: usize,
    /// Time window: slide in ms and how many slides an extent spans.
    slide_ms: i64,
    panes: i64,
    lateness_ms: i64,
}

fn app(sh: Shape) -> App {
    let mut statements: Vec<(String, String)> = vec![
        ("tw_ins".into(), "INSERT INTO tw (ts, k, s, v) VALUES (?, ?, ?, ?)".into()),
        ("ew_ins".into(), "INSERT INTO ew (ts, k, s, v) VALUES (?, ?, ?, ?)".into()),
    ];
    for w in WINDOWS {
        for (i, q) in QUERIES.iter().enumerate() {
            statements.push((format!("{w}_q{i}"), q.replace("{w}", w)));
        }
    }
    let statements: Vec<(&str, &str)> =
        statements.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    App::builder()
        .stream_timed("arrivals", schema(), "ts")
        .window("tw", "feed", schema(), sh.size, sh.slide)
        .time_window("ew", "feed", schema(), "ts", sh.slide_ms * sh.panes, sh.slide_ms, sh.lateness_ms)
        .proc("feed", &statements, &[], |_| Ok(()))
        .pe_trigger("arrivals", "feed")
        .build()
        .unwrap()
}

fn install(app: &App) -> (ExecutionEngine, ProcStmtMap) {
    let ids = Arc::new(AppIds::build(app).unwrap());
    ExecutionEngine::install(app, ids, Arc::new(EngineMetrics::new())).unwrap()
}

/// One arrival from its seeds. Timestamps wander around `clock`, so some
/// are late; summands include both ends of `i64`.
fn arrival(clock: i64, (dt, k, s, v): (u8, u8, u8, u8)) -> Tuple {
    let summands = [i64::MAX, i64::MIN, i64::MAX / 2 + 1, -1, 0, 1, 7, -40, 100];
    Tuple::new(vec![
        Value::Int((clock + i64::from(dt % 32) - 20).max(0)),
        if k % 5 == 0 { Value::Null } else { Value::Int(i64::from(k % 5) - 2) },
        if s % 4 == 0 { Value::Null } else { Value::Text(["", "a", "b"][usize::from(s) % 3].into()) },
        if v % 10 == 0 { Value::Null } else { Value::Int(summands[usize::from(v) % 9]) },
    ])
}

/// Statements answered from a group index, over every case of the run.
static ANSWERED: AtomicU64 = AtomicU64::new(0);
/// Groups visited by count walks, over every case of the run.
static WALKED: AtomicU64 = AtomicU64::new(0);

/// Every registered statement, run as the engine runs it, against the
/// same plan forced to scan; then the indexes against their rows.
fn check(ee: &mut ExecutionEngine, map: &ProcStmtMap, sh: Shape) -> Result<(), TestCaseError> {
    for (w, overlaps) in [("tw", sh.slide < sh.size), ("ew", sh.panes > 1)] {
        let stats = |ee: &ExecutionEngine| ee.table_stats(w).unwrap().clone();
        let before = stats(ee);
        for (i, q) in QUERIES.iter().enumerate() {
            let sql = q.replace("{w}", w);
            let BoundStatement::Select(planned) = Planner::new(ee.catalog()).plan_sql(&sql).unwrap()
            else {
                unreachable!()
            };
            prop_assert_eq!(matches!(planned.from.access, Access::GroupIndex { .. }), overlaps, "{}", sql);
            let mut forced = planned.clone();
            forced.from.access = Access::FullScan;
            let scanned = run_select_rows(ee.catalog(), &forced, &[]);
            ee.begin(None).unwrap();
            let answered = ee.exec(map["feed"][&format!("{w}_q{i}")], &[]).map(|r| r.rows);
            ee.abort().unwrap();
            match (&answered, &scanned) {
                (Ok(a), Ok(b)) => {
                    let same = a.len() == b.len()
                        && a.iter().zip(b).all(|(x, y)| {
                            x.values().iter().zip(y.values()).all(|(p, q)| p.identical(q))
                        });
                    prop_assert!(same, "{}: index {:?}, scan {:?}", sql, a, b);
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "{}: index {:?}, scan {:?}", sql, answered, scanned),
            }
        }
        let after = stats(ee);
        ANSWERED.fetch_add(after.group_reads() - before.group_reads(), Ordering::Relaxed);
        WALKED.fetch_add(after.ordered_visits() - before.ordered_visits(), Ordering::Relaxed);
        ee.catalog().table(w).unwrap().verify().unwrap();
        ee.verify_window(ee.table_id(w).unwrap()).unwrap();
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum Step {
    /// One transaction: arrivals into a window, committed or aborted.
    Txn { window: usize, rows: Vec<(u8, u8, u8, u8)>, advance: u8, abort: bool },
    /// Checkpoint, then restore the image into a fresh engine.
    Restore,
}

fn step() -> impl Strategy<Value = Step> {
    let cells = || (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>());
    let txn = |window: usize| {
        (proptest::collection::vec(cells(), 1..3), 0u8..12, any::<u8>()).prop_map(
            move |(rows, advance, abort)| Step::Txn { window, rows, advance, abort: abort % 6 == 0 },
        )
    };
    prop_oneof![txn(0), txn(0), txn(1), txn(1), txn(1), Just(Step::Restore)]
}

fn shape() -> impl Strategy<Value = Shape> {
    (1usize..13, any::<u8>(), 1i64..4, 0i64..25).prop_map(|(size, slide, panes, lateness_ms)| Shape {
        size,
        slide: 1 + usize::from(slide) % size,
        slide_ms: 10,
        panes,
        lateness_ms,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn every_history(
        sh in shape(),
        steps in proptest::collection::vec(step(), 1..60),
    ) {
        let app = app(sh);
        let (mut ee, map) = install(&app);
        let arrivals = ee.table_id("arrivals").unwrap();
        let (mut clock, mut batch) = (0i64, 0u64);
        for step in &steps {
            match step {
                Step::Restore => {
                    let image = ee.checkpoint().unwrap();
                    let (mut fresh, _) = install(&app);
                    fresh.restore_chain(std::slice::from_ref(&image)).unwrap();
                    prop_assert_eq!(fresh.checkpoint().unwrap(), image, "the indexes are in no image");
                    ee = fresh;
                }
                Step::Txn { window, rows, advance, abort } => {
                    batch += 1;
                    clock += i64::from(*advance);
                    let rows: Vec<Tuple> = rows.iter().map(|c| arrival(clock, *c)).collect();
                    ee.begin(Some(BatchId(batch))).unwrap();
                    // The batch's timestamps are the watermark's input.
                    ee.observe_input(arrivals, &rows).unwrap();
                    let ins = map["feed"][&format!("{}_ins", WINDOWS[*window])];
                    for r in &rows {
                        ee.exec(ins, r.values()).unwrap();
                    }
                    if *abort {
                        ee.abort().unwrap();
                    } else {
                        for w in ee.commit().unwrap().slides {
                            ee.begin(Some(BatchId(batch))).unwrap();
                            ee.process_slides(w).unwrap();
                            ee.commit().unwrap();
                        }
                    }
                }
            }
            check(&mut ee, &map, sh)?;
        }
    }
}

/// An extent whose summed magnitudes pass `i64::MAX`: the index cannot
/// vouch that no running sum overflowed, so the read falls back to the
/// scan — which fails when one did, and answers when none did.
#[test]
fn a_group_past_the_sum_guard_is_answered_by_the_scan() {
    let sh = Shape { size: 8, slide: 1, slide_ms: 10, panes: 2, lateness_ms: 0 };
    let (mut ee, map) = install(&app(sh));
    let row = |v: i64| [Value::Int(0), Value::Int(1), Value::Null, Value::Int(v)];
    // One arrival, then one read: the regime in which the index follows.
    let mut batch = 0;
    let mut arrive_and_sum = |ee: &mut ExecutionEngine, v: i64| {
        batch += 1;
        ee.begin(Some(BatchId(batch))).unwrap();
        ee.exec(map["feed"]["tw_ins"], &row(v)).unwrap();
        ee.commit().unwrap();
        ee.begin(None).unwrap();
        let r = ee.exec(map["feed"]["tw_q0"], &[]).map(|r| r.rows.first().map(|t| t.get(2).clone()));
        ee.abort().unwrap();
        r
    };
    let reads = |ee: &ExecutionEngine| ee.table_stats("tw").unwrap().group_reads();
    // Small rows fill the window; from then on the index answers.
    for _ in 0..9 {
        arrive_and_sum(&mut ee, 1).unwrap();
    }
    let before = reads(&ee);
    assert_eq!(arrive_and_sum(&mut ee, 2).unwrap(), Some(Value::Int(9)));
    assert_eq!(reads(&ee), before + 1);
    // MIN then MAX: Σ|v| is past the guard, every running sum fits.
    assert_eq!(arrive_and_sum(&mut ee, i64::MIN).unwrap(), Some(Value::Int(i64::MIN + 8)));
    assert_eq!(arrive_and_sum(&mut ee, i64::MAX).unwrap(), Some(Value::Int(6)));
    assert_eq!(reads(&ee), before + 1, "the scan answered both");
    // A second MAX overflows at some row of the scan: it says so.
    assert!(arrive_and_sum(&mut ee, i64::MAX).is_err());
    assert_eq!(reads(&ee), before + 1);
    // Once the big rows have slid out the index answers again.
    for _ in 0..7 {
        let _ = arrive_and_sum(&mut ee, 3);
    }
    assert_eq!(arrive_and_sum(&mut ee, 3).unwrap(), Some(Value::Int(24)));
    assert!(reads(&ee) > before + 1);
    ee.catalog().table("tw").unwrap().verify().unwrap();
}

#[test]
fn statements_read_off_a_group_index_equal_the_same_plan_scanning() {
    every_history();
    // The cases are the same every run: they did take the index path,
    // and did fall back from it (small windows, write-heavy stretches).
    let answered = ANSWERED.load(Ordering::Relaxed);
    assert!(answered > 2_000, "{answered} statements answered from a group index");
    let walked = WALKED.load(Ordering::Relaxed);
    assert!(walked > 10_000, "{walked} groups visited by count walks");
}
