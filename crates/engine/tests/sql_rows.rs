//! `sql_rows` is N `sql` calls in one crossing: for each target kind —
//! a base table, a stream whose EE trigger aggregates, a tuple window
//! whose slides fire a trigger, a time window fed out-of-order, late and
//! too-late rows — one EE runs the rows as N `exec` calls and a twin runs
//! them as one `exec_rows` call (what `ProcCtx::sql` and
//! `ProcCtx::sql_rows` cross the boundary with). Both must answer alike,
//! hold the same rows under the same ids in scan order, and write
//! byte-equal checkpoint images (catalog frame, stream and window
//! sections — staging included). A batch whose k-th row fails schema
//! validation keeps the rows before it, fails with the same error, and
//! aborts to the state before `begin`. Last, the engine facade: a
//! procedure's `sql_rows` writes what its per-row twin writes through
//! either boundary, in one crossing, and a SELECT is refused.

use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use sstore_common::codec::Decoder;
use sstore_common::{BatchId, DataType, Error, Result, RowId, Schema, Tuple, Value};
use sstore_engine::ee::{ExecutionEngine, ProcStmtMap};
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::names::AppIds;
use sstore_engine::{App, BoundaryMode, Engine, EngineConfig};

fn ts_v() -> Schema {
    Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)])
}

fn app() -> App {
    let v = || Schema::of(&[("v", DataType::Int)]);
    App::builder()
        .stream_timed("events", ts_v(), "ts")
        .stream("s", v())
        .table("base", Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]))
        .table("s_counts", v())
        .table("tw_counts", v())
        .table("ew_sums", Schema::new(vec![sstore_common::Column::nullable("v", DataType::Int)]).unwrap())
        .window("tw", "feed", ts_v(), 4, 2)
        .time_window("ew", "feed", ts_v(), "ts", 30, 10, 25)
        .proc(
            "feed",
            &[
                ("base_ins", "INSERT INTO base (k, v) VALUES (?, ?)"),
                ("base_twice", "INSERT INTO base (k, v) VALUES (?, ?), (?, 0)"),
                ("s_ins", "INSERT INTO s (v) VALUES (?)"),
                ("tw_ins", "INSERT INTO tw (ts, v) VALUES (?, ?)"),
                ("ew_ins", "INSERT INTO ew (ts, v) VALUES (?, ?)"),
                ("ew_twice", "INSERT INTO ew (ts, v) VALUES (?, 1), (?, ?)"),
                ("get", "SELECT v FROM base WHERE k = ?"),
                ("copy", "INSERT INTO base (k, v) SELECT v, v FROM s_counts"),
            ],
            &[],
            |_| Ok(()),
        )
        .pe_trigger("events", "feed")
        .ee_trigger("s", &["INSERT INTO s_counts (v) SELECT COUNT(*) FROM s"])
        .ee_trigger("tw", &["INSERT INTO tw_counts (v) SELECT COUNT(*) FROM tw"])
        .ee_trigger("ew", &["INSERT INTO ew_sums (v) SELECT SUM(v) FROM ew"])
        .build()
        .unwrap()
}

struct Ee {
    ee: ExecutionEngine,
    map: ProcStmtMap,
    batch: u64,
}

impl Ee {
    fn new() -> Self {
        let app = app();
        let ids = Arc::new(AppIds::build(&app).unwrap());
        let (ee, map) = ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).unwrap();
        Ee { ee, map, batch: 0 }
    }

    fn begin(&mut self) {
        self.batch += 1;
        self.ee.begin(Some(BatchId(self.batch))).unwrap();
    }

    /// Runs `stmt` over `rows` as N calls, stopping at the first error.
    fn each(&mut self, stmt: &str, rows: &[Vec<Value>]) -> Result<usize> {
        let id = self.map["feed"][stmt];
        rows.iter().try_fold(0, |n, r| Ok(n + self.ee.exec(id, r)?.rows_affected))
    }

    fn batch(&mut self, stmt: &str, rows: &[Vec<Value>]) -> Result<usize> {
        self.ee.exec_rows(self.map["feed"][stmt], rows)
    }

    /// Advances the watermark to `ts` and runs every slide it unlocks.
    fn advance(&mut self, ts: i64) {
        self.begin();
        let events = self.ee.table_id("events").unwrap();
        self.ee.observe_input(events, &[Tuple::new(vec![Value::Int(ts), Value::Int(0)])]).unwrap();
        for w in self.ee.commit().unwrap().slides {
            self.begin();
            self.ee.process_slides(w).unwrap();
            self.ee.commit().unwrap();
        }
    }

    fn state(&mut self) -> State {
        let rows = self
            .ee
            .catalog()
            .iter()
            .map(|t| (t.name().to_string(), t.scan_ordered().map(|(id, r)| (id, r.clone())).collect()))
            .collect();
        for t in self.ee.catalog().iter() {
            self.ee.verify_window(self.ee.table_id(t.name()).unwrap()).unwrap();
        }
        let image = (!self.ee.in_txn()).then(|| self.ee.checkpoint().unwrap());
        State { rows, image }
    }
}

/// Every table's rows with their ids, and a base checkpoint image
/// (outside a transaction: one cannot be taken inside).
#[derive(Debug, PartialEq)]
struct State {
    rows: Vec<(String, Vec<(RowId, Tuple)>)>,
    image: Option<Vec<u8>>,
}

/// A base image's stream and window sections: what follows its
/// catalog frame.
fn sections(s: &State) -> &[u8] {
    let image = s.image.as_deref().expect("taken outside a transaction");
    let mut d = Decoder::new(image);
    d.get_bytes().unwrap();
    &image[image.len() - d.remaining()..]
}

fn row(ts: i64, v: i64) -> Vec<Value> {
    vec![Value::Int(ts), Value::Int(v)]
}

/// Runs `prelude` on two fresh EEs, then `stmt` over `rows` — N calls on
/// one, one batch on the other — in one transaction each, and then
/// `after`; the two must agree on the answer and on the state after
/// each step. Returns the batch's answer.
fn twins(
    prelude: impl Fn(&mut Ee),
    stmt: &str,
    rows: &[Vec<Value>],
    after: impl Fn(&mut Ee),
) -> Result<usize> {
    let (mut each, mut batch) = (Ee::new(), Ee::new());
    prelude(&mut each);
    prelude(&mut batch);
    each.begin();
    batch.begin();
    let (a, b) = (each.each(stmt, rows), batch.batch(stmt, rows));
    assert_eq!(a, b, "{stmt}: answers");
    assert_eq!(each.state(), batch.state(), "{stmt}: state before commit");
    each.ee.commit().unwrap();
    batch.ee.commit().unwrap();
    assert_eq!(each.state(), batch.state(), "{stmt}: state after commit");
    after(&mut each);
    after(&mut batch);
    assert_eq!(each.state(), batch.state(), "{stmt}: state after the batch's slides");
    b
}

fn table(ee: &Ee, name: &str) -> Vec<Tuple> {
    ee.ee.catalog().table(name).unwrap().scan_ordered().map(|(_, r)| r.clone()).collect()
}

#[test]
fn a_base_table_batch_equals_its_calls() {
    let rows: Vec<_> = (0..7).map(|k| row(k, k * k)).collect();
    assert_eq!(twins(|_| {}, "base_ins", &rows, |_| {}), Ok(7));
    // Two rows to a parameter row.
    let rows: Vec<_> = (0..7).map(|k| vec![Value::Int(k), Value::Int(k), Value::Int(10 + k)]).collect();
    assert_eq!(twins(|_| {}, "base_twice", &rows, |_| {}), Ok(14));
}

#[test]
fn a_stream_trigger_fires_once_per_row() {
    let rows: Vec<_> = (0..5).map(|v| vec![Value::Int(v)]).collect();
    assert_eq!(twins(|_| {}, "s_ins", &rows, |_| {}), Ok(5));
    let mut ee = Ee::new();
    ee.begin();
    ee.batch("s_ins", &rows).unwrap();
    ee.ee.commit().unwrap();
    // One COUNT(*) per row, each over the one row its statement wrote.
    assert_eq!(table(&ee, "s_counts"), vec![Tuple::new(vec![Value::Int(1)]); 5]);
    assert!(table(&ee, "s").is_empty(), "the cascade collects its rows");
}

#[test]
fn a_tuple_window_slides_as_its_calls_do() {
    let rows: Vec<_> = (0..11).map(|k| row(k, k % 3)).collect();
    assert_eq!(twins(|_| {}, "tw_ins", &rows, |_| {}), Ok(11));
    // And on top of a window already part full.
    let prelude = |ee: &mut Ee| {
        ee.begin();
        ee.batch("tw_ins", &[row(0, 1), row(1, 1), row(2, 1)]).unwrap();
        ee.ee.commit().unwrap();
    };
    assert_eq!(twins(prelude, "tw_ins", &rows, |_| {}), Ok(11));
}

#[test]
fn a_time_window_stages_merges_and_drops_as_its_calls_do() {
    // Extents of 30 slid by 10, lateness 25: fire through a watermark of
    // 100 (the active extent is [70, 100), the next to fire [80, 110)),
    // then feed rows ahead of it out of order, rows late but within the
    // lateness (77, 78: merged into the active extent) and rows beyond
    // it (60, 72: dropped).
    let prelude = |ee: &mut Ee| {
        ee.begin();
        let early: Vec<_> = (0..20).map(|k| row(k * 5, k)).collect();
        ee.batch("ew_ins", &early).unwrap();
        ee.ee.commit().unwrap();
        ee.advance(100);
    };
    let rows: Vec<_> = [130, 104, 95, 77, 150, 60, 111, 89, 72, 78].iter().map(|&ts| row(ts, ts % 7)).collect();
    let after = |ee: &mut Ee| ee.advance(200);
    assert_eq!(twins(prelude, "ew_ins", &rows, after), Ok(10));
    let mut ee = Ee::new();
    prelude(&mut ee);
    let late = |ee: &Ee| ee.ee.catalog().table("ew").unwrap().len();
    let active = late(&ee);
    ee.begin();
    ee.batch("ew_ins", &rows).unwrap();
    assert_eq!(late(&ee), active + 2, "77 and 78 merge late");
}

#[test]
fn a_row_that_fails_validation_stops_the_batch_after_the_rows_before_it() {
    let bad = |rows: &mut Vec<Vec<Value>>, at: usize| rows[at][1] = Value::Text("x".into());
    // In `ew_twice` the bad value is its parameter row's second row's:
    // the first must not be staged either.
    let cases = [("base_ins", 3), ("base_twice", 2), ("tw_ins", 5), ("ew_ins", 3), ("ew_twice", 4), ("base_ins", 0)];
    for (stmt, at) in cases {
        let width = if stmt.ends_with("twice") { 3 } else { 2 };
        let mut rows: Vec<_> = (0..7).map(|k| vec![Value::Int(k); width]).collect();
        bad(&mut rows, at);
        let (mut each, mut batch, mut prefix, mut aborted) = (Ee::new(), Ee::new(), Ee::new(), Ee::new());
        let before = aborted.state();
        for ee in [&mut each, &mut batch, &mut prefix, &mut aborted] {
            ee.begin();
        }
        let err = batch.batch(stmt, &rows).unwrap_err();
        assert!(matches!(err, Error::SchemaViolation(_)), "{stmt}: {err}");
        assert_eq!(each.each(stmt, &rows), Err(err.clone()), "{stmt}: error");
        assert_eq!(aborted.batch(stmt, &rows), Err(err), "{stmt}: error");
        prefix.batch(stmt, &rows[..at]).unwrap();
        // Committed, each holds what the rows before the bad one wrote.
        for ee in [&mut each, &mut batch, &mut prefix] {
            ee.ee.commit().unwrap();
        }
        let want = prefix.state();
        assert_eq!(each.state(), want, "{stmt}: calls: rows before the bad one");
        assert_eq!(batch.state(), want, "{stmt}: batch: rows before the bad one");
        // Aborted, nothing is left but row-id counters, which never rewind.
        aborted.ee.abort().unwrap();
        let after = aborted.state();
        assert_eq!(after.rows, before.rows, "{stmt}: rows after abort");
        assert_eq!(sections(&after), sections(&before), "{stmt}: streams and windows after abort");
    }
}

#[test]
fn only_insert_values_runs_over_rows() {
    let mut ee = Ee::new();
    ee.begin();
    for (stmt, named) in [("get", "get in feed"), ("copy", "copy in feed")] {
        let err = ee.batch(stmt, &[vec![Value::Int(1)]]).unwrap_err();
        assert!(matches!(&err, Error::Plan(m) if m.contains(named)), "{err}");
    }
    assert_eq!(ee.batch("base_ins", &Vec::<Vec<Value>>::new()), Ok(0));
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

#[test]
fn a_procedure_batches_in_one_crossing_through_either_boundary() {
    let kv = || Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let rows = |ctx: &sstore_engine::ProcCtx<'_>| -> Result<Vec<[Value; 2]>> {
        let n = ctx.params()[0].as_int()?;
        Ok((0..n).map(|k| [Value::Int(k), Value::Int(k * 10)]).collect())
    };
    for boundary in [BoundaryMode::Inline, BoundaryMode::Channel] {
        let app = App::builder()
            .table("a", kv())
            .table("b", kv())
            .proc("each", &[("ins", "INSERT INTO a (k, v) VALUES (?, ?)")], &[], move |ctx| {
                for r in rows(ctx)? {
                    ctx.sql("ins", &r)?;
                }
                Ok(())
            })
            .proc("batch", &[("ins", "INSERT INTO b (k, v) VALUES (?, ?)")], &[], move |ctx| {
                ctx.sql_rows("ins", &rows(ctx)?).map(drop)
            })
            .proc("select", &[("get", "SELECT v FROM a WHERE k = ?")], &[], |ctx| {
                ctx.sql_rows("get", &[[Value::Int(1)]]).map(drop)
            })
            .build()
            .unwrap();
        let dir = std::env::temp_dir().join(format!(
            "sstore-sql-rows-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Relaxed)
        ));
        let engine =
            Engine::start(EngineConfig::default().with_boundary(boundary).with_data_dir(&dir), app).unwrap();
        let trips = || EngineMetrics::get(&engine.metrics().ee_round_trips);
        let t0 = trips();
        engine.call("each", vec![Value::Int(6)]).unwrap();
        let t1 = trips();
        engine.call("batch", vec![Value::Int(6)]).unwrap();
        assert_eq!(t1 - t0, trips() - t1 + 5, "{boundary:?}: six crossings against one");
        let all = |t: &str| engine.query(0, &format!("SELECT k, v FROM {t}"), vec![]).unwrap().rows;
        assert_eq!(all("a"), all("b"), "{boundary:?}");
        assert_eq!(all("b").len(), 6);
        let err = engine.call("select", vec![]).unwrap_err();
        assert!(err.to_string().contains("get in select"), "{boundary:?}: {err}");
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
