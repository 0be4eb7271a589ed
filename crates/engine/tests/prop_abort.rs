//! Property test for abort: a real [`ExecutionEngine`] runs seeded
//! transactions that mix every kind of change an EE transaction makes —
//! `emit` onto a PE-triggered stream, SQL INSERT into an EE-triggered
//! stream (cascade, then GC), a SQL DELETE on a stream, `consume`,
//! `observe_input` on a timed stream, tuple-window arrivals that slide
//! and fire a trigger, time-window staging and late merges, point
//! UPDATEs and DELETEs — and slide transactions (`process_slides`).
//! Some commit; the rest are cut at a random point by a failing
//! statement (one that fails after writing a row, or inside a trigger
//! cascade) and aborted. After every abort each table's rows, in scan
//! order with their ids, must be as they were before `begin`; the
//! stream and window sections of a base `checkpoint()` image must be
//! byte-equal to the pre-`begin` image's, and its catalog frame may
//! differ only in row-id counters, which never rewind.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use proptest::prelude::*;
use sstore_common::codec::Decoder;
use sstore_common::{BatchId, DataType, RowId, Schema, TableId, Tuple, Value};
use sstore_engine::ee::{ExecutionEngine, ProcStmtMap};
use sstore_engine::metrics::EngineMetrics;
use sstore_engine::names::AppIds;
use sstore_engine::App;
use sstore_sql::QueryResult;
use sstore_storage::index::IndexDef;
use sstore_storage::{snapshot, Catalog, IndexKind};

fn ts_v() -> Schema {
    Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)])
}

fn app() -> App {
    let v = || Schema::of(&[("v", DataType::Int)]);
    let kv = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let pk = IndexDef { name: "pk".into(), key_columns: vec![0], kind: IndexKind::Hash, unique: true };
    App::builder()
        .stream_timed("events", ts_v(), "ts")
        .stream("fast", v())
        .stream("boom", v())
        .table("ledger", v())
        .table_indexed("kv", kv, vec![pk])
        .table("tw_counts", v())
        .table("ew_sums", Schema::new(vec![sstore_common::Column::nullable("v", DataType::Int)]).unwrap())
        .window("tw", "feed", ts_v(), 4, 2)
        .time_window("ew", "feed", ts_v(), "ts", 30, 10, 35)
        .proc(
            "feed",
            &[
                ("tw_ins", "INSERT INTO tw (ts, v) VALUES (?, ?)"),
                ("ew_ins", "INSERT INTO ew (ts, v) VALUES (?, ?)"),
                ("fast_ins", "INSERT INTO fast (v) VALUES (?)"),
                ("events_del", "DELETE FROM events WHERE v = ?"),
                ("put", "INSERT INTO kv (k, v) VALUES (?, ?)"),
                ("bump", "UPDATE kv SET v = v + 1 WHERE k = ?"),
                ("del", "DELETE FROM kv WHERE k = ?"),
                // The cuts: the second row repeats the first's key, so
                // the statement fails after writing a row; `boom`'s
                // trigger does the same one cascade level down.
                ("put_twice", "INSERT INTO kv (k, v) VALUES (?, 0), (?, 1)"),
                ("boom_ins", "INSERT INTO boom (v) VALUES (?), (?)"),
            ],
            &[],
            |_| Ok(()),
        )
        .pe_trigger("events", "feed")
        .ee_trigger("fast", &["INSERT INTO ledger (v) SELECT v FROM fast"])
        .ee_trigger("boom", &["INSERT INTO kv (k, v) SELECT v, v FROM boom"])
        .ee_trigger("tw", &["INSERT INTO tw_counts (v) SELECT COUNT(*) FROM tw"])
        .ee_trigger("ew", &["INSERT INTO ew_sums (v) SELECT SUM(v) FROM ew"])
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    /// `emit` rows `(dt, v)` onto `events`.
    Emit(Vec<(u8, u8)>),
    /// SQL INSERT into `fast`: its trigger writes `ledger`, then GC.
    Fast(u8),
    /// SQL DELETE of `events` rows by value.
    ForgetEvents(u8),
    /// `consume` the oldest pending `events` batch.
    Consume,
    /// `observe_input` of one `events` row.
    Observe(u8),
    /// One tuple-window arrival.
    TupleArrive(u8, u8),
    /// One time-window arrival (staged, merged late or dropped).
    TimeArrive(u8, u8),
    /// INSERT of a fresh key.
    Put,
    /// Point UPDATE / DELETE of a key.
    Bump(u8),
    Del(u8),
}

#[derive(Debug, Clone, Copy)]
enum Cut {
    /// A statement that fails after writing a row.
    Statement,
    /// A statement whose trigger cascade fails after writing a row.
    Cascade,
}

#[derive(Debug, Clone)]
struct Txn {
    ops: Vec<Op>,
    advance: u8,
    /// Cut the transaction after this many ops and abort it.
    cut: Option<(usize, Cut)>,
    /// Cut each slide transaction this commit schedules.
    cut_slides: Option<Cut>,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec((any::<u8>(), any::<u8>()), 1..4).prop_map(Op::Emit),
        any::<u8>().prop_map(Op::Fast),
        any::<u8>().prop_map(Op::ForgetEvents),
        Just(Op::Consume),
        Just(Op::Consume),
        any::<u8>().prop_map(Op::Observe),
        (any::<u8>(), any::<u8>()).prop_map(|(dt, v)| Op::TupleArrive(dt, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(dt, v)| Op::TimeArrive(dt, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(dt, v)| Op::TimeArrive(dt, v)),
        Just(Op::Put),
        any::<u8>().prop_map(Op::Bump),
        any::<u8>().prop_map(Op::Del),
    ]
}

fn cut() -> impl Strategy<Value = Option<Cut>> {
    (0u8..4).prop_map(|c| match c {
        0 => Some(Cut::Statement),
        1 => Some(Cut::Cascade),
        _ => None,
    })
}

fn txn() -> impl Strategy<Value = Txn> {
    (proptest::collection::vec(op(), 1..8), 0u8..9, any::<u8>(), cut(), cut()).prop_map(
        |(ops, advance, at, cut, cut_slides)| {
            let at = usize::from(at) % (ops.len() + 1);
            Txn { cut: cut.map(|c| (at, c)), ops, advance, cut_slides }
        },
    )
}

/// The engine under test and what the driver remembers between steps.
struct Driver {
    ee: ExecutionEngine,
    map: ProcStmtMap,
    metrics: Arc<EngineMetrics>,
    events: TableId,
    clock: i64,
    batch: u64,
    next_key: i64,
    aborts: u64,
    slide_aborts: u64,
}

impl Driver {
    fn new() -> Self {
        let app = app();
        let metrics = Arc::new(EngineMetrics::new());
        let ids = Arc::new(AppIds::build(&app).unwrap());
        let (ee, map) = ExecutionEngine::install(&app, ids, metrics.clone()).unwrap();
        let events = ee.table_id("events").unwrap();
        Driver { ee, map, metrics, events, clock: 0, batch: 0, next_key: 1, aborts: 0, slide_aborts: 0 }
    }

    fn exec(&mut self, name: &str, params: &[Value]) -> sstore_common::Result<QueryResult> {
        let id = self.map["feed"][name];
        self.ee.exec(id, params)
    }

    /// A `(ts, v)` row near the clock: some ahead of it, some late.
    fn row(&self, dt: u8, v: u8) -> Tuple {
        let ts = (self.clock + i64::from(dt % 56) - 44).max(0);
        Tuple::new(vec![Value::Int(ts), Value::Int(i64::from(v % 16))])
    }

    fn key(&self, k: u8) -> Value {
        Value::Int(1 + i64::from(k) % self.next_key)
    }

    fn fresh_key(&mut self) -> Value {
        self.next_key += 1;
        Value::Int(self.next_key - 1)
    }

    fn run(&mut self, op: &Op) {
        let int = |v: u8| Value::Int(i64::from(v));
        let (name, params) = match op {
            Op::Emit(rows) => {
                let rows = rows.iter().map(|&(dt, v)| self.row(dt, v)).collect();
                return self.ee.emit(self.events, rows).unwrap();
            }
            Op::Consume => {
                if let Some(&b) = self.ee.stream_pending("events").unwrap().first() {
                    self.ee.consume(self.events, b, true).unwrap();
                }
                return;
            }
            Op::Observe(dt) => {
                let row = self.row(*dt, 0);
                return self.ee.observe_input(self.events, &[row]).unwrap();
            }
            Op::Fast(v) => ("fast_ins", vec![int(*v)]),
            Op::ForgetEvents(v) => ("events_del", vec![int(v % 16)]),
            Op::TupleArrive(dt, v) => ("tw_ins", self.row(*dt, *v).values().to_vec()),
            Op::TimeArrive(dt, v) => ("ew_ins", self.row(*dt, *v).values().to_vec()),
            Op::Put => ("put", vec![self.fresh_key(), Value::Int(0)]),
            Op::Bump(k) => ("bump", vec![self.key(*k)]),
            Op::Del(k) => ("del", vec![self.key(*k)]),
        };
        self.exec(name, &params).unwrap();
    }

    /// Runs the failing statement of `cut`, which must fail, then
    /// aborts and checks the engine against `before`.
    fn cut_and_abort(&mut self, cut: Cut, before: &State) -> Result<(), TestCaseError> {
        let k = self.fresh_key();
        let name = match cut {
            Cut::Statement => "put_twice",
            Cut::Cascade => "boom_ins",
        };
        let failed = self.exec(name, &[k.clone(), k]);
        prop_assert!(failed.is_err(), "the cut did not fail: {:?}", failed);
        self.ee.abort().unwrap();
        self.aborts += 1;
        let after = State::of(&mut self.ee);
        before.same_as(&after)
    }

    fn step(&mut self, t: &Txn) -> Result<(), TestCaseError> {
        self.batch += 1;
        self.clock += i64::from(t.advance);
        let before = State::of(&mut self.ee);
        self.ee.begin(Some(BatchId(self.batch))).unwrap();
        // The batch's own timestamp drives the watermark with the clock.
        let now = Tuple::new(vec![Value::Int(self.clock), Value::Int(0)]);
        self.ee.observe_input(self.events, &[now]).unwrap();
        for (i, op) in t.ops.iter().enumerate() {
            if let Some((at, cut)) = t.cut {
                if i == at {
                    return self.cut_and_abort(cut, &before);
                }
            }
            self.run(op);
        }
        if let Some((_, cut)) = t.cut {
            return self.cut_and_abort(cut, &before);
        }
        for w in self.ee.commit().unwrap().slides {
            let before = State::of(&mut self.ee);
            self.ee.begin(Some(BatchId(self.batch))).unwrap();
            self.ee.process_slides(w).unwrap();
            match t.cut_slides {
                Some(cut) => {
                    self.slide_aborts += 1;
                    self.cut_and_abort(cut, &before)?;
                }
                None => {
                    self.ee.commit().unwrap();
                }
            }
        }
        Ok(())
    }

    fn verify(&self) {
        for t in self.ee.catalog().iter() {
            t.verify().unwrap();
            self.ee.verify_window(self.ee.table_id(t.name()).unwrap()).unwrap();
        }
    }
}

/// What an abort must give back: every table's rows, and a base image.
struct State {
    rows: Vec<(String, Vec<(RowId, Tuple)>)>,
    image: Vec<u8>,
}

impl State {
    fn of(ee: &mut ExecutionEngine) -> State {
        let rows = ee
            .catalog()
            .iter()
            .map(|t| (t.name().to_string(), t.scan_ordered().map(|(id, r)| (id, r.clone())).collect()))
            .collect();
        State { rows, image: ee.checkpoint().unwrap() }
    }

    /// The image's catalog frame and the stream and window sections
    /// after it.
    fn split(&self) -> (&[u8], &[u8]) {
        let mut d = Decoder::new(&self.image);
        let catalog = d.get_bytes().unwrap();
        (catalog, &self.image[self.image.len() - d.remaining()..])
    }

    fn same_as(&self, after: &State) -> Result<(), TestCaseError> {
        prop_assert_eq!(&self.rows, &after.rows, "rows after abort");
        let ((cat, sections), (cat_after, sections_after)) = (self.split(), after.split());
        prop_assert!(sections == sections_after, "stream / window sections after abort");
        let (was, now) = (snapshot::decode_catalog(cat).unwrap(), snapshot::decode_catalog(cat_after).unwrap());
        same_but_counters(&was, &now)
    }
}

/// Two catalogs alike in every table's name, kind, schema, indexes and
/// rows, the second's row-id counters no lower than the first's.
fn same_but_counters(was: &Catalog, now: &Catalog) -> Result<(), TestCaseError> {
    prop_assert_eq!(was.len(), now.len());
    for (a, b) in was.iter().zip(now.iter()) {
        prop_assert_eq!(a.name(), b.name());
        prop_assert_eq!(a.kind(), b.kind());
        prop_assert_eq!(a.schema(), b.schema());
        prop_assert!(a.index_defs().eq(b.index_defs()), "{}: index definitions", a.name());
        prop_assert!(a.scan_ordered().eq(b.scan_ordered()), "{}: imaged rows", a.name());
        prop_assert!(a.peek_next_row_id() <= b.peek_next_row_id(), "{}: row-id counter rewound", a.name());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    fn every_abort(txns in proptest::collection::vec(txn(), 1..40)) {
        let mut d = Driver::new();
        for t in &txns {
            d.step(t)?;
            d.verify();
        }
        TOTALS.with(|c| {
            let mut c = c.borrow_mut();
            c.0 += d.aborts;
            c.1 += d.slide_aborts;
            c.2 += d.metrics.window_late_merged.load(Relaxed);
            c.3 += d.metrics.window_slides.load(Relaxed);
        });
    }
}

thread_local! {
    /// Aborts, aborted slide transactions, late merges and slides over
    /// every case of the run.
    static TOTALS: std::cell::RefCell<(u64, u64, u64, u64)> = const { std::cell::RefCell::new((0, 0, 0, 0)) };
}

#[test]
fn an_abort_leaves_every_table_stream_and_window_as_begin_found_it() {
    every_abort();
    // The cases are the same every run: they did abort slide
    // transactions and did merge late arrivals.
    let (aborts, slide_aborts, merged, slides) = TOTALS.with(|c| *c.borrow());
    assert!(aborts > 1_500, "{aborts} aborts");
    assert!(slide_aborts > 400, "{slide_aborts} aborted slide transactions");
    assert!(merged > 50, "{merged} late merges");
    assert!(slides > 1_000, "{slides} slides");
}
