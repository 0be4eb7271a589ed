//! Property tests for window state machines: random interleavings of
//! stage / slide / undo (transaction aborts) are driven against naive
//! reference models for BOTH window variants. The time-based runs
//! include out-of-order arrivals, watermark jumps, late merges, and
//! beyond-lateness drops. The references replay pane-by-pane with
//! plain vector scans — no sharing of the production code's shortcuts
//! (extent fast-forwarding, BTreeMap keying, operation-level undo).
//!
//! The backing table is emulated as the EE uses it: an id-ordered map
//! that issues ascending ids, whose length is the tuple window's active
//! count and whose first ids are its oldest rows; every row that enters
//! or leaves a time window's table is reported to the window, and an
//! abort undoes the table's effects newest-first before the window's
//! own records. After every transaction the window ↔ table invariant
//! (`check`) must hold.

use std::collections::BTreeMap;


use proptest::prelude::*;
use sstore_common::{tuple, RowId, Tuple};
use sstore_engine::window::{TimeArrival, TimeWindowSpec, TimeWindowState, WindowSpec, WindowState};

// ----------------------------------------------------------------------
// Tuple-based windows
// ----------------------------------------------------------------------

/// Naive reference: payload vectors, whole-window recompute per step.
#[derive(Debug, Clone)]
struct RefTuple {
    size: usize,
    slide: usize,
    staged: Vec<i64>,
    active: Vec<i64>,
}

impl RefTuple {
    fn commit(&mut self, vals: &[i64]) {
        self.staged.extend_from_slice(vals);
        loop {
            let needed = if self.active.is_empty() { self.size } else { self.slide };
            if self.staged.len() < needed {
                break;
            }
            let moved: Vec<i64> = self.staged.drain(..needed).collect();
            self.active.extend(moved);
            let over = self.active.len().saturating_sub(self.size);
            self.active.drain(..over);
        }
    }
}

/// One mutation of the emulated table, recorded for undo as the EE's
/// effect list records them.
enum Effect<V> {
    Inserted(u64),
    Deleted(u64, V),
}

/// The emulated backing table: id-ordered rows, ids issued ascending
/// and never reissued, every mutation an [`Effect`].
struct Table<V> {
    rows: BTreeMap<u64, V>,
    next_id: u64,
}

impl<V: Clone> Table<V> {
    fn new() -> Self {
        Table { rows: BTreeMap::new(), next_id: 0 }
    }

    fn insert(&mut self, v: V, effects: &mut Vec<Effect<V>>) -> RowId {
        let id = self.next_id;
        self.next_id += 1;
        self.rows.insert(id, v);
        effects.push(Effect::Inserted(id));
        RowId(id)
    }

    fn delete(&mut self, id: RowId, effects: &mut Vec<Effect<V>>) -> V {
        let v = self.rows.remove(&id.raw()).expect("expired row in table");
        effects.push(Effect::Deleted(id.raw(), v.clone()));
        v
    }
}

/// One applied window operation of a "transaction", recorded for undo —
/// the same discipline the EE's window_undo stack uses.
enum TupleOp {
    Staged(usize),
    Slid { restaged: Vec<Tuple> },
}

/// Runs one transaction (stage + all unlocked slides) against the real
/// state machine plus the emulated backing table; undoes everything —
/// table effects, then window records, each newest-first — when `abort`.
fn run_tuple_txn(w: &mut WindowState, table: &mut Table<i64>, vals: &[i64], abort: bool) {
    let mut ops: Vec<TupleOp> = Vec::new();
    let mut effects = Vec::new();
    ops.push(TupleOp::Staged(vals.len()));
    w.stage(vals.iter().map(|v| tuple![*v]));
    while let Some(o) = w.next_slide(table.rows.len()) {
        ops.push(TupleOp::Slid { restaged: o.activated.clone() });
        let oldest: Vec<u64> = table.rows.keys().take(o.expire).copied().collect();
        for id in oldest {
            table.delete(RowId(id), &mut effects);
        }
        for t in &o.activated {
            table.insert(t.get(0).as_int().unwrap(), &mut effects);
        }
    }
    if abort {
        for e in effects.into_iter().rev() {
            match e {
                Effect::Inserted(id) => assert!(table.rows.remove(&id).is_some()),
                Effect::Deleted(id, v) => assert!(table.rows.insert(id, v).is_none()),
            }
        }
        for op in ops.into_iter().rev() {
            match op {
                TupleOp::Staged(n) => w.undo_stage(n),
                TupleOp::Slid { restaged } => w.undo_slide(restaged),
            }
        }
    }
}

// ----------------------------------------------------------------------
// Time-based windows
// ----------------------------------------------------------------------

/// Naive reference: classification + pane-by-pane firing with vector
/// scans, one slide step at a time.
#[derive(Debug, Clone)]
struct RefTime {
    size: i64,
    slide: i64,
    lateness: i64,
    staged: Vec<(i64, i64)>, // (ts, payload), arrival order
    active: Vec<(i64, i64)>,
    wm: Option<i64>,
    next_end: Option<i64>,
    fired: bool,
}

impl RefTime {
    fn first_end_for(&self, ts: i64) -> i64 {
        let k = (ts - self.size).div_euclid(self.slide) + 1;
        k * self.slide + self.size
    }

    fn admit_all(&mut self, rows: &[(i64, i64)]) {
        for (ts, v) in rows {
            self.admit(*ts, *v);
        }
    }

    fn admit(&mut self, ts: i64, v: i64) {
        let stage = match self.next_end {
            None => true,
            Some(e) => !self.fired || ts >= e - self.size,
        };
        if stage {
            if !self.fired {
                let e = self.first_end_for(ts);
                self.next_end = Some(self.next_end.map_or(e, |cur| cur.min(e)));
            }
            self.staged.push((ts, v));
            return;
        }
        let e = self.next_end.expect("fired implies an extent cursor");
        let active_start = e - self.slide - self.size;
        let wm = self.wm.unwrap_or(i64::MIN);
        if ts >= active_start && wm - ts <= self.lateness {
            self.active.push((ts, v));
        }
    }

    fn advance(&mut self, wm: i64) {
        self.wm = Some(self.wm.map_or(wm, |w| w.max(wm)));
        let wm = self.wm.expect("just set");
        loop {
            let Some(e) = self.next_end else { return };
            if wm < e {
                return;
            }
            self.fired = true;
            let s = e - self.size;
            // Activate every staged tuple below the extent end (stable
            // by (ts, arrival)), expire active tuples below its start.
            let mut activated: Vec<(i64, i64)> = Vec::new();
            let mut keep = Vec::new();
            for (ts, v) in self.staged.drain(..) {
                if ts < e {
                    activated.push((ts, v));
                } else {
                    keep.push((ts, v));
                }
            }
            self.staged = keep;
            activated.sort_by_key(|(ts, _)| *ts); // arrival order ties preserved (stable)
            self.active.retain(|(ts, _)| *ts >= s);
            self.active.extend(activated);
            self.active.sort_by_key(|(ts, _)| *ts); // stable: equal-ts keep arrival order
            self.next_end = Some(e + self.slide);
        }
    }
}

enum TimeOp {
    Staged { ts: i64, prev_next_end: Option<i64> },
    Slid { restaged: Vec<(i64, Tuple)>, prev_next_end: i64, prev_fired: bool },
}

/// A time window's emulated table: id → (event-ts, payload).
type TimeTable = Table<(i64, i64)>;

fn insert_time(w: &mut TimeWindowState, table: &mut TimeTable, row: (i64, i64), effects: &mut Vec<Effect<(i64, i64)>>) {
    let id = table.insert(row, effects);
    w.row_inserted(row.0, id);
}

/// Admits one batch of (ts, payload) rows into the real state machine
/// (with an emulated table); undoes in reverse when `abort`.
fn admit_time(w: &mut TimeWindowState, table: &mut TimeTable, rows: &[(i64, i64)], abort: bool) {
    let mut ops: Vec<TimeOp> = Vec::new();
    let mut effects = Vec::new();
    for (ts, v) in rows {
        match w.classify(*ts) {
            TimeArrival::Staged => {
                ops.push(TimeOp::Staged { ts: *ts, prev_next_end: w.next_end() });
                w.stage(*ts, tuple![*ts, *v]);
            }
            TimeArrival::MergeIntoActive => insert_time(w, table, (*ts, *v), &mut effects),
            TimeArrival::DroppedLate => {}
        }
    }
    if abort {
        undo_time(w, table, effects, ops);
    }
}

/// Applies all pending slides (the slide transaction); undoes them in
/// reverse when `abort`.
fn slide_time(w: &mut TimeWindowState, table: &mut TimeTable, abort: bool) {
    let mut ops: Vec<TimeOp> = Vec::new();
    let mut effects = Vec::new();
    while let Some(o) = w.next_slide() {
        ops.push(TimeOp::Slid {
            restaged: o.activated.clone(),
            prev_next_end: o.prev_next_end,
            prev_fired: o.prev_fired,
        });
        for (ts, id) in o.expired {
            let (row_ts, _) = table.delete(id, &mut effects);
            assert_eq!(row_ts, ts, "the set files a row under its own timestamp");
            w.row_deleted(ts, id);
        }
        for (ts, t) in o.activated {
            insert_time(w, table, (ts, t.get(1).as_int().unwrap()), &mut effects);
        }
    }
    if abort {
        undo_time(w, table, effects, ops);
    }
}

fn undo_time(w: &mut TimeWindowState, table: &mut TimeTable, effects: Vec<Effect<(i64, i64)>>, ops: Vec<TimeOp>) {
    for e in effects.into_iter().rev() {
        match e {
            Effect::Inserted(id) => {
                let (ts, _) = table.rows.remove(&id).expect("row to undo");
                w.row_deleted(ts, RowId(id));
            }
            Effect::Deleted(id, row) => {
                assert!(table.rows.insert(id, row).is_none());
                w.row_inserted(row.0, RowId(id));
            }
        }
    }
    for op in ops.into_iter().rev() {
        match op {
            TimeOp::Staged { ts, prev_next_end } => w.undo_stage(ts, prev_next_end),
            TimeOp::Slid { restaged, prev_next_end, prev_fired } => {
                w.undo_slide(restaged, prev_next_end, prev_fired)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tuple windows: arbitrary stage/slide/abort interleavings leave
    /// the real state machine agreeing with the naive reference on
    /// staging depth and its table on the active payloads (in order) —
    /// aborted transactions leave no trace at all.
    #[test]
    fn tuple_window_matches_reference_under_aborts(
        size in 1usize..8,
        slide_raw in 1usize..8,
        txns in proptest::collection::vec(
            (proptest::collection::vec(0i64..100, 0..7), any::<bool>()),
            1..25,
        ),
    ) {
        let slide = 1 + slide_raw % size;
        let spec = WindowSpec { name: "w".into(), owner: "p".into(), size, slide };
        let mut w = WindowState::new(spec).unwrap();
        let mut reference = RefTuple { size, slide, staged: Vec::new(), active: Vec::new() };
        let mut table = Table::new();
        for (vals, abort) in &txns {
            run_tuple_txn(&mut w, &mut table, vals, *abort);
            if !*abort {
                reference.commit(vals);
            }
            prop_assert_eq!(w.staged_len(), reference.staged.len());
            let got: Vec<i64> = table.rows.values().copied().collect();
            prop_assert_eq!(&got, &reference.active, "active payloads diverged");
            prop_assert!(w.check(table.rows.len()).is_ok());
        }
    }

    /// Time windows: out-of-order arrivals, watermark jumps, late
    /// merges, beyond-lateness drops, and aborts of both arrival and
    /// slide transactions — the real state machine tracks the naive
    /// pane-by-pane reference exactly, including the extent cursor and
    /// which late tuples land.
    #[test]
    fn time_window_matches_reference_under_disorder_and_aborts(
        size_raw in 1i64..6,
        slide_raw in 1i64..6,
        lateness in 0i64..40,
        txns in proptest::collection::vec(
            (
                proptest::collection::vec((0i64..300, 0i64..1000), 0..6),
                0i64..40,   // watermark increment after the batch
                any::<bool>(), // abort the arrival txn?
                any::<bool>(), // first slide attempt aborts?
            ),
            1..20,
        ),
    ) {
        let size = size_raw * 10;
        let slide = (1 + slide_raw % size_raw) * 10;
        let spec = TimeWindowSpec {
            name: "tw".into(),
            owner: "p".into(),
            ts_column: "ts".into(),
            size_ms: size,
            slide_ms: slide,
            allowed_lateness_ms: lateness,
        };
        let mut w = TimeWindowState::new(spec).unwrap();
        let mut reference = RefTime {
            size,
            slide,
            lateness,
            staged: Vec::new(),
            active: Vec::new(),
            wm: None,
            next_end: None,
            fired: false,
        };
        let mut table = TimeTable::new();
        let mut wm = 0i64;
        for (rows, wm_step, abort_arrival, abort_slide) in &txns {
            admit_time(&mut w, &mut table, rows, *abort_arrival);
            if *abort_arrival {
                // The aborted batch never commits: the watermark does
                // not advance and the reference never sees it.
                continue;
            }
            reference.admit_all(rows);
            wm += *wm_step;
            let pending = w.advance_watermark(wm);
            if pending && *abort_slide {
                // A slide transaction that aborts mid-flight must be
                // fully undone — then the retry below re-derives it.
                slide_time(&mut w, &mut table, true);
            }
            slide_time(&mut w, &mut table, false);
            reference.advance(wm);

            prop_assert_eq!(w.watermark(), reference.wm);
            prop_assert_eq!(w.next_end(), reference.next_end, "extent cursor diverged");
            prop_assert_eq!(w.staged_len(), reference.staged.len());
            // Active (ts, payload) multisets: a late tuple the reference
            // merged is in the table, one it dropped is not.
            let mut got: Vec<(i64, i64)> = table.rows.values().copied().collect();
            let mut want = reference.active.clone();
            got.sort();
            want.sort();
            prop_assert_eq!(&got, &want, "active rows diverged");
            // The set is the table's rows, and expires them by timestamp.
            let keyed = table.rows.iter().map(|(id, (ts, _))| (*ts, RowId(*id)));
            prop_assert!(w.check(keyed).is_ok());
            prop_assert!(w.active().is_sorted());
        }
    }
}
