//! Sliding windows with invisible staging (§3.2.2): tuple-based and
//! time-based (event-time, watermark-driven).
//!
//! A window *is* a table ([`TableKind::Window`]) holding only the
//! currently *active* tuples — what queries may see — and that table is
//! the only record of them: a window's state here is its **staging
//! queue** and, for time windows, its **extent cursor**. Newly arriving
//! tuples are **staged** inside the window state and never enter the
//! table until a slide activates them (no row id, no index touch, no
//! effect), which is how "staged tuples are not visible to any queries"
//! is enforced by construction.
//!
//! * **Tuple-based** ([`WindowState`]): every time `slide` staged
//!   tuples have accumulated *and* the window can form a full extent,
//!   the window slides — the oldest `slide` staged tuples become
//!   active rows, and active rows beyond `size` expire. Row ids are
//!   issued in activation order, so "the oldest `n` active rows" are the
//!   first `n` of the table's scan and the table's `len()` is the active
//!   count: the state machine is told the length and keeps no list.
//! * **Time-based** ([`TimeWindowState`]): tuples carry an event
//!   timestamp; the window covers pane-aligned extents
//!   `[k·slide, k·slide + size)` of the event-time axis. Staging
//!   admits out-of-order tuples (keyed by timestamp); slides fire only
//!   when the *partition watermark* — min over the event-time input
//!   streams' high marks, advanced at batch commit like a border
//!   punctuation — passes the end of the next extent. Late tuples
//!   (behind the extent the window has slid past) are merged into the
//!   active extent when within `allowed_lateness_ms`, else dropped
//!   (`EngineMetrics::window_late_{merged,dropped}` count both). Expiry
//!   is by timestamp, not arrival, so the window keeps an ordered set
//!   `(event-ts, RowId)` over its table's live rows. That set is an
//!   **index on the table**, like every other index in this tree: the
//!   EE keeps it in step wherever it inserts into, deletes from or
//!   undoes an effect on the table, no checkpoint encodes it, and
//!   restore rebuilds it from the restored rows. Within one timestamp
//!   it orders by row id, which is arrival order (ids are issued as rows
//!   are activated or merged and never reissued).
//!
//! Aggregates over a window: the state machines here only say which rows
//! enter and leave. A sliding window's grouped statements are answered
//! from group indexes on its table (`sstore_storage::group`, derived by
//! `names.rs::AppIds::build`, attached by `ee.rs::build_catalog`), and those are maintained where every other
//! index is — inside the table's insert and delete — so activation,
//! expiry, late merges and every undo keep them current without this
//! module or the EE knowing they exist.
//!
//! Window scoping (§3.2.2): a window belongs to one stored procedure;
//! registration-time checks in [`crate::app`] reject SQL from any other
//! procedure referencing it, and PE triggers cannot be attached to
//! windows (the API has no way to express it). Through SQL a window is
//! append-only, its owner included: rows leave by expiry alone, which is
//! the engine's to decide, so `UPDATE` and `DELETE` are rejected at
//! registration and at execution.
//!
//! [`TableKind::Window`]: sstore_storage::TableKind::Window

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{Error, Result, RowId, Tuple};

/// Static definition of a tuple-based sliding window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window name == backing table name.
    pub name: String,
    /// Owning stored procedure.
    pub owner: String,
    /// Window size in tuples.
    pub size: usize,
    /// Slide in tuples (`slide == size` is a tumbling window).
    pub slide: usize,
}

impl WindowSpec {
    /// Validates size/slide.
    pub fn validate(&self) -> Result<()> {
        if self.size == 0 {
            return Err(Error::StreamViolation(format!("window {}: size must be > 0", self.name)));
        }
        if self.slide == 0 || self.slide > self.size {
            return Err(Error::StreamViolation(format!(
                "window {}: slide must be in 1..=size (got slide={}, size={})",
                self.name, self.slide, self.size
            )));
        }
        Ok(())
    }

    /// True when the window tumbles (slide == size).
    pub fn is_tumbling(&self) -> bool {
        self.slide == self.size
    }
}

/// What a slide did — the EE uses this to mutate the backing table and
/// to fire on-slide EE triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct SlideOutcome {
    /// Tuples that became active, in arrival order. The EE inserts them
    /// into the window table.
    pub activated: Vec<Tuple>,
    /// Number of oldest active rows that expire — the first this many
    /// rows of the table's scan, which the EE deletes.
    pub expire: usize,
}

/// Runtime state of one tuple window: its staging queue. The active
/// rows are the backing table's rows, oldest first in row-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowState {
    /// The definition.
    pub spec: WindowSpec,
    /// Staged tuples, arrival order, not yet visible.
    staging: VecDeque<Tuple>,
}

impl WindowState {
    /// Fresh, empty window.
    pub fn new(spec: WindowSpec) -> Result<Self> {
        spec.validate()?;
        Ok(WindowState { spec, staging: VecDeque::new() })
    }

    /// Stages arriving tuples (invisible until a slide activates them).
    /// The caller then loops [`WindowState::next_slide`], applying each
    /// outcome to the backing table, until it returns `None`.
    pub fn stage(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        self.staging.extend(tuples);
    }

    /// Staged tuples the next slide consumes when the table holds
    /// `active` rows: a full extent to fill an empty window, one slide
    /// after that.
    fn needed(&self, active: usize) -> usize {
        if active == 0 { self.spec.size } else { self.spec.slide }
    }

    /// True if enough staged tuples remain to slide a window whose
    /// table holds `active` rows.
    pub fn can_slide(&self, active: usize) -> bool {
        self.staging.len() >= self.needed(active)
    }

    /// Computes the next slide of a window whose table holds `active`
    /// rows (without new arrivals); `None` when not enough is staged.
    pub fn next_slide(&mut self, active: usize) -> Option<SlideOutcome> {
        if !self.can_slide(active) {
            return None;
        }
        let activated: Vec<Tuple> = self.staging.drain(..self.needed(active)).collect();
        let expire = (active + activated.len()).saturating_sub(self.spec.size);
        Some(SlideOutcome { activated, expire })
    }

    // ------------------------------------------------------------------
    // Operation-level undo (used by EE abort; O(ops), not O(window))
    // ------------------------------------------------------------------

    /// Undoes a [`WindowState::stage`] of `n` tuples (pops them from the
    /// staging back).
    pub fn undo_stage(&mut self, n: usize) {
        let keep = self.staging.len().saturating_sub(n);
        self.staging.truncate(keep);
    }

    /// Undoes one slide: returns the tuples it consumed to the staging
    /// front in their original order. The rows it moved are the table's,
    /// restored by the transaction's effects.
    pub fn undo_slide(&mut self, restaged: Vec<Tuple>) {
        for t in restaged.into_iter().rev() {
            self.staging.push_front(t);
        }
    }

    /// Number of staged (invisible) tuples.
    pub fn staged_len(&self) -> usize {
        self.staging.len()
    }

    /// The window ↔ table invariant, given the table's `len()`: never
    /// more than `size` rows active, and no slide left pending (every
    /// arrival slides as far as its staging allows before it returns).
    pub fn check(&self, active: usize) -> Result<()> {
        let broken = |what: &str| Err(Error::Internal(format!("window {}: {what}", self.spec.name)));
        if active > self.spec.size {
            return broken(&format!("{active} active rows in a window of {}", self.spec.size));
        }
        if self.can_slide(active) {
            return broken(&format!("{} tuples staged with a slide pending", self.staging.len()));
        }
        Ok(())
    }

    /// Serializes the staging queue for checkpoints. The active tuples
    /// live in the table snapshot, and nowhere else.
    pub fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.spec.name);
        e.put_str(&self.spec.owner);
        e.put_varint(self.spec.size as u64);
        e.put_varint(self.spec.slide as u64);
        e.put_seq(&self.staging, Encoder::put_tuple);
    }

    /// Deserializes from a checkpoint. Corruption anywhere inside this
    /// window's section fails with an error *naming the window*, and
    /// the staging count is bounded by the bytes each tuple must cost
    /// at minimum — a corrupt count close to the byte length can
    /// neither over-allocate nor fail deep inside tuple decode with a
    /// misleading message.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        let name = d.get_str()?;
        let ctx = |what: &str| {
            Error::Codec(format!("window {name}: corrupt checkpoint section ({what})"))
        };
        let owner = d.get_str().map_err(|_| ctx("owner"))?;
        let size = d.get_varint().map_err(|_| ctx("size"))? as usize;
        let slide = d.get_varint().map_err(|_| ctx("slide"))? as usize;
        // Every staged tuple costs at least 1 byte (its arity varint).
        let staging = d
            .get_seq(1, "staged tuple", Decoder::get_tuple)
            .map_err(|e| ctx(&format!("staging: {e}")))?;
        let spec = WindowSpec { name, owner, size, slide };
        spec.validate()?;
        Ok(WindowState { spec, staging: staging.into() })
    }
}

// ----------------------------------------------------------------------
// Time-based windows (event time, watermark-driven slides)
// ----------------------------------------------------------------------

/// Largest event timestamp (and window size) the engine accepts:
/// `i64::MAX / 4`. With `|ts|` and `size_ms` both inside this bound,
/// every piece of pane arithmetic (`ts - size`, `k·slide + size`,
/// `end + slide`) provably stays inside `i64`, so the extent cursor
/// can neither overflow-panic (debug) nor wrap into a garbage pane
/// (release). The EE rejects out-of-range timestamps at extraction —
/// a malformed tuple aborts its transaction, never the engine.
pub const MAX_EVENT_TS: i64 = i64::MAX / 4;

/// Smallest accepted event timestamp (see [`MAX_EVENT_TS`]).
pub const MIN_EVENT_TS: i64 = -MAX_EVENT_TS;

/// True when `ts` is inside the supported event-time range.
#[inline]
pub fn event_ts_in_range(ts: i64) -> bool {
    (MIN_EVENT_TS..=MAX_EVENT_TS).contains(&ts)
}

/// Static definition of a time-based sliding window. Extents are
/// pane-aligned to the event-time epoch: window `k` covers
/// `[k·slide_ms, k·slide_ms + size_ms)`. Units are whatever the
/// application's timestamp column uses — canonically milliseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeWindowSpec {
    /// Window name == backing table name.
    pub name: String,
    /// Owning stored procedure.
    pub owner: String,
    /// Name of the event-timestamp column in the window schema (must
    /// be an integer column; resolved to an index at build).
    pub ts_column: String,
    /// Window extent in event-time units.
    pub size_ms: i64,
    /// Slide in event-time units (`slide_ms == size_ms` is tumbling).
    pub slide_ms: i64,
    /// How far behind the watermark a tuple may arrive and still be
    /// merged into the active extent. Beyond it, the tuple is counted
    /// and dropped. Note that for a sliding window a tuple older than
    /// the *next* extent is already `size - slide` behind the
    /// watermark at best, so merges need
    /// `allowed_lateness_ms > size_ms - slide_ms` to ever trigger.
    pub allowed_lateness_ms: i64,
}

impl TimeWindowSpec {
    /// Validates size/slide/lateness.
    pub fn validate(&self) -> Result<()> {
        if self.size_ms <= 0 || self.size_ms > MAX_EVENT_TS {
            return Err(Error::StreamViolation(format!(
                "time window {}: size_ms must be in 1..={MAX_EVENT_TS}",
                self.name
            )));
        }
        if self.slide_ms <= 0 || self.slide_ms > self.size_ms {
            return Err(Error::StreamViolation(format!(
                "time window {}: slide_ms must be in 1..=size_ms (got slide={}, size={})",
                self.name, self.slide_ms, self.size_ms
            )));
        }
        if self.allowed_lateness_ms < 0 {
            return Err(Error::StreamViolation(format!(
                "time window {}: allowed_lateness_ms must be >= 0",
                self.name
            )));
        }
        Ok(())
    }

    /// True when the window tumbles (slide == size).
    pub fn is_tumbling(&self) -> bool {
        self.slide_ms == self.size_ms
    }

    /// End of the earliest pane-aligned extent containing `ts`: the
    /// smallest `e = k·slide_ms + size_ms` with `e > ts`. Callers
    /// must pass a range-checked timestamp ([`event_ts_in_range`] —
    /// the EE enforces this at extraction); within the bound, none of
    /// this arithmetic can overflow.
    pub fn first_end_for(&self, ts: i64) -> i64 {
        debug_assert!(event_ts_in_range(ts), "timestamp must be range-checked upstream");
        let k = (ts - self.size_ms).div_euclid(self.slide_ms) + 1;
        k * self.slide_ms + self.size_ms
    }
}

/// What becomes of one tuple offered to a time window, decided by
/// [`TimeWindowState::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeArrival {
    /// Staged (invisible) awaiting a future extent.
    Staged,
    /// Late but within lateness and inside the active extent: the EE
    /// inserts it into the backing table.
    MergeIntoActive,
    /// Beyond lateness (or below the active extent): dropped.
    DroppedLate,
}

/// What one watermark-driven slide did. Produced by
/// [`TimeWindowState::next_slide`]; the EE applies it to the backing
/// table and fires the window's on-slide EE triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSlideOutcome {
    /// `(event-ts, tuple)` pairs activated by this slide, in event-time
    /// order (arrival order within equal timestamps). The EE inserts
    /// them into the window table.
    pub activated: Vec<(i64, Tuple)>,
    /// The active rows that expire, oldest first: every `(event-ts,
    /// row)` below the extent's start. The EE deletes them.
    pub expired: Vec<(i64, RowId)>,
    /// Event-time extent `[start, end)` of the window that fired.
    pub start: i64,
    /// See `start`.
    pub end: i64,
    /// `next_end` before the slide call — undo restores it.
    pub prev_next_end: i64,
    /// `fired` before the slide call — undo restores it, so aborting
    /// the window's *first* slide returns it to pre-first-fire
    /// classification (arrivals may still lower the origin).
    pub prev_fired: bool,
}

/// Runtime state of one time-based window: its staging and its extent
/// cursor, plus the ordered set over its table's rows (module docs).
///
/// Invariant: staging only holds tuples with `ts >= next_end - size`
/// (tuples that still belong to a future extent). Anything older is
/// routed through the merge/drop path at arrival, so slides activate
/// every staged tuple in exactly the first extent that contains it.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWindowState {
    /// The definition.
    pub spec: TimeWindowSpec,
    /// Staged tuples keyed by event timestamp (admits out-of-order
    /// arrivals); values in arrival order.
    staging: BTreeMap<i64, Vec<Tuple>>,
    /// `(event-ts, row)` of every live row of the backing table: an
    /// index on it, giving timestamp-ordered expiry in O(log n). Kept
    /// by [`TimeWindowState::row_inserted`] / [`TimeWindowState::row_deleted`],
    /// encoded nowhere, rebuilt on restore.
    active: BTreeSet<(i64, RowId)>,
    /// Partition watermark as of the last [`TimeWindowState::advance_watermark`].
    watermark: Option<i64>,
    /// End of the next extent to fire; `None` until the first tuple.
    next_end: Option<i64>,
    /// True once the watermark has crossed at least one extent boundary
    /// (after which `next_end` can no longer regress to cover earlier
    /// arrivals — they are late).
    fired: bool,
}

impl TimeWindowState {
    /// Fresh, empty window.
    pub fn new(spec: TimeWindowSpec) -> Result<Self> {
        spec.validate()?;
        Ok(TimeWindowState {
            spec,
            staging: BTreeMap::new(),
            active: BTreeSet::new(),
            watermark: None,
            next_end: None,
            fired: false,
        })
    }

    /// Decides what to do with a tuple whose event timestamp is `ts`.
    /// Pure — the caller then stages it ([`TimeWindowState::stage`]),
    /// inserts it into the table, or drops it.
    pub fn classify(&self, ts: i64) -> TimeArrival {
        let Some(e) = self.next_end else { return TimeArrival::Staged };
        if !self.fired {
            // No extent boundary crossed yet: staging still covers
            // everything (stage() lowers next_end for early arrivals).
            return TimeArrival::Staged;
        }
        if ts >= e - self.spec.size_ms {
            return TimeArrival::Staged; // belongs to a future extent
        }
        // Older than every future extent: merge into the active extent
        // if inside it and within lateness, else drop.
        let active_start = e - self.spec.slide_ms - self.spec.size_ms;
        let wm = self.watermark.unwrap_or(i64::MIN);
        if ts >= active_start && wm.saturating_sub(ts) <= self.spec.allowed_lateness_ms {
            TimeArrival::MergeIntoActive
        } else {
            TimeArrival::DroppedLate
        }
    }

    /// Stages one tuple (invisible until its extent fires). Before the
    /// first slide, the window origin is lowered so the first extent
    /// covers the earliest staged tuple.
    pub fn stage(&mut self, ts: i64, t: Tuple) {
        if !self.fired {
            let e = self.spec.first_end_for(ts);
            self.next_end = Some(self.next_end.map_or(e, |cur| cur.min(e)));
        }
        self.staging.entry(ts).or_default().push(t);
    }

    /// Undoes the newest [`TimeWindowState::stage`] at `ts`, restoring
    /// `next_end` as captured before it.
    pub fn undo_stage(&mut self, ts: i64, prev_next_end: Option<i64>) {
        if let Some(bucket) = self.staging.get_mut(&ts) {
            bucket.pop();
            if bucket.is_empty() {
                self.staging.remove(&ts);
            }
        }
        if !self.fired {
            self.next_end = prev_next_end;
        }
    }

    /// The backing table gained `row`, carrying event timestamp `ts`
    /// (an activation, a late merge, an undone expiry).
    pub fn row_inserted(&mut self, ts: i64, row: RowId) {
        self.active.insert((ts, row));
    }

    /// The backing table lost `row` (an expiry, an undone insert).
    pub fn row_deleted(&mut self, ts: i64, row: RowId) {
        self.active.remove(&(ts, row));
    }

    /// Replaces the ordered set with the one over `rows` — the backing
    /// table's live rows — as restore does.
    pub fn rebuild_active(&mut self, rows: impl Iterator<Item = (i64, RowId)>) {
        self.active = rows.collect();
    }

    /// Advances the watermark (monotone). Returns true when slide work
    /// is now pending — the caller schedules a slide transaction. When
    /// the watermark passes boundaries of a completely empty window,
    /// the extent cursor fast-forwards here instead (no work to do).
    pub fn advance_watermark(&mut self, wm: i64) -> bool {
        self.watermark = Some(self.watermark.map_or(wm, |w| w.max(wm)));
        let w = self.watermark.expect("just set");
        if let Some(e) = self.next_end {
            if w >= e && self.staging.is_empty() && self.active.is_empty() {
                // Nothing to activate or expire anywhere: skip ahead.
                self.next_end = Some(self.spec.first_end_for(w));
                self.fired = true;
            }
        }
        self.has_pending_slides()
    }

    /// True when the watermark has passed the next extent end and there
    /// is content a slide would change.
    pub fn has_pending_slides(&self) -> bool {
        match (self.next_end, self.watermark) {
            (Some(e), Some(w)) => {
                w >= e && (!self.staging.is_empty() || !self.active.is_empty())
            }
            _ => false,
        }
    }

    /// Computes the next non-trivial slide under the current watermark:
    /// extents the watermark has passed fire in order; extents that
    /// would neither activate nor expire anything advance silently.
    /// Returns `None` when the watermark has not passed the next
    /// boundary (or the window never saw data). The expired rows stay
    /// in the ordered set until the EE deletes them from the table.
    pub fn next_slide(&mut self) -> Option<TimeSlideOutcome> {
        let wm = self.watermark?;
        let entry_end = self.next_end?;
        let entry_fired = self.fired;
        loop {
            let e = self.next_end?;
            if wm < e {
                return None;
            }
            let s = e - self.spec.size_ms;
            self.fired = true;
            let has_activation = self.staging.range(..e).next().is_some();
            let expired: Vec<(i64, RowId)> =
                self.active.iter().take_while(|(ts, _)| *ts < s).copied().collect();
            if !has_activation && expired.is_empty() {
                // Trivial extent: no content change, no trigger. Jump
                // as far as provably nothing happens — but never past
                // the watermark's own pane: extents beyond the
                // watermark have not fired, and skipping them would
                // wrongly classify future arrivals in the gap as late.
                let jump = if self.active.is_empty() {
                    let cap = self.spec.first_end_for(wm);
                    match self.staging.keys().next() {
                        Some(&min_ts) => self.spec.first_end_for(min_ts).min(cap),
                        None => cap,
                    }
                } else {
                    e + self.spec.slide_ms
                };
                self.next_end = Some(jump.max(e + self.spec.slide_ms));
                continue;
            }
            let mut activated = Vec::new();
            let keys: Vec<i64> = self.staging.range(..e).map(|(k, _)| *k).collect();
            for k in keys {
                let bucket = self.staging.remove(&k).expect("key just seen");
                for t in bucket {
                    activated.push((k, t));
                }
            }
            self.next_end = Some(e + self.spec.slide_ms);
            return Some(TimeSlideOutcome {
                activated,
                expired,
                start: s,
                end: e,
                prev_next_end: entry_end,
                prev_fired: entry_fired,
            });
        }
    }

    /// Undoes one slide: returns the consumed tuples to staging and
    /// rewinds the extent cursor. The rows it moved — and with them the
    /// ordered set — are restored by the transaction's effects.
    pub fn undo_slide(&mut self, restaged: Vec<(i64, Tuple)>, prev_next_end: i64, prev_fired: bool) {
        for (ts, t) in restaged {
            self.staging.entry(ts).or_default().push(t);
        }
        self.next_end = Some(prev_next_end);
        self.fired = prev_fired;
    }

    /// Number of staged (invisible) tuples.
    pub fn staged_len(&self) -> usize {
        self.staging.values().map(Vec::len).sum()
    }

    /// `(event-ts, row)` of the active rows, in expiry order.
    pub fn active(&self) -> impl Iterator<Item = (i64, RowId)> + '_ {
        self.active.iter().copied()
    }

    /// Current watermark, if any input has flowed.
    pub fn watermark(&self) -> Option<i64> {
        self.watermark
    }

    /// End of the next extent to fire.
    pub fn next_end(&self) -> Option<i64> {
        self.next_end
    }

    /// True once an extent has fired.
    pub fn fired(&self) -> bool {
        self.fired
    }

    /// The window ↔ table invariant, given `(event-ts, row)` of the
    /// table's live rows: the ordered set is exactly those, and once an
    /// extent has fired nothing is staged below the next one's start.
    pub fn check(&self, rows: impl Iterator<Item = (i64, RowId)>) -> Result<()> {
        let broken = |what: &str| Err(Error::Internal(format!("window {}: {what}", self.spec.name)));
        if rows.collect::<BTreeSet<_>>() != self.active {
            return broken("the ordered set disagrees with the table's rows");
        }
        let oldest = self.staging.keys().next();
        match (self.fired, self.next_end, oldest) {
            (true, Some(e), Some(&ts)) if ts < e - self.spec.size_ms => {
                broken(&format!("ts {ts} staged below the next extent [{}, {e})", e - self.spec.size_ms))
            }
            _ => Ok(()),
        }
    }

    /// Serializes staging + watermark state for checkpoints. Active
    /// tuples live in the table snapshot; the ordered set over them is
    /// rebuilt from it.
    pub fn encode(&self, e: &mut Encoder) {
        e.put_str(&self.spec.name);
        e.put_str(&self.spec.owner);
        e.put_str(&self.spec.ts_column);
        e.put_i64(self.spec.size_ms);
        e.put_i64(self.spec.slide_ms);
        e.put_i64(self.spec.allowed_lateness_ms);
        e.put_opt_i64(self.watermark);
        e.put_opt_i64(self.next_end);
        e.put_u8(self.fired as u8);
        e.put_seq(&self.staging, |e, (ts, bucket)| {
            e.put_i64(*ts);
            e.put_seq(bucket, Encoder::put_tuple);
        });
    }

    /// Deserializes from a checkpoint, with the same corruption
    /// discipline as [`WindowState::decode`]: errors name the window,
    /// counts are bounded by minimum per-element cost. The ordered set
    /// comes back empty: the caller rebuilds it from the restored table
    /// ([`TimeWindowState::rebuild_active`]).
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        let name = d.get_str()?;
        let ctx = |what: &str| {
            Error::Codec(format!("window {name}: corrupt checkpoint section ({what})"))
        };
        let owner = d.get_str().map_err(|_| ctx("owner"))?;
        let ts_column = d.get_str().map_err(|_| ctx("ts_column"))?;
        let size_ms = d.get_i64().map_err(|_| ctx("size_ms"))?;
        let slide_ms = d.get_i64().map_err(|_| ctx("slide_ms"))?;
        let allowed_lateness_ms = d.get_i64().map_err(|_| ctx("allowed_lateness_ms"))?;
        let watermark = d.get_opt_i64().map_err(|_| ctx("watermark"))?;
        let next_end = d.get_opt_i64().map_err(|_| ctx("next_end"))?;
        let fired = d.get_u8().map_err(|_| ctx("fired"))? != 0;
        // A staging bucket costs ≥ 8 (ts) + 1 (count) bytes, and each
        // of its tuples ≥ 1 (the arity varint).
        let buckets = d
            .get_seq(9, "staging bucket", |d| {
                Ok((d.get_i64()?, d.get_seq(1, "staged tuple", Decoder::get_tuple)?))
            })
            .map_err(|e| ctx(&format!("staging: {e}")))?;
        let mut staging: BTreeMap<i64, Vec<Tuple>> = BTreeMap::new();
        for (ts, bucket) in buckets {
            if staging.insert(ts, bucket).is_some() {
                return Err(ctx(&format!("duplicate staging ts {ts}")));
            }
        }
        let spec = TimeWindowSpec { name, owner, ts_column, size_ms, slide_ms, allowed_lateness_ms };
        spec.validate()?;
        Ok(TimeWindowState { spec, staging, active: BTreeSet::new(), watermark, next_end, fired })
    }
}

// ----------------------------------------------------------------------
// Variant wrapper
// ----------------------------------------------------------------------

/// Checkpoint tags for the two window variants.
const TAG_TUPLE: u8 = 0;
const TAG_TIME: u8 = 1;

/// One window's runtime state, either variant. The EE keeps a
/// `Vec<Option<WindowSlot>>` indexed by table id and dispatches
/// arrival/slide handling on the variant.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowSlot {
    /// Tuple-based (§3.2.2 as-published).
    Tuple(WindowState),
    /// Time-based (event time, watermark-driven).
    Time(TimeWindowState),
}

impl WindowSlot {
    /// Window name (== backing table name).
    pub fn name(&self) -> &str {
        match self {
            WindowSlot::Tuple(w) => &w.spec.name,
            WindowSlot::Time(w) => &w.spec.name,
        }
    }

    /// Serializes with a variant tag for checkpoints.
    pub fn encode(&self, e: &mut Encoder) {
        match self {
            WindowSlot::Tuple(w) => {
                e.put_u8(TAG_TUPLE);
                w.encode(e);
            }
            WindowSlot::Time(w) => {
                e.put_u8(TAG_TIME);
                w.encode(e);
            }
        }
    }

    /// Deserializes a tagged window section.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        match d.get_u8()? {
            TAG_TUPLE => Ok(WindowSlot::Tuple(WindowState::decode(d)?)),
            TAG_TIME => Ok(WindowSlot::Time(TimeWindowState::decode(d)?)),
            t => Err(Error::Codec(format!("unknown window variant tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::tuple;

    fn spec(size: usize, slide: usize) -> WindowSpec {
        WindowSpec { name: "w".into(), owner: "sp1".into(), size, slide }
    }

    /// The backing table as the window sees it: the active payloads,
    /// oldest first.
    type Rows = VecDeque<Tuple>;

    /// Emulates the EE: stage, then apply every slide the staging
    /// unlocks to `rows`. Returns the outcomes.
    fn drive(w: &mut WindowState, rows: &mut Rows, tuples: Vec<Tuple>) -> Vec<SlideOutcome> {
        w.stage(tuples);
        let mut outcomes = Vec::new();
        while let Some(o) = w.next_slide(rows.len()) {
            rows.drain(..o.expire);
            rows.extend(o.activated.iter().cloned());
            outcomes.push(o);
        }
        outcomes
    }

    fn ints(range: std::ops::RangeInclusive<i64>) -> Vec<Tuple> {
        range.map(|i| tuple![i]).collect()
    }

    #[test]
    fn spec_validation() {
        assert!(spec(0, 1).validate().is_err());
        assert!(spec(5, 0).validate().is_err());
        assert!(spec(5, 6).validate().is_err());
        assert!(spec(5, 5).validate().is_ok());
        assert!(spec(5, 5).is_tumbling());
        assert!(!spec(5, 2).is_tumbling());
    }

    #[test]
    fn initial_fill_requires_full_window() {
        let mut w = WindowState::new(spec(3, 1)).unwrap();
        let mut rows = Rows::new();
        // Two tuples: no slide yet, all staged.
        let out = drive(&mut w, &mut rows, ints(1..=2));
        assert!(out.is_empty());
        assert_eq!(w.staged_len(), 2);
        assert!(rows.is_empty());
        // Third tuple completes the first full window.
        let out = drive(&mut w, &mut rows, ints(3..=3));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].activated.len(), 3);
        assert_eq!(out[0].expire, 0);
        assert_eq!(rows.len(), 3);
        assert_eq!(w.staged_len(), 0);
    }

    #[test]
    fn sliding_by_one_expires_one() {
        let mut w = WindowState::new(spec(3, 1)).unwrap();
        let mut rows = Rows::new();
        drive(&mut w, &mut rows, ints(1..=3));
        let out = drive(&mut w, &mut rows, ints(4..=4));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].activated.len(), 1);
        assert_eq!(out[0].expire, 1);
        // The oldest active row expired; actives are 2, 3, 4.
        assert_eq!(rows, Rows::from(ints(2..=4)));
    }

    #[test]
    fn tumbling_window_replaces_everything() {
        let mut w = WindowState::new(spec(2, 2)).unwrap();
        let mut rows = Rows::new();
        let out = drive(&mut w, &mut rows, ints(1..=2));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].expire, 0);
        let out = drive(&mut w, &mut rows, ints(3..=4));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].expire, 2);
        assert_eq!(rows, Rows::from(ints(3..=4)));
    }

    #[test]
    fn big_batch_unlocks_multiple_slides() {
        let mut w = WindowState::new(spec(2, 1)).unwrap();
        let mut rows = Rows::new();
        // 5 tuples: first window (2), then 3 more slides.
        let out = drive(&mut w, &mut rows, ints(1..=5));
        assert_eq!(out.len(), 4);
        assert_eq!(w.staged_len(), 0);
        assert_eq!(rows, Rows::from(ints(4..=5)));
        w.check(rows.len()).unwrap();
    }

    #[test]
    fn check_names_a_window_past_its_size_or_with_a_slide_pending() {
        let mut w = WindowState::new(spec(3, 1)).unwrap();
        w.check(3).unwrap();
        assert!(w.check(4).unwrap_err().to_string().contains("window w"));
        w.stage(ints(1..=1));
        assert!(w.check(3).is_err(), "one staged tuple slides a full window");
        w.check(0).unwrap();
    }

    #[test]
    fn codec_roundtrip() {
        let mut w = WindowState::new(spec(3, 2)).unwrap();
        drive(&mut w, &mut Rows::new(), ints(1..=4));
        assert_eq!(w.staged_len(), 1);
        let mut e = Encoder::new();
        w.encode(&mut e);
        let bytes = e.finish();
        let got = WindowState::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(got, w);
    }

    /// After `undo_slide` rewinds the *first* slide of a window (and
    /// the abort empties its table again), the refill requirement must
    /// be `size` again, not `slide`. Oracle: a fresh window replaying
    /// only the committed operations.
    #[test]
    fn first_slide_abort_then_retry_matches_fresh_replay() {
        let mut w = WindowState::new(spec(3, 1)).unwrap();
        // Txn 1: stage 3, slide once — then abort (undo in reverse).
        w.stage(ints(1..=3));
        let o = w.next_slide(0).unwrap();
        assert_eq!(o.activated.len(), 3, "first slide fills with size");
        w.undo_slide(o.activated);
        w.undo_stage(3);
        assert_eq!(w.staged_len(), 0);
        // The window must again demand a FULL extent.
        w.stage([tuple![9i64]]);
        assert!(!w.can_slide(0), "refill after first-slide undo requires size, not slide");
        assert!(w.next_slide(0).is_none());
        // Txn 2 (committed): stage 2 more, slide.
        let mut rows = Rows::new();
        let out = drive(&mut w, &mut rows, ints(10..=11));
        assert_eq!(out.len(), 1);
        // Oracle: fresh window that only ever saw the committed txns.
        let mut oracle = WindowState::new(spec(3, 1)).unwrap();
        let mut orows = Rows::new();
        oracle.stage([tuple![9i64]]);
        drive(&mut oracle, &mut orows, ints(10..=11));
        assert_eq!(w, oracle);
        assert_eq!(rows, orows);
    }

    #[test]
    fn decode_rejects_truncation_naming_the_window() {
        let mut w = WindowState::new(spec(3, 2)).unwrap();
        w.stage(ints(1..=2));
        let mut e = Encoder::new();
        w.encode(&mut e);
        let bytes = e.finish();
        assert!(WindowState::decode(&mut Decoder::new(&bytes[..4])).is_err());
        // Cut inside the staged tuples: a count the bytes cannot cover
        // fails fast with a window-specific error, not deep in tuple
        // decode.
        let err = WindowState::decode(&mut Decoder::new(&bytes[..bytes.len() - 3])).unwrap_err();
        assert!(err.to_string().contains("window w"), "error must name the window: {err}");
    }

    // ------------------------------------------------------------------
    // Time-based windows
    // ------------------------------------------------------------------

    fn tspec(size: i64, slide: i64, lateness: i64) -> TimeWindowSpec {
        TimeWindowSpec {
            name: "tw".into(),
            owner: "sp1".into(),
            ts_column: "ts".into(),
            size_ms: size,
            slide_ms: slide,
            allowed_lateness_ms: lateness,
        }
    }

    /// What `tdrive` did with a batch besides staging it.
    #[derive(Default)]
    struct Driven {
        slides: Vec<TimeSlideOutcome>,
        merged: usize,
        dropped: usize,
    }

    /// Emulates the EE: classify a batch (a merge inserts a row, which
    /// draws the next id), advance the watermark, apply all slides —
    /// every row that enters or leaves the table is reported to the
    /// window, as the EE's table primitives do.
    fn tdrive(w: &mut TimeWindowState, tuples: Vec<i64>, wm: i64, next_row: &mut u64) -> Driven {
        let mut insert = |w: &mut TimeWindowState, ts: i64| {
            w.row_inserted(ts, RowId(*next_row));
            *next_row += 1;
        };
        let mut out = Driven::default();
        for ts in tuples {
            match w.classify(ts) {
                TimeArrival::Staged => w.stage(ts, tuple![ts]),
                TimeArrival::MergeIntoActive => {
                    insert(w, ts);
                    out.merged += 1;
                }
                TimeArrival::DroppedLate => out.dropped += 1,
            }
        }
        w.advance_watermark(wm);
        while let Some(o) = w.next_slide() {
            for (ts, row) in &o.expired {
                w.row_deleted(*ts, *row);
            }
            for (ts, _) in &o.activated {
                insert(w, *ts);
            }
            out.slides.push(o);
        }
        out
    }

    fn active_ts(w: &TimeWindowState) -> Vec<i64> {
        w.active().map(|(ts, _)| ts).collect()
    }

    #[test]
    fn time_spec_validation_and_panes() {
        assert!(tspec(0, 1, 0).validate().is_err());
        assert!(tspec(30, 0, 0).validate().is_err());
        assert!(tspec(30, 31, 0).validate().is_err());
        assert!(tspec(30, 30, -1).validate().is_err());
        assert!(tspec(30, 30, 0).validate().is_ok());
        assert!(tspec(30, 30, 0).is_tumbling());
        assert!(!tspec(300, 60, 0).is_tumbling());
        let s = tspec(30, 30, 0);
        assert_eq!(s.first_end_for(0), 30);
        assert_eq!(s.first_end_for(29), 30);
        assert_eq!(s.first_end_for(30), 60);
        let s = tspec(300, 60, 0);
        // Smallest pane-aligned end > 35 is 60 (extent [-240, 60)).
        assert_eq!(s.first_end_for(35), 60);
    }

    #[test]
    fn tumbling_time_window_fires_on_watermark_only() {
        let mut w = TimeWindowState::new(tspec(30, 30, 0)).unwrap();
        let mut next = 0;
        // Data up to ts 29, watermark 29: nothing fires.
        let out = tdrive(&mut w, vec![5, 29, 12], 29, &mut next).slides;
        assert!(out.is_empty());
        assert_eq!(w.staged_len(), 3);
        assert_eq!(w.active().count(), 0);
        // Watermark passes 30: extent [0, 30) fires with the 3 tuples.
        let out = tdrive(&mut w, vec![31], 31, &mut next).slides;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].start, 0);
        assert_eq!(out[0].end, 30);
        // Out-of-order within staging: activation is in ts order.
        let ts: Vec<i64> = out[0].activated.iter().map(|(t, _)| *t).collect();
        assert_eq!(ts, vec![5, 12, 29]);
        assert!(out[0].expired.is_empty());
        assert_eq!(active_ts(&w), vec![5, 12, 29]);
        assert_eq!(w.staged_len(), 1, "ts 31 stays staged for [30, 60)");
        // Next extent replaces everything (tumbling).
        let out = tdrive(&mut w, vec![], 60, &mut next).slides;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].expired.len(), 3);
        assert_eq!(out[0].activated.len(), 1);
        assert_eq!(active_ts(&w), vec![31]);
    }

    #[test]
    fn sliding_time_window_overlaps() {
        let mut w = TimeWindowState::new(tspec(20, 10, 0)).unwrap();
        let mut next = 0;
        // Tuples at 5, 15, 25; watermark 30. The earliest pane-aligned
        // extent containing ts 5 is [-10, 10); then [0, 20), [10, 30)
        // fire as the ramp-up, Flink-style.
        let out = tdrive(&mut w, vec![5, 15, 25], 30, &mut next).slides;
        assert_eq!(out.len(), 3);
        assert_eq!((out[0].start, out[0].end), (-10, 10));
        assert_eq!(out[0].activated.len(), 1); // ts 5
        assert!(out[0].expired.is_empty());
        assert_eq!((out[1].start, out[1].end), (0, 20));
        assert_eq!(out[1].activated.len(), 1); // ts 15
        assert!(out[1].expired.is_empty());
        assert_eq!((out[2].start, out[2].end), (10, 30));
        assert_eq!(out[2].activated.len(), 1); // ts 25
        assert_eq!(out[2].expired, vec![(5, RowId(0))]); // ts 5 leaves
        assert_eq!(active_ts(&w), vec![15, 25]);
    }

    #[test]
    fn late_tuples_merge_within_lateness_and_drop_beyond() {
        // Tumbling 30 with lateness 10.
        let mut w = TimeWindowState::new(tspec(30, 30, 10)).unwrap();
        let mut next = 0;
        tdrive(&mut w, vec![10, 20], 35, &mut next);
        assert_eq!(active_ts(&w), vec![10, 20], "extent [0,30) active");
        // ts 28 is behind the next extent [30, 60) but inside the
        // active one, and 35 - 28 = 7 ≤ lateness → merge.
        assert_eq!(w.classify(28), TimeArrival::MergeIntoActive);
        assert_eq!(tdrive(&mut w, vec![28], 35, &mut next).merged, 1);
        assert_eq!(active_ts(&w), vec![10, 20, 28]);
        // Watermark far ahead: ts 29 is now beyond lateness → dropped.
        tdrive(&mut w, vec![], 45, &mut next);
        assert_eq!(w.classify(29), TimeArrival::DroppedLate);
        assert_eq!(tdrive(&mut w, vec![29], 45, &mut next).dropped, 1);
        assert_eq!(active_ts(&w), vec![10, 20, 28], "dropped tuple never lands");
    }

    /// Equal timestamps expire in row-id order — arrival order, the
    /// order the `(ts, seq)` keys this set replaced gave.
    #[test]
    fn equal_timestamps_order_by_row_id() {
        let mut w = TimeWindowState::new(tspec(30, 30, 20)).unwrap();
        let mut next = 0;
        tdrive(&mut w, vec![20, 10, 20], 35, &mut next);
        assert_eq!(tdrive(&mut w, vec![20], 36, &mut next).merged, 1); // the newest id
        let got: Vec<(i64, RowId)> = w.active().collect();
        assert_eq!(got, vec![(10, RowId(0)), (20, RowId(1)), (20, RowId(2)), (20, RowId(3))]);
        let out = tdrive(&mut w, vec![], 60, &mut next).slides;
        assert_eq!(out[0].expired, got);
    }

    #[test]
    fn empty_window_fast_forwards_without_firing() {
        let mut w = TimeWindowState::new(tspec(30, 30, 0)).unwrap();
        let mut next = 0;
        tdrive(&mut w, vec![5], 31, &mut next);
        assert_eq!(active_ts(&w), vec![5]);
        // Jump the watermark across many empty extents: the one
        // non-trivial slide expires the active tuple; no per-extent
        // busywork for the rest.
        let out = tdrive(&mut w, vec![], 1_000_000, &mut next).slides;
        assert_eq!(out.len(), 1, "only the expiring extent fires");
        assert_eq!(out[0].expired.len(), 1);
        assert!(out[0].activated.is_empty());
        assert_eq!(w.active().count(), 0);
        // A later tuple starts a fresh extent at its own pane.
        let out = tdrive(&mut w, vec![1_000_010], 1_000_030, &mut next).slides;
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].start, out[0].end), (999_990, 1_000_020));
    }

    #[test]
    fn time_undo_slide_restores_staging_and_extent_cursor() {
        let mut w = TimeWindowState::new(tspec(30, 30, 0)).unwrap();
        let mut next = 0;
        tdrive(&mut w, vec![5, 12], 20, &mut next);
        let snapshot = w.clone();
        // A slide txn begins: watermark passes, one slide is computed,
        // then the txn aborts before (or after — the table's effects
        // undo those) any row moved.
        w.advance_watermark(31);
        let o = w.next_slide().unwrap();
        w.undo_slide(o.activated, o.prev_next_end, o.prev_fired);
        // The watermark advance survives the abort (it is commit-derived
        // state); staging, the extent cursor AND the first-fire
        // classification are back — the whole state equals the snapshot.
        let mut rewound = w.clone();
        rewound.watermark = snapshot.watermark;
        assert_eq!(rewound, snapshot, "undo of the first slide restores `fired` too");
        // Retry slides cleanly.
        let out = tdrive(&mut w, vec![], 31, &mut next).slides;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].activated.len(), 2);
    }

    #[test]
    fn time_check_compares_the_set_with_the_rows_and_staging_with_the_cursor() {
        let mut w = TimeWindowState::new(tspec(30, 30, 0)).unwrap();
        let mut next = 0;
        tdrive(&mut w, vec![5, 12, 40], 31, &mut next);
        let rows: Vec<(i64, RowId)> = w.active().collect();
        w.check(rows.iter().copied()).unwrap();
        let err = w.check(rows[1..].iter().copied()).unwrap_err();
        assert!(err.to_string().contains("window tw"), "{err}");
        // Something staged that every future extent has passed.
        w.staging.insert(3, vec![tuple![3i64]]);
        assert!(w.check(rows.iter().copied()).is_err());
    }

    #[test]
    fn time_codec_roundtrip_tagged_leaves_the_set_to_the_rebuild() {
        let mut w = TimeWindowState::new(tspec(30, 10, 5)).unwrap();
        let mut next = 0;
        tdrive(&mut w, vec![3, 17, 31, 50], 33, &mut next);
        tdrive(&mut w, vec![2], 40, &mut next); // a drop
        let rows: Vec<(i64, RowId)> = w.active().collect();
        assert!(!rows.is_empty() && w.staged_len() > 0);
        let slot = WindowSlot::Time(w);
        let mut e = Encoder::new();
        slot.encode(&mut e);
        let bytes = e.finish();
        let WindowSlot::Time(mut got) = WindowSlot::decode(&mut Decoder::new(&bytes)).unwrap() else {
            panic!("a time window");
        };
        assert_eq!(got.active().count(), 0, "the set is in no image");
        got.rebuild_active(rows.into_iter());
        assert_eq!(WindowSlot::Time(got), slot);
        // Tuple windows roundtrip through the same tagged wrapper.
        let mut tw = WindowState::new(spec(3, 2)).unwrap();
        drive(&mut tw, &mut Rows::new(), ints(1..=4));
        let slot = WindowSlot::Tuple(tw);
        let mut e = Encoder::new();
        slot.encode(&mut e);
        let bytes = e.finish();
        assert_eq!(WindowSlot::decode(&mut Decoder::new(&bytes)).unwrap(), slot);
        // Unknown tags are rejected.
        let mut bad = vec![9u8];
        bad.extend_from_slice(&bytes[1..]);
        assert!(WindowSlot::decode(&mut Decoder::new(&bad)).is_err());
    }

    #[test]
    fn time_decode_overallocation_guard_names_window() {
        let mut w = TimeWindowState::new(tspec(30, 30, 0)).unwrap();
        w.stage(1, tuple![1i64]);
        w.stage(2, tuple![2i64]);
        let mut e = Encoder::new();
        w.encode(&mut e);
        let bytes = e.finish();
        // Truncate inside the staging section: the 9-bytes-per-bucket
        // bound must fail fast, naming the window.
        let err = TimeWindowState::decode(&mut Decoder::new(&bytes[..bytes.len() - 12])).unwrap_err();
        assert!(err.to_string().contains("window tw"), "got: {err}");
    }
}
