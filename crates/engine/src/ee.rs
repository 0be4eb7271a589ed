//! The execution engine (EE): SQL execution over streams, windows and
//! tables, EE triggers, per-transaction undo, and checkpoint images.
//!
//! One EE instance owns all the state of one partition. It is
//! single-threaded: either embedded in the partition thread
//! ([`BoundaryMode::Inline`]) or running on its own thread behind a
//! channel ([`BoundaryMode::Channel`]) — see [`crate::boundary`].
//!
//! # Hot path
//!
//! All state is addressed by dense [`TableId`]s (assigned by the app's
//! compile step, see [`crate::names`]): stream bookkeeping, window
//! state, and EE-trigger lists are plain vectors indexed by table id,
//! and undo entries carry ids — no string hashing, lower-casing, or
//! name cloning happens inside the execution loop. What the compile
//! step resolved (timestamp columns, plans, trigger lists) is read
//! from [`AppIds`], not copied.
//!
//! # Undo
//!
//! A transaction's changes — row effects, stream bookkeeping, window
//! staging and cursors — are one log, appended as they happen; commit
//! clears it and abort undoes it newest-first in one loop (see
//! [`ExecutionEngine::abort`] for why one order serves all three). The
//! log is also the transaction's touch record for incremental
//! checkpoints.
//!
//! # Trigger cascade (§3.2.3)
//!
//! Only *SQL-originated* inserts fire triggers. Every `INSERT` — one
//! parameter row from [`ExecutionEngine::exec`], many from
//! [`ExecutionEngine::exec_rows`] — takes one path: the SQL crate builds
//! its rows, and the EE applies them. One whose target is a window never
//! reaches the table: its rows go to the window as tuples, to be
//! *staged* (no row id, no index touch, no effect — staged tuples are
//! invisible because they are nowhere a query looks); slides
//! then activate and expire rows and fire the window's EE triggers.
//! Every other target is a table: a base table takes its rows in one
//! insert loop, and a stream one parameter row's rows at a time, whose
//! ids go straight to the stream's arrival; only a `DELETE` on a stream
//! reads its logged effects back, to forget the rows it removed.
//! A stream with EE triggers runs them immediately (inside this same EE
//! visit, recursively cascading) and then garbage-collects the rows; that
//! batch is never entered in the stream's bookkeeping. Any other stream
//! labels its rows with the transaction's batch id and is reported to the
//! partition engine at commit for PE-trigger firing.
//!
//! Internal mutations (activation/expiry/GC) are logged for undo but do
//! not re-enter the cascade, so the cascade terminates.
//!
//! What is active in a window is what its table holds
//! ([`crate::window`]), and nothing else records it. A window's group
//! indexes (derived by [`AppIds::build`], attached in [`build_catalog`])
//! are maintained by the storage layer inside the table's insert and
//! delete; nothing in this file touches them. A time window's expiry
//! reads its rows' timestamps when a slide fires
//! ([`ExecutionEngine::process_slides`]).
//!
//! [`BoundaryMode::Inline`]: crate::config::BoundaryMode::Inline
//! [`BoundaryMode::Channel`]: crate::config::BoundaryMode::Channel

use std::collections::HashMap;
use std::sync::Arc;

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{BatchId, Error, ProcId, Result, RowId, TableId, Tuple, Value};
use sstore_sql::exec::{execute, insert_rows, undo_effect, Effect};
use sstore_sql::plan::{BoundInsert, BoundStatement};
use sstore_sql::{Planner, QueryResult};
use sstore_storage::snapshot;
use sstore_storage::{Catalog, TableKind};

use crate::app::{window_is_append_only, App, Windowing};
use crate::metrics::EngineMetrics;
use crate::names::AppIds;
use crate::stream::StreamState;
use crate::window::{TimeArrival, TimeWindowState, WindowSlot, WindowState};

/// Identifier of a statement compiled into the EE.
pub type StmtId = usize;

/// What a committed transaction hands back to the partition engine:
/// the stream batches awaiting PE triggers, plus the time windows
/// whose watermark crossed a pane boundary during this commit — the
/// partition schedules one slide transaction per window on the fast
/// lane, in batch order (same discipline as exchange arrivals).
#[derive(Debug, Default)]
pub struct CommitOutcome {
    /// `(stream, batch)` outputs awaiting PE triggers.
    pub outputs: Vec<(TableId, BatchId)>,
    /// Time windows with pending watermark-driven slides.
    pub slides: Vec<TableId>,
}

/// One entry of a transaction's undo log: a row effect or one step of
/// stream or window bookkeeping, appended in the order the changes
/// happen and undone newest-first by [`ExecutionEngine::abort`]. Each
/// costs O(what it touched), not O(state): a queue backlog or a large
/// window must not make undo (or its capture) more expensive. A
/// window step is logged as soon as the state machine has moved and
/// before any table mutation that could fail, so an error leaving
/// mid-slide still aborts to the window it found.
#[derive(Debug)]
enum Undo {
    /// A row was inserted, deleted or updated.
    Row(Effect),
    /// `n` rows were appended to `batch` on `stream`.
    Appended {
        /// Stream table.
        stream: TableId,
        /// Batch appended to.
        batch: BatchId,
        /// Rows appended.
        n: usize,
    },
    /// `batch` was consumed from `stream` (rows listed for restore).
    Consumed {
        /// Stream table.
        stream: TableId,
        /// Batch consumed.
        batch: BatchId,
        /// Its row ids, in arrival order.
        rows: Vec<RowId>,
    },
    /// One row was dropped from `batch` at `pos` (a SQL DELETE).
    Forgot {
        /// Stream table.
        stream: TableId,
        /// Batch the row belonged to.
        batch: BatchId,
        /// Position within the batch.
        pos: usize,
        /// The row id.
        row: RowId,
    },
    /// The stream's event-time high mark advanced (watermark input).
    HighMark {
        /// Stream table.
        stream: TableId,
        /// High mark before this transaction's advance.
        prev: Option<i64>,
    },
    /// `n` tuples were staged on a tuple `window`.
    Staged {
        /// Window table.
        window: TableId,
        /// Number staged.
        n: usize,
    },
    /// One slide was applied on a tuple `window`.
    Slid {
        /// Window table.
        window: TableId,
        /// The tuples the slide consumed from staging (to restore).
        restaged: Vec<Tuple>,
    },
    /// One tuple was staged on a time window. Logged per row —
    /// *before* the next row is processed — so a failure later in the
    /// same arrival batch (bad timestamp, insert error) still rolls
    /// back every earlier row's staging.
    TimeStaged {
        /// Window table.
        window: TableId,
        /// Event timestamp staged.
        ts: i64,
        /// Extent cursor before this stage (pre-first-slide staging
        /// may lower it).
        prev_next_end: Option<i64>,
    },
    /// The extent cursor of a time window moved: one watermark-driven
    /// slide, or extents skipped as trivial.
    TimeSlid {
        /// Window table.
        window: TableId,
        /// The `(ts, tuple)` pairs the slide consumed from staging.
        restaged: Vec<(i64, Tuple)>,
        /// Extent cursor before the slide.
        prev_next_end: i64,
        /// First-fire flag before the slide.
        prev_fired: bool,
    },
}

impl Undo {
    /// The table, stream or window this entry changed.
    fn table(&self) -> TableId {
        match self {
            Undo::Row(
                Effect::Insert { table, .. } | Effect::Delete { table, .. } | Effect::Update { table, .. },
            ) => *table,
            Undo::Appended { stream, .. }
            | Undo::Consumed { stream, .. }
            | Undo::Forgot { stream, .. }
            | Undo::HighMark { stream, .. } => *stream,
            Undo::Staged { window, .. }
            | Undo::Slid { window, .. }
            | Undo::TimeStaged { window, .. }
            | Undo::TimeSlid { window, .. } => *window,
        }
    }
}

/// Per-procedure map of statement names to statement ids (the ids
/// [`AppIds::build`] planned them under), returned by
/// [`ExecutionEngine::install`].
pub type ProcStmtMap = HashMap<String, HashMap<String, StmtId>>;

/// The execution engine for one partition.
pub struct ExecutionEngine {
    catalog: Catalog,
    ids: Arc<AppIds>,
    /// Stream bookkeeping, indexed by [`TableId`] (`None` for
    /// non-stream tables).
    streams: Vec<Option<StreamState>>,
    /// Per-stream event-time high mark (max timestamp ever appended),
    /// indexed by [`TableId`]. Monotone; advanced inside transactions,
    /// rewound on abort. The partition watermark is the min over the
    /// event-timed streams' high marks, taken at commit.
    stream_high: Vec<Option<i64>>,
    /// The event-timed streams (watermark inputs).
    ts_streams: Vec<TableId>,
    /// Window state, indexed by [`TableId`].
    windows: Vec<Option<WindowSlot>>,
    /// True when any time window is installed (skip watermark work
    /// entirely otherwise).
    has_time_windows: bool,
    /// EE-trigger statements per table id. `None` = no trigger declared;
    /// `Some` (possibly empty) = a declared trigger — the distinction
    /// matters because a *declared* trigger makes the stream's batches
    /// GC inside the EE visit even when its statement list is empty
    /// (an empty trigger is a discard sink).
    ee_triggers: Vec<Option<Arc<[StmtId]>>>,
    stmts: Vec<BoundStatement>,
    metrics: Arc<EngineMetrics>,
    /// Per-table dirty flags, indexed by [`TableId`]: set at
    /// commit/abort for every table, stream, or window a transaction
    /// touched; cleared when a checkpoint image adopts the state. The
    /// incremental checkpoint ([`ExecutionEngine::checkpoint_delta`])
    /// writes exactly the dirty entries.
    dirty: Vec<bool>,
    // --- transaction-scoped state ---
    in_txn: bool,
    out_batch: Option<BatchId>,
    /// Every change the open transaction made, oldest first.
    undo: Vec<Undo>,
    /// Where a statement's row effects land before they join `undo`
    /// (kept for its capacity: [`execute`] takes a `Vec<Effect>`).
    scratch: Vec<Effect>,
    outputs: Vec<(TableId, BatchId)>,
}

/// Creates the catalog for `app` — base tables (with their indexes),
/// streams, windows, and the group indexes the compile step derived —
/// in the declaration order [`AppIds::build`] assigned its ids by, so
/// every catalog built from one app has the same layout and table ids.
/// Shared by the compile step (which plans against it),
/// [`ExecutionEngine::install`] and the engine facade's ad-hoc planner
/// ([`crate::engine::Engine::query_at`]), which is what makes a
/// statement planned once valid against every partition's EE.
pub(crate) fn build_catalog(app: &App, ids: &AppIds) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    for t in &app.tables {
        let table = catalog.create_table(&t.name, TableKind::Base, t.schema.clone())?;
        for ix in &t.indexes {
            table.create_index(ix.clone())?;
        }
        for def in &t.group_indexes {
            table.create_group_index(def.clone())?;
        }
    }
    for s in &app.streams {
        catalog.create_table(&s.name, TableKind::Stream, s.schema.clone())?;
    }
    for w in &app.windows {
        catalog.create_table(w.name(), TableKind::Window, w.schema.clone())?;
    }
    let same = catalog.len() == ids.table_count()
        && catalog.iter_ids().all(|(id, t)| t.name() == &**ids.table_name(id));
    if !same {
        return Err(Error::Internal("the app and its compiled ids declare different tables".into()));
    }
    for (table, def) in ids.group_indexes() {
        catalog.get_mut(*table).create_group_index(def.clone())?;
    }
    Ok(catalog)
}

impl ExecutionEngine {
    /// Builds an EE for `app` from its compile step's output `ids`
    /// ([`AppIds::build`] on the same app): creates all
    /// tables/streams/windows ([`build_catalog`]), window and stream
    /// state, and copies every statement's and EE trigger's plan from
    /// `ids` — nothing is planned or resolved here. Returns the EE and
    /// the per-procedure statement-id map.
    pub fn install(
        app: &App,
        ids: Arc<AppIds>,
        metrics: Arc<EngineMetrics>,
    ) -> Result<(Self, ProcStmtMap)> {
        let catalog = build_catalog(app, &ids)?;
        let n_tables = ids.table_count();
        let mut streams: Vec<Option<StreamState>> = (0..n_tables).map(|_| None).collect();
        let mut ts_streams: Vec<TableId> = Vec::new();
        for (id, meta) in ids.streams() {
            streams[id.index()] = Some(StreamState::new());
            ts_streams.extend(meta.ts_col.map(|_| id));
        }
        let mut windows: Vec<Option<WindowSlot>> = (0..n_tables).map(|_| None).collect();
        for (w, (id, _)) in app.windows.iter().zip(ids.of_kind(TableKind::Window)) {
            windows[id.index()] = Some(match &w.windowing {
                Windowing::Tuple(spec) => WindowSlot::Tuple(WindowState::new(spec.clone())?),
                Windowing::Time(spec) => WindowSlot::Time(TimeWindowState::new(spec.clone())?),
            });
        }
        let has_time_windows = windows.iter().any(|w| matches!(w, Some(WindowSlot::Time(_))));
        // Each EE's own `Arc`s: every SELECT bumps its column names' count
        // and every firing a trigger list's, and one shared across
        // partition threads would put that count on a cache line both
        // cores write.
        let own_names = |mut plan: BoundStatement| {
            if let BoundStatement::Select(s) = &mut plan {
                s.output_names = s.output_names.iter().cloned().collect();
            }
            plan
        };
        let stmts = ids.plans().iter().cloned().map(own_names).collect();
        let ee_triggers = ids.ee_triggers().iter().map(|l| l.as_deref().map(Arc::from)).collect();

        let proc_map: ProcStmtMap = app
            .procs
            .iter()
            .zip(0..)
            .map(|(p, i)| {
                let stmts = ids.proc(ProcId(i)).stmts.iter().map(|(n, &id)| (n.clone(), id));
                (p.name.clone(), stmts.collect())
            })
            .collect();

        Ok((
            ExecutionEngine {
                catalog,
                streams,
                stream_high: vec![None; n_tables],
                ts_streams,
                windows,
                has_time_windows,
                ee_triggers,
                stmts,
                ids,
                metrics,
                // Everything starts dirty: a delta taken before any
                // base would otherwise silently miss install-time state
                // (the engine forces the first checkpoint to be a base,
                // but the EE must not depend on that for correctness).
                dirty: vec![true; n_tables],
                in_txn: false,
                out_batch: None,
                undo: Vec::new(),
                scratch: Vec::new(),
                outputs: Vec::new(),
            },
            proc_map,
        ))
    }

    /// The interned name maps this EE was installed with.
    pub fn ids(&self) -> &Arc<AppIds> {
        &self.ids
    }

    /// Resolves a table/stream name (test and API-edge convenience).
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.ids.table_id(name).ok_or_else(|| Error::not_found("table", name))
    }

    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Begins a transaction. `out_batch` labels any stream output this
    /// transaction produces (`None` for OLTP — stream writes then fail).
    pub fn begin(&mut self, out_batch: Option<BatchId>) -> Result<()> {
        if self.in_txn {
            return Err(Error::InvalidState("nested EE begin".into()));
        }
        self.in_txn = true;
        self.out_batch = out_batch;
        self.undo.clear();
        self.outputs.clear();
        Ok(())
    }

    /// Commits: drops undo state, advances the partition watermark
    /// into every time window (the "border punctuation" of §3.2.1,
    /// generalized to event time), and returns the `(stream, batch)`
    /// outputs awaiting PE triggers plus the time windows whose
    /// watermark crossed a pane boundary.
    pub fn commit(&mut self) -> Result<CommitOutcome> {
        if !self.in_txn {
            return Err(Error::InvalidState("commit outside transaction".into()));
        }
        self.in_txn = false;
        self.out_batch = None;
        // Dirty marking must read the undo log before it clears: it is
        // the precise record of which tables/streams/windows this
        // transaction touched.
        self.mark_txn_dirty();
        self.undo.clear();
        self.note_columnar_batches();
        let mut slides = Vec::new();
        if self.has_time_windows {
            if let Some(wm) = self.partition_watermark() {
                for (i, w) in self.windows.iter_mut().enumerate() {
                    if let Some(WindowSlot::Time(tw)) = w {
                        // `advance_watermark` mutates the window's
                        // internal mark even when no pane fires, so
                        // every time window dirties here.
                        self.dirty[i] = true;
                        let rows = self.catalog.get(TableId(i as u32)).len();
                        if tw.advance_watermark(wm, rows) {
                            slides.push(TableId(i as u32));
                        }
                    }
                }
            }
        }
        Ok(CommitOutcome { outputs: std::mem::take(&mut self.outputs), slides })
    }

    /// The partition watermark: min over the event-timed streams' high
    /// marks, `None` until every one of them has seen data (a stream
    /// that never flows holds the watermark back — by design, the min
    /// semantics of multi-input punctuations).
    fn partition_watermark(&self) -> Option<i64> {
        let mut wm: Option<i64> = None;
        for s in &self.ts_streams {
            match self.stream_high[s.index()] {
                None => return None,
                Some(h) => wm = Some(wm.map_or(h, |w| w.min(h))),
            }
        }
        wm
    }

    /// Aborts: undoes every entry of the undo log, newest first.
    ///
    /// One pass serves every kind of entry because the order between
    /// two entries matters only when they touch the same structure, and
    /// the log keeps the order of those: stream bookkeeping, window
    /// staging and cursors, and the tables are disjoint, so undoing the
    /// kinds one after another would give the same state. No arm reads
    /// a structure it does not restore: the row arm is
    /// [`undo_effect`] on the catalog alone. A new kind of entry must
    /// keep this.
    pub fn abort(&mut self) -> Result<()> {
        if !self.in_txn {
            return Err(Error::InvalidState("abort outside transaction".into()));
        }
        // Undo restores rows and bookkeeping but *not* row-id counters
        // (they never rewind) — an aborted insert leaves durable state
        // behind, so the touched tables dirty exactly as on commit.
        self.mark_txn_dirty();
        while let Some(u) = self.undo.pop() {
            self.undo_one(u).map_err(|err| Error::Internal(format!("undo failed: {err}")))?;
        }
        self.outputs.clear();
        self.in_txn = false;
        self.out_batch = None;
        self.note_columnar_batches();
        Ok(())
    }

    /// Undoes one entry of the log; [`ExecutionEngine::abort`] calls it
    /// newest-first.
    fn undo_one(&mut self, u: Undo) -> Result<()> {
        match u {
            Undo::Row(e) => undo_effect(&mut self.catalog, e)?,
            Undo::Appended { stream, batch, n } => self.stream(stream).undo_append(batch, n),
            Undo::Consumed { stream, batch, rows } => self.stream(stream).undo_consume(batch, rows),
            Undo::Forgot { stream, batch, pos, row } => {
                self.stream(stream).undo_forget(batch, pos, row)
            }
            Undo::HighMark { stream, prev } => self.stream_high[stream.index()] = prev,
            Undo::Staged { window, n } => self.tuple_window(window).undo_stage(n),
            Undo::Slid { window, restaged } => self.tuple_window(window).undo_slide(restaged),
            Undo::TimeStaged { window, ts, prev_next_end } => {
                self.time_window(window).undo_stage(ts, prev_next_end)
            }
            Undo::TimeSlid { window, restaged, prev_next_end, prev_fired } => {
                self.time_window(window).undo_slide(restaged, prev_next_end, prev_fired)
            }
        }
        Ok(())
    }

    /// Marks every table/stream/window the open transaction touched as
    /// dirty: the undo log is the precise touch record.
    fn mark_txn_dirty(&mut self) {
        for u in &self.undo {
            self.dirty[u.table().index()] = true;
        }
    }

    /// True while a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.in_txn
    }

    // ------------------------------------------------------------------
    // Statement execution + trigger cascade
    // ------------------------------------------------------------------

    /// Executes a compiled statement within the current transaction,
    /// cascading EE triggers.
    pub fn exec(&mut self, stmt: StmtId, params: &[Value]) -> Result<QueryResult> {
        self.exec_plan(Plan::Compiled(stmt), params)
    }

    /// Runs a compiled `INSERT … VALUES` once per parameter row, in
    /// order: what as many [`ExecutionEngine::exec`] calls would do,
    /// stopping at the first error with the earlier rows applied (see
    /// [`ExecutionEngine::insert`]). Returns the rows affected. Any
    /// other statement is refused with [`Error::Plan`].
    pub fn exec_rows<P: AsRef<[Value]>>(&mut self, stmt: StmtId, rows: &[P]) -> Result<usize> {
        match self.stmts.get(stmt).ok_or_else(|| Error::not_found("statement id", stmt.to_string()))? {
            BoundStatement::Insert(i) if i.select.is_none() => {
                if !self.in_txn {
                    return Err(Error::InvalidState("exec outside transaction".into()));
                }
                let built = build_insert(&mut self.catalog, i, rows);
                self.insert(i.table, built)
            }
            _ => Err(Error::Plan(format!(
                "{} is not an INSERT … VALUES: only those run over parameter rows",
                self.ids.stmt_name(stmt)
            ))),
        }
    }

    /// Executes an already-bound statement within the current
    /// transaction — same effects/undo/cascade discipline as a
    /// compiled procedure statement. This is the execution half of
    /// ad-hoc SQL: the statement was planned at the engine edge
    /// against the shared catalog layout ([`build_catalog`]), so its
    /// table ids are valid here.
    pub fn exec_bound(&mut self, bound: &BoundStatement, params: &[Value]) -> Result<QueryResult> {
        self.exec_plan(Plan::Bound(bound), params)
    }

    /// [`ExecutionEngine::exec`] and [`ExecutionEngine::exec_bound`]. A
    /// compiled plan stays borrowed where it is, beside the catalog the
    /// statement writes, until the statement has run.
    fn exec_plan(&mut self, plan: Plan<'_>, params: &[Value]) -> Result<QueryResult> {
        let bound = match plan {
            Plan::Compiled(stmt) => {
                self.stmts.get(stmt).ok_or_else(|| Error::not_found("statement id", stmt.to_string()))?
            }
            Plan::Bound(bound) => bound,
        };
        if !self.in_txn {
            return Err(Error::InvalidState("exec outside transaction".into()));
        }
        let rewritten = match bound {
            BoundStatement::Update(u) => Some(u.scan.table),
            BoundStatement::Delete(d) => Some(d.scan.table),
            _ => None,
        };
        if let Some(w) = rewritten.filter(|t| self.windows[t.index()].is_some()) {
            return Err(window_is_append_only(self.ids.table_name(w)));
        }
        if let BoundStatement::Insert(i) = bound {
            let built = build_insert(&mut self.catalog, i, &[params]);
            let rows_affected = self.insert(i.table, built)?;
            return Ok(QueryResult { rows_affected, ..QueryResult::default() });
        }
        let forget = match bound {
            BoundStatement::Delete(d) if self.streams[d.scan.table.index()].is_some() => Some(d.scan.table),
            _ => None,
        };
        // The statement's effects join the log whether or not it
        // failed: a failed statement may have written rows.
        let start = self.undo.len();
        let r = execute(&mut self.catalog, bound, params, &mut self.scratch);
        self.undo.extend(self.scratch.drain(..).map(Undo::Row));
        let r = r?;
        if let Some(stream) = forget {
            self.forget_deleted(stream, start);
        }
        Ok(r)
    }

    /// Drops the rows a SQL DELETE on `stream` logged at `[start..)` from
    /// the stream's batches, so no batch names a row its table no longer
    /// holds.
    fn forget_deleted(&mut self, stream: TableId, start: usize) {
        for i in start..self.undo.len() {
            let Undo::Row(Effect::Delete { row, .. }) = self.undo[i] else { continue };
            if let Some((batch, pos)) = self.stream(stream).forget_row(row) {
                self.undo.push(Undo::Forgot { stream, batch, pos, row });
            }
        }
    }

    /// Applies an INSERT's rows into `table`, built once per parameter
    /// row in order ([`build_insert`]), exactly as that many one-row
    /// statements would: a parameter row's rows all build (and, for a
    /// window, pass its schema) or none is applied, and the first error
    /// stops the batch with the earlier rows applied. A window takes
    /// them in one arrival; a table in one insert loop; a stream takes
    /// one arrival per parameter row, since that many statements would
    /// fire its EE triggers that many times.
    fn insert(&mut self, table: TableId, (mut rows, per, mut built): Built) -> Result<usize> {
        let n = rows.len();
        let applied = if self.windows[table.index()].is_some() {
            // A window checks rows as its table would on insert, before
            // staging any of a parameter row's.
            let schema = self.catalog.get(table).schema();
            let check = |(k, t): (usize, &Tuple)| schema.validate(t.values()).map_err(|e| (k, e));
            if let Err((k, e)) = rows.iter().enumerate().try_for_each(check) {
                rows.truncate(k - k % per);
                built = Err(e);
            }
            self.window_arrival(table, rows, per)
        } else {
            self.table_arrival(table, rows, per)
        };
        // An error applying a row comes from an earlier parameter row
        // than the one that failed to build.
        applied.and(built).map(|()| n)
    }

    /// Drains the sql crate's thread-local read-path counters (batches,
    /// windowed batches, per-reason fallbacks) into the engine metrics.
    /// The thread-local is the partition-local count: statements add to
    /// it, and it is folded into the engine-wide counters — which every
    /// partition thread writes — once a transaction, at commit or abort,
    /// and after an ad-hoc query, so the totals are exact after any
    /// drain. A counter is touched only when it has something to add.
    fn note_columnar_batches(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        let c = sstore_sql::batch::take_path_counters();
        if c.batches != 0 {
            self.metrics.columnar_batches.fetch_add(c.batches, Relaxed);
        }
        if c.window_batches != 0 {
            self.metrics.columnar_window_batches.fetch_add(c.window_batches, Relaxed);
        }
        if c.fallback_small != 0 {
            self.metrics.columnar_fallback_small.fetch_add(c.fallback_small, Relaxed);
        }
        if c.fallback_shape != 0 {
            self.metrics.columnar_fallback_shape.fetch_add(c.fallback_shape, Relaxed);
        }
    }

    /// Observes a transaction's *input* rows for event-time tracking:
    /// border and exchange invocations hand their batch straight to
    /// the procedure body without ever inserting into the input stream
    /// table, so this is where their timestamps advance the stream's
    /// high mark (undo-ably). No-op for streams without a timestamp
    /// column — callers skip the boundary crossing entirely then.
    pub fn observe_input(&mut self, stream: TableId, rows: &[Tuple]) -> Result<()> {
        if !self.in_txn {
            return Err(Error::InvalidState("observe_input outside transaction".into()));
        }
        if let Some(col) = self.ts_col(stream, TableKind::Stream) {
            let hi = self.max_event_ts(stream, col, rows.iter().map(Ok))?;
            self.raise_high_mark(stream, hi);
        }
        Ok(())
    }

    /// Extracts a stream or window row's event timestamp, naming the
    /// table by its kind on failure. Rejects timestamps outside the
    /// supported range — pane arithmetic is overflow-free only inside
    /// it, and a malformed tuple must abort its transaction, not the
    /// engine.
    fn event_ts_of(&self, table: TableId, col: usize, t: &Tuple) -> Result<i64> {
        let named = |what: String| {
            let kind = match self.catalog.get(table).kind() {
                TableKind::Window => "window",
                _ => "stream",
            };
            Error::StreamViolation(format!("{kind} {}: {what}", self.ids.table_name(table)))
        };
        let ts = t.event_ts(col).map_err(|e| named(format!("bad event timestamp: {e}")))?;
        if !crate::window::event_ts_in_range(ts) {
            return Err(named(format!("event timestamp {ts} outside the supported range")));
        }
        Ok(ts)
    }

    /// The largest event timestamp among a stream's `rows` (`None` for
    /// none): the one fold both watermark inputs — rows handed to a
    /// procedure, rows inserted into a stream — go through.
    fn max_event_ts<'t>(
        &self,
        stream: TableId,
        col: usize,
        rows: impl IntoIterator<Item = Result<&'t Tuple>>,
    ) -> Result<Option<i64>> {
        rows.into_iter().try_fold(None, |hi, t| Ok(hi.max(Some(self.event_ts_of(stream, col, t?)?))))
    }

    /// Raises a stream's event-time high mark to `hi` if that is higher
    /// (monotone), recording the undo exactly once per change — the
    /// single place the watermark-input/undo discipline lives.
    fn raise_high_mark(&mut self, stream: TableId, hi: Option<i64>) {
        let prev = self.stream_high[stream.index()];
        if hi > prev {
            self.stream_high[stream.index()] = hi;
            self.undo.push(Undo::HighMark { stream, prev });
        }
    }

    /// Inserts tuples onto a stream (used by `ProcCtx::emit` and batch
    /// injection), as one arrival, exactly like a SQL insert would.
    pub fn emit(&mut self, stream: TableId, rows: Vec<Tuple>) -> Result<()> {
        if !self.in_txn {
            return Err(Error::InvalidState("emit outside transaction".into()));
        }
        if self.catalog.get(stream).kind() != TableKind::Stream {
            return Err(Error::StreamViolation(format!(
                "{} is not a stream",
                self.ids.table_name(stream)
            )));
        }
        self.stream_insert(stream, rows.into_iter())
    }

    /// Inserts `rows` into a stream's table and hands the ids they were
    /// given to [`ExecutionEngine::stream_arrival`]: the one way rows
    /// enter a stream.
    fn stream_insert(&mut self, stream: TableId, rows: impl ExactSizeIterator<Item = Tuple>) -> Result<()> {
        let mut ids = Vec::with_capacity(rows.len());
        for t in rows {
            ids.push(self.table_insert(stream, t)?);
        }
        self.stream_arrival(stream, ids)
    }

    /// Consumes a batch from a stream: removes its rows from the table
    /// (undo-ably) and returns the tuples in arrival order. With
    /// `require`, a missing batch is an error; otherwise it yields an
    /// empty input (used by nested children that may receive no data in
    /// a given round).
    pub fn consume(&mut self, stream: TableId, batch: BatchId, require: bool) -> Result<Vec<Tuple>> {
        if !self.in_txn {
            return Err(Error::InvalidState("consume outside transaction".into()));
        }
        let state = self.streams[stream.index()]
            .as_mut()
            .ok_or_else(|| Error::not_found("stream", self.ids.table_name(stream).to_string()))?;
        if !require && !state.contains(batch) {
            return Ok(Vec::new());
        }
        let ids = state.consume(batch)?;
        self.undo.push(Undo::Consumed { stream, batch, rows: ids.clone() });
        // A batch consumed in the same transaction that produced it
        // (nested-transaction children, §2.3) is internal: it must not
        // surface as a PE-trigger output at commit.
        self.outputs.retain(|(s, b)| !(*s == stream && *b == batch));
        let mut rows = Vec::with_capacity(ids.len());
        for id in ids {
            rows.push(self.table_delete(stream, id)?);
        }
        Ok(rows)
    }

    /// Inserts an INSERT's rows into a base table in one loop, or into a
    /// stream one parameter row's `per` rows at a time, each group an
    /// arrival as its statement's would be.
    fn table_arrival(&mut self, table: TableId, rows: Vec<Tuple>, per: usize) -> Result<()> {
        let mut rows = rows.into_iter();
        if self.catalog.get(table).kind() != TableKind::Stream {
            return rows.try_for_each(|t| self.table_insert(table, t).map(drop));
        }
        while rows.len() > 0 {
            self.stream_insert(table, rows.by_ref().take(per))?;
        }
        Ok(())
    }

    /// Stages the rows of an `INSERT INTO <window>`, already checked
    /// against the window's schema, `per` rows to a parameter row. A
    /// tuple window takes each parameter row's rows and then processes
    /// the count-driven slides they unlock, firing on-slide EE triggers,
    /// as one statement would; time windows slide only when the
    /// watermark says so — see [`ExecutionEngine::process_slides`].
    fn window_arrival(&mut self, window: TableId, mut rows: Vec<Tuple>, per: usize) -> Result<()> {
        match self.windows[window.index()] {
            Some(WindowSlot::Tuple(_)) => {
                while !rows.is_empty() {
                    let rest = rows.split_off(per.min(rows.len()));
                    self.tuple_window_arrival(window, std::mem::replace(&mut rows, rest))?;
                }
                Ok(())
            }
            Some(WindowSlot::Time(_)) => self.time_window_arrival(window, rows),
            None => Err(Error::not_found("window", self.ids.table_name(window).to_string())),
        }
    }

    fn tuple_window_arrival(&mut self, window: TableId, rows: Vec<Tuple>) -> Result<()> {
        let Some(WindowSlot::Tuple(w)) = self.windows[window.index()].as_mut() else {
            unreachable!("caller dispatched on the tuple variant");
        };
        self.undo.push(Undo::Staged { window, n: rows.len() });
        w.stage(rows);
        let trig = self.ee_triggers[window.index()].clone().unwrap_or_else(|| Arc::from([]));
        loop {
            let active = self.catalog.get(window).len();
            let Some(WindowSlot::Tuple(w)) = self.windows[window.index()].as_mut() else {
                unreachable!("variant is stable");
            };
            let Some(outcome) = w.next_slide(active) else { break };
            self.undo.push(Undo::Slid { window, restaged: outcome.activated.clone() });
            // The oldest rows are the first of the scan: ids are issued
            // in activation order.
            let expired: Vec<RowId> =
                self.catalog.get(window).scan_ordered().take(outcome.expire).map(|(id, _)| id).collect();
            for id in expired {
                self.table_delete(window, id)?;
            }
            for t in outcome.activated {
                self.table_insert(window, t)?;
            }
            for sid in trig.iter() {
                EngineMetrics::bump(&self.metrics.ee_trigger_fires);
                self.exec(*sid, &[])?;
            }
        }
        Ok(())
    }

    /// Time-window arrival: each tuple is staged by event timestamp,
    /// merged into the active extent (late, within lateness: the one
    /// arrival that is a table insert), or counted and dropped (beyond
    /// lateness). No slides fire here — only the watermark fires
    /// slides, at commit.
    fn time_window_arrival(&mut self, window: TableId, rows: Vec<Tuple>) -> Result<()> {
        let ts_col = self
            .ts_col(window, TableKind::Window)
            .ok_or_else(|| Error::Internal("time window lost its ts column".into()))?;
        for t in rows {
            let ts = self.event_ts_of(window, ts_col, &t)?;
            let w = self.time_window(window);
            match w.classify(ts) {
                TimeArrival::Staged => {
                    let prev_next_end = w.next_end();
                    w.stage(ts, t);
                    self.undo.push(Undo::TimeStaged { window, ts, prev_next_end });
                }
                TimeArrival::MergeIntoActive => {
                    self.table_insert(window, t)?;
                    EngineMetrics::bump(&self.metrics.window_late_merged);
                }
                TimeArrival::DroppedLate => EngineMetrics::bump(&self.metrics.window_late_dropped),
            }
        }
        Ok(())
    }

    /// Applies every pending watermark-driven slide of a time window,
    /// firing its on-slide EE triggers. Runs inside a transaction — the
    /// partition engine schedules one slide transaction per window
    /// flagged by [`CommitOutcome::slides`]. Each slide is told the
    /// oldest timestamp the table holds at that moment, and expires the
    /// rows below its extent's start before activating its tuples. A
    /// pass that leaves a slide pending is an `Internal` error naming
    /// the window, not a slide the partition would schedule forever.
    pub fn process_slides(&mut self, window: TableId) -> Result<()> {
        if !self.in_txn {
            return Err(Error::InvalidState("slide outside transaction".into()));
        }
        let Some(col) = self.ts_col(window, TableKind::Window) else {
            return Err(Error::not_found("time window", self.ids.table_name(window).to_string()));
        };
        let trig = self.ee_triggers[window.index()].clone().unwrap_or_else(|| Arc::from([]));
        loop {
            // Below the next extent's end, `next_slide` answers `None`
            // without reading `oldest` or moving the cursor: the last
            // pass skips the table scan.
            let w = self.time_window(window);
            if !matches!((w.watermark(), w.next_end()), (Some(wm), Some(e)) if wm >= e) {
                break;
            }
            let oldest = self.oldest_event_ts(window, col)?;
            let w = self.time_window(window);
            let (prev_next_end, prev_fired) = (w.next_end(), w.fired());
            let Some(outcome) = w.next_slide(oldest) else {
                // Extents skipped as trivial on the way to `None` moved
                // the cursor too.
                if let Some(prev_next_end) = prev_next_end.filter(|&e| w.next_end() != Some(e)) {
                    let restaged = Vec::new();
                    self.undo.push(Undo::TimeSlid { window, restaged, prev_next_end, prev_fired });
                }
                break;
            };
            self.undo.push(Undo::TimeSlid {
                window,
                restaged: outcome.activated.clone(),
                prev_next_end: outcome.prev_next_end,
                prev_fired: outcome.prev_fired,
            });
            for (_, row) in self.rows_below(window, col, outcome.start)? {
                self.table_delete(window, row)?;
            }
            for (_, t) in outcome.activated {
                self.table_insert(window, t)?;
            }
            EngineMetrics::bump(&self.metrics.window_slides);
            for sid in trig.iter() {
                EngineMetrics::bump(&self.metrics.ee_trigger_fires);
                self.exec(*sid, &[])?;
            }
        }
        // The loop stops below `next_end` or where `next_slide` finds
        // nothing, and neither leaves a slide pending.
        let rows = self.catalog.get(window).len();
        if self.time_window(window).has_pending_slides(rows) {
            return Err(Error::Internal(format!(
                "time window {} still has a pending slide after its slide pass",
                self.ids.table_name(window)
            )));
        }
        Ok(())
    }

    /// Takes freshly inserted stream rows: fires the stream's EE triggers
    /// and then garbage-collects the rows, or labels them with the
    /// transaction's batch id and records the batch for PE-trigger firing
    /// at commit.
    fn stream_arrival(&mut self, stream: TableId, rows: Vec<RowId>) -> Result<()> {
        let Some(batch) = self.out_batch else {
            return Err(Error::StreamViolation(format!(
                "insert into stream {} outside a streaming transaction \
                 (OLTP transactions may only access public tables, §2)",
                self.ids.table_name(stream)
            )));
        };
        // Event-timed streams advance their high mark (a watermark
        // input) as rows arrive — before any EE trigger can GC them.
        if let Some(col) = self.ts_col(stream, TableKind::Stream) {
            let table = self.catalog.get(stream);
            let tuples = rows.iter().map(|id| {
                table.get(*id).ok_or_else(|| {
                    Error::Internal("stream row vanished before high-mark update".into())
                })
            });
            let hi = self.max_event_ts(stream, col, tuples)?;
            self.raise_high_mark(stream, hi);
        }
        if let Some(stmts) = self.ee_triggers[stream.index()].clone() {
            for sid in stmts.iter() {
                EngineMetrics::bump(&self.metrics.ee_trigger_fires);
                self.exec(*sid, &[])?;
            }
            // Automatic GC (§3.2.3): the triggering tuples have been
            // fully processed inside this EE visit. No PE trigger can
            // wait on the batch (a stream has EE or PE triggers, never
            // both), so it is never entered in the stream's bookkeeping.
            for id in rows {
                self.table_delete(stream, id)?;
            }
            return Ok(());
        }
        let n = rows.len();
        self.streams[stream.index()]
            .as_mut()
            .ok_or_else(|| Error::not_found("stream", self.ids.table_name(stream).to_string()))?
            .append(batch, rows);
        self.undo.push(Undo::Appended { stream, batch, n });
        if !self.outputs.iter().any(|(s, b)| *s == stream && *b == batch) {
            self.outputs.push((stream, batch));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Effect-recording table primitives
    // ------------------------------------------------------------------

    fn table_insert(&mut self, table: TableId, tuple: Tuple) -> Result<RowId> {
        let id = self.catalog.get_mut(table).insert(tuple)?;
        self.undo.push(Undo::Row(Effect::Insert { table, row: id }));
        Ok(id)
    }

    fn table_delete(&mut self, table: TableId, row: RowId) -> Result<Tuple> {
        let tuple = self.catalog.get_mut(table).delete(row)?;
        self.undo.push(Undo::Row(Effect::Delete { table, row, tuple: tuple.clone() }));
        Ok(tuple)
    }

    /// The event-timestamp column of `table` if it is of `kind`: a
    /// timed stream's or a time window's, as the compile step resolved.
    fn ts_col(&self, table: TableId, kind: TableKind) -> Option<usize> {
        let meta = self.ids.table(table);
        meta.ts_col.filter(|_| meta.kind == kind)
    }

    /// The smallest event timestamp (column `col`) among a time
    /// window's live rows; `None` when its table is empty.
    fn oldest_event_ts(&self, window: TableId, col: usize) -> Result<Option<i64>> {
        let mut oldest: Option<i64> = None;
        for (_, t) in self.catalog.get(window).scan_ordered() {
            let ts = t.event_ts(col)?;
            oldest = Some(oldest.map_or(ts, |o| o.min(ts)));
        }
        Ok(oldest)
    }

    /// `(event-ts, row)` of a time window's live rows below `start`, in
    /// `(ts, row id)` order: the rows a slide of extent `[start, …)`
    /// expires, oldest timestamp first and arrival order within one.
    fn rows_below(&self, window: TableId, col: usize, start: i64) -> Result<Vec<(i64, RowId)>> {
        let mut rows = Vec::new();
        for (id, t) in self.catalog.get(window).scan_ordered() {
            let ts = t.event_ts(col)?;
            if ts < start {
                rows.push((ts, id));
            }
        }
        rows.sort_unstable();
        Ok(rows)
    }

    fn stream(&mut self, stream: TableId) -> &mut StreamState {
        self.streams[stream.index()].as_mut().expect("only streams have batches")
    }

    fn tuple_window(&mut self, window: TableId) -> &mut WindowState {
        match self.windows[window.index()].as_mut() {
            Some(WindowSlot::Tuple(w)) => w,
            _ => unreachable!("only tuple windows stage by count"),
        }
    }

    fn time_window(&mut self, window: TableId) -> &mut TimeWindowState {
        match self.windows[window.index()].as_mut() {
            Some(WindowSlot::Time(w)) => w,
            _ => unreachable!("only time windows have a timestamp column"),
        }
    }

    // ------------------------------------------------------------------
    // Out-of-transaction services
    // ------------------------------------------------------------------

    /// The partition's tables (tests: plans, access-path counters,
    /// [`Table::verify`](sstore_storage::Table::verify)).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Runs an ad-hoc read-only query (tests, examples, H-Store-mode
    /// clients inspecting results): plans it, then
    /// [`ExecutionEngine::query_bound`].
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        self.query_bound(&Planner::new(&self.catalog).plan_sql(sql)?, params)
    }

    /// Runs a planned ad-hoc read. Mutating statements are rejected.
    /// Debug builds check the queried table against its rows first
    /// ([`Table::verify`](sstore_storage::Table::verify)), and a window
    /// against its table ([`ExecutionEngine::verify_window`]), which is
    /// how chaos and the crash tests — every `Engine::query` lands here —
    /// would notice an index, a group index or a window that drifted;
    /// release builds just answer.
    pub fn query_bound(&self, bound: &BoundStatement, params: &[Value]) -> Result<QueryResult> {
        match bound {
            BoundStatement::Select(s) => {
                if cfg!(debug_assertions) {
                    self.catalog.get(s.from.table).verify()?;
                    self.verify_window(s.from.table)?;
                }
                let r = sstore_sql::exec::run_select(&self.catalog, s, params);
                self.note_columnar_batches();
                r
            }
            _ => Err(Error::Plan("ad-hoc statements must be read-only SELECTs".into())),
        }
    }

    /// Checks a window against its table ([`WindowState::check`],
    /// [`TimeWindowState::check`]); any other table passes.
    pub fn verify_window(&self, table: TableId) -> Result<()> {
        match &self.windows[table.index()] {
            Some(WindowSlot::Tuple(w)) => w.check(self.catalog.get(table).len()),
            Some(WindowSlot::Time(w)) => w.check(),
            None => Ok(()),
        }
    }

    /// Live row count of a table.
    pub fn table_len(&self, name: &str) -> Result<usize> {
        Ok(self.catalog.table(name)?.len())
    }

    /// Access-path counters of a table (how many equality lookups an
    /// index answered, how many fell back to a scan).
    pub fn table_stats(&self, name: &str) -> Result<&sstore_storage::stats::TableStats> {
        Ok(self.catalog.table(name)?.stats())
    }

    /// Pending (uncommitted-to-downstream) batches on a stream.
    pub fn stream_pending(&self, name: &str) -> Result<Vec<BatchId>> {
        let id = self.table_id(name)?;
        Ok(self.streams[id.index()]
            .as_ref()
            .ok_or_else(|| Error::not_found("stream", name))?
            .pending())
    }

    /// All streams with pending batches (recovery: trigger re-firing),
    /// in table-id order (deterministic — ids follow declaration order).
    pub fn dangling_batches(&self) -> Vec<(TableId, BatchId)> {
        let mut out: Vec<(TableId, BatchId)> = Vec::new();
        for (i, state) in self.streams.iter().enumerate() {
            if let Some(s) = state {
                for b in s.pending() {
                    out.push((TableId(i as u32), b));
                }
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serializes all partition state (tables, stream bookkeeping,
    /// window staging and cursors) into a **base** checkpoint image: the catalog
    /// image as one byte string, then the stream and window sections.
    /// Everything is keyed by name and ordered by name, so the byte
    /// layout is independent of id assignment. Clears the dirty set:
    /// the image adopts everything.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>> {
        if self.in_txn {
            return Err(Error::InvalidState("checkpoint during transaction".into()));
        }
        self.dirty.fill(false);
        let mut e = Encoder::with_capacity(4096);
        e.put_bytes(&snapshot::encode_catalog(&self.catalog));
        self.encode_sections(&mut e, &self.names_where(|_| true));
        Ok(e.finish())
    }

    /// Serializes only the state dirtied since the last image into a
    /// **delta** checkpoint: dirty catalog tables (any kind — each
    /// whole: its rows, indexes, and row-id counter, as one frame),
    /// dirty streams' bookkeeping, and dirty windows' staging and cursors
    /// (what is active in a window is its table frame). Clears
    /// the dirty set. Recovery restores the newest image of everything
    /// in a chain ([`ExecutionEngine::restore_chain`]).
    pub fn checkpoint_delta(&mut self) -> Result<Vec<u8>> {
        if self.in_txn {
            return Err(Error::InvalidState("checkpoint during transaction".into()));
        }
        let names = self.names_where(|id| self.dirty[id.index()]);
        let mut e = Encoder::with_capacity(1024);
        e.put_seq(&names, |e, &(_, id)| snapshot::encode_table_image(e, self.catalog.get(id)));
        self.encode_sections(&mut e, &names);
        self.dirty.fill(false);
        Ok(e.finish())
    }

    /// The tables `keep` selects, as `(name, id)` in name order.
    fn names_where(&self, keep: impl Fn(TableId) -> bool) -> Vec<(&str, TableId)> {
        let mut names: Vec<(&str, TableId)> = (0..self.ids.table_count())
            .map(|i| TableId(i as u32))
            .filter(|&id| keep(id))
            .map(|id| (&**self.ids.table_name(id), id))
            .collect();
        names.sort();
        names
    }

    /// Writes the stream section and the window section of an image
    /// for the streams and windows among `names`.
    fn encode_sections(&self, e: &mut Encoder, names: &[(&str, TableId)]) {
        let streams: Vec<_> = names
            .iter()
            .filter_map(|&(name, id)| Some((name, self.streams[id.index()].as_ref()?, id)))
            .collect();
        e.put_seq(streams, |e, (name, state, id)| {
            e.put_str(name);
            state.encode(e);
            // Event-time high mark (watermark input): recovery must
            // reconverge watermarks deterministically, and replay alone
            // cannot rebuild high marks for rows inside the snapshot.
            e.put_opt_i64(self.stream_high[id.index()]);
        });
        let windows: Vec<_> =
            names.iter().filter_map(|(_, id)| self.windows[id.index()].as_ref()).collect();
        e.put_seq(windows, |e, w| w.encode(e));
    }

    /// Restores partition state from an epoch chain: a base image
    /// followed by its deltas, oldest first. **The newest image wins**:
    /// one pass over the chain finds, for every table, the last frame
    /// that carries it, stepping over each superseded frame by its
    /// length; only the winners are decoded, once each. Stream and
    /// window sections are not framed (they hold bookkeeping, not
    /// rows), so they are decoded in chain order and a later one
    /// overwrites an earlier one — the same rule. The result is the
    /// state a restore of the base followed by applying each delta in
    /// turn would give. Nothing is adopted unless the whole chain
    /// decodes.
    ///
    /// Compiled statements remain valid: the restored schemas and
    /// indexes are identical to the app's definitions, and tables are
    /// re-installed under their original [`TableId`]s (images name
    /// tables; ids come from the install-time interning).
    pub fn restore_chain(&mut self, images: &[Vec<u8>]) -> Result<()> {
        if self.in_txn {
            return Err(Error::InvalidState("restore during transaction".into()));
        }
        let Some((base, deltas)) = images.split_first() else {
            return Err(Error::InvalidState("empty checkpoint chain".into()));
        };
        let n = self.ids.table_count();
        let mut newest: Vec<Option<snapshot::TableFrame<'_>>> = vec![None; n];
        let mut sections = Sections {
            streams: (0..n).map(|_| None).collect(),
            stream_high: vec![None; n],
            windows: (0..n).map(|_| None).collect(),
        };
        let mut skipped = 0u64;

        let mut d = Decoder::new(base);
        for frame in snapshot::catalog_frames(d.get_bytes()?)? {
            let id = self.image_table(0, &frame.name)?;
            if newest[id.index()].replace(frame).is_some() {
                return Err(Error::Codec("checkpoint image repeats a table".into()));
            }
        }
        if let Some(i) = newest.iter().position(Option::is_none) {
            let name = self.ids.table_name(TableId(i as u32));
            return Err(Error::Codec(format!("checkpoint image is missing table {name}")));
        }
        self.decode_sections(0, &mut d, &mut sections)?;
        for (image, delta) in (1..).zip(deltas) {
            let mut d = Decoder::new(delta);
            // A table frame is at least its u64 length.
            for _ in 0..d.get_count(8, "table")? {
                let frame = snapshot::TableFrame::read(&mut d)?;
                let id = self.image_table(image, &frame.name)?;
                newest[id.index()] = Some(frame);
                skipped += 1;
            }
            self.decode_sections(image, &mut d, &mut sections)?;
        }

        // Re-install in id order so every table keeps its interned id.
        // Group indexes are in no image: each table takes its
        // predecessor's definitions and rebuilds them from its rows.
        let mut catalog = Catalog::new();
        for frame in newest.iter().flatten() {
            let mut table = frame.decode()?;
            for def in self.catalog.table(table.name())?.group_index_defs() {
                table.create_group_index(def.clone())?;
            }
            catalog.install_table(table)?;
        }
        use std::sync::atomic::Ordering::Relaxed;
        self.metrics.restore_images_decoded.fetch_add(n as u64, Relaxed);
        self.metrics.restore_images_skipped.fetch_add(skipped, Relaxed);
        self.catalog = catalog;
        self.streams = sections.streams;
        self.stream_high = sections.stream_high;
        self.windows = sections.windows;
        // State now equals the chain: the next delta is relative to it.
        self.dirty.fill(false);
        Ok(())
    }

    /// The id of a table, stream or window that image `image` of a
    /// chain (0 is the base) names: a name the app does not declare
    /// makes the image malformed.
    fn image_table(&self, image: usize, name: &str) -> Result<TableId> {
        self.ids.table_id(name).ok_or_else(|| {
            Error::Codec(format!("checkpoint image {image} of the chain names unknown table {name}"))
        })
    }

    /// Reads the stream section and the window section that end image
    /// `image` of a chain into `into`, overwriting what an older image
    /// put there.
    fn decode_sections(&self, image: usize, d: &mut Decoder<'_>, into: &mut Sections) -> Result<()> {
        // A stream entry is at least a name length, a batch count and a
        // high-mark tag; a window section at least a variant tag, two
        // name lengths, size, slide and a staging count (a tuple window).
        for _ in 0..d.get_count(3, "stream")? {
            let name = d.get_str()?;
            let state = StreamState::decode(d)?;
            let high = d
                .get_opt_i64()
                .map_err(|e| Error::Codec(format!("stream {name}: high mark in checkpoint: {e}")))?;
            let id = self.image_table(image, &name)?;
            into.streams[id.index()] = Some(state);
            into.stream_high[id.index()] = high;
        }
        for _ in 0..d.get_count(6, "window")? {
            let w = WindowSlot::decode(d)?;
            let id = self.image_table(image, w.name())?;
            into.windows[id.index()] = Some(w);
        }
        if !d.is_exhausted() {
            return Err(Error::Codec("trailing bytes in EE checkpoint".into()));
        }
        Ok(())
    }
}

/// The id-indexed stream and window state a checkpoint chain resolves
/// to, gathered while the chain is read and adopted only if all of it
/// decodes.
struct Sections {
    streams: Vec<Option<StreamState>>,
    stream_high: Vec<Option<i64>>,
    windows: Vec<Option<WindowSlot>>,
}

/// Where [`ExecutionEngine::exec_plan`] finds its plan.
enum Plan<'a> {
    /// The EE's own, by id.
    Compiled(StmtId),
    /// Planned elsewhere (ad-hoc SQL).
    Bound(&'a BoundStatement),
}

/// An INSERT's rows, built before any is applied: every parameter row's
/// before the first that failed, the rows per parameter row — a
/// template's, or a SELECT's (one parameter row only) — and that failure.
type Built = (Vec<Tuple>, usize, Result<()>);

/// Builds an INSERT's rows once per parameter row, in one
/// [`insert_rows`] pass.
fn build_insert<P: AsRef<[Value]>>(catalog: &mut Catalog, i: &BoundInsert, params: &[P]) -> Built {
    let mut rows = Vec::with_capacity(params.len() * i.row_template.len());
    let built = insert_rows(catalog, i, params, &mut rows);
    let per = if i.select.is_some() { rows.len().max(1) } else { i.row_template.len() };
    (rows, per, built)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::App;
    use sstore_common::{tuple, DataType, Schema};

    fn simple_schema() -> Schema {
        Schema::of(&[("v", DataType::Int)])
    }

    /// s1 --EE trigger--> s2 --EE trigger--> s3 (no trigger ⇒ output)
    fn chain_app() -> App {
        App::builder()
            .stream("s1", simple_schema())
            .stream("s2", simple_schema())
            .stream("s3", simple_schema())
            .table("sink", simple_schema())
            .proc("driver", &[("ins", "INSERT INTO s1 (v) VALUES (?)")], &[], |_| Ok(()))
            .proc("downstream", &[], &[], |_| Ok(()))
            .pe_trigger("s3", "downstream")
            .ee_trigger("s1", &["INSERT INTO s2 (v) SELECT v + 10 FROM s1"])
            .ee_trigger("s2", &["INSERT INTO s3 (v) SELECT v + 100 FROM s2"])
            .build()
            .unwrap()
    }

    fn ee(app: &App) -> (ExecutionEngine, ProcStmtMap) {
        let ids = Arc::new(AppIds::build(app).unwrap());
        ExecutionEngine::install(app, ids, Arc::new(EngineMetrics::new())).unwrap()
    }

    #[test]
    fn ee_trigger_chain_cascades_and_gcs() {
        let app = chain_app();
        let (mut ee, map) = ee(&app);
        let ins = map["driver"]["ins"];
        ee.begin(Some(BatchId(1))).unwrap();
        ee.exec(ins, &[Value::Int(1)]).unwrap();
        let outputs = ee.commit().unwrap().outputs;
        // s1 and s2 were consumed by EE triggers and GC'd.
        assert_eq!(ee.table_len("s1").unwrap(), 0);
        assert_eq!(ee.table_len("s2").unwrap(), 0);
        // s3 holds the transformed tuple, awaiting its PE trigger.
        assert_eq!(ee.table_len("s3").unwrap(), 1);
        let s3 = ee.table_id("s3").unwrap();
        assert_eq!(outputs, vec![(s3, BatchId(1))]);
        let r = ee.query("SELECT v FROM s3", &[]).unwrap();
        assert_eq!(r.rows, vec![tuple![111i64]]);
        assert_eq!(ee.stream_pending("s3").unwrap(), vec![BatchId(1)]);
    }

    #[test]
    fn consume_drains_batch() {
        let app = chain_app();
        let (mut ee, map) = ee(&app);
        let s3 = ee.table_id("s3").unwrap();
        ee.begin(Some(BatchId(1))).unwrap();
        ee.exec(map["driver"]["ins"], &[Value::Int(1)]).unwrap();
        ee.commit().unwrap();
        ee.begin(Some(BatchId(1))).unwrap();
        let rows = ee.consume(s3, BatchId(1), true).unwrap();
        assert_eq!(rows, vec![tuple![111i64]]);
        assert_eq!(ee.table_len("s3").unwrap(), 0);
        // Double consume fails loudly; optional consume yields empty.
        assert!(ee.consume(s3, BatchId(1), true).is_err());
        assert!(ee.consume(s3, BatchId(1), false).unwrap().is_empty());
        ee.commit().unwrap();
    }

    #[test]
    fn abort_restores_everything() {
        let app = chain_app();
        let (mut ee, map) = ee(&app);
        let s3 = ee.table_id("s3").unwrap();
        // Commit one batch into s3.
        ee.begin(Some(BatchId(1))).unwrap();
        ee.exec(map["driver"]["ins"], &[Value::Int(1)]).unwrap();
        ee.commit().unwrap();
        let pending_before = ee.stream_pending("s3").unwrap();
        // Start a second txn that consumes + writes, then abort it.
        ee.begin(Some(BatchId(2))).unwrap();
        ee.consume(s3, BatchId(1), true).unwrap();
        ee.exec(map["driver"]["ins"], &[Value::Int(5)]).unwrap();
        ee.abort().unwrap();
        assert_eq!(ee.table_len("s3").unwrap(), 1);
        assert_eq!(ee.stream_pending("s3").unwrap(), pending_before);
        let r = ee.query("SELECT v FROM s3", &[]).unwrap();
        assert_eq!(r.rows, vec![tuple![111i64]]);
    }

    #[test]
    fn oltp_cannot_write_streams() {
        let app = chain_app();
        let (mut ee, map) = ee(&app);
        ee.begin(None).unwrap(); // OLTP: no batch label
        let err = ee.exec(map["driver"]["ins"], &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, Error::StreamViolation(_)));
        ee.abort().unwrap();
        assert_eq!(ee.table_len("s1").unwrap(), 0);
    }

    #[test]
    fn an_aborted_update_puts_the_row_back_where_it_lives() {
        let app = App::builder()
            .table("t", Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]))
            .proc(
                "p",
                &[("ins", "INSERT INTO t (k, v) VALUES (?, ?)"), ("set", "UPDATE t SET v = ? WHERE k = ?")],
                &[],
                |_| Ok(()),
            )
            .build()
            .unwrap();
        let (mut ee, map) = ee(&app);
        let t = ee.table_id("t").unwrap();
        // The row's address and values, read without cloning the row.
        let row = |ee: &ExecutionEngine| {
            let (_, r) = ee.catalog().get(t).scan_ordered().next().unwrap();
            (r.values().as_ptr(), r.values().to_vec())
        };
        ee.begin(None).unwrap();
        ee.exec(map["p"]["ins"], &[Value::Int(1), Value::Int(10)]).unwrap();
        ee.commit().unwrap();
        let (at, _) = row(&ee);
        ee.begin(None).unwrap();
        ee.exec(map["p"]["set"], &[Value::Int(20), Value::Int(1)]).unwrap();
        assert_eq!(row(&ee), (at, vec![Value::Int(1), Value::Int(20)]));
        ee.abort().unwrap();
        assert_eq!(row(&ee), (at, vec![Value::Int(1), Value::Int(10)]));
    }

    fn window_app() -> App {
        App::builder()
            .stream("arrivals", simple_schema())
            .table("slides_seen", Schema::of(&[("total", DataType::Int)]))
            .window("w", "wproc", simple_schema(), 3, 1)
            .proc(
                "wproc",
                &[("ins", "INSERT INTO w (v) VALUES (?)")],
                &[],
                |_| Ok(()),
            )
            .ee_trigger("w", &["INSERT INTO slides_seen (total) SELECT SUM(v) FROM w"])
            .build()
            .unwrap()
    }

    #[test]
    fn window_staging_slide_and_trigger() {
        let app = window_app();
        let (mut ee, map) = ee(&app);
        let ins = map["wproc"]["ins"];
        ee.begin(Some(BatchId(1))).unwrap();
        for v in 1..=2 {
            ee.exec(ins, &[Value::Int(v)]).unwrap();
        }
        // Staged only: table is empty, no trigger fired.
        assert_eq!(ee.table_len("w").unwrap(), 0);
        assert_eq!(ee.table_len("slides_seen").unwrap(), 0);
        ee.exec(ins, &[Value::Int(3)]).unwrap();
        // First full window: 3 active rows, trigger fired once (SUM=6).
        assert_eq!(ee.table_len("w").unwrap(), 3);
        let r = ee.query("SELECT total FROM slides_seen", &[]).unwrap();
        assert_eq!(r.rows, vec![tuple![6i64]]);
        // One more tuple slides by 1: window = {2,3,4}, SUM=9.
        ee.exec(ins, &[Value::Int(4)]).unwrap();
        assert_eq!(ee.table_len("w").unwrap(), 3);
        let r = ee.query("SELECT total FROM slides_seen ORDER BY total", &[]).unwrap();
        assert_eq!(r.rows, vec![tuple![6i64], tuple![9i64]]);
        ee.commit().unwrap();
    }

    #[test]
    fn window_abort_restores_staging_and_contents() {
        let app = window_app();
        let (mut ee, map) = ee(&app);
        let ins = map["wproc"]["ins"];
        ee.begin(Some(BatchId(1))).unwrap();
        for v in 1..=3 {
            ee.exec(ins, &[Value::Int(v)]).unwrap();
        }
        ee.commit().unwrap();
        ee.begin(Some(BatchId(2))).unwrap();
        ee.exec(ins, &[Value::Int(4)]).unwrap();
        assert_eq!(ee.table_len("slides_seen").unwrap(), 2);
        ee.abort().unwrap();
        // Back to the first full window; the second slide's trigger
        // output is rolled back with it.
        assert_eq!(ee.table_len("w").unwrap(), 3);
        assert_eq!(ee.table_len("slides_seen").unwrap(), 1);
        let r = ee.query("SELECT v FROM w ORDER BY v", &[]).unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn overlapping_windows_get_the_group_indexes_their_statements_can_use() {
        use sstore_storage::GroupIndexDef;
        let kv = || Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let app = App::builder()
            .stream("arrivals", kv())
            .table("out", Schema::of(&[("k", DataType::Int), ("n", DataType::Int)]))
            .window("sliding", "wproc", kv(), 4, 1)
            .window("tumbling", "wproc", kv(), 4, 4)
            .proc(
                "wproc",
                &[
                    ("by_k", "SELECT k, COUNT(*), SUM(v) FROM sliding GROUP BY k"),
                    ("again", "SELECT k, SUM(v) FROM sliding GROUP BY k HAVING COUNT(*) > 1 LIMIT 2"),
                    ("lowest", "SELECT k, MIN(v) FROM sliding GROUP BY k"),
                    ("t_by_k", "SELECT k, COUNT(*) FROM tumbling GROUP BY k"),
                    ("base", "SELECT k, COUNT(*) FROM out GROUP BY k"),
                ],
                &[],
                |_| Ok(()),
            )
            .ee_trigger("sliding", &["INSERT INTO out (k, n) SELECT 0, COUNT(*) FROM sliding"])
            .build()
            .unwrap();
        let (mut ee, _) = ee(&app);
        let defs = |ee: &ExecutionEngine, t: &str| -> Vec<GroupIndexDef> {
            ee.catalog().table(t).unwrap().group_index_defs().cloned().collect()
        };
        // One per distinct shape; MIN derives none.
        let want = vec![
            GroupIndexDef { key_columns: vec![0], agg_columns: vec![1] },
            GroupIndexDef { key_columns: vec![], agg_columns: vec![] },
        ];
        assert_eq!(defs(&ee, "sliding"), want);
        assert!(defs(&ee, "tumbling").is_empty(), "a tumbling window replaces every row");
        assert!(defs(&ee, "out").is_empty(), "base tables derive none");
        // A restore swaps the catalog in; the indexes come back, rebuilt.
        let image = ee.checkpoint().unwrap();
        ee.restore_chain(std::slice::from_ref(&image)).unwrap();
        assert_eq!(defs(&ee, "sliding"), want);
        assert_eq!(ee.checkpoint().unwrap(), image, "and are in no image");
    }

    /// The §3.2.2 window of the regression: `DELETE FROM w` by its owner
    /// used to leave `active` listing a row the table no longer held.
    #[test]
    fn windows_are_append_only_through_sql() {
        let app = window_app();
        let (mut ee, map) = ee(&app);
        let ins = map["wproc"]["ins"];
        ee.begin(Some(BatchId(1))).unwrap();
        for v in 1..=3 {
            ee.exec(ins, &[Value::Int(v)]).unwrap();
        }
        for sql in ["DELETE FROM w WHERE v = 2", "UPDATE w SET v = 9"] {
            let adhoc = Planner::new(ee.catalog()).plan_sql(sql).unwrap();
            let err = ee.exec_bound(&adhoc, &[]).unwrap_err();
            assert!(matches!(&err, Error::StreamViolation(m) if m.contains("append-only")), "{err}");
        }
        // Nothing was touched: the next arrival slides as ever.
        ee.exec(ins, &[Value::Int(4)]).unwrap();
        ee.commit().unwrap();
        let r = ee.query("SELECT v FROM w ORDER BY v", &[]).unwrap();
        assert_eq!(r.rows, vec![tuple![2i64], tuple![3i64], tuple![4i64]]);
    }

    fn staged_len(ee: &ExecutionEngine, window: TableId) -> usize {
        match &ee.windows[window.index()] {
            Some(WindowSlot::Tuple(w)) => w.staged_len(),
            Some(WindowSlot::Time(w)) => w.staged_len(),
            None => panic!("not a window"),
        }
    }

    /// A staged tuple is nowhere a query looks: it draws no row id,
    /// touches no index and leaves no effect.
    #[test]
    fn a_staged_tuple_never_enters_the_table() {
        let app = window_app();
        let (mut ee, map) = ee(&app);
        let w = ee.table_id("w").unwrap();
        ee.begin(Some(BatchId(1))).unwrap();
        let r = ee.exec(map["wproc"]["ins"], &[Value::Int(1)]).unwrap();
        assert_eq!(r.rows_affected, 1);
        let table = ee.catalog.get(w);
        assert_eq!((table.len(), table.tombstones(), table.peek_next_row_id()), (0, 0, RowId(0)));
        assert!(!ee.undo.iter().any(|u| matches!(u, Undo::Row(_))), "{:?}", ee.undo);
        assert_eq!(staged_len(&ee, w), 1);
        ee.commit().unwrap();
        ee.verify_window(w).unwrap();
    }

    /// Once the table is the active list nothing can list a row the
    /// table does not hold: with a row taken from under the window the
    /// next slide expires the now-oldest one, and the window is `size`
    /// long again.
    #[test]
    fn a_tuple_window_cannot_disagree_with_its_table() {
        let app = window_app();
        let (mut ee, map) = ee(&app);
        let ins = map["wproc"]["ins"];
        let w = ee.table_id("w").unwrap();
        ee.begin(Some(BatchId(1))).unwrap();
        for v in 1..=3 {
            ee.exec(ins, &[Value::Int(v)]).unwrap();
        }
        ee.commit().unwrap();
        // No SQL can any more; the test reaches under the EE.
        let oldest = ee.catalog.get(w).scan_ordered().next().unwrap().0;
        ee.catalog.get_mut(w).delete(oldest).unwrap();
        ee.begin(Some(BatchId(2))).unwrap();
        for v in 4..=5 {
            ee.exec(ins, &[Value::Int(v)]).unwrap();
        }
        ee.commit().unwrap();
        ee.verify_window(w).unwrap();
        let r = ee.query("SELECT v FROM w ORDER BY v", &[]).unwrap();
        assert_eq!(r.rows, vec![tuple![3i64], tuple![4i64], tuple![5i64]]);
    }

    #[test]
    fn insert_select_into_a_window_stages_exactly_the_selected_rows() {
        let app = App::builder()
            .stream("arrivals", simple_schema())
            .table("src", simple_schema())
            .window("w", "wproc", simple_schema(), 2, 2)
            .proc(
                "wproc",
                &[
                    ("seed", "INSERT INTO src (v) VALUES (?)"),
                    ("copy", "INSERT INTO w (v) SELECT v + 100 FROM src WHERE v > ?"),
                ],
                &[],
                |_| Ok(()),
            )
            .build()
            .unwrap();
        let (mut ee, map) = ee(&app);
        let w = ee.table_id("w").unwrap();
        ee.begin(Some(BatchId(1))).unwrap();
        for v in 1..=4 {
            ee.exec(map["wproc"]["seed"], &[Value::Int(v)]).unwrap();
        }
        // Rows 2, 3, 4 are selected: two fill the window, one is staged.
        let r = ee.exec(map["wproc"]["copy"], &[Value::Int(1)]).unwrap();
        assert_eq!(r.rows_affected, 3);
        ee.commit().unwrap();
        assert_eq!(staged_len(&ee, w), 1);
        let r = ee.query("SELECT v FROM w ORDER BY v", &[]).unwrap();
        assert_eq!(r.rows, vec![tuple![102i64], tuple![103i64]]);
        // The staged one is 104: the next arrival tumbles it in.
        ee.begin(Some(BatchId(2))).unwrap();
        assert_eq!(ee.exec(map["wproc"]["copy"], &[Value::Int(3)]).unwrap().rows_affected, 1);
        ee.commit().unwrap();
        let r = ee.query("SELECT v FROM w ORDER BY v", &[]).unwrap();
        assert_eq!(r.rows, vec![tuple![104i64], tuple![104i64]]);
    }

    /// A row the window's schema refuses fails at its statement, as it
    /// did when the table refused it — and nothing of the statement is
    /// staged, the rows before the bad one included.
    #[test]
    fn a_row_that_fails_the_schema_stages_nothing() {
        let nullable = Schema::new(vec![sstore_common::Column::nullable("v", DataType::Int)]).unwrap();
        let app = App::builder()
            .stream("arrivals", simple_schema())
            .table("src", nullable)
            .window("w", "wproc", simple_schema(), 3, 1)
            .proc(
                "wproc",
                &[
                    ("seed", "INSERT INTO src (v) VALUES (?)"),
                    ("copy", "INSERT INTO w (v) SELECT v FROM src"),
                    ("ins", "INSERT INTO w (v) VALUES (?)"),
                ],
                &[],
                |_| Ok(()),
            )
            .build()
            .unwrap();
        let (mut ee, map) = ee(&app);
        let w = ee.table_id("w").unwrap();
        ee.begin(Some(BatchId(1))).unwrap();
        ee.exec(map["wproc"]["seed"], &[Value::Int(1)]).unwrap();
        ee.exec(map["wproc"]["seed"], &[Value::Null]).unwrap();
        let logged = ee.undo.len();
        for (stmt, params) in [("copy", vec![]), ("ins", vec![Value::Null]), ("ins", vec![Value::Text("x".into())])] {
            let err = ee.exec(map["wproc"][stmt], &params).unwrap_err();
            assert!(matches!(err, Error::SchemaViolation(_)), "{stmt}: {err}");
            assert_eq!(staged_len(&ee, w), 0, "{stmt}");
            assert_eq!(ee.undo.len(), logged, "{stmt}");
        }
        ee.abort().unwrap();
        ee.verify_window(w).unwrap();
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let app = window_app();
        let (mut ee, map) = ee(&app);
        let ins = map["wproc"]["ins"];
        let arrivals = ee.table_id("arrivals").unwrap();
        ee.begin(Some(BatchId(1))).unwrap();
        for v in 1..=4 {
            ee.exec(ins, &[Value::Int(v)]).unwrap();
        }
        ee.emit(arrivals, vec![tuple![42i64]]).unwrap();
        ee.commit().unwrap();

        let image = ee.checkpoint().unwrap();
        let (mut ee2, _) = {
            let ids = Arc::new(AppIds::build(&app).unwrap());
            ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).unwrap()
        };
        ee2.restore_chain(std::slice::from_ref(&image)).unwrap();
        assert_eq!(ee2.table_len("w").unwrap(), 3);
        assert_eq!(ee2.table_len("slides_seen").unwrap(), 2);
        assert_eq!(ee2.stream_pending("arrivals").unwrap(), vec![BatchId(1)]);
        assert_eq!(ee2.dangling_batches(), vec![(arrivals, BatchId(1))]);
        // The restored engine keeps working: next insert slides again.
        ee2.begin(Some(BatchId(2))).unwrap();
        ee2.exec(map["wproc"]["ins"], &[Value::Int(5)]).unwrap();
        assert_eq!(ee2.table_len("slides_seen").unwrap(), 3);
        ee2.commit().unwrap();
    }

    #[test]
    fn empty_ee_trigger_is_a_discard_sink() {
        // A trigger declared with no SQL still marks the stream as
        // EE-handled: arriving batches are garbage-collected inside the
        // same visit instead of surfacing as PE outputs.
        let app = App::builder()
            .stream("drop_me", simple_schema())
            .proc("driver", &[("ins", "INSERT INTO drop_me (v) VALUES (?)")], &[], |_| Ok(()))
            .ee_trigger("drop_me", &[])
            .build()
            .unwrap();
        let (mut ee, map) = ee(&app);
        ee.begin(Some(BatchId(1))).unwrap();
        ee.exec(map["driver"]["ins"], &[Value::Int(1)]).unwrap();
        let outputs = ee.commit().unwrap().outputs;
        assert!(outputs.is_empty(), "discarded batch must not become a PE output");
        assert_eq!(ee.table_len("drop_me").unwrap(), 0, "rows must be GC'd");
        assert!(ee.stream_pending("drop_me").unwrap().is_empty());
    }

    #[test]
    fn an_empty_batch_an_ee_trigger_drains_leaves_nothing_behind() {
        // An empty emit onto an EE-triggered stream still fires its
        // triggers, and its batch is as gone as a full one's: nothing
        // pending, nothing for recovery to re-fire, and the image of an
        // EE that never saw it.
        let app = chain_app();
        let (mut untouched, _) = ee(&app);
        let (mut ee, _) = ee(&app);
        let s1 = ee.table_id("s1").unwrap();
        ee.begin(Some(BatchId(1))).unwrap();
        ee.emit(s1, Vec::new()).unwrap();
        assert!(ee.commit().unwrap().outputs.is_empty());
        assert!(ee.stream_pending("s1").unwrap().is_empty());
        assert!(ee.dangling_batches().is_empty());
        assert_eq!(ee.checkpoint().unwrap(), untouched.checkpoint().unwrap());
    }

    #[test]
    fn query_rejects_mutations() {
        let app = chain_app();
        let (ee, _) = ee(&app);
        assert!(ee.query("DELETE FROM sink", &[]).is_err());
    }

    /// App with a tumbling 30-unit time window fed by an event-timed
    /// stream: the owner stages each arrival into the window; an
    /// on-slide trigger records per-extent sums.
    fn time_window_app() -> App {
        // `total` is nullable: an expire-only slide can fire the
        // trigger over an empty window, where SUM is NULL.
        let sums_schema = Schema::new(vec![sstore_common::Column::nullable(
            "total",
            DataType::Int,
        )])
        .unwrap();
        App::builder()
            .stream_timed("arrivals", Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]), "ts")
            .table("sums", sums_schema)
            .time_window(
                "tw",
                "wproc",
                Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]),
                "ts",
                30,
                30,
                10,
            )
            .proc(
                "wproc",
                &[("ins", "INSERT INTO tw (ts, v) VALUES (?, ?)")],
                &[],
                |_| Ok(()),
            )
            .pe_trigger("arrivals", "wproc")
            .ee_trigger("tw", &["INSERT INTO sums (total) SELECT SUM(v) FROM tw"])
            .build()
            .unwrap()
    }

    /// Emits one `(ts, v)` batch onto the arrivals stream (advancing
    /// the high mark) and stages the same values into the window, as
    /// the wproc body would. Returns the windows flagged for slides.
    fn feed(ee: &mut ExecutionEngine, map: &ProcStmtMap, batch: u64, rows: &[(i64, i64)]) -> Vec<TableId> {
        let arrivals = ee.table_id("arrivals").unwrap();
        ee.begin(Some(BatchId(batch))).unwrap();
        ee.emit(arrivals, rows.iter().map(|(ts, v)| tuple![*ts, *v]).collect()).unwrap();
        for (ts, v) in rows {
            ee.exec(map["wproc"]["ins"], &[Value::Int(*ts), Value::Int(*v)]).unwrap();
        }
        ee.commit().unwrap().slides
    }

    fn run_slides(ee: &mut ExecutionEngine, batch: u64, windows: &[TableId]) {
        for w in windows {
            ee.begin(Some(BatchId(batch))).unwrap();
            ee.process_slides(*w).unwrap();
            ee.commit().unwrap();
        }
    }

    #[test]
    fn time_window_slides_on_watermark_not_arrival() {
        let app = time_window_app();
        let (mut ee, map) = ee(&app);
        // Out-of-order arrivals inside extent [0, 30): nothing fires,
        // everything staged (invisible).
        let slides = feed(&mut ee, &map, 1, &[(20, 2), (5, 1), (12, 3)]);
        assert!(slides.is_empty(), "watermark 20 has not passed extent end 30");
        assert_eq!(ee.table_len("tw").unwrap(), 0, "staged tuples are invisible");
        assert_eq!(ee.table_len("sums").unwrap(), 0);
        // A commit pushing the high mark past 30 flags the window.
        let slides = feed(&mut ee, &map, 2, &[(31, 10)]);
        assert_eq!(slides.len(), 1);
        run_slides(&mut ee, 2, &slides);
        // Extent [0, 30) is active: 3 rows visible, trigger saw SUM=6.
        assert_eq!(ee.table_len("tw").unwrap(), 3);
        let r = ee.query("SELECT total FROM sums", &[]).unwrap();
        assert_eq!(r.rows, vec![tuple![6i64]]);
        // The commit of the slide txn itself must not re-flag.
        let slides = feed(&mut ee, &map, 3, &[(32, 1)]);
        assert!(slides.is_empty(), "no new boundary crossed");
    }

    #[test]
    fn time_window_late_merge_and_drop() {
        let app = time_window_app();
        let (mut ee, map) = ee(&app);
        let slides = feed(&mut ee, &map, 1, &[(10, 1), (35, 5)]);
        run_slides(&mut ee, 1, &slides);
        assert_eq!(ee.table_len("tw").unwrap(), 1);
        // ts 28 is behind extent [30, 60) but within lateness of the
        // active extent [0, 30): merged, visible immediately.
        let slides = feed(&mut ee, &map, 2, &[(28, 100)]);
        assert!(slides.is_empty());
        assert_eq!(ee.table_len("tw").unwrap(), 2, "late merge lands in the table");
        // Push the watermark far ahead, then send something ancient.
        let slides = feed(&mut ee, &map, 3, &[(95, 7)]);
        run_slides(&mut ee, 3, &slides);
        let slides = feed(&mut ee, &map, 4, &[(2, 9)]);
        assert!(slides.is_empty());
        assert_eq!(EngineMetrics::get(&ee.metrics.window_late_dropped), 1);
        assert_eq!(EngineMetrics::get(&ee.metrics.window_late_merged), 1);
    }

    #[test]
    fn time_window_abort_restores_state() {
        let app = time_window_app();
        let (mut ee, map) = ee(&app);
        // Oracle: an engine that never sees the aborted transaction.
        let (mut oracle, omap) = {
            let ids = Arc::new(AppIds::build(&app).unwrap());
            ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).unwrap()
        };
        let slides = feed(&mut ee, &map, 1, &[(5, 1), (31, 2)]);
        run_slides(&mut ee, 1, &slides);
        let oslides = feed(&mut oracle, &omap, 1, &[(5, 1), (31, 2)]);
        run_slides(&mut oracle, 1, &oslides);
        assert_eq!(ee.table_len("tw").unwrap(), 1);
        // A transaction stages + merges + advances the high mark, then
        // aborts: window state, table contents, and the watermark input
        // must all rewind.
        let arrivals = ee.table_id("arrivals").unwrap();
        ee.begin(Some(BatchId(2))).unwrap();
        ee.emit(arrivals, vec![tuple![40i64, 1i64]]).unwrap();
        ee.exec(map["wproc"]["ins"], &[Value::Int(40), Value::Int(4)]).unwrap();
        ee.exec(map["wproc"]["ins"], &[Value::Int(27), Value::Int(9)]).unwrap(); // merge
        ee.abort().unwrap();
        assert_eq!(ee.table_len("tw").unwrap(), 1, "merged row rolled back");
        assert_eq!(
            ee.stream_high[arrivals.index()],
            Some(31),
            "high mark rewound to the pre-txn watermark input"
        );
        // From here on the engine must behave exactly like the oracle.
        let s1 = feed(&mut ee, &map, 2, &[(61, 4)]);
        run_slides(&mut ee, 2, &s1);
        let s2 = feed(&mut oracle, &omap, 2, &[(61, 4)]);
        run_slides(&mut oracle, 2, &s2);
        for q in ["SELECT ts, v FROM tw ORDER BY ts", "SELECT total FROM sums ORDER BY total"] {
            assert_eq!(ee.query(q, &[]).unwrap().rows, oracle.query(q, &[]).unwrap().rows, "{q}");
        }
    }

    /// Review regression: extreme timestamps must abort the offending
    /// transaction with a clean error — pane arithmetic would overflow
    /// (panicking the partition thread in debug builds) if they ever
    /// reached the extent cursor.
    #[test]
    fn extreme_timestamps_abort_cleanly() {
        let app = time_window_app();
        let (mut ee, map) = ee(&app);
        let arrivals = ee.table_id("arrivals").unwrap();
        for bad in [i64::MIN, i64::MAX, crate::window::MAX_EVENT_TS + 1] {
            // Through the window-staging path.
            ee.begin(Some(BatchId(1))).unwrap();
            let err =
                ee.exec(map["wproc"]["ins"], &[Value::Int(bad), Value::Int(1)]).unwrap_err();
            assert!(matches!(err, Error::StreamViolation(_)), "{bad}: {err}");
            ee.abort().unwrap();
            // Through the stream high-mark (watermark input) path.
            ee.begin(Some(BatchId(1))).unwrap();
            let err = ee.emit(arrivals, vec![tuple![bad, 1i64]]).unwrap_err();
            assert!(matches!(err, Error::StreamViolation(_)), "{bad}: {err}");
            ee.abort().unwrap();
        }
        // The engine still works afterwards.
        let slides = feed(&mut ee, &map, 2, &[(5, 1), (31, 2)]);
        run_slides(&mut ee, 2, &slides);
        assert_eq!(ee.table_len("tw").unwrap(), 1);
    }

    /// Review regression: a failure on a LATER row of one statement's
    /// arrival batch (here: a NULL timestamp that passes the nullable
    /// table schema but fails event-time extraction) must roll back
    /// the EARLIER rows' staging too — each stage is undo-recorded
    /// before the next row is touched.
    #[test]
    fn mid_batch_bad_timestamp_rolls_back_earlier_staging() {
        let ts_nullable = Schema::new(vec![
            sstore_common::Column::nullable("ts", DataType::Int),
            sstore_common::Column::new("v", DataType::Int),
        ])
        .unwrap();
        let app = App::builder()
            .stream_timed(
                "arrivals",
                Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]),
                "ts",
            )
            .table("src", ts_nullable.clone())
            .time_window("tw", "wproc", ts_nullable, "ts", 30, 30, 0)
            .proc(
                "wproc",
                &[
                    ("seed", "INSERT INTO src (ts, v) VALUES (?, ?)"),
                    ("copy", "INSERT INTO tw (ts, v) SELECT ts, v FROM src"),
                ],
                &[],
                |_| Ok(()),
            )
            .pe_trigger("arrivals", "wproc")
            .build()
            .unwrap();
        let (mut ee, map) = ee(&app);
        let tw = ee.table_id("tw").unwrap();
        ee.begin(Some(BatchId(1))).unwrap();
        ee.exec(map["wproc"]["seed"], &[Value::Int(5), Value::Int(1)]).unwrap();
        ee.exec(map["wproc"]["seed"], &[Value::Null, Value::Int(2)]).unwrap();
        // Row (5, 1) stages; row (NULL, 2) fails extraction mid-batch.
        let err = ee.exec(map["wproc"]["copy"], &[]).unwrap_err();
        assert!(matches!(err, Error::StreamViolation(_)), "got: {err}");
        ee.abort().unwrap();
        let Some(WindowSlot::Time(w)) = &ee.windows[tw.index()] else {
            panic!("time window expected");
        };
        assert_eq!(w.staged_len(), 0, "aborted statement must not leak staged tuples");
        assert_eq!(w.next_end(), None, "extent origin rewound");
        assert_eq!(ee.table_len("tw").unwrap(), 0);
        assert_eq!(ee.table_len("src").unwrap(), 0);
    }

    /// One rule for a slide that fails midway: its undo record is
    /// already on the stack when the error leaves, so the abort restores
    /// staging, the extent cursor and — through the table's effects —
    /// the rows the slide expired and activated.
    #[test]
    fn a_failed_slide_leaves_the_window_as_it_found_it() {
        let app = time_window_app();
        let (mut ee, map) = ee(&app);
        let tw = ee.table_id("tw").unwrap();
        let slides = feed(&mut ee, &map, 1, &[(5, 1), (12, 2), (31, 3)]);
        run_slides(&mut ee, 1, &slides);
        let slides = feed(&mut ee, &map, 2, &[(40, 4), (61, 5)]);
        assert_eq!(slides, vec![tw]);
        let state = |ee: &ExecutionEngine| match &ee.windows[tw.index()] {
            Some(WindowSlot::Time(w)) => w.clone(),
            _ => unreachable!(),
        };
        let rows = |ee: &ExecutionEngine| -> Vec<(RowId, Tuple)> {
            ee.catalog.get(tw).scan_ordered().map(|(id, t)| (id, t.clone())).collect()
        };
        let before = state(&ee);
        assert_eq!((before.staged_len(), before.next_end(), ee.table_len("tw").unwrap()), (3, Some(60), 2));
        // Slip a row under the window (no SQL can) that the pending
        // slide keeps and whose value overflows the trigger's SUM: the
        // slide fails after its rows have moved.
        let poison = ee.catalog.get_mut(tw).insert(tuple![45i64, i64::MAX]).unwrap();
        let rows_before = rows(&ee);
        ee.begin(Some(BatchId(2))).unwrap();
        let err = ee.process_slides(tw).unwrap_err();
        assert!(matches!(err, Error::Eval(_)), "{err}");
        ee.abort().unwrap();
        assert_eq!(state(&ee), before, "staging and cursor as the failed slide found them");
        assert_eq!(rows(&ee), rows_before, "and the rows");
        // Without that row the same slide runs.
        ee.catalog.get_mut(tw).delete(poison).unwrap();
        run_slides(&mut ee, 2, &[tw]);
        ee.verify_window(tw).unwrap();
        assert_eq!(ee.query("SELECT SUM(v) FROM tw", &[]).unwrap().rows, vec![tuple![7i64]]);
        assert_eq!(ee.query("SELECT total FROM sums ORDER BY total", &[]).unwrap().rows, vec![tuple![3i64], tuple![7i64]]);
    }

    /// A slide transaction that crosses several extents reads the
    /// table before each: the extent after the one that activated a row
    /// expires it, and the window, empty again, then skips ahead.
    #[test]
    fn a_watermark_jump_expires_what_its_own_slides_activated() {
        let app = time_window_app();
        let (mut ee, map) = ee(&app);
        let (tw, arrivals) = (ee.table_id("tw").unwrap(), ee.table_id("arrivals").unwrap());
        assert!(feed(&mut ee, &map, 1, &[(5, 1)]).is_empty());
        ee.begin(Some(BatchId(2))).unwrap();
        ee.observe_input(arrivals, &[tuple![200i64, 0i64]]).unwrap();
        let slides = ee.commit().unwrap().slides;
        run_slides(&mut ee, 2, &slides);
        assert_eq!(ee.table_len("tw").unwrap(), 0, "[30, 60) expired what [0, 30) activated");
        assert_eq!(EngineMetrics::get(&ee.metrics.window_slides), 2, "then nothing fired");
        let Some(WindowSlot::Time(w)) = &ee.windows[tw.index()] else { unreachable!() };
        assert_eq!(w.next_end(), Some(210), "the cursor stops at the watermark's pane");
    }

    /// A slide transaction whose only work is to skip trivial extents
    /// still moves the extent cursor: an abort must move it back, or
    /// the next arrival is classified against extents that never fired.
    #[test]
    fn an_aborted_slide_rewinds_the_extents_it_skipped() {
        let app = time_window_app();
        let (mut ee, map) = ee(&app);
        let (tw, arrivals) = (ee.table_id("tw").unwrap(), ee.table_id("arrivals").unwrap());
        let tick = |ee: &mut ExecutionEngine, batch: u64, ts: i64| {
            ee.begin(Some(BatchId(batch))).unwrap();
            ee.observe_input(arrivals, &[tuple![ts, 0i64]]).unwrap();
            let slides = ee.commit().unwrap().slides;
            run_slides(ee, batch, &slides);
        };
        feed(&mut ee, &map, 1, &[(5, 1)]);
        tick(&mut ee, 2, 31); // [0, 30) activates 5
        tick(&mut ee, 3, 65); // [30, 60) expires it: the window is empty
        // 95 is staged for [90, 120); the watermark passes 90 but not 120.
        ee.begin(Some(BatchId(4))).unwrap();
        ee.observe_input(arrivals, &[tuple![93i64, 0i64]]).unwrap();
        ee.exec(map["wproc"]["ins"], &[Value::Int(95), Value::Int(7)]).unwrap();
        assert_eq!(ee.commit().unwrap().slides, vec![tw]);
        let cursor = |ee: &mut ExecutionEngine| ee.time_window(tw).next_end();
        assert_eq!(cursor(&mut ee), Some(90));
        let before = ee.checkpoint().unwrap();
        ee.begin(Some(BatchId(4))).unwrap();
        ee.process_slides(tw).unwrap();
        assert_eq!(cursor(&mut ee), Some(120), "[60, 90) was skipped as trivial");
        ee.abort().unwrap();
        assert_eq!(cursor(&mut ee), Some(90));
        assert_eq!(ee.checkpoint().unwrap(), before);
    }

    #[test]
    fn time_window_checkpoint_roundtrip_preserves_watermark() {
        let app = time_window_app();
        let (mut ee, map) = ee(&app);
        let slides = feed(&mut ee, &map, 1, &[(5, 1), (31, 2), (33, 3)]);
        run_slides(&mut ee, 1, &slides);
        let image = ee.checkpoint().unwrap();
        let (mut ee2, map2) = {
            let ids = Arc::new(AppIds::build(&app).unwrap());
            ExecutionEngine::install(&app, ids, Arc::new(EngineMetrics::new())).unwrap()
        };
        ee2.restore_chain(std::slice::from_ref(&image)).unwrap();
        assert_eq!(ee2.checkpoint().unwrap(), image, "restore → checkpoint is stable");
        assert_eq!(ee2.table_len("tw").unwrap(), 1);
        // The restored engine continues sliding off the restored
        // watermark state: same behavior as the original.
        let s1 = feed(&mut ee, &map, 2, &[(61, 4)]);
        run_slides(&mut ee, 2, &s1);
        let s2 = feed(&mut ee2, &map2, 2, &[(61, 4)]);
        run_slides(&mut ee2, 2, &s2);
        assert_eq!(ee.checkpoint().unwrap(), ee2.checkpoint().unwrap());
    }

    // ---- checkpoint chains: newest image wins -----------------------------

    /// Tables written at different rates, an event-timed input stream, an
    /// output stream whose batches stay pending, a tuple window and a
    /// time window: every kind of section a checkpoint image holds.
    fn chain_restore_app() -> App {
        let kv = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let timed = Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)]);
        let index = |name: &str, col, kind, unique| sstore_storage::IndexDef {
            name: name.into(),
            key_columns: vec![col],
            kind,
            unique,
        };
        App::builder()
            .stream_timed("arrivals", timed.clone(), "ts")
            .stream("out", simple_schema())
            .table_indexed(
                "a",
                kv,
                vec![
                    index("a_pk", 0, sstore_storage::IndexKind::Hash, true),
                    index("a_by_v", 1, sstore_storage::IndexKind::BTree, false),
                ],
            )
            .table("b", simple_schema())
            .table("c", simple_schema())
            .window("wt", "p", simple_schema(), 3, 2)
            .time_window("tw", "p", timed, "ts", 30, 30, 10)
            .proc(
                "p",
                &[
                    ("ins_a", "INSERT INTO a (k, v) VALUES (?, ?)"),
                    ("upd_a", "UPDATE a SET v = ? WHERE k = ?"),
                    ("del_a", "DELETE FROM a WHERE k = ?"),
                    ("ins_b", "INSERT INTO b (v) VALUES (?)"),
                    ("ins_c", "INSERT INTO c (v) VALUES (?)"),
                    ("ins_wt", "INSERT INTO wt (v) VALUES (?)"),
                    ("ins_tw", "INSERT INTO tw (ts, v) VALUES (?, ?)"),
                    ("ins_out", "INSERT INTO out (v) VALUES (?)"),
                ],
                &["out"],
                |_| Ok(()),
            )
            .proc("sink", &[], &[], |_| Ok(()))
            .pe_trigger("arrivals", "p")
            .pe_trigger("out", "sink")
            .build()
            .unwrap()
    }

    /// One transaction of the chain workload: `(statement, k, v, abort)`.
    type ChainTxn = (u8, i64, i64, bool);

    /// Runs `txn` as batch `batch`; a refused statement (a duplicate
    /// key) aborts it, as does the abort flag.
    fn run_chain_txn(ee: &mut ExecutionEngine, map: &ProcStmtMap, batch: u64, txn: ChainTxn) {
        let (stmt, k, v, abort) = txn;
        let (k, v) = (Value::Int(k), Value::Int(v));
        let p = &map["p"];
        ee.begin(Some(BatchId(batch))).unwrap();
        let done = match stmt {
            0 | 1 => ee.exec(p["ins_a"], &[k, v]),
            2 => ee.exec(p["upd_a"], &[v, k]),
            3 => ee.exec(p["del_a"], &[k]),
            4 => ee.exec(p["ins_b"], &[v]),
            5 => ee.exec(p["ins_c"], &[v]),
            6 => ee.exec(p["ins_wt"], &[v]),
            7 => ee.exec(p["ins_out"], &[v]),
            _ => {
                // An event-timed arrival (ts = 12·k) staged into the
                // time window, as the border procedure would.
                let ts = Value::Int(12 * k.as_int().unwrap());
                let arrivals = ee.table_id("arrivals").unwrap();
                ee.emit(arrivals, vec![Tuple::new(vec![ts.clone(), v.clone()])]).unwrap();
                ee.exec(p["ins_tw"], &[ts, v])
            }
        };
        if abort || done.is_err() {
            ee.abort().unwrap();
            return;
        }
        let slides = ee.commit().unwrap().slides;
        run_slides(ee, batch, &slides);
    }

    /// The restore `restore_chain` replaced, kept as its oracle: decode
    /// the base whole, then every delta in chain order, each table image
    /// replacing its table in place.
    fn restore_sequential(ee: &mut ExecutionEngine, images: &[Vec<u8>]) {
        let n = ee.ids.table_count();
        let mut sections = Sections {
            streams: (0..n).map(|_| None).collect(),
            stream_high: vec![None; n],
            windows: (0..n).map(|_| None).collect(),
        };
        let mut d = Decoder::new(&images[0]);
        let mut decoded = snapshot::decode_catalog(d.get_bytes().unwrap()).unwrap();
        let mut catalog = Catalog::new();
        for i in 0..n {
            let table = decoded.drop_table(ee.ids.table_name(TableId(i as u32))).unwrap();
            catalog.install_table(table).unwrap();
        }
        ee.decode_sections(0, &mut d, &mut sections).unwrap();
        for (image, delta) in (1..).zip(&images[1..]) {
            let mut d = Decoder::new(delta);
            for _ in 0..d.get_varint().unwrap() {
                let table = snapshot::TableFrame::read(&mut d).unwrap().decode().unwrap();
                catalog.replace_table(table).unwrap();
            }
            ee.decode_sections(image, &mut d, &mut sections).unwrap();
        }
        ee.catalog = catalog;
        ee.streams = sections.streams;
        ee.stream_high = sections.stream_high;
        ee.windows = sections.windows;
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Over random chains (a base and up to five deltas, each after a
        /// random run of committed and aborted transactions): restoring
        /// by newest-image-wins, restoring by the old sequential apply
        /// and the live engine all hold byte-equal state, and exactly the
        /// delta frames were stepped over.
        #[test]
        fn newest_wins_restore_equals_sequential_apply(
            rounds in proptest::collection::vec(
                proptest::collection::vec(
                    (0u8..9, 0i64..12, 0i64..40, proptest::prelude::any::<u8>()),
                    0..7,
                ),
                1..7,
            ),
        ) {
            let app = chain_restore_app();
            let (mut live, map) = ee(&app);
            let mut images = Vec::new();
            let mut batch = 0;
            for txns in &rounds {
                for &(stmt, k, v, abort) in txns {
                    batch += 1;
                    run_chain_txn(&mut live, &map, batch, (stmt, k, v, abort % 5 == 0));
                }
                images.push(if images.is_empty() {
                    live.checkpoint().unwrap()
                } else {
                    live.checkpoint_delta().unwrap()
                });
            }
            let delta_frames: u64 = images[1..]
                .iter()
                .map(|d| Decoder::new(d).get_varint().unwrap())
                .sum();

            let (mut newest, _) = ee(&app);
            newest.restore_chain(&images).unwrap();
            let (mut sequential, _) = ee(&app);
            restore_sequential(&mut sequential, &images);
            let state = live.checkpoint().unwrap();
            proptest::prop_assert_eq!(&newest.checkpoint().unwrap(), &state);
            proptest::prop_assert_eq!(&sequential.checkpoint().unwrap(), &state);
            let m = &newest.metrics;
            proptest::prop_assert_eq!(EngineMetrics::get(&m.restore_images_decoded), 7);
            proptest::prop_assert_eq!(EngineMetrics::get(&m.restore_images_skipped), delta_frames);
        }
    }

    #[test]
    fn corrupt_chain_images_are_errors_and_leave_state_alone() {
        let app = chain_restore_app();
        let (mut live, map) = ee(&app);
        for (batch, txn) in [(0, 1, 1, false), (8, 1, 5, false), (6, 0, 2, false)].into_iter().enumerate() {
            run_chain_txn(&mut live, &map, batch as u64 + 1, txn);
        }
        let base = live.checkpoint().unwrap();
        run_chain_txn(&mut live, &map, 9, (0, 2, 2, false));
        run_chain_txn(&mut live, &map, 10, (8, 4, 6, false));
        let delta = live.checkpoint_delta().unwrap();

        let (mut ee2, _) = ee(&app);
        let fresh = ee2.checkpoint().unwrap();
        // Every truncation of either image is an error.
        for cut in 0..delta.len() {
            assert!(ee2.restore_chain(&[base.clone(), delta[..cut].to_vec()]).is_err(), "delta cut {cut}");
        }
        for cut in (0..base.len()).step_by(3) {
            assert!(ee2.restore_chain(&[base[..cut].to_vec()]).is_err(), "base cut {cut}");
        }
        // A chain that starts with a delta; an empty chain.
        assert!(ee2.restore_chain(std::slice::from_ref(&delta)).is_err());
        assert!(ee2.restore_chain(&[]).is_err());
        // None of the failures adopted anything: only a whole chain does.
        ee2.dirty.fill(true);
        assert_eq!(ee2.checkpoint().unwrap(), fresh);
        // Every single-byte corruption of the delta's header region (its
        // table count, first frame length and first table header): never
        // a panic or an allocation abort (some are simply another valid
        // image). A hostile count or frame length is an error.
        for at in 0..40 {
            for v in 0..=255u8 {
                let mut bad = delta.clone();
                bad[at] = v;
                let _ = ee2.restore_chain(&[base.clone(), bad]);
            }
        }
        for at in [0, 8] {
            let mut bad = delta.clone();
            bad[at] = 0x7f;
            assert!(ee2.restore_chain(&[base.clone(), bad]).is_err(), "byte {at}");
        }
        ee2.restore_chain(&[base, delta]).unwrap();
        assert_eq!(ee2.checkpoint().unwrap(), live.checkpoint().unwrap());
    }

    /// An image that names a table the app does not declare is
    /// malformed wherever the name sits: a base frame, a delta frame, a
    /// stream section or a window section.
    #[test]
    fn an_image_naming_an_unknown_table_is_a_codec_error() {
        let v = || Schema::of(&[("v", DataType::Int)]);
        let app = |extra: bool| {
            let b = App::builder()
                .table("t", v())
                .proc("p", &[("ins", "INSERT INTO t (v) VALUES (?)")], &[], |_| Ok(()));
            let b = if extra { b.table("u", v()) } else { b };
            b.build().unwrap()
        };
        let (mut small, _) = ee(&app(false));
        let (mut wide, _) = ee(&app(true));
        let base = small.checkpoint().unwrap();
        let wide_base = wide.checkpoint().unwrap();
        wide.dirty.fill(true);
        let delta = wide.checkpoint_delta().unwrap();
        // A delta with no table frame whose sections name a stream, and
        // one whose sections name a window.
        let mut stream_section = Encoder::with_capacity(64);
        stream_section.put_varint(0);
        stream_section.put_seq([()], |e, ()| {
            e.put_str("s");
            StreamState::new().encode(e);
            e.put_opt_i64(None);
        });
        stream_section.put_varint(0);
        let (windowed, _) = ee(&window_app());
        let windows: Vec<&WindowSlot> = windowed.windows.iter().flatten().collect();
        let mut window_section = Encoder::with_capacity(64);
        window_section.put_varint(0);
        window_section.put_varint(0);
        window_section.put_seq(windows, |e, w| w.encode(e));
        for (chain, what) in [
            (vec![wide_base], "base frame"),
            (vec![base.clone(), delta], "delta frame"),
            (vec![base.clone(), stream_section.finish()], "stream section"),
            (vec![base.clone(), window_section.finish()], "window section"),
        ] {
            let err = small.restore_chain(&chain).unwrap_err();
            assert!(matches!(&err, Error::Codec(m) if m.contains("unknown table")), "{what}: {err}");
            let image = chain.len() - 1;
            assert!(err.to_string().contains(&format!("image {image} ")), "{what}: {err}");
        }
        small.restore_chain(&[base]).unwrap();
    }

    #[test]
    fn lifecycle_errors() {
        let app = chain_app();
        let (mut ee, _) = ee(&app);
        assert!(ee.commit().is_err());
        assert!(ee.abort().is_err());
        assert!(ee.exec(0, &[]).is_err());
        ee.begin(None).unwrap();
        assert!(ee.begin(None).is_err());
        assert!(ee.checkpoint().is_err());
        ee.commit().unwrap();
    }
}
