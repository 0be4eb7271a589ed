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
//! All state is addressed by dense [`TableId`]s (assigned at install
//! time, see [`crate::names`]): stream bookkeeping, window state, and
//! EE-trigger lists are plain vectors indexed by table id, and effects
//! carry ids — no string hashing, lower-casing, or name cloning happens
//! inside the execution loop.
//!
//! # Trigger cascade (§3.2.3)
//!
//! Only *SQL-originated* inserts fire triggers. An `INSERT` whose target
//! is a window never reaches the table: [`ExecutionEngine::exec_bound`]
//! has the SQL crate build its rows and hands them to the window as
//! tuples, to be *staged* (no row id, no index touch, no effect — staged
//! tuples are invisible because they are nowhere a query looks); slides
//! then activate and expire rows and fire the window's EE triggers.
//! After every other statement the EE inspects the effects it produced.
//! Inserts into a stream table are labeled with the transaction's batch
//! id; if the stream has EE triggers they run immediately (inside this
//! same EE visit, recursively cascading), after which the consumed rows
//! are garbage-collected automatically. Streams without EE triggers are
//! reported to the partition engine at commit for PE-trigger firing.
//!
//! Internal mutations (activation/expiry/GC) append undo effects but do
//! not re-enter the cascade, so the cascade terminates.
//!
//! What is active in a window is what its table holds
//! ([`crate::window`]). A window's group indexes (derived in
//! [`build_catalog`]) are maintained by the storage layer inside the
//! table's insert and delete; nothing in this file touches them. A time
//! window's ordered `(event-ts, row)` set is the one index kept here:
//! `table_insert`, `table_delete` and the effect-undo loop of
//! [`ExecutionEngine::abort`] are the only writers of a window table,
//! and each tells the window.
//!
//! [`BoundaryMode::Inline`]: crate::config::BoundaryMode::Inline
//! [`BoundaryMode::Channel`]: crate::config::BoundaryMode::Channel

use std::collections::HashMap;
use std::sync::Arc;

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{BatchId, Error, Result, RowId, TableId, Tuple, Value};
use sstore_sql::exec::{execute, insert_rows, undo_effect, Effect};
use sstore_sql::plan::{group_index_shape, BoundInsert, BoundStatement};
use sstore_sql::{Planner, QueryResult};
use sstore_storage::snapshot;
use sstore_storage::{Catalog, Table, TableKind};

use crate::app::{window_is_append_only, App, WindowDef, Windowing};
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

/// Undo record for stream bookkeeping: O(ops touched), not O(pending
/// batches) — a queue backlog must not make undo (or its capture) more
/// expensive.
#[derive(Debug)]
enum StreamUndo {
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
    /// One row was dropped from `batch` at `pos` (GC / SQL delete).
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
}

/// Undo record for window bookkeeping: staging and the extent cursor.
/// A window's rows — and a time window's ordered set over them — are
/// undone effect-by-effect with the table; these operation-level records
/// restore the rest, O(ops touched), not O(window size). A record is
/// pushed as soon as the state machine has moved and before any table
/// mutation that could fail, so an error leaving mid-slide still aborts
/// to the window it found.
#[derive(Debug)]
enum WindowUndo {
    /// `n` tuples were staged on `window`.
    Staged {
        /// Window table.
        window: TableId,
        /// Number staged.
        n: usize,
    },
    /// One slide was applied on `window`.
    Slid {
        /// Window table.
        window: TableId,
        /// The tuples the slide consumed from staging (to restore).
        restaged: Vec<Tuple>,
    },
    /// One tuple was staged on a time window. Recorded per row —
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
    /// One watermark-driven slide was applied on a time window.
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

/// Per-procedure map of statement names to compiled ids, produced at
/// install time.
pub type ProcStmtMap = HashMap<String, HashMap<String, StmtId>>;

/// The execution engine for one partition.
pub struct ExecutionEngine {
    catalog: Catalog,
    ids: Arc<AppIds>,
    /// Stream bookkeeping, indexed by [`TableId`] (`None` for
    /// non-stream tables).
    streams: Vec<Option<StreamState>>,
    /// Event-timestamp column per stream (`None` = not event-timed),
    /// indexed by [`TableId`].
    stream_ts_col: Vec<Option<usize>>,
    /// Per-stream event-time high mark (max timestamp ever appended),
    /// indexed by [`TableId`]. Monotone; advanced inside transactions,
    /// rewound on abort. The partition watermark is the min over the
    /// event-timed streams' high marks, taken at commit.
    stream_high: Vec<Option<i64>>,
    /// The event-timed streams (watermark inputs).
    ts_streams: Vec<TableId>,
    /// Window state, indexed by [`TableId`].
    windows: Vec<Option<WindowSlot>>,
    /// Resolved timestamp-column index per time window, indexed by
    /// [`TableId`].
    window_ts_col: Vec<Option<usize>>,
    /// True when any time window is installed (skip watermark work
    /// entirely otherwise).
    has_time_windows: bool,
    /// EE-trigger statements per table id. `None` = no trigger declared;
    /// `Some` (possibly empty) = a declared trigger — the distinction
    /// matters because a *declared* trigger makes the stream's batches
    /// GC inside the EE visit even when its statement list is empty
    /// (an empty trigger is a discard sink).
    ee_triggers: Vec<Option<Arc<[StmtId]>>>,
    stmts: Vec<Arc<BoundStatement>>,
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
    effects: Vec<Effect>,
    /// Operation-level undo for stream bookkeeping.
    stream_undo: Vec<StreamUndo>,
    /// Operation-level undo for window bookkeeping.
    window_undo: Vec<WindowUndo>,
    outputs: Vec<(TableId, BatchId)>,
}

/// Creates the catalog for `app` — base tables (with their indexes),
/// streams, windows — checking each assigned [`TableId`] against `ids`
/// (both assignments derive from the same declaration order). Shared
/// by [`ExecutionEngine::install`] and the engine facade's ad-hoc
/// planner ([`crate::engine::Engine::query_at`]), which is what makes
/// a statement planned once at the engine edge valid against every
/// partition's EE: same layout, same table ids.
pub(crate) fn build_catalog(app: &App, ids: &AppIds) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    let check = |got: TableId, name: &str| -> Result<()> {
        if ids.table_id(name) != Some(got) {
            return Err(Error::Internal(format!(
                "table id mismatch for {name}: catalog assigned {got}"
            )));
        }
        Ok(())
    };
    for t in &app.tables {
        let table = catalog.create_table(&t.name, TableKind::Base, t.schema.clone())?;
        for ix in &t.indexes {
            table.create_index(ix.clone())?;
        }
        for def in &t.group_indexes {
            table.create_group_index(def.clone())?;
        }
        check(catalog.id_of(&t.name).expect("just created"), &t.name)?;
    }
    for s in &app.streams {
        catalog.create_table(&s.name, TableKind::Stream, s.schema.clone())?;
        check(catalog.id_of(&s.name).expect("just created"), &s.name)?;
    }
    for w in &app.windows {
        catalog.create_table(w.name(), TableKind::Window, w.schema.clone())?;
        check(catalog.id_of(w.name()).expect("just created"), w.name())?;
    }
    derive_group_indexes(app, &mut catalog)?;
    Ok(catalog)
}

/// Gives every overlapping window (`slide < size`) one group index per
/// distinct grouped SELECT shape registered against it that an index can
/// answer ([`group_index_shape`]). Every statement that can run against a
/// window is registered with the app (§3.2.2 scoping), so the engine
/// derives the indexes; nobody declares them. A tumbling window gets
/// none: its slide replaces every row, and maintaining the aggregate
/// would cost what re-reading the extent does. A statement that does not
/// plan is skipped here — compiling it reports the error.
fn derive_group_indexes(app: &App, catalog: &mut Catalog) -> Result<()> {
    // `slide < size`: a slide replaces part of the extent, not all of it.
    let tumbles = |w: &WindowDef| match &w.windowing {
        Windowing::Tuple(spec) => spec.is_tumbling(),
        Windowing::Time(spec) => spec.is_tumbling(),
    };
    let sliding: Vec<&str> = app.windows.iter().filter(|w| !tumbles(w)).map(|w| w.name()).collect();
    if sliding.is_empty() {
        return Ok(());
    }
    let registered = app
        .procs
        .iter()
        .flat_map(|p| p.statements.iter().map(|(_, sql)| sql))
        .chain(app.ee_triggers.iter().flat_map(|t| &t.sql));
    for sql in registered {
        let select = match Planner::new(catalog).plan_sql(sql) {
            Ok(BoundStatement::Select(s)) => s,
            Ok(BoundStatement::Insert(BoundInsert { select: Some(s), .. })) => *s,
            _ => continue,
        };
        let table = catalog.get(select.from.table);
        if !sliding.contains(&table.name()) {
            continue;
        }
        if let Some(def) = group_index_shape(&select, table.schema()) {
            catalog.get_mut(select.from.table).create_group_index(def)?;
        }
    }
    Ok(())
}

impl ExecutionEngine {
    /// Builds an EE for `app`: creates all tables/streams/windows
    /// ([`build_catalog`]), compiles every procedure statement and EE
    /// trigger. Returns the EE and the per-procedure statement-id map.
    pub fn install(
        app: &App,
        ids: Arc<AppIds>,
        metrics: Arc<EngineMetrics>,
    ) -> Result<(Self, ProcStmtMap)> {
        let catalog = build_catalog(app, &ids)?;
        let n_tables = ids.table_count();
        let mut streams: Vec<Option<StreamState>> = (0..n_tables).map(|_| None).collect();
        let mut stream_ts_col: Vec<Option<usize>> = vec![None; n_tables];
        let mut ts_streams: Vec<TableId> = Vec::new();
        let mut windows: Vec<Option<WindowSlot>> = (0..n_tables).map(|_| None).collect();
        let mut window_ts_col: Vec<Option<usize>> = vec![None; n_tables];
        let mut has_time_windows = false;
        for s in &app.streams {
            let id = catalog.id_of(&s.name).expect("build_catalog created it");
            streams[id.index()] = Some(StreamState::new());
            if let Some(col) = &s.ts_col {
                stream_ts_col[id.index()] = Some(s.schema.index_of_or_err(col)?);
                ts_streams.push(id);
            }
        }
        for w in &app.windows {
            let id = catalog.id_of(w.name()).expect("build_catalog created it");
            windows[id.index()] = Some(match &w.windowing {
                Windowing::Tuple(spec) => WindowSlot::Tuple(WindowState::new(spec.clone())?),
                Windowing::Time(spec) => {
                    window_ts_col[id.index()] =
                        Some(w.schema.index_of_or_err(&spec.ts_column)?);
                    has_time_windows = true;
                    WindowSlot::Time(TimeWindowState::new(spec.clone())?)
                }
            });
        }

        let mut stmts: Vec<Arc<BoundStatement>> = Vec::new();
        let mut compile = |sql: &str, catalog: &Catalog| -> Result<StmtId> {
            let bound = Planner::new(catalog).plan_sql(sql)?;
            stmts.push(Arc::new(bound));
            Ok(stmts.len() - 1)
        };

        let mut proc_map: ProcStmtMap = HashMap::new();
        for p in &app.procs {
            let mut m = HashMap::new();
            for (name, sql) in &p.statements {
                m.insert(name.clone(), compile(sql, &catalog)?);
            }
            proc_map.insert(p.name.clone(), m);
        }
        let mut trigger_lists: Vec<Option<Vec<StmtId>>> = vec![None; n_tables];
        for t in &app.ee_triggers {
            let id = ids
                .table_id(&t.table)
                .ok_or_else(|| Error::not_found("EE trigger target", &t.table))?;
            let list = trigger_lists[id.index()].get_or_insert_with(Vec::new);
            for sql in &t.sql {
                list.push(compile(sql, &catalog)?);
            }
        }
        let ee_triggers =
            trigger_lists.into_iter().map(|l| l.map(Arc::from)).collect();

        Ok((
            ExecutionEngine {
                catalog,
                ids,
                streams,
                stream_ts_col,
                stream_high: vec![None; n_tables],
                ts_streams,
                windows,
                window_ts_col,
                has_time_windows,
                ee_triggers,
                stmts,
                metrics,
                // Everything starts dirty: a delta taken before any
                // base would otherwise silently miss install-time state
                // (the engine forces the first checkpoint to be a base,
                // but the EE must not depend on that for correctness).
                dirty: vec![true; n_tables],
                in_txn: false,
                out_batch: None,
                effects: Vec::new(),
                stream_undo: Vec::new(),
                window_undo: Vec::new(),
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
        self.effects.clear();
        self.outputs.clear();
        self.stream_undo.clear();
        self.window_undo.clear();
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
        // Dirty marking must read the undo lists before they clear:
        // they are the precise record of which tables/streams/windows
        // this transaction touched.
        self.mark_txn_dirty();
        self.effects.clear();
        self.stream_undo.clear();
        self.window_undo.clear();
        let mut slides = Vec::new();
        if self.has_time_windows {
            if let Some(wm) = self.partition_watermark() {
                for (i, w) in self.windows.iter_mut().enumerate() {
                    if let Some(WindowSlot::Time(tw)) = w {
                        // `advance_watermark` mutates the window's
                        // internal mark even when no pane fires, so
                        // every time window dirties here.
                        self.dirty[i] = true;
                        if tw.advance_watermark(wm) {
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

    /// Aborts: undoes every table effect in reverse and restores
    /// stream/window bookkeeping.
    pub fn abort(&mut self) -> Result<()> {
        if !self.in_txn {
            return Err(Error::InvalidState("abort outside transaction".into()));
        }
        // Undo restores rows and bookkeeping but *not* row-id counters
        // (they never rewind) — an aborted insert leaves durable state
        // behind, so the touched tables dirty exactly as on commit.
        self.mark_txn_dirty();
        let mut effects = std::mem::take(&mut self.effects);
        for e in effects.iter().rev() {
            self.undo_in_time_window(e)
                .and_then(|()| undo_effect(&mut self.catalog, e))
                .map_err(|err| Error::Internal(format!("undo failed: {err}")))?;
        }
        effects.clear();
        self.effects = effects;
        // Streams: apply operation-level undo newest-first.
        while let Some(u) = self.stream_undo.pop() {
            match u {
                StreamUndo::Appended { stream, batch, n } => {
                    if let Some(s) = self.streams[stream.index()].as_mut() {
                        s.undo_append(batch, n);
                    }
                }
                StreamUndo::Consumed { stream, batch, rows } => {
                    if let Some(s) = self.streams[stream.index()].as_mut() {
                        s.undo_consume(batch, rows);
                    }
                }
                StreamUndo::Forgot { stream, batch, pos, row } => {
                    if let Some(s) = self.streams[stream.index()].as_mut() {
                        s.undo_forget(batch, pos, row);
                    }
                }
                StreamUndo::HighMark { stream, prev } => {
                    self.stream_high[stream.index()] = prev;
                }
            }
        }
        // Windows: apply operation-level undo newest-first.
        while let Some(u) = self.window_undo.pop() {
            match u {
                WindowUndo::Staged { window, n } => {
                    if let Some(WindowSlot::Tuple(w)) = self.windows[window.index()].as_mut() {
                        w.undo_stage(n);
                    }
                }
                WindowUndo::Slid { window, restaged } => {
                    if let Some(WindowSlot::Tuple(w)) = self.windows[window.index()].as_mut() {
                        w.undo_slide(restaged);
                    }
                }
                WindowUndo::TimeStaged { window, ts, prev_next_end } => {
                    if let Some(WindowSlot::Time(w)) = self.windows[window.index()].as_mut() {
                        w.undo_stage(ts, prev_next_end);
                    }
                }
                WindowUndo::TimeSlid { window, restaged, prev_next_end, prev_fired } => {
                    if let Some(WindowSlot::Time(w)) = self.windows[window.index()].as_mut() {
                        w.undo_slide(restaged, prev_next_end, prev_fired);
                    }
                }
            }
        }
        self.outputs.clear();
        self.in_txn = false;
        self.out_batch = None;
        Ok(())
    }

    /// Marks every table/stream/window the open transaction touched as
    /// dirty. The effect and undo lists are the precise touch record:
    /// table mutations carry their [`TableId`], stream/window
    /// bookkeeping ops carry theirs.
    fn mark_txn_dirty(&mut self) {
        for e in &self.effects {
            let t = match e {
                Effect::Insert { table, .. }
                | Effect::Delete { table, .. }
                | Effect::Update { table, .. } => *table,
            };
            self.dirty[t.index()] = true;
        }
        for u in &self.stream_undo {
            let s = match u {
                StreamUndo::Appended { stream, .. }
                | StreamUndo::Consumed { stream, .. }
                | StreamUndo::Forgot { stream, .. }
                | StreamUndo::HighMark { stream, .. } => *stream,
            };
            self.dirty[s.index()] = true;
        }
        for u in &self.window_undo {
            let w = match u {
                WindowUndo::Staged { window, .. }
                | WindowUndo::Slid { window, .. }
                | WindowUndo::TimeStaged { window, .. }
                | WindowUndo::TimeSlid { window, .. } => *window,
            };
            self.dirty[w.index()] = true;
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
        let bound = self
            .stmts
            .get(stmt)
            .cloned()
            .ok_or_else(|| Error::not_found("statement id", stmt.to_string()))?;
        self.exec_bound(&bound, params)
    }

    /// Executes an already-bound statement within the current
    /// transaction — same effects/undo/cascade discipline as a
    /// compiled procedure statement. This is the execution half of
    /// ad-hoc SQL: the statement was planned at the engine edge
    /// against the shared catalog layout ([`build_catalog`]), so its
    /// table ids are valid here.
    pub fn exec_bound(&mut self, bound: &BoundStatement, params: &[Value]) -> Result<QueryResult> {
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
        let result = match bound {
            // An arrival: its rows go to the window as tuples, not to the
            // table — the SQL crate builds them and knows no more.
            BoundStatement::Insert(i) if self.windows[i.table.index()].is_some() => {
                insert_rows(&mut self.catalog, i, params).and_then(|rows| {
                    let rows_affected = rows.len();
                    self.window_arrival(i.table, rows)?;
                    Ok(QueryResult { rows_affected, ..QueryResult::default() })
                })
            }
            _ => {
                let start = self.effects.len();
                execute(&mut self.catalog, bound, params, &mut self.effects).and_then(|r| {
                    self.cascade(start)?;
                    Ok(r)
                })
            }
        };
        self.note_columnar_batches();
        result
    }

    /// Drains the sql crate's thread-local read-path counters (batches,
    /// windowed batches, per-reason fallbacks) into the engine metrics.
    /// Called after every statement entry point (the counters
    /// accumulate across the nested trigger cascade, so one drain per
    /// top-level call collects the whole tree; draining on nested calls
    /// too just moves the same numbers sooner).
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
        if let Some(col) = self.stream_ts_col[stream.index()] {
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
            self.stream_undo.push(StreamUndo::HighMark { stream, prev });
        }
    }

    /// Inserts tuples onto a stream (used by `ProcCtx::emit` and batch
    /// injection), then cascades exactly like a SQL insert would.
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
        let ids = if require {
            state.consume(batch)?
        } else if state.contains(batch) {
            state.consume(batch)?
        } else {
            return Ok(Vec::new());
        };
        self.stream_undo.push(StreamUndo::Consumed { stream, batch, rows: ids.clone() });
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

    /// Scans effects `[start..)` for SQL-originated inserts into streams
    /// and runs the §3.2.3 trigger cascade on them. (An insert into a
    /// window leaves no effect: [`ExecutionEngine::exec_bound`] staged it.)
    fn cascade(&mut self, start: usize) -> Result<()> {
        let end = self.effects.len();
        if start >= end {
            return Ok(());
        }
        let mut stream_groups: Vec<(TableId, Vec<RowId>)> = Vec::new();
        let mut forgotten: Vec<(TableId, RowId)> = Vec::new();
        for e in &self.effects[start..end] {
            match e {
                Effect::Insert { table, row } => {
                    if self.catalog.get(*table).kind() == TableKind::Stream {
                        push_group(&mut stream_groups, *table, *row);
                    }
                }
                // A SQL DELETE on a stream table must drop the row from
                // batch bookkeeping too, or the stream state would leak
                // dangling row ids.
                Effect::Delete { table, row, .. } => {
                    if self.catalog.get(*table).kind() == TableKind::Stream {
                        forgotten.push((*table, *row));
                    }
                }
                Effect::Update { .. } => {}
            }
        }
        for (table, row) in forgotten {
            if let Some(state) = self.streams[table.index()].as_mut() {
                if let Some((batch, pos)) = state.forget_row(row) {
                    self.stream_undo.push(StreamUndo::Forgot { stream: table, batch, pos, row });
                }
            }
        }
        for (s, rows) in stream_groups {
            self.stream_arrival(s, rows)?;
        }
        Ok(())
    }

    /// Stages the rows of an `INSERT INTO <window>`, each checked
    /// against the window's schema first — as the table would on insert,
    /// so a bad row fails at its statement, with nothing staged. Tuple
    /// windows then process the count-driven slides the arrival unlocks,
    /// firing on-slide EE triggers; time windows slide only when the
    /// watermark says so — see [`ExecutionEngine::process_slides`].
    fn window_arrival(&mut self, window: TableId, rows: Vec<Tuple>) -> Result<()> {
        let schema = self.catalog.get(window).schema();
        rows.iter().try_for_each(|t| schema.validate(t.values()))?;
        match self.windows[window.index()] {
            Some(WindowSlot::Tuple(_)) => self.tuple_window_arrival(window, rows),
            Some(WindowSlot::Time(_)) => self.time_window_arrival(window, rows),
            None => Err(Error::not_found("window", self.ids.table_name(window).to_string())),
        }
    }

    fn tuple_window_arrival(&mut self, window: TableId, rows: Vec<Tuple>) -> Result<()> {
        let Some(WindowSlot::Tuple(w)) = self.windows[window.index()].as_mut() else {
            unreachable!("caller dispatched on the tuple variant");
        };
        self.window_undo.push(WindowUndo::Staged { window, n: rows.len() });
        w.stage(rows);
        let trig = self.ee_triggers[window.index()].clone().unwrap_or_else(|| Arc::from([]));
        loop {
            let active = self.catalog.get(window).len();
            let Some(WindowSlot::Tuple(w)) = self.windows[window.index()].as_mut() else {
                unreachable!("variant is stable");
            };
            let Some(outcome) = w.next_slide(active) else { break };
            self.window_undo.push(WindowUndo::Slid { window, restaged: outcome.activated.clone() });
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
        let ts_col = self.window_ts_col[window.index()]
            .ok_or_else(|| Error::Internal("time window lost its ts column".into()))?;
        for t in rows {
            let ts = self.event_ts_of(window, ts_col, &t)?;
            let w = self.time_window(window);
            match w.classify(ts) {
                TimeArrival::Staged => {
                    let prev_next_end = w.next_end();
                    w.stage(ts, t);
                    self.window_undo.push(WindowUndo::TimeStaged { window, ts, prev_next_end });
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
    /// flagged by [`CommitOutcome::slides`].
    pub fn process_slides(&mut self, window: TableId) -> Result<()> {
        if !self.in_txn {
            return Err(Error::InvalidState("slide outside transaction".into()));
        }
        let trig = self.ee_triggers[window.index()].clone().unwrap_or_else(|| Arc::from([]));
        loop {
            let Some(WindowSlot::Time(w)) = self.windows[window.index()].as_mut() else {
                return Err(Error::not_found(
                    "time window",
                    self.ids.table_name(window).to_string(),
                ));
            };
            let Some(outcome) = w.next_slide() else { break };
            self.window_undo.push(WindowUndo::TimeSlid {
                window,
                restaged: outcome.activated.clone(),
                prev_next_end: outcome.prev_next_end,
                prev_fired: outcome.prev_fired,
            });
            for (_, row) in outcome.expired {
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
        Ok(())
    }

    /// Labels freshly inserted stream rows with the transaction's batch
    /// id; fires EE triggers (then garbage-collects the consumed rows)
    /// or records the batch for PE-trigger firing at commit.
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
        if let Some(col) = self.stream_ts_col[stream.index()] {
            let table = self.catalog.get(stream);
            let tuples = rows.iter().map(|id| {
                table.get(*id).ok_or_else(|| {
                    Error::Internal("stream row vanished before high-mark update".into())
                })
            });
            let hi = self.max_event_ts(stream, col, tuples)?;
            self.raise_high_mark(stream, hi);
        }
        self.streams[stream.index()]
            .as_mut()
            .ok_or_else(|| Error::not_found("stream", self.ids.table_name(stream).to_string()))?
            .append(batch, rows.iter().copied());
        self.stream_undo.push(StreamUndo::Appended { stream, batch, n: rows.len() });
        if let Some(stmts) = self.ee_triggers[stream.index()].clone() {
            for sid in stmts.iter() {
                EngineMetrics::bump(&self.metrics.ee_trigger_fires);
                self.exec(*sid, &[])?;
            }
            // Automatic GC (§3.2.3): the triggering tuples have been
            // fully processed inside this EE visit.
            for id in rows {
                self.table_delete(stream, id)?;
                if let Some((b, pos)) =
                    self.streams[stream.index()].as_mut().expect("stream exists").forget_row(id)
                {
                    self.stream_undo.push(StreamUndo::Forgot { stream, batch: b, pos, row: id });
                }
            }
        } else if !self.outputs.iter().any(|(s, b)| *s == stream && *b == batch) {
            self.outputs.push((stream, batch));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Effect-recording table primitives
    // ------------------------------------------------------------------

    fn table_insert(&mut self, table: TableId, tuple: Tuple) -> Result<RowId> {
        let ts = self.window_ts(table, &tuple)?;
        let id = self.catalog.get_mut(table).insert(tuple)?;
        self.effects.push(Effect::Insert { table, row: id });
        if let Some(ts) = ts {
            self.time_window(table).row_inserted(ts, id);
        }
        Ok(id)
    }

    fn table_delete(&mut self, table: TableId, row: RowId) -> Result<Tuple> {
        let tuple = self.catalog.get_mut(table).delete(row)?;
        self.effects.push(Effect::Delete { table, row, tuple: tuple.clone() });
        if let Some(ts) = self.window_ts(table, &tuple)? {
            self.time_window(table).row_deleted(ts, row);
        }
        Ok(tuple)
    }

    /// The event timestamp a time window's ordered set files `tuple`
    /// under; `None` when `table` is anything else.
    fn window_ts(&self, table: TableId, tuple: &Tuple) -> Result<Option<i64>> {
        self.window_ts_col[table.index()].map(|col| tuple.event_ts(col)).transpose()
    }

    fn time_window(&mut self, window: TableId) -> &mut TimeWindowState {
        match self.windows[window.index()].as_mut() {
            Some(WindowSlot::Time(w)) => w,
            _ => unreachable!("only time windows have a timestamp column"),
        }
    }

    /// Keeps a time window's ordered set in step with the undo of `e`
    /// (which the caller applies next): an undone insert leaves the set,
    /// an undone delete returns to it.
    fn undo_in_time_window(&mut self, e: &Effect) -> Result<()> {
        match e {
            Effect::Insert { table, row } => {
                let live = self.catalog.get(*table).get(*row);
                if let Some(ts) = live.map(|t| self.window_ts(*table, t)).transpose()?.flatten() {
                    self.time_window(*table).row_deleted(ts, *row);
                }
            }
            Effect::Delete { table, row, tuple } => {
                if let Some(ts) = self.window_ts(*table, tuple)? {
                    self.time_window(*table).row_inserted(ts, *row);
                }
            }
            Effect::Update { .. } => {}
        }
        Ok(())
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
    /// clients inspecting results). Mutating statements are rejected.
    /// Debug builds check the queried table against its rows first
    /// ([`Table::verify`](sstore_storage::Table::verify)), and a window
    /// against its table ([`ExecutionEngine::verify_window`]), which is
    /// how chaos and the crash tests — every `Engine::query` lands here —
    /// would notice an index, a group index or a window that drifted;
    /// release builds just answer.
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let bound = Planner::new(&self.catalog).plan_sql(sql)?;
        match bound {
            BoundStatement::Select(s) => {
                if cfg!(debug_assertions) {
                    self.catalog.get(s.from.table).verify()?;
                    self.verify_window(s.from.table)?;
                }
                let r = sstore_sql::exec::run_select(&self.catalog, &s, params);
                self.note_columnar_batches();
                r
            }
            _ => Err(Error::Plan("ad-hoc statements must be read-only SELECTs".into())),
        }
    }

    /// Checks a window against its table ([`WindowState::check`],
    /// [`TimeWindowState::check`]); any other table passes.
    pub fn verify_window(&self, table: TableId) -> Result<()> {
        let rows = self.catalog.get(table);
        match &self.windows[table.index()] {
            Some(WindowSlot::Tuple(w)) => w.check(rows.len()),
            Some(WindowSlot::Time(w)) => {
                let col = self.window_ts_col[table.index()].expect("a time window has a timestamp column");
                w.check(event_keys(rows, col)?.into_iter())
            }
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
    /// overwrites an earlier one — the same rule. A time window's
    /// ordered set is in no image: like every index it is rebuilt from
    /// the rows of the table that won. The result is the
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
            let id = self.ids.table_id(&frame.name).ok_or_else(|| {
                Error::Codec(format!("checkpoint image contains unknown table {}", frame.name))
            })?;
            if newest[id.index()].replace(frame).is_some() {
                return Err(Error::Codec("checkpoint image repeats a table".into()));
            }
        }
        if let Some(i) = newest.iter().position(Option::is_none) {
            let name = self.ids.table_name(TableId(i as u32));
            return Err(Error::Codec(format!("checkpoint image is missing table {name}")));
        }
        self.decode_sections(&mut d, &mut sections)?;
        for delta in deltas {
            let mut d = Decoder::new(delta);
            // A table frame is at least its u64 length.
            for _ in 0..d.get_count(8, "table")? {
                let frame = snapshot::TableFrame::read(&mut d)?;
                let id = self.table_id(&frame.name)?;
                newest[id.index()] = Some(frame);
                skipped += 1;
            }
            self.decode_sections(&mut d, &mut sections)?;
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
        rebuild_time_window_sets(&mut sections.windows, &self.window_ts_col, &catalog)?;
        self.catalog = catalog;
        self.streams = sections.streams;
        self.stream_high = sections.stream_high;
        self.windows = sections.windows;
        // State now equals the chain: the next delta is relative to it.
        self.dirty.fill(false);
        Ok(())
    }

    /// Reads the stream section and the window section that end an
    /// image into `into`, overwriting what an older image put there.
    fn decode_sections(&self, d: &mut Decoder<'_>, into: &mut Sections) -> Result<()> {
        // A stream entry is at least a name length, a batch count and a
        // high-mark tag; a window section at least a variant tag, two
        // name lengths, size, slide and a staging count (a tuple window).
        for _ in 0..d.get_count(3, "stream")? {
            let name = d.get_str()?;
            let state = StreamState::decode(d)?;
            let high = d
                .get_opt_i64()
                .map_err(|e| Error::Codec(format!("stream {name}: high mark in checkpoint: {e}")))?;
            let id = self.table_id(&name)?;
            into.streams[id.index()] = Some(state);
            into.stream_high[id.index()] = high;
        }
        for _ in 0..d.get_count(6, "window")? {
            let w = WindowSlot::decode(d)?;
            let id = self.table_id(w.name())?;
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

/// `(event-ts, row)` of `table`'s live rows, the timestamp read from
/// column `col`: what a time window's ordered set holds.
fn event_keys(table: &Table, col: usize) -> Result<Vec<(i64, RowId)>> {
    table.scan_ordered().map(|(id, t)| Ok((t.event_ts(col)?, id))).collect()
}

/// Rebuilds every time window's ordered set from the live rows of its
/// table in `catalog` — the last step of a restore, as an index build is
/// of a table decode.
fn rebuild_time_window_sets(
    windows: &mut [Option<WindowSlot>],
    ts_cols: &[Option<usize>],
    catalog: &Catalog,
) -> Result<()> {
    for (i, slot) in windows.iter_mut().enumerate() {
        let (Some(WindowSlot::Time(w)), Some(col)) = (slot, ts_cols[i]) else { continue };
        let keyed = event_keys(catalog.get(TableId(i as u32)), col)
            .map_err(|e| Error::Codec(format!("window {}: restored row: {e}", w.spec.name)))?;
        w.rebuild_active(keyed.into_iter());
    }
    Ok(())
}

fn push_group(groups: &mut Vec<(TableId, Vec<RowId>)>, table: TableId, row: RowId) {
    if let Some((_, rows)) = groups.iter_mut().find(|(t, _)| *t == table) {
        rows.push(row);
    } else {
        groups.push((table, vec![row]));
    }
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
        assert!(ee.effects.is_empty(), "{:?}", ee.effects);
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
        let effects = ee.effects.len();
        for (stmt, params) in [("copy", vec![]), ("ins", vec![Value::Null]), ("ins", vec![Value::Text("x".into())])] {
            let err = ee.exec(map["wproc"][stmt], &params).unwrap_err();
            assert!(matches!(err, Error::SchemaViolation(_)), "{stmt}: {err}");
            assert_eq!(staged_len(&ee, w), 0, "{stmt}");
            assert_eq!(ee.effects.len(), effects, "{stmt}");
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
    /// the ordered set.
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
        let before = state(&ee);
        assert_eq!((before.staged_len(), before.next_end(), before.active().count()), (3, Some(60), 2));
        // Take an active row from under the window (no SQL can): the
        // pending slide cannot expire it.
        let (_, oldest) = before.active().next().unwrap();
        let gone = ee.catalog.get_mut(tw).delete(oldest).unwrap();
        ee.begin(Some(BatchId(2))).unwrap();
        let err = ee.process_slides(tw).unwrap_err();
        assert!(matches!(err, Error::NotFound { .. }), "{err}");
        ee.abort().unwrap();
        assert_eq!(state(&ee), before, "staging, cursor and set as the failed slide found them");
        // With the row back the same slide runs.
        ee.catalog.get_mut(tw).insert_with_id(oldest, gone).unwrap();
        run_slides(&mut ee, 2, &[tw]);
        ee.verify_window(tw).unwrap();
        assert_eq!(ee.query("SELECT SUM(v) FROM tw", &[]).unwrap().rows, vec![tuple![7i64]]);
        assert_eq!(ee.query("SELECT total FROM sums ORDER BY total", &[]).unwrap().rows, vec![tuple![3i64], tuple![7i64]]);
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
        ee.decode_sections(&mut d, &mut sections).unwrap();
        for delta in &images[1..] {
            let mut d = Decoder::new(delta);
            for _ in 0..d.get_varint().unwrap() {
                let table = snapshot::TableFrame::read(&mut d).unwrap().decode().unwrap();
                catalog.replace_table(table).unwrap();
            }
            ee.decode_sections(&mut d, &mut sections).unwrap();
        }
        rebuild_time_window_sets(&mut sections.windows, &ee.window_ts_col, &catalog).unwrap();
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
