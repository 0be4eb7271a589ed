//! The app's one compile step: [`AppIds::build`] turns an [`App`] into
//! everything the engine reads of it, or refuses it with a stable error
//! kind. It decides, once:
//!
//! * **names** — dense ids for tables / streams / windows (declaration
//!   order: tables, then streams, then windows) and for stored
//!   procedures (declaration order). Duplicate names are refused
//!   (`AlreadyExists`), and so is every name that resolves to nothing
//!   (`NotFound`): trigger ends, outputs, children, window owners, and
//!   partition / timestamp columns (`Plan`);
//! * **rules** — window scoping (§3.2.2: only the owning procedure's SQL
//!   may touch a window; no PE triggers on windows; windows are
//!   append-only through SQL), trigger well-formedness, and the workflow
//!   checks below, all over ids;
//! * **plans** — every procedure statement and EE-trigger statement is
//!   parsed and planned here and nowhere else, each once: it is bound,
//!   the sliding windows' group indexes are derived from the bound
//!   SELECTs, and then its access path is chosen against a catalog that
//!   has them.
//!
//! Every hot-path structure in the engine — routing, the scheduler
//! queue, PE-trigger dispatch, stream/window bookkeeping, the command
//! log — works with [`TableId`] / [`ProcId`] indexes into plain
//! vectors. Lower-casing and string lookup happen exactly once per
//! request, at the public API edge ([`crate::engine::Engine`] methods
//! taking `&str`), never inside the partition or EE execution loop.
//!
//! The ids here are the ids of every catalog the engine builds:
//! [`crate::ee::build_catalog`] creates the app's tables in the same
//! declaration order and attaches the group indexes recorded here, so
//! the plans made here run unchanged on every partition's EE and on the
//! engine edge's ad-hoc catalog.
//!
//! # The workflow graph (§2.2, §2.3)
//!
//! A workflow is a DAG of stored procedures joined by streams: `p → q`
//! when `p` produces a stream that a PE trigger routes to `q`. It is
//! built from two things:
//!
//! * per procedure, the streams it *produces* ([`ProcMeta::produces`]):
//!   its declared outputs plus, for a nested transaction, its children's
//!   — a nested transaction is the runnable unit that commits what its
//!   children emit (§2.3). This is the one place that rule is written;
//! * per stream, its PE-trigger consumers ([`AppIds::pe_targets_of`]).
//!
//! Everything that walks the workflow reads that graph: the cycle check
//! and [`ProcMeta::topo_pos`] (Kahn's algorithm, seeded in declaration
//! order), which [`crate::workflow::check_schedule`] and recovery's
//! dangling-batch re-fire order by; [`StreamMeta::feeds_exchange`] (one
//! pass in reverse topological order), which decides the ingest
//! alignment broadcast; the exchange checks and the exchange-path
//! writer rule; and each procedure's alignment outputs, the produced
//! streams on an exchange path.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sstore_common::hash::FxHashMap;
use sstore_common::{Error, ProcId, Result, Schema, TableId};
use sstore_sql::ast::{Delete, Statement, Update};
use sstore_sql::plan::{group_index_shape, BoundInsert, BoundStatement};
use sstore_sql::Planner;
use sstore_storage::{GroupIndexDef, TableKind};

use crate::app::{
    ingest_runs_one_transaction, referenced_tables, window_is_append_only, App, Windowing,
};
use crate::ee::{build_catalog, StmtId};

/// Interned metadata for one table (base table, stream, or window).
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// Lower-cased name.
    pub name: Arc<str>,
    /// Role in the hybrid model.
    pub kind: TableKind,
    /// Stream-only metadata (`None` for base tables and windows).
    pub stream: Option<StreamMeta>,
    /// Window-only: the owning procedure (slide transactions are
    /// attributed to it). `None` for tables and streams.
    pub owner_proc: Option<ProcId>,
    /// Event-timestamp column of a timed stream or a time window (the
    /// partition checks it to skip watermark bookkeeping for untimed
    /// streams on the hot path).
    pub ts_col: Option<usize>,
}

/// Interned metadata for one stream.
#[derive(Debug, Clone)]
pub struct StreamMeta {
    /// Tuple schema (validated against at the ingestion edge).
    pub schema: Schema,
    /// Partition-key column index, if the stream is partitioned.
    pub partition_col: Option<usize>,
    /// True for exchange streams: batches committed here are
    /// re-partitioned by key hash and shipped to the owning partitions.
    pub exchange: bool,
    /// True when an exchange stream is reachable downstream of this
    /// stream (through PE triggers and produced streams). Ingested
    /// batches on such streams are broadcast as (possibly empty)
    /// sub-batches to *every* partition so that each exchange hop
    /// receives exactly one sub-batch per source partition per batch —
    /// the alignment invariant the exchange merge relies on.
    pub feeds_exchange: bool,
}

impl StreamMeta {
    /// True for an exchange stream and for every stream upstream of one.
    pub(crate) fn on_exchange_path(&self) -> bool {
        self.exchange || self.feeds_exchange
    }
}

/// Interned metadata for one stored procedure.
#[derive(Debug, Clone, Default)]
pub struct ProcMeta {
    /// Lower-cased name.
    pub name: Arc<str>,
    /// The input stream whose batches this procedure consumes (reverse
    /// PE-trigger edge), if it is an interior/child procedure.
    pub input_stream: Option<TableId>,
    /// Position in a fixed topological order of the workflow DAG.
    pub topo_pos: usize,
    /// Streams the body may emit to, with their lower-cased names.
    pub outputs: Vec<(Arc<str>, TableId)>,
    /// For a nested transaction: its children, in run order.
    pub children: Vec<ProcId>,
    /// Streams this procedure produces: its declared outputs, then (for
    /// a nested transaction) its children's, without repeats.
    pub produces: Vec<TableId>,
    /// Produced streams on the path to an exchange (exchange streams
    /// plus `feeds_exchange` locals). On multi-partition S-Store
    /// engines, every streaming commit of this procedure registers a
    /// (possibly empty) batch on each of these *before* the body runs,
    /// so a stage that emits nothing for an empty sub-batch still
    /// advances this partition's copy of the workflow, and a commit
    /// ships every exchange stream it wrote — an empty sub-batch too.
    /// This is the one alignment mechanism: without it a downstream
    /// exchange merge would wait forever for this partition's
    /// sub-batch.
    pub align_outputs: Vec<TableId>,
    /// This procedure's statements: name, as declared, → id (looked
    /// up on every [`crate::ProcCtx::sql`] call).
    pub stmts: FxHashMap<String, StmtId>,
}

/// One compiled application: dense name ↔ id maps, the workflow graph,
/// and the plan of every registered statement.
#[derive(Debug, Default)]
pub struct AppIds {
    tables: Vec<TableMeta>,
    table_by_name: HashMap<String, TableId>,
    procs: Vec<ProcMeta>,
    proc_by_name: HashMap<String, ProcId>,
    /// PE-trigger targets per table id (empty for non-streams).
    pe_targets: Vec<Vec<ProcId>>,
    /// Every registered statement's plan, indexed by [`StmtId`]: each
    /// procedure's statements in declaration order, then each EE
    /// trigger's.
    plans: Vec<BoundStatement>,
    /// EE-trigger statements per table id; `Some` (possibly empty) for
    /// a table with a declared trigger.
    ee_triggers: Vec<Option<Vec<StmtId>>>,
    /// The group indexes derived for sliding windows, in derivation
    /// order.
    group_indexes: Vec<(TableId, GroupIndexDef)>,
}

/// The parsed SQL of an app, kept between the checks and the planning.
struct Parsed {
    /// Per procedure (by id), its statements in declaration order.
    procs: Vec<Vec<Statement>>,
    /// Per EE-trigger declaration, its table and statements.
    triggers: Vec<(TableId, Vec<Statement>)>,
}

impl AppIds {
    /// Compiles `app`: interns every name, checks every rule and plans
    /// every statement (see the module docs). This is the whole of
    /// [`crate::app::AppBuilder::build`]'s validation, and
    /// [`crate::engine::Engine::start`] runs it once more on the app it
    /// is handed, so an app edited after build is held to the same
    /// rules.
    pub fn build(app: &App) -> Result<AppIds> {
        let mut ids = AppIds::default();
        ids.intern(app)?;
        let parsed = ids.link(app)?;
        ids.build_graph()?;
        ids.check_workflow(&parsed)?;
        ids.plan(app, parsed)?;
        Ok(ids)
    }

    /// Assigns ids, refusing duplicates, and resolves what each
    /// declaration names of itself: stream columns, window specs and
    /// owners.
    fn intern(&mut self, app: &App) -> Result<()> {
        for t in &app.tables {
            self.add_table(&t.name, TableKind::Base, None, None, None)?;
        }
        for p in &app.procs {
            let name = p.name.to_ascii_lowercase();
            let id = ProcId(self.procs.len() as u32);
            if self.proc_by_name.insert(name.clone(), id).is_some() {
                return Err(Error::already_exists("procedure", name));
            }
            self.procs.push(ProcMeta { name: Arc::from(name), ..ProcMeta::default() });
        }
        for s in &app.streams {
            let col =
                |c: &Option<String>| c.as_deref().map(|c| s.schema.index_of_or_err(c)).transpose();
            let meta = StreamMeta {
                schema: s.schema.clone(),
                partition_col: col(&s.partition_col)?,
                exchange: s.exchange,
                feeds_exchange: false, // set by `build_graph`
            };
            self.add_table(&s.name, TableKind::Stream, Some(meta), None, col(&s.ts_col)?)?;
        }
        for w in &app.windows {
            let ts_col = w.validate()?;
            let owner = self
                .proc_id(w.owner())
                .ok_or_else(|| Error::not_found("window owner procedure", w.owner()))?;
            self.add_table(w.name(), TableKind::Window, None, Some(owner), ts_col)?;
        }
        // Time windows slide off the partition watermark, which is the
        // min over event-time streams' high marks — without at least
        // one such stream the watermark never advances and the window
        // never fires. Catch the dead config here.
        let timed = |kind| self.of_kind(kind).any(|(_, t)| t.ts_col.is_some());
        if timed(TableKind::Window) && !timed(TableKind::Stream) {
            return Err(Error::StreamViolation(
                "app declares a time window but no event-time stream \
                 (stream_timed / stream_partitioned_timed) to drive its watermark"
                    .into(),
            ));
        }
        self.pe_targets = vec![Vec::new(); self.tables.len()];
        Ok(())
    }

    fn add_table(
        &mut self,
        name: &str,
        kind: TableKind,
        stream: Option<StreamMeta>,
        owner_proc: Option<ProcId>,
        ts_col: Option<usize>,
    ) -> Result<()> {
        let name = name.to_ascii_lowercase();
        if self.table_by_name.insert(name.clone(), TableId(self.tables.len() as u32)).is_some() {
            return Err(Error::already_exists("table/stream/window", name));
        }
        self.tables.push(TableMeta { name: Arc::from(name), kind, stream, owner_proc, ts_col });
        Ok(())
    }

    /// Resolves the triggers, and each procedure's outputs, children and
    /// statements (parsed, and checked against window scoping).
    fn link(&mut self, app: &App) -> Result<Parsed> {
        for t in &app.pe_triggers {
            let stream = self.table_id(&t.stream);
            if stream.is_some_and(|s| self.table(s).kind == TableKind::Window) {
                return Err(Error::StreamViolation(format!(
                    "PE triggers cannot attach to window {} (windows are procedure-private)",
                    t.stream
                )));
            }
            let stream =
                self.stream_id(&t.stream).ok_or_else(|| Error::not_found("stream", &t.stream))?;
            let proc =
                self.proc_id(&t.proc).ok_or_else(|| Error::not_found("procedure", &t.proc))?;
            let targets = &mut self.pe_targets[stream.index()];
            if targets.contains(&proc) {
                return Err(Error::already_exists(
                    "PE trigger",
                    format!("{} -> {}", t.stream, t.proc),
                ));
            }
            targets.push(proc);
            self.procs[proc.index()].input_stream.get_or_insert(stream);
        }

        // Exchange streams only make sense as workflow edges: someone
        // downstream must consume what the exchange delivers.
        for (s, meta) in self.streams() {
            if meta.stream.as_ref().is_some_and(|m| m.exchange) && self.pe_targets_of(s).is_empty()
            {
                return Err(Error::StreamViolation(format!(
                    "exchange stream {} has no PE trigger to deliver to",
                    meta.name
                )));
            }
        }

        // EE triggers attach to streams or windows only, and a stream
        // cannot have both EE and PE triggers (EE-triggered streams are
        // garbage-collected inside the EE; PE-triggered batches must
        // survive until the downstream transaction consumes them).
        let mut triggers = Vec::with_capacity(app.ee_triggers.len());
        for t in &app.ee_triggers {
            let table = self
                .table_id(&t.table)
                .filter(|&id| self.table(id).kind != TableKind::Base)
                .ok_or_else(|| {
                    Error::StreamViolation(format!(
                        "EE trigger target {} is not a stream or window",
                        t.table
                    ))
                })?;
            if !self.pe_targets_of(table).is_empty() {
                return Err(Error::StreamViolation(format!(
                    "stream {} has both EE and PE triggers",
                    t.table
                )));
            }
            let sql = t.sql.iter().map(|sql| {
                sstore_sql::parse(sql)
                    .map_err(|e| Error::Parse(format!("in EE trigger on {}: {e}", t.table)))
            });
            triggers.push((table, sql.collect::<Result<Vec<_>>>()?));
        }

        let mut procs = Vec::with_capacity(app.procs.len());
        for (i, p) in app.procs.iter().enumerate() {
            let outputs = p
                .outputs
                .iter()
                .map(|o| {
                    let s =
                        self.stream_id(o).ok_or_else(|| Error::not_found("output stream", o))?;
                    Ok((self.table_name(s).clone(), s))
                })
                .collect::<Result<Vec<_>>>()?;
            if p.body.is_none() && p.children.is_empty() {
                return Err(Error::Plan(format!(
                    "procedure {} has neither body nor children",
                    p.name
                )));
            }
            let children = p
                .children
                .iter()
                .map(|c| {
                    let child = self
                        .proc_id(c)
                        .ok_or_else(|| Error::not_found("nested child procedure", c))?;
                    if !app.procs[child.index()].children.is_empty() {
                        return Err(Error::Plan(format!(
                            "nested transaction {} cannot contain another nested transaction {c}",
                            p.name
                        )));
                    }
                    Ok(child)
                })
                .collect::<Result<Vec<_>>>()?;
            let mut names = HashSet::new();
            let mut stmts = Vec::with_capacity(p.statements.len());
            for (sname, sql) in &p.statements {
                if !names.insert(sname) {
                    return Err(Error::already_exists("statement", format!("{}.{sname}", p.name)));
                }
                let stmt = sstore_sql::parse(sql)
                    .map_err(|e| Error::Parse(format!("in {}.{sname}: {e}", p.name)))?;
                self.check_scope(ProcId(i as u32), &stmt)?;
                stmts.push(stmt);
            }
            let meta = &mut self.procs[i];
            (meta.outputs, meta.children) = (outputs, children);
            procs.push(stmts);
        }
        Ok(Parsed { procs, triggers })
    }

    /// §3.2.2: a window is private to its owner, and its rows leave by
    /// expiry alone.
    fn check_scope(&self, proc: ProcId, stmt: &Statement) -> Result<()> {
        for table in referenced_tables(stmt) {
            let owner = self.table_id(&table).and_then(|t| self.table(t).owner_proc);
            if let Some(owner) = owner.filter(|&o| o != proc) {
                return Err(Error::StreamViolation(format!(
                    "procedure {} references window {table} owned by {} (§3.2.2 scoping)",
                    self.proc_name(proc),
                    self.proc_name(owner)
                )));
            }
        }
        if let Statement::Update(Update { table, .. }) | Statement::Delete(Delete { table, .. }) =
            stmt
        {
            if self.table_id(table).is_some_and(|t| self.table(t).kind == TableKind::Window) {
                return Err(window_is_append_only(table));
            }
        }
        Ok(())
    }

    /// Folds children's outputs into nested transactions, orders the
    /// graph (rejecting a cycle), and marks what feeds an exchange.
    fn build_graph(&mut self) -> Result<()> {
        // §2.3: a nested transaction produces what its children declare.
        for i in 0..self.procs.len() {
            let mut produces = Vec::new();
            for unit in std::iter::once(ProcId(i as u32)).chain(self.procs[i].children.clone()) {
                for &(_, s) in &self.procs[unit.index()].outputs {
                    if !produces.contains(&s) {
                        produces.push(s);
                    }
                }
            }
            self.procs[i].produces = produces;
        }

        let order = self.topo_order()?;
        for (pos, &p) in order.iter().enumerate() {
            self.procs[p.index()].topo_pos = pos;
        }
        // A stream feeds an exchange when one of its consumers produces a
        // stream on an exchange path; consumers come later in `order`, so
        // walking it backwards settles each stream in one pass.
        for &p in order.iter().rev() {
            if !self.procs[p.index()].produces.iter().any(|&s| self.on_exchange_path(s)) {
                continue;
            }
            for (t, _) in self.pe_targets.iter().enumerate().filter(|(_, to)| to.contains(&p)) {
                if let Some(s) = self.tables[t].stream.as_mut() {
                    s.feeds_exchange = true;
                }
            }
        }

        // Alignment fires once per commit of a TE, so it comes from
        // what the TE produces.
        for i in 0..self.procs.len() {
            let produces = self.procs[i].produces.iter().copied();
            let align = produces.filter(|&s| self.on_exchange_path(s)).collect();
            self.procs[i].align_outputs = align;
        }
        Ok(())
    }

    /// The rules that read the workflow graph.
    fn check_workflow(&self, parsed: &Parsed) -> Result<()> {
        // A stream no procedure produces is fed by ingest alone, and an
        // ingested batch runs exactly one border transaction: with two
        // PE triggers, every ingest into it would be refused.
        for (s, meta) in self.streams() {
            let produced = self.procs.iter().any(|p| p.produces.contains(&s));
            if self.pe_targets_of(s).len() > 1 && !produced {
                return Err(ingest_runs_one_transaction(self, s, &meta.name));
            }
        }

        // Exchange merges are keyed by (stream, batch id), and batch
        // ids are only unique within one border stream's counter. Two
        // producers (or one producer fed by two border streams) would
        // ship colliding batch ids onto the same exchange stream and
        // silently clobber each other's sub-batches, so both are
        // rejected here: an exchange stream needs exactly one
        // *runnable* (PE-triggered) producer, rooted in exactly one
        // border stream. A nested transaction produces its children's
        // outputs, so it is the producer it runs them as.
        let producers = |s: TableId| -> Vec<ProcId> {
            (0..self.proc_count() as u32)
                .map(ProcId)
                .filter(|&p| {
                    self.proc(p).input_stream.is_some() && self.proc(p).produces.contains(&s)
                })
                .collect()
        };
        for (x, meta) in
            self.streams().filter(|(_, m)| m.stream.as_ref().is_some_and(|s| s.exchange))
        {
            let mut todo = producers(x);
            if todo.len() != 1 {
                return Err(Error::StreamViolation(format!(
                    "exchange stream {} needs exactly one PE-triggered producing \
                     procedure (found {}): batch ids from several producers would \
                     collide",
                    meta.name,
                    todo.len()
                )));
            }
            // Walk upstream to the border streams (streams no runnable
            // procedure produces) whose ingest counters the batch ids
            // come from.
            let (mut roots, mut seen) = (Vec::new(), vec![false; self.proc_count()]);
            while let Some(p) = todo.pop() {
                if std::mem::replace(&mut seen[p.index()], true) {
                    continue;
                }
                for (s, _) in self.streams().filter(|(s, _)| self.pe_targets_of(*s).contains(&p)) {
                    let upstream = producers(s);
                    if upstream.is_empty() && !roots.contains(&s) {
                        roots.push(s);
                    }
                    todo.extend(upstream);
                }
            }
            if roots.len() > 1 {
                let mut names: Vec<&str> = roots.iter().map(|&s| &**self.table_name(s)).collect();
                names.sort();
                return Err(Error::StreamViolation(format!(
                    "exchange stream {} is fed by several border streams ({}): \
                     their independent batch counters would collide in the exchange",
                    meta.name,
                    names.join(", ")
                )));
            }
        }

        // Every write into a stream on an exchange path goes through a
        // declared output. Pre-registration gives every declared one a
        // batch on every partition, and a commit ships the exchange
        // streams it wrote, so each source sends one sub-batch per
        // batch; a write no declaration predicts would ship only where
        // it happened and leave a merge short or doubled. So a
        // procedure's INSERT must name the stream among its outputs,
        // and an EE trigger, which runs inside whichever transaction
        // wrote its table (a time window's inside a watermark-driven
        // slide), may not write one at all.
        let on_path = |stmt: &Statement| match stmt {
            Statement::Insert(i) => self.table_id(&i.table).filter(|&s| self.on_exchange_path(s)),
            _ => None,
        };
        for (meta, stmts) in self.procs.iter().zip(&parsed.procs) {
            let undeclared = stmts
                .iter()
                .filter_map(on_path)
                .find(|&s| !meta.outputs.iter().any(|&(_, o)| o == s));
            if let Some(s) = undeclared {
                return Err(Error::StreamViolation(format!(
                    "procedure {} inserts into {}, which reaches an exchange stream, \
                     without declaring it as an output",
                    meta.name,
                    self.table_name(s)
                )));
            }
        }
        for (table, stmts) in &parsed.triggers {
            if let Some(s) = stmts.iter().find_map(on_path) {
                return Err(Error::StreamViolation(format!(
                    "EE trigger on {}: trigger output {} reaches an exchange stream, \
                     and trigger rows are not batch-aligned across partitions",
                    self.table_name(*table),
                    self.table_name(s)
                )));
            }
        }
        Ok(())
    }

    /// Plans every registered statement, each once. Every statement is
    /// bound first; the first that does not bind, in registration order,
    /// is the error. The bound SELECTs then give every overlapping window
    /// (`slide < size`) one group index per distinct grouped shape
    /// registered against it that an index can answer
    /// ([`group_index_shape`]): every statement that can run against a
    /// window is registered with the app (§3.2.2 scoping), so the engine
    /// derives the indexes; nobody declares them. A tumbling window gets
    /// none: its slide replaces every row, and maintaining the aggregate
    /// would cost what re-reading the extent does. Last, every statement's
    /// access path is chosen against the catalog holding them.
    fn plan(&mut self, app: &App, parsed: Parsed) -> Result<()> {
        let mut catalog = build_catalog(app, self)?;
        let triggers = parsed.triggers.iter().flat_map(|(_, s)| s);
        let registered = parsed.procs.iter().flatten().chain(triggers);
        let planner = Planner::new(&catalog);
        let mut plans = registered.map(|s| planner.bind(s)).collect::<Result<Vec<_>>>()?;

        let tumbles = app.windows.iter().map(|w| match &w.windowing {
            Windowing::Tuple(spec) => spec.is_tumbling(),
            Windowing::Time(spec) => spec.is_tumbling(),
        });
        let sliding: Vec<TableId> = self
            .of_kind(TableKind::Window)
            .zip(tumbles)
            .filter(|(_, t)| !t)
            .map(|((id, _), _)| id)
            .collect();
        for plan in &plans {
            let select = match plan {
                BoundStatement::Select(s) => s,
                BoundStatement::Insert(BoundInsert { select: Some(s), .. }) => s,
                _ => continue,
            };
            let table = select.from.table;
            if !sliding.contains(&table) {
                continue;
            }
            let Some(def) = group_index_shape(select, catalog.get(table).schema()) else {
                continue;
            };
            if catalog.get(table).group_index(&def).is_none() {
                catalog.get_mut(table).create_group_index(def.clone())?;
                self.group_indexes.push((table, def));
            }
        }

        let planner = Planner::new(&catalog);
        plans.iter_mut().for_each(|p| planner.choose_access(p));
        self.plans = plans;
        let mut next = 0;
        for (meta, p) in self.procs.iter_mut().zip(&app.procs) {
            meta.stmts = p.statements.iter().map(|(name, _)| name.clone()).zip(next..).collect();
            next += p.statements.len();
        }
        self.ee_triggers = vec![None; self.tables.len()];
        for (table, stmts) in &parsed.triggers {
            let list = self.ee_triggers[table.index()].get_or_insert_with(Vec::new);
            list.extend(next..next + stmts.len());
            next += stmts.len();
        }
        Ok(())
    }

    /// Kahn's algorithm over `p → q` (`p` produces a stream that
    /// triggers `q`), seeded with procedures in declaration order:
    /// every procedure in a topological order, or an error naming the
    /// first declared one on a cycle.
    fn topo_order(&self) -> Result<Vec<ProcId>> {
        let successors = move |p: ProcId| {
            self.procs[p.index()].produces.iter().flat_map(|s| &self.pe_targets[s.index()])
        };
        let mut indegree = vec![0usize; self.procs.len()];
        for q in (0..self.procs.len()).flat_map(|p| successors(ProcId(p as u32))) {
            indegree[q.index()] += 1;
        }
        let mut order: Vec<ProcId> =
            (0..self.procs.len()).filter(|&p| indegree[p] == 0).map(|p| ProcId(p as u32)).collect();
        let mut next = 0;
        while let Some(&p) = order.get(next) {
            next += 1;
            for q in successors(p) {
                indegree[q.index()] -= 1;
                if indegree[q.index()] == 0 {
                    order.push(*q);
                }
            }
        }
        match indegree.iter().position(|&d| d > 0) {
            Some(stuck) => Err(Error::StreamViolation(format!(
                "workflow graph has a cycle through {}",
                self.procs[stuck].name
            ))),
            None => Ok(order),
        }
    }

    /// True when `id` is a stream on an exchange path
    /// ([`StreamMeta::on_exchange_path`]).
    pub(crate) fn on_exchange_path(&self, id: TableId) -> bool {
        self.tables[id.index()].stream.as_ref().is_some_and(StreamMeta::on_exchange_path)
    }

    /// Resolves a table/stream/window name (case-insensitive).
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        if let Some(id) = self.table_by_name.get(name) {
            return Some(*id);
        }
        self.table_by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Resolves a name that must be a stream.
    fn stream_id(&self, name: &str) -> Option<TableId> {
        self.table_id(name).filter(|&id| self.table(id).stream.is_some())
    }

    /// Resolves a procedure name (case-insensitive).
    pub fn proc_id(&self, name: &str) -> Option<ProcId> {
        if let Some(id) = self.proc_by_name.get(name) {
            return Some(*id);
        }
        self.proc_by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Metadata of a table id.
    #[inline]
    pub fn table(&self, id: TableId) -> &TableMeta {
        &self.tables[id.index()]
    }

    /// Metadata of a procedure id.
    #[inline]
    pub fn proc(&self, id: ProcId) -> &ProcMeta {
        &self.procs[id.index()]
    }

    /// Lower-cased table name.
    #[inline]
    pub fn table_name(&self, id: TableId) -> &Arc<str> {
        &self.tables[id.index()].name
    }

    /// Lower-cased procedure name.
    #[inline]
    pub fn proc_name(&self, id: ProcId) -> &Arc<str> {
        &self.procs[id.index()].name
    }

    /// A procedure statement's name, `"<stmt> in <proc>"`, for errors
    /// (EE-trigger statements have none: `"statement <id>"`).
    pub(crate) fn stmt_name(&self, id: StmtId) -> String {
        let named = self.procs.iter().find_map(|p| {
            p.stmts.iter().find(|(_, &s)| s == id).map(|(n, _)| format!("{n} in {}", p.name))
        });
        named.unwrap_or_else(|| format!("statement {id}"))
    }

    /// PE-trigger target procedures of a stream, in declaration order.
    #[inline]
    pub fn pe_targets_of(&self, stream: TableId) -> &[ProcId] {
        &self.pe_targets[stream.index()]
    }

    /// Every registered statement's plan, indexed by [`StmtId`].
    pub fn plans(&self) -> &[BoundStatement] {
        &self.plans
    }

    /// EE-trigger statements per table id.
    pub fn ee_triggers(&self) -> &[Option<Vec<StmtId>>] {
        &self.ee_triggers
    }

    /// The group indexes derived for sliding windows.
    pub(crate) fn group_indexes(&self) -> &[(TableId, GroupIndexDef)] {
        &self.group_indexes
    }

    /// Number of interned tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Number of interned procedures.
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// Iterates `(TableId, &TableMeta)` for all stream tables.
    pub fn streams(&self) -> impl Iterator<Item = (TableId, &TableMeta)> + '_ {
        self.of_kind(TableKind::Stream)
    }

    /// Iterates `(TableId, &TableMeta)` for the tables of one kind, in
    /// declaration order.
    pub(crate) fn of_kind(
        &self,
        kind: TableKind,
    ) -> impl Iterator<Item = (TableId, &TableMeta)> + '_ {
        self.tables
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.kind == kind)
            .map(|(i, t)| (TableId(i as u32), t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::DataType;

    fn app() -> App {
        App::builder()
            .table("base", Schema::of(&[("v", DataType::Int)]))
            .stream("s_in", Schema::of(&[("v", DataType::Int)]))
            .stream("s_mid", Schema::of(&[("v", DataType::Int)]))
            .window("w", "p1", Schema::of(&[("v", DataType::Int)]), 3, 1)
            .proc("p1", &[], &["s_mid"], |_| Ok(()))
            .proc("p2", &[], &[], |_| Ok(()))
            .pe_trigger("s_in", "p1")
            .pe_trigger("s_mid", "p2")
            .build()
            .unwrap()
    }

    #[test]
    fn ids_follow_declaration_order() {
        let ids = AppIds::build(&app()).unwrap();
        assert_eq!(ids.table_id("base"), Some(TableId(0)));
        assert_eq!(ids.table_id("s_in"), Some(TableId(1)));
        assert_eq!(ids.table_id("S_MID"), Some(TableId(2)));
        assert_eq!(ids.table_id("w"), Some(TableId(3)));
        assert_eq!(ids.table_id("nosuch"), None);
        assert_eq!(ids.proc_id("p1"), Some(ProcId(0)));
        assert_eq!(ids.proc_id("P2"), Some(ProcId(1)));
        assert_eq!(&**ids.table_name(TableId(2)), "s_mid");
        assert_eq!(ids.table_count(), 4);
        assert_eq!(ids.proc_count(), 2);
    }

    #[test]
    fn statement_names_map_to_ids_in_declaration_order() {
        let v = || Schema::of(&[("v", DataType::Int)]);
        let app = App::builder()
            .table("base", v())
            .stream("s", v())
            .proc(
                "p1",
                &[("check", "SELECT v FROM base"), ("Record", "INSERT INTO base (v) VALUES (?)")],
                &[],
                |_| Ok(()),
            )
            .proc("p2", &[("check", "SELECT v FROM base WHERE v = ?")], &[], |_| Ok(()))
            .ee_trigger("s", &["INSERT INTO base (v) SELECT v FROM s"])
            .build()
            .unwrap();
        let ids = AppIds::build(&app).unwrap();
        let stmts = |p: &str| &ids.proc(ids.proc_id(p).unwrap()).stmts;
        assert_eq!(stmts("p1").len(), 2);
        assert_eq!(stmts("p1").get("check"), Some(&0), "looked up by a borrowed name");
        assert_eq!(stmts("p1").get("Record"), Some(&1), "under the name as declared");
        assert_eq!(stmts("p2").get("check"), Some(&2));
        // The EE trigger's statement follows every procedure's.
        assert_eq!(ids.ee_triggers()[ids.table_id("s").unwrap().index()], Some(vec![3]));
        assert_eq!(ids.plans().len(), 4);
    }

    #[test]
    fn stream_metadata_and_triggers() {
        let ids = AppIds::build(&app()).unwrap();
        let s_in = ids.table_id("s_in").unwrap();
        let s_mid = ids.table_id("s_mid").unwrap();
        let p1 = ids.proc_id("p1").unwrap();
        let p2 = ids.proc_id("p2").unwrap();
        assert_eq!(ids.pe_targets_of(s_in), &[p1]);
        assert_eq!(ids.pe_targets_of(s_mid), &[p2]);
        assert!(ids.pe_targets_of(ids.table_id("base").unwrap()).is_empty());
        assert_eq!(ids.proc(p1).input_stream, Some(s_in));
        assert_eq!(ids.proc(p2).input_stream, Some(s_mid));
        assert_eq!(ids.proc(p1).produces, vec![s_mid]);
        assert_eq!(ids.proc(p1).outputs, vec![(ids.table_name(s_mid).clone(), s_mid)]);
        assert!(ids.proc(p1).children.is_empty() && ids.proc(p1).align_outputs.is_empty());
        assert!(ids.proc(p1).topo_pos < ids.proc(p2).topo_pos);
        assert_eq!(ids.streams().count(), 2);
    }

    #[test]
    fn a_nested_parent_produces_its_childs_exchange_output() {
        // `child` declares the exchange stream; the nested parent is
        // what the border triggers, so the parent is the unit that ships
        // and aligns `x`, and the border stream feeds the exchange.
        let schema = || Schema::of(&[("v", DataType::Int)]);
        let app = App::builder()
            .stream_partitioned("s_in", schema(), "v")
            .exchange_stream("x", schema(), "v")
            .proc("child", &[], &["x"], |_| Ok(()))
            .nested("parent", &["child"])
            .proc("sink", &[], &[], |_| Ok(()))
            .pe_trigger("s_in", "parent")
            .pe_trigger("x", "sink")
            .build()
            .unwrap();
        let ids = AppIds::build(&app).unwrap();
        let (s_in, x) = (ids.table_id("s_in").unwrap(), ids.table_id("x").unwrap());
        let parent = ids.proc(ids.proc_id("parent").unwrap());
        assert!(ids.table(s_in).stream.as_ref().unwrap().feeds_exchange);
        // A procedure's alignment outputs are the produced streams on an
        // exchange path: the parent's hold `x`.
        assert_eq!(parent.produces, vec![x]);
        assert_eq!(parent.align_outputs, vec![x]);
        assert!(ids.table(x).stream.as_ref().unwrap().exchange && ids.on_exchange_path(x));
        assert!(parent.topo_pos < ids.proc(ids.proc_id("sink").unwrap()).topo_pos);
    }
}
