//! Declarative application definitions.
//!
//! An [`App`] is everything the engine must know before it starts:
//! tables, streams, windows, stored procedures (with their SQL and Rust
//! bodies), EE triggers, and PE triggers (the workflow edges). The
//! paper's model requires all transactions be predefined (§2); recovery
//! additionally relies on it — a command log can only be replayed
//! against the same application definition.
//!
//! [`AppBuilder::build`] performs the static checks: unique names,
//! window scoping (§3.2.2 — only the owning procedure's SQL may touch a
//! window; no PE triggers on windows), trigger well-formedness, and the
//! workflow checks, which read the one workflow graph
//! [`AppIds::build`] derives (see [`crate::names`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sstore_common::{Error, ProcId, Result, Schema, TableId};
use sstore_sql::ast::{Delete, InsertSource, Select, Statement, Update};
use sstore_storage::index::IndexDef;
use sstore_storage::GroupIndexDef;

use crate::names::AppIds;
use crate::procedure::ProcCtx;
use crate::trigger::{EeTriggerDef, PeTriggerDef};
use crate::window::{TimeWindowSpec, WindowSpec};

/// A stored-procedure body: procedural logic around the SQL.
pub type ProcBody = Arc<dyn Fn(&mut ProcCtx<'_>) -> Result<()> + Send + Sync>;

/// A public shared table (§2: state kind (i)).
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Secondary indexes.
    pub indexes: Vec<IndexDef>,
    /// Group indexes. The engine derives a window's from the statements
    /// registered against it ([`crate::ee::build_catalog`]); a base table
    /// carries only what a harness that builds its `TableDef`s by hand
    /// lists here (sqlfuzz). No builder method sets this.
    pub group_indexes: Vec<GroupIndexDef>,
}

/// A stream (§2: state kind (iii)), implemented as a time-varying table.
#[derive(Debug, Clone)]
pub struct StreamDef {
    /// Stream name == backing table name.
    pub name: String,
    /// Tuple schema.
    pub schema: Schema,
    /// Column used to route externally-ingested batches to partitions
    /// (§4.7). `None` routes everything to partition 0.
    pub partition_col: Option<String>,
    /// True for exchange streams: a batch committed onto this stream is
    /// re-partitioned by `partition_col` hash and shipped to the
    /// partitions that own the keys, where the PE-triggered downstream
    /// transaction runs. This is the edge that lets one workflow span
    /// partitions (cf. MorphStream / Risingwave exchange operators).
    pub exchange: bool,
    /// Event-timestamp column, if the stream carries event time. The
    /// partition watermark — which drives time-window slides — is the
    /// min over all such streams' high marks, advanced at batch commit
    /// like a border punctuation.
    pub ts_col: Option<String>,
}

/// Which windowing discipline a window uses.
#[derive(Debug, Clone)]
pub enum Windowing {
    /// Tuple-based: slides every `slide` arrivals (§3.2.2).
    Tuple(WindowSpec),
    /// Time-based: slides when the partition watermark passes a
    /// pane-aligned extent boundary.
    Time(TimeWindowSpec),
}

/// A window (§2: state kind (ii)), private to its owning procedure.
#[derive(Debug, Clone)]
pub struct WindowDef {
    /// Window spec, either discipline.
    pub windowing: Windowing,
    /// Tuple schema.
    pub schema: Schema,
}

impl WindowDef {
    /// Window name == backing table name.
    pub fn name(&self) -> &str {
        match &self.windowing {
            Windowing::Tuple(s) => &s.name,
            Windowing::Time(s) => &s.name,
        }
    }

    /// Owning stored procedure.
    pub fn owner(&self) -> &str {
        match &self.windowing {
            Windowing::Tuple(s) => &s.owner,
            Windowing::Time(s) => &s.owner,
        }
    }

    fn validate(&self) -> Result<()> {
        match &self.windowing {
            Windowing::Tuple(s) => s.validate(),
            Windowing::Time(s) => {
                s.validate()?;
                self.schema.index_of_or_err(&s.ts_column).map_err(|_| {
                    Error::Plan(format!(
                        "time window {}: timestamp column {} not in schema",
                        s.name, s.ts_column
                    ))
                })?;
                Ok(())
            }
        }
    }
}

/// A stored procedure definition.
#[derive(Clone)]
pub struct ProcDef {
    /// Name.
    pub name: String,
    /// Named SQL statements, compiled once at engine start.
    pub statements: Vec<(String, String)>,
    /// Body; `None` only for nested containers.
    pub body: Option<ProcBody>,
    /// Streams the body may `emit` to.
    pub outputs: Vec<String>,
    /// Nested transaction: ordered children (themselves procedures).
    pub children: Vec<String>,
}

impl std::fmt::Debug for ProcDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcDef")
            .field("name", &self.name)
            .field("statements", &self.statements.len())
            .field("outputs", &self.outputs)
            .field("children", &self.children)
            .finish()
    }
}

/// A validated application definition.
#[derive(Debug, Clone, Default)]
pub struct App {
    /// Public shared tables.
    pub tables: Vec<TableDef>,
    /// Streams.
    pub streams: Vec<StreamDef>,
    /// Windows.
    pub windows: Vec<WindowDef>,
    /// Stored procedures.
    pub procs: Vec<ProcDef>,
    /// EE triggers.
    pub ee_triggers: Vec<EeTriggerDef>,
    /// PE triggers (workflow edges).
    pub pe_triggers: Vec<PeTriggerDef>,
}

impl App {
    /// Starts building an app.
    pub fn builder() -> AppBuilder {
        AppBuilder::default()
    }

    /// Looks up a stream definition.
    pub fn stream(&self, name: &str) -> Option<&StreamDef> {
        self.streams.iter().find(|s| s.name.eq_ignore_ascii_case(name))
    }
}

/// Builder with validation at [`AppBuilder::build`].
#[derive(Default)]
pub struct AppBuilder {
    app: App,
}

impl AppBuilder {
    /// Adds a public shared table.
    pub fn table(self, name: &str, schema: Schema) -> Self {
        self.table_indexed(name, schema, Vec::new())
    }

    /// Adds a table with secondary indexes.
    pub fn table_indexed(mut self, name: &str, schema: Schema, indexes: Vec<IndexDef>) -> Self {
        let group_indexes = Vec::new();
        self.app.tables.push(TableDef { name: name.to_ascii_lowercase(), schema, indexes, group_indexes });
        self
    }

    /// Adds a stream.
    pub fn stream(mut self, name: &str, schema: Schema) -> Self {
        self.app.streams.push(StreamDef {
            name: name.to_ascii_lowercase(),
            schema,
            partition_col: None,
            exchange: false,
            ts_col: None,
        });
        self
    }

    /// Adds a stream whose ingested batches are routed to partitions by
    /// hashing `partition_col`.
    pub fn stream_partitioned(mut self, name: &str, schema: Schema, partition_col: &str) -> Self {
        self.app.streams.push(StreamDef {
            name: name.to_ascii_lowercase(),
            schema,
            partition_col: Some(partition_col.to_ascii_lowercase()),
            exchange: false,
            ts_col: None,
        });
        self
    }

    /// Adds a stream carrying event time in `ts_col`: its per-partition
    /// high mark feeds the partition watermark that drives time-window
    /// slides.
    pub fn stream_timed(mut self, name: &str, schema: Schema, ts_col: &str) -> Self {
        self.app.streams.push(StreamDef {
            name: name.to_ascii_lowercase(),
            schema,
            partition_col: None,
            exchange: false,
            ts_col: Some(ts_col.to_ascii_lowercase()),
        });
        self
    }

    /// Adds a hash-partitioned, event-time-carrying stream (see
    /// [`AppBuilder::stream_partitioned`] and
    /// [`AppBuilder::stream_timed`]).
    pub fn stream_partitioned_timed(
        mut self,
        name: &str,
        schema: Schema,
        partition_col: &str,
        ts_col: &str,
    ) -> Self {
        self.app.streams.push(StreamDef {
            name: name.to_ascii_lowercase(),
            schema,
            partition_col: Some(partition_col.to_ascii_lowercase()),
            exchange: false,
            ts_col: Some(ts_col.to_ascii_lowercase()),
        });
        self
    }

    /// Adds an exchange stream: a workflow edge that re-partitions data
    /// between stages. When a transaction commits a batch onto this
    /// stream, the batch is split by `partition_col` hash and shipped to
    /// every partition (empty sub-batches included, so downstream
    /// transactions stay aligned per batch); the stream's PE trigger
    /// then fires on the *receiving* partitions. On a single-partition
    /// engine this degenerates to an ordinary PE-triggered stream.
    pub fn exchange_stream(mut self, name: &str, schema: Schema, partition_col: &str) -> Self {
        self.app.streams.push(StreamDef {
            name: name.to_ascii_lowercase(),
            schema,
            partition_col: Some(partition_col.to_ascii_lowercase()),
            exchange: true,
            ts_col: None,
        });
        self
    }

    /// Adds a tuple-based sliding window owned by `owner`.
    pub fn window(mut self, name: &str, owner: &str, schema: Schema, size: usize, slide: usize) -> Self {
        self.app.windows.push(WindowDef {
            windowing: Windowing::Tuple(WindowSpec {
                name: name.to_ascii_lowercase(),
                owner: owner.to_ascii_lowercase(),
                size,
                slide,
            }),
            schema,
        });
        self
    }

    /// Adds a time-based (event-time) sliding window owned by `owner`.
    /// `ts_col` names the integer timestamp column of `schema`; extents
    /// are pane-aligned `[k·slide_ms, k·slide_ms + size_ms)` and slide
    /// when the partition watermark passes an extent end. Late tuples
    /// within `allowed_lateness_ms` of the watermark are merged into
    /// the active extent; beyond it they are counted and dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn time_window(
        mut self,
        name: &str,
        owner: &str,
        schema: Schema,
        ts_col: &str,
        size_ms: i64,
        slide_ms: i64,
        allowed_lateness_ms: i64,
    ) -> Self {
        self.app.windows.push(WindowDef {
            windowing: Windowing::Time(TimeWindowSpec {
                name: name.to_ascii_lowercase(),
                owner: owner.to_ascii_lowercase(),
                ts_column: ts_col.to_ascii_lowercase(),
                size_ms,
                slide_ms,
                allowed_lateness_ms,
            }),
            schema,
        });
        self
    }

    /// Adds a stored procedure.
    ///
    /// `statements` are `(name, sql)` pairs compiled at engine start;
    /// `outputs` are the streams the body may [`ProcCtx::emit`] to.
    pub fn proc<F>(
        mut self,
        name: &str,
        statements: &[(&str, &str)],
        outputs: &[&str],
        body: F,
    ) -> Self
    where
        F: Fn(&mut ProcCtx<'_>) -> Result<()> + Send + Sync + 'static,
    {
        self.app.procs.push(ProcDef {
            name: name.to_ascii_lowercase(),
            statements: statements
                .iter()
                .map(|(n, s)| ((*n).to_owned(), (*s).to_owned()))
                .collect(),
            body: Some(Arc::new(body)),
            outputs: outputs.iter().map(|s| s.to_ascii_lowercase()).collect(),
            children: Vec::new(),
        });
        self
    }

    /// Adds a nested transaction: `children` run in order as a single
    /// isolation unit (commit/abort together, §2.3).
    pub fn nested(mut self, name: &str, children: &[&str]) -> Self {
        self.app.procs.push(ProcDef {
            name: name.to_ascii_lowercase(),
            statements: Vec::new(),
            body: None,
            outputs: Vec::new(),
            children: children.iter().map(|c| c.to_ascii_lowercase()).collect(),
        });
        self
    }

    /// Attaches an EE trigger: SQL run inside the EE when tuples land on
    /// `table` (a stream or window).
    pub fn ee_trigger(mut self, table: &str, sql: &[&str]) -> Self {
        self.app.ee_triggers.push(EeTriggerDef {
            table: table.to_ascii_lowercase(),
            sql: sql.iter().map(|s| (*s).to_owned()).collect(),
        });
        self
    }

    /// Attaches a PE trigger: `proc` runs when a batch commits on
    /// `stream`. These are the workflow edges.
    pub fn pe_trigger(mut self, stream: &str, proc: &str) -> Self {
        self.app.pe_triggers.push(PeTriggerDef {
            stream: stream.to_ascii_lowercase(),
            proc: proc.to_ascii_lowercase(),
        });
        self
    }

    /// Validates and returns the app. Names, schemas, triggers and SQL
    /// are checked first; then the workflow graph is built
    /// ([`AppIds::build`], which rejects a cycle — nested transactions
    /// included) and read for the exchange checks (one PE-triggered
    /// producer and one border stream behind each exchange stream) and
    /// the time-window check (no slide output on an exchange path).
    pub fn build(self) -> Result<App> {
        let app = self.app;
        let mut names: HashSet<&str> = HashSet::new();
        for n in app
            .tables
            .iter()
            .map(|t| t.name.as_str())
            .chain(app.streams.iter().map(|s| s.name.as_str()))
            .chain(app.windows.iter().map(|w| w.name()))
        {
            if !names.insert(n) {
                return Err(Error::already_exists("table/stream/window", n));
            }
        }
        let stream_names: HashSet<&str> = app.streams.iter().map(|s| s.name.as_str()).collect();
        let window_owner: HashMap<&str, &str> =
            app.windows.iter().map(|w| (w.name(), w.owner())).collect();
        let proc_names: HashSet<&str> = app.procs.iter().map(|p| p.name.as_str()).collect();

        // Window specs valid; owners exist.
        for w in &app.windows {
            w.validate()?;
            if !proc_names.contains(w.owner()) {
                return Err(Error::not_found("window owner procedure", w.owner()));
            }
        }

        // Streams used for partitioned ingest have a valid key column;
        // event-time streams have a valid timestamp column.
        for s in &app.streams {
            if let Some(col) = &s.partition_col {
                s.schema.index_of_or_err(col)?;
            }
            if let Some(col) = &s.ts_col {
                s.schema.index_of_or_err(col)?;
            }
        }

        // Time windows slide off the partition watermark, which is the
        // min over event-time streams' high marks — without at least
        // one such stream the watermark never advances and the window
        // never fires. Catch the dead config at build time.
        let has_time_window =
            app.windows.iter().any(|w| matches!(w.windowing, Windowing::Time(_)));
        if has_time_window && !app.streams.iter().any(|s| s.ts_col.is_some()) {
            return Err(Error::StreamViolation(
                "app declares a time window but no event-time stream \
                 (stream_timed / stream_partitioned_timed) to drive its watermark"
                    .into(),
            ));
        }

        // PE triggers: stream exists (and is a stream, not a window) and
        // the target procedure exists.
        for t in &app.pe_triggers {
            if window_owner.contains_key(t.stream.as_str()) {
                return Err(Error::StreamViolation(format!(
                    "PE triggers cannot attach to window {} (windows are procedure-private)",
                    t.stream
                )));
            }
            if !stream_names.contains(t.stream.as_str()) {
                return Err(Error::not_found("stream", &t.stream));
            }
            if !proc_names.contains(t.proc.as_str()) {
                return Err(Error::not_found("procedure", &t.proc));
            }
        }

        // EE triggers attach to streams or windows only, and a stream
        // cannot have both EE and PE triggers (EE-triggered streams are
        // garbage-collected inside the EE; PE-triggered batches must
        // survive until the downstream transaction consumes them).
        let pe_streams: HashSet<&str> =
            app.pe_triggers.iter().map(|t| t.stream.as_str()).collect();

        // Exchange streams only make sense as workflow edges: someone
        // downstream must consume what the exchange delivers.
        for s in &app.streams {
            if s.exchange && !pe_streams.contains(s.name.as_str()) {
                return Err(Error::StreamViolation(format!(
                    "exchange stream {} has no PE trigger to deliver to",
                    s.name
                )));
            }
        }

        for t in &app.ee_triggers {
            let is_stream = stream_names.contains(t.table.as_str());
            let is_window = window_owner.contains_key(t.table.as_str());
            if !is_stream && !is_window {
                return Err(Error::StreamViolation(format!(
                    "EE trigger target {} is not a stream or window",
                    t.table
                )));
            }
            if is_stream && pe_streams.contains(t.table.as_str()) {
                return Err(Error::StreamViolation(format!(
                    "stream {} has both EE and PE triggers",
                    t.table
                )));
            }
        }

        // Procedures: outputs are streams; children exist and are plain
        // procs; SQL parses and respects window scoping.
        for p in &app.procs {
            for o in &p.outputs {
                if !stream_names.contains(o.as_str()) {
                    return Err(Error::not_found("output stream", o));
                }
            }
            if p.body.is_none() && p.children.is_empty() {
                return Err(Error::Plan(format!("procedure {} has neither body nor children", p.name)));
            }
            for c in &p.children {
                let child = app
                    .procs
                    .iter()
                    .find(|q| q.name == *c)
                    .ok_or_else(|| Error::not_found("nested child procedure", c))?;
                if !child.children.is_empty() {
                    return Err(Error::Plan(format!(
                        "nested transaction {} cannot contain another nested transaction {c}",
                        p.name
                    )));
                }
            }
            for (sname, sql) in &p.statements {
                let stmt = sstore_sql::parse(sql).map_err(|e| {
                    Error::Parse(format!("in {}.{sname}: {e}", p.name))
                })?;
                for table in referenced_tables(&stmt) {
                    if let Some(owner) = window_owner.get(table.as_str()) {
                        if *owner != p.name {
                            return Err(Error::StreamViolation(format!(
                                "procedure {} references window {table} owned by {owner} (§3.2.2 scoping)",
                                p.name
                            )));
                        }
                    }
                }
                if let Statement::Update(Update { table, .. }) | Statement::Delete(Delete { table, .. }) =
                    &stmt
                {
                    if window_owner.contains_key(table.as_str()) {
                        return Err(window_is_append_only(table));
                    }
                }
            }
        }

        // The workflow graph ([`AppIds::build`]) rejects cycles and
        // answers the checks below.
        let ids = AppIds::build(&app)?;

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
            (0..ids.proc_count() as u32)
                .map(ProcId)
                .filter(|&p| ids.proc(p).input_stream.is_some() && ids.proc(p).produces.contains(&s))
                .collect()
        };
        for (x, meta) in ids.streams().filter(|(_, m)| m.stream.as_ref().is_some_and(|s| s.exchange)) {
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
            let (mut roots, mut seen) = (Vec::new(), vec![false; ids.proc_count()]);
            while let Some(p) = todo.pop() {
                if std::mem::replace(&mut seen[p.index()], true) {
                    continue;
                }
                for (s, _) in ids.streams().filter(|(s, _)| ids.pe_targets_of(*s).contains(&p)) {
                    let upstream = producers(s);
                    if upstream.is_empty() && !roots.contains(&s) {
                        roots.push(s);
                    }
                    todo.extend(upstream);
                }
            }
            if roots.len() > 1 {
                let mut names: Vec<&str> = roots.iter().map(|&s| &**ids.table_name(s)).collect();
                names.sort();
                return Err(Error::StreamViolation(format!(
                    "exchange stream {} is fed by several border streams ({}): \
                     their independent batch counters would collide in the exchange",
                    meta.name,
                    names.join(", ")
                )));
            }
        }

        // Time-window slides run per partition when the local watermark
        // crosses an extent boundary — NOT once per batch — so their
        // triggers cannot feed an exchange edge, directly OR transitively
        // (a slide output landing on a plain stream whose downstream
        // procedure re-ships an exchange sub-batch would duplicate the
        // batch id the original round already shipped, corrupting the
        // merge).
        for t in &app.ee_triggers {
            if !app.windows.iter().any(|w| w.name() == t.table && matches!(w.windowing, Windowing::Time(_))) {
                continue;
            }
            for sql in &t.sql {
                let Ok(Statement::Insert(i)) = sstore_sql::parse(sql) else { continue };
                if ids.table_id(&i.table).is_some_and(|s| ids.on_exchange_path(s)) {
                    return Err(Error::StreamViolation(format!(
                        "time window {} trigger output {} reaches an exchange stream: \
                         watermark-driven slides are not batch-aligned across partitions",
                        t.table,
                        i.table.to_ascii_lowercase()
                    )));
                }
            }
        }
        Ok(app)
    }
}

/// The error an `UPDATE` or `DELETE` aimed at a window is: a window's
/// rows leave by expiry alone, which is the engine's to decide — the
/// oldest rows of the table are the ones a slide expires.
pub(crate) fn window_is_append_only(window: &str) -> Error {
    Error::StreamViolation(format!(
        "window {window} is append-only through SQL: UPDATE and DELETE are rejected, rows leave by expiry"
    ))
}

/// All table names referenced by a statement (FROM, JOIN, INSERT/UPDATE/
/// DELETE targets, nested INSERT…SELECT sources).
pub fn referenced_tables(stmt: &Statement) -> Vec<String> {
    fn from_select(s: &Select, out: &mut Vec<String>) {
        out.push(s.from.name.clone());
        for j in &s.joins {
            out.push(j.table.name.clone());
        }
    }
    let mut out = Vec::new();
    match stmt {
        Statement::Select(s) => from_select(s, &mut out),
        Statement::Insert(i) => {
            out.push(i.table.clone());
            if let InsertSource::Select(s) = &i.source {
                from_select(s, &mut out);
            }
        }
        Statement::Update(u) => out.push(u.table.clone()),
        Statement::Delete(d) => out.push(d.table.clone()),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::DataType;

    fn schema() -> Schema {
        Schema::of(&[("v", DataType::Int)])
    }

    fn noop_proc(b: AppBuilder, name: &str, outputs: &[&str]) -> AppBuilder {
        b.proc(name, &[], outputs, |_| Ok(()))
    }

    #[test]
    fn minimal_app_builds() {
        let app = noop_proc(
            App::builder().stream("s1", schema()).table("t", schema()),
            "sp1",
            &[],
        )
        .pe_trigger("s1", "sp1")
        .build()
        .unwrap();
        assert!(app.stream("S1").is_some());
        assert_eq!(app.procs[0].name, "sp1");
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = App::builder().table("x", schema()).stream("x", schema()).build();
        assert!(matches!(r, Err(Error::AlreadyExists { .. })));
    }

    #[test]
    fn pe_trigger_on_window_rejected() {
        let r = noop_proc(App::builder().window("w", "sp1", schema(), 3, 1), "sp1", &[])
            .pe_trigger("w", "sp1")
            .build();
        assert!(matches!(r, Err(Error::StreamViolation(_))));
    }

    #[test]
    fn pe_trigger_unknown_stream_or_proc_rejected() {
        let r = noop_proc(App::builder(), "sp1", &[]).pe_trigger("nosuch", "sp1").build();
        assert!(matches!(r, Err(Error::NotFound { .. })));
        let r = noop_proc(App::builder().stream("s", schema()), "sp1", &[])
            .pe_trigger("s", "ghost")
            .build();
        assert!(matches!(r, Err(Error::NotFound { .. })));
    }

    #[test]
    fn stream_with_both_trigger_kinds_rejected() {
        let r = noop_proc(
            App::builder().stream("s", schema()).stream("s2", schema()),
            "sp1",
            &[],
        )
        .pe_trigger("s", "sp1")
        .ee_trigger("s", &["INSERT INTO s2 SELECT * FROM s"])
        .build();
        assert!(matches!(r, Err(Error::StreamViolation(_))));
    }

    #[test]
    fn window_scoping_enforced_on_sql() {
        let b = App::builder()
            .window("w", "owner_sp", schema(), 3, 1)
            .proc("owner_sp", &[("q", "SELECT * FROM w")], &[], |_| Ok(()))
            .proc("intruder", &[("q", "SELECT * FROM w")], &[], |_| Ok(()));
        let r = b.build();
        assert!(matches!(r, Err(Error::StreamViolation(_))));
    }

    #[test]
    fn update_and_delete_on_a_window_rejected_even_for_its_owner() {
        for sql in ["DELETE FROM w WHERE v = ?", "UPDATE w SET v = v + 1"] {
            let r = App::builder()
                .window("w", "owner_sp", schema(), 3, 1)
                .proc("owner_sp", &[("ins", "INSERT INTO w (v) VALUES (?)"), ("q", sql)], &[], |_| Ok(()))
                .build();
            assert!(matches!(&r, Err(Error::StreamViolation(m)) if m.contains("append-only")), "{sql}: {r:?}");
        }
    }

    #[test]
    fn cyclic_workflow_rejected() {
        let r = noop_proc(
            noop_proc(
                App::builder().stream("a", schema()).stream("b", schema()),
                "p1",
                &["a"],
            ),
            "p2",
            &["b"],
        )
        .pe_trigger("a", "p2")
        .pe_trigger("b", "p1")
        .build();
        assert!(matches!(r, Err(Error::StreamViolation(_))));
    }

    #[test]
    fn a_cycle_through_a_nested_transaction_is_rejected() {
        // `c` re-emits its input onto `s`, and `s` triggers the nested
        // transaction that runs `c`: the nested unit produces `s`, so it
        // feeds itself — one ingested tuple would never stop cycling.
        let r = App::builder()
            .stream("s", schema())
            .proc("c", &[], &["s"], |ctx| {
                let rows = ctx.input().to_vec();
                ctx.emit("s", rows)
            })
            .nested("n", &["c"])
            .pe_trigger("s", "n")
            .build();
        assert!(
            matches!(&r, Err(Error::StreamViolation(m)) if m.contains("cycle through n")),
            "{r:?}"
        );
    }

    #[test]
    fn undeclared_output_stream_rejected() {
        let r = noop_proc(App::builder(), "p", &["ghost"]).build();
        assert!(matches!(r, Err(Error::NotFound { .. })));
    }

    #[test]
    fn nested_validation() {
        // Child must exist.
        let r = App::builder().nested("n", &["ghost"]).build();
        assert!(matches!(r, Err(Error::NotFound { .. })));
        // Nested-in-nested rejected.
        let r = noop_proc(App::builder(), "leaf", &[])
            .nested("inner", &["leaf"])
            .nested("outer", &["inner"])
            .build();
        assert!(matches!(r, Err(Error::Plan(_))));
        // Valid nesting builds.
        noop_proc(noop_proc(App::builder(), "a", &[]), "b", &[])
            .nested("n", &["a", "b"])
            .build()
            .unwrap();
    }

    #[test]
    fn bad_sql_in_proc_rejected_at_build() {
        let r = App::builder()
            .proc("p", &[("bad", "SELEKT * FROM x")], &[], |_| Ok(()))
            .build();
        assert!(matches!(r, Err(Error::Parse(_))));
    }

    #[test]
    fn partition_col_must_exist() {
        let r = noop_proc(
            App::builder().stream_partitioned("s", schema(), "nosuch"),
            "p",
            &[],
        )
        .build();
        assert!(matches!(r, Err(Error::Plan(_))));
    }

    fn ts_schema() -> Schema {
        Schema::of(&[("ts", DataType::Int), ("v", DataType::Int)])
    }

    #[test]
    fn time_window_needs_an_event_time_stream() {
        let r = noop_proc(App::builder(), "p", &[])
            .time_window("tw", "p", ts_schema(), "ts", 30, 30, 0)
            .build();
        assert!(matches!(r, Err(Error::StreamViolation(_))), "no watermark source");
        // With a timed stream it builds.
        noop_proc(App::builder().stream_timed("s", ts_schema(), "ts"), "p", &[])
            .time_window("tw", "p", ts_schema(), "ts", 30, 30, 0)
            .build()
            .unwrap();
    }

    #[test]
    fn time_window_ts_column_must_exist() {
        let r = noop_proc(App::builder().stream_timed("s", ts_schema(), "ts"), "p", &[])
            .time_window("tw", "p", ts_schema(), "nosuch", 30, 30, 0)
            .build();
        assert!(matches!(r, Err(Error::Plan(_))));
        let r = noop_proc(App::builder().stream_timed("s", ts_schema(), "nosuch"), "p", &[])
            .build();
        assert!(matches!(r, Err(Error::Plan(_))));
    }

    #[test]
    fn time_window_spec_validated_at_build() {
        let r = noop_proc(App::builder().stream_timed("s", ts_schema(), "ts"), "p", &[])
            .time_window("tw", "p", ts_schema(), "ts", 30, 40, 0)
            .build();
        assert!(matches!(r, Err(Error::StreamViolation(_))), "slide > size");
        let r = noop_proc(App::builder().stream_timed("s", ts_schema(), "ts"), "p", &[])
            .time_window("tw", "p", ts_schema(), "ts", 30, 30, -1)
            .build();
        assert!(matches!(r, Err(Error::StreamViolation(_))), "negative lateness");
    }

    #[test]
    fn time_window_trigger_cannot_feed_an_exchange() {
        // Slides are per-partition watermark events, not batch-aligned
        // workflow stages — an exchange downstream would deadlock its
        // merges.
        let r = noop_proc(
            noop_proc(
                App::builder()
                    .stream_timed("s", ts_schema(), "ts")
                    .exchange_stream("x", ts_schema(), "v"),
                "p",
                &["x"],
            ),
            "sink",
            &[],
        )
        .pe_trigger("s", "p")
        .pe_trigger("x", "sink")
        .time_window("tw", "p", ts_schema(), "ts", 30, 30, 0)
        .ee_trigger("tw", &["INSERT INTO x (ts, v) SELECT ts, v FROM tw"])
        .build();
        assert!(matches!(r, Err(Error::StreamViolation(_))));
    }

    #[test]
    fn time_window_trigger_cannot_reach_an_exchange_transitively() {
        // Workflow s → p1 → mid → hop → x (exchange): a single border
        // root, so the exchange-producer checks pass. But tw's slide
        // trigger ALSO inserts into `mid`, whose downstream proc ships
        // exchange sub-batches — a slide output would be re-shipped on
        // a non-batch-aligned path. Only transitive reachability
        // (`mid` feeds an exchange) catches this.
        let build = |with_trigger: bool| {
            let mut b = noop_proc(
                noop_proc(
                    noop_proc(
                        App::builder()
                            .stream_timed("s", ts_schema(), "ts")
                            .stream("mid", ts_schema())
                            .exchange_stream("x", ts_schema(), "v"),
                        "p1",
                        &["mid"],
                    ),
                    "hop",
                    &["x"],
                ),
                "sink",
                &[],
            )
            .pe_trigger("s", "p1")
            .pe_trigger("mid", "hop")
            .pe_trigger("x", "sink")
            .time_window("tw", "p1", ts_schema(), "ts", 30, 30, 0);
            if with_trigger {
                b = b.ee_trigger("tw", &["INSERT INTO mid (ts, v) SELECT ts, v FROM tw"]);
            }
            b.build()
        };
        build(false).expect("the workflow itself is valid");
        let r = build(true);
        let err = r.expect_err("indirect exchange reachability must be rejected");
        assert!(
            err.to_string().contains("trigger output mid reaches an exchange stream"),
            "wrong rejection: {err}"
        );
    }

    #[test]
    fn referenced_tables_walks_statements() {
        let s = sstore_sql::parse("INSERT INTO a SELECT * FROM b JOIN c ON b.v = c.v").unwrap();
        assert_eq!(referenced_tables(&s), vec!["a", "b", "c"]);
        let s = sstore_sql::parse("UPDATE t SET v = 1").unwrap();
        assert_eq!(referenced_tables(&s), vec!["t"]);
    }
}
