//! Name interning and the workflow graph: dense ids for
//! tables/streams/windows and stored procedures, assigned once at
//! [`App`] install time, and the workflow DAG built over them.
//!
//! Every hot-path structure in the engine — routing, the scheduler
//! queue, PE-trigger dispatch, stream/window bookkeeping, the command
//! log — works with [`TableId`] / [`ProcId`] indexes into plain
//! vectors. Lower-casing and string lookup happen exactly once per
//! request, at the public API edge ([`crate::engine::Engine`] methods
//! taking `&str`), never inside the partition or EE execution loop.
//!
//! Table ids here MUST match the ids the EE's catalog assigns; both are
//! derived from the same declaration order (tables, then streams, then
//! windows) and [`crate::ee::ExecutionEngine::install`] asserts the
//! correspondence as it creates each table.
//!
//! # The workflow graph (§2.2, §2.3)
//!
//! A workflow is a DAG of stored procedures joined by streams: `p → q`
//! when `p` produces a stream that a PE trigger routes to `q`.
//! [`AppIds::build`] builds it once, from two things:
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
//! alignment broadcast; [`crate::app::AppBuilder::build`]'s exchange and
//! time-window checks; and each partition's exchange and alignment
//! outputs, which are filters of the produced set.

use std::collections::HashMap;
use std::sync::Arc;

use sstore_common::{Error, ProcId, Result, Schema, TableId};
use sstore_storage::TableKind;

use crate::app::App;

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
}

/// Interned metadata for one stream.
#[derive(Debug, Clone)]
pub struct StreamMeta {
    /// Tuple schema (validated against at the ingestion edge).
    pub schema: Schema,
    /// Partition-key column index, if the stream is partitioned.
    pub partition_col: Option<usize>,
    /// Event-timestamp column index, if the stream carries event time
    /// (the partition checks this to skip watermark bookkeeping for
    /// untimed streams on the hot path).
    pub ts_col: Option<usize>,
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
#[derive(Debug, Clone)]
pub struct ProcMeta {
    /// Lower-cased name.
    pub name: Arc<str>,
    /// The input stream whose batches this procedure consumes (reverse
    /// PE-trigger edge), if it is an interior/child procedure.
    pub input_stream: Option<TableId>,
    /// Position in a fixed topological order of the workflow DAG.
    pub topo_pos: usize,
    /// Streams this procedure produces: its declared outputs, then (for
    /// a nested transaction) its children's, without repeats.
    pub produces: Vec<TableId>,
}

/// Dense name ↔ id maps for one application.
#[derive(Debug, Default)]
pub struct AppIds {
    tables: Vec<TableMeta>,
    table_by_name: HashMap<String, TableId>,
    procs: Vec<ProcMeta>,
    proc_by_name: HashMap<String, ProcId>,
    /// PE-trigger targets per table id (empty for non-streams).
    pe_targets: Vec<Vec<ProcId>>,
    /// True when the app declares any exchange stream.
    has_exchange: bool,
}

impl AppIds {
    /// Interns all names of `app` and builds its workflow graph. Table
    /// ids follow the EE catalog's creation order: declared tables, then
    /// streams, then windows. Fails on a name that resolves to nothing
    /// and on a cycle in the workflow.
    pub fn build(app: &App) -> Result<AppIds> {
        let mut ids = AppIds::default();

        let add_table = |ids: &mut AppIds, name: &str, kind, stream, owner_proc| {
            let id = TableId(ids.tables.len() as u32);
            ids.tables.push(TableMeta { name: Arc::from(name), kind, stream, owner_proc });
            ids.table_by_name.insert(name.to_owned(), id);
            id
        };
        for t in &app.tables {
            add_table(&mut ids, &t.name, TableKind::Base, None, None);
        }
        for p in &app.procs {
            let id = ProcId(ids.procs.len() as u32);
            ids.procs.push(ProcMeta {
                name: Arc::from(p.name.as_str()),
                input_stream: None,
                topo_pos: usize::MAX,
                produces: Vec::new(),
            });
            ids.proc_by_name.insert(p.name.clone(), id);
        }
        for s in &app.streams {
            let partition_col = s.partition_col.as_ref().and_then(|c| s.schema.index_of(c));
            let ts_col = s.ts_col.as_ref().and_then(|c| s.schema.index_of(c));
            add_table(
                &mut ids,
                &s.name,
                TableKind::Stream,
                Some(StreamMeta {
                    schema: s.schema.clone(),
                    partition_col,
                    ts_col,
                    exchange: s.exchange,
                    feeds_exchange: false, // filled in below
                }),
                None,
            );
            ids.has_exchange |= s.exchange;
        }
        for w in &app.windows {
            let owner = ids.proc_by_name.get(w.owner()).copied();
            add_table(&mut ids, w.name(), TableKind::Window, None, owner);
        }

        ids.pe_targets = vec![Vec::new(); ids.tables.len()];
        for t in &app.pe_triggers {
            let stream = ids
                .table_id(&t.stream)
                .ok_or_else(|| Error::not_found("stream", &t.stream))?;
            let proc = ids
                .proc_id(&t.proc)
                .ok_or_else(|| Error::not_found("procedure", &t.proc))?;
            ids.pe_targets[stream.index()].push(proc);
            let meta = &mut ids.procs[proc.index()];
            if meta.input_stream.is_none() {
                meta.input_stream = Some(stream);
            }
        }

        // §2.3: a nested transaction produces what its children declare.
        // Proc ids follow `app.procs`, so an id indexes its definition.
        for (i, p) in app.procs.iter().enumerate() {
            for unit in std::iter::once(&p.name).chain(&p.children) {
                let unit = ids
                    .proc_id(unit)
                    .ok_or_else(|| Error::not_found("nested child procedure", unit))?;
                for o in &app.procs[unit.index()].outputs {
                    let s = ids.table_id(o).ok_or_else(|| Error::not_found("output stream", o))?;
                    if !ids.procs[i].produces.contains(&s) {
                        ids.procs[i].produces.push(s);
                    }
                }
            }
        }

        let order = ids.topo_order()?;
        for (pos, &p) in order.iter().enumerate() {
            ids.procs[p.index()].topo_pos = pos;
        }
        // A stream feeds an exchange when one of its consumers produces a
        // stream on an exchange path; consumers come later in `order`, so
        // walking it backwards settles each stream in one pass.
        for &p in order.iter().rev() {
            if !ids.procs[p.index()].produces.iter().any(|&s| ids.on_exchange_path(s)) {
                continue;
            }
            for (t, _) in ids.pe_targets.iter().enumerate().filter(|(_, to)| to.contains(&p)) {
                if let Some(s) = ids.tables[t].stream.as_mut() {
                    s.feeds_exchange = true;
                }
            }
        }
        Ok(ids)
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

    /// True when the app declares any exchange stream.
    #[inline]
    pub fn has_exchange(&self) -> bool {
        self.has_exchange
    }

    /// Resolves a table/stream/window name (case-insensitive).
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        if let Some(id) = self.table_by_name.get(name) {
            return Some(*id);
        }
        self.table_by_name.get(&name.to_ascii_lowercase()).copied()
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

    /// PE-trigger target procedures of a stream, in declaration order.
    #[inline]
    pub fn pe_targets_of(&self, stream: TableId) -> &[ProcId] {
        &self.pe_targets[stream.index()]
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
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TableKind::Stream)
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
        // A partition's exchange and alignment outputs are the produced
        // streams that are exchanges / on an exchange path: both hold `x`.
        assert_eq!(parent.produces, vec![x]);
        assert!(ids.table(x).stream.as_ref().unwrap().exchange && ids.on_exchange_path(x));
        assert!(parent.topo_pos < ids.proc(ids.proc_id("sink").unwrap()).topo_pos);
    }
}
