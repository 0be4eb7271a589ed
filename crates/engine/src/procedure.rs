//! Stored procedures and their execution context.
//!
//! As in H-Store, every transaction is a predefined stored procedure: a
//! set of named, precompiled SQL statements plus procedural logic (Java
//! there, a Rust closure here). The closure receives a [`ProcCtx`] that
//! is its *only* handle on the database — all data access goes through
//! the EE boundary, exactly like H-Store procedures whose Java half can
//! touch data only via SQL.

use std::collections::HashMap;
use std::sync::Arc;

use sstore_common::{BatchId, Error, ProcId, Result, TableId, Tuple, Value};
use sstore_sql::QueryResult;

use crate::boundary::EeHandle;
use crate::ee::StmtId;

/// A stored procedure compiled against a partition's catalog.
#[derive(Debug, Clone)]
pub struct CompiledProc {
    /// Procedure name (lower-cased, shared).
    pub name: Arc<str>,
    /// Named statements → EE statement ids.
    pub stmts: HashMap<String, StmtId>,
    /// Streams this procedure is declared to emit to, with their
    /// interned ids (resolved once at install — `emit` does no lookup).
    pub outputs: Vec<(String, TableId)>,
    /// Produced streams ([`crate::names::ProcMeta::produces`]: declared
    /// outputs, and for a nested transaction its children's) that are
    /// exchange streams. The partition engine
    /// ships a sub-batch for each of these on *every* commit of this
    /// procedure — even when the body emitted nothing — so downstream
    /// exchange merges stay aligned one-sub-batch-per-source-per-batch.
    pub exchange_outputs: Vec<TableId>,
    /// Produced streams on the path to an exchange (exchange streams
    /// plus `feeds_exchange` locals). On multi-partition S-Store
    /// engines, every streaming commit of this procedure registers a
    /// (possibly empty) batch on each of these *before* the body runs,
    /// so a stage that emits nothing for an empty sub-batch still
    /// advances this partition's copy of the workflow — otherwise a
    /// downstream exchange merge would wait forever for this
    /// partition's sub-batch.
    pub align_outputs: Vec<TableId>,
    /// For nested transactions: ordered child procedures.
    pub children: Vec<ProcId>,
}

/// Execution context handed to a stored-procedure body for one
/// transaction execution.
pub struct ProcCtx<'a> {
    ee: &'a mut EeHandle,
    proc: Arc<CompiledProc>,
    input: Vec<Tuple>,
    batch: Option<BatchId>,
    params: Vec<Value>,
    result: QueryResult,
}

impl<'a> ProcCtx<'a> {
    /// Builds a context (engine-internal).
    pub(crate) fn new(
        ee: &'a mut EeHandle,
        proc: Arc<CompiledProc>,
        input: Vec<Tuple>,
        batch: Option<BatchId>,
        params: Vec<Value>,
    ) -> Self {
        ProcCtx { ee, proc, input, batch, params, result: QueryResult::default() }
    }

    /// Runs one of this procedure's named SQL statements with bound
    /// parameters. One EE boundary crossing per call.
    pub fn sql(&mut self, stmt: &str, params: &[Value]) -> Result<QueryResult> {
        let id = *self
            .proc
            .stmts
            .get(stmt)
            .ok_or_else(|| Error::not_found("statement", format!("{stmt} in {}", self.proc.name)))?;
        self.ee.exec_params(id, params)
    }

    /// The atomic input batch of this transaction execution (empty for
    /// OLTP invocations).
    pub fn input(&self) -> &[Tuple] {
        &self.input
    }

    /// The batch id being processed (`None` for OLTP invocations).
    pub fn batch_id(&self) -> Option<BatchId> {
        self.batch
    }

    /// Client-supplied invocation parameters (OLTP) or empty.
    pub fn params(&self) -> &[Value] {
        &self.params
    }

    /// Emits tuples onto an output stream, labeled with the current
    /// batch id (§2.1: outputs carry the batch id of the input that
    /// produced them). The stream must be among the procedure's declared
    /// outputs.
    pub fn emit(&mut self, stream: &str, rows: Vec<Tuple>) -> Result<()> {
        let id = self
            .proc
            .outputs
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(stream))
            .map(|(_, id)| *id)
            .ok_or_else(|| {
                Error::StreamViolation(format!(
                    "procedure {} emits to undeclared stream {stream}",
                    self.proc.name
                ))
            })?;
        self.ee.run(move |ee| ee.emit(id, rows))
    }

    /// Sets the result returned to a synchronous caller.
    pub fn set_result(&mut self, result: QueryResult) {
        self.result = result;
    }

    /// Aborts the transaction with a message. Intended use:
    /// `return Err(ctx.abort("duplicate vote"));`
    pub fn abort(&self, msg: impl Into<String>) -> Error {
        Error::TxnAborted(msg.into())
    }

    /// Procedure name (for diagnostics).
    pub fn proc_name(&self) -> &str {
        &self.proc.name
    }

    pub(crate) fn take_result(self) -> QueryResult {
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_proc_shape() {
        let p = CompiledProc {
            name: "validate".into(),
            stmts: HashMap::from([("check".into(), 0usize), ("record".into(), 1usize)]),
            outputs: vec![("validated".into(), TableId(0))],
            exchange_outputs: Vec::new(),
            align_outputs: Vec::new(),
            children: Vec::new(),
        };
        assert_eq!(p.stmts.len(), 2);
        assert!(p.children.is_empty());
    }
}
