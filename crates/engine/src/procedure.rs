//! Stored procedures and their execution context.
//!
//! As in H-Store, every transaction is a predefined stored procedure: a
//! set of named, precompiled SQL statements plus procedural logic (Java
//! there, a Rust closure here). The closure receives a [`ProcCtx`] that
//! is its *only* handle on the database — all data access goes through
//! the EE boundary, exactly like H-Store procedures whose Java half can
//! touch data only via SQL.

use sstore_common::{BatchId, Error, Result, Tuple, Value};
use sstore_sql::QueryResult;

use crate::boundary::EeHandle;
use crate::ee::StmtId;
use crate::names::ProcMeta;

/// Execution context handed to a stored-procedure body for one
/// transaction execution.
pub struct ProcCtx<'a> {
    ee: &'a mut EeHandle,
    meta: &'a ProcMeta,
    input: Vec<Tuple>,
    batch: Option<BatchId>,
    params: Vec<Value>,
    result: QueryResult,
}

impl<'a> ProcCtx<'a> {
    /// Builds a context (engine-internal).
    pub(crate) fn new(
        ee: &'a mut EeHandle,
        meta: &'a ProcMeta,
        input: Vec<Tuple>,
        batch: Option<BatchId>,
        params: Vec<Value>,
    ) -> Self {
        ProcCtx { ee, meta, input, batch, params, result: QueryResult::default() }
    }

    /// Runs one of this procedure's named SQL statements with bound
    /// parameters. One EE boundary crossing per call.
    pub fn sql(&mut self, stmt: &str, params: &[Value]) -> Result<QueryResult> {
        let id = self.stmt_id(stmt)?;
        self.ee.exec_params(id, params)
    }

    /// Runs one of this procedure's `INSERT … VALUES` statements once
    /// per parameter row, in order: exactly `for r in rows {
    /// ctx.sql(stmt, r)?; }`, stopping at the first error with the
    /// earlier rows applied, but in one EE boundary crossing. Returns
    /// the rows affected. Any other statement is refused
    /// ([`Error::Plan`]).
    pub fn sql_rows<P: AsRef<[Value]>>(&mut self, stmt: &str, rows: &[P]) -> Result<usize> {
        let id = self.stmt_id(stmt)?;
        self.ee.exec_rows(id, rows)
    }

    fn stmt_id(&self, stmt: &str) -> Result<StmtId> {
        let id = self.meta.stmts.get(stmt);
        id.copied().ok_or_else(|| Error::not_found("statement", format!("{stmt} in {}", self.meta.name)))
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
            .meta
            .outputs
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(stream))
            .map(|(_, id)| *id)
            .ok_or_else(|| {
                Error::StreamViolation(format!(
                    "procedure {} emits to undeclared stream {stream}",
                    self.meta.name
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
        &self.meta.name
    }

    pub(crate) fn take_result(self) -> QueryResult {
        self.result
    }
}
