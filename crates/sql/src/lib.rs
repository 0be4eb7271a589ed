//! SQL subset compiler and executor — the query half of an H-Store-style
//! execution engine.
//!
//! H-Store stored procedures mix SQL statements with procedural code; the
//! SQL is compiled once (at procedure registration) and executed many
//! times with bound parameters. This crate mirrors that split:
//!
//! 1. [`parse`] turns SQL text into an AST ([`ast`]),
//! 2. [`plan::Planner`] binds the AST against a [`Catalog`] into an
//!    executable [`plan::BoundStatement`] (column indexes resolved,
//!    access paths chosen),
//! 3. [`exec::execute`] runs a bound statement with a parameter vector,
//!    returning a [`exec::QueryResult`] plus the list of physical
//!    [`exec::Effect`]s it had — the engine's transaction layer turns
//!    those effects into undo records.
//!
//! Supported surface: `SELECT` (projection, `WHERE`, inner equi-`JOIN`,
//! `GROUP BY` with `COUNT/SUM/AVG/MIN/MAX`, `HAVING`, `ORDER BY`,
//! `LIMIT`), `INSERT … VALUES` / `INSERT … SELECT`, `UPDATE`, `DELETE`,
//! positional parameters `?` / `?N`.
//!
//! Single-table full-scan SELECTs over tables past a small-row cutoff
//! ([`vexec::COLUMNAR_MIN_ROWS`]) additionally run through a vectorized
//! read path ([`batch`] + [`vexec`]): rows are materialized into typed
//! columnar batches and filtered/aggregated with tight per-column loops,
//! falling back to per-row [`expr::BoundExpr`] evaluation for shapes the
//! fast paths don't cover. Joins, index point lookups, and every DML
//! statement stay on the row executor. Results are bit-identical to the
//! row path (same row-id scan order, and one output edge — grouping,
//! ORDER BY, LIMIT — shared by both), so command-log replay is
//! unaffected; [`exec::run_select_rows_rowwise`] runs a plan on the row
//! path (the differential reference, and the "before" side of
//! benchmarks).
//!
//! [`Catalog`]: sstore_storage::Catalog

pub mod ast;
pub mod batch;
mod edge;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod vexec;

pub use ast::Statement;
pub use exec::{execute, Effect, QueryResult};
pub use plan::{BoundStatement, Planner};

use sstore_common::Result;

/// Parses one SQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    parser::Parser::new(sql)?.parse_statement()
}
