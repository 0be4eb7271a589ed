//! The differential driver.
//!
//! [`run_case`] executes one generated [`Case`] through a real engine
//! and the [`RefDb`] reference in lock-step, comparing every statement
//! in two configurations:
//!
//! 1. **fresh** — as the engine dispatches it (the vectorized read path
//!    where a plan is eligible and its table past the cutoff, the row
//!    pipeline otherwise);
//! 2. **recovered** — after a simulated crash (freeze the [`SimVfs`],
//!    drop the engine, command-log replay), every SELECT re-runs
//!    against the replayed state, and each table's full contents are
//!    compared row-for-row.
//!
//! That the two read paths agree with each other on one plan is the sql
//! crate's own differential (`prop_columnar`, `edge_semantics`, through
//! `run_select_columnar` / `run_select_rows_rowwise`); here each
//! statement meets the reference once per state.
//!
//! Row comparison uses [`Value::identical`] (bit-exact: `Int(1)` ≠
//! `Float(1.0)`, `-0.0` ≠ `0.0`, NaN bit patterns must round-trip).
//! Errors compare by [`sstore_common::Error::wire_code`] only — the
//! message text is explicitly allowed to differ between engine and
//! reference. A case run shares nothing with another: callers may fan
//! out freely.

use std::path::PathBuf;
use std::sync::Arc;

use sstore_common::Value;
use sstore_engine::recovery::recover;
use sstore_engine::vfs::SimVfs;
use sstore_engine::{App, Engine, EngineConfig, LoggingConfig, RecoveryMode};
use sstore_sql::ast::Statement;
use sstore_sql::exec::QueryResult;

use crate::gen::{Case, TableSpec};
use crate::refexec::{RefDb, RefResult};

/// One observed disagreement between engine and reference.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed of the case that produced it.
    pub seed: u64,
    /// Index of the offending statement in `case.stmts` (`None` for
    /// whole-table state comparisons).
    pub stmt_index: Option<usize>,
    /// Which configuration disagreed (`"fresh"`, `"recovered"`,
    /// `"state:<table>"`, `"recovered-state:<table>"`, `"harness"`).
    pub phase: String,
    /// The SQL text involved (empty for state comparisons).
    pub sql: String,
    /// Human-readable expected-vs-actual description.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} [{}]", self.seed, self.phase)?;
        if let Some(i) = self.stmt_index {
            write!(f, " stmt #{i}")?;
        }
        if !self.sql.is_empty() {
            write!(f, "\n  sql: {}", self.sql)?;
        }
        write!(f, "\n  {}", self.detail)
    }
}

fn build_app(tables: &[TableSpec]) -> App {
    let mut b = App::builder();
    for t in tables {
        b = b.table_indexed(&t.name, t.schema.clone(), t.indexes.clone());
    }
    // Group indexes have no builder method — the engine derives them for
    // windows — so a base table's are put where it looks for them.
    let mut app = b.build().expect("generated app is well-formed");
    for (def, t) in app.tables.iter_mut().zip(tables) {
        def.group_indexes = t.group_indexes.clone();
    }
    app
}

fn config(sim: &SimVfs) -> EngineConfig {
    EngineConfig::default()
        .with_partitions(1)
        .with_data_dir(PathBuf::from("/sqlfuzz"))
        .with_recovery(RecoveryMode::Strong)
        .with_logging(LoggingConfig {
            enabled: true,
            group_commit: 1,
            fsync: true,
            ..Default::default()
        })
        .with_vfs(Arc::new(sim.clone()))
}

/// Runs one case through both configurations. Returns the first
/// divergence found, or `None` when engine and reference agree on
/// everything.
pub fn run_case(case: &Case) -> Option<Divergence> {
    let harness_div = |detail: String| Divergence {
        seed: case.seed,
        stmt_index: None,
        phase: "harness".into(),
        sql: String::new(),
        detail,
    };

    let mut refdb = RefDb::new(&case.tables);
    let sim = SimVfs::new(case.seed);
    let config = config(&sim);
    let engine = match Engine::start(config.clone(), build_app(&case.tables)) {
        Ok(e) => e,
        Err(e) => return Some(harness_div(format!("engine start failed: {e}"))),
    };

    // Phase 1: every statement, fresh state.
    let mut div: Option<Divergence> = None;
    for (i, stmt) in case.stmts.iter().enumerate() {
        let sql = stmt.sql();
        let expected = refdb.execute(&stmt.stmt, &stmt.params);
        let actual = engine.query_at(0, &sql, stmt.params.clone());
        if let Some(detail) = diff(&expected, &actual) {
            div = Some(Divergence {
                seed: case.seed,
                stmt_index: Some(i),
                phase: "fresh".into(),
                sql,
                detail,
            });
            break;
        }
    }

    // Phase 2: whole-table state, fresh.
    if div.is_none() {
        div = compare_state(case, &refdb, &engine, "state");
    }

    // Phase 3: crash, recover from the command log, re-check state and
    // re-run every SELECT on the replayed engine.
    engine.shutdown();
    if div.is_none() {
        sim.freeze();
        sim.restart_after_crash();
        let engine2 = match recover(config, build_app(&case.tables)) {
            Ok((e, _report)) => e,
            Err(e) => return Some(harness_div(format!("recovery failed: {e}"))),
        };
        div = compare_state(case, &refdb, &engine2, "recovered-state");
        if div.is_none() {
            for (i, stmt) in case.stmts.iter().enumerate() {
                if !matches!(stmt.stmt, Statement::Select(_)) {
                    continue;
                }
                let sql = stmt.sql();
                // Expected = the SELECT against the *final* reference
                // state (reference SELECTs don't mutate).
                let expected = refdb.execute(&stmt.stmt, &stmt.params);
                let actual = engine2.query_at(0, &sql, stmt.params.clone());
                if let Some(detail) = diff(&expected, &actual) {
                    div = Some(Divergence {
                        seed: case.seed,
                        stmt_index: Some(i),
                        phase: "recovered".into(),
                        sql,
                        detail,
                    });
                    break;
                }
            }
        }
        engine2.shutdown();
    }
    div
}

/// Compares every table's full contents between reference and engine.
fn compare_state(
    case: &Case,
    refdb: &RefDb,
    engine: &Engine,
    phase_prefix: &str,
) -> Option<Divergence> {
    let mut div = None;
    for t in &case.tables {
        let sql = format!("SELECT * FROM {}", t.name);
        let actual = engine.query(0, &sql, vec![]);
        let expected = refdb.table_rows(&t.name);
        let detail = match &actual {
            Err(e) => Some(format!("state probe failed: {e}")),
            Ok(r) => diff_rows(expected, &r.rows),
        };
        if let Some(detail) = detail {
            div = Some(Divergence {
                seed: case.seed,
                stmt_index: None,
                phase: format!("{phase_prefix}:{}", t.name),
                sql,
                detail,
            });
            break;
        }
    }
    div
}

/// Compares a reference outcome against an engine outcome. `None` means
/// they agree; `Some(detail)` describes the first disagreement.
fn diff(
    expected: &sstore_common::Result<RefResult>,
    actual: &sstore_common::Result<QueryResult>,
) -> Option<String> {
    match (expected, actual) {
        (Ok(exp), Ok(act)) => {
            if exp.columns != act.columns {
                return Some(format!(
                    "column names differ: reference {:?}, engine {:?}",
                    exp.columns, act.columns
                ));
            }
            if exp.rows_affected != act.rows_affected {
                return Some(format!(
                    "rows_affected differ: reference {}, engine {}",
                    exp.rows_affected, act.rows_affected
                ));
            }
            diff_rows(&exp.rows, &act.rows)
        }
        (Err(exp), Err(act)) => {
            if exp.wire_code() == act.wire_code() {
                None
            } else {
                Some(format!(
                    "error codes differ: reference {} ({exp}), engine {} ({act})",
                    exp.wire_code(),
                    act.wire_code()
                ))
            }
        }
        (Ok(exp), Err(act)) => Some(format!(
            "reference succeeded ({} rows, {} affected) but engine errored: {act}",
            exp.rows.len(),
            exp.rows_affected
        )),
        (Err(exp), Ok(act)) => Some(format!(
            "engine succeeded ({} rows, {} affected) but reference errored: {exp}",
            act.rows.len(),
            act.rows_affected
        )),
    }
}

/// Bit-exact row-sequence comparison. Engine rows are `Tuple`s;
/// anything exposing `values()` compares.
fn diff_rows<R: RowLike>(expected: &[Vec<Value>], actual: &[R]) -> Option<String> {
    if expected.len() != actual.len() {
        return Some(format!(
            "row counts differ: reference {}, engine {}",
            expected.len(),
            actual.len()
        ));
    }
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        let a = a.values();
        let same = e.len() == a.len() && e.iter().zip(a).all(|(x, y)| x.identical(y));
        if !same {
            return Some(format!(
                "row {i} differs: reference {}, engine {}",
                fmt_row(e),
                fmt_row(a)
            ));
        }
    }
    None
}

/// Debug-formats a row with floats spelled out to the bit (comparison
/// is bit-exact, so `NaN` vs `NaN` alone would hide the difference).
fn fmt_row(row: &[Value]) -> String {
    let cells: Vec<String> = row
        .iter()
        .map(|v| match v {
            Value::Float(f) => format!("Float({f} bits={:#018x})", f.to_bits()),
            other => format!("{other:?}"),
        })
        .collect();
    format!("[{}]", cells.join(", "))
}

/// The two row shapes the driver compares: engine `Tuple`s and the
/// reference's plain vectors.
trait RowLike {
    fn values(&self) -> &[Value];
}

impl RowLike for sstore_common::Tuple {
    fn values(&self) -> &[Value] {
        self.values()
    }
}

impl RowLike for Vec<Value> {
    fn values(&self) -> &[Value] {
        self
    }
}
