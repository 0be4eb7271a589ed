//! The naive reference executor.
//!
//! `RefDb` holds every table as a plain `Vec<Vec<Value>>` and executes
//! unbound ASTs directly: no planner, no bound expressions, no indexes,
//! no hash joins, no bounded top-K, no vectorization. Joins are nested
//! loops, grouping is a linear scan over a `Vec` of groups, ORDER BY is
//! always a full stable sort. Everything is written for obviousness —
//! this code is the ground truth the engine is compared against, so it
//! must be trivially auditable even where that costs performance.
//!
//! Two places intentionally mirror engine *semantics* (not code):
//!
//! - **Validation order.** The engine plans a statement completely
//!   before executing it, so every plan-category error (unknown
//!   table/column, aggregate misuse, arity mismatches) precedes every
//!   runtime error. [`RefDb::execute`] runs a validation walk in the
//!   same clause order as `sstore_sql::plan` before touching any row,
//!   so *which error category wins* always agrees. Error equivalence is
//!   by [`sstore_common::Error::wire_code`], never by message.
//! - **Value domain primitives.** Comparisons, ordering, and key
//!   equality go through [`Value::cmp_total`] / [`Value::sql_eq`] /
//!   [`Value::sql_cmp`] — those define the SQL dialect's value
//!   semantics (shared vocabulary, not executor logic) and reimplementing
//!   them would just fuzz the reimplementation.
//!
//! Unique constraints use the storage layer's structural key equality,
//! under which NULL keys *do* conflict with each other (unlike standard
//! SQL). That is this engine's documented dialect, so the reference
//! reproduces it rather than "fixing" it.
//!
//! A third mirrored semantic: **index point-lookup pruning is part of
//! the language**, not an invisible optimization. When the WHERE has a
//! top-level conjunct `col = <row-independent>` matching an index, the
//! engine only evaluates the residual predicate on rows whose `col` is
//! structurally equal to the key — so a row-dependent *error* elsewhere
//! in the WHERE never fires for pruned rows. [`prune_candidates`]
//! reproduces that candidate set with a linear scan (no actual index).
//! If the key expression itself errors, both sides degrade to a full
//! scan, so the error surfaces per-row via the residual (or not at all
//! on an empty table).

use sstore_common::{Error, Result, Schema, Value};
use sstore_storage::IndexDef;
use sstore_sql::ast::{
    AggFunc, ColumnRef, Delete, Expr, Insert, InsertSource, Select, SelectItem, SortOrder,
    Statement, Update,
};

use crate::gen::TableSpec;

/// Result of one reference execution, mirroring the engine's
/// `QueryResult` shape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RefResult {
    /// Output column names (SELECT only).
    pub columns: Vec<String>,
    /// Output rows (SELECT only).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted (mutations only).
    pub rows_affected: usize,
}

/// One reference table.
#[derive(Debug, Clone)]
struct RefTable {
    name: String,
    schema: Schema,
    /// Unique constraints as (index name, key column positions), in
    /// definition order — the order the engine checks them in.
    unique: Vec<(String, Vec<usize>)>,
    /// All index definitions, for mirroring the planner's access-path
    /// choice (never used as actual indexes — candidate pruning scans).
    indexes: Vec<IndexDef>,
    /// Live rows in scan order: the engine scans in row-id order, and
    /// row ids are assigned monotonically, so "insertion order with
    /// in-place updates and positional deletes" reproduces it exactly.
    rows: Vec<Vec<Value>>,
}

/// The whole reference database.
#[derive(Debug, Clone)]
pub struct RefDb {
    tables: Vec<RefTable>,
}

impl RefDb {
    /// An empty database with the given table definitions.
    pub fn new(specs: &[TableSpec]) -> RefDb {
        RefDb {
            tables: specs
                .iter()
                .map(|s| RefTable {
                    name: s.name.clone(),
                    schema: s.schema.clone(),
                    unique: s
                        .indexes
                        .iter()
                        .filter(|ix| ix.unique)
                        .map(|ix| (ix.name.clone(), ix.key_columns.clone()))
                        .collect(),
                    indexes: s.indexes.clone(),
                    rows: Vec::new(),
                })
                .collect(),
        }
    }

    /// Current rows of a table, in scan order.
    pub fn table_rows(&self, name: &str) -> &[Vec<Value>] {
        &self.table(name).expect("known table").rows
    }

    fn table(&self, name: &str) -> Result<&RefTable> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::not_found("table", name))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut RefTable> {
        self.tables
            .iter_mut()
            .find(|t| t.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::not_found("table", name))
    }

    /// Executes one statement. Statements are atomic: on error the
    /// database is unchanged (the engine guarantees the same via
    /// transaction rollback).
    pub fn execute(&mut self, stmt: &Statement, params: &[Value]) -> Result<RefResult> {
        validate_stmt(self, stmt)?;
        match stmt {
            Statement::Select(s) => exec_select(self, s, params),
            Statement::Insert(i) => exec_insert(self, i, params),
            Statement::Update(u) => exec_update(self, u, params),
            Statement::Delete(d) => exec_delete(self, d, params),
        }
    }
}

// ======================================================================
// Name scope
// ======================================================================

/// Resolution scope: (alias, schema, offset) per FROM entry. The rules
/// mirror the planner's `Scope`: qualified refs match the alias
/// case-insensitively; unqualified refs must be unambiguous.
struct NScope<'a> {
    entries: Vec<(String, &'a Schema, usize)>,
}

impl<'a> NScope<'a> {
    fn empty() -> NScope<'a> {
        NScope { entries: Vec::new() }
    }

    fn push(&mut self, alias: &str, schema: &'a Schema) -> Result<()> {
        if self.entries.iter().any(|(a, _, _)| a.eq_ignore_ascii_case(alias)) {
            return Err(Error::Plan(format!("duplicate table alias: {alias}")));
        }
        let offset = self.arity();
        self.entries.push((alias.to_owned(), schema, offset));
        Ok(())
    }

    fn arity(&self) -> usize {
        self.entries.iter().map(|(_, s, _)| s.arity()).sum()
    }

    fn resolve(&self, c: &ColumnRef) -> Result<usize> {
        match &c.table {
            Some(q) => {
                let (_, schema, offset) = self
                    .entries
                    .iter()
                    .find(|(a, _, _)| a.eq_ignore_ascii_case(q))
                    .ok_or_else(|| Error::Plan(format!("unknown table alias: {q}")))?;
                Ok(offset + schema.index_of_or_err(&c.column)?)
            }
            None => {
                let mut found = None;
                for (_, schema, offset) in &self.entries {
                    if let Some(idx) = schema.index_of(&c.column) {
                        if found.is_some() {
                            return Err(Error::Plan(format!("ambiguous column: {}", c.column)));
                        }
                        found = Some(offset + idx);
                    }
                }
                found.ok_or_else(|| Error::Plan(format!("unknown column: {}", c.column)))
            }
        }
    }
}

// ======================================================================
// Validation (mirrors the planner's clause order)
// ======================================================================

fn validate_stmt(db: &RefDb, stmt: &Statement) -> Result<()> {
    match stmt {
        Statement::Select(s) => validate_select(db, s).map(|_| ()),
        Statement::Insert(i) => validate_insert(db, i),
        Statement::Update(u) => validate_update(db, u),
        Statement::Delete(d) => validate_delete(db, d),
    }
}

/// Replaces a *top-level* bare unqualified column that names a SELECT
/// alias with the aliased expression — the planner's alias expansion
/// for ORDER BY and HAVING. First matching item wins.
fn substitute(e: &Expr, items: &[SelectItem]) -> Expr {
    if let Expr::Column(ColumnRef { table: None, column }) = e {
        for item in items {
            if let SelectItem::Expr { expr, alias: Some(a) } = item {
                if a.eq_ignore_ascii_case(column) {
                    return expr.clone();
                }
            }
        }
    }
    e.clone()
}

/// Whether the select is aggregated: explicit GROUP BY, or an aggregate
/// anywhere in the SELECT list / HAVING / (alias-expanded) ORDER BY.
fn is_grouped(s: &Select) -> bool {
    let any_agg = s.items.iter().any(|it| match it {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        SelectItem::Wildcard => false,
    }) || s.having.as_ref().is_some_and(Expr::contains_aggregate)
        || s.order_by.iter().any(|k| substitute(&k.expr, &s.items).contains_aggregate());
    any_agg || !s.group_by.is_empty()
}

/// Validates a SELECT and returns its output arity (needed by
/// INSERT ... SELECT's arity check).
fn validate_select(db: &RefDb, s: &Select) -> Result<usize> {
    let base = db.table(&s.from.name)?;
    let mut scope = NScope::empty();
    scope.push(s.from.effective_alias(), &base.schema)?;
    for j in &s.joins {
        let right = db.table(&j.table.name)?;
        scope.push(j.table.effective_alias(), &right.schema)?;
        validate_scalar(&j.on, &scope)?;
    }
    if let Some(w) = &s.where_clause {
        validate_scalar(w, &scope)?;
    }

    let grouped = is_grouped(s);
    for g in &s.group_by {
        validate_scalar(g, &scope)?;
    }

    let mut out_arity = 0;
    for item in &s.items {
        match item {
            SelectItem::Wildcard => {
                if grouped {
                    return Err(Error::Plan("SELECT * is not allowed with GROUP BY".into()));
                }
                out_arity += scope.arity();
            }
            SelectItem::Expr { expr, .. } => {
                if grouped {
                    validate_grouped(expr, &s.group_by, &scope)?;
                } else {
                    validate_scalar(expr, &scope)?;
                }
                out_arity += 1;
            }
        }
    }

    match (&s.having, grouped) {
        (Some(h), true) => validate_grouped(&substitute(h, &s.items), &s.group_by, &scope)?,
        (Some(_), false) => {
            return Err(Error::Plan("HAVING requires GROUP BY or aggregates".into()));
        }
        (None, _) => {}
    }

    for k in &s.order_by {
        let e = substitute(&k.expr, &s.items);
        if grouped {
            validate_grouped(&e, &s.group_by, &scope)?;
        } else {
            validate_scalar(&e, &scope)?;
        }
    }
    Ok(out_arity)
}

/// A scalar context admits no aggregates; column refs must resolve.
fn validate_scalar(e: &Expr, scope: &NScope<'_>) -> Result<()> {
    match e {
        Expr::Literal(_) | Expr::Param(_) => Ok(()),
        Expr::Column(c) => scope.resolve(c).map(|_| ()),
        Expr::Binary { lhs, rhs, .. } => {
            validate_scalar(lhs, scope)?;
            validate_scalar(rhs, scope)
        }
        Expr::Neg(x) | Expr::Not(x) | Expr::Abs(x) => validate_scalar(x, scope),
        Expr::IsNull { expr, .. } => validate_scalar(expr, scope),
        Expr::InList { expr, list, .. } => {
            validate_scalar(expr, scope)?;
            list.iter().try_for_each(|e| validate_scalar(e, scope))
        }
        Expr::Between { expr, lo, hi, .. } => {
            validate_scalar(expr, scope)?;
            validate_scalar(lo, scope)?;
            validate_scalar(hi, scope)
        }
        Expr::Aggregate { .. } => {
            Err(Error::Plan("aggregate not allowed in this context".into()))
        }
    }
}

/// Post-aggregation context: a subexpression that *is* a group key is
/// fine (checked before anything else, at every node), aggregates take
/// scalar arguments, and any other raw column reference is an error.
fn validate_grouped(e: &Expr, group_by: &[Expr], scope: &NScope<'_>) -> Result<()> {
    // Structural match (`identical`), mirroring the planner: `3` is not
    // the "same expression" as `3.0` even though the values compare equal.
    if group_by.iter().any(|g| g.identical(e)) {
        return Ok(());
    }
    match e {
        Expr::Literal(_) | Expr::Param(_) => Ok(()),
        Expr::Column(c) => Err(Error::Plan(format!(
            "column {} must appear in GROUP BY or inside an aggregate",
            c.column
        ))),
        Expr::Aggregate { arg, .. } => match arg {
            Some(a) => validate_scalar(a, scope),
            None => Ok(()),
        },
        Expr::Binary { lhs, rhs, .. } => {
            validate_grouped(lhs, group_by, scope)?;
            validate_grouped(rhs, group_by, scope)
        }
        Expr::Neg(x) | Expr::Not(x) | Expr::Abs(x) => validate_grouped(x, group_by, scope),
        Expr::IsNull { expr, .. } => validate_grouped(expr, group_by, scope),
        Expr::InList { expr, list, .. } => {
            validate_grouped(expr, group_by, scope)?;
            list.iter().try_for_each(|e| validate_grouped(e, group_by, scope))
        }
        Expr::Between { expr, lo, hi, .. } => {
            validate_grouped(expr, group_by, scope)?;
            validate_grouped(lo, group_by, scope)?;
            validate_grouped(hi, group_by, scope)
        }
    }
}

/// Resolves INSERT target columns to schema positions and rejects
/// duplicates — shared by validation and execution.
fn insert_positions(schema: &Schema, columns: &[String]) -> Result<Vec<usize>> {
    let positions: Vec<usize> = if columns.is_empty() {
        (0..schema.arity()).collect()
    } else {
        columns.iter().map(|c| schema.index_of_or_err(c)).collect::<Result<_>>()?
    };
    let mut seen = vec![false; schema.arity()];
    for &p in &positions {
        if seen[p] {
            return Err(Error::Plan(format!(
                "duplicate target column {} in INSERT",
                schema.column(p).name
            )));
        }
        seen[p] = true;
    }
    Ok(positions)
}

fn validate_insert(db: &RefDb, i: &Insert) -> Result<()> {
    let t = db.table(&i.table)?;
    let positions = insert_positions(&t.schema, &i.columns)?;
    match &i.source {
        InsertSource::Values(rows) => {
            let empty = NScope::empty();
            for row in rows {
                if row.len() != positions.len() {
                    return Err(Error::Plan(format!(
                        "INSERT expects {} values, got {}",
                        positions.len(),
                        row.len()
                    )));
                }
                for expr in row {
                    validate_scalar(expr, &empty)?;
                }
            }
            Ok(())
        }
        InsertSource::Select(sel) => {
            let out_arity = validate_select(db, sel)?;
            if out_arity != positions.len() {
                return Err(Error::Plan(format!(
                    "INSERT SELECT arity mismatch: {} target columns, {} select outputs",
                    positions.len(),
                    out_arity
                )));
            }
            Ok(())
        }
    }
}

fn validate_update(db: &RefDb, u: &Update) -> Result<()> {
    let t = db.table(&u.table)?;
    let mut scope = NScope::empty();
    scope.push(&u.table, &t.schema)?;
    if let Some(w) = &u.where_clause {
        validate_scalar(w, &scope)?;
    }
    for (col, expr) in &u.assignments {
        t.schema.index_of_or_err(col)?;
        validate_scalar(expr, &scope)?;
    }
    Ok(())
}

fn validate_delete(db: &RefDb, d: &Delete) -> Result<()> {
    let t = db.table(&d.table)?;
    let mut scope = NScope::empty();
    scope.push(&d.table, &t.schema)?;
    if let Some(w) = &d.where_clause {
        validate_scalar(w, &scope)?;
    }
    Ok(())
}

// ======================================================================
// Expression evaluation
// ======================================================================

/// Per-group environment: key values for group-key matches and
/// precomputed aggregate values looked up by AST equality.
struct GroupEnv<'a> {
    group_by: &'a [Expr],
    key: &'a [Value],
    aggs: &'a [(Expr, Value)],
}

struct Ctx<'a> {
    scope: &'a NScope<'a>,
    row: &'a [Value],
    params: &'a [Value],
    group: Option<&'a GroupEnv<'a>>,
}

fn eval(e: &Expr, ctx: &Ctx<'_>) -> Result<Value> {
    // In a grouped context a whole-expression match against a group key
    // takes precedence over everything, at every node.
    if let Some(genv) = ctx.group {
        if let Some(pos) = genv.group_by.iter().position(|g| g.identical(e)) {
            return Ok(genv.key[pos].clone());
        }
        if matches!(e, Expr::Aggregate { .. }) {
            return genv
                .aggs
                .iter()
                .find(|(a, _)| a == e)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| Error::Internal("aggregate not precomputed".into()));
        }
    }
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => ctx
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::Eval(format!("missing parameter ?{}", i + 1))),
        Expr::Column(c) => {
            if ctx.group.is_some() {
                // Validation rejects raw columns in grouped contexts.
                return Err(Error::Eval(format!("raw column {} in grouped context", c.column)));
            }
            Ok(ctx.row[ctx.scope.resolve(c)?].clone())
        }
        Expr::Binary { op, lhs, rhs } => {
            use sstore_sql::ast::BinOp;
            match op {
                BinOp::And => {
                    let l = truth(&eval(lhs, ctx)?)?;
                    if l == Some(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = truth(&eval(rhs, ctx)?)?;
                    Ok(from_truth(match (l, r) {
                        (Some(false), _) | (_, Some(false)) => Some(false),
                        (Some(true), Some(true)) => Some(true),
                        _ => None,
                    }))
                }
                BinOp::Or => {
                    let l = truth(&eval(lhs, ctx)?)?;
                    if l == Some(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = truth(&eval(rhs, ctx)?)?;
                    Ok(from_truth(match (l, r) {
                        (Some(true), _) | (_, Some(true)) => Some(true),
                        (Some(false), Some(false)) => Some(false),
                        _ => None,
                    }))
                }
                BinOp::Eq => {
                    let (l, r) = (eval(lhs, ctx)?, eval(rhs, ctx)?);
                    Ok(from_truth(l.sql_eq(&r)))
                }
                BinOp::NotEq => {
                    let (l, r) = (eval(lhs, ctx)?, eval(rhs, ctx)?);
                    Ok(from_truth(l.sql_eq(&r).map(|b| !b)))
                }
                BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                    let (l, r) = (eval(lhs, ctx)?, eval(rhs, ctx)?);
                    use std::cmp::Ordering::*;
                    Ok(from_truth(l.sql_cmp(&r).map(|o| match op {
                        BinOp::Lt => o == Less,
                        BinOp::LtEq => o != Greater,
                        BinOp::Gt => o == Greater,
                        BinOp::GtEq => o != Less,
                        _ => unreachable!(),
                    })))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    let (l, r) = (eval(lhs, ctx)?, eval(rhs, ctx)?);
                    arith(*op, &l, &r)
                }
            }
        }
        Expr::Neg(x) => match eval(x, ctx)? {
            Value::Null => Ok(Value::Null),
            Value::Int(v) => Ok(Value::Int(
                v.checked_neg()
                    .ok_or_else(|| Error::Eval("integer overflow in negation".into()))?,
            )),
            Value::Float(v) => Ok(Value::float(-v)),
            other => Err(Error::Eval(format!("cannot negate {other}"))),
        },
        Expr::Not(x) => Ok(from_truth(truth(&eval(x, ctx)?)?.map(|b| !b))),
        Expr::IsNull { expr, negated } => {
            Ok(Value::Bool(eval(expr, ctx)?.is_null() != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let needle = eval(expr, ctx)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for cand in list {
                match needle.sql_eq(&eval(cand, ctx)?) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            Ok(if saw_null { Value::Null } else { Value::Bool(*negated) })
        }
        Expr::Between { expr, lo, hi, negated } => {
            let v = eval(expr, ctx)?;
            let lo_cmp = v.sql_cmp(&eval(lo, ctx)?);
            let hi_cmp = v.sql_cmp(&eval(hi, ctx)?);
            let ge_lo = lo_cmp.map(|o| o != std::cmp::Ordering::Less);
            let le_hi = hi_cmp.map(|o| o != std::cmp::Ordering::Greater);
            let both = match (ge_lo, le_hi) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            };
            Ok(from_truth(if *negated { both.map(|b| !b) } else { both }))
        }
        Expr::Abs(x) => match eval(x, ctx)? {
            Value::Null => Ok(Value::Null),
            Value::Int(v) => Ok(Value::Int(
                v.checked_abs().ok_or_else(|| Error::Eval("integer overflow in ABS".into()))?,
            )),
            Value::Float(v) => Ok(Value::float(v.abs())),
            other => Err(Error::Eval(format!("ABS of non-numeric {other}"))),
        },
        Expr::Aggregate { .. } => {
            Err(Error::Eval("aggregate outside a grouped context".into()))
        }
    }
}

fn eval_predicate(e: &Expr, ctx: &Ctx<'_>) -> Result<bool> {
    Ok(truth(&eval(e, ctx)?)? == Some(true))
}

fn truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(Error::Eval(format!("expected a boolean predicate, got {other}"))),
    }
}

fn from_truth(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn arith(op: sstore_sql::ast::BinOp, l: &Value, r: &Value) -> Result<Value> {
    use sstore_sql::ast::BinOp;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let (a, b) = (*a, *b);
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(Error::Eval("integer division by zero".into()));
                    }
                    a.checked_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(Error::Eval("integer modulo by zero".into()));
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!("arith called with non-arithmetic op"),
            };
            out.map(Value::Int).ok_or_else(|| Error::Eval("integer overflow".into()))
        }
        _ => {
            let a = l.as_float()?;
            let b = r.as_float()?;
            // `Value::float` canonicalizes NaN exactly like the engine's
            // arithmetic — payload propagation is codegen-dependent, so
            // the dialect defines every computed NaN as the canonical one.
            Ok(Value::float(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => a % b,
                _ => unreachable!("arith called with non-arithmetic op"),
            }))
        }
    }
}

// ======================================================================
// SELECT
// ======================================================================

fn default_name(expr: &Expr, i: usize) -> String {
    match expr {
        Expr::Column(c) => c.column.clone(),
        _ => format!("col{i}"),
    }
}

fn key_cmp(a: &[Value], b: &[Value], dirs: &[SortOrder]) -> std::cmp::Ordering {
    for ((va, vb), dir) in a.iter().zip(b).zip(dirs) {
        let ord = va.cmp_total(vb);
        let ord = match dir {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

fn keys_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.cmp_total(y) == std::cmp::Ordering::Equal)
}

/// Mirrors the planner's `choose_access` plus the executor's index
/// point-lookup: returns the base-row positions the rest of the query
/// sees, in scan order. Rows outside this set never have the WHERE (or
/// join predicates) evaluated on them — including its *errors*.
///
/// `scope` must be the full scope the WHERE is evaluated under (base
/// plus all join tables): constraint columns are recognized by their
/// flat index being inside the base table's arity, exactly like the
/// planner's bound-space check.
fn prune_candidates(
    t: &RefTable,
    scope: &NScope<'_>,
    where_clause: Option<&Expr>,
    params: &[Value],
) -> Vec<usize> {
    let all = || (0..t.rows.len()).collect::<Vec<usize>>();
    let Some(pred) = where_clause else { return all() };
    let base_arity = t.schema.arity();
    let mut eq: Vec<(usize, &Expr)> = Vec::new();
    collect_eq_constraints(pred, scope, base_arity, &mut eq);
    if eq.is_empty() {
        return all();
    }
    // Prefer the index covering the most key columns; earlier
    // definitions win ties (planner iterates definitions in order and
    // only replaces on strictly-more columns).
    let mut best: Option<(&[usize], Vec<&Expr>)> = None;
    for def in &t.indexes {
        let mut exprs = Vec::with_capacity(def.key_columns.len());
        let covered = def.key_columns.iter().all(|kc| {
            if let Some((_, e)) = eq.iter().find(|(c, _)| c == kc) {
                exprs.push(*e);
                true
            } else {
                false
            }
        });
        if covered && best.as_ref().is_none_or(|(cols, _)| def.key_columns.len() > cols.len()) {
            best = Some((&def.key_columns, exprs));
        }
    }
    let Some((key_cols, key_exprs)) = best else { return all() };
    // Key expressions are row-independent; evaluate them with no row in
    // scope. An error degrades to a full scan — the erroring conjunct
    // is still in the residual WHERE, so it fires per candidate row.
    let ctx = Ctx { scope, row: &[], params, group: None };
    let mut key = Vec::with_capacity(key_exprs.len());
    for e in key_exprs {
        match eval(e, &ctx) {
            Ok(v) => key.push(v),
            Err(_) => return all(),
        }
    }
    // Index key equality is structural (`cmp_total`): NULL matches
    // NULL, Int(1) matches Float(1.0). The residual WHERE re-applies
    // SQL tri-state equality on top.
    t.rows
        .iter()
        .enumerate()
        .filter(|(_, row)| {
            key_cols
                .iter()
                .zip(&key)
                .all(|(&c, k)| row[c].cmp_total(k) == std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
        .collect()
}

/// Planner mirror: collects top-level AND-tree conjuncts of shape
/// `<base column> = <row-independent expr>` (either orientation).
fn collect_eq_constraints<'e>(
    pred: &'e Expr,
    scope: &NScope<'_>,
    base_arity: usize,
    out: &mut Vec<(usize, &'e Expr)>,
) {
    match pred {
        Expr::Binary { op: sstore_sql::ast::BinOp::And, lhs, rhs } => {
            collect_eq_constraints(lhs, scope, base_arity, out);
            collect_eq_constraints(rhs, scope, base_arity, out);
        }
        Expr::Binary { op: sstore_sql::ast::BinOp::Eq, lhs, rhs } => {
            let base_col = |e: &Expr| match e {
                Expr::Column(c) => scope.resolve(c).ok().filter(|&i| i < base_arity),
                _ => None,
            };
            if let Some(c) = base_col(lhs) {
                if row_independent(rhs) {
                    out.push((c, rhs));
                    return;
                }
            }
            if let Some(c) = base_col(rhs) {
                if row_independent(lhs) {
                    out.push((c, lhs));
                }
            }
        }
        _ => {}
    }
}

/// AST-level mirror of `BoundExpr::is_row_independent`.
fn row_independent(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Column(_) | Expr::Aggregate { .. } => false,
        Expr::Binary { lhs, rhs, .. } => row_independent(lhs) && row_independent(rhs),
        Expr::Neg(x) | Expr::Not(x) | Expr::Abs(x) => row_independent(x),
        Expr::IsNull { expr, .. } => row_independent(expr),
        Expr::InList { expr, list, .. } => {
            row_independent(expr) && list.iter().all(row_independent)
        }
        Expr::Between { expr, lo, hi, .. } => {
            row_independent(expr) && row_independent(lo) && row_independent(hi)
        }
    }
}

fn exec_select(db: &RefDb, s: &Select, params: &[Value]) -> Result<RefResult> {
    let base = db.table(&s.from.name)?;
    let mut scope = NScope::empty();
    scope.push(s.from.effective_alias(), &base.schema)?;

    // Full scope (base + all joins) for the access-path mirror: the
    // planner binds WHERE with every table in scope, so constraint
    // columns resolve in the same flat space here.
    let mut full_scope = NScope::empty();
    full_scope.push(s.from.effective_alias(), &base.schema)?;
    for j in &s.joins {
        full_scope.push(j.table.effective_alias(), &db.table(&j.table.name)?.schema)?;
    }

    // 1. Base scan (index point-lookup pruning mirrored), then
    // nested-loop joins (the engine may hash-join; both emit left rows
    // in scan order, each matched against right rows in scan order, so
    // the output order is identical).
    let mut rows: Vec<Vec<Value>> =
        prune_candidates(base, &full_scope, s.where_clause.as_ref(), params)
            .into_iter()
            .map(|i| base.rows[i].clone())
            .collect();
    for j in &s.joins {
        let right = db.table(&j.table.name)?;
        scope.push(j.table.effective_alias(), &right.schema)?;
        let mut next = Vec::new();
        for left in &rows {
            for r in &right.rows {
                let mut combined = left.clone();
                combined.extend(r.iter().cloned());
                let ctx = Ctx { scope: &scope, row: &combined, params, group: None };
                if eval_predicate(&j.on, &ctx)? {
                    next.push(combined);
                }
            }
        }
        rows = next;
    }

    // 2. WHERE.
    if let Some(pred) = &s.where_clause {
        let mut kept = Vec::new();
        for row in rows {
            let ctx = Ctx { scope: &scope, row: &row, params, group: None };
            if eval_predicate(pred, &ctx)? {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // Output names.
    let grouped = is_grouped(s);
    let mut columns = Vec::new();
    for (i, item) in s.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (_, schema, _) in &scope.entries {
                    for c in schema.columns() {
                        columns.push(c.name.clone());
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| default_name(expr, i)));
            }
        }
    }

    // 3. Aggregation or plain projection → (sort key, output row).
    let mut out: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();
    if grouped {
        // Group rows by key. First-seen key values are the group
        // representative (matters when keys are equal under cmp_total
        // but not bit-identical).
        let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
        for row in rows {
            let ctx = Ctx { scope: &scope, row: &row, params, group: None };
            let key: Vec<Value> =
                s.group_by.iter().map(|g| eval(g, &ctx)).collect::<Result<_>>()?;
            match groups.iter_mut().find(|(k, _)| keys_equal(k, &key)) {
                Some((_, members)) => members.push(row),
                None => groups.push((key, vec![row])),
            }
        }
        // Implicit aggregation yields one group even over zero rows.
        if groups.is_empty() && s.group_by.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }
        // Groups finish in ascending key order.
        groups.sort_by(|(a, _), (b, _)| {
            let dirs = vec![SortOrder::Asc; a.len()];
            key_cmp(a, b, &dirs)
        });

        // Every aggregate mentioned anywhere is computed for every
        // group *before* HAVING — the engine accumulates all of them
        // during the feed phase, so their runtime errors (overflow,
        // SUM over text) surface even for groups HAVING would drop.
        let mut agg_exprs: Vec<Expr> = Vec::new();
        let mut collect = |e: &Expr| collect_aggs(e, &mut agg_exprs);
        for item in &s.items {
            if let SelectItem::Expr { expr, .. } = item {
                collect(expr);
            }
        }
        if let Some(h) = &s.having {
            collect(&substitute(h, &s.items));
        }
        for k in &s.order_by {
            collect(&substitute(&k.expr, &s.items));
        }

        for (key, members) in &groups {
            let mut agg_values = Vec::with_capacity(agg_exprs.len());
            for a in &agg_exprs {
                agg_values.push((a.clone(), compute_agg(a, members, &scope, params)?));
            }
            let genv = GroupEnv { group_by: &s.group_by, key, aggs: &agg_values };
            let ctx = Ctx { scope: &scope, row: &[], params, group: Some(&genv) };
            if let Some(h) = &s.having {
                if !eval_predicate(&substitute(h, &s.items), &ctx)? {
                    continue;
                }
            }
            let mut output = Vec::new();
            for item in &s.items {
                match item {
                    SelectItem::Wildcard => unreachable!("validated away when grouped"),
                    SelectItem::Expr { expr, .. } => output.push(eval(expr, &ctx)?),
                }
            }
            let mut sort_key = Vec::with_capacity(s.order_by.len());
            for k in &s.order_by {
                sort_key.push(eval(&substitute(&k.expr, &s.items), &ctx)?);
            }
            out.push((sort_key, output));
        }
    } else {
        for row in &rows {
            let ctx = Ctx { scope: &scope, row, params, group: None };
            let mut output = Vec::new();
            for item in &s.items {
                match item {
                    SelectItem::Wildcard => output.extend(row.iter().cloned()),
                    SelectItem::Expr { expr, .. } => output.push(eval(expr, &ctx)?),
                }
            }
            let mut sort_key = Vec::with_capacity(s.order_by.len());
            for k in &s.order_by {
                sort_key.push(eval(&substitute(&k.expr, &s.items), &ctx)?);
            }
            out.push((sort_key, output));
        }
    }

    // 4. ORDER BY (always a full stable sort — this is the oracle for
    // the engine's bounded top-K heap) + LIMIT.
    if !s.order_by.is_empty() {
        let dirs: Vec<SortOrder> = s.order_by.iter().map(|k| k.order).collect();
        out.sort_by(|(a, _), (b, _)| key_cmp(a, b, &dirs));
    }
    let mut rows_out: Vec<Vec<Value>> = out.into_iter().map(|(_, r)| r).collect();
    if let Some(limit) = s.limit {
        rows_out.truncate(limit as usize);
    }
    Ok(RefResult { columns, rows: rows_out, rows_affected: 0 })
}

/// Collects aggregate subexpressions (deduplicated by AST equality).
/// Aggregate arguments are scalar by validation, so recursion stops at
/// an aggregate node.
fn collect_aggs(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Aggregate { .. } => {
            if !out.contains(e) {
                out.push(e.clone());
            }
        }
        Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
        Expr::Binary { lhs, rhs, .. } => {
            collect_aggs(lhs, out);
            collect_aggs(rhs, out);
        }
        Expr::Neg(x) | Expr::Not(x) | Expr::Abs(x) => collect_aggs(x, out),
        Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            list.iter().for_each(|e| collect_aggs(e, out));
        }
        Expr::Between { expr, lo, hi, .. } => {
            collect_aggs(expr, out);
            collect_aggs(lo, out);
            collect_aggs(hi, out);
        }
    }
}

/// Computes one aggregate over a group's member rows, in feed order.
/// Mirrors the engine's accumulator semantics exactly: NULL inputs are
/// skipped, DISTINCT deduplicates before counting, integer SUM overflow
/// is an error even when floats were seen, AVG runs a float sum in feed
/// order, MIN/MAX keep the first of cmp_total-equal values.
fn compute_agg(
    agg: &Expr,
    members: &[Vec<Value>],
    scope: &NScope<'_>,
    params: &[Value],
) -> Result<Value> {
    let Expr::Aggregate { func, arg, distinct } = agg else {
        return Err(Error::Internal("compute_agg on non-aggregate".into()));
    };
    let mut count: u64 = 0;
    let mut sum_i: i64 = 0;
    let mut sum_f: f64 = 0.0;
    let mut saw_float = false;
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    let mut seen: Vec<Value> = Vec::new();

    for row in members {
        let v = match arg {
            Some(a) => {
                let ctx = Ctx { scope, row, params, group: None };
                let v = eval(a, &ctx)?;
                if v.is_null() {
                    continue; // SQL aggregates skip NULL inputs
                }
                v
            }
            None => {
                count += 1; // COUNT(*)
                continue;
            }
        };
        if *distinct {
            if seen.iter().any(|s| s.cmp_total(&v) == std::cmp::Ordering::Equal) {
                continue;
            }
            seen.push(v.clone());
        }
        count += 1;
        match func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match &v {
                Value::Int(i) => {
                    sum_i = sum_i
                        .checked_add(*i)
                        .ok_or_else(|| Error::Eval("integer overflow in SUM".into()))?;
                    sum_f += *i as f64;
                }
                Value::Float(f) => {
                    saw_float = true;
                    sum_f += f;
                }
                other => {
                    return Err(Error::Eval(format!("SUM/AVG over non-numeric {other}")));
                }
            },
            AggFunc::Min => {
                if min.as_ref().is_none_or(|m| v.cmp_total(m).is_lt()) {
                    min = Some(v);
                }
            }
            AggFunc::Max => {
                if max.as_ref().is_none_or(|m| v.cmp_total(m).is_gt()) {
                    max = Some(v);
                }
            }
        }
    }
    Ok(match func {
        AggFunc::Count => Value::Int(count as i64),
        AggFunc::Sum => {
            if count == 0 {
                Value::Null
            } else if saw_float {
                // Canonicalized NaN, mirroring the engine (`AccCol::finish` in sql/src/edge.rs).
                Value::float(sum_f)
            } else {
                Value::Int(sum_i)
            }
        }
        AggFunc::Avg => {
            if count == 0 {
                Value::Null
            } else {
                Value::float(sum_f / count as f64)
            }
        }
        AggFunc::Min => min.unwrap_or(Value::Null),
        AggFunc::Max => max.unwrap_or(Value::Null),
    })
}

// ======================================================================
// DML
// ======================================================================

/// Checks a fully-materialized row against schema and unique
/// constraints the way `Table::insert` does, then appends it.
fn insert_row(t: &mut RefTable, values: Vec<Value>) -> Result<()> {
    t.schema.validate(&values)?;
    for (name, key_cols) in &t.unique {
        let key: Vec<Value> = key_cols.iter().map(|&c| values[c].clone()).collect();
        if t.rows.iter().any(|r| {
            keys_equal(&key_cols.iter().map(|&c| r[c].clone()).collect::<Vec<_>>(), &key)
        }) {
            return Err(Error::UniqueViolation { index: name.clone(), key: format!("{key:?}") });
        }
    }
    t.rows.push(values);
    Ok(())
}

fn exec_insert(db: &mut RefDb, i: &Insert, params: &[Value]) -> Result<RefResult> {
    // Phase 1: materialize every row (the engine evaluates all
    // templates / runs the source SELECT before inserting anything).
    let (arity, positions) = {
        let t = db.table(&i.table)?;
        (t.schema.arity(), insert_positions(&t.schema, &i.columns)?)
    };
    let mut rows_to_insert: Vec<Vec<Value>> = Vec::new();
    match &i.source {
        InsertSource::Values(rows) => {
            let empty = NScope::empty();
            let ctx = Ctx { scope: &empty, row: &[], params, group: None };
            for row in rows {
                let mut full = vec![Value::Null; arity];
                for (expr, &pos) in row.iter().zip(&positions) {
                    full[pos] = eval(expr, &ctx)?;
                }
                rows_to_insert.push(full);
            }
        }
        InsertSource::Select(sel) => {
            let result = exec_select(db, sel, params)?;
            for out in result.rows {
                let mut full = vec![Value::Null; arity];
                for (v, &pos) in out.into_iter().zip(&positions) {
                    full[pos] = v;
                }
                rows_to_insert.push(full);
            }
        }
    }

    // Phase 2: insert sequentially into a scratch copy (statement
    // atomicity), each row checked against committed + earlier rows.
    let t = db.table_mut(&i.table)?;
    let mut scratch = t.clone();
    let mut n = 0;
    for values in rows_to_insert {
        insert_row(&mut scratch, values)?;
        n += 1;
    }
    *t = scratch;
    Ok(RefResult { rows_affected: n, ..RefResult::default() })
}

fn exec_update(db: &mut RefDb, u: &Update, params: &[Value]) -> Result<RefResult> {
    let t = db.table(&u.table)?;
    let schema = t.schema.clone();
    let mut scope = NScope::empty();
    scope.push(&u.table, &schema)?;

    // Candidates in scan order (index point-lookup pruning mirrored:
    // pruned rows never see the WHERE, including its errors).
    let mut candidates: Vec<usize> = Vec::new();
    for idx in prune_candidates(t, &scope, u.where_clause.as_ref(), params) {
        let keep = match &u.where_clause {
            Some(pred) => {
                let ctx = Ctx { scope: &scope, row: &t.rows[idx], params, group: None };
                eval_predicate(pred, &ctx)?
            }
            None => true,
        };
        if keep {
            candidates.push(idx);
        }
    }

    // Compute every new image from pre-images first, then apply:
    // assignments see a consistent snapshot.
    let mut updates: Vec<(usize, Vec<Value>)> = Vec::with_capacity(candidates.len());
    for idx in &candidates {
        let old = &t.rows[*idx];
        let ctx = Ctx { scope: &scope, row: old, params, group: None };
        let mut new_values = old.clone();
        for (col, expr) in &u.assignments {
            let pos = schema.index_of_or_err(col)?;
            new_values[pos] = eval(expr, &ctx)?;
        }
        updates.push((*idx, new_values));
    }

    // Apply sequentially on a scratch copy; unique checks run against
    // the live state including earlier updates of this statement.
    let unique = t.unique.clone();
    let mut scratch = t.rows.clone();
    let mut n = 0;
    for (idx, new_values) in updates {
        schema.validate(&new_values)?;
        for (name, key_cols) in &unique {
            let old_key: Vec<Value> = key_cols.iter().map(|&c| scratch[idx][c].clone()).collect();
            let new_key: Vec<Value> = key_cols.iter().map(|&c| new_values[c].clone()).collect();
            if keys_equal(&old_key, &new_key) {
                continue;
            }
            let conflict = scratch.iter().enumerate().any(|(j, r)| {
                j != idx
                    && keys_equal(
                        &key_cols.iter().map(|&c| r[c].clone()).collect::<Vec<_>>(),
                        &new_key,
                    )
            });
            if conflict {
                return Err(Error::UniqueViolation {
                    index: name.clone(),
                    key: format!("{new_key:?}"),
                });
            }
        }
        scratch[idx] = new_values;
        n += 1;
    }
    db.table_mut(&u.table)?.rows = scratch;
    Ok(RefResult { rows_affected: n, ..RefResult::default() })
}

fn exec_delete(db: &mut RefDb, d: &Delete, params: &[Value]) -> Result<RefResult> {
    let t = db.table(&d.table)?;
    let schema = t.schema.clone();
    let mut scope = NScope::empty();
    scope.push(&d.table, &schema)?;

    let mut keep_flags = vec![true; t.rows.len()];
    for idx in prune_candidates(t, &scope, d.where_clause.as_ref(), params) {
        let matched = match &d.where_clause {
            Some(pred) => {
                let ctx = Ctx { scope: &scope, row: &t.rows[idx], params, group: None };
                eval_predicate(pred, &ctx)?
            }
            None => true,
        };
        keep_flags[idx] = !matched;
    }
    let n = keep_flags.iter().filter(|k| !**k).count();
    let t = db.table_mut(&d.table)?;
    let mut flags = keep_flags.into_iter();
    t.rows.retain(|_| flags.next().expect("flag per row"));
    Ok(RefResult { rows_affected: n, ..RefResult::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{Column, DataType};
    use sstore_storage::{IndexDef, IndexKind};

    fn db() -> RefDb {
        let spec = TableSpec {
            name: "t".into(),
            schema: Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::nullable("b", DataType::Float),
                Column::nullable("c", DataType::Text),
            ])
            .unwrap(),
            indexes: vec![IndexDef {
                name: "t_pk".into(),
                key_columns: vec![0],
                kind: IndexKind::Hash,
                unique: true,
            }],
            group_indexes: vec![],
        };
        RefDb::new(&[spec])
    }

    fn run(db: &mut RefDb, sql: &str, params: &[Value]) -> Result<RefResult> {
        let stmt = sstore_sql::parse(sql).unwrap();
        db.execute(&stmt, params)
    }

    #[test]
    fn basic_crud_and_unique() {
        let mut d = db();
        run(&mut d, "INSERT INTO t VALUES (1, 0.5, 'x'), (2, NULL, NULL)", &[]).unwrap();
        let err = run(&mut d, "INSERT INTO t VALUES (1, 1.0, 'y')", &[]).unwrap_err();
        assert_eq!(err.wire_code(), 4, "unique violation: {err}");
        // Atomicity: the failed insert left no partial state.
        assert_eq!(d.table_rows("t").len(), 2);
        let r = run(&mut d, "SELECT a, b FROM t ORDER BY a DESC", &[]).unwrap();
        assert_eq!(r.columns, vec!["a", "b"]);
        assert_eq!(r.rows[0][0], Value::Int(2));
        run(&mut d, "UPDATE t SET b = 2.5 WHERE a = 2", &[]).unwrap();
        let r = run(&mut d, "SELECT b FROM t WHERE a = 2", &[]).unwrap();
        assert!(r.rows[0][0].identical(&Value::Float(2.5)));
        assert_eq!(run(&mut d, "DELETE FROM t WHERE a = 1", &[]).unwrap().rows_affected, 1);
        assert_eq!(d.table_rows("t").len(), 1);
    }

    #[test]
    fn grouping_having_and_implicit_aggregation() {
        let mut d = db();
        run(
            &mut d,
            "INSERT INTO t VALUES (1, 1.0, 'x'), (2, 2.0, 'x'), (3, NULL, 'y')",
            &[],
        )
        .unwrap();
        let r = run(
            &mut d,
            "SELECT c, COUNT(*), SUM(b) FROM t GROUP BY c HAVING COUNT(*) >= 1 ORDER BY c",
            &[],
        )
        .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert!(r.rows[0][2].identical(&Value::Float(3.0)));
        // SUM over zero non-null inputs is NULL.
        assert!(r.rows[1][2].is_null());
        // Implicit aggregation over an empty scan still yields a row.
        let r = run(&mut d, "SELECT COUNT(*), MIN(a) FROM t WHERE a > 100", &[]).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn plan_errors_win_over_runtime_errors() {
        let mut d = db();
        run(&mut d, "INSERT INTO t VALUES (1, NULL, NULL)", &[]).unwrap();
        // Unknown column in ORDER BY beats the div-by-zero in WHERE.
        let err = run(&mut d, "SELECT a FROM t WHERE a / 0 > 1 ORDER BY nope", &[]).unwrap_err();
        assert_eq!(err.wire_code(), 6, "plan error expected: {err}");
        // With the plan fixed, the runtime error surfaces.
        let err = run(&mut d, "SELECT a FROM t WHERE a / 0 > 1 ORDER BY a", &[]).unwrap_err();
        assert_eq!(err.wire_code(), 7, "eval error expected: {err}");
        // HAVING without grouping is a plan error.
        let err = run(&mut d, "SELECT a FROM t HAVING a > 1", &[]).unwrap_err();
        assert_eq!(err.wire_code(), 6);
    }

    #[test]
    fn null_in_list_is_three_valued() {
        let mut d = db();
        run(&mut d, "INSERT INTO t VALUES (1, NULL, 'x'), (2, NULL, NULL)", &[]).unwrap();
        // c NOT IN ('y', NULL): 'x' vs NULL-seeded list → unknown → row
        // dropped; NULL needle → unknown → dropped. No rows survive.
        let r = run(&mut d, "SELECT a FROM t WHERE c NOT IN ('y', NULL)", &[]).unwrap();
        assert_eq!(r.rows.len(), 0);
        // Positive membership still short-circuits past the NULL.
        let r = run(&mut d, "SELECT a FROM t WHERE c IN (NULL, 'x')", &[]).unwrap();
        assert_eq!(r.rows.len(), 1);
    }
}
