//! Binding and planning: AST → executable [`BoundStatement`].
//!
//! The planner resolves every column name against the catalog, rewrites
//! grouped queries into (group keys, aggregate specs, post-aggregate
//! expressions), and chooses one of four access paths for the base
//! table:
//!
//! * [`Access::FullScan`] — every live row, in row-id order. The default,
//!   and what every other path falls back to.
//! * [`Access::IndexEq`] — a top-level conjunction of
//!   `column = <row-independent expr>` predicates covering an index's
//!   whole key becomes a point lookup, mirroring H-Store's planner
//!   turning PK probes into index lookups — the effect the paper leans on
//!   in §4.6.3 (vote validation is an index probe in S-Store but a scan
//!   in Spark Streaming). The WHERE stays as a residual filter.
//! * [`Access::IndexOrder`] — `ORDER BY <indexed columns> LIMIT k` walks
//!   a B-tree index from one end and stops once `k` rows are certain,
//!   O(log n + k) instead of a scan and a top-k (the leaderboard refresh
//!   of §4.6). A SELECT qualifies when **all** of these hold:
//!   one table, no join, no GROUP BY or aggregate, no WHERE, a LIMIT;
//!   every ORDER BY key is a bare column; every projection is a bare
//!   column or a literal (`edge.rs`'s rule for building a row late); and the
//!   first `prefix_len >= 1` ORDER BY keys, all in one direction, are the
//!   first `prefix_len` key columns of a B-tree index of the table (the
//!   longest such prefix wins, the earliest-declared index on a tie).
//!   Keys past the prefix — a direction change (`cnt DESC, contestant
//!   ASC` over an index on `(cnt, contestant)` has `prefix_len` 1), an
//!   unindexed column — and the arrival-order tie-break are still the
//!   output edge's to decide, run by run (`exec.rs`). The rule is this
//!   narrow because the walk never reaches most rows: anything the scan
//!   would have evaluated for them must be unable to fail, or a statement
//!   that used to fail would now succeed. Bare columns and literals
//!   cannot fail; proving a WHERE infallible would take a type-aware
//!   pass over the predicate, so a WHERE disqualifies outright.
//! * [`Access::GroupIndex`] — a grouped SELECT is read off a group index
//!   the table maintains (`storage::group`; the engine attaches them to
//!   sliding windows), so `GROUP BY` over a window costs the groups, not
//!   the rows. A SELECT qualifies ([`group_index_shape`]) when **all** of
//!   these hold, each for a reason:
//!   - one table, no join, no WHERE — the index counts every live row;
//!   - every GROUP BY key is a bare column of Int, Text or Bool type (or
//!     there is no GROUP BY: the zero-key index, which yields its one
//!     group over zero rows too). A group is represented by the first key
//!     value the scan saw (`edge.rs`); these types have one representation
//!     per equality class, so any row's key is that value. Float has not
//!     (`-0.0`/`0.0`, NaN payloads), and which row came first is exactly
//!     what an index that forgets rows cannot say;
//!   - every aggregate is `COUNT(*)`, `COUNT(col)` or `SUM(Int col)`, not
//!     DISTINCT — the ones a leaving row can be subtracted from exactly.
//!     MIN/MAX and DISTINCT are not invertible; AVG and a Float SUM add
//!     floats in scan order (`SumAcc` keeps a float shadow even of Int
//!     sums, for AVG), and float addition does not commute bit for bit;
//!   - the table carries a group index over exactly those keys (in GROUP
//!     BY order) and those aggregate columns.
//!
//!   HAVING, projections, ORDER BY and LIMIT run per group in the output
//!   edge whichever way the groups were produced, so they do not matter
//!   here. One thing the scan does per *row* remains: its running SUM is
//!   checked, and fails at the row where a prefix overflows `i64` even if
//!   the total fits. The index keeps Σ|v| per summed column; while that
//!   fits an `i64` no prefix in any order can have overflowed, and when it
//!   does not — or the index is missing, or behind its table — the
//!   execution falls back to the scan (`exec.rs`), so an error surfaces
//!   exactly when it did.

use sstore_common::{DataType, Error, Result, Schema, TableId};
use sstore_storage::{Catalog, GroupIndexDef, IndexKind};

use crate::ast::{
    AggFunc, BinOp, ColumnRef, Delete, Expr, Insert, InsertSource, OrderKey, Select, SelectItem,
    SortOrder, Statement, Update,
};
use crate::expr::{AggSpec, BoundExpr, EvalCtx};

/// How the executor reaches the rows of a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Scan every live row.
    FullScan,
    /// Probe an index with an equality key. The key expressions are
    /// row-independent (literals/params only).
    IndexEq {
        /// Key column positions (the index's key, in index order).
        key_cols: Vec<usize>,
        /// Key expressions, parallel to `key_cols`.
        key_exprs: Vec<BoundExpr>,
    },
    /// Walk a B-tree index in key order, feeding the output edge one run
    /// of prefix-equal rows at a time, until it holds `LIMIT` rows (the
    /// module docs state which statements qualify). If the index is gone
    /// or changed by execution time the statement scans instead.
    IndexOrder {
        /// Name of the B-tree index.
        index: String,
        /// How many leading ORDER BY keys are the index's leading key
        /// columns, in one direction (at least 1).
        prefix_len: usize,
        /// Walk from the high end (those keys are DESC).
        reverse: bool,
    },
    /// Read the groups off the table's group index with this definition
    /// (the module docs state which statements qualify). If the table
    /// does not carry it at execution time, or a group's integer sum
    /// could have overflowed on the way, the statement scans instead.
    GroupIndex(GroupIndexDef),
}

/// A bound base-table scan.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundScan {
    /// Target table, resolved at plan time (no name lookup at
    /// execution).
    pub table: TableId,
    /// Chosen access path.
    pub access: Access,
}

/// A bound join step (left-deep).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundJoin {
    /// Right-hand table, resolved at plan time.
    pub table: TableId,
    /// Equi-join key pairs `(left_pos_in_prefix, right_pos_in_table)`
    /// extracted from the ON clause; empty means pure nested loop.
    pub equi: Vec<(usize, usize)>,
    /// Full ON predicate over the concatenated row (prefix ++ right).
    pub on: BoundExpr,
}

/// A bound SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSelect {
    /// Base scan.
    pub from: BoundScan,
    /// Join steps in FROM order.
    pub joins: Vec<BoundJoin>,
    /// WHERE predicate over the full input row.
    pub where_pred: Option<BoundExpr>,
    /// True if the query aggregates (GROUP BY present or any aggregate
    /// function used).
    pub grouped: bool,
    /// Group key expressions over the input row.
    pub group_by: Vec<BoundExpr>,
    /// Aggregates to compute per group.
    pub aggs: Vec<AggSpec>,
    /// Output expressions. For grouped queries these read the group key
    /// via `Column(i)` (i-th group key) and aggregates via `AggRef(k)`;
    /// for plain queries they read the input row.
    pub projections: Vec<BoundExpr>,
    /// Output column names.
    pub output_names: Vec<String>,
    /// HAVING predicate (grouped queries only), same space as
    /// `projections` of a grouped query.
    pub having: Option<BoundExpr>,
    /// Sort keys, same expression space as `projections`.
    pub order_by: Vec<(BoundExpr, SortOrder)>,
    /// LIMIT.
    pub limit: Option<u64>,
    /// Arity of the concatenated input row (for executor sanity checks).
    pub input_arity: usize,
}

/// A bound INSERT.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundInsert {
    /// Target table, resolved at plan time.
    pub table: TableId,
    /// For each target-table column (in schema order): the expression
    /// producing it, or `None` to fill with NULL.
    pub row_template: Vec<Vec<Option<BoundExpr>>>,
    /// Alternative source: a SELECT whose output arity matches the
    /// column list.
    pub select: Option<Box<BoundSelect>>,
    /// Positions (schema order) targeted when `select` is used; parallel
    /// to the select's output columns.
    pub select_positions: Vec<usize>,
}

/// A bound UPDATE.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundUpdate {
    /// Target table + access path.
    pub scan: BoundScan,
    /// `(column position, new-value expression)` pairs.
    pub assignments: Vec<(usize, BoundExpr)>,
    /// Residual predicate.
    pub where_pred: Option<BoundExpr>,
}

/// A bound DELETE.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundDelete {
    /// Target table + access path.
    pub scan: BoundScan,
    /// Residual predicate.
    pub where_pred: Option<BoundExpr>,
}

/// Any bound statement, ready for [`crate::exec::execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum BoundStatement {
    /// SELECT.
    Select(BoundSelect),
    /// INSERT.
    Insert(BoundInsert),
    /// UPDATE.
    Update(BoundUpdate),
    /// DELETE.
    Delete(BoundDelete),
}

impl BoundStatement {
    /// True for statements that can mutate state.
    pub fn is_mutation(&self) -> bool {
        !matches!(self, BoundStatement::Select(_))
    }
}

/// Name-resolution scope: the tables visible to column references, each
/// with its alias and the offset of its first column in the
/// concatenated row.
struct Scope {
    entries: Vec<ScopeEntry>,
}

struct ScopeEntry {
    alias: String,
    schema: Schema,
    offset: usize,
}

impl Scope {
    fn single(alias: &str, schema: Schema) -> Scope {
        Scope { entries: vec![ScopeEntry { alias: alias.to_owned(), schema, offset: 0 }] }
    }

    fn arity(&self) -> usize {
        self.entries.last().map_or(0, |e| e.offset + e.schema.arity())
    }

    fn push(&mut self, alias: &str, schema: Schema) -> Result<()> {
        if self.entries.iter().any(|e| e.alias == alias) {
            return Err(Error::Plan(format!("duplicate table alias: {alias}")));
        }
        let offset = self.arity();
        self.entries.push(ScopeEntry { alias: alias.to_owned(), schema, offset });
        Ok(())
    }

    fn resolve(&self, c: &ColumnRef) -> Result<usize> {
        match &c.table {
            Some(q) => {
                let e = self
                    .entries
                    .iter()
                    .find(|e| e.alias.eq_ignore_ascii_case(q))
                    .ok_or_else(|| Error::Plan(format!("unknown table alias: {q}")))?;
                let idx = e.schema.index_of_or_err(&c.column)?;
                Ok(e.offset + idx)
            }
            None => {
                let mut found = None;
                for e in &self.entries {
                    if let Some(idx) = e.schema.index_of(&c.column) {
                        if found.is_some() {
                            return Err(Error::Plan(format!("ambiguous column: {}", c.column)));
                        }
                        found = Some(e.offset + idx);
                    }
                }
                found.ok_or_else(|| Error::Plan(format!("unknown column: {}", c.column)))
            }
        }
    }
}

/// Plans statements against a catalog.
pub struct Planner<'a> {
    catalog: &'a Catalog,
}

impl<'a> Planner<'a> {
    /// Creates a planner reading table metadata from `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Planner { catalog }
    }

    /// Binds a parsed statement.
    pub fn plan(&self, stmt: &Statement) -> Result<BoundStatement> {
        match stmt {
            Statement::Select(s) => Ok(BoundStatement::Select(self.plan_select(s)?)),
            Statement::Insert(i) => Ok(BoundStatement::Insert(self.plan_insert(i)?)),
            Statement::Update(u) => Ok(BoundStatement::Update(self.plan_update(u)?)),
            Statement::Delete(d) => Ok(BoundStatement::Delete(self.plan_delete(d)?)),
        }
    }

    /// Parses and binds in one call.
    pub fn plan_sql(&self, sql: &str) -> Result<BoundStatement> {
        self.plan(&crate::parse(sql)?)
    }

    fn resolve(&self, table: &str) -> Result<TableId> {
        self.catalog.id_of(table).ok_or_else(|| Error::not_found("table", table))
    }

    fn schema_of(&self, table: &str) -> Result<Schema> {
        Ok(self.catalog.table(table)?.schema().clone())
    }

    fn plan_select(&self, s: &Select) -> Result<BoundSelect> {
        // Build the scope: base table then each join table.
        let base_schema = self.schema_of(&s.from.name)?;
        let mut scope = Scope::single(s.from.effective_alias(), base_schema);
        let mut joins = Vec::with_capacity(s.joins.len());
        for j in &s.joins {
            let right_schema = self.schema_of(&j.table.name)?;
            let right_arity = right_schema.arity();
            let prefix_arity = scope.arity();
            scope.push(j.table.effective_alias(), right_schema)?;
            let on = bind_scalar(&j.on, &scope)?;
            let equi = extract_equi_pairs(&on, prefix_arity, right_arity);
            joins.push(BoundJoin { table: self.resolve(&j.table.name)?, equi, on });
        }

        let where_pred = s.where_clause.as_ref().map(|e| bind_scalar(e, &scope)).transpose()?;

        // Choose the access path for the base table from WHERE conjuncts
        // that constrain base-table columns with row-independent values.
        let table_id = self.resolve(&s.from.name)?;
        let access = self.choose_access(table_id, where_pred.as_ref());
        let from = BoundScan { table: table_id, access };

        // Expand aliases referenced by ORDER BY / HAVING before binding.
        let alias_map: Vec<(String, Expr)> = s
            .items
            .iter()
            .filter_map(|it| match it {
                SelectItem::Expr { expr, alias: Some(a) } => Some((a.clone(), expr.clone())),
                _ => None,
            })
            .collect();
        let substitute = |e: &Expr| -> Expr {
            if let Expr::Column(ColumnRef { table: None, column }) = e {
                for (a, target) in &alias_map {
                    if a.eq_ignore_ascii_case(column) {
                        return target.clone();
                    }
                }
            }
            e.clone()
        };

        let any_agg = s.items.iter().any(|it| match it {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        }) || s.having.as_ref().is_some_and(Expr::contains_aggregate)
            || s.order_by.iter().any(|k| substitute(&k.expr).contains_aggregate());
        let grouped = any_agg || !s.group_by.is_empty();

        let group_by: Vec<BoundExpr> =
            s.group_by.iter().map(|e| bind_scalar(e, &scope)).collect::<Result<_>>()?;

        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut projections = Vec::with_capacity(s.items.len());
        let mut output_names = Vec::with_capacity(s.items.len());

        if grouped {
            for (i, item) in s.items.iter().enumerate() {
                match item {
                    SelectItem::Wildcard => {
                        return Err(Error::Plan("SELECT * is not allowed with GROUP BY".into()));
                    }
                    SelectItem::Expr { expr, alias } => {
                        let bound = bind_grouped(expr, &s.group_by, &scope, &mut aggs)?;
                        output_names.push(alias.clone().unwrap_or_else(|| default_name(expr, i)));
                        projections.push(bound);
                    }
                }
            }
        } else {
            for (i, item) in s.items.iter().enumerate() {
                match item {
                    SelectItem::Wildcard => {
                        for e in &scope.entries {
                            for (ci, col) in e.schema.columns().iter().enumerate() {
                                projections.push(BoundExpr::Column(e.offset + ci));
                                output_names.push(col.name.clone());
                            }
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        projections.push(bind_scalar(expr, &scope)?);
                        output_names.push(alias.clone().unwrap_or_else(|| default_name(expr, i)));
                    }
                }
            }
        }

        let having = match (&s.having, grouped) {
            (Some(h), true) => Some(bind_grouped(&substitute(h), &s.group_by, &scope, &mut aggs)?),
            (Some(_), false) => {
                return Err(Error::Plan("HAVING requires GROUP BY or aggregates".into()));
            }
            (None, _) => None,
        };

        let mut order_by = Vec::with_capacity(s.order_by.len());
        for OrderKey { expr, order } in &s.order_by {
            let e = substitute(expr);
            let bound = if grouped {
                bind_grouped(&e, &s.group_by, &scope, &mut aggs)?
            } else {
                bind_scalar(&e, &scope)?
            };
            order_by.push((bound, *order));
        }

        let mut select = BoundSelect {
            from,
            joins,
            where_pred,
            grouped,
            group_by,
            aggs,
            projections,
            output_names,
            having,
            order_by,
            limit: s.limit,
            input_arity: scope.arity(),
        };
        if let Some(ordered) = self.choose_index_order(&select) {
            select.from.access = ordered;
        }
        let base = self.catalog.get(table_id);
        if let Some(def) = group_index_shape(&select, base.schema()) {
            if base.group_index(&def).is_some() {
                select.from.access = Access::GroupIndex(def);
            }
        }
        Ok(select)
    }

    /// [`Access::IndexOrder`] for `s` if it qualifies (module docs).
    fn choose_index_order(&self, s: &BoundSelect) -> Option<Access> {
        if s.limit.is_none()
            || s.grouped
            || !s.joins.is_empty()
            || s.where_pred.is_some()
            || !crate::edge::late_projections(s)
        {
            return None;
        }
        let cols: Vec<usize> = s
            .order_by
            .iter()
            .map(|(e, _)| match e {
                BoundExpr::Column(c) if *c < s.input_arity => Some(*c),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let dir = s.order_by.first()?.1;
        let uniform = s.order_by.iter().take_while(|(_, d)| *d == dir).count();
        let mut best: Option<(&str, usize)> = None;
        for def in self.catalog.get(s.from.table).index_defs() {
            let prefix_len =
                def.key_columns.iter().zip(&cols[..uniform]).take_while(|(k, c)| k == c).count();
            if def.kind == IndexKind::BTree && prefix_len > best.map_or(0, |b| b.1) {
                best = Some((&def.name, prefix_len));
            }
        }
        best.map(|(index, prefix_len)| Access::IndexOrder {
            index: index.to_owned(),
            prefix_len,
            reverse: dir == SortOrder::Desc,
        })
    }

    /// Matches top-level WHERE conjuncts of shape
    /// `<base column> = <row-independent>` against the base table's
    /// indexes. The full WHERE is still applied as a residual filter, so
    /// this is purely an access-path optimization.
    fn choose_access(&self, table: TableId, where_pred: Option<&BoundExpr>) -> Access {
        let Some(pred) = where_pred else { return Access::FullScan };
        let table = self.catalog.get(table);
        let base_arity = table.schema().arity();
        let mut eq: Vec<(usize, BoundExpr)> = Vec::new();
        collect_eq_constraints(pred, base_arity, &mut eq);
        if eq.is_empty() {
            return Access::FullScan;
        }
        // Prefer the index covering the most key columns.
        let mut best: Option<(&[usize], Vec<BoundExpr>)> = None;
        for def in table.index_defs() {
            let mut exprs = Vec::with_capacity(def.key_columns.len());
            let covered = def.key_columns.iter().all(|kc| {
                if let Some((_, e)) = eq.iter().find(|(c, _)| c == kc) {
                    exprs.push(e.clone());
                    true
                } else {
                    false
                }
            });
            if covered
                && best.as_ref().is_none_or(|(cols, _)| def.key_columns.len() > cols.len())
            {
                best = Some((&def.key_columns, exprs));
            }
        }
        match best {
            Some((key_cols, key_exprs)) => Access::IndexEq { key_cols: key_cols.to_vec(), key_exprs },
            None => Access::FullScan,
        }
    }

    fn plan_insert(&self, i: &Insert) -> Result<BoundInsert> {
        let table_id = self.resolve(&i.table)?;
        let schema = self.catalog.get(table_id).schema().clone();
        // Resolve the target column positions (schema order positions).
        let positions: Vec<usize> = if i.columns.is_empty() {
            (0..schema.arity()).collect()
        } else {
            i.columns
                .iter()
                .map(|c| schema.index_of_or_err(c))
                .collect::<Result<Vec<usize>>>()?
        };
        {
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
        }
        match &i.source {
            InsertSource::Values(rows) => {
                let empty_scope = Scope { entries: Vec::new() };
                let mut templates = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != positions.len() {
                        return Err(Error::Plan(format!(
                            "INSERT expects {} values, got {}",
                            positions.len(),
                            row.len()
                        )));
                    }
                    let mut template: Vec<Option<BoundExpr>> = vec![None; schema.arity()];
                    for (expr, &pos) in row.iter().zip(&positions) {
                        let bound = bind_scalar(expr, &empty_scope)?;
                        if !bound.is_row_independent() {
                            return Err(Error::Plan(
                                "INSERT VALUES may only use literals and parameters".into(),
                            ));
                        }
                        template[pos] = Some(bound);
                    }
                    templates.push(template);
                }
                Ok(BoundInsert {
                    table: table_id,
                    row_template: templates,
                    select: None,
                    select_positions: Vec::new(),
                })
            }
            InsertSource::Select(sel) => {
                let bound = self.plan_select(sel)?;
                if bound.projections.len() != positions.len() {
                    return Err(Error::Plan(format!(
                        "INSERT SELECT arity mismatch: {} target columns, {} select outputs",
                        positions.len(),
                        bound.projections.len()
                    )));
                }
                Ok(BoundInsert {
                    table: table_id,
                    row_template: Vec::new(),
                    select: Some(Box::new(bound)),
                    select_positions: positions,
                })
            }
        }
    }

    fn plan_update(&self, u: &Update) -> Result<BoundUpdate> {
        let table_id = self.resolve(&u.table)?;
        let schema = self.catalog.get(table_id).schema().clone();
        let scope = Scope::single(&u.table.to_ascii_lowercase(), schema.clone());
        let where_pred = u.where_clause.as_ref().map(|e| bind_scalar(e, &scope)).transpose()?;
        let access = self.choose_access(table_id, where_pred.as_ref());
        let mut assignments = Vec::with_capacity(u.assignments.len());
        for (col, expr) in &u.assignments {
            let pos = schema.index_of_or_err(col)?;
            assignments.push((pos, bind_scalar(expr, &scope)?));
        }
        Ok(BoundUpdate {
            scan: BoundScan { table: table_id, access },
            assignments,
            where_pred,
        })
    }

    fn plan_delete(&self, d: &Delete) -> Result<BoundDelete> {
        let table_id = self.resolve(&d.table)?;
        let scope =
            Scope::single(&d.table.to_ascii_lowercase(), self.catalog.get(table_id).schema().clone());
        let where_pred = d.where_clause.as_ref().map(|e| bind_scalar(e, &scope)).transpose()?;
        let access = self.choose_access(table_id, where_pred.as_ref());
        Ok(BoundDelete { scan: BoundScan { table: table_id, access }, where_pred })
    }
}

/// The group index that would answer `s`, a SELECT over a table of
/// `schema`, if `s` is a shape one can answer (module docs, "GroupIndex").
/// The planner asks whether the table carries it; the engine asks which
/// ones to attach to a window.
pub fn group_index_shape(s: &BoundSelect, schema: &Schema) -> Option<GroupIndexDef> {
    if !s.grouped || !s.joins.is_empty() || s.where_pred.is_some() {
        return None;
    }
    let column = |e: &BoundExpr| match e {
        BoundExpr::Column(c) if *c < schema.arity() => Some((*c, schema.column(*c).dtype)),
        _ => None,
    };
    let mut def = GroupIndexDef { key_columns: Vec::new(), agg_columns: Vec::new() };
    for key in &s.group_by {
        match column(key)? {
            (c, DataType::Int | DataType::Text | DataType::Bool) => def.key_columns.push(c),
            _ => return None,
        }
    }
    for agg in &s.aggs {
        let Some(arg) = &agg.arg else { continue }; // COUNT(*): the group's rows
        match (agg.func, column(arg)?) {
            _ if agg.distinct => return None,
            (AggFunc::Count, (c, _)) | (AggFunc::Sum, (c, DataType::Int)) => def.agg_columns.push(c),
            _ => return None,
        }
    }
    def.agg_columns.sort_unstable();
    def.agg_columns.dedup();
    Some(def)
}

fn default_name(expr: &Expr, i: usize) -> String {
    match expr {
        Expr::Column(c) => c.column.clone(),
        _ => format!("col{i}"),
    }
}

/// Folds an expression whose operands are all literals into a single
/// literal (e.g. `x > 2 + 3` binds as `x > 5`). The binders apply this
/// to every node they build, so constant subtrees collapse bottom-up.
/// Expressions that would raise a runtime error (`1 / 0`) are left
/// unfolded: the executor only evaluates predicates for rows that
/// exist, so the error must stay a runtime one.
fn fold(e: BoundExpr) -> BoundExpr {
    fn lit(e: &BoundExpr) -> bool {
        matches!(e, BoundExpr::Literal(_))
    }
    let foldable = match &e {
        BoundExpr::Binary { lhs, rhs, .. } => lit(lhs) && lit(rhs),
        BoundExpr::Neg(x) | BoundExpr::Not(x) | BoundExpr::Abs(x) => lit(x),
        BoundExpr::IsNull { expr, .. } => lit(expr),
        BoundExpr::Between { expr, lo, hi, .. } => lit(expr) && lit(lo) && lit(hi),
        BoundExpr::InList { expr, list, .. } => lit(expr) && list.iter().all(lit),
        _ => false,
    };
    if !foldable {
        return e;
    }
    let ctx = EvalCtx { row: &[], params: &[], aggs: &[] };
    match e.eval(&ctx) {
        Ok(v) => BoundExpr::Literal(v),
        Err(_) => e,
    }
}

/// Binds a scalar (non-aggregate) expression against a scope, constant-
/// folding literal-only subexpressions as it goes.
fn bind_scalar(expr: &Expr, scope: &Scope) -> Result<BoundExpr> {
    bind_scalar_unfolded(expr, scope).map(fold)
}

fn bind_scalar_unfolded(expr: &Expr, scope: &Scope) -> Result<BoundExpr> {
    match expr {
        Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        Expr::Param(i) => Ok(BoundExpr::Param(*i)),
        Expr::Column(c) => Ok(BoundExpr::Column(scope.resolve(c)?)),
        Expr::Binary { op, lhs, rhs } => Ok(BoundExpr::Binary {
            op: *op,
            lhs: Box::new(bind_scalar(lhs, scope)?),
            rhs: Box::new(bind_scalar(rhs, scope)?),
        }),
        Expr::Neg(e) => Ok(BoundExpr::Neg(Box::new(bind_scalar(e, scope)?))),
        Expr::Not(e) => Ok(BoundExpr::Not(Box::new(bind_scalar(e, scope)?))),
        Expr::Abs(e) => Ok(BoundExpr::Abs(Box::new(bind_scalar(e, scope)?))),
        Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
            expr: Box::new(bind_scalar(expr, scope)?),
            negated: *negated,
        }),
        Expr::InList { expr, list, negated } => Ok(BoundExpr::InList {
            expr: Box::new(bind_scalar(expr, scope)?),
            list: list.iter().map(|e| bind_scalar(e, scope)).collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Between { expr, lo, hi, negated } => Ok(BoundExpr::Between {
            expr: Box::new(bind_scalar(expr, scope)?),
            lo: Box::new(bind_scalar(lo, scope)?),
            hi: Box::new(bind_scalar(hi, scope)?),
            negated: *negated,
        }),
        Expr::Aggregate { .. } => {
            Err(Error::Plan("aggregate not allowed in this context".into()))
        }
    }
}

/// Binds an expression of a grouped query into the post-aggregation
/// space: group-key subexpressions become `Column(key index)`, aggregate
/// calls become `AggRef`, anything else touching a raw column is an
/// error.
fn bind_grouped(
    expr: &Expr,
    group_by: &[Expr],
    scope: &Scope,
    aggs: &mut Vec<AggSpec>,
) -> Result<BoundExpr> {
    bind_grouped_unfolded(expr, group_by, scope, aggs).map(fold)
}

fn bind_grouped_unfolded(
    expr: &Expr,
    group_by: &[Expr],
    scope: &Scope,
    aggs: &mut Vec<AggSpec>,
) -> Result<BoundExpr> {
    // Whole-expression match against a group key wins first.
    if let Some(pos) = group_by.iter().position(|g| g.identical(expr)) {
        return Ok(BoundExpr::Column(pos));
    }
    match expr {
        Expr::Literal(v) => Ok(BoundExpr::Literal(v.clone())),
        Expr::Param(i) => Ok(BoundExpr::Param(*i)),
        Expr::Column(c) => Err(Error::Plan(format!(
            "column {} must appear in GROUP BY or inside an aggregate",
            c.column
        ))),
        Expr::Aggregate { func, arg, distinct } => {
            let bound_arg = arg.as_ref().map(|a| bind_scalar(a, scope)).transpose()?;
            let spec = AggSpec { func: *func, arg: bound_arg, distinct: *distinct };
            let idx = match aggs.iter().position(|a| a.identical(&spec)) {
                Some(i) => i,
                None => {
                    aggs.push(spec);
                    aggs.len() - 1
                }
            };
            Ok(BoundExpr::AggRef(idx))
        }
        Expr::Binary { op, lhs, rhs } => Ok(BoundExpr::Binary {
            op: *op,
            lhs: Box::new(bind_grouped(lhs, group_by, scope, aggs)?),
            rhs: Box::new(bind_grouped(rhs, group_by, scope, aggs)?),
        }),
        Expr::Neg(e) => Ok(BoundExpr::Neg(Box::new(bind_grouped(e, group_by, scope, aggs)?))),
        Expr::Not(e) => Ok(BoundExpr::Not(Box::new(bind_grouped(e, group_by, scope, aggs)?))),
        Expr::Abs(e) => Ok(BoundExpr::Abs(Box::new(bind_grouped(e, group_by, scope, aggs)?))),
        Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
            expr: Box::new(bind_grouped(expr, group_by, scope, aggs)?),
            negated: *negated,
        }),
        Expr::InList { expr, list, negated } => Ok(BoundExpr::InList {
            expr: Box::new(bind_grouped(expr, group_by, scope, aggs)?),
            list: list
                .iter()
                .map(|e| bind_grouped(e, group_by, scope, aggs))
                .collect::<Result<_>>()?,
            negated: *negated,
        }),
        Expr::Between { expr, lo, hi, negated } => Ok(BoundExpr::Between {
            expr: Box::new(bind_grouped(expr, group_by, scope, aggs)?),
            lo: Box::new(bind_grouped(lo, group_by, scope, aggs)?),
            hi: Box::new(bind_grouped(hi, group_by, scope, aggs)?),
            negated: *negated,
        }),
    }
}

/// Walks top-level AND conjuncts collecting `Column(c) = row-independent`
/// constraints for columns of the base table (positions < `base_arity`).
fn collect_eq_constraints(pred: &BoundExpr, base_arity: usize, out: &mut Vec<(usize, BoundExpr)>) {
    match pred {
        BoundExpr::Binary { op: BinOp::And, lhs, rhs } => {
            collect_eq_constraints(lhs, base_arity, out);
            collect_eq_constraints(rhs, base_arity, out);
        }
        BoundExpr::Binary { op: BinOp::Eq, lhs, rhs } => {
            match (&**lhs, &**rhs) {
                (BoundExpr::Column(c), e) if *c < base_arity && e.is_row_independent() => {
                    out.push((*c, e.clone()));
                }
                (e, BoundExpr::Column(c)) if *c < base_arity && e.is_row_independent() => {
                    out.push((*c, e.clone()));
                }
                _ => {}
            }
        }
        _ => {}
    }
}

/// Extracts hash-join key pairs from an ON predicate: top-level AND
/// conjuncts of shape `left_col = right_col` where the two sides fall on
/// opposite sides of the prefix/right boundary.
fn extract_equi_pairs(on: &BoundExpr, prefix_arity: usize, right_arity: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    fn walk(e: &BoundExpr, prefix: usize, right: usize, out: &mut Vec<(usize, usize)>) {
        match e {
            BoundExpr::Binary { op: BinOp::And, lhs, rhs } => {
                walk(lhs, prefix, right, out);
                walk(rhs, prefix, right, out);
            }
            BoundExpr::Binary { op: BinOp::Eq, lhs, rhs } => {
                if let (BoundExpr::Column(a), BoundExpr::Column(b)) = (&**lhs, &**rhs) {
                    let (a, b) = (*a, *b);
                    if a < prefix && b >= prefix && b < prefix + right {
                        out.push((a, b - prefix));
                    } else if b < prefix && a >= prefix && a < prefix + right {
                        out.push((b, a - prefix));
                    }
                }
            }
            _ => {}
        }
    }
    walk(on, prefix_arity, right_arity, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{DataType, Value};
    use sstore_storage::index::IndexDef;
    use sstore_storage::{IndexKind, TableKind};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = c
            .create_table(
                "votes",
                TableKind::Base,
                Schema::of(&[
                    ("phone", DataType::Int),
                    ("contestant", DataType::Int),
                    ("ts", DataType::Int),
                ]),
            )
            .unwrap();
        t.create_index(IndexDef {
            name: "by_phone".into(),
            key_columns: vec![0],
            kind: IndexKind::Hash,
            unique: true,
        })
        .unwrap();
        c.create_table(
            "contestants",
            TableKind::Base,
            Schema::of(&[("id", DataType::Int), ("name", DataType::Text)]),
        )
        .unwrap();
        c
    }

    fn plan(sql: &str) -> BoundStatement {
        let c = catalog();
        Planner::new(&c).plan_sql(sql).unwrap()
    }

    fn plan_err(sql: &str) -> Error {
        let c = catalog();
        Planner::new(&c).plan_sql(sql).unwrap_err()
    }

    #[test]
    fn index_access_chosen_for_eq_on_indexed_column() {
        match plan("SELECT * FROM votes WHERE phone = ?") {
            BoundStatement::Select(s) => {
                assert!(matches!(s.from.access, Access::IndexEq { ref key_cols, .. } if key_cols == &[0]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_scan_without_usable_index() {
        match plan("SELECT * FROM votes WHERE contestant = 3") {
            BoundStatement::Select(s) => assert_eq!(s.from.access, Access::FullScan),
            other => panic!("{other:?}"),
        }
        match plan("SELECT * FROM votes WHERE phone > 3") {
            BoundStatement::Select(s) => assert_eq!(s.from.access, Access::FullScan),
            other => panic!("{other:?}"),
        }
        // col = col is not row-independent: no index probe.
        match plan("SELECT * FROM votes WHERE phone = contestant") {
            BoundStatement::Select(s) => assert_eq!(s.from.access, Access::FullScan),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_not_used_under_or() {
        match plan("SELECT * FROM votes WHERE phone = 1 OR contestant = 2") {
            BoundStatement::Select(s) => assert_eq!(s.from.access, Access::FullScan),
            other => panic!("{other:?}"),
        }
    }

    /// `scores(player, score, region)` with a B-tree on `(score,
    /// player)`, a hash index on `region`, and a B-tree on `region`
    /// declared after it.
    fn scores() -> Catalog {
        let mut c = catalog();
        let t = c
            .create_table(
                "scores",
                TableKind::Base,
                Schema::of(&[
                    ("player", DataType::Int),
                    ("score", DataType::Int),
                    ("region", DataType::Int),
                ]),
            )
            .unwrap();
        for (name, key_columns, kind) in [
            ("by_score", vec![1, 0], IndexKind::BTree),
            ("region_hash", vec![2], IndexKind::Hash),
            ("region_tree", vec![2], IndexKind::BTree),
        ] {
            t.create_index(IndexDef { name: name.into(), key_columns, kind, unique: false }).unwrap();
        }
        c
    }

    fn access(c: &Catalog, sql: &str) -> Access {
        match Planner::new(c).plan_sql(sql).unwrap() {
            BoundStatement::Select(s) => s.from.access,
            BoundStatement::Insert(i) => i.select.expect("INSERT … SELECT").from.access,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ordered_walk_chosen_for_order_by_index_prefix_with_limit() {
        let c = scores();
        let walk = |index: &str, prefix_len, reverse| Access::IndexOrder {
            index: index.into(),
            prefix_len,
            reverse,
        };
        for (sql, want) in [
            ("SELECT player FROM scores ORDER BY score LIMIT 3", walk("by_score", 1, false)),
            ("SELECT * FROM scores ORDER BY score DESC LIMIT 1", walk("by_score", 1, true)),
            ("SELECT 'top', player FROM scores ORDER BY score, player LIMIT 0", walk("by_score", 2, false)),
            (
                "SELECT player FROM scores ORDER BY score DESC, player DESC LIMIT 3",
                walk("by_score", 2, true),
            ),
            // A direction change ends the prefix; the rest is the edge's.
            (
                "SELECT player FROM scores ORDER BY score DESC, player ASC LIMIT 3",
                walk("by_score", 1, true),
            ),
            // So does a key that is not the index's next column.
            (
                "SELECT player FROM scores ORDER BY score, region, player LIMIT 3",
                walk("by_score", 1, false),
            ),
            // The hash index on the same column is no use; the B-tree is.
            ("SELECT player FROM scores ORDER BY region LIMIT 2", walk("region_tree", 1, false)),
            // By alias, and as the source of an INSERT.
            ("SELECT score AS s FROM scores ORDER BY s LIMIT 2", walk("by_score", 1, false)),
            (
                "INSERT INTO contestants (id, name) SELECT player, 'x' FROM scores \
                 ORDER BY score DESC, player LIMIT 3",
                walk("by_score", 1, true),
            ),
        ] {
            assert_eq!(access(&c, sql), want, "{sql}");
        }
    }

    #[test]
    fn ordered_walk_refused_for_every_shape_outside_the_rule() {
        let c = scores();
        for sql in [
            // No LIMIT: every row is returned anyway.
            "SELECT player FROM scores ORDER BY score",
            // No ORDER BY.
            "SELECT player FROM scores LIMIT 3",
            // Grouped, explicitly and implicitly.
            "SELECT score, COUNT(*) FROM scores GROUP BY score ORDER BY score LIMIT 3",
            "SELECT MAX(score) FROM scores ORDER BY MAX(score) LIMIT 1",
            // A join.
            "SELECT s.player FROM scores s JOIN contestants c ON s.player = c.id \
             ORDER BY s.score LIMIT 3",
            // A key that is an expression, leading or trailing.
            "SELECT player FROM scores ORDER BY score + 1 LIMIT 3",
            "SELECT player FROM scores ORDER BY score, player + 1 LIMIT 3",
            // The first key is not an index's first column.
            "SELECT player FROM scores ORDER BY player LIMIT 3",
            "SELECT player FROM scores ORDER BY player, score LIMIT 3",
            // A projection that can fail on a row the walk would skip.
            "SELECT score / player FROM scores ORDER BY score LIMIT 3",
            "SELECT ? FROM scores ORDER BY score LIMIT 3",
            // Any WHERE: infallibility is not proven, so none is assumed.
            "SELECT player FROM scores WHERE region = 1 ORDER BY score LIMIT 3",
            "SELECT player FROM scores WHERE score > 0 ORDER BY score LIMIT 3",
            // Only a hash index on the key.
            "SELECT phone FROM votes ORDER BY phone LIMIT 3",
        ] {
            assert!(!matches!(access(&c, sql), Access::IndexOrder { .. }), "{sql}");
        }
        // UPDATE and DELETE never walk.
        match Planner::new(&c).plan_sql("DELETE FROM scores").unwrap() {
            BoundStatement::Delete(d) => assert_eq!(d.scan.access, Access::FullScan),
            other => panic!("{other:?}"),
        }
    }

    /// `w(a Int, b Int, f Float, s Text, ok Bool)` carrying group
    /// indexes for `GROUP BY a` (alone, and tracking `b`), `GROUP BY s,
    /// ok` tracking `a` and `f`, and the zero-key index tracking `b`.
    fn grouped() -> Catalog {
        let mut c = catalog();
        let t = c
            .create_table(
                "w",
                TableKind::Window,
                Schema::of(&[
                    ("a", DataType::Int),
                    ("b", DataType::Int),
                    ("f", DataType::Float),
                    ("s", DataType::Text),
                    ("ok", DataType::Bool),
                ]),
            )
            .unwrap();
        for (key_columns, agg_columns) in
            [(vec![0], vec![]), (vec![0], vec![1]), (vec![3, 4], vec![0, 2]), (vec![], vec![1])]
        {
            t.create_group_index(GroupIndexDef { key_columns, agg_columns }).unwrap();
        }
        c
    }

    #[test]
    fn group_index_chosen_for_every_shape_it_can_answer() {
        let c = grouped();
        let read = |key_columns: &[usize], agg_columns: &[usize]| {
            Access::GroupIndex(GroupIndexDef {
                key_columns: key_columns.to_vec(),
                agg_columns: agg_columns.to_vec(),
            })
        };
        for (sql, want) in [
            ("SELECT a, COUNT(*) FROM w GROUP BY a", read(&[0], &[])),
            ("SELECT a FROM w GROUP BY a", read(&[0], &[])),
            // HAVING, ORDER BY, LIMIT and computed outputs are the edge's.
            (
                "SELECT 'trend', a, COUNT(*) * 2 FROM w GROUP BY a HAVING COUNT(*) > ? \
                 ORDER BY COUNT(*) DESC, a LIMIT 3",
                read(&[0], &[]),
            ),
            ("SELECT a, SUM(b), COUNT(b), COUNT(*) FROM w GROUP BY a", read(&[0], &[1])),
            ("SELECT a, COUNT(b) FROM w GROUP BY a ORDER BY SUM(b)", read(&[0], &[1])),
            // Text and Bool keys; COUNT over a Float column counts non-NULLs.
            ("SELECT s, ok, SUM(a), COUNT(f) FROM w GROUP BY s, ok", read(&[3, 4], &[0, 2])),
            // No GROUP BY at all: the zero-key index.
            ("SELECT SUM(b), COUNT(*) FROM w", read(&[], &[1])),
            // As the source of an INSERT.
            (
                "INSERT INTO contestants (id, name) SELECT a, 'x' FROM w GROUP BY a LIMIT 1",
                read(&[0], &[]),
            ),
        ] {
            assert_eq!(access(&c, sql), want, "{sql}");
        }
    }

    #[test]
    fn group_index_refused_for_every_shape_outside_the_rule() {
        let c = grouped();
        for sql in [
            // Any WHERE: the index counts every row.
            "SELECT a, COUNT(*) FROM w WHERE b > 0 GROUP BY a",
            "SELECT SUM(b) FROM w WHERE a = 1",
            // A join.
            "SELECT w.a, COUNT(*) FROM w JOIN contestants c ON w.a = c.id GROUP BY w.a",
            // An expression key; a Float key (1.0 and an Int 1 would share a group).
            "SELECT a % 2, COUNT(*) FROM w GROUP BY a % 2",
            "SELECT f, COUNT(*) FROM w GROUP BY f",
            // Aggregates that cannot be taken back when a row leaves, or
            // whose result depends on the order rows were added in.
            "SELECT a, MIN(b) FROM w GROUP BY a",
            "SELECT a, MAX(b), COUNT(*) FROM w GROUP BY a",
            "SELECT a, AVG(b) FROM w GROUP BY a",
            "SELECT a, COUNT(DISTINCT b) FROM w GROUP BY a",
            "SELECT s, ok, SUM(f) FROM w GROUP BY s, ok",
            "SELECT a, SUM(b + 1) FROM w GROUP BY a",
            "SELECT a, COUNT(b + 1) FROM w GROUP BY a",
            // A shape an index could answer, but not one this table carries:
            // other keys, the same keys in another order, other columns.
            "SELECT b, COUNT(*) FROM w GROUP BY b",
            "SELECT ok, s, SUM(a), COUNT(f) FROM w GROUP BY ok, s",
            "SELECT a, SUM(b), COUNT(s) FROM w GROUP BY a",
            "SELECT s, ok, SUM(a) FROM w GROUP BY s, ok",
            "SELECT COUNT(*) FROM w",
            // Not grouped at all.
            "SELECT a FROM w ORDER BY a LIMIT 3",
        ] {
            assert_eq!(access(&c, sql), Access::FullScan, "{sql}");
        }
        // The same statements over a table with no group index scan.
        assert_eq!(access(&c, "SELECT contestant, COUNT(*) FROM votes GROUP BY contestant"), Access::FullScan);
    }

    #[test]
    fn wildcard_expands_in_scope_order() {
        match plan("SELECT * FROM votes JOIN contestants ON votes.contestant = contestants.id") {
            BoundStatement::Select(s) => {
                assert_eq!(s.output_names, vec!["phone", "contestant", "ts", "id", "name"]);
                assert_eq!(s.input_arity, 5);
                assert_eq!(s.joins[0].equi, vec![(1, 0)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ambiguous_and_unknown_columns_error() {
        let c = catalog();
        let p = Planner::new(&c);
        assert!(matches!(
            p.plan_sql("SELECT nosuch FROM votes"),
            Err(Error::Plan(_))
        ));
        // "id" exists only in contestants — fine; "contestant" in votes only — fine;
        // make an ambiguous one via self-join aliases.
        assert!(matches!(
            p.plan_sql("SELECT phone FROM votes a JOIN votes b ON a.phone = b.phone"),
            Err(Error::Plan(_))
        ));
    }

    #[test]
    fn grouped_query_shapes() {
        match plan(
            "SELECT contestant, COUNT(*) AS n FROM votes GROUP BY contestant \
             HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 3",
        ) {
            BoundStatement::Select(s) => {
                assert!(s.grouped);
                assert_eq!(s.group_by.len(), 1);
                assert_eq!(s.aggs.len(), 1, "COUNT(*) deduplicated across SELECT/HAVING/ORDER");
                assert_eq!(s.projections, vec![BoundExpr::Column(0), BoundExpr::AggRef(0)]);
                assert!(s.having.is_some());
                assert_eq!(s.order_by.len(), 1);
                assert_eq!(s.limit, Some(3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn implicit_aggregation_without_group_by() {
        match plan("SELECT COUNT(*), MAX(ts) FROM votes") {
            BoundStatement::Select(s) => {
                assert!(s.grouped);
                assert!(s.group_by.is_empty());
                assert_eq!(s.aggs.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn naked_column_with_group_by_rejected() {
        assert!(matches!(
            plan_err("SELECT phone FROM votes GROUP BY contestant"),
            Error::Plan(_)
        ));
        assert!(matches!(
            plan_err("SELECT * FROM votes GROUP BY contestant"),
            Error::Plan(_)
        ));
    }

    #[test]
    fn having_without_group_rejected() {
        assert!(matches!(plan_err("SELECT phone FROM votes HAVING phone > 1"), Error::Plan(_)));
    }

    #[test]
    fn insert_values_planned() {
        match plan("INSERT INTO votes (phone, contestant, ts) VALUES (?, ?, ?)") {
            BoundStatement::Insert(i) => {
                assert_eq!(i.row_template.len(), 1);
                assert!(i.row_template[0].iter().all(Option::is_some));
            }
            other => panic!("{other:?}"),
        }
        // Missing columns become NULL-filled template slots.
        match plan("INSERT INTO votes (phone) VALUES (1)") {
            BoundStatement::Insert(i) => {
                assert!(i.row_template[0][0].is_some());
                assert!(i.row_template[0][1].is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_arity_and_duplicate_columns_rejected() {
        assert!(matches!(
            plan_err("INSERT INTO votes (phone, contestant) VALUES (1)"),
            Error::Plan(_)
        ));
        assert!(matches!(
            plan_err("INSERT INTO votes (phone, phone) VALUES (1, 2)"),
            Error::Plan(_)
        ));
    }

    #[test]
    fn insert_values_reject_column_refs() {
        assert!(matches!(
            plan_err("INSERT INTO votes (phone, contestant, ts) VALUES (phone, 1, 2)"),
            Error::Plan(_)
        ));
    }

    #[test]
    fn insert_select_planned() {
        match plan("INSERT INTO contestants (id, name) SELECT contestant, 'x' FROM votes") {
            BoundStatement::Insert(i) => {
                assert!(i.select.is_some());
                assert_eq!(i.select_positions, vec![0, 1]);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            plan_err("INSERT INTO contestants (id) SELECT contestant, ts FROM votes"),
            Error::Plan(_)
        ));
    }

    #[test]
    fn update_delete_use_index_paths() {
        match plan("UPDATE votes SET ts = ts + 1 WHERE phone = ?") {
            BoundStatement::Update(u) => {
                assert!(matches!(u.scan.access, Access::IndexEq { .. }));
                assert_eq!(u.assignments[0].0, 2);
            }
            other => panic!("{other:?}"),
        }
        match plan("DELETE FROM votes WHERE phone = 5") {
            BoundStatement::Delete(d) => {
                assert!(matches!(d.scan.access, Access::IndexEq { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_table_errors() {
        assert!(matches!(plan_err("SELECT * FROM missing"), Error::NotFound { .. }));
    }

    #[test]
    fn is_mutation_classifies() {
        assert!(!plan("SELECT * FROM votes").is_mutation());
        assert!(plan("DELETE FROM votes").is_mutation());
    }

    #[test]
    fn constant_subexpressions_fold_at_bind_time() {
        match plan("SELECT * FROM votes WHERE contestant > 2 + 3") {
            BoundStatement::Select(s) => {
                assert_eq!(
                    s.where_pred,
                    Some(BoundExpr::Binary {
                        op: BinOp::Gt,
                        lhs: Box::new(BoundExpr::Column(1)),
                        rhs: Box::new(BoundExpr::Literal(Value::Int(5))),
                    })
                );
            }
            other => panic!("{other:?}"),
        }
        // Nested constants collapse bottom-up, including under NOT and
        // in grouped (HAVING) binding.
        match plan("SELECT contestant, COUNT(*) FROM votes GROUP BY contestant HAVING COUNT(*) > 10 - 2 * 3") {
            BoundStatement::Select(s) => {
                assert_eq!(
                    s.having,
                    Some(BoundExpr::Binary {
                        op: BinOp::Gt,
                        lhs: Box::new(BoundExpr::AggRef(0)),
                        rhs: Box::new(BoundExpr::Literal(Value::Int(4))),
                    })
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn folding_enables_index_access_and_keeps_errors_runtime() {
        // A folded key expression is row-independent and literal, so the
        // planner can still pick the index point lookup.
        match plan("SELECT * FROM votes WHERE phone = 2 + 3") {
            BoundStatement::Select(s) => {
                assert!(matches!(s.from.access, Access::IndexEq { .. }));
            }
            other => panic!("{other:?}"),
        }
        // `1 / 0` must stay a runtime error, not a plan-time one.
        match plan("SELECT * FROM votes WHERE contestant > 1 / 0") {
            BoundStatement::Select(s) => {
                assert!(matches!(
                    s.where_pred,
                    Some(BoundExpr::Binary { op: BinOp::Gt, .. })
                ));
                match s.where_pred {
                    Some(BoundExpr::Binary { rhs, .. }) => {
                        assert!(matches!(*rhs, BoundExpr::Binary { op: BinOp::Div, .. }));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
        // Params are row-independent but unknown at bind time: unfolded.
        match plan("SELECT * FROM votes WHERE contestant > ? + 1") {
            BoundStatement::Select(s) => {
                match s.where_pred {
                    Some(BoundExpr::Binary { rhs, .. }) => {
                        assert!(matches!(*rhs, BoundExpr::Binary { op: BinOp::Add, .. }));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }
}
