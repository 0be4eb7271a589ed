//! Bound-statement execution against a [`Catalog`].
//!
//! [`execute`] is the single entry point. Every physical mutation it
//! performs is appended to the caller's [`Effect`] list *in execution
//! order*; the engine's transaction layer undoes an aborted transaction
//! by replaying those effects in reverse. A statement that fails midway
//! leaves its partial effects in the list — the transaction layer rolls
//! them back, which is exactly H-Store's semantics (a failed SQL
//! statement aborts the surrounding transaction).
//!
//! Determinism: scans iterate in row-id order (an ordered index walk
//! feeds rows run by run, in row-id order within a run, which the edge's
//! contract allows) and the SELECT output edge
//! (`edge.rs`, shared with the columnar executor; its module docs
//! state the ordering contract) emits groups in ascending key order and
//! breaks ORDER BY ties by arrival, so identical inputs produce identical
//! outputs — a prerequisite for command-log replay producing identical
//! state (§3.2.5).

use std::borrow::Cow;

use sstore_common::hash::FxHashMap;

use sstore_common::{Result, RowId, TableId, Tuple, Value};
use sstore_storage::{Catalog, GroupAcc, GroupIndexDef, Table};

use crate::ast::AggFunc;
use crate::edge::{Edge, Groups};
use crate::expr::{BoundExpr, EvalCtx};
use crate::plan::{Access, BoundInsert, BoundScan, BoundSelect, BoundStatement};

/// One physical mutation performed by a statement.
///
/// Effects identify their table by [`TableId`] and carry shared-buffer
/// [`Tuple`]s, so recording one is allocation-free (ids are `Copy`;
/// tuple clones are refcount bumps).
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// A row was inserted.
    Insert {
        /// Target table.
        table: TableId,
        /// Id the new row received.
        row: RowId,
    },
    /// A row was deleted.
    Delete {
        /// Target table.
        table: TableId,
        /// Id the row had.
        row: RowId,
        /// The deleted tuple (needed to restore on undo).
        tuple: Tuple,
    },
    /// A row was updated in place.
    Update {
        /// Target table.
        table: TableId,
        /// Row id.
        row: RowId,
        /// Pre-image (needed to restore on undo).
        old: Tuple,
    },
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names (SELECT only).
    pub columns: Vec<String>,
    /// Output rows (SELECT only).
    pub rows: Vec<Tuple>,
    /// Rows inserted/updated/deleted (mutations only).
    pub rows_affected: usize,
}

impl QueryResult {
    /// First row, first column — convenience for scalar queries.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().map(|r| r.get(0))
    }

    /// First column of every row as i64s — convenience for tests.
    pub fn int_column(&self, idx: usize) -> Result<Vec<i64>> {
        self.rows.iter().map(|r| r.get(idx).as_int()).collect()
    }
}

/// Executes a bound statement. Mutations are appended to `effects`.
pub fn execute(
    catalog: &mut Catalog,
    stmt: &BoundStatement,
    params: &[Value],
    effects: &mut Vec<Effect>,
) -> Result<QueryResult> {
    match stmt {
        BoundStatement::Select(s) => {
            refresh_for_read(catalog, s);
            run_select(catalog, s, params)
        }
        BoundStatement::Insert(i) => {
            let rows = insert_rows(catalog, i, params)?;
            let table = catalog.get_mut(i.table);
            let mut n = 0;
            for tuple in rows {
                let id = table.insert(tuple)?;
                effects.push(Effect::Insert { table: i.table, row: id });
                n += 1;
            }
            Ok(QueryResult { rows_affected: n, ..QueryResult::default() })
        }
        BoundStatement::Update(u) => {
            let table = catalog.get_mut(u.scan.table);
            let ids = candidate_rows(table, &u.scan, u.where_pred.as_ref(), params)?;
            // Compute all new tuples from pre-images first, then apply:
            // assignments see a consistent snapshot even if the statement
            // touches the columns it reads.
            let mut updates: Vec<(RowId, Tuple)> = Vec::with_capacity(ids.len());
            for id in ids {
                let old = table.get(id).expect("candidate row is live");
                let ctx = EvalCtx { row: old.values(), params, aggs: &[] };
                // The one unavoidable copy: UPDATE actually rewrites the
                // row, so materialize the new image from the pre-image.
                let mut new_values = old.values().to_vec();
                for (pos, expr) in &u.assignments {
                    new_values[*pos] = expr.eval(&ctx)?;
                }
                updates.push((id, Tuple::new(new_values)));
            }
            let mut n = 0;
            for (id, new) in updates {
                let old = table.update(id, new)?;
                effects.push(Effect::Update { table: u.scan.table, row: id, old });
                n += 1;
            }
            Ok(QueryResult { rows_affected: n, ..QueryResult::default() })
        }
        BoundStatement::Delete(d) => {
            let table = catalog.get_mut(d.scan.table);
            let ids = candidate_rows(table, &d.scan, d.where_pred.as_ref(), params)?;
            let mut n = 0;
            for id in ids {
                let tuple = table.delete(id)?;
                effects.push(Effect::Delete { table: d.scan.table, row: id, tuple });
                n += 1;
            }
            Ok(QueryResult { rows_affected: n, ..QueryResult::default() })
        }
    }
}

/// A statement about to read a group index tells it so: that is how
/// the index learns how often it is read (`storage::group`).
fn refresh_for_read(catalog: &mut Catalog, s: &BoundSelect) {
    if let Access::GroupIndex(def) = &s.from.access {
        catalog.get_mut(s.from.table).refresh_group_index(def);
    }
}

/// The rows an `INSERT` would insert, in order, each a full row of the
/// target's schema: its `VALUES` templates evaluated, or its `SELECT`
/// run and spread over the named columns. Nothing is written and no row
/// is checked against the schema yet — [`Table::insert`] does that for
/// [`execute`]; a caller that puts the rows somewhere else validates
/// them as it would.
pub fn insert_rows(catalog: &mut Catalog, i: &BoundInsert, params: &[Value]) -> Result<Vec<Tuple>> {
    let mut rows: Vec<Tuple> = Vec::new();
    if let Some(sel) = &i.select {
        refresh_for_read(catalog, sel);
        let schema_arity = catalog.get(i.table).schema().arity();
        // A SELECT that fills every column in schema order has
        // already built the row to insert.
        let whole_row = i.select_positions.iter().copied().eq(0..schema_arity);
        for out in run_select_rows(catalog, sel, params)? {
            rows.push(if whole_row {
                out
            } else {
                // Each target column takes the last output column that
                // names it, or NULL; values are moved, not cloned.
                let mut out = out.into_values();
                let named = |c| i.select_positions.iter().rposition(|&pos| pos == c);
                (0..schema_arity).map(|c| named(c).map_or(Value::Null, |k| std::mem::replace(&mut out[k], Value::Null))).collect()
            });
        }
    } else {
        let ctx = EvalCtx { row: &[], params, aggs: &[] };
        for template in &i.row_template {
            rows.push(Tuple::try_collect(template.iter().map(|slot| match slot {
                Some(e) => e.eval(&ctx),
                None => Ok(Value::Null),
            }))?);
        }
    }
    Ok(rows)
}

/// Applies one effect in reverse — the undo primitive used by the
/// engine's transaction rollback.
pub fn undo_effect(catalog: &mut Catalog, effect: &Effect) -> Result<()> {
    match effect {
        Effect::Insert { table, row } => {
            catalog.get_mut(*table).delete(*row)?;
        }
        Effect::Delete { table, row, tuple } => {
            catalog.get_mut(*table).insert_with_id(*row, tuple.clone())?;
        }
        Effect::Update { table, row, old } => {
            catalog.get_mut(*table).update(*row, old.clone())?;
        }
    }
    Ok(())
}

/// Evaluates an index point-lookup key. `None` means some key expression
/// errored: the caller must degrade to a full scan so the error surfaces
/// (or not) exactly as it would without the index — the erroring
/// conjunct is still in the residual WHERE and fires per candidate row,
/// so an empty table yields zero rows instead of a spurious error.
fn eval_index_key(key_exprs: &[BoundExpr], params: &[Value]) -> Option<Vec<Value>> {
    let ctx = EvalCtx { row: &[], params, aggs: &[] };
    let mut key = Vec::with_capacity(key_exprs.len());
    for e in key_exprs {
        key.push(e.eval(&ctx).ok()?);
    }
    Some(key)
}

/// Row ids matched by a scan's access path plus residual predicate, in
/// row-id order (deterministic).
fn candidate_rows(
    table: &Table,
    scan: &BoundScan,
    residual: Option<&BoundExpr>,
    params: &[Value],
) -> Result<Vec<RowId>> {
    // Index postings are in row-id order already.
    let all = || table.scan_ordered().map(|(id, _)| id).collect();
    let mut ids: Vec<RowId> = match &scan.access {
        Access::IndexEq { key_cols, key_exprs } => match eval_index_key(key_exprs, params) {
            Some(key) => table.lookup_eq(key_cols, &key),
            None => all(),
        },
        Access::FullScan | Access::IndexOrder { .. } | Access::GroupIndex(_) => all(),
    };
    if let Some(pred) = residual {
        let mut kept = Vec::with_capacity(ids.len());
        for id in ids {
            let row = table.get(id).expect("candidate row is live");
            let ctx = EvalCtx { row: row.values(), params, aggs: &[] };
            if pred.eval_predicate(&ctx)? {
                kept.push(id);
            }
        }
        ids = kept;
    }
    Ok(ids)
}

/// Runs a bound SELECT.
///
/// The row pipeline operates on borrowed rows (`Cow<[Value]>`): a scan
/// borrows each live tuple's value slice directly from the table, so a
/// SELECT over N rows performs zero per-row clones. Owned rows appear
/// only where a join genuinely materializes a concatenation.
pub fn run_select(catalog: &Catalog, s: &BoundSelect, params: &[Value]) -> Result<QueryResult> {
    let rows = run_select_rows(catalog, s, params)?;
    Ok(QueryResult { columns: s.output_names.clone(), rows, rows_affected: 0 })
}

/// Like [`run_select`] but returns only the rows — used where output
/// column names are not needed (INSERT ... SELECT, EE triggers), saving
/// the per-execution name clone.
///
/// A statement planned to read a group index does, if the index can
/// answer ([`read_group_index`]). Otherwise single-table full scans
/// dispatch to the vectorized columnar executor ([`crate::vexec`]);
/// joins, index point lookups and ordered index walks run the
/// row-at-a-time pipeline.
/// All produce bit-identical results.
pub fn run_select_rows(catalog: &Catalog, s: &BoundSelect, params: &[Value]) -> Result<Vec<Tuple>> {
    if let Access::GroupIndex(def) = &s.from.access {
        if let Some(rows) = read_group_index(catalog.get(s.from.table), s, params, def) {
            return rows;
        }
    }
    if crate::vexec::use_columnar(catalog, s) {
        return crate::vexec::run_select_columnar(catalog, s, params);
    }
    run_select_rows_rowwise(catalog, s, params)
}

/// The row-at-a-time SELECT pipeline. Public as the differential-test
/// oracle for the columnar executor; normal callers go through
/// [`run_select_rows`], which dispatches between the two. Scan, joins and
/// WHERE are its own; grouping, ORDER BY and LIMIT are `edge.rs`'s,
/// fed a row at a time.
pub fn run_select_rows_rowwise(
    catalog: &Catalog,
    s: &BoundSelect,
    params: &[Value],
) -> Result<Vec<Tuple>> {
    let base = catalog.get(s.from.table);
    if let Access::IndexOrder { index, prefix_len, reverse } = &s.from.access {
        if let Some(rows) = walk_index_order(base, s, params, index, *prefix_len, *reverse) {
            return rows;
        }
    }

    // 1. Base scan (borrowed rows; index postings are in row-id order).
    let all = || base.scan_ordered().map(|(_, t)| Cow::Borrowed(t.values())).collect();
    let mut rows: Vec<Cow<'_, [Value]>> = match &s.from.access {
        Access::IndexEq { key_cols, key_exprs } => match eval_index_key(key_exprs, params) {
            Some(key) => base
                .lookup_eq(key_cols, &key)
                .iter()
                .map(|id| Cow::Borrowed(base.get(*id).expect("indexed row is live").values()))
                .collect(),
            None => all(),
        },
        Access::FullScan | Access::IndexOrder { .. } | Access::GroupIndex(_) => all(),
    };

    // 2. Joins, left-deep. Only here do rows become owned (the
    // concatenation is a new row by construction).
    for join in &s.joins {
        let right = catalog.get(join.table);
        let right_rows: Vec<&[Value]> = right.scan_ordered().map(|(_, t)| t.values()).collect();
        let mut next: Vec<Cow<'_, [Value]>> = Vec::new();
        if join.equi.is_empty() {
            // Nested loop with full ON predicate.
            for left in &rows {
                for r in &right_rows {
                    let mut combined = Vec::with_capacity(left.len() + r.len());
                    combined.extend_from_slice(left);
                    combined.extend_from_slice(r);
                    let ctx = EvalCtx { row: &combined, params, aggs: &[] };
                    if join.on.eval_predicate(&ctx)? {
                        next.push(Cow::Owned(combined));
                    }
                }
            }
        } else {
            // Hash join on the extracted key, ON re-checked (covers
            // residual conjuncts and SQL NULL-key semantics). Keys are
            // borrowed value refs on both build and probe sides; the
            // probe buffer is reused across rows.
            let mut ht: FxHashMap<Vec<&Value>, Vec<usize>> =
                FxHashMap::with_capacity_and_hasher(right_rows.len(), Default::default());
            for (i, r) in right_rows.iter().enumerate() {
                let key: Vec<&Value> = join.equi.iter().map(|(_, rc)| &r[*rc]).collect();
                ht.entry(key).or_default().push(i);
            }
            let mut probe: Vec<&Value> = Vec::with_capacity(join.equi.len());
            for left in &rows {
                probe.clear();
                probe.extend(join.equi.iter().map(|(lc, _)| &left[*lc]));
                if let Some(matches) = ht.get(probe.as_slice()) {
                    for &i in matches {
                        let mut combined = Vec::with_capacity(left.len() + right_rows[i].len());
                        combined.extend_from_slice(left);
                        combined.extend_from_slice(right_rows[i]);
                        let ctx = EvalCtx { row: &combined, params, aggs: &[] };
                        if join.on.eval_predicate(&ctx)? {
                            next.push(Cow::Owned(combined));
                        }
                    }
                }
            }
        }
        rows = next;
    }

    // 3. WHERE (moves the surviving rows, no clones).
    if let Some(pred) = &s.where_pred {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            let ctx = EvalCtx { row: &row, params, aggs: &[] };
            if pred.eval_predicate(&ctx)? {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // 4. The output edge: grouping, ordering, limiting (`crate::edge`).
    let mut edge = Edge::new(s, params);
    if s.grouped {
        let mut groups = Groups::new(s, rows.len());
        let mut key = Vec::with_capacity(s.group_by.len());
        for row in &rows {
            let ctx = EvalCtx { row, params, aggs: &[] };
            // A bare-column key is looked up in place: no clone on a hit.
            let key: &[Value] = match s.group_by.as_slice() {
                [BoundExpr::Column(c)] if *c < row.len() => std::slice::from_ref(&row[*c]),
                exprs => {
                    key.clear();
                    for g in exprs {
                        key.push(g.eval(&ctx)?);
                    }
                    &key
                }
            };
            let slot = groups.slot_of(key);
            groups.feed_row(slot, &ctx)?;
        }
        groups.finish(&mut edge)?;
    } else {
        for row in &rows {
            edge.offer_ctx(&EvalCtx { row, params, aggs: &[] }, Some(row))?;
        }
    }
    edge.finish()
}

/// [`Access::IndexOrder`]: `ORDER BY <index prefix> … LIMIT k` by
/// walking the index instead of sorting the table. The walk goes run by
/// run — a run is the rows equal on the first `prefix_len` key columns,
/// offered to the edge in row-id order, as a scan would meet them — and
/// stops at the first run boundary where the edge is full (it fills
/// only there, a run being offered whole): every later row orders after
/// every row held, on the prefix alone. Within a run the edge decides as
/// it always does (later ORDER BY keys, then arrival), so the result is
/// the scan's. `None` if the index is gone or no longer leads with the
/// ORDER BY columns: the caller scans.
fn walk_index_order(
    base: &Table,
    s: &BoundSelect,
    params: &[Value],
    index: &str,
    prefix_len: usize,
    reverse: bool,
) -> Option<Result<Vec<Tuple>>> {
    let ix = base.index(index)?;
    let mut cursor = ix.cursor()?;
    let leads = (0..prefix_len).all(|i| {
        matches!((ix.def.key_columns.get(i), s.order_by.get(i)),
            (Some(k), Some((BoundExpr::Column(c), _))) if k == c)
    });
    if !leads {
        return None;
    }
    let mut next = || if reverse { cursor.next_back() } else { cursor.next() };
    let mut edge = Edge::new(s, params);
    let mut run: Vec<RowId> = Vec::new();
    let mut visited = 0;
    let mut entry = next();
    while let Some((key, ids)) = entry {
        if edge.is_full() {
            break;
        }
        // A run of one key is that key's postings, in id order; one of
        // several keys interleaves them.
        run.extend_from_slice(ids);
        let mut keys_in_run = 1;
        loop {
            entry = next();
            match entry {
                Some((k, more)) if k[..prefix_len] == key[..prefix_len] => {
                    run.extend_from_slice(more);
                    keys_in_run += 1;
                }
                _ => break,
            }
        }
        if keys_in_run > 1 {
            run.sort_unstable();
        }
        visited += run.len();
        for id in run.drain(..) {
            let row = base.get(id).expect("indexed row is live").values();
            if let Err(e) = edge.offer_ctx(&EvalCtx { row, params, aggs: &[] }, Some(row)) {
                return Some(Err(e));
            }
        }
    }
    base.stats().record_ordered_visits(visited);
    Some(edge.finish())
}

/// [`Access::GroupIndex`]: a grouped SELECT read off the table's group
/// index instead of folded from its rows. The index yields the groups in
/// ascending key order; each one's aggregate results are built from its
/// maintained counts and sums and offered to the edge exactly as
/// [`Groups::finish`] offers a scanned group, so HAVING, projections,
/// ORDER BY and LIMIT — and the order their errors surface in — are the
/// scan's. `None` sends the caller to the scan: the table does not carry
/// the index, or some group's summed magnitudes pass `i64::MAX`, the only
/// case where the scan's checked running SUM can overflow at some row.
fn read_group_index(
    base: &Table,
    s: &BoundSelect,
    params: &[Value],
    def: &GroupIndexDef,
) -> Option<Result<Vec<Tuple>>> {
    let current = || base.group_index(def).and_then(|ix| ix.groups());
    // Per aggregate: `None` for COUNT(*), else its column's accumulator.
    let cols: Vec<Option<usize>> = s
        .aggs
        .iter()
        .map(|a| match &a.arg {
            None => Some(None),
            Some(BoundExpr::Column(c)) => def.agg_columns.iter().position(|k| k == c).map(Some),
            Some(_) => None,
        })
        .collect::<Option<_>>()?;
    // The Σ|v| guard, over every tracked column (one only counted may
    // send a statement to the scan it did not need; none misses one).
    let fits = |acc: &GroupAcc| acc.cols.iter().all(|c| i64::try_from(c.abs).is_ok());
    if !def.agg_columns.is_empty() && !current()?.all(|(_, acc)| fits(acc)) {
        return None;
    }
    let mut edge = Edge::new(s, params);
    let mut aggs = Vec::with_capacity(cols.len());
    let mut offer = |key: &[Value], acc: &GroupAcc| {
        aggs.clear();
        aggs.extend(s.aggs.iter().zip(&cols).map(|(spec, col)| match col.map(|i| &acc.cols[i]) {
            None => Value::Int(acc.rows as i64),
            Some(c) if spec.func == AggFunc::Count => Value::Int(c.non_null as i64),
            Some(c) if c.non_null == 0 => Value::Null,
            Some(c) => Value::Int(c.sum as i64),
        }));
        edge.offer_group(key, &aggs)
    };
    let mut groups = current()?.peekable();
    // Aggregation without GROUP BY yields one group over no rows too: the
    // index holds none for it, and the scan of an empty table is free.
    if s.group_by.is_empty() && groups.peek().is_none() {
        return None;
    }
    let offered = groups.try_for_each(|(key, acc)| offer(key, acc));
    base.stats().record_group_read();
    Some(offered.and_then(|()| edge.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Planner;
    use sstore_common::{tuple, DataType, Error, Schema};
    use sstore_storage::index::IndexDef;
    use sstore_storage::{IndexKind, TableKind};

    fn setup() -> Catalog {
        let mut c = Catalog::new();
        let v = c
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
        v.create_index(IndexDef {
            name: "by_phone".into(),
            key_columns: vec![0],
            kind: IndexKind::Hash,
            unique: true,
        })
        .unwrap();
        for (p, ct, ts) in
            [(100, 1, 10), (101, 2, 11), (102, 1, 12), (103, 3, 13), (104, 1, 14), (105, 2, 15)]
        {
            v.insert(tuple![p as i64, ct as i64, ts as i64]).unwrap();
        }
        let ct = c
            .create_table(
                "contestants",
                TableKind::Base,
                Schema::of(&[("id", DataType::Int), ("name", DataType::Text)]),
            )
            .unwrap();
        for (id, name) in [(1, "alice"), (2, "bob"), (3, "carol")] {
            ct.insert(tuple![id as i64, name]).unwrap();
        }
        c
    }

    fn q(c: &mut Catalog, sql: &str, params: &[Value]) -> QueryResult {
        let stmt = Planner::new(c).plan_sql(sql).unwrap();
        let mut fx = Vec::new();
        execute(c, &stmt, params, &mut fx).unwrap()
    }

    fn q_fx(c: &mut Catalog, sql: &str, params: &[Value]) -> (QueryResult, Vec<Effect>) {
        let stmt = Planner::new(c).plan_sql(sql).unwrap();
        let mut fx = Vec::new();
        let r = execute(c, &stmt, params, &mut fx).unwrap();
        (r, fx)
    }

    #[test]
    fn point_lookup_via_index() {
        let mut c = setup();
        let r = q(&mut c, "SELECT contestant FROM votes WHERE phone = ?", &[Value::Int(102)]);
        assert_eq!(r.rows, vec![tuple![1i64]]);
        assert!(c.table("votes").unwrap().stats().index_lookups() >= 1);
    }

    #[test]
    fn filter_and_projection() {
        let mut c = setup();
        let r = q(&mut c, "SELECT phone FROM votes WHERE contestant = 1 ORDER BY phone", &[]);
        assert_eq!(r.int_column(0).unwrap(), vec![100, 102, 104]);
        assert_eq!(r.columns, vec!["phone"]);
    }

    #[test]
    fn expressions_in_select_list() {
        let mut c = setup();
        let r = q(&mut c, "SELECT phone * 2 + 1 FROM votes WHERE phone = 100", &[]);
        assert_eq!(r.rows, vec![tuple![201i64]]);
    }

    #[test]
    fn join_hash_path() {
        let mut c = setup();
        let r = q(
            &mut c,
            "SELECT name, COUNT(*) AS n FROM votes v JOIN contestants c ON v.contestant = c.id \
             GROUP BY name ORDER BY n DESC, name",
            &[],
        );
        let names: Vec<&str> = r.rows.iter().map(|t| t.get(0).as_text().unwrap()).collect();
        assert_eq!(names, vec!["alice", "bob", "carol"]);
        assert_eq!(r.rows[0].get(1), &Value::Int(3));
    }

    #[test]
    fn join_nested_loop_path() {
        let mut c = setup();
        // Non-equi join: every vote pairs with contestants of lower id.
        let r = q(
            &mut c,
            "SELECT COUNT(*) FROM votes v JOIN contestants c ON c.id < v.contestant",
            &[],
        );
        // contestant=1 rows: 0 pairs ×3 votes; =2: 1 pair ×2; =3: 2 pairs ×1 → 4.
        assert_eq!(r.scalar().unwrap(), &Value::Int(4));
    }

    #[test]
    fn group_by_with_having_and_limit() {
        let mut c = setup();
        let r = q(
            &mut c,
            "SELECT contestant, COUNT(*) AS n FROM votes GROUP BY contestant \
             HAVING COUNT(*) >= 2 ORDER BY n DESC LIMIT 1",
            &[],
        );
        assert_eq!(r.rows, vec![tuple![1i64, 3i64]]);
    }

    #[test]
    fn aggregates_full_set() {
        let mut c = setup();
        let r = q(
            &mut c,
            "SELECT COUNT(*), SUM(ts), AVG(ts), MIN(ts), MAX(ts), COUNT(DISTINCT contestant) \
             FROM votes",
            &[],
        );
        let row = &r.rows[0];
        assert_eq!(row.get(0), &Value::Int(6));
        assert_eq!(row.get(1), &Value::Int(75));
        assert_eq!(row.get(2), &Value::Float(12.5));
        assert_eq!(row.get(3), &Value::Int(10));
        assert_eq!(row.get(4), &Value::Int(15));
        assert_eq!(row.get(5), &Value::Int(3));
    }

    #[test]
    fn empty_aggregate_semantics() {
        let mut c = setup();
        let r = q(&mut c, "SELECT COUNT(*), SUM(ts), MIN(ts) FROM votes WHERE phone = -1", &[]);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), &Value::Int(0));
        assert!(r.rows[0].get(1).is_null());
        assert!(r.rows[0].get(2).is_null());
        // Grouped query over empty input: zero rows.
        let r = q(
            &mut c,
            "SELECT contestant, COUNT(*) FROM votes WHERE phone = -1 GROUP BY contestant",
            &[],
        );
        assert!(r.rows.is_empty());
    }

    #[test]
    fn order_by_desc_and_stability() {
        let mut c = setup();
        let r = q(&mut c, "SELECT phone, ts FROM votes ORDER BY contestant DESC, phone ASC", &[]);
        let phones = r.int_column(0).unwrap();
        assert_eq!(phones, vec![103, 101, 105, 100, 102, 104]);
    }

    #[test]
    fn insert_records_effects() {
        let mut c = setup();
        let (r, fx) = q_fx(
            &mut c,
            "INSERT INTO votes (phone, contestant, ts) VALUES (?, ?, ?)",
            &[Value::Int(999), Value::Int(2), Value::Int(99)],
        );
        assert_eq!(r.rows_affected, 1);
        assert_eq!(fx.len(), 1);
        let votes_id = c.id_of("votes").unwrap();
        assert!(matches!(&fx[0], Effect::Insert { table, .. } if *table == votes_id));
        assert_eq!(c.table("votes").unwrap().len(), 7);
    }

    #[test]
    fn insert_select_moves_rows() {
        let mut c = setup();
        c.create_table(
            "top",
            TableKind::Base,
            Schema::of(&[("id", DataType::Int), ("cnt", DataType::Int)]),
        )
        .unwrap();
        let (r, fx) = q_fx(
            &mut c,
            "INSERT INTO top (id, cnt) SELECT contestant, COUNT(*) FROM votes GROUP BY contestant",
            &[],
        );
        assert_eq!(r.rows_affected, 3);
        assert_eq!(fx.len(), 3);
        assert_eq!(c.table("top").unwrap().len(), 3);
        // A SELECT that fills every column in schema order is inserted
        // as it stands; a partial or reordered column list is scattered
        // into a full-width row, NULL elsewhere.
        let whole = q(&mut c, "SELECT id, cnt FROM top ORDER BY id", &[]).rows;
        assert_eq!(whole, vec![tuple![1i64, 3i64], tuple![2i64, 2i64], tuple![3i64, 1i64]]);
        c.create_table(
            "wide",
            TableKind::Base,
            Schema::new(vec![
                sstore_common::Column::nullable("a", DataType::Int),
                sstore_common::Column::nullable("b", DataType::Int),
                sstore_common::Column::nullable("c", DataType::Int),
            ])
            .unwrap(),
        )
        .unwrap();
        let r = q(&mut c, "INSERT INTO wide (c, a) SELECT id, cnt FROM top WHERE id < 3", &[]);
        assert_eq!(r.rows_affected, 2);
        let rows = q(&mut c, "SELECT a, b, c FROM wide ORDER BY c", &[]).rows;
        assert_eq!(
            rows,
            vec![
                Tuple::new(vec![Value::Int(3), Value::Null, Value::Int(1)]),
                Tuple::new(vec![Value::Int(2), Value::Null, Value::Int(2)]),
            ]
        );
    }

    #[test]
    fn update_with_index_and_effects() {
        let mut c = setup();
        let (r, fx) = q_fx(
            &mut c,
            "UPDATE votes SET ts = ts + 100 WHERE phone = 100",
            &[],
        );
        assert_eq!(r.rows_affected, 1);
        match &fx[0] {
            Effect::Update { old, .. } => assert_eq!(old.get(2), &Value::Int(10)),
            other => panic!("{other:?}"),
        }
        let check = q(&mut c, "SELECT ts FROM votes WHERE phone = 100", &[]);
        assert_eq!(check.rows, vec![tuple![110i64]]);
    }

    #[test]
    fn update_swap_reads_preimage() {
        let mut c = Catalog::new();
        let t = c
            .create_table("p", TableKind::Base, Schema::of(&[("a", DataType::Int), ("b", DataType::Int)]))
            .unwrap();
        t.insert(tuple![1i64, 2i64]).unwrap();
        let r = q(&mut c, "UPDATE p SET a = b, b = a", &[]);
        assert_eq!(r.rows_affected, 1);
        let check = q(&mut c, "SELECT a, b FROM p", &[]);
        assert_eq!(check.rows, vec![tuple![2i64, 1i64]]);
    }

    #[test]
    fn delete_and_undo_roundtrip() {
        let mut c = setup();
        let before: Vec<(RowId, Tuple)> = c
            .table("votes")
            .unwrap()
            .scan_ordered()
            .into_iter()
            .map(|(id, t)| (id, t.clone()))
            .collect();
        let (r, fx) = q_fx(&mut c, "DELETE FROM votes WHERE contestant = 1", &[]);
        assert_eq!(r.rows_affected, 3);
        assert_eq!(c.table("votes").unwrap().len(), 3);
        // Undo in reverse restores the exact original state.
        for e in fx.iter().rev() {
            undo_effect(&mut c, e).unwrap();
        }
        let after: Vec<(RowId, Tuple)> = c
            .table("votes")
            .unwrap()
            .scan_ordered()
            .into_iter()
            .map(|(id, t)| (id, t.clone()))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn undo_of_insert_and_update() {
        let mut c = setup();
        let (_, fx1) = q_fx(
            &mut c,
            "INSERT INTO votes (phone, contestant, ts) VALUES (900, 1, 1)",
            &[],
        );
        let (_, fx2) = q_fx(&mut c, "UPDATE votes SET contestant = 2 WHERE phone = 900", &[]);
        for e in fx2.iter().rev().chain(fx1.iter().rev()) {
            undo_effect(&mut c, e).unwrap();
        }
        assert_eq!(c.table("votes").unwrap().len(), 6);
        let r = q(&mut c, "SELECT COUNT(*) FROM votes WHERE phone = 900", &[]);
        assert_eq!(r.scalar().unwrap(), &Value::Int(0));
    }

    #[test]
    fn unique_violation_surfaces() {
        let mut c = setup();
        let stmt = Planner::new(&c)
            .plan_sql("INSERT INTO votes (phone, contestant, ts) VALUES (100, 1, 1)")
            .unwrap();
        let mut fx = Vec::new();
        let err = execute(&mut c, &stmt, &[], &mut fx).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        assert!(fx.is_empty(), "failed insert leaves no effect");
    }

    #[test]
    fn in_and_between_filters() {
        let mut c = setup();
        let r = q(
            &mut c,
            "SELECT phone FROM votes WHERE contestant IN (2, 3) AND ts BETWEEN 11 AND 13 \
             ORDER BY phone",
            &[],
        );
        assert_eq!(r.int_column(0).unwrap(), vec![101, 103]);
    }

    #[test]
    fn scalar_param_binding_multi_use() {
        let mut c = setup();
        let r = q(
            &mut c,
            "SELECT COUNT(*) FROM votes WHERE contestant = ?1 OR ts = ?1",
            &[Value::Int(1)],
        );
        assert_eq!(r.scalar().unwrap(), &Value::Int(3));
    }

    #[test]
    fn deterministic_group_order_without_order_by() {
        let mut c = setup();
        let a = q(&mut c, "SELECT contestant, COUNT(*) FROM votes GROUP BY contestant", &[]);
        let b = q(&mut c, "SELECT contestant, COUNT(*) FROM votes GROUP BY contestant", &[]);
        assert_eq!(a.rows, b.rows);
        // BTreeMap grouping: keys ascend.
        assert_eq!(a.int_column(0).unwrap(), vec![1, 2, 3]);
    }
}
