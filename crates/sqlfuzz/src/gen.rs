//! Seeded random case generation.
//!
//! A [`Case`] is a set of randomly generated tables plus a list of
//! statements (AST + per-statement parameters). Statements are
//! schema-valid by construction, with two deliberate exceptions woven
//! in at low probability: type-hostile expressions whose *runtime*
//! errors must match between engine and reference (non-boolean WHERE,
//! SUM over text, division by zero, integer overflow), and outright
//! invalid statements whose *plan-time* errors must match (unknown
//! columns, aggregates outside grouping).
//!
//! Value generation is biased toward the edges where executors diverge:
//! NULL, NaN, infinities, signed zero, `i64::MIN`/`MAX`, the 2^53
//! float-precision boundary, and empty strings. Values with no SQL
//! literal form travel as parameters.
//!
//! Join ON clauses are restricted to conjunctions of column/column and
//! column/constant comparisons. Comparisons never raise in this engine,
//! which keeps the hash join (ON evaluated only on key-matched pairs)
//! and the reference's nested loop (ON evaluated on every pair)
//! observationally identical; an erroring ON would legitimately differ
//! in error *presence* between the two shapes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore_common::{Column, DataType, Schema, Value};
use sstore_sql::ast::{
    AggFunc, BinOp, ColumnRef, Delete, Expr, Insert, InsertSource, Join, OrderKey, Select,
    SelectItem, SortOrder, Statement, TableRef, Update,
};
use sstore_storage::index::IndexDef;
use sstore_storage::{GroupIndexDef, IndexKind};

use crate::render::render_stmt;

/// One generated table: schema + secondary indexes.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name (`t0`, `t1`, …).
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// Secondary indexes (the engine builds them; the reference ignores
    /// them except for unique-constraint checks).
    pub indexes: Vec<IndexDef>,
    /// Group indexes (the engine maintains them and answers matching
    /// GROUP BYs from them; the reference has never heard of them).
    pub group_indexes: Vec<GroupIndexDef>,
}

/// One statement with its bound parameters.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// The statement AST (rendered to SQL on demand).
    pub stmt: Statement,
    /// Parameter values, `?1` = index 0.
    pub params: Vec<Value>,
}

impl Stmt {
    /// The SQL text of this statement.
    pub fn sql(&self) -> String {
        render_stmt(&self.stmt)
    }
}

/// A full generated test case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Generation seed, kept for reporting.
    pub seed: u64,
    /// Tables, index-aligned with the reference database.
    pub tables: Vec<TableSpec>,
    /// Statements in execution order (population INSERTs first).
    pub stmts: Vec<Stmt>,
}

impl Case {
    /// Pretty-prints the whole case as a reproducible SQL script.
    pub fn script(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&format!("-- table {} {}", t.name, t.schema));
            for ix in &t.indexes {
                out.push_str(&format!(
                    " [{}index {} on {:?}]",
                    if ix.unique { "unique " } else { "" },
                    ix.name,
                    ix.key_columns
                ));
            }
            for def in &t.group_indexes {
                out.push_str(&format!(" [group index on {:?} tracking {:?}]", def.key_columns, def.agg_columns));
            }
            out.push('\n');
        }
        for s in &self.stmts {
            out.push_str(&s.sql());
            if !s.params.is_empty() {
                out.push_str(&format!("  -- params: {:?}", s.params));
            }
            out.push('\n');
        }
        out
    }
}

/// Short text pool: few distinct values so joins and GROUP BY collide.
const TEXTS: &[&str] = &["", "a", "b", "ab", "zz", "a b"];

/// Generates the case for `seed`. Deterministic: the same seed always
/// produces the identical case.
pub fn generate(seed: u64) -> Case {
    generate_shape(seed, false)
}

/// The large-table mode: the first table holds 1 100–2 500 rows, so its
/// scans cross the columnar batch boundary (1 024 rows) once or twice and
/// ORDER BY … LIMIT survivors, group slots and tie-breaks have to outlive
/// a batch. SELECTs all read that table, and ORDER BY with a small LIMIT
/// and GROUP BY are weighted up. It has no unique index and is populated
/// by clean multi-row INSERTs (a 50-row statement with the usual 4 % of
/// wrong-typed values would nearly always fail whole), and DELETEs keep
/// to the small tables so it stays large.
pub fn generate_large(seed: u64) -> Case {
    generate_shape(seed, true)
}

fn generate_shape(seed: u64, large: bool) -> Case {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5351_4c46_555a_5a00); // "SQLFUZZ"
    let g = &mut rng;

    let mut tables = gen_tables(g);
    if large {
        tables[0].indexes.retain(|ix| !ix.unique);
    }
    let mut stmts = Vec::new();

    // Population: the first table is big enough to clear the columnar
    // cutoff (64 rows); the rest stay small so joins don't explode.
    for (ti, _t) in tables.iter().enumerate() {
        let big = large && ti == 0;
        let rows = match ti {
            0 if large => 1100 + range(g, 1401),
            0 => 70 + range(g, 70),
            _ => range(g, 21),
        };
        let mut pending = rows;
        while pending > 0 {
            let chunk = if big {
                (32 + range(g, 33)).min(pending)
            } else {
                1 + range(g, 3).min(pending - 1)
            };
            stmts.push(gen_insert_values(g, &tables, ti, chunk, big));
            pending -= chunk;
        }
    }

    let actions = 24 + range(g, 25);
    for _ in 0..actions {
        let roll = range(g, 100);
        // Cumulative shares of SELECT, INSERT, UPDATE, DELETE; the rest
        // is invalid on purpose.
        let [sel, ins, upd, del] = if large { [75, 82, 88, 94] } else { [55, 70, 82, 94] };
        let stmt = if roll < sel {
            gen_select(g, &tables, large)
        } else if roll < ins {
            let ti = range(g, tables.len());
            if roll < sel + 3 && tables.len() > 1 {
                gen_insert_select(g, &tables, ti)
            } else {
                let n = 1 + range(g, 3);
                gen_insert_values(g, &tables, ti, n, false)
            }
        } else if roll < upd {
            gen_update(g, &tables)
        } else if roll < del {
            gen_delete(g, &tables, large)
        } else {
            gen_invalid(g, &tables)
        };
        stmts.push(stmt);
    }

    Case { seed, tables, stmts }
}

// ----------------------------------------------------------------------
// Tables
// ----------------------------------------------------------------------

fn gen_tables(g: &mut StdRng) -> Vec<TableSpec> {
    let n = 2 + range(g, 2); // 2-3 tables
    let mut tables = Vec::with_capacity(n);
    for ti in 0..n {
        let ncols = if ti == 0 { 4 + range(g, 3) } else { 2 + range(g, 3) };
        let mut cols = Vec::with_capacity(ncols);
        // c0 is always a non-nullable Int: join/index/GROUP BY anchor.
        cols.push(Column::new("c0", DataType::Int));
        for ci in 1..ncols {
            let dtype = match range(g, 10) {
                0..=3 => DataType::Int,
                4..=6 => DataType::Float,
                7..=8 => DataType::Text,
                _ => DataType::Bool,
            };
            let name = format!("c{ci}");
            cols.push(if range(g, 10) < 6 {
                Column::nullable(name, dtype)
            } else {
                Column::new(name, dtype)
            });
        }
        let schema = Schema::new(cols).expect("generated column names are unique");

        let mut indexes = Vec::new();
        if range(g, 10) < 5 {
            indexes.push(IndexDef {
                name: format!("t{ti}_pk"),
                key_columns: vec![0],
                kind: if range(g, 2) == 0 { IndexKind::Hash } else { IndexKind::BTree },
                unique: true,
            });
        }
        if ncols > 2 && range(g, 10) < 6 {
            // Hash, or a B-tree over one or two columns: the kind that
            // `ORDER BY … LIMIT` can walk (`gen_indexed_top`).
            let col = 1 + range(g, ncols - 1);
            let (kind, key_columns) = match range(g, 3) {
                0 => (IndexKind::Hash, vec![col]),
                1 => (IndexKind::BTree, vec![col]),
                _ => (IndexKind::BTree, vec![col, range(g, ncols)]),
            };
            indexes.push(IndexDef { name: format!("t{ti}_ix{col}"), key_columns, kind, unique: false });
        }
        // Two tables in three carry a group index over their first one
        // or two Int/Text/Bool columns (one in four past the first table:
        // over none), tracking up to two columns, so a GROUP BY on its keys
        // is answered from it (`gen_grouped_head`) while INSERTs, UPDATEs
        // and DELETEs churn it.
        let mut group_indexes = Vec::new();
        if range(g, 3) > 0 {
            let nkeys = if ti == 0 || range(g, 4) > 0 { 1 + range(g, 2) } else { 0 };
            let groupable = |c: &usize| schema.column(*c).dtype != DataType::Float;
            let key_columns = (0..ncols).filter(groupable).take(nkeys).collect();
            let agg_columns = (0..ncols).filter(|_| range(g, 3) == 0).take(2).collect();
            group_indexes.push(GroupIndexDef { key_columns, agg_columns });
        }
        tables.push(TableSpec { name: format!("t{ti}"), schema, indexes, group_indexes });
    }
    tables
}

// ----------------------------------------------------------------------
// Values
// ----------------------------------------------------------------------

/// A random value for a column type. `unique_hint` steers ints toward a
/// wide space so unique indexes rarely collide on population.
fn gen_value(g: &mut StdRng, dtype: DataType, nullable: bool, unique_hint: bool) -> Value {
    if nullable && range(g, 10) < 2 {
        return Value::Null;
    }
    match dtype {
        DataType::Int => {
            if unique_hint {
                // Mostly-distinct, occasionally colliding on purpose.
                if range(g, 20) == 0 {
                    Value::Int(range(g, 8) as i64)
                } else {
                    Value::Int(g.next_u64() as i64 >> 20)
                }
            } else if range(g, 10) < 6 {
                // Small range: joins and groups actually collide.
                Value::Int(range(g, 8) as i64 - 3)
            } else if range(g, 10) < 3 {
                Value::Int(Value::edge_ints()[range(g, Value::edge_ints().len())])
            } else {
                Value::Int((g.next_u64() as i64) >> range(g, 60))
            }
        }
        DataType::Float => {
            if range(g, 10) < 5 {
                Value::Float(range(g, 9) as f64 / 2.0 - 2.0)
            } else {
                Value::Float(Value::edge_floats()[range(g, Value::edge_floats().len())])
            }
        }
        DataType::Text => Value::Text(TEXTS[range(g, TEXTS.len())].to_owned()),
        DataType::Bool => Value::Bool(range(g, 2) == 0),
    }
}

/// Wraps a value as an expression: a plain literal when it has one, a
/// `Neg`-wrapped positive literal for negatable negatives, otherwise a
/// parameter (NaN, infinities, `i64::MIN`, booleans stay literal via
/// TRUE/FALSE, exotic text).
fn value_expr(g: &mut StdRng, v: Value, params: &mut Vec<Value>) -> Expr {
    // Sometimes force a parameter even when a literal exists: parameters
    // take a different path through plan caching and folding.
    if range(g, 10) < 3 {
        params.push(v);
        return Expr::Param(params.len() - 1);
    }
    match &v {
        Value::Int(i) if *i < 0 && *i != i64::MIN => {
            Expr::Neg(Box::new(Expr::Literal(Value::Int(-i))))
        }
        Value::Float(f) if f.is_sign_negative() && f.is_finite() => {
            Expr::Neg(Box::new(Expr::Literal(Value::Float(-f))))
        }
        Value::Bool(_) => Expr::Literal(v),
        _ => match v.sql_literal() {
            Some(_) => Expr::Literal(v),
            None => {
                params.push(v);
                Expr::Param(params.len() - 1)
            }
        },
    }
}

// ----------------------------------------------------------------------
// Expressions
// ----------------------------------------------------------------------

/// Everything expression generation needs to know about the name scope.
struct ExprScope<'a> {
    /// (qualifier, schema) per FROM entry, in scope order.
    entries: Vec<(&'a str, &'a Schema)>,
    /// Qualify column refs (needed when several tables are in scope).
    qualify: bool,
}

impl ExprScope<'_> {
    fn random_col(&self, g: &mut StdRng) -> (Expr, DataType) {
        let (alias, schema) = &self.entries[range(g, self.entries.len())];
        let ci = range(g, schema.arity());
        let col = schema.column(ci);
        let table = if self.qualify { Some((*alias).to_owned()) } else { None };
        (
            Expr::Column(ColumnRef { table, column: col.name.clone() }),
            col.dtype,
        )
    }

    fn random_col_of(&self, g: &mut StdRng, dtype: DataType) -> Option<Expr> {
        let mut candidates = Vec::new();
        for (alias, schema) in &self.entries {
            for c in schema.columns() {
                if c.dtype == dtype {
                    candidates.push((*alias, c.name.clone()));
                }
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let (alias, name) = candidates[range(g, candidates.len())].clone();
        let table = if self.qualify { Some(alias.to_owned()) } else { None };
        Some(Expr::Column(ColumnRef { table, column: name }))
    }
}

/// A scalar (value-producing) expression over the scope. Depth-bounded.
fn gen_scalar(g: &mut StdRng, scope: &ExprScope<'_>, params: &mut Vec<Value>, depth: usize) -> Expr {
    if depth == 0 || range(g, 10) < 4 {
        return if range(g, 10) < 6 {
            scope.random_col(g).0
        } else {
            let dtype = match range(g, 3) {
                0 => DataType::Int,
                1 => DataType::Float,
                _ => DataType::Text,
            };
            let v = gen_value(g, dtype, true, false);
            value_expr(g, v, params)
        };
    }
    match range(g, 8) {
        0..=3 => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod]
                [range(g, 5)];
            Expr::Binary {
                op,
                lhs: Box::new(gen_scalar(g, scope, params, depth - 1)),
                rhs: Box::new(gen_scalar(g, scope, params, depth - 1)),
            }
        }
        4 => Expr::Neg(Box::new(gen_scalar(g, scope, params, depth - 1))),
        5 => Expr::Abs(Box::new(gen_scalar(g, scope, params, depth - 1))),
        _ => scope.random_col(g).0,
    }
}

/// A boolean (predicate) expression over the scope. Depth-bounded.
fn gen_bool(g: &mut StdRng, scope: &ExprScope<'_>, params: &mut Vec<Value>, depth: usize) -> Expr {
    if depth == 0 {
        return gen_comparison(g, scope, params);
    }
    match range(g, 10) {
        0..=4 => gen_comparison(g, scope, params),
        5 => Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(gen_bool(g, scope, params, depth - 1)),
            rhs: Box::new(gen_bool(g, scope, params, depth - 1)),
        },
        6 => Expr::Binary {
            op: BinOp::Or,
            lhs: Box::new(gen_bool(g, scope, params, depth - 1)),
            rhs: Box::new(gen_bool(g, scope, params, depth - 1)),
        },
        7 => Expr::Not(Box::new(gen_bool(g, scope, params, depth - 1))),
        8 => {
            let (col, _) = scope.random_col(g);
            Expr::IsNull { expr: Box::new(col), negated: range(g, 2) == 0 }
        }
        _ => {
            // The classic 3VL divergence spot: IN lists seeded with NULL.
            let (col, dtype) = scope.random_col(g);
            let n = 1 + range(g, 4);
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                if range(g, 4) == 0 {
                    list.push(Expr::Literal(Value::Null));
                } else {
                    let v = gen_value(g, dtype, false, false);
                    list.push(value_expr(g, v, params));
                }
            }
            Expr::InList { expr: Box::new(col), list, negated: range(g, 2) == 0 }
        }
    }
}

fn gen_comparison(g: &mut StdRng, scope: &ExprScope<'_>, params: &mut Vec<Value>) -> Expr {
    let (col, dtype) = scope.random_col(g);
    match range(g, 10) {
        0..=5 => {
            let op = [BinOp::Eq, BinOp::NotEq, BinOp::Lt, BinOp::LtEq, BinOp::Gt, BinOp::GtEq]
                [range(g, 6)];
            // Compare mostly against the same type (selective predicates),
            // sometimes cross-type (exercises the type-rank ordering).
            let v = if range(g, 10) < 8 {
                let nullable = range(g, 10) < 2;
                gen_value(g, dtype, nullable, false)
            } else {
                gen_value(g, DataType::Int, false, false)
            };
            let rhs = value_expr(g, v, params);
            let (lhs, rhs) = if range(g, 4) == 0 { (rhs, col) } else { (col, rhs) };
            Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
        }
        6..=7 => {
            let lo = gen_value(g, dtype, false, false);
            let hi = gen_value(g, dtype, false, false);
            Expr::Between {
                expr: Box::new(col),
                lo: Box::new(value_expr(g, lo, params)),
                hi: Box::new(value_expr(g, hi, params)),
                negated: range(g, 2) == 0,
            }
        }
        8 => {
            // Column vs column.
            let (other, _) = scope.random_col(g);
            let op = [BinOp::Eq, BinOp::Lt, BinOp::GtEq][range(g, 3)];
            Expr::Binary { op, lhs: Box::new(col), rhs: Box::new(other) }
        }
        _ => {
            // Computed comparison: arithmetic feeds the predicate, where
            // overflow/div-zero runtime errors must match sides.
            let scalar = gen_scalar(g, scope, params, 1);
            let v = gen_value(g, DataType::Int, false, false);
            let rhs = value_expr(g, v, params);
            Expr::Binary { op: BinOp::Gt, lhs: Box::new(scalar), rhs: Box::new(rhs) }
        }
    }
}

// ----------------------------------------------------------------------
// Statements
// ----------------------------------------------------------------------

/// `clean` rows name every column and hold no wrong-typed value, so a
/// many-row statement does not fail as a whole.
fn gen_insert_values(
    g: &mut StdRng,
    tables: &[TableSpec],
    ti: usize,
    nrows: usize,
    clean: bool,
) -> Stmt {
    let t = &tables[ti];
    let arity = t.schema.arity();
    let has_unique = t.indexes.iter().any(|ix| ix.unique);
    let mut params = Vec::new();

    // Mostly full-column inserts; sometimes a partial column list
    // (missing columns become NULL — a SchemaViolation when NOT NULL).
    let cols: Vec<usize> = if clean || range(g, 10) < 8 {
        (0..arity).collect()
    } else {
        let keep = 1 + range(g, arity);
        let mut cols: Vec<usize> = (0..arity).collect();
        // Deterministic shuffle.
        for i in (1..cols.len()).rev() {
            cols.swap(i, range(g, i + 1));
        }
        cols.truncate(keep);
        cols.sort_unstable();
        cols
    };

    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(cols.len());
        for &ci in &cols {
            let col = t.schema.column(ci);
            // Wrong-type values at low probability: SchemaViolation parity.
            let v = if !clean && range(g, 25) == 0 {
                gen_value(g, DataType::Text, false, false)
            } else {
                gen_value(g, col.dtype, col.nullable, ci == 0 && has_unique)
            };
            row.push(value_expr(g, v, &mut params));
        }
        rows.push(row);
    }

    let columns = if cols.len() == arity && range(g, 2) == 0 {
        Vec::new() // implicit all-columns form
    } else {
        cols.iter().map(|&ci| t.schema.column(ci).name.clone()).collect()
    };

    Stmt {
        stmt: Statement::Insert(Insert {
            table: t.name.clone(),
            columns,
            source: InsertSource::Values(rows),
        }),
        params,
    }
}

fn gen_insert_select(g: &mut StdRng, tables: &[TableSpec], ti: usize) -> Stmt {
    // INSERT INTO t (cols...) SELECT ... FROM other — arities must line
    // up; keep the select simple: same-type column projections.
    let t = &tables[ti];
    let si = range(g, tables.len());
    let src = &tables[si];
    let mut params = Vec::new();

    let mut target_cols = Vec::new();
    let mut items = Vec::new();
    let scope = ExprScope { entries: vec![(src.name.as_str(), &src.schema)], qualify: false };
    for (ci, col) in t.schema.columns().iter().enumerate() {
        if ci > 0 && range(g, 3) == 0 {
            continue; // skip some nullable-or-not targets
        }
        match scope.random_col_of(g, col.dtype) {
            Some(e) => {
                target_cols.push(col.name.clone());
                items.push(SelectItem::Expr { expr: e, alias: None });
            }
            None => {
                // No same-typed source column: project a constant.
                let v = gen_value(g, col.dtype, col.nullable, false);
                target_cols.push(col.name.clone());
                items.push(SelectItem::Expr { expr: value_expr(g, v, &mut params), alias: None });
            }
        }
    }

    let where_clause = if range(g, 2) == 0 {
        Some(gen_bool(g, &scope, &mut params, 1))
    } else {
        None
    };
    // LIMIT keeps self-inserts from doubling a table repeatedly.
    let select = Select {
        items,
        from: TableRef { name: src.name.clone(), alias: None },
        joins: vec![],
        where_clause,
        group_by: vec![],
        having: None,
        order_by: vec![],
        limit: Some(range(g, 6) as u64),
    };
    Stmt {
        stmt: Statement::Insert(Insert {
            table: t.name.clone(),
            columns: target_cols,
            source: InsertSource::Select(Box::new(select)),
        }),
        params,
    }
}

fn gen_update(g: &mut StdRng, tables: &[TableSpec]) -> Stmt {
    let ti = range(g, tables.len());
    let t = &tables[ti];
    let mut params = Vec::new();
    let scope = ExprScope { entries: vec![(t.name.as_str(), &t.schema)], qualify: false };

    let nassign = 1 + range(g, 2);
    let mut assignments = Vec::with_capacity(nassign);
    for _ in 0..nassign {
        let ci = range(g, t.schema.arity());
        let col = t.schema.column(ci);
        let expr = if range(g, 10) < 5 {
            // Type-preserving arithmetic on the column itself: exercises
            // the unique-index transient-conflict path (c0 = c0 + 1).
            match col.dtype {
                DataType::Int | DataType::Float => Expr::Binary {
                    op: [BinOp::Add, BinOp::Sub, BinOp::Mul][range(g, 3)],
                    lhs: Box::new(Expr::Column(ColumnRef {
                        table: None,
                        column: col.name.clone(),
                    })),
                    rhs: {
                        let v = gen_value(g, col.dtype, false, false);
                        Box::new(value_expr(g, v, &mut params))
                    },
                },
                _ => {
                    let v = gen_value(g, col.dtype, col.nullable, false);
                    value_expr(g, v, &mut params)
                }
            }
        } else {
            let v = gen_value(g, col.dtype, col.nullable, false);
            value_expr(g, v, &mut params)
        };
        assignments.push((col.name.clone(), expr));
    }

    let where_clause = if range(g, 10) < 8 {
        Some(gen_bool(g, &scope, &mut params, 2))
    } else {
        None
    };
    Stmt {
        stmt: Statement::Update(Update { table: t.name.clone(), assignments, where_clause }),
        params,
    }
}

fn gen_delete(g: &mut StdRng, tables: &[TableSpec], large: bool) -> Stmt {
    let ti = if large { 1 + range(g, tables.len() - 1) } else { range(g, tables.len()) };
    let t = &tables[ti];
    let mut params = Vec::new();
    let scope = ExprScope { entries: vec![(t.name.as_str(), &t.schema)], qualify: false };
    let where_clause = if range(g, 10) < 9 {
        Some(gen_bool(g, &scope, &mut params, 2))
    } else {
        None
    };
    Stmt {
        stmt: Statement::Delete(Delete { table: t.name.clone(), where_clause }),
        params,
    }
}

fn gen_select(g: &mut StdRng, tables: &[TableSpec], large: bool) -> Stmt {
    let mut params = Vec::new();
    let ti = if large { 0 } else { range(g, tables.len()) };
    let base = &tables[ti];
    let btrees: Vec<&IndexDef> =
        base.indexes.iter().filter(|ix| ix.kind == IndexKind::BTree).collect();
    if !btrees.is_empty() && range(g, 4) == 0 {
        let index = btrees[range(g, btrees.len())];
        return gen_indexed_top(g, base, index);
    }
    // One SELECT in four over a table with a group index groups by its
    // keys and aggregates its tracked columns — the shape the planner
    // reads off the index — so index and reference must agree on every
    // group, NULL keys and sums at the edge of `i64` included, whatever
    // churn came before. No join; and one in ten carries a WHERE, which
    // must send it back to the scan.
    let indexed = base.group_indexes.first().filter(|_| range(g, 4) == 0);

    // Joins: mostly none (single-table scans are the columnar surface),
    // sometimes one or two against the *small* tables.
    let njoins = match range(g, 10) {
        _ if large || indexed.is_some() => 0,
        0..=6 => 0,
        7..=8 => 1,
        _ => 2.min(tables.len() - 1),
    };
    let mut joins = Vec::new();
    let mut entries: Vec<(&str, &Schema)> = vec![(base.name.as_str(), &base.schema)];
    let mut used = vec![ti];
    for _ in 0..njoins {
        // Join targets avoid the big table on the right side.
        let choices: Vec<usize> =
            (0..tables.len()).filter(|i| *i != 0 && !used.contains(i)).collect();
        let Some(&ji) = choices.get(range(g, choices.len().max(1))) else { break };
        used.push(ji);
        entries.push((tables[ji].name.as_str(), &tables[ji].schema));
        joins.push(ji);
    }
    let qualify = !joins.is_empty();
    let scope = ExprScope { entries, qualify };

    // ON clauses: comparisons between columns/constants only (see the
    // module docs for why no arithmetic).
    let joins: Vec<Join> = joins
        .iter()
        .enumerate()
        .map(|(k, &ji)| {
            let right = &tables[ji];
            let left_scope = ExprScope {
                entries: scope.entries[..=k].to_vec(),
                qualify: true,
            };
            let (lcol, ldt) = left_scope.random_col(g);
            let rcol = {
                let ci = range(g, right.schema.arity());
                let col = right.schema.column(ci);
                Expr::Column(ColumnRef {
                    table: Some(right.name.clone()),
                    column: col.name.clone(),
                })
            };
            let mut on = Expr::Binary {
                op: if range(g, 10) < 8 { BinOp::Eq } else { BinOp::Lt },
                lhs: Box::new(lcol),
                rhs: Box::new(rcol),
            };
            if range(g, 4) == 0 {
                // Extra constant conjunct on the right table.
                let ci = range(g, right.schema.arity());
                let col = right.schema.column(ci);
                let v = gen_value(g, col.dtype, false, false);
                on = Expr::Binary {
                    op: BinOp::And,
                    lhs: Box::new(on),
                    rhs: Box::new(Expr::Binary {
                        op: BinOp::Eq,
                        lhs: Box::new(Expr::Column(ColumnRef {
                            table: Some(right.name.clone()),
                            column: col.name.clone(),
                        })),
                        rhs: Box::new(value_expr(g, v, &mut params)),
                    }),
                };
            }
            let _ = ldt;
            Join { table: TableRef { name: right.name.clone(), alias: None }, on }
        })
        .collect();

    let where_clause = if range(g, 10) < if indexed.is_some() { 1 } else { 7 } {
        Some(gen_bool(g, &scope, &mut params, 2))
    } else {
        None
    };

    let grouped = indexed.is_some() || range(g, 10) < if large { 5 } else { 3 };
    let (items, group_by, having) = if grouped {
        gen_grouped_head(g, &scope, &mut params, indexed)
    } else {
        (gen_plain_items(g, &scope, &mut params), vec![], None)
    };

    // ORDER BY: bare columns / aliases / group keys / aggregates.
    let mut order_by = Vec::new();
    if range(g, 10) < if large { 9 } else { 5 } {
        let nkeys = 1 + range(g, 2);
        for _ in 0..nkeys {
            let expr = if grouped {
                match (range(g, 3), &group_by.first()) {
                    (0, Some(gk)) => (*gk).clone(),
                    _ => Expr::Aggregate { func: AggFunc::Count, arg: None, distinct: false },
                }
            } else if range(g, 10) < 7 {
                scope.random_col(g).0
            } else {
                // By alias: gen_plain_items aliases item 0 as "x0".
                match &items[0] {
                    SelectItem::Expr { alias: Some(a), .. } => {
                        Expr::Column(ColumnRef { table: None, column: a.clone() })
                    }
                    _ => scope.random_col(g).0,
                }
            };
            order_by.push(OrderKey {
                expr,
                order: if range(g, 2) == 0 { SortOrder::Asc } else { SortOrder::Desc },
            });
        }
    }

    // LIMIT: small values engage the bounded top-K heap.
    let limit =
        if range(g, 10) < if large { 8 } else { 5 } { Some(range(g, 12) as u64) } else { None };

    Stmt {
        stmt: Statement::Select(Select {
            items,
            from: TableRef { name: base.name.clone(), alias: None },
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        }),
        params,
    }
}

/// `ORDER BY <a B-tree's leading columns> LIMIT 1–5` over one table:
/// the shape the planner answers by walking `index` instead of sorting
/// the table, so both must agree on ties, NULLs and where to stop. Most
/// qualify; the rest carry one clause that must send them back to the
/// scan (a WHERE, a computed projection) or that ends the walked prefix
/// early (a direction change, a key from outside the index).
fn gen_indexed_top(g: &mut StdRng, base: &TableSpec, index: &IndexDef) -> Stmt {
    let mut params = Vec::new();
    let scope = ExprScope { entries: vec![(base.name.as_str(), &base.schema)], qualify: false };
    let flip = |o| if o == SortOrder::Asc { SortOrder::Desc } else { SortOrder::Asc };
    let order = if range(g, 2) == 0 { SortOrder::Asc } else { SortOrder::Desc };
    let nkeys = 1 + range(g, index.key_columns.len());
    let mut order_by: Vec<OrderKey> = index.key_columns[..nkeys]
        .iter()
        .enumerate()
        .map(|(i, &c)| OrderKey {
            expr: Expr::Column(ColumnRef { table: None, column: base.schema.column(c).name.clone() }),
            order: if i > 0 && range(g, 4) == 0 { flip(order) } else { order },
        })
        .collect();
    if range(g, 3) == 0 {
        order_by.push(OrderKey { expr: scope.random_col(g).0, order: flip(order) });
    }
    let items = match range(g, 10) {
        0..=2 => vec![SelectItem::Wildcard],
        3..=8 => (0..1 + range(g, 3))
            .map(|_| SelectItem::Expr { expr: scope.random_col(g).0, alias: None })
            .collect(),
        _ => gen_plain_items(g, &scope, &mut params),
    };
    let where_clause =
        if range(g, 8) == 0 { Some(gen_bool(g, &scope, &mut params, 1)) } else { None };
    Stmt {
        stmt: Statement::Select(Select {
            items,
            from: TableRef { name: base.name.clone(), alias: None },
            joins: vec![],
            where_clause,
            group_by: vec![],
            having: None,
            order_by,
            limit: Some(1 + range(g, 5) as u64),
        }),
        params,
    }
}

fn gen_plain_items(
    g: &mut StdRng,
    scope: &ExprScope<'_>,
    params: &mut Vec<Value>,
) -> Vec<SelectItem> {
    if range(g, 10) < 3 {
        return vec![SelectItem::Wildcard];
    }
    let n = 1 + range(g, 3);
    let mut items = Vec::with_capacity(n);
    for i in 0..n {
        let expr = if range(g, 10) < 5 {
            scope.random_col(g).0
        } else {
            gen_scalar(g, scope, params, 2)
        };
        // Alias item 0 so ORDER BY can reference it by alias.
        let alias = if i == 0 { Some("x0".to_owned()) } else { None };
        items.push(SelectItem::Expr { expr, alias });
    }
    items
}

/// SELECT list + GROUP BY + HAVING for a grouped query. Select items
/// reuse the group-key expressions verbatim (the planner matches group
/// keys by whole-expression AST equality) plus aggregates. With
/// `indexed`, the keys are that group index's and the aggregates are
/// COUNT or SUM over exactly its tracked columns (now and then a MIN
/// beside them, which no index answers).
fn gen_grouped_head(
    g: &mut StdRng,
    scope: &ExprScope<'_>,
    params: &mut Vec<Value>,
    indexed: Option<&GroupIndexDef>,
) -> (Vec<SelectItem>, Vec<Expr>, Option<Expr>) {
    let base = scope.entries[0].1;
    let col = |c: usize| Expr::Column(ColumnRef { table: None, column: base.column(c).name.clone() });
    let agg = |func, c| Expr::Aggregate { func, arg: Some(Box::new(col(c))), distinct: false };
    let mut fixed_aggs = Vec::new();
    for &c in indexed.map_or(&[][..], |def| &def.agg_columns) {
        let summable = base.column(c).dtype == DataType::Int && range(g, 3) > 0;
        fixed_aggs.push(agg(if summable { AggFunc::Sum } else { AggFunc::Count }, c));
    }
    if indexed.is_some() {
        if fixed_aggs.is_empty() || range(g, 2) == 0 {
            fixed_aggs.push(Expr::Aggregate { func: AggFunc::Count, arg: None, distinct: false });
        }
        if range(g, 10) == 0 {
            fixed_aggs.push(agg(AggFunc::Min, 0));
        }
    }
    let nkeys = if indexed.is_some() { 0 } else { 1 + range(g, 2) };
    let mut group_by: Vec<Expr> =
        indexed.map_or(Vec::new(), |def| def.key_columns.iter().map(|&c| col(c)).collect());
    for _ in 0..nkeys {
        let key = if range(g, 10) < 7 {
            scope.random_col(g).0
        } else {
            // Computed key with few distinct values: `c % k`.
            let (col, dtype) = scope.random_col(g);
            match dtype {
                DataType::Int => Expr::Binary {
                    op: BinOp::Mod,
                    lhs: Box::new(col),
                    rhs: Box::new(Expr::Literal(Value::Int(2 + range(g, 4) as i64))),
                },
                _ => col,
            }
        };
        if !group_by.contains(&key) {
            group_by.push(key);
        }
    }

    let mut items: Vec<SelectItem> = group_by
        .iter()
        .map(|k| SelectItem::Expr { expr: k.clone(), alias: None })
        .collect();

    let naggs = if indexed.is_some() { fixed_aggs.len() } else { 1 + range(g, 3) };
    let mut agg_exprs = Vec::with_capacity(naggs);
    for i in 0..naggs {
        let func = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max]
            [range(g, 5)];
        let agg = if let Some(fixed) = fixed_aggs.get(i) {
            fixed.clone()
        } else if func == AggFunc::Count && range(g, 3) == 0 {
            Expr::Aggregate { func, arg: None, distinct: false }
        } else {
            let arg = if range(g, 10) < 7 {
                scope.random_col(g).0
            } else {
                gen_scalar(g, scope, params, 1)
            };
            let distinct = func == AggFunc::Count && range(g, 4) == 0;
            Expr::Aggregate { func, arg: Some(Box::new(arg)), distinct }
        };
        agg_exprs.push(agg.clone());
        items.push(SelectItem::Expr { expr: agg, alias: Some(format!("agg{i}")) });
    }

    let having = if range(g, 10) < 4 {
        let lhs = agg_exprs[range(g, agg_exprs.len())].clone();
        let v = gen_value(g, DataType::Int, false, false);
        Some(Expr::Binary {
            op: [BinOp::Gt, BinOp::LtEq, BinOp::NotEq][range(g, 3)],
            lhs: Box::new(lhs),
            rhs: Box::new(value_expr(g, v, params)),
        })
    } else {
        None
    };

    (items, group_by, having)
}

/// A statement that is wrong on purpose: the engine and the reference
/// must reject it with the *same* error code.
fn gen_invalid(g: &mut StdRng, tables: &[TableSpec]) -> Stmt {
    let ti = range(g, tables.len());
    let t = &tables[ti];
    let col = |n: &str| Expr::Column(ColumnRef { table: None, column: n.to_owned() });
    let stmt = match range(g, 5) {
        0 => {
            // Unknown column.
            Statement::Select(Select {
                items: vec![SelectItem::Expr { expr: col("no_such_col"), alias: None }],
                from: TableRef { name: t.name.clone(), alias: None },
                joins: vec![],
                where_clause: None,
                group_by: vec![],
                having: None,
                order_by: vec![],
                limit: None,
            })
        }
        1 => {
            // Unknown table.
            Statement::Delete(Delete { table: "no_such_table".into(), where_clause: None })
        }
        2 => {
            // Aggregate in WHERE.
            Statement::Select(Select {
                items: vec![SelectItem::Wildcard],
                from: TableRef { name: t.name.clone(), alias: None },
                joins: vec![],
                where_clause: Some(Expr::Binary {
                    op: BinOp::Gt,
                    lhs: Box::new(Expr::Aggregate {
                        func: AggFunc::Count,
                        arg: None,
                        distinct: false,
                    }),
                    rhs: Box::new(Expr::Literal(Value::Int(0))),
                }),
                group_by: vec![],
                having: None,
                order_by: vec![],
                limit: None,
            })
        }
        3 => {
            // HAVING without grouping.
            Statement::Select(Select {
                items: vec![SelectItem::Wildcard],
                from: TableRef { name: t.name.clone(), alias: None },
                joins: vec![],
                where_clause: None,
                group_by: vec![],
                having: Some(Expr::Binary {
                    op: BinOp::Gt,
                    lhs: Box::new(col("c0")),
                    rhs: Box::new(Expr::Literal(Value::Int(0))),
                }),
                order_by: vec![],
                limit: None,
            })
        }
        _ => {
            // Non-boolean WHERE: a *runtime* Eval error on the first row.
            Statement::Select(Select {
                items: vec![SelectItem::Wildcard],
                from: TableRef { name: t.name.clone(), alias: None },
                joins: vec![],
                where_clause: Some(col("c0")),
                group_by: vec![],
                having: None,
                order_by: vec![],
                limit: None,
            })
        }
    };
    Stmt { stmt, params: Vec::new() }
}

// ----------------------------------------------------------------------
// rng helpers
// ----------------------------------------------------------------------

/// Uniform integer in `[0, n)`; `n = 0` returns 0.
fn range(g: &mut StdRng, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        (g.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_sql::plan::Access;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(42);
        let b = generate(42);
        assert_eq!(a.script(), b.script());
        let c = generate(43);
        assert_ne!(a.script(), c.script());
    }

    #[test]
    fn large_cases_hold_a_table_past_one_batch_and_lean_on_the_edge() {
        let (mut selects, mut ordered_limited, mut grouped) = (0, 0, 0);
        for seed in 0..10 {
            let case = generate_large(seed);
            assert_eq!(case.script(), generate_large(seed).script());
            assert!(case.tables[0].indexes.iter().all(|ix| !ix.unique));
            let mut populated = 0;
            for s in &case.stmts {
                match &s.stmt {
                    Statement::Insert(Insert { table, source: InsertSource::Values(rows), .. })
                        if table == "t0" && rows.len() >= 32 =>
                    {
                        populated += rows.len();
                    }
                    // (The deliberately invalid SELECTs pick any table.)
                    Statement::Select(sel) if sel.from.name == "t0" => {
                        assert!(sel.joins.is_empty());
                        selects += 1;
                        ordered_limited += usize::from(!sel.order_by.is_empty() && sel.limit.is_some());
                        grouped += usize::from(!sel.group_by.is_empty());
                    }
                    Statement::Delete(d) => assert_ne!(d.table, "t0"),
                    _ => {}
                }
            }
            assert!((1100..=2500).contains(&populated), "seed {seed}: {populated} rows");
        }
        assert!(ordered_limited * 2 > selects, "{ordered_limited} of {selects} SELECTs order and limit");
        assert!(grouped * 3 > selects, "{grouped} of {selects} SELECTs group");
    }

    #[test]
    fn every_rendered_statement_parses_back_to_its_ast() {
        for seed in 0..30 {
            let case = generate(seed);
            for s in &case.stmts {
                let sql = s.sql();
                let parsed = sstore_sql::parse(&sql)
                    .unwrap_or_else(|e| panic!("seed {seed}: unparseable render: {e}\n  {sql}"));
                assert_eq!(parsed, s.stmt, "seed {seed}: round-trip mismatch for {sql}");
            }
        }
    }

    #[test]
    fn cases_cover_the_interesting_surface() {
        // Over a modest seed range the generator must hit joins, grouped
        // queries, IN lists with NULL, ORDER BY DESC, and parameters —
        // otherwise the fuzzer silently stops covering its targets.
        let (mut joins, mut grouped, mut null_in, mut desc, mut with_params) =
            (false, false, false, false, false);
        let mut indexed_tops = 0;
        for seed in 0..40 {
            let case = generate(seed);
            indexed_tops += index_walks(&case);
            for s in case.stmts {
                if let Statement::Select(sel) = &s.stmt {
                    joins |= !sel.joins.is_empty();
                    grouped |= !sel.group_by.is_empty();
                    desc |= sel.order_by.iter().any(|k| k.order == SortOrder::Desc);
                }
                null_in |= s.sql().contains("IN (NULL")
                    || s.sql().contains(", NULL")
                    || s.sql().contains("NULL,");
                with_params |= !s.params.is_empty();
            }
        }
        assert!(joins, "no join queries generated");
        assert!(grouped, "no grouped queries generated");
        assert!(null_in, "no NULL-seeded IN lists generated");
        assert!(desc, "no DESC sort keys generated");
        assert!(with_params, "no parameterized statements generated");
        assert!(indexed_tops >= 20, "{indexed_tops} SELECTs planned as an ordered index walk");
        let large: usize = (0..40).map(|seed| index_walks(&generate_large(seed))).sum();
        assert!(large >= 20, "{large} ordered index walks over the large table");
        let reads = |access: &Access| matches!(access, Access::GroupIndex(_));
        let grouped: usize = (0..40).map(|seed| planned(&generate(seed), reads)).sum();
        assert!(grouped >= 20, "{grouped} SELECTs planned to read a group index");
        let large: usize = (0..40).map(|seed| planned(&generate_large(seed), reads)).sum();
        assert!(large >= 20, "{large} group-index reads over the large table");
    }

    /// How many of the case's SELECTs the engine's planner answers by
    /// walking a B-tree (`Access::IndexOrder`).
    fn index_walks(case: &Case) -> usize {
        planned(case, |access| matches!(access, Access::IndexOrder { .. }))
    }

    /// How many of the case's SELECTs the engine's planner gives an
    /// access path `wanted` accepts.
    fn planned(case: &Case, wanted: impl Fn(&Access) -> bool) -> usize {
        use sstore_sql::plan::{BoundStatement, Planner};
        let mut c = sstore_storage::Catalog::new();
        for t in &case.tables {
            let table =
                c.create_table(&t.name, sstore_storage::TableKind::Base, t.schema.clone()).unwrap();
            t.indexes.iter().for_each(|ix| table.create_index(ix.clone()).unwrap());
            t.group_indexes.iter().for_each(|def| table.create_group_index(def.clone()).unwrap());
        }
        let wanted = |s: &Stmt| match Planner::new(&c).plan(&s.stmt) {
            Ok(BoundStatement::Select(sel)) => wanted(&sel.from.access),
            _ => false,
        };
        case.stmts.iter().filter(|s| wanted(s)).count()
    }
}
