//! Vectorized (columnar) SELECT execution.
//!
//! Single-table full-scan SELECTs run here instead of the row-at-a-time
//! pipeline in [`crate::exec`]: the scan streams the table's live rows
//! in row-id order through [`sstore_storage::Table::scan_chunks`],
//! materializes the columns the query actually touches into a typed
//! [`ColumnarBatch`], evaluates the WHERE predicate with per-column
//! loops producing a [`SelVec`] selection bitmap, and accumulates
//! aggregates over the selected rows with typed fast paths. Projection
//! back to [`Tuple`] rows happens only at the output edge.
//!
//! Semantics parity with the row executor is load-bearing (command-log
//! replay must reproduce identical state, and the differential proptest
//! in `tests/prop_columnar.rs` pins it):
//!
//! * scans walk the same row-id order, and grouping, ORDER BY and LIMIT
//!   are the row path's own code — the output edge in `edge.rs`,
//!   whose module docs state the ordering contract once for both
//!   executors — so successful results are bit-identical;
//! * predicate fast paths reproduce 3VL exactly, including Kleene
//!   short-circuit *error* behavior: `AND`'s right side is only
//!   evaluated where the left is not FALSE (`OR`: not TRUE), mirrored
//!   here by threading an active-row bitmap through the evaluator, and
//!   a comparison's row-independent side is evaluated only when some
//!   row is active — exactly the rows the row path would evaluate it
//!   for;
//! * any shape without a fast path falls back to per-row
//!   [`BoundExpr::eval`] over the borrowed row, which *is* the row
//!   path's evaluator.
//!
//! Beyond predicates and scalar aggregates (phase 1), the same
//! active-set discipline powers phase 2:
//!
//! * **expression kernels** ([`EKernel`]): projection, sort-key, group
//!   key, and aggregate-argument expressions compile into per-batch
//!   column kernels — typed Int/Float arithmetic loops with the row
//!   path's checked-overflow and division-error behavior, row-wise
//!   fallback for everything else;
//! * **hash group-by**: a key pass (`intern_keys`) interns each
//!   selected row's group key into a dense slot of the edge's
//!   `Groups` (a single Int key as a raw `i64`), then one typed loop
//!   per aggregate (`feed_aggs`) walks the batch's (row, slot) pairs
//!   in ascending row order, preserving float accumulation order;
//! * **top-K**: ORDER BY keys stay in the sort kernels' outputs and are
//!   compared there against the worst row the edge still holds
//!   (`VOut::cmp_at`); a row copies its keys out only when it is kept,
//!   and its output is built from the scanned row when the scan ends,
//!   if its projections cannot fail (`Edge::late`).
//!
//! The one intentional divergence: when several subexpressions would
//! each raise a runtime error, batch-at-a-time evaluation may surface a
//! different one of them than row-at-a-time order would (both executors
//! still fail the statement, and a failed SELECT has no effects to
//! undo).
//!
//! Both executors are public entry points ([`run_select_columnar`],
//! [`crate::exec::run_select_rows_rowwise`]), so benchmarks and the
//! differential tests run the same plan through each in one process
//! (the row pipeline is the differential reference). Fallback
//! decisions are counted per reason (see [`batch::FallbackReason`]) so
//! the engine can tell "fast path un-wired" from "workload is
//! row-wise".

use sstore_common::{Column, DataType, Error, Result, Tuple, Value};
use sstore_storage::{Catalog, TableKind};

use crate::ast::{AggFunc, BinOp};
use crate::batch::{
    self, Col, ColI64, ColumnarBatch, FallbackReason, NullMask, SelVec, BATCH_CAPACITY,
};
use crate::edge::{extreme_of, offer_extreme, AccCol, Edge, Groups, Out, SortKeys};
use crate::expr::{value_to_truth, AggSpec, BoundExpr, EvalCtx};
use crate::plan::{Access, BoundSelect};

/// SQL truth values in vector form.
const T_FALSE: u8 = 0;
const T_TRUE: u8 = 1;
const T_NULL: u8 = 2;

/// Minimum live row count before a scan goes columnar. Below this,
/// batch setup (column materialization, bitmap allocation) costs more
/// than row-at-a-time interpretation saves — EE-trigger cascades run
/// thousands of SELECTs over 1-row stream tables, and sending those
/// through the batch path measurably regresses the trigger hot path.
/// At 100 rows the columnar executor already wins or breaks even on
/// every measured shape, so 64 leaves margin on both sides.
pub const COLUMNAR_MIN_ROWS: usize = 64;

/// True for plans the columnar executor handles: single-table full
/// scans. Joins stay on the row pipeline, and index point lookups
/// (the OLTP hot path) and ordered index walks are deliberately
/// excluded — batching a handful of rows costs more than it saves.
pub fn eligible(s: &BoundSelect) -> bool {
    s.joins.is_empty() && matches!(s.from.access, Access::FullScan | Access::GroupIndex(_))
}

/// Dispatch decision for [`crate::exec::run_select_rows`]: an eligible
/// plan over a table big enough to amortize batch setup. Table size is
/// engine state, so replayed transactions make the same choice — and
/// either choice yields bit-identical results anyway. Fallbacks note
/// their reason (one per dispatch) for the engine's observability
/// counters.
pub fn use_columnar(catalog: &Catalog, s: &BoundSelect) -> bool {
    if !eligible(s) {
        batch::note_fallback(FallbackReason::Shape);
        return false;
    }
    if catalog.get(s.from.table).len() < COLUMNAR_MIN_ROWS {
        batch::note_fallback(FallbackReason::SmallTable);
        return false;
    }
    true
}

/// Per-aggregate execution strategy, classified once per statement.
enum FastAgg<'s> {
    /// `COUNT(*)`: selected-row count, no column touched.
    CountStar,
    /// `COUNT(col)`, non-distinct: non-null count off the null bitmap.
    CountCol(usize),
    /// SUM/AVG/MIN/MAX over a bare Int/Float column, non-distinct:
    /// typed accumulation loops.
    NumCol(usize),
    /// Everything else: the argument runs through an expression kernel,
    /// then per-selected-row [`AccCol::feed`] (which also handles
    /// DISTINCT) — the same eval → NULL-skip → feed sequence as the row
    /// path's [`Groups::feed_row`].
    Generic(EKernel<'s>),
}

fn classify_agg<'s>(spec: &'s AggSpec, cols: &[Column]) -> FastAgg<'s> {
    match &spec.arg {
        None => FastAgg::CountStar,
        Some(BoundExpr::Column(c)) if !spec.distinct && *c < cols.len() => match spec.func {
            AggFunc::Count => FastAgg::CountCol(*c),
            AggFunc::Sum | AggFunc::Avg | AggFunc::Min | AggFunc::Max
                if matches!(cols[*c].dtype, DataType::Int | DataType::Float) =>
            {
                FastAgg::NumCol(*c)
            }
            _ => FastAgg::Generic(compile_expr(spec.arg.as_ref().unwrap(), cols)),
        },
        Some(arg) => FastAgg::Generic(compile_expr(arg, cols)),
    }
}

/// Runs an eligible SELECT through the columnar pipeline.
pub fn run_select_columnar(
    catalog: &Catalog,
    s: &BoundSelect,
    params: &[Value],
) -> Result<Vec<Tuple>> {
    let table = catalog.get(s.from.table);
    let windowed = table.kind() == TableKind::Window;
    let cols = table.schema().columns();

    let pred = s.where_pred.as_ref().map(|p| compile_pred(p, cols));

    // Aggregate strategies; implicit aggregation (no GROUP BY) gets the
    // typed accumulators, grouped queries hash-intern keys per batch and
    // feed the same accumulators the row path uses.
    let implicit = s.grouped && s.group_by.is_empty();
    let grouped = s.grouped && !implicit;
    let fast_aggs: Vec<FastAgg> = if implicit {
        s.aggs.iter().map(|a| classify_agg(a, cols)).collect()
    } else {
        Vec::new()
    };

    // Grouped queries: kernels for the group keys and aggregate
    // arguments (`None` = COUNT(*)). Non-aggregate queries: kernels for
    // the sort keys, and for the projections unless the edge builds
    // output rows from the scanned row. (A grouped query's projections
    // and ORDER BY are bound against the group-key row + aggregate
    // results, not table columns, so they must NOT be compiled here —
    // they run in `Groups::finish` exactly as on the row path.)
    let mut edge = Edge::new(s, params);
    let late = edge.late();
    let key_kernels: Vec<EKernel> =
        if grouped { s.group_by.iter().map(|e| compile_expr(e, cols)).collect() } else { Vec::new() };
    let agg_kernels: Vec<Option<EKernel>> = if grouped {
        s.aggs.iter().map(|a| a.arg.as_ref().map(|e| compile_expr(e, cols))).collect()
    } else {
        Vec::new()
    };
    let proj_kernels: Vec<EKernel> = if !s.grouped && !late {
        s.projections.iter().map(|e| compile_expr(e, cols)).collect()
    } else {
        Vec::new()
    };
    let sort_kernels: Vec<EKernel> = if !s.grouped {
        s.order_by.iter().map(|(e, _)| compile_expr(e, cols)).collect()
    } else {
        Vec::new()
    };

    // Columns to materialize: predicate fast paths, typed aggregates,
    // and every column an expression kernel reads.
    let mut wanted: Vec<usize> = Vec::new();
    if let Some(p) = &pred {
        collect_cols(p, &mut wanted);
    }
    for fa in &fast_aggs {
        match fa {
            FastAgg::CountCol(c) | FastAgg::NumCol(c) => wanted.push(*c),
            FastAgg::Generic(k) => collect_expr_cols(k, &mut wanted),
            FastAgg::CountStar => {}
        }
    }
    for k in key_kernels
        .iter()
        .chain(agg_kernels.iter().flatten())
        .chain(&proj_kernels)
        .chain(&sort_kernels)
    {
        collect_expr_cols(k, &mut wanted);
    }
    wanted.sort_unstable();
    wanted.dedup();
    let dtypes: Vec<DataType> =
        if wanted.is_empty() { Vec::new() } else { cols.iter().map(|c| c.dtype).collect() };

    let mut groups = Groups::new(s, table.len());
    // Reused per batch: (row, slot) of every selected row, a key row
    // being interned, the predicate's truth vector.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut key: Vec<Value> = Vec::new();
    let mut truth: Vec<u8> = Vec::new();

    let mut cursor = table.scan_chunks();
    let mut rows: Vec<&[Value]> = Vec::with_capacity(table.len().min(BATCH_CAPACITY));
    loop {
        rows.clear();
        if !cursor.next_chunk(BATCH_CAPACITY, &mut rows) {
            break;
        }
        batch::note_batch();
        if windowed {
            batch::note_window_batch();
        }
        let b = ColumnarBatch::from_rows(&rows, &wanted, &dtypes)?;

        // WHERE → selection bitmap.
        let mut sel = SelVec::all(rows.len());
        if let Some(p) = &pred {
            truth.clear();
            truth.resize(rows.len(), T_FALSE);
            eval_pred(p, &b, &rows, params, &sel, &mut truth)?;
            for (i, t) in truth.iter().enumerate() {
                if *t != T_TRUE {
                    sel.clear(i);
                }
            }
        }

        if implicit {
            let selected = sel.count() as u64;
            for ((acc, spec), fa) in groups.accs.iter_mut().zip(&s.aggs).zip(&fast_aggs) {
                match fa {
                    FastAgg::CountStar => acc.counts()[0] += selected,
                    FastAgg::CountCol(c) => {
                        let col = b.col(*c).expect("count column materialized");
                        acc.counts()[0] += sel.iter_ones().filter(|&i| !col.is_null(i)).count() as u64;
                    }
                    FastAgg::NumCol(c) => {
                        let col = b.col(*c).expect("agg column materialized");
                        accumulate_num(acc, spec.func, col, &sel)?;
                    }
                    FastAgg::Generic(k) => {
                        if sel.any() {
                            let arg = eval_kernel(k, &b, &rows, params, &sel)?;
                            for i in sel.iter_ones() {
                                let v = arg.value_at(i);
                                if !v.is_null() {
                                    acc.feed(spec.func, 0, v)?;
                                }
                            }
                        }
                    }
                }
            }
        } else if grouped {
            if sel.any() {
                let kouts: Vec<VOut> = key_kernels
                    .iter()
                    .map(|k| eval_kernel(k, &b, &rows, params, &sel))
                    .collect::<Result<_>>()?;
                let aouts: Vec<Option<VOut>> = agg_kernels
                    .iter()
                    .map(|ok| ok.as_ref().map(|k| eval_kernel(k, &b, &rows, params, &sel)).transpose())
                    .collect::<Result<_>>()?;
                intern_keys(&mut groups, &kouts, &sel, &mut key, &mut pairs);
                feed_aggs(&mut groups.accs, &s.aggs, &aouts, &pairs)?;
            }
        } else if sel.any() {
            let pouts: Vec<VOut> = proj_kernels
                .iter()
                .map(|k| eval_kernel(k, &b, &rows, params, &sel))
                .collect::<Result<_>>()?;
            let souts: Vec<VOut> = sort_kernels
                .iter()
                .map(|k| eval_kernel(k, &b, &rows, params, &sel))
                .collect::<Result<_>>()?;
            // Sort keys are compared where the kernels left them; a row
            // copies them out, and builds its output, only if it is kept.
            for i in sel.iter_ones() {
                edge.offer(&KeysAt { outs: &souts, i }, || {
                    Ok(if late {
                        Out::Row(rows[i])
                    } else {
                        Out::Built(pouts.iter().map(|o| o.value_at(i)).collect())
                    })
                })?;
            }
        }
    }

    if s.grouped {
        groups.finish(&mut edge)?;
    }
    edge.finish()
}

/// Typed SUM/AVG/MIN/MAX accumulation over the selected rows of an
/// Int/Float column into slot 0 (implicit aggregation). Iteration is in
/// ascending row order, so float sums and integer-overflow points match
/// the row path exactly.
fn accumulate_num(acc: &mut AccCol, func: AggFunc, col: &Col, sel: &SelVec) -> Result<()> {
    let want = extreme_of(func);
    match (col, func) {
        (_, AggFunc::Count) => unreachable!("COUNT(col) classified as CountCol"),
        (Col::I64(c), AggFunc::Sum | AggFunc::Avg) => {
            let sum = &mut acc.sums()[0];
            for i in sel.iter_ones().filter(|&i| !c.nulls.get(i)) {
                sum.add_int(c.values[i])?;
            }
        }
        (Col::F64(c), AggFunc::Sum | AggFunc::Avg) => {
            let sum = &mut acc.sums()[0];
            for i in sel.iter_ones().filter(|&i| !c.nulls.get(i)) {
                sum.add_float(c.values[i]);
            }
        }
        (Col::I64(c), AggFunc::Min | AggFunc::Max) => {
            let mut best: Option<i64> = None;
            for i in sel.iter_ones().filter(|&i| !c.nulls.get(i)) {
                if best.is_none_or(|b| c.values[i].cmp(&b) == want) {
                    best = Some(c.values[i]);
                }
            }
            if let Some(v) = best {
                offer_extreme(&mut acc.extremes()[0], Value::Int(v), want);
            }
        }
        (Col::F64(c), AggFunc::Min | AggFunc::Max) => {
            let mut best: Option<f64> = None;
            for i in sel.iter_ones().filter(|&i| !c.nulls.get(i)) {
                if best.is_none_or(|b| c.values[i].total_cmp(&b) == want) {
                    best = Some(c.values[i]);
                }
            }
            if let Some(v) = best {
                offer_extreme(&mut acc.extremes()[0], Value::Float(v), want);
            }
        }
        _ => unreachable!("NumCol only classified for Int/Float columns"),
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Expression kernels
// ----------------------------------------------------------------------

/// A scalar expression compiled for batch evaluation (projections, sort
/// keys, group keys, aggregate arguments). Fast nodes run typed loops
/// over materialized columns; `RowWise` falls back to the row path's
/// evaluator per active row, which is also the safety net for any
/// operand that turns out non-numeric at runtime — so coercion errors
/// are produced by the very code the row path runs.
enum EKernel<'s> {
    /// Bare column reference served straight from the batch (no copy).
    Col(usize),
    /// Row-independent subtree: evaluated once per batch — and only
    /// when some row is active, exactly the rows the row path would
    /// evaluate it for — then broadcast.
    Const(&'s BoundExpr),
    /// `+ - * / %` over two kernels with typed Int/Float loops carrying
    /// the row path's checked-overflow and division-error behavior.
    /// `expr` is the original subtree for the row-wise fallback.
    Arith { op: BinOp, lhs: Box<EKernel<'s>>, rhs: Box<EKernel<'s>>, expr: &'s BoundExpr },
    /// Unary minus / ABS with typed loops, same fallback rule.
    Unary { abs: bool, inner: Box<EKernel<'s>>, expr: &'s BoundExpr },
    /// Fallback: per-row evaluation of the original expression.
    RowWise(&'s BoundExpr),
}

fn is_arith(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
}

/// Same canonicalization as [`Value::float`], for typed float loops.
#[inline]
fn canonicalize_nan(f: f64) -> f64 {
    if f.is_nan() {
        f64::NAN
    } else {
        f
    }
}

fn compile_expr<'s>(e: &'s BoundExpr, cols: &[Column]) -> EKernel<'s> {
    if e.is_row_independent() {
        return EKernel::Const(e);
    }
    match e {
        BoundExpr::Column(c) if *c < cols.len() => EKernel::Col(*c),
        BoundExpr::Binary { op, lhs, rhs } if is_arith(*op) => EKernel::Arith {
            op: *op,
            lhs: Box::new(compile_expr(lhs, cols)),
            rhs: Box::new(compile_expr(rhs, cols)),
            expr: e,
        },
        BoundExpr::Neg(inner) => {
            EKernel::Unary { abs: false, inner: Box::new(compile_expr(inner, cols)), expr: e }
        }
        BoundExpr::Abs(inner) => {
            EKernel::Unary { abs: true, inner: Box::new(compile_expr(inner, cols)), expr: e }
        }
        _ => EKernel::RowWise(e),
    }
}

fn collect_expr_cols(k: &EKernel<'_>, out: &mut Vec<usize>) {
    match k {
        EKernel::Col(c) => out.push(*c),
        EKernel::Arith { lhs, rhs, .. } => {
            collect_expr_cols(lhs, out);
            collect_expr_cols(rhs, out);
        }
        EKernel::Unary { inner, .. } => collect_expr_cols(inner, out),
        EKernel::Const(_) | EKernel::RowWise(_) => {}
    }
}

/// One expression's values for a batch. Entries are meaningful only at
/// active row positions; everything else is a don't-care (typed
/// variants pre-allocate full-length vectors so indexing stays direct).
enum VOut<'a> {
    Ints(Vec<i64>, NullMask),
    Floats(Vec<f64>, NullMask),
    /// A borrowed batch column (bare column reference, zero copies).
    Borrowed(&'a Col),
    /// A row-independent result, broadcast to every active row.
    Scalar(Value),
    /// Generic per-row values from the row-wise fallback.
    Vals(Vec<Value>),
}

impl VOut<'_> {
    fn value_at(&self, i: usize) -> Value {
        match self {
            VOut::Ints(v, n) => {
                if n.get(i) {
                    Value::Null
                } else {
                    Value::Int(v[i])
                }
            }
            VOut::Floats(v, n) => {
                if n.get(i) {
                    Value::Null
                } else {
                    Value::Float(v[i])
                }
            }
            VOut::Borrowed(c) => c.value(i),
            VOut::Scalar(v) => v.clone(),
            VOut::Vals(v) => v[i].clone(),
        }
    }

    /// `self.value_at(i).cmp_total(other)`, typed where both sides are:
    /// no text value is built, and Int against Int is an integer compare.
    #[inline]
    fn cmp_at(&self, i: usize, other: &Value) -> std::cmp::Ordering {
        match (self, other) {
            (VOut::Borrowed(Col::I64(c)), Value::Int(x)) if !c.nulls.get(i) => c.values[i].cmp(x),
            (VOut::Ints(v, n), Value::Int(x)) if !n.get(i) => v[i].cmp(x),
            (VOut::Borrowed(Col::Str(c)), Value::Text(t)) if !c.nulls.get(i) => {
                c.values[i].as_str().cmp(t)
            }
            // Text against anything else orders by type rank alone.
            (VOut::Borrowed(Col::Str(c)), _) if !c.nulls.get(i) => {
                Value::Text(String::new()).cmp_total(other)
            }
            (VOut::Scalar(v), _) => v.cmp_total(other),
            (VOut::Vals(v), _) => v[i].cmp_total(other),
            // Floats, booleans, NULLs and mixed numerics cost nothing
            // to build.
            _ => self.value_at(i).cmp_total(other),
        }
    }
}

/// Row `i`'s ORDER BY keys, read from the sort kernels' outputs.
struct KeysAt<'a, 'b> {
    outs: &'a [VOut<'b>],
    i: usize,
}

impl SortKeys for KeysAt<'_, '_> {
    #[inline]
    fn cmp_key(&self, j: usize, kept: &Value) -> std::cmp::Ordering {
        self.outs[j].cmp_at(self.i, kept)
    }
    fn key(&self, j: usize) -> Value {
        self.outs[j].value_at(self.i)
    }
}

/// A numeric per-row view over a [`VOut`] operand, or `None` when the
/// operand is not statically numeric (then the arithmetic kernel falls
/// back to row-wise evaluation of the original expression, reproducing
/// the row path's coercion errors).
#[derive(Clone, Copy)]
enum NumSide<'v> {
    Int { values: &'v [i64], nulls: &'v NullMask },
    Float { values: &'v [f64], nulls: &'v NullMask },
    ConstInt(i64),
    ConstFloat(f64),
    ConstNull,
}

fn num_side<'v>(out: &'v VOut<'_>) -> Option<NumSide<'v>> {
    match out {
        VOut::Ints(v, n) => Some(NumSide::Int { values: v, nulls: n }),
        VOut::Floats(v, n) => Some(NumSide::Float { values: v, nulls: n }),
        VOut::Borrowed(Col::I64(c)) => Some(NumSide::Int { values: &c.values, nulls: &c.nulls }),
        VOut::Borrowed(Col::F64(c)) => Some(NumSide::Float { values: &c.values, nulls: &c.nulls }),
        VOut::Scalar(Value::Int(x)) => Some(NumSide::ConstInt(*x)),
        VOut::Scalar(Value::Float(x)) => Some(NumSide::ConstFloat(*x)),
        VOut::Scalar(Value::Null) => Some(NumSide::ConstNull),
        _ => None,
    }
}

impl NumSide<'_> {
    fn is_int(&self) -> bool {
        matches!(self, NumSide::Int { .. } | NumSide::ConstInt(_))
    }

    /// `None` = NULL at row `i`. Only called on Int-kind sides.
    #[inline]
    fn int_at(&self, i: usize) -> Option<i64> {
        match self {
            NumSide::Int { values, nulls } => (!nulls.get(i)).then(|| values[i]),
            NumSide::ConstInt(x) => Some(*x),
            _ => unreachable!("int_at on non-Int side"),
        }
    }

    /// `None` = NULL at row `i`; Ints coerce like the row path's
    /// `as_float`.
    #[inline]
    fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            NumSide::Int { values, nulls } => (!nulls.get(i)).then(|| values[i] as f64),
            NumSide::Float { values, nulls } => (!nulls.get(i)).then(|| values[i]),
            NumSide::ConstInt(x) => Some(*x as f64),
            NumSide::ConstFloat(x) => Some(*x),
            NumSide::ConstNull => None,
        }
    }
}

/// Evaluates a kernel for every active row. NULL handling mirrors the
/// row path's `arith` exactly: operands are fully evaluated first (so
/// operand errors always surface), then a NULL on either side yields
/// NULL with *no* overflow/division check — `NULL / 0` is NULL, not an
/// error.
fn eval_kernel<'a>(
    k: &EKernel<'_>,
    b: &'a ColumnarBatch,
    rows: &[&[Value]],
    params: &[Value],
    active: &SelVec,
) -> Result<VOut<'a>> {
    match k {
        EKernel::Col(c) => Ok(VOut::Borrowed(b.col(*c).expect("kernel column materialized"))),
        EKernel::Const(e) => {
            if !active.any() {
                return Ok(VOut::Scalar(Value::Null)); // never read
            }
            let ctx = EvalCtx { row: &[], params, aggs: &[] };
            Ok(VOut::Scalar(e.eval(&ctx)?))
        }
        EKernel::Arith { op, lhs, rhs, expr } => {
            if !active.any() {
                return Ok(VOut::Scalar(Value::Null));
            }
            let l = eval_kernel(lhs, b, rows, params, active)?;
            let r = eval_kernel(rhs, b, rows, params, active)?;
            match (num_side(&l), num_side(&r)) {
                // A constant NULL operand nulls every row — but only
                // after both operands evaluated (above), and only when
                // the other side is numeric: a Text column would make
                // the row path error per non-null row, handled by the
                // fallback arm.
                (Some(NumSide::ConstNull), Some(_)) | (Some(_), Some(NumSide::ConstNull)) => {
                    Ok(VOut::Scalar(Value::Null))
                }
                (Some(ls), Some(rs)) => {
                    if ls.is_int() && rs.is_int() {
                        arith_int(*op, &ls, &rs, active, rows.len())
                    } else {
                        arith_float(*op, &ls, &rs, active, rows.len())
                    }
                }
                _ => eval_rowwise(expr, rows, params, active),
            }
        }
        EKernel::Unary { abs, inner, expr } => {
            if !active.any() {
                return Ok(VOut::Scalar(Value::Null));
            }
            let v = eval_kernel(inner, b, rows, params, active)?;
            match num_side(&v) {
                Some(NumSide::ConstNull) => Ok(VOut::Scalar(Value::Null)),
                Some(side) if side.is_int() => {
                    let mut values = vec![0i64; rows.len()];
                    let mut nulls = NullMask::new(rows.len());
                    for i in active.iter_ones() {
                        match side.int_at(i) {
                            Some(a) => {
                                values[i] = if *abs {
                                    a.checked_abs().ok_or_else(|| {
                                        Error::Eval("integer overflow in ABS".into())
                                    })?
                                } else {
                                    a.checked_neg().ok_or_else(|| {
                                        Error::Eval("integer overflow in negation".into())
                                    })?
                                };
                            }
                            None => nulls.set(i),
                        }
                    }
                    Ok(VOut::Ints(values, nulls))
                }
                Some(side) => {
                    let mut values = vec![0f64; rows.len()];
                    let mut nulls = NullMask::new(rows.len());
                    for i in active.iter_ones() {
                        match side.f64_at(i) {
                            // canonicalize_nan: bit-parity with the row
                            // path's `Value::float` results.
                            Some(a) => {
                                values[i] = canonicalize_nan(if *abs { a.abs() } else { -a });
                            }
                            None => nulls.set(i),
                        }
                    }
                    Ok(VOut::Floats(values, nulls))
                }
                None => eval_rowwise(expr, rows, params, active),
            }
        }
        EKernel::RowWise(e) => eval_rowwise(e, rows, params, active),
    }
}

fn eval_rowwise<'a>(
    e: &BoundExpr,
    rows: &[&[Value]],
    params: &[Value],
    active: &SelVec,
) -> Result<VOut<'a>> {
    let mut vals = vec![Value::Null; rows.len()];
    for i in active.iter_ones() {
        let ctx = EvalCtx { row: rows[i], params, aggs: &[] };
        vals[i] = e.eval(&ctx)?;
    }
    Ok(VOut::Vals(vals))
}

/// Int ⊕ Int with the row path's checked semantics: NULL on either side
/// propagates *before* any division/overflow check; division or modulo
/// by zero and overflow are errors at the first offending row in scan
/// order.
fn arith_int<'a>(
    op: BinOp,
    l: &NumSide<'_>,
    r: &NumSide<'_>,
    active: &SelVec,
    len: usize,
) -> Result<VOut<'a>> {
    let mut values = vec![0i64; len];
    let mut nulls = NullMask::new(len);
    for i in active.iter_ones() {
        match (l.int_at(i), r.int_at(i)) {
            (Some(a), Some(b)) => {
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
                    _ => unreachable!("non-arith op in Arith kernel"),
                };
                values[i] = out.ok_or_else(|| Error::Eval("integer overflow".into()))?;
            }
            _ => nulls.set(i),
        }
    }
    Ok(VOut::Ints(values, nulls))
}

/// Mixed/float arithmetic: both sides coerce through `as_float`
/// semantics; float division by zero is infinity, not an error — same
/// as the row path.
fn arith_float<'a>(
    op: BinOp,
    l: &NumSide<'_>,
    r: &NumSide<'_>,
    active: &SelVec,
    len: usize,
) -> Result<VOut<'a>> {
    let mut values = vec![0f64; len];
    let mut nulls = NullMask::new(len);
    for i in active.iter_ones() {
        match (l.f64_at(i), r.f64_at(i)) {
            (Some(a), Some(b)) => {
                // canonicalize_nan: NaN payload propagation is operand-
                // order dependent on x86, and this loop's codegen need
                // not order operands like the row path's.
                values[i] = canonicalize_nan(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Mod => a % b,
                    _ => unreachable!("non-arith op in Arith kernel"),
                });
            }
            _ => nulls.set(i),
        }
    }
    Ok(VOut::Floats(values, nulls))
}

// ----------------------------------------------------------------------
// Hash group-by
// ----------------------------------------------------------------------

/// The key pass of hash GROUP BY: interns every selected row's group key
/// ([`Groups`]: dense slots, first-seen key kept) and leaves one
/// (row, slot) pair per row in `pairs`, in ascending row order. A single
/// Int-typed key hashes as a raw `i64`; anything else as a key row built
/// in the reused `key` buffer. Which of the two a statement takes depends
/// only on column dtypes and statement constants, so it never changes
/// between batches ([`Groups::finish`] asserts it).
fn intern_keys(
    groups: &mut Groups<'_>,
    kouts: &[VOut<'_>],
    sel: &SelVec,
    key: &mut Vec<Value>,
    pairs: &mut Vec<(u32, u32)>,
) {
    pairs.clear();
    if let [VOut::Ints(kv, kn)] | [VOut::Borrowed(Col::I64(ColI64 { values: kv, nulls: kn }))] = kouts
    {
        for i in sel.iter_ones() {
            let slot = groups.slot_of_int((!kn.get(i)).then(|| kv[i]));
            pairs.push((i as u32, slot as u32));
        }
        return;
    }
    for i in sel.iter_ones() {
        key.clear();
        key.extend(kouts.iter().map(|k| k.value_at(i)));
        pairs.push((i as u32, groups.slot_of(key) as u32));
    }
}

/// Column-at-a-time aggregate accumulation: one pass over the batch's
/// (row, slot) pairs per aggregate, in ascending row order (so float
/// sums and integer-overflow points per group match the row path
/// exactly). Numeric argument kernels feed typed loops straight into the
/// aggregate's accumulator vector; anything else goes through
/// [`AccCol::feed`]. The only observable difference from the row path's
/// row-at-a-time feed is *which* of several erroring (row, aggregate)
/// pairs surfaces its error within a batch — error presence always
/// matches, since both paths touch the same pairs up to the first error.
fn feed_aggs(
    accs: &mut [AccCol],
    aggs: &[AggSpec],
    aouts: &[Option<VOut<'_>>],
    pairs: &[(u32, u32)],
) -> Result<()> {
    for ((acc, spec), out) in accs.iter_mut().zip(aggs).zip(aouts) {
        let Some(o) = out else {
            // COUNT(*): count the row, no value needed.
            let counts = acc.counts();
            for &(_, slot) in pairs {
                counts[slot as usize] += 1;
            }
            continue;
        };
        let side = if spec.distinct { None } else { num_side(o) };
        match (side, spec.func) {
            // NULL argument: SQL aggregates skip every row.
            (Some(NumSide::ConstNull), _) => {}
            (Some(side), AggFunc::Count) => {
                let counts = acc.counts();
                for &(i, slot) in pairs {
                    counts[slot as usize] += u64::from(side.f64_at(i as usize).is_some());
                }
            }
            (Some(side), AggFunc::Sum | AggFunc::Avg) => {
                let sums = acc.sums();
                if side.is_int() {
                    for &(i, slot) in pairs {
                        if let Some(v) = side.int_at(i as usize) {
                            sums[slot as usize].add_int(v)?;
                        }
                    }
                } else {
                    for &(i, slot) in pairs {
                        if let Some(v) = side.f64_at(i as usize) {
                            sums[slot as usize].add_float(v);
                        }
                    }
                }
            }
            // The running extreme of a typed column is compared in place;
            // `offer_extreme` only sees a slot's first value.
            (Some(side), AggFunc::Min | AggFunc::Max) => {
                let (best, want) = (acc.extremes(), extreme_of(spec.func));
                for &(i, slot) in pairs {
                    let best = &mut best[slot as usize];
                    if side.is_int() {
                        match (side.int_at(i as usize), &mut *best) {
                            (Some(v), Some(Value::Int(m))) => {
                                if v.cmp(m) == want {
                                    *m = v;
                                }
                            }
                            (Some(v), _) => offer_extreme(best, Value::Int(v), want),
                            (None, _) => {}
                        }
                    } else {
                        match (side.f64_at(i as usize), &mut *best) {
                            (Some(v), Some(Value::Float(m))) => {
                                if v.total_cmp(m) == want {
                                    *m = v;
                                }
                            }
                            (Some(v), _) => offer_extreme(best, Value::Float(v), want),
                            (None, _) => {}
                        }
                    }
                }
            }
            // DISTINCT, text/bool columns, row-wise fallback outputs:
            // the same eval → NULL-skip → feed sequence as the row path.
            (None, _) => {
                for &(i, slot) in pairs {
                    let v = o.value_at(i as usize);
                    if !v.is_null() {
                        acc.feed(spec.func, slot as usize, v)?;
                    }
                }
            }
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Predicate compilation + vectorized evaluation
// ----------------------------------------------------------------------

/// A WHERE predicate compiled for batch evaluation. Fast nodes run
/// typed loops over materialized columns; `RowWise` falls back to the
/// row path's expression evaluator on the borrowed row.
enum PredNode<'s> {
    And(Box<PredNode<'s>>, Box<PredNode<'s>>),
    Or(Box<PredNode<'s>>, Box<PredNode<'s>>),
    Not(Box<PredNode<'s>>),
    /// `col <op> <row-independent>` (column side normalized to the
    /// left; the other side is evaluated once per batch, and only when
    /// some row is active).
    Cmp { col: usize, op: BinOp, rhs: &'s BoundExpr },
    /// `col BETWEEN lo AND hi` with row-independent bounds. Kept as one
    /// node (not desugared to AND) because the row path evaluates both
    /// bounds for every active row — error behavior must match.
    Between { col: usize, lo: &'s BoundExpr, hi: &'s BoundExpr, negated: bool },
    /// `col IS [NOT] NULL` off the null bitmap.
    NullTest { col: usize, negated: bool },
    /// A bare boolean column used as the predicate.
    BoolCol(usize),
    /// Fallback: per-row evaluation of the original expression.
    RowWise(&'s BoundExpr),
}

fn is_cmp(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq)
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other, // Eq / NotEq are symmetric
    }
}

fn compile_pred<'s>(e: &'s BoundExpr, cols: &[Column]) -> PredNode<'s> {
    match e {
        BoundExpr::Binary { op: BinOp::And, lhs, rhs } => PredNode::And(
            Box::new(compile_pred(lhs, cols)),
            Box::new(compile_pred(rhs, cols)),
        ),
        BoundExpr::Binary { op: BinOp::Or, lhs, rhs } => PredNode::Or(
            Box::new(compile_pred(lhs, cols)),
            Box::new(compile_pred(rhs, cols)),
        ),
        BoundExpr::Not(inner) => PredNode::Not(Box::new(compile_pred(inner, cols))),
        BoundExpr::Binary { op, lhs, rhs } if is_cmp(*op) => {
            if let BoundExpr::Column(c) = &**lhs {
                if *c < cols.len() && rhs.is_row_independent() {
                    return PredNode::Cmp { col: *c, op: *op, rhs };
                }
            }
            if let BoundExpr::Column(c) = &**rhs {
                if *c < cols.len() && lhs.is_row_independent() {
                    return PredNode::Cmp { col: *c, op: flip(*op), rhs: lhs };
                }
            }
            PredNode::RowWise(e)
        }
        BoundExpr::IsNull { expr, negated } => match &**expr {
            BoundExpr::Column(c) if *c < cols.len() => {
                PredNode::NullTest { col: *c, negated: *negated }
            }
            _ => PredNode::RowWise(e),
        },
        BoundExpr::Between { expr, lo, hi, negated } => match &**expr {
            BoundExpr::Column(c)
                if *c < cols.len() && lo.is_row_independent() && hi.is_row_independent() =>
            {
                PredNode::Between { col: *c, lo, hi, negated: *negated }
            }
            _ => PredNode::RowWise(e),
        },
        BoundExpr::Column(c) if cols.get(*c).is_some_and(|col| col.dtype == DataType::Bool) => {
            PredNode::BoolCol(*c)
        }
        _ => PredNode::RowWise(e),
    }
}

fn collect_cols(node: &PredNode<'_>, out: &mut Vec<usize>) {
    match node {
        PredNode::And(a, b) | PredNode::Or(a, b) => {
            collect_cols(a, out);
            collect_cols(b, out);
        }
        PredNode::Not(a) => collect_cols(a, out),
        PredNode::Cmp { col, .. }
        | PredNode::Between { col, .. }
        | PredNode::NullTest { col, .. }
        | PredNode::BoolCol(col) => out.push(*col),
        PredNode::RowWise(_) => {}
    }
}

fn kleene_and_u8(l: u8, r: u8) -> u8 {
    if l == T_FALSE || r == T_FALSE {
        T_FALSE
    } else if l == T_TRUE && r == T_TRUE {
        T_TRUE
    } else {
        T_NULL
    }
}

fn kleene_or_u8(l: u8, r: u8) -> u8 {
    if l == T_TRUE || r == T_TRUE {
        T_TRUE
    } else if l == T_FALSE && r == T_FALSE {
        T_FALSE
    } else {
        T_NULL
    }
}

/// Evaluates `node` for every row in `active`, writing SQL truth values
/// into `truth` at those positions (other positions are untouched
/// don't-cares).
fn eval_pred(
    node: &PredNode<'_>,
    b: &ColumnarBatch,
    rows: &[&[Value]],
    params: &[Value],
    active: &SelVec,
    truth: &mut [u8],
) -> Result<()> {
    match node {
        PredNode::And(lhs, rhs) => {
            eval_pred(lhs, b, rows, params, active, truth)?;
            // Kleene short-circuit: the right side exists only for rows
            // where the left is not FALSE.
            let mut rhs_active = SelVec::none(rows.len());
            for i in active.iter_ones() {
                if truth[i] != T_FALSE {
                    rhs_active.set(i);
                }
            }
            if rhs_active.any() {
                let mut rt = vec![T_FALSE; rows.len()];
                eval_pred(rhs, b, rows, params, &rhs_active, &mut rt)?;
                for i in rhs_active.iter_ones() {
                    truth[i] = kleene_and_u8(truth[i], rt[i]);
                }
            }
        }
        PredNode::Or(lhs, rhs) => {
            eval_pred(lhs, b, rows, params, active, truth)?;
            let mut rhs_active = SelVec::none(rows.len());
            for i in active.iter_ones() {
                if truth[i] != T_TRUE {
                    rhs_active.set(i);
                }
            }
            if rhs_active.any() {
                let mut rt = vec![T_FALSE; rows.len()];
                eval_pred(rhs, b, rows, params, &rhs_active, &mut rt)?;
                for i in rhs_active.iter_ones() {
                    truth[i] = kleene_or_u8(truth[i], rt[i]);
                }
            }
        }
        PredNode::Not(inner) => {
            eval_pred(inner, b, rows, params, active, truth)?;
            for i in active.iter_ones() {
                truth[i] = match truth[i] {
                    T_TRUE => T_FALSE,
                    T_FALSE => T_TRUE,
                    _ => T_NULL,
                };
            }
        }
        PredNode::Cmp { col, op, rhs } => {
            if !active.any() {
                return Ok(());
            }
            let ctx = EvalCtx { row: &[], params, aggs: &[] };
            let rv = rhs.eval(&ctx)?;
            let c = b.col(*col).expect("cmp column materialized");
            cmp_col_value(c, &rv, *op, active, truth);
        }
        PredNode::Between { col, lo, hi, negated } => {
            if !active.any() {
                return Ok(());
            }
            let ctx = EvalCtx { row: &[], params, aggs: &[] };
            let lo_v = lo.eval(&ctx)?;
            let hi_v = hi.eval(&ctx)?;
            let c = b.col(*col).expect("between column materialized");
            let mut t_lo = vec![T_FALSE; rows.len()];
            let mut t_hi = vec![T_FALSE; rows.len()];
            cmp_col_value(c, &lo_v, BinOp::GtEq, active, &mut t_lo);
            cmp_col_value(c, &hi_v, BinOp::LtEq, active, &mut t_hi);
            for i in active.iter_ones() {
                let both = kleene_and_u8(t_lo[i], t_hi[i]);
                truth[i] = if *negated {
                    match both {
                        T_TRUE => T_FALSE,
                        T_FALSE => T_TRUE,
                        _ => T_NULL,
                    }
                } else {
                    both
                };
            }
        }
        PredNode::NullTest { col, negated } => {
            let c = b.col(*col).expect("null-test column materialized");
            for i in active.iter_ones() {
                truth[i] = if c.is_null(i) != *negated { T_TRUE } else { T_FALSE };
            }
        }
        PredNode::BoolCol(col) => {
            let Some(Col::Bool(c)) = b.col(*col) else {
                unreachable!("BoolCol compiled only for Bool columns")
            };
            for i in active.iter_ones() {
                truth[i] = if c.nulls.get(i) {
                    T_NULL
                } else if c.values[i] {
                    T_TRUE
                } else {
                    T_FALSE
                };
            }
        }
        PredNode::RowWise(e) => {
            for i in active.iter_ones() {
                let ctx = EvalCtx { row: rows[i], params, aggs: &[] };
                let v = e.eval(&ctx)?;
                truth[i] = match value_to_truth(&v)? {
                    Some(true) => T_TRUE,
                    Some(false) => T_FALSE,
                    None => T_NULL,
                };
            }
        }
    }
    Ok(())
}

/// Fills `truth` for `col <op> rhs` over the active rows with typed
/// comparison loops. Cross-type pairs follow [`Value::cmp_total`]: Int
/// and Float compare numerically; any other mismatched pair compares by
/// type rank, which is value-independent and therefore resolved once
/// per batch.
fn cmp_col_value(c: &Col, rhs: &Value, op: BinOp, active: &SelVec, truth: &mut [u8]) {
    if rhs.is_null() {
        for i in active.iter_ones() {
            truth[i] = T_NULL;
        }
        return;
    }
    use std::cmp::Ordering;
    match (c, rhs) {
        (Col::I64(col), Value::Int(x)) => {
            let x = *x;
            cmp_fill(active, truth, op, |i| col.nulls.get(i), |i| col.values[i].cmp(&x));
        }
        (Col::I64(col), Value::Float(x)) => {
            let x = *x;
            cmp_fill(active, truth, op, |i| col.nulls.get(i), |i| {
                sstore_common::value::cmp_int_float(col.values[i], x)
            });
        }
        (Col::F64(col), Value::Float(x)) => {
            let x = *x;
            cmp_fill(active, truth, op, |i| col.nulls.get(i), |i| col.values[i].total_cmp(&x));
        }
        (Col::F64(col), Value::Int(x)) => {
            let x = *x;
            cmp_fill(active, truth, op, |i| col.nulls.get(i), |i| {
                sstore_common::value::cmp_int_float(x, col.values[i]).reverse()
            });
        }
        (Col::Str(col), Value::Text(x)) => {
            cmp_fill(active, truth, op, |i| col.nulls.get(i), |i| {
                col.values[i].as_str().cmp(x.as_str())
            });
        }
        (Col::Bool(col), Value::Bool(x)) => {
            cmp_fill(active, truth, op, |i| col.nulls.get(i), |i| col.values[i].cmp(x));
        }
        _ => {
            // Mismatched types: ordering is decided by type rank alone.
            let ord = c.type_representative().cmp_total(rhs);
            let t = truth_of_ord(ord, op);
            for i in active.iter_ones() {
                truth[i] = if c.is_null(i) { T_NULL } else { t };
            }
        }
    }

    fn truth_of_ord(ord: Ordering, op: BinOp) -> u8 {
        let hit = match op {
            BinOp::Eq => ord == Ordering::Equal,
            BinOp::NotEq => ord != Ordering::Equal,
            BinOp::Lt => ord == Ordering::Less,
            BinOp::LtEq => ord != Ordering::Greater,
            BinOp::Gt => ord == Ordering::Greater,
            BinOp::GtEq => ord != Ordering::Less,
            _ => unreachable!("non-comparison op in Cmp node"),
        };
        if hit {
            T_TRUE
        } else {
            T_FALSE
        }
    }

    fn cmp_fill(
        active: &SelVec,
        truth: &mut [u8],
        op: BinOp,
        is_null: impl Fn(usize) -> bool,
        ord_of: impl Fn(usize) -> Ordering,
    ) {
        // One monomorphized tight loop per (column type, operator).
        match op {
            BinOp::Eq => fill(active, truth, is_null, |i| ord_of(i) == Ordering::Equal),
            BinOp::NotEq => fill(active, truth, is_null, |i| ord_of(i) != Ordering::Equal),
            BinOp::Lt => fill(active, truth, is_null, |i| ord_of(i) == Ordering::Less),
            BinOp::LtEq => fill(active, truth, is_null, |i| ord_of(i) != Ordering::Greater),
            BinOp::Gt => fill(active, truth, is_null, |i| ord_of(i) == Ordering::Greater),
            BinOp::GtEq => fill(active, truth, is_null, |i| ord_of(i) != Ordering::Less),
            _ => unreachable!("non-comparison op in Cmp node"),
        }
    }

    fn fill(
        active: &SelVec,
        truth: &mut [u8],
        is_null: impl Fn(usize) -> bool,
        hit: impl Fn(usize) -> bool,
    ) {
        for i in active.iter_ones() {
            truth[i] = if is_null(i) {
                T_NULL
            } else if hit(i) {
                T_TRUE
            } else {
                T_FALSE
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_select_rows, run_select_rows_rowwise};
    use crate::plan::{BoundStatement, Planner};
    use sstore_common::{tuple, Schema};
    use sstore_storage::TableKind;

    fn setup() -> Catalog {
        let mut c = Catalog::new();
        let t = c
            .create_table(
                "m",
                TableKind::Base,
                Schema::new(vec![
                    sstore_common::Column::new("k", DataType::Int),
                    sstore_common::Column::nullable("v", DataType::Int),
                    sstore_common::Column::nullable("f", DataType::Float),
                    sstore_common::Column::nullable("s", DataType::Text),
                    sstore_common::Column::nullable("b", DataType::Bool),
                ])
                .unwrap(),
            )
            .unwrap();
        let rows: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Int(10), Value::Float(0.5), "a".into(), Value::Bool(true)],
            vec![Value::Int(2), Value::Null, Value::Null, Value::Null, Value::Null],
            vec![Value::Int(3), Value::Int(-7), Value::Float(2.5), "b".into(), Value::Bool(false)],
            vec![Value::Int(4), Value::Int(10), Value::Float(-1.0), "c".into(), Value::Bool(true)],
            vec![Value::Int(5), Value::Int(0), Value::Float(0.0), "a".into(), Value::Bool(false)],
        ];
        for r in rows {
            t.insert(Tuple::new(r)).unwrap();
        }
        c
    }

    fn both_ways(c: &Catalog, sql: &str) -> (Vec<Tuple>, Vec<Tuple>) {
        let stmt = Planner::new(c).plan_sql(sql).unwrap();
        let BoundStatement::Select(s) = &stmt else { panic!("not a select") };
        assert!(eligible(s), "query should be columnar-eligible: {sql}");
        let columnar = run_select_columnar(c, s, &[]).unwrap();
        let rowwise = run_select_rows_rowwise(c, s, &[]).unwrap();
        (columnar, rowwise)
    }

    #[test]
    fn filters_agree_with_row_path() {
        let c = setup();
        for sql in [
            "SELECT k FROM m WHERE v = 10",
            "SELECT k FROM m WHERE v > 0",
            "SELECT k FROM m WHERE v <> 10",
            "SELECT k FROM m WHERE 0 <= v",
            "SELECT k FROM m WHERE f < 1",
            "SELECT k FROM m WHERE f >= 0.0",
            "SELECT k FROM m WHERE s = 'a'",
            "SELECT k FROM m WHERE s > 'a'",
            "SELECT k FROM m WHERE b",
            "SELECT k FROM m WHERE b = true",
            "SELECT k FROM m WHERE v IS NULL",
            "SELECT k FROM m WHERE v IS NOT NULL",
            "SELECT k FROM m WHERE v BETWEEN 0 AND 10",
            "SELECT k FROM m WHERE v NOT BETWEEN 0 AND 10",
            "SELECT k FROM m WHERE v > 0 AND f > 0",
            "SELECT k FROM m WHERE v > 0 OR s = 'c'",
            "SELECT k FROM m WHERE NOT (v > 0)",
            "SELECT k FROM m WHERE v IN (0, 10)",
            "SELECT k FROM m WHERE k % 2 = 1",
            "SELECT k FROM m WHERE v = f",
            "SELECT k FROM m WHERE v > 'zebra'",
            "SELECT k FROM m WHERE s < 5",
        ] {
            let (col, row) = both_ways(&c, sql);
            assert_eq!(col, row, "{sql}");
        }
    }

    #[test]
    fn aggregates_agree_with_row_path() {
        let c = setup();
        for sql in [
            "SELECT COUNT(*) FROM m",
            "SELECT COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM m",
            "SELECT SUM(f), MIN(f), MAX(f) FROM m",
            "SELECT COUNT(DISTINCT v), MIN(s), MAX(s) FROM m",
            "SELECT SUM(v) FROM m WHERE k > 3",
            "SELECT SUM(v + 1) FROM m",
            "SELECT v, COUNT(*) FROM m GROUP BY v",
            "SELECT s, SUM(v) FROM m GROUP BY s HAVING COUNT(*) > 1",
            "SELECT k, v FROM m ORDER BY v DESC, k LIMIT 3",
            "SELECT COUNT(*) FROM m WHERE v = -99",
        ] {
            let (col, row) = both_ways(&c, sql);
            assert_eq!(col, row, "{sql}");
        }
    }

    #[test]
    fn phase2_shapes_agree_with_row_path() {
        let c = setup();
        for sql in [
            // Expression kernels: Int, Float, mixed, unary, NULL
            // propagation, and a row-wise fallback (s in projection
            // arithmetic errors per non-null row — covered below).
            "SELECT k + 1, v * 2, f + v, -v, ABS(v), v % 3 FROM m",
            "SELECT k, v + NULL FROM m",
            "SELECT f / 0.0, f / 2 FROM m", // float div-by-zero is inf, not an error
            // Hash group-by: single Int key, Float key, Text key,
            // multi-column with NULLs, expression keys, computed
            // aggregate arguments, HAVING, ORDER BY over keys.
            "SELECT v, COUNT(*), SUM(v), MIN(f), MAX(s) FROM m GROUP BY v",
            "SELECT f, COUNT(*) FROM m GROUP BY f",
            "SELECT s, v, COUNT(*), SUM(v + 1) FROM m GROUP BY s, v",
            "SELECT v % 2, COUNT(*), AVG(f) FROM m GROUP BY v % 2",
            "SELECT v + 1, COUNT(DISTINCT s) FROM m GROUP BY v + 1 HAVING COUNT(*) >= 1",
            "SELECT s, COUNT(*) FROM m WHERE v IS NOT NULL GROUP BY s ORDER BY s DESC",
            // Top-K through both executors.
            "SELECT k, v FROM m ORDER BY v, k LIMIT 2",
            "SELECT s, COUNT(*) FROM m GROUP BY s ORDER BY COUNT(*) DESC LIMIT 1",
        ] {
            let (col, row) = both_ways(&c, sql);
            assert_eq!(col, row, "{sql}");
        }
    }

    #[test]
    fn phase2_errors_match_row_path() {
        let c = setup();
        for sql in [
            "SELECT s + 1 FROM m",                     // Text arithmetic (kernel fallback)
            "SELECT v / 0 FROM m",                     // integer division by zero
            "SELECT v, SUM(s) FROM m GROUP BY v",      // SUM over text per group
            "SELECT s + 1, COUNT(*) FROM m GROUP BY s + 1", // erroring group key
            "SELECT -s FROM m",                        // negate text (unary fallback)
        ] {
            let stmt = Planner::new(&c).plan_sql(sql).unwrap();
            let BoundStatement::Select(s) = &stmt else { panic!() };
            assert!(run_select_columnar(&c, s, &[]).is_err(), "{sql}");
            assert!(run_select_rows_rowwise(&c, s, &[]).is_err(), "{sql}");
        }
        // NULL / 0 is NULL (the row path checks NULL before the zero
        // divisor) — on both executors.
        let stmt =
            Planner::new(&c).plan_sql("SELECT k FROM m WHERE v / 0 > 1 AND v IS NULL").unwrap();
        let BoundStatement::Select(s) = &stmt else { panic!() };
        // All rows with non-null v hit the division error in both.
        assert!(run_select_columnar(&c, s, &[]).is_err());
        assert!(run_select_rows_rowwise(&c, s, &[]).is_err());
    }

    #[test]
    fn fallback_reasons_are_counted() {
        let mut c = setup();
        let _ = batch::take_path_counters();
        let stmt = Planner::new(&c).plan_sql("SELECT COUNT(*) FROM m").unwrap();
        let BoundStatement::Select(s) = &stmt else { panic!() };
        // 5 rows: small-table fallback.
        assert!(!use_columnar(&c, s));
        assert_eq!(batch::take_path_counters().fallback_small, 1);
        // Join: shape fallback.
        let j = Planner::new(&c).plan_sql("SELECT a.k FROM m a JOIN m b ON a.k = b.k").unwrap();
        let BoundStatement::Select(j) = &j else { panic!() };
        assert!(!use_columnar(&c, j));
        assert_eq!(batch::take_path_counters().fallback_shape, 1);
        // Past the cutoff the same plan dispatches columnar, with
        // identical results to the row-wise entry point.
        let t = c.table_mut("m").unwrap();
        for i in 0..COLUMNAR_MIN_ROWS as i64 {
            t.insert(tuple![100 + i, 1i64, 1.0f64, "q", false]).unwrap();
        }
        assert!(use_columnar(&c, s));
        let col = run_select_columnar(&c, s, &[]).unwrap();
        let row = run_select_rows_rowwise(&c, s, &[]).unwrap();
        assert_eq!(col, row);
        assert!(batch::take_path_counters().batches >= 1);
    }

    #[test]
    fn empty_table_agrees() {
        let mut c = Catalog::new();
        c.create_table(
            "e",
            TableKind::Base,
            Schema::of(&[("x", DataType::Int)]),
        )
        .unwrap();
        for sql in
            ["SELECT x FROM e", "SELECT COUNT(*), SUM(x) FROM e", "SELECT x, COUNT(*) FROM e GROUP BY x"]
        {
            let (col, row) = both_ways(&c, sql);
            assert_eq!(col, row, "{sql}");
        }
    }

    #[test]
    fn errors_match_row_path() {
        let c = setup();
        for sql in [
            "SELECT k FROM m WHERE v",              // non-boolean predicate
            "SELECT SUM(s) FROM m",                 // SUM over text
            "SELECT k FROM m WHERE v / 0 > 1",      // division by zero
        ] {
            let stmt = Planner::new(&c).plan_sql(sql).unwrap();
            let BoundStatement::Select(s) = &stmt else { panic!() };
            assert!(run_select_columnar(&c, s, &[]).is_err(), "{sql}");
            assert!(run_select_rows_rowwise(&c, s, &[]).is_err(), "{sql}");
        }
    }

    #[test]
    fn error_only_when_rows_exist() {
        // The row path never evaluates a predicate over an empty scan,
        // so `1/0` must not error on an empty table — and must on a
        // non-empty one.
        let mut c = Catalog::new();
        c.create_table("e", TableKind::Base, Schema::of(&[("x", DataType::Int)])).unwrap();
        let stmt = Planner::new(&c).plan_sql("SELECT x FROM e WHERE x > 1 / 0").unwrap();
        let BoundStatement::Select(s) = &stmt else { panic!() };
        assert!(run_select_columnar(&c, s, &[]).unwrap().is_empty());
        c.table_mut("e").unwrap().insert(tuple![1i64]).unwrap();
        assert!(run_select_columnar(&c, s, &[]).is_err());
        assert!(run_select_rows_rowwise(&c, s, &[]).is_err());
    }

    #[test]
    fn dispatch_and_batch_counter() {
        let mut c = setup();
        let stmt = Planner::new(&c).plan_sql("SELECT COUNT(*) FROM m WHERE v > 0").unwrap();
        let BoundStatement::Select(s) = &stmt else { panic!() };
        // 5 rows: eligible shape, but below the small-table cutoff.
        assert!(eligible(s));
        assert!(!use_columnar(&c, s), "tiny scans must stay row-at-a-time");
        let _ = batch::take_batch_count();
        let rows = run_select_rows(&c, s, &[]).unwrap();
        assert_eq!(rows, vec![tuple![2i64]]);
        assert_eq!(batch::take_batch_count(), 0);
        // Past the cutoff the same plan dispatches columnar.
        let t = c.table_mut("m").unwrap();
        for i in 0..COLUMNAR_MIN_ROWS as i64 {
            t.insert(tuple![100 + i, 1i64, 1.0f64, "q", false]).unwrap();
        }
        assert!(use_columnar(&c, s));
        let rows = run_select_rows(&c, s, &[]).unwrap();
        assert_eq!(rows, vec![tuple![2 + COLUMNAR_MIN_ROWS as i64]]);
        assert!(batch::take_batch_count() >= 1, "columnar path must note its batches");
        // Point lookups and joins stay on the row path.
        let ineligible =
            Planner::new(&c).plan_sql("SELECT a.k FROM m a JOIN m b ON a.k = b.k").unwrap();
        let BoundStatement::Select(j) = &ineligible else { panic!() };
        assert!(!eligible(j));
    }

    #[test]
    fn multi_chunk_scan_crosses_batch_boundary() {
        let mut c = Catalog::new();
        let t = c
            .create_table("big", TableKind::Base, Schema::of(&[("x", DataType::Int)]))
            .unwrap();
        let n = (BATCH_CAPACITY * 2 + 7) as i64;
        for i in 0..n {
            t.insert(tuple![i]).unwrap();
        }
        let _ = batch::take_batch_count();
        let (col, row) = both_ways(&c, "SELECT SUM(x), COUNT(*) FROM big WHERE x % 3 = 0");
        assert_eq!(col, row);
        assert_eq!(batch::take_batch_count(), 3, "2*1024+7 rows → 3 batches");
    }
}
