//! Bound expressions and their evaluation.
//!
//! A [`BoundExpr`] has every column reference resolved to a position in
//! the input row (for joins, the concatenation of the joined rows) and
//! every aggregate call replaced by a reference into the aggregate
//! result slots computed by the executor's GROUP BY stage.
//!
//! Evaluation implements SQL three-valued logic: comparisons with NULL
//! yield NULL, `AND`/`OR` follow Kleene semantics, and WHERE keeps a row
//! only when its predicate evaluates to `TRUE` (not NULL).

use std::borrow::Cow;

use sstore_common::{Error, Result, Value};

use crate::ast::{AggFunc, BinOp};

/// An executable expression. All names are resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Literal.
    Literal(Value),
    /// Statement parameter (0-based).
    Param(usize),
    /// Input row column (0-based position in the join row).
    Column(usize),
    /// Aggregate result slot (0-based; only valid post-aggregation).
    AggRef(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// Unary minus.
    Neg(Box<BoundExpr>),
    /// Logical NOT (3VL).
    Not(Box<BoundExpr>),
    /// IS NULL / IS NOT NULL.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// True for IS NOT NULL.
        negated: bool,
    },
    /// IN list (3VL).
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// True for NOT IN.
        negated: bool,
    },
    /// BETWEEN (inclusive both ends, 3VL).
    Between {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Lower bound.
        lo: Box<BoundExpr>,
        /// Upper bound.
        hi: Box<BoundExpr>,
        /// True for NOT BETWEEN.
        negated: bool,
    },
    /// ABS(expr).
    Abs(Box<BoundExpr>),
}

/// One aggregate computation requested by a query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Argument expression evaluated per input row; `None` = `COUNT(*)`.
    pub arg: Option<BoundExpr>,
    /// DISTINCT modifier.
    pub distinct: bool,
}

impl AggSpec {
    /// Structural identity (see [`BoundExpr::identical`]): safe to share
    /// one accumulator slot only when the specs are identical down to
    /// literal bits, since the argument's literal *type* decides the
    /// aggregate's result type.
    pub fn identical(&self, other: &AggSpec) -> bool {
        self.func == other.func
            && self.distinct == other.distinct
            && match (&self.arg, &other.arg) {
                (None, None) => true,
                (Some(a), Some(b)) => a.identical(b),
                _ => false,
            }
    }
}

/// Evaluation context: the input row, statement parameters, and (after
/// aggregation) the aggregate result slots.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Current input row (join-concatenated).
    pub row: &'a [Value],
    /// Bound statement parameters.
    pub params: &'a [Value],
    /// Aggregate results for the current group (empty pre-aggregation).
    pub aggs: &'a [Value],
}

impl BoundExpr {
    /// Structural identity: shape-equal with literals compared by
    /// [`Value::identical`] (discriminant + bits), not numerically.
    ///
    /// The derived `PartialEq` sees `Literal(Int(3))` == `Literal(Float(3.0))`
    /// because `Value`'s total order equates them. Plan-time decisions that
    /// merge "the same" expression — aggregate-slot dedup in particular —
    /// must not identify those two: `MIN(3)` is `Int(3)` but `MIN(3.0)` is
    /// `Float(3.0)`, and constant folding routinely produces such literal
    /// pairs from differently-typed arithmetic.
    pub fn identical(&self, other: &BoundExpr) -> bool {
        match (self, other) {
            (BoundExpr::Literal(a), BoundExpr::Literal(b)) => a.identical(b),
            (BoundExpr::Param(a), BoundExpr::Param(b)) => a == b,
            (BoundExpr::Column(a), BoundExpr::Column(b)) => a == b,
            (BoundExpr::AggRef(a), BoundExpr::AggRef(b)) => a == b,
            (
                BoundExpr::Binary { op: o1, lhs: l1, rhs: r1 },
                BoundExpr::Binary { op: o2, lhs: l2, rhs: r2 },
            ) => o1 == o2 && l1.identical(l2) && r1.identical(r2),
            (BoundExpr::Neg(a), BoundExpr::Neg(b))
            | (BoundExpr::Not(a), BoundExpr::Not(b))
            | (BoundExpr::Abs(a), BoundExpr::Abs(b)) => a.identical(b),
            (
                BoundExpr::IsNull { expr: e1, negated: n1 },
                BoundExpr::IsNull { expr: e2, negated: n2 },
            ) => n1 == n2 && e1.identical(e2),
            (
                BoundExpr::InList { expr: e1, list: l1, negated: n1 },
                BoundExpr::InList { expr: e2, list: l2, negated: n2 },
            ) => {
                n1 == n2
                    && e1.identical(e2)
                    && l1.len() == l2.len()
                    && l1.iter().zip(l2).all(|(a, b)| a.identical(b))
            }
            (
                BoundExpr::Between { expr: e1, lo: lo1, hi: hi1, negated: n1 },
                BoundExpr::Between { expr: e2, lo: lo2, hi: hi2, negated: n2 },
            ) => n1 == n2 && e1.identical(e2) && lo1.identical(lo2) && hi1.identical(hi2),
            _ => false,
        }
    }

    /// Evaluates the expression.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Result<Value> {
        match self {
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Param(i) => ctx
                .params
                .get(*i)
                .cloned()
                .ok_or_else(|| Error::Eval(format!("missing parameter ?{}", i + 1))),
            BoundExpr::Column(i) => ctx
                .row
                .get(*i)
                .cloned()
                .ok_or_else(|| Error::Eval(format!("column index {i} out of range"))),
            BoundExpr::AggRef(i) => ctx
                .aggs
                .get(*i)
                .cloned()
                .ok_or_else(|| Error::Eval(format!("aggregate slot {i} out of range"))),
            BoundExpr::Binary { op, lhs, rhs } => eval_binary(*op, lhs, rhs, ctx),
            BoundExpr::Neg(e) => match e.eval(ctx)? {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => Ok(Value::Int(v.checked_neg().ok_or_else(|| {
                    Error::Eval("integer overflow in negation".into())
                })?)),
                Value::Float(v) => Ok(Value::float(-v)),
                other => Err(Error::Eval(format!("cannot negate {other}"))),
            },
            BoundExpr::Not(e) => Ok(truth_to_value(kleene_not(value_to_truth(&e.eval(ctx)?)?))),
            BoundExpr::IsNull { expr, negated } => {
                let isnull = expr.eval(ctx)?.is_null();
                Ok(Value::Bool(isnull != *negated))
            }
            BoundExpr::InList { expr, list, negated } => {
                let needle = expr.eval(ctx)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for cand in list {
                    match needle.sql_eq(&cand.eval(ctx)?) {
                        Some(true) => {
                            return Ok(Value::Bool(!*negated));
                        }
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::Between { expr, lo, hi, negated } => {
                let v = expr.eval(ctx)?;
                let lo_cmp = v.sql_cmp(&lo.eval(ctx)?);
                let hi_cmp = v.sql_cmp(&hi.eval(ctx)?);
                let ge_lo = lo_cmp.map(|o| o != std::cmp::Ordering::Less);
                let le_hi = hi_cmp.map(|o| o != std::cmp::Ordering::Greater);
                let both = kleene_and(ge_lo, le_hi);
                Ok(truth_to_value(if *negated { kleene_not(both) } else { both }))
            }
            BoundExpr::Abs(e) => match e.eval(ctx)? {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => Ok(Value::Int(v.checked_abs().ok_or_else(|| {
                    Error::Eval("integer overflow in ABS".into())
                })?)),
                Value::Float(v) => Ok(Value::float(v.abs())),
                other => Err(Error::Eval(format!("ABS of non-numeric {other}"))),
            },
        }
    }

    /// [`BoundExpr::eval`] that borrows a value which already exists — a
    /// column of the row, a parameter, a literal, an aggregate — instead
    /// of cloning it: a comparison only reads its operands.
    fn eval_ref<'a>(&'a self, ctx: &'a EvalCtx<'_>) -> Result<Cow<'a, Value>> {
        let found = match self {
            BoundExpr::Literal(v) => Some(v),
            BoundExpr::Param(i) => ctx.params.get(*i),
            BoundExpr::Column(i) => ctx.row.get(*i),
            BoundExpr::AggRef(i) => ctx.aggs.get(*i),
            _ => None,
        };
        match found {
            Some(v) => Ok(Cow::Borrowed(v)),
            None => self.eval(ctx).map(Cow::Owned),
        }
    }

    /// Evaluates as a predicate: `true` only when the value is `TRUE`
    /// (`NULL` and `FALSE` both reject the row).
    pub fn eval_predicate(&self, ctx: &EvalCtx<'_>) -> Result<bool> {
        Ok(value_to_truth(&self.eval(ctx)?)? == Some(true))
    }

    /// True if this expression reads no columns or aggregates (it can be
    /// evaluated once per statement instead of once per row).
    pub fn is_row_independent(&self) -> bool {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Param(_) => true,
            BoundExpr::Column(_) | BoundExpr::AggRef(_) => false,
            BoundExpr::Binary { lhs, rhs, .. } => {
                lhs.is_row_independent() && rhs.is_row_independent()
            }
            BoundExpr::Neg(e) | BoundExpr::Not(e) | BoundExpr::Abs(e) => e.is_row_independent(),
            BoundExpr::IsNull { expr, .. } => expr.is_row_independent(),
            BoundExpr::InList { expr, list, .. } => {
                expr.is_row_independent() && list.iter().all(BoundExpr::is_row_independent)
            }
            BoundExpr::Between { expr, lo, hi, .. } => {
                expr.is_row_independent() && lo.is_row_independent() && hi.is_row_independent()
            }
        }
    }
}

fn eval_binary(op: BinOp, lhs: &BoundExpr, rhs: &BoundExpr, ctx: &EvalCtx<'_>) -> Result<Value> {
    // AND/OR need Kleene short-circuit semantics, handled first.
    match op {
        BinOp::And => {
            let l = value_to_truth(&lhs.eval(ctx)?)?;
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = value_to_truth(&rhs.eval(ctx)?)?;
            return Ok(truth_to_value(kleene_and(l, r)));
        }
        BinOp::Or => {
            let l = value_to_truth(&lhs.eval(ctx)?)?;
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = value_to_truth(&rhs.eval(ctx)?)?;
            return Ok(truth_to_value(kleene_or(l, r)));
        }
        _ => {}
    }
    let l = lhs.eval_ref(ctx)?;
    let r = rhs.eval_ref(ctx)?;
    match op {
        BinOp::Eq => Ok(truth_to_value(l.sql_eq(&r))),
        BinOp::NotEq => Ok(truth_to_value(kleene_not(l.sql_eq(&r)))),
        BinOp::Lt => Ok(truth_to_value(l.sql_cmp(&r).map(|o| o == std::cmp::Ordering::Less))),
        BinOp::LtEq => Ok(truth_to_value(l.sql_cmp(&r).map(|o| o != std::cmp::Ordering::Greater))),
        BinOp::Gt => Ok(truth_to_value(l.sql_cmp(&r).map(|o| o == std::cmp::Ordering::Greater))),
        BinOp::GtEq => Ok(truth_to_value(l.sql_cmp(&r).map(|o| o != std::cmp::Ordering::Less))),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, &l, &r),
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
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
                _ => unreachable!(),
            };
            out.map(Value::Int).ok_or_else(|| Error::Eval("integer overflow".into()))
        }
        _ => {
            let a = l.as_float()?;
            let b = r.as_float()?;
            let out = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                BinOp::Mod => a % b,
                _ => unreachable!(),
            };
            // Canonicalized: NaN payload propagation is operand-order
            // dependent on x86, and codegen orders differ across paths.
            Ok(Value::float(out))
        }
    }
}

/// Converts a value to SQL truth: TRUE/FALSE/NULL. Non-boolean,
/// non-null values are a type error.
pub fn value_to_truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        other => Err(Error::Eval(format!("expected a boolean predicate, got {other}"))),
    }
}

fn truth_to_value(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn kleene_not(t: Option<bool>) -> Option<bool> {
    t.map(|b| !b)
}

fn kleene_and(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn kleene_or(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(row: &'a [Value], params: &'a [Value]) -> EvalCtx<'a> {
        EvalCtx { row, params, aggs: &[] }
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    fn bin(op: BinOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { op, lhs: Box::new(l), rhs: Box::new(r) }
    }

    #[test]
    fn arithmetic_int_and_float() {
        let c = ctx(&[], &[]);
        assert_eq!(bin(BinOp::Add, lit(2i64), lit(3i64)).eval(&c).unwrap(), Value::Int(5));
        assert_eq!(bin(BinOp::Mul, lit(2i64), lit(2.5)).eval(&c).unwrap(), Value::Float(5.0));
        assert_eq!(bin(BinOp::Mod, lit(7i64), lit(3i64)).eval(&c).unwrap(), Value::Int(1));
        assert!(bin(BinOp::Div, lit(1i64), lit(0i64)).eval(&c).is_err());
        assert_eq!(bin(BinOp::Div, lit(7i64), lit(2i64)).eval(&c).unwrap(), Value::Int(3));
    }

    #[test]
    fn null_propagates_through_arith() {
        let c = ctx(&[], &[]);
        assert!(bin(BinOp::Add, lit(1i64), BoundExpr::Literal(Value::Null))
            .eval(&c)
            .unwrap()
            .is_null());
    }

    #[test]
    fn overflow_is_an_error() {
        let c = ctx(&[], &[]);
        assert!(bin(BinOp::Add, lit(i64::MAX), lit(1i64)).eval(&c).is_err());
        assert!(BoundExpr::Neg(Box::new(lit(i64::MIN))).eval(&c).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let c = ctx(&[], &[]);
        let null = BoundExpr::Literal(Value::Null);
        let t = lit(true);
        let f = lit(false);
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        assert_eq!(bin(BinOp::And, null.clone(), f.clone()).eval(&c).unwrap(), Value::Bool(false));
        assert!(bin(BinOp::And, null.clone(), t.clone()).eval(&c).unwrap().is_null());
        // NULL OR TRUE = TRUE; NULL OR FALSE = NULL
        assert_eq!(bin(BinOp::Or, null.clone(), t.clone()).eval(&c).unwrap(), Value::Bool(true));
        assert!(bin(BinOp::Or, null.clone(), f).eval(&c).unwrap().is_null());
        // NOT NULL = NULL
        assert!(BoundExpr::Not(Box::new(null)).eval(&c).unwrap().is_null());
    }

    #[test]
    fn comparisons_with_null_are_null() {
        let c = ctx(&[], &[]);
        let e = bin(BinOp::Eq, BoundExpr::Literal(Value::Null), lit(1i64));
        assert!(e.eval(&c).unwrap().is_null());
        assert!(!e.eval_predicate(&c).unwrap());
    }

    #[test]
    fn in_list_semantics() {
        let c = ctx(&[], &[]);
        let one_in = BoundExpr::InList {
            expr: Box::new(lit(1i64)),
            list: vec![lit(2i64), lit(1i64)],
            negated: false,
        };
        assert_eq!(one_in.eval(&c).unwrap(), Value::Bool(true));
        // 3 IN (1, NULL) => NULL (unknown)
        let with_null = BoundExpr::InList {
            expr: Box::new(lit(3i64)),
            list: vec![lit(1i64), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        assert!(with_null.eval(&c).unwrap().is_null());
        // 3 NOT IN (1, 2) => TRUE
        let not_in = BoundExpr::InList {
            expr: Box::new(lit(3i64)),
            list: vec![lit(1i64), lit(2i64)],
            negated: true,
        };
        assert_eq!(not_in.eval(&c).unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_inclusive() {
        let c = ctx(&[], &[]);
        let e = BoundExpr::Between {
            expr: Box::new(lit(5i64)),
            lo: Box::new(lit(5i64)),
            hi: Box::new(lit(10i64)),
            negated: false,
        };
        assert_eq!(e.eval(&c).unwrap(), Value::Bool(true));
        let e = BoundExpr::Between {
            expr: Box::new(lit(11i64)),
            lo: Box::new(lit(5i64)),
            hi: Box::new(lit(10i64)),
            negated: true,
        };
        assert_eq!(e.eval(&c).unwrap(), Value::Bool(true));
    }

    #[test]
    fn is_null_checks() {
        let c = ctx(&[], &[]);
        let e = BoundExpr::IsNull { expr: Box::new(BoundExpr::Literal(Value::Null)), negated: false };
        assert_eq!(e.eval(&c).unwrap(), Value::Bool(true));
        let e = BoundExpr::IsNull { expr: Box::new(lit(1i64)), negated: true };
        assert_eq!(e.eval(&c).unwrap(), Value::Bool(true));
    }

    #[test]
    fn columns_and_params_resolve() {
        let row = [Value::Int(7), Value::Text("x".into())];
        let params = [Value::Int(42)];
        let c = ctx(&row, &params);
        assert_eq!(BoundExpr::Column(0).eval(&c).unwrap(), Value::Int(7));
        assert_eq!(BoundExpr::Param(0).eval(&c).unwrap(), Value::Int(42));
        assert!(BoundExpr::Column(5).eval(&c).is_err());
        assert!(BoundExpr::Param(1).eval(&c).is_err());
    }

    #[test]
    fn abs_works() {
        let c = ctx(&[], &[]);
        assert_eq!(BoundExpr::Abs(Box::new(lit(-4i64))).eval(&c).unwrap(), Value::Int(4));
        assert_eq!(BoundExpr::Abs(Box::new(lit(-2.5))).eval(&c).unwrap(), Value::Float(2.5));
    }

    #[test]
    fn row_independence() {
        assert!(bin(BinOp::Add, lit(1i64), BoundExpr::Param(0)).is_row_independent());
        assert!(!bin(BinOp::Add, lit(1i64), BoundExpr::Column(0)).is_row_independent());
        assert!(!BoundExpr::AggRef(0).is_row_independent());
    }

    #[test]
    fn predicate_type_error() {
        let c = ctx(&[], &[]);
        assert!(lit(3i64).eval_predicate(&c).is_err());
    }
}
