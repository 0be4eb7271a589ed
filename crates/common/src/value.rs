//! Dynamically-typed column values.
//!
//! H-Store stores typed columns; stored procedures bind parameters at
//! run time. [`Value`] is our runtime representation: a small tagged
//! union covering the types the benchmarks need (64-bit integers,
//! floats, strings, booleans, and SQL NULL).
//!
//! # Ordering and hashing
//!
//! Values are used as index keys, so they need a total order and a hash.
//! Floats are ordered via [`f64::total_cmp`] (NaN sorts after all other
//! floats) and hashed by bit pattern. SQL three-valued logic is handled
//! at the expression-evaluation layer, not here: `Value::Null` compares
//! less than everything else so it can live in B-tree indexes.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::schema::DataType;

/// A single dynamically-typed value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer (covers INT/BIGINT).
    Int(i64),
    /// 64-bit IEEE float (covers FLOAT/DOUBLE).
    Float(f64),
    /// UTF-8 string (covers VARCHAR).
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Returns the dynamic type of this value, or `None` for NULL
    /// (NULL is typeless; it is admissible for any nullable column).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True iff this is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Float constructor for *computed* results (arithmetic, negation,
    /// ABS, aggregate finishes): every NaN is canonicalized to the
    /// positive quiet NaN. x86 NaN propagation picks a payload based on
    /// instruction operand order, which varies between codegen of
    /// semantically identical code — without canonicalization the
    /// row-wise and columnar pipelines can return bitwise-different
    /// NaNs for the same query. Literal and stored NaNs are not routed
    /// through this, so their payloads still round-trip.
    #[inline]
    pub fn float(f: f64) -> Value {
        Value::Float(if f.is_nan() { f64::NAN } else { f })
    }

    /// Extracts an integer, coercing from Bool. Errors on other types.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Bool(b) => Ok(i64::from(*b)),
            other => Err(Error::Eval(format!("expected INT, got {other}"))),
        }
    }

    /// Extracts a float, coercing from Int. Errors on other types.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            other => Err(Error::Eval(format!("expected FLOAT, got {other}"))),
        }
    }

    /// Extracts a string slice. Errors on non-text.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(Error::Eval(format!("expected TEXT, got {other}"))),
        }
    }

    /// Extracts a boolean. Errors on non-bool.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::Eval(format!("expected BOOL, got {other}"))),
        }
    }

    /// Checks that this value may be stored in a column of type `ty`
    /// (`Null` is allowed; nullability is checked by the schema layer).
    pub fn conforms_to(&self, ty: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(dt) => dt == ty,
        }
    }

    /// SQL equality: NULL = anything is *unknown*, represented as `None`.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            None
        } else {
            Some(self.cmp_total(other) == Ordering::Equal)
        }
    }

    /// SQL comparison: NULL against anything is *unknown* (`None`).
    /// Numeric types compare cross-type (INT vs FLOAT).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp_total(other))
    }

    /// Total order used by indexes and ORDER BY. NULL sorts first;
    /// numerics compare cross-type *exactly* (see [`cmp_int_float`]);
    /// distinct non-numeric type pairs compare by a fixed type rank (so
    /// the order is total).
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => cmp_int_float(*a, *b),
            (Float(a), Int(b)) => cmp_int_float(*b, *a).reverse(),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numerics share a rank; resolved above
            Value::Text(_) => 3,
        }
    }

    /// Strict physical identity: same variant AND same bits. Unlike the
    /// structural [`PartialEq`] (which follows [`Value::cmp_total`] and
    /// calls `Int(1) == Float(1.0)` and `-0.0 == -0.0 < 0.0` apart only
    /// by order), this distinguishes `Int(1)` from `Float(1.0)` and
    /// `-0.0` from `0.0`, while `NaN` is identical to the same-bits
    /// `NaN`. This is the comparison differential tests want: two
    /// executors that produce the same number in different types (or
    /// the same float with different bits) have genuinely diverged.
    pub fn identical(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }

    /// Renders this value as a SQL literal that lexes back to an
    /// identical value, or `None` when no such literal exists and the
    /// value must travel as a bound parameter instead: NaN/infinity
    /// have no literal form, `i64::MIN` lexes as `-(9223372036854775808)`
    /// whose magnitude overflows before the unary minus applies, and
    /// text containing characters outside the simple printable set is
    /// not worth escaping here.
    pub fn sql_literal(&self) -> Option<String> {
        match self {
            Value::Null => Some("NULL".into()),
            Value::Int(v) => {
                if *v == i64::MIN {
                    None
                } else {
                    Some(v.to_string())
                }
            }
            Value::Float(v) => {
                if !v.is_finite() {
                    return None;
                }
                // `{:?}` is the shortest round-trip form; ensure it
                // carries a float marker so it lexes as Float, not Int.
                let s = format!("{v:?}");
                if s.contains('.') || s.contains('e') || s.contains('E') {
                    Some(s)
                } else {
                    Some(format!("{s}.0"))
                }
            }
            Value::Text(s) => {
                if s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ' ') {
                    Some(format!("'{s}'"))
                } else {
                    None
                }
            }
            Value::Bool(_) => None, // no boolean literal in the grammar
        }
    }

    /// Integer edge cases where executors historically diverge:
    /// overflow boundaries, division/modulo pivots, and the values whose
    /// `as f64` round-trip loses precision (±2^53 neighborhood).
    pub fn edge_ints() -> &'static [i64] {
        &[
            0,
            1,
            -1,
            2,
            -2,
            i64::MAX,
            i64::MIN,
            i64::MAX - 1,
            i64::MIN + 1,
            1 << 53,
            (1 << 53) + 1,
            -(1 << 53) - 1,
            3_037_000_499, // isqrt(i64::MAX): squaring it overflows
        ]
    }

    /// Float edge cases: NaN, signed zero and infinities, subnormals,
    /// the integer-precision boundary, and values that overflow on
    /// float→int adjacency comparisons.
    pub fn edge_floats() -> &'static [f64] {
        &[
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            9_007_199_254_740_992.0, // 2^53
            1e300,
            -1e300,
        ]
    }
}

/// Exact i64-vs-f64 comparison, `a` against `f`.
///
/// `(a as f64).total_cmp(&f)` is wrong above 2^53: the cast rounds, so
/// e.g. `Int(2^53 + 1)` would compare *equal* to `Float(2^53)` while the
/// two ints compare unequal — equality stops being transitive, which
/// breaks everything that groups or dedups by key (hash-join
/// build/probe, group-by interning, DISTINCT sets, BTreeMap ordering).
///
/// The rounded comparison is trusted only when it is strict: `a as f64`
/// is the *nearest* float to `a` and `f` is itself a float, so the
/// rounded value can never land on the far side of `f`. A rounded tie
/// (bitwise equality, hence `f` integral) is resolved in exact integer
/// arithmetic instead. NaN and ±0.0 keep their `total_cmp` conventions:
/// a real number sorts between -NaN and +NaN, and a tie against
/// `-0.0` is bitwise-unequal so it never reaches the exact branch
/// (`Int(0)` equals `Float(0.0)` and sorts above `Float(-0.0)`).
pub fn cmp_int_float(a: i64, f: f64) -> Ordering {
    match (a as f64).total_cmp(&f) {
        Ordering::Equal => {
            // `f` is integral and within ±2^63 inclusive. 2^63 itself is
            // representable while i64::MAX = 2^63 - 1 is not — every i64
            // is strictly below it (the cast saturates, so compare
            // explicitly rather than casting back).
            if f >= 9_223_372_036_854_775_808.0 {
                Ordering::Less
            } else {
                a.cmp(&(f as i64))
            }
        }
        strict => strict,
    }
}

/// Structural equality consistent with [`Value::cmp_total`]
/// (i.e. `Null == Null`, `Int(1) == Float(1.0)`). SQL tri-state equality
/// lives in [`Value::sql_eq`].
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Int and Float must hash identically when numerically equal
            // (they compare equal); hash every numeric as its f64 bits
            // when it is integral-representable.
            Value::Int(v) => {
                1u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Text(String::new()));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn cross_numeric_compare() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn equal_numerics_hash_equal() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Float(42.0)));
    }

    #[test]
    fn nan_is_ordered() {
        let nan = Value::Float(f64::NAN);
        assert!(Value::Float(f64::INFINITY) < nan);
        assert_eq!(nan.cmp_total(&Value::Float(f64::NAN)), Ordering::Equal);
    }

    #[test]
    fn sql_eq_is_tristate() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn identical_is_stricter_than_eq() {
        // Structural Eq says these are equal; identical says no.
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert!(!Value::Int(1).identical(&Value::Float(1.0)));
        assert!(!Value::Float(0.0).identical(&Value::Float(-0.0)));
        // NaN is identical to the same-bits NaN.
        assert!(Value::Float(f64::NAN).identical(&Value::Float(f64::NAN)));
        assert!(Value::Null.identical(&Value::Null));
        assert!(!Value::Null.identical(&Value::Int(0)));
        assert!(Value::Text("a".into()).identical(&Value::Text("a".into())));
        assert!(!Value::Bool(true).identical(&Value::Bool(false)));
    }

    #[test]
    fn sql_literal_round_trip_forms() {
        assert_eq!(Value::Null.sql_literal().unwrap(), "NULL");
        assert_eq!(Value::Int(-42).sql_literal().unwrap(), "-42");
        assert_eq!(Value::Int(i64::MIN).sql_literal(), None);
        assert_eq!(Value::Float(1.5).sql_literal().unwrap(), "1.5");
        // Whole floats must keep a float marker.
        let one = Value::Float(1.0).sql_literal().unwrap();
        assert!(one.contains('.') || one.contains('e'), "{one}");
        assert_eq!(Value::Float(f64::NAN).sql_literal(), None);
        assert_eq!(Value::Float(f64::INFINITY).sql_literal(), None);
        assert_eq!(Value::Text("ab c".into()).sql_literal().unwrap(), "'ab c'");
        assert_eq!(Value::Text("a'b".into()).sql_literal(), None);
        assert_eq!(Value::Bool(true).sql_literal(), None);
        // Shortest round-trip rendering parses back to identical bits.
        for &f in Value::edge_floats() {
            if let Some(lit) = Value::Float(f).sql_literal() {
                let parsed: f64 = lit.parse().unwrap();
                assert_eq!(parsed.to_bits(), f.to_bits(), "{lit}");
            }
        }
    }

    #[test]
    fn edge_pools_cover_the_classics() {
        assert!(Value::edge_ints().contains(&i64::MIN));
        assert!(Value::edge_ints().contains(&i64::MAX));
        assert!(Value::edge_floats().iter().any(|f| f.is_nan()));
        assert!(Value::edge_floats()
            .iter()
            .any(|f| *f == 0.0 && f.is_sign_negative()));
    }

    #[test]
    fn accessors_and_coercions() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert_eq!(Value::Bool(true).as_int().unwrap(), 1);
        assert_eq!(Value::Int(5).as_float().unwrap(), 5.0);
        assert_eq!(Value::Text("x".into()).as_text().unwrap(), "x");
        assert!(Value::Text("x".into()).as_int().is_err());
        assert!(Value::Int(1).as_bool().is_err());
    }

    #[test]
    fn conforms_to_types() {
        assert!(Value::Null.conforms_to(DataType::Int));
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(!Value::Int(1).conforms_to(DataType::Text));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Text("hi".into()).to_string(), "'hi'");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("a"), Value::Text("a".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
    }

    #[test]
    fn int_float_comparison_is_exact_above_2_53() {
        const P53: i64 = 1 << 53;
        let f53 = P53 as f64;
        // The cast rounds 2^53 + 1 down to 2^53; the exact comparison
        // must still see it as strictly greater.
        assert_eq!(Value::Int(P53 + 1).cmp_total(&Value::Float(f53)), Ordering::Greater);
        assert_eq!(Value::Float(f53).cmp_total(&Value::Int(P53 + 1)), Ordering::Less);
        assert_eq!(Value::Int(P53).cmp_total(&Value::Float(f53)), Ordering::Equal);
        // 2^63 is representable as a float but not as an i64: every i64
        // sorts strictly below it (the saturating cast must not be
        // trusted here).
        let f63 = 9_223_372_036_854_775_808.0;
        assert_eq!(Value::Int(i64::MAX).cmp_total(&Value::Float(f63)), Ordering::Less);
        assert_eq!(Value::Float(f63).cmp_total(&Value::Int(i64::MAX)), Ordering::Greater);
        // i64::MIN is exactly -2^63, which is representable.
        assert_eq!(Value::Int(i64::MIN).cmp_total(&Value::Float(-f63)), Ordering::Equal);
        // total_cmp conventions survive: reals sort below +NaN and above
        // -NaN, and Int(0) is +0.0, strictly above -0.0.
        assert_eq!(Value::Int(0).cmp_total(&Value::Float(f64::NAN)), Ordering::Less);
        assert_eq!(Value::Int(0).cmp_total(&Value::Float(-f64::NAN)), Ordering::Greater);
        assert_eq!(Value::Int(0).cmp_total(&Value::Float(-0.0)), Ordering::Greater);
        assert_eq!(Value::Int(0).cmp_total(&Value::Float(0.0)), Ordering::Equal);
    }

    #[test]
    fn exact_int_float_equality_stays_hash_consistent() {
        // Every exactly-equal Int/Float pair must collide, or hash-join
        // and group-by lookups silently drop rows.
        for i in [0i64, 1, -1, 1 << 53, i64::MIN, 123_456] {
            let f = i as f64;
            if Value::Int(i).cmp_total(&Value::Float(f)) == Ordering::Equal {
                assert_eq!(
                    hash_of(&Value::Int(i)),
                    hash_of(&Value::Float(f)),
                    "hash mismatch for {i}"
                );
            }
        }
    }

    #[test]
    fn mixed_type_order_is_total_and_antisymmetric() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Float(0.5),
            Value::Int(2),
            Value::Text("a".into()),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.cmp_total(b);
                let ba = b.cmp_total(a);
                assert_eq!(ab, ba.reverse(), "antisymmetry violated: {a} vs {b}");
            }
        }
    }
}
