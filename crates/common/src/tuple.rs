//! Tuple representation.
//!
//! A [`Tuple`] is a row of [`Value`]s behind a shared, atomically
//! reference-counted buffer: cloning a tuple is O(1) (a refcount bump),
//! which makes the engine's hot path — moving rows between scans,
//! effects, undo records, stream batches, and the command log —
//! allocation-free. Mutation goes through [`Tuple::get_mut`] /
//! [`Tuple::push`], which copy-on-write only when the buffer is shared
//! (i.e. only a SQL UPDATE that actually rewrites a live row pays for a
//! copy).
//!
//! Streams and windows additionally attach metadata (timestamps, batch
//! ids) — that metadata lives in the engine crate as hidden columns,
//! keeping this type a plain value vector.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::error::Result;
use crate::schema::Schema;
use crate::value::Value;

/// A row of values with O(1) clone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Arc<Vec<Value>>,
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple { values: Arc::new(Vec::new()) }
    }
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values: Arc::new(values) }
    }

    /// Builds a tuple and validates it against `schema`.
    pub fn checked(values: Vec<Value>, schema: &Schema) -> Result<Self> {
        schema.validate(&values)?;
        Ok(Tuple::new(values))
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Field accessor.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Mutable field accessor. Copies the underlying buffer first if it
    /// is shared with other clones (copy-on-write).
    #[inline]
    pub fn get_mut(&mut self, idx: usize) -> &mut Value {
        &mut Arc::make_mut(&mut self.values)[idx]
    }

    /// All fields as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consumes the tuple, returning its values. O(1) when this is the
    /// only reference to the buffer; clones otherwise.
    #[inline]
    pub fn into_values(self) -> Vec<Value> {
        Arc::try_unwrap(self.values).unwrap_or_else(|shared| (*shared).clone())
    }

    /// True if this tuple is the sole owner of its value buffer (no
    /// other clones alive) — diagnostics for copy-on-write behavior.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.values) == 1
    }

    /// Extracts the event timestamp stored in column `col` (time-based
    /// windows, watermark tracking). Errors — rather than panicking —
    /// on a missing column or a non-integer value, so a malformed
    /// tuple aborts its transaction instead of taking the engine down.
    pub fn event_ts(&self, col: usize) -> Result<i64> {
        self.values
            .get(col)
            .ok_or_else(|| {
                crate::error::Error::Codec(format!(
                    "timestamp column {col} out of range (tuple arity {})",
                    self.values.len()
                ))
            })?
            .as_int()
    }

    /// Projects the tuple onto the given column indexes.
    pub fn project(&self, idxs: &[usize]) -> Tuple {
        Tuple::new(idxs.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenates two tuples (used by joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.values.len() + other.values.len());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
    }

    /// Appends a value in place (copy-on-write when shared).
    pub fn push(&mut self, v: Value) {
        Arc::make_mut(&mut self.values).push(v);
    }
}

impl Index<usize> for Tuple {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Builds a tuple from a heterogeneous value list:
/// `tuple![1i64, "name", 3.5]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    #[test]
    fn macro_builds_mixed_tuple() {
        let t = tuple![1i64, "bob", 3.5, true];
        assert_eq!(t.arity(), 4);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t[1], Value::Text("bob".into()));
        assert_eq!(t[3], Value::Bool(true));
    }

    #[test]
    fn checked_enforces_schema() {
        let s = Schema::of(&[("id", DataType::Int)]);
        assert!(Tuple::checked(vec![Value::Int(1)], &s).is_ok());
        assert!(Tuple::checked(vec![Value::Text("x".into())], &s).is_err());
    }

    #[test]
    fn event_ts_extraction() {
        let t = tuple![5i64, "x", 42i64];
        assert_eq!(t.event_ts(0).unwrap(), 5);
        assert_eq!(t.event_ts(2).unwrap(), 42);
        assert!(t.event_ts(1).is_err(), "text is not a timestamp");
        assert!(t.event_ts(9).is_err(), "out of range must error, not panic");
    }

    #[test]
    fn project_and_concat() {
        let t = tuple![1i64, "a", 2i64];
        let p = t.project(&[2, 0]);
        assert_eq!(p, tuple![2i64, 1i64]);
        let c = p.concat(&tuple!["z"]);
        assert_eq!(c, tuple![2i64, 1i64, "z"]);
    }

    #[test]
    fn display_lists_fields() {
        assert_eq!(tuple![1i64, "a"].to_string(), "[1, 'a']");
    }

    #[test]
    fn from_iterator_collects() {
        let t: Tuple = (0..3).map(Value::Int).collect();
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn clone_shares_and_mutation_unshares() {
        let a = tuple![1i64, "x"];
        assert!(a.is_unique());
        let mut b = a.clone();
        assert!(!a.is_unique(), "clone must share the buffer");
        *b.get_mut(0) = Value::Int(9);
        // Copy-on-write: the original is untouched and both are now
        // sole owners.
        assert_eq!(a[0], Value::Int(1));
        assert_eq!(b[0], Value::Int(9));
        assert!(a.is_unique());
        assert!(b.is_unique());
    }

    #[test]
    fn into_values_avoids_copy_when_unique() {
        let t = tuple![1i64, 2i64];
        let v = t.into_values();
        assert_eq!(v, vec![Value::Int(1), Value::Int(2)]);
        // Shared case still yields the right values.
        let t = tuple![3i64];
        let keep = t.clone();
        assert_eq!(t.into_values(), vec![Value::Int(3)]);
        assert_eq!(keep[0], Value::Int(3));
    }
}
