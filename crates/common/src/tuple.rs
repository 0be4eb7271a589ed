//! Tuple representation.
//!
//! A [`Tuple`] is a row of [`Value`]s in **one** shared, atomically
//! reference-counted allocation: the refcounts and the values sit side
//! by side, and the row's length travels in the (fat) pointer. Cloning
//! a tuple is O(1) (a refcount bump), which makes the engine's hot path
//! — moving rows between scans, effects, undo records, stream batches,
//! and the command log — allocation-free; and reading a row's values is
//! one dependent load from wherever the tuple is held (a table entry, a
//! batch), not two through a separate `Vec` header.
//!
//! A shared tuple never changes: there is no copy-on-write, and a clone
//! someone holds reads the values it was cloned with for ever. Only the
//! sole reference to a tuple may write it ([`Tuple::values_mut`]), and
//! that is how a table keeps a row at its address: SQL UPDATE, and the
//! undo of one, exchange the row's values with those of the new image
//! inside the table's own allocation, so the image leaves holding the
//! pre-image (what the undo record keeps). A row someone else also
//! holds is replaced instead. Build from an exact-size iterator
//! (`collect()`, or [`Tuple::try_collect`] where a value can fail) —
//! that is the one allocation; [`Tuple::new`] copies a `Vec` into it.
//!
//! Streams and windows additionally attach metadata (timestamps, batch
//! ids) — that metadata lives in the engine crate as hidden columns,
//! keeping this type a plain value row.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

use crate::error::Result;
use crate::schema::Schema;
use crate::value::Value;

/// A row of values with O(1) clone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values (copied into the tuple's allocation).
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values: values.into() }
    }

    /// Builds a tuple from values produced one by one, any of which may
    /// fail, in the one allocation `collect()` makes: every value is
    /// produced, and the first error is returned. For producers that may
    /// go on past a failure — expression evaluation, or a decoder whose
    /// first error abandons the whole read.
    pub fn try_collect(values: impl Iterator<Item = Result<Value>>) -> Result<Self> {
        let mut first = None;
        let t = values.map(|v| v.unwrap_or_else(|e| { first.get_or_insert(e); Value::Null })).collect();
        first.map_or(Ok(t), Err)
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

    /// All fields as a slice.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The values, writable in place, when this is the only reference
    /// to them (`None` while a clone is alive): a write can never reach
    /// a tuple someone else holds.
    #[inline]
    pub fn values_mut(&mut self) -> Option<&mut [Value]> {
        Arc::get_mut(&mut self.values)
    }

    /// Consumes the tuple, returning its values in one new `Vec`: moved
    /// out when this is the only reference to them, cloned otherwise.
    pub fn into_values(mut self) -> Vec<Value> {
        match Arc::get_mut(&mut self.values) {
            Some(owned) => owned.iter_mut().map(|v| std::mem::replace(v, Value::Null)).collect(),
            None => self.values.to_vec(),
        }
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
}

impl Index<usize> for Tuple {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl AsRef<[Value]> for Tuple {
    fn as_ref(&self) -> &[Value] {
        self.values()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl FromIterator<Value> for Tuple {
    /// One allocation when the iterator knows its exact length (a `map`
    /// over a slice or a range); otherwise collected into a `Vec` first.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple { values: iter.into_iter().collect() }
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
        $crate::tuple::Tuple::from_iter([$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
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
    fn display_lists_fields() {
        assert_eq!(tuple![1i64, "a"].to_string(), "[1, 'a']");
    }

    #[test]
    fn from_iterator_collects() {
        let t: Tuple = (0..3).map(Value::Int).collect();
        assert_eq!(t.arity(), 3);
        assert_eq!(t, tuple![0i64, 1i64, 2i64]);
    }

    #[test]
    fn try_collect_returns_the_first_error() {
        let ok = Tuple::try_collect([Ok(Value::Int(1)), Ok(Value::Null)].into_iter());
        assert_eq!(ok.unwrap(), tuple![1i64, Value::Null]);
        let first = Error::Eval("first".into());
        let failed = [Ok(Value::Int(1)), Err(first.clone()), Err(Error::Eval("second".into()))];
        assert_eq!(Tuple::try_collect(failed.into_iter()).unwrap_err(), first);
    }

    #[test]
    fn clone_shares_the_values() {
        let a = tuple![1i64, "x"];
        let b = a.clone();
        assert!(std::ptr::eq(a.values(), b.values()), "clone must share the allocation");
    }

    #[test]
    fn into_values_avoids_copy_when_unique() {
        let t = tuple![1i64, "moved"];
        let text = t.values()[1].as_text().unwrap().as_ptr();
        let v = t.into_values();
        assert_eq!(v, vec![Value::Int(1), Value::Text("moved".into())]);
        // The sole owner hands its text over instead of cloning it.
        assert_eq!(v[1].as_text().unwrap().as_ptr(), text);
        // A shared tuple is left intact for the other holder.
        let t = tuple![3i64, "kept"];
        let keep = t.clone();
        assert_eq!(t.into_values(), vec![Value::Int(3), Value::Text("kept".into())]);
        assert_eq!(keep, tuple![3i64, "kept"]);
    }
}
