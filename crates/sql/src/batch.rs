//! Columnar batches for the vectorized read path.
//!
//! The row executor interprets one `Value` enum at a time; the
//! vectorized executor ([`crate::vexec`]) instead materializes a chunk
//! of scanned rows into typed column vectors and runs tight loops over
//! them. This module holds the data structures of that layer:
//!
//! * typed columns ([`ColI64`], [`ColF64`], [`ColStr`], [`ColBool`]),
//!   each a plain `Vec` of unwrapped values plus a [`NullMask`] bitmap,
//! * a [`SelVec`] bitmap over the rows of a batch: the rows that survive
//!   a predicate, and the TRUE and NULL halves of a predicate's truth
//!   (FALSE is what is active and neither), combined a word at a time,
//! * a [`ColumnarBatch`] of at most [`BATCH_CAPACITY`] rows holding the
//!   columns one query execution actually touches, converted from row
//!   slices at the scan boundary and back to [`Value`]s one at a time
//!   ([`Col::value`]) at the output edge.
//!
//! Columns are honest by construction: storage validates every write
//! against the schema ([`sstore_common::Schema::validate`]), so an INT
//! column holds only `Value::Int` or `Value::Null`. Extraction is one
//! loop per column type writing unwrapped values and one null word per
//! 64 rows; a value of the wrong type is an internal error naming it.
//! Text is borrowed: a [`ColStr`] holds `&str`s into the scanned rows,
//! so a batch lives no longer than they do and a columnar scan allocates
//! nothing per value.

use std::cell::Cell;

use sstore_common::{DataType, Error, Result, Value};

/// Rows per [`ColumnarBatch`]. Chosen so a batch of a few small columns
/// stays inside L1/L2 (1024 rows × 8 B = 8 KiB per numeric column)
/// while amortizing per-batch overhead over enough rows to matter; see
/// EXPERIMENTS.md "Vectorized read path" for the measurement.
pub const BATCH_CAPACITY: usize = 1024;

/// A null bitmap: bit `i` set means row `i` is NULL.
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    words: Vec<u64>,
}

impl NullMask {
    /// An all-valid mask covering `len` rows.
    pub fn new(len: usize) -> Self {
        NullMask { words: vec![0; len.div_ceil(64)] }
    }

    /// Marks row `i` NULL.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// True if row `i` is NULL.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i >> 6] & (1 << (i & 63)) != 0
    }

    /// The bitmap, one word per 64 rows.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Typed INT column.
#[derive(Debug, Clone)]
pub struct ColI64 {
    /// Unwrapped values; NULL rows hold 0 and are named by `nulls`.
    pub values: Vec<i64>,
    /// Null bitmap.
    pub nulls: NullMask,
}

/// Typed FLOAT column.
#[derive(Debug, Clone)]
pub struct ColF64 {
    /// Unwrapped values; NULL rows hold 0.0.
    pub values: Vec<f64>,
    /// Null bitmap.
    pub nulls: NullMask,
}

/// Typed TEXT column, borrowed from the scanned rows.
#[derive(Debug, Clone)]
pub struct ColStr<'r> {
    /// Unwrapped values; NULL rows hold "".
    pub values: Vec<&'r str>,
    /// Null bitmap.
    pub nulls: NullMask,
}

/// Typed BOOL column.
#[derive(Debug, Clone)]
pub struct ColBool {
    /// Unwrapped values; NULL rows hold false.
    pub values: Vec<bool>,
    /// Null bitmap.
    pub nulls: NullMask,
}

/// One materialized column of a batch.
#[derive(Debug, Clone)]
pub enum Col<'r> {
    /// INT column.
    I64(ColI64),
    /// FLOAT column.
    F64(ColF64),
    /// TEXT column.
    Str(ColStr<'r>),
    /// BOOL column.
    Bool(ColBool),
}

/// Column `c` of `rows` as unwrapped values and a null mask: one loop,
/// monomorphic in the column type (`unwrap` names the one variant the
/// column may hold besides NULL).
fn extract<'r, T: Copy>(
    rows: &[&'r [Value]],
    c: usize,
    zero: T,
    unwrap: impl Fn(&'r Value) -> Option<T>,
) -> Result<(Vec<T>, NullMask)> {
    let mut values = Vec::with_capacity(rows.len());
    let mut nulls = NullMask::new(rows.len());
    for (chunk, word) in rows.chunks(64).zip(&mut nulls.words) {
        for (j, row) in chunk.iter().enumerate() {
            let v = &row[c];
            match unwrap(v) {
                Some(x) => values.push(x),
                None if v.is_null() => {
                    *word |= 1 << j;
                    values.push(zero);
                }
                None => {
                    return Err(Error::Internal(format!(
                        "columnar extraction: value {v} does not match column type"
                    )))
                }
            }
        }
    }
    Ok((values, nulls))
}

impl<'r> Col<'r> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Col::I64(c) => c.values.len(),
            Col::F64(c) => c.values.len(),
            Col::Str(c) => c.values.len(),
            Col::Bool(c) => c.values.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's null bitmap.
    #[inline]
    pub fn nulls(&self) -> &NullMask {
        match self {
            Col::I64(c) => &c.nulls,
            Col::F64(c) => &c.nulls,
            Col::Str(c) => &c.nulls,
            Col::Bool(c) => &c.nulls,
        }
    }

    /// True if row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls().get(i)
    }

    /// Reconstructs row `i` as a [`Value`] (output-boundary conversion).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match self {
            Col::I64(c) => Value::Int(c.values[i]),
            Col::F64(c) => Value::Float(c.values[i]),
            Col::Str(c) => Value::Text(c.values[i].to_owned()),
            Col::Bool(c) => Value::Bool(c.values[i]),
        }
    }

    /// A representative non-null value of this column's type, used to
    /// resolve type-rank comparisons against literals of a *different*
    /// type once per batch instead of per row ([`Value::cmp_total`]
    /// orders distinct non-numeric types by rank, independent of the
    /// values themselves).
    pub fn type_representative(&self) -> Value {
        match self {
            Col::I64(_) => Value::Int(0),
            Col::F64(_) => Value::Float(0.0),
            Col::Str(_) => Value::Text(String::new()),
            Col::Bool(_) => Value::Bool(false),
        }
    }
}

/// A bitmap over the rows of one batch: bit set = row selected.
/// Produced by vectorized predicates, consumed by the aggregate and
/// projection operators.
#[derive(Debug, Clone)]
pub struct SelVec {
    words: Vec<u64>,
    len: usize,
}

impl SelVec {
    /// All `len` rows selected.
    pub fn all(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if len % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        SelVec { words, len }
    }

    /// No rows selected.
    pub fn none(len: usize) -> Self {
        SelVec { words: vec![0; len.div_ceil(64)], len }
    }

    /// One word per 64 rows, from `word(w)`; bits past `len` must be
    /// clear, which holds when `word` masks with a bitmap that has them
    /// clear.
    #[inline]
    pub fn from_words(len: usize, word: impl FnMut(usize) -> u64) -> Self {
        SelVec { words: (0..len.div_ceil(64)).map(word).collect(), len }
    }

    /// The bitmap, one word per 64 rows.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of rows the bitmap covers (selected or not).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Selects row `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// True if row `i` is selected.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i >> 6] & (1 << (i & 63)) != 0
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when at least one row is selected.
    pub fn any(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    /// The selected rows that `nulls` does not name.
    pub fn and_not_null(&self, nulls: &NullMask) -> SelVec {
        SelVec::from_words(self.len, |w| self.words[w] & !nulls.words[w])
    }

    /// The selected rows that `nulls` names.
    pub fn and_null(&self, nulls: &NullMask) -> SelVec {
        SelVec::from_words(self.len, |w| self.words[w] & nulls.words[w])
    }

    /// Iterates selected row indexes in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some((wi << 6) | bit)
            })
        })
    }
}

/// A batch of up to [`BATCH_CAPACITY`] rows in columnar form. Only the
/// columns a query touches are materialized (`cols` is indexed by the
/// table's column position; untouched positions stay `None`). Text
/// columns borrow from the rows the batch was built from (`'r`).
#[derive(Debug, Clone)]
pub struct ColumnarBatch<'r> {
    len: usize,
    cols: Vec<Option<Col<'r>>>,
}

impl<'r> ColumnarBatch<'r> {
    /// Materializes `wanted` columns of `rows` (scan-boundary
    /// conversion). `dtypes` gives every table column's declared type.
    pub fn from_rows(rows: &[&'r [Value]], wanted: &[usize], dtypes: &[DataType]) -> Result<Self> {
        let mut cols: Vec<Option<Col<'r>>> = (0..dtypes.len()).map(|_| None).collect();
        for &c in wanted {
            cols[c] = Some(match dtypes[c] {
                DataType::Int => {
                    let (values, nulls) = extract(rows, c, 0, |v| match v {
                        Value::Int(x) => Some(*x),
                        _ => None,
                    })?;
                    Col::I64(ColI64 { values, nulls })
                }
                DataType::Float => {
                    let (values, nulls) = extract(rows, c, 0.0, |v| match v {
                        Value::Float(x) => Some(*x),
                        _ => None,
                    })?;
                    Col::F64(ColF64 { values, nulls })
                }
                DataType::Text => {
                    let (values, nulls) = extract(rows, c, "", |v| match v {
                        Value::Text(s) => Some(s.as_str()),
                        _ => None,
                    })?;
                    Col::Str(ColStr { values, nulls })
                }
                DataType::Bool => {
                    let (values, nulls) = extract(rows, c, false, |v| match v {
                        Value::Bool(b) => Some(*b),
                        _ => None,
                    })?;
                    Col::Bool(ColBool { values, nulls })
                }
            });
        }
        Ok(ColumnarBatch { len: rows.len(), cols })
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The materialized column at table position `c`, if extracted.
    #[inline]
    pub fn col(&self, c: usize) -> Option<&Col<'r>> {
        self.cols.get(c).and_then(Option::as_ref)
    }

}

/// Why one SELECT dispatch bypassed the columnar executor. Counted per
/// statement execution so "the fast path silently un-wired itself" is
/// distinguishable from "the workload is genuinely row-wise".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// Eligible shape over a table below `COLUMNAR_MIN_ROWS`.
    SmallTable,
    /// Shape the vectorized executor does not handle (joins, index
    /// point lookups).
    Shape,
}

/// Per-thread counters of the vectorized read path, drained by the
/// engine after each statement (see [`take_path_counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SqlPathCounters {
    /// Columnar batches materialized.
    pub batches: u64,
    /// The subset of `batches` scanned from Window-kind tables
    /// (slide-trigger aggregation scans).
    pub window_batches: u64,
    /// Dispatches that fell back: small table.
    pub fallback_small: u64,
    /// Dispatches that fell back: unsupported shape.
    pub fallback_shape: u64,
}

thread_local! {
    /// Counters accumulated by the columnar executor on this thread
    /// since last taken. The engine's EE (single-threaded per
    /// partition) drains this after each statement and feeds the
    /// engine-level `columnar_*` metrics — the SQL crate cannot
    /// depend on the engine crate, so the hand-off is a thread-local.
    static SQL_PATH: Cell<SqlPathCounters> = const {
        Cell::new(SqlPathCounters {
            batches: 0,
            window_batches: 0,
            fallback_small: 0,
            fallback_shape: 0,
        })
    };
}

/// Records one materialized batch (called by the columnar executor).
#[inline]
pub fn note_batch() {
    SQL_PATH.with(|c| {
        let mut v = c.get();
        v.batches += 1;
        c.set(v);
    });
}

/// Records one materialized batch over a Window-kind table (in
/// addition to [`note_batch`], which counts every batch).
#[inline]
pub fn note_window_batch() {
    SQL_PATH.with(|c| {
        let mut v = c.get();
        v.window_batches += 1;
        c.set(v);
    });
}

/// Records one row-wise fallback decision with its reason (called by
/// the columnar dispatch in [`crate::vexec::use_columnar`]).
#[inline]
pub fn note_fallback(reason: FallbackReason) {
    SQL_PATH.with(|c| {
        let mut v = c.get();
        match reason {
            FallbackReason::SmallTable => v.fallback_small += 1,
            FallbackReason::Shape => v.fallback_shape += 1,
        }
        c.set(v);
    });
}

/// Returns and clears this thread's batch count. Leaves the fallback
/// counters alone — tests that only care about batches keep using
/// this; the engine drains everything via [`take_path_counters`].
pub fn take_batch_count() -> u64 {
    SQL_PATH.with(|c| {
        let mut v = c.get();
        let n = v.batches;
        v.batches = 0;
        c.set(v);
        n
    })
}

/// Returns and clears every counter on this thread.
pub fn take_path_counters() -> SqlPathCounters {
    SQL_PATH.with(|c| c.replace(SqlPathCounters::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_mask_set_get() {
        let mut m = NullMask::new(130);
        assert_eq!(m.words(), &[0, 0, 0]);
        m.set(0);
        m.set(64);
        m.set(129);
        assert!(m.get(0) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(63) && !m.get(128));
        assert_eq!(m.words(), &[1, 1, 2]);
    }

    #[test]
    fn selvec_all_none_iter() {
        let all = SelVec::all(70);
        assert_eq!(all.count(), 70);
        assert_eq!(all.iter_ones().count(), 70);
        assert!(all.get(69));
        let mut none = SelVec::none(70);
        assert_eq!(none.count(), 0);
        none.set(3);
        none.set(68);
        assert_eq!(none.iter_ones().collect::<Vec<_>>(), vec![3, 68]);
        assert!(none.any());
        let mut nulls = NullMask::new(70);
        nulls.set(68);
        assert_eq!(none.and_not_null(&nulls).iter_ones().collect::<Vec<_>>(), vec![3]);
        assert_eq!(none.and_null(&nulls).iter_ones().collect::<Vec<_>>(), vec![68]);
    }

    #[test]
    fn selvec_all_is_exact_at_word_boundary() {
        for len in [0usize, 1, 63, 64, 65, 128] {
            let s = SelVec::all(len);
            assert_eq!(s.count(), len, "len {len}");
        }
    }

    #[test]
    fn batch_roundtrip_with_nulls() {
        let rows_owned = [
            vec![Value::Int(1), Value::Text("a".into()), Value::Float(0.5), Value::Bool(true)],
            vec![Value::Null, Value::Null, Value::Null, Value::Null],
            vec![Value::Int(3), Value::Text("c".into()), Value::Float(1.5), Value::Bool(false)],
        ];
        let rows: Vec<&[Value]> = rows_owned.iter().map(|r| r.as_slice()).collect();
        let dtypes = [DataType::Int, DataType::Text, DataType::Float, DataType::Bool];
        let wanted = [0, 1, 2, 3];
        let b = ColumnarBatch::from_rows(&rows, &wanted, &dtypes).unwrap();
        assert_eq!(b.len(), 3);
        match b.col(0).unwrap() {
            Col::I64(c) => {
                assert_eq!(c.values, vec![1, 0, 3]);
                assert!(c.nulls.get(1) && !c.nulls.get(0));
            }
            other => panic!("{other:?}"),
        }
        for (i, r) in rows_owned.iter().enumerate() {
            for (c, v) in r.iter().enumerate() {
                assert!(b.col(c).unwrap().value(i).identical(v), "row {i} column {c}");
            }
        }
    }

    #[test]
    fn sparse_materialization() {
        let rows_owned = [vec![Value::Int(1), Value::Int(2)]];
        let rows: Vec<&[Value]> = rows_owned.iter().map(|r| r.as_slice()).collect();
        let b = ColumnarBatch::from_rows(&rows, &[1], &[DataType::Int, DataType::Int]).unwrap();
        assert!(b.col(0).is_none());
        assert_eq!(b.col(1).unwrap().value(0), Value::Int(2));
    }

    #[test]
    fn type_mismatch_is_an_internal_error() {
        let rows_owned = [vec![Value::Int(1)], vec![Value::Text("zebra".into())]];
        let rows: Vec<&[Value]> = rows_owned.iter().map(|r| r.as_slice()).collect();
        let err = ColumnarBatch::from_rows(&rows, &[0], &[DataType::Int]).unwrap_err();
        assert!(matches!(&err, Error::Internal(m) if m.contains("zebra")), "{err}");
    }

    #[test]
    fn batch_counter_takes_and_clears() {
        let before = take_batch_count();
        let _ = before; // drain whatever other tests on this thread left
        note_batch();
        note_batch();
        assert_eq!(take_batch_count(), 2);
        assert_eq!(take_batch_count(), 0);
    }
}
