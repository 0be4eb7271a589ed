//! Stream state: batch bookkeeping over stream tables (§3.2.1).
//!
//! A stream *is* a table (created with [`TableKind::Stream`]); what makes
//! it a stream is this side structure tracking which live rows belong to
//! which atomic batch, in batch order. Only a batch some transaction will
//! consume is entered here: a batch a stream's EE triggers drain is
//! garbage-collected inside the EE visit that wrote it and never appears
//! (see [`crate::ee`]). Appending rows to a batch, consuming a batch and
//! forgetting one row (a SQL `DELETE` on the stream) are the only
//! mutations; each happens inside a transaction, is logged in the EE's
//! undo log as what it changed, and is undone operation by operation,
//! newest first, by the `undo_*` methods below.
//!
//! [`TableKind::Stream`]: sstore_storage::TableKind::Stream

use std::collections::BTreeMap;

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{BatchId, Error, Result, RowId};

/// Batch bookkeeping for one stream table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamState {
    /// Live batches, in batch order: batch id → row ids in arrival
    /// order.
    batches: BTreeMap<BatchId, Vec<RowId>>,
}

impl StreamState {
    /// Empty state.
    pub fn new() -> Self {
        StreamState::default()
    }

    /// Registers rows of a batch (appending to the batch if it already
    /// has rows — a transaction may emit a batch in several statements).
    pub fn append(&mut self, batch: BatchId, rows: impl IntoIterator<Item = RowId>) {
        self.batches.entry(batch).or_default().extend(rows);
    }

    /// Removes and returns a batch's rows (consumption by the
    /// downstream transaction). Missing batch is an error — consuming
    /// twice is a scheduling bug.
    pub fn consume(&mut self, batch: BatchId) -> Result<Vec<RowId>> {
        self.batches
            .remove(&batch)
            .ok_or_else(|| Error::StreamViolation(format!("batch {batch} not present in stream")))
    }

    /// Row ids of a batch without consuming it (arrival order).
    pub fn peek(&self, batch: BatchId) -> Option<impl ExactSizeIterator<Item = RowId> + '_> {
        self.batches.get(&batch).map(|rows| rows.iter().copied())
    }

    /// True if the batch is pending.
    pub fn contains(&self, batch: BatchId) -> bool {
        self.batches.contains_key(&batch)
    }

    /// Batches currently pending, oldest first.
    pub fn pending(&self) -> Vec<BatchId> {
        self.batches.keys().copied().collect()
    }

    /// True when no batches are pending.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Number of pending batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Drops a specific row from whichever batch holds it (a SQL
    /// `DELETE` on the stream). Returns where it was, so the caller can
    /// undo on abort.
    pub fn forget_row(&mut self, row: RowId) -> Option<(BatchId, usize)> {
        let (batch, pos) =
            self.batches.iter().find_map(|(b, rows)| Some((*b, rows.iter().position(|r| *r == row)?)))?;
        let rows = self.batches.get_mut(&batch).expect("found above");
        rows.remove(pos);
        if rows.is_empty() {
            self.batches.remove(&batch);
        }
        Some((batch, pos))
    }

    // ------------------------------------------------------------------
    // Operation-level undo (used by EE abort; O(ops), not O(batches))
    // ------------------------------------------------------------------

    /// Undoes an [`StreamState::append`] of `n` rows to `batch`.
    pub fn undo_append(&mut self, batch: BatchId, n: usize) {
        if let Some(rows) = self.batches.get_mut(&batch) {
            let keep = rows.len().saturating_sub(n);
            rows.truncate(keep);
            if rows.is_empty() {
                self.batches.remove(&batch);
            }
        }
    }

    /// Undoes a [`StreamState::consume`]: restores the batch's rows.
    pub fn undo_consume(&mut self, batch: BatchId, rows: Vec<RowId>) {
        self.batches.insert(batch, rows);
    }

    /// Undoes a [`StreamState::forget_row`]: restores `row` at its old
    /// position in `batch`.
    pub fn undo_forget(&mut self, batch: BatchId, pos: usize, row: RowId) {
        let rows = self.batches.entry(batch).or_default();
        let pos = pos.min(rows.len());
        rows.insert(pos, row);
    }

    /// Serializes for checkpoints: a sequence of batches, each its id
    /// and a sequence of row ids.
    pub fn encode(&self, e: &mut Encoder) {
        e.put_seq(&self.batches, |e, (b, rows)| {
            e.put_u64(b.raw());
            e.put_seq(rows, |e, r| e.put_u64(r.raw()));
        });
    }

    /// Deserializes from a checkpoint.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        // A batch is at least its id and a row count; a row id is a u64.
        let batches = d.get_seq(9, "stream batch", |d| {
            let batch = BatchId(d.get_u64()?);
            Ok((batch, d.get_seq(8, "stream row", |d| Ok(RowId(d.get_u64()?)))?))
        })?;
        Ok(StreamState { batches: batches.into_iter().collect() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_consume_cycle() {
        let mut s = StreamState::new();
        s.append(BatchId(1), [RowId(10), RowId(11)]);
        s.append(BatchId(1), [RowId(12)]); // same batch, later statement
        s.append(BatchId(2), [RowId(20)]);
        assert_eq!(s.pending(), vec![BatchId(1), BatchId(2)]);
        assert_eq!(s.peek(BatchId(1)).unwrap().len(), 3);
        assert!(s.peek(BatchId(9)).is_none());
        let rows = s.consume(BatchId(1)).unwrap();
        assert_eq!(rows, vec![RowId(10), RowId(11), RowId(12)]);
        assert!(s.consume(BatchId(1)).is_err(), "double consume is a bug");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn pending_is_batch_ordered() {
        let mut s = StreamState::new();
        s.append(BatchId(5), [RowId(1)]);
        s.append(BatchId(2), [RowId(2)]);
        assert_eq!(s.pending(), vec![BatchId(2), BatchId(5)]);
    }

    #[test]
    fn forget_row_trims_batches() {
        let mut s = StreamState::new();
        s.append(BatchId(1), [RowId(1), RowId(2)]);
        s.forget_row(RowId(1));
        assert_eq!(s.peek(BatchId(1)).unwrap().collect::<Vec<_>>(), vec![RowId(2)]);
        s.forget_row(RowId(2));
        assert!(s.is_empty());
        s.forget_row(RowId(99)); // no-op
    }

    #[test]
    fn codec_roundtrip() {
        let mut s = StreamState::new();
        s.append(BatchId(3), [RowId(30), RowId(31)]);
        s.append(BatchId(7), [RowId(70)]);
        let mut e = Encoder::new();
        s.encode(&mut e);
        let bytes = e.finish();
        let got = StreamState::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(got, s);
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut s = StreamState::new();
        s.append(BatchId(1), [RowId(1)]);
        let mut e = Encoder::new();
        s.encode(&mut e);
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            assert!(StreamState::decode(&mut Decoder::new(&bytes[..cut])).is_err());
        }
    }
}
