//! Lightweight per-table operation counters.
//!
//! Used by the benchmark harnesses to verify *how* a workload executed
//! (e.g. the §4.6 validation comparison hinges on lookups being index
//! probes in S-Store but full scans in the Spark-like baseline), and by
//! tests asserting access paths.
//!
//! Counters use `Cell` so read-only paths ([`Table::lookup_eq`]) can
//! record without `&mut` — the table is still single-thread-owned.
//!
//! [`Table::lookup_eq`]: crate::table::Table::lookup_eq

use std::cell::Cell;

/// Monotone operation counters for one table.
#[derive(Debug, Default, Clone)]
pub struct TableStats {
    index_lookups: Cell<u64>,
    scans: Cell<u64>,
    ordered_visits: Cell<u64>,
    group_reads: Cell<u64>,
}

impl TableStats {
    /// Equality lookups answered by an index probe.
    pub fn index_lookups(&self) -> u64 {
        self.index_lookups.get()
    }

    /// Equality lookups answered by a full scan.
    pub fn scans(&self) -> u64 {
        self.scans.get()
    }

    /// Rows fetched by ordered index walks (`ORDER BY <indexed columns>
    /// LIMIT k`): a walk that stops early visits about `k` of them, one
    /// that could not visits the table.
    pub fn ordered_visits(&self) -> u64 {
        self.ordered_visits.get()
    }

    /// Counts `rows` more rows fetched by an ordered index walk (the
    /// walk is the executor's, over [`Index::cursor`](crate::index::Index::cursor)).
    pub fn record_ordered_visits(&self, rows: usize) {
        self.ordered_visits.set(self.ordered_visits.get() + rows as u64);
    }

    /// Grouped SELECTs answered from a group index instead of a scan.
    pub fn group_reads(&self) -> u64 {
        self.group_reads.get()
    }

    /// Counts one grouped SELECT answered from a group index (the read
    /// is the executor's, over [`GroupIndex::groups`](crate::group::GroupIndex::groups)).
    pub fn record_group_read(&self) {
        self.group_reads.set(self.group_reads.get() + 1);
    }

    pub(crate) fn record_index_lookup(&self) {
        self.index_lookups.set(self.index_lookups.get() + 1);
    }

    pub(crate) fn record_scan(&self) {
        self.scans.set(self.scans.get() + 1);
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.index_lookups.set(0);
        self.scans.set(0);
        self.ordered_visits.set(0);
        self.group_reads.set(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = TableStats::default();
        s.record_index_lookup();
        s.record_scan();
        s.record_ordered_visits(3);
        s.record_group_read();
        assert_eq!(s.ordered_visits(), 3);
        assert_eq!(s.group_reads(), 1);
        assert_eq!(s.index_lookups(), 1);
        assert_eq!(s.scans(), 1);
        s.reset();
        assert_eq!(s.index_lookups(), 0);
        assert_eq!(s.scans(), 0);
        assert_eq!(s.ordered_visits(), 0);
        assert_eq!(s.group_reads(), 0);
    }
}
