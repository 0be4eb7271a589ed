//! Identifier newtypes.
//!
//! The paper's model is built around several kinds of ordering: batch
//! order on streams, transaction-execution order within a stored
//! procedure, log-sequence order in the command log, and partition
//! placement. Each gets its own newtype so the orderings cannot be mixed
//! up silently.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// The zero id — the first value issued by a fresh counter.
            pub const ZERO: $name = $name(0);

            /// Returns the raw integer.
            #[inline]
            pub fn raw(self) -> u64 {
                self.0
            }

            /// Returns the successor id.
            #[inline]
            pub fn next(self) -> $name {
                $name(self.0 + 1)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                $name(v)
            }
        }
    };
}

id_newtype! {
    /// Identifier of an atomic batch on a stream (§2.1). Batches with the
    /// same id are processed as a unit; batch ids are totally ordered and
    /// define the *stream order constraint* of §2.2.
    BatchId
}

id_newtype! {
    /// Identifier of a transaction execution (TE). Assigned in commit
    /// order on a partition, so it doubles as a serial-schedule position.
    TxnId
}

id_newtype! {
    /// Log sequence number in the command log.
    Lsn
}

id_newtype! {
    /// Stable identifier of a row within one table: issued in
    /// ascending order, kept across updates in place, and never issued
    /// to another row (only undo puts a deleted row back under its id).
    RowId
}

id_newtype! {
    /// Logical timestamp carried by stream tuples (§2.1). We use a
    /// monotone counter rather than wall-clock time so runs are
    /// deterministic and replayable.
    Timestamp
}

/// Dense identifier of a table within one catalog, assigned in creation
/// order. Tables, streams, and windows all live in the catalog, so this
/// id also names streams and windows throughout the engine's hot path —
/// interning the lowercase-name lookup to an array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u32);

impl TableId {
    /// Returns the raw integer.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// As a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Dense identifier of a stored procedure within one application,
/// assigned in declaration order at install time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Returns the raw integer.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// As a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SP{}", self.0)
    }
}

/// Identifier of a partition (one per core in H-Store/S-Store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartitionId(pub u32);

impl PartitionId {
    /// Returns the raw integer.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A monotonically increasing id generator.
///
/// Single-threaded by design: each partition owns its own counters, which
/// is exactly H-Store's model (no cross-partition coordination on the hot
/// path).
#[derive(Debug, Clone, Default)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Creates a generator whose first issued value is `0`.
    pub fn new() -> Self {
        IdGen { next: 0 }
    }

    /// Creates a generator whose first issued value is `start`.
    pub fn starting_at(start: u64) -> Self {
        IdGen { next: start }
    }

    /// Issues the next raw id.
    #[inline]
    pub fn issue(&mut self) -> u64 {
        let v = self.next;
        self.next += 1;
        v
    }

    /// Peeks at the value the next call to [`IdGen::issue`] will return.
    #[inline]
    pub fn peek(&self) -> u64 {
        self.next
    }

    /// Fast-forwards the generator so it will never issue a value `<= v`.
    /// Used during recovery to resume counters past replayed ids.
    pub fn advance_past(&mut self, v: u64) {
        if self.next <= v {
            self.next = v + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtype_ordering_and_next() {
        let a = BatchId(1);
        let b = a.next();
        assert!(a < b);
        assert_eq!(b.raw(), 2);
        assert_eq!(BatchId::ZERO.raw(), 0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(BatchId(7).to_string(), "BatchId(7)");
        assert_eq!(PartitionId(3).to_string(), "P3");
    }

    #[test]
    fn idgen_is_monotone() {
        let mut g = IdGen::new();
        assert_eq!(g.issue(), 0);
        assert_eq!(g.issue(), 1);
        assert_eq!(g.peek(), 2);
    }

    #[test]
    fn idgen_advance_past() {
        let mut g = IdGen::new();
        g.advance_past(10);
        assert_eq!(g.issue(), 11);
        // Advancing backwards is a no-op.
        g.advance_past(3);
        assert_eq!(g.issue(), 12);
    }

    #[test]
    fn idgen_starting_at() {
        let mut g = IdGen::starting_at(100);
        assert_eq!(g.issue(), 100);
    }

    #[test]
    fn ids_from_u64() {
        let t: TxnId = 9u64.into();
        assert_eq!(t, TxnId(9));
    }
}
