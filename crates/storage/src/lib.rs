//! In-memory row storage: the storage half of an H-Store-style
//! execution engine.
//!
//! A [`Catalog`] names a set of [`Table`]s. Each table is a
//! main-memory row store — one run of rows in [`RowId`] order
//! ([`table`]) — with stable row ids, optional hash and B-tree
//! [`index`]es (unique or multi-valued), maintained [`group`] indexes,
//! and schema enforcement.
//! [`snapshot`] serializes an entire catalog to bytes — this is the
//! checkpoint image used by S-Store's recovery modes.
//!
//! Concurrency model: none, on purpose. H-Store executes transactions
//! serially on the single thread that owns a partition, so tables are
//! plain `&mut` data structures. All cross-thread coordination lives in
//! the engine crate.
//!
//! [`RowId`]: sstore_common::RowId

pub mod catalog;
pub mod group;
pub mod index;
pub mod snapshot;
pub mod stats;
pub mod table;

pub use catalog::Catalog;
pub use group::{ColAcc, GroupAcc, GroupIndex, GroupIndexDef};
pub use index::{IndexData, IndexDef, IndexKind};
pub use table::{ScanChunks, Table, TableKind};
