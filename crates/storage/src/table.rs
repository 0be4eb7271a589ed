//! Main-memory tables: one run of rows in row-id order, and the indexes
//! kept over it.
//!
//! S-Store's central storage trick (§3.2.1–3.2.2) is that *streams and
//! windows are time-varying H-Store tables*. [`TableKind`] tags a table
//! with its role; the engine layers batch/ordering metadata on top as
//! ordinary columns, so one storage structure serves all three kinds of
//! state and is uniformly checkpointed and recovered.
//!
//! # Layout
//!
//! A table's rows are **one** double-ended run of `(RowId, Option<Tuple>)`
//! entries (24 bytes each: the id and the tuple's fat pointer, which
//! carries the row's length), ascending by row id; `None` is a tombstone
//! — a deleted row's place, held so the rows after it need not move.
//! Each live row is one more allocation, its refcounts and values
//! together, so a scan reaches a row's values in one dependent load. An
//! `n`-column row costs its entry plus one `16 + 24n`-byte allocation
//! (text bodies aside): 200 bytes for six columns under glibc's malloc,
//! where a row behind a separate `Vec` cost 224 (a 16-byte entry, a
//! 48-byte chunk for the refcounts and the `Vec` header, a 160-byte
//! buffer).
//! There is no id map, no free list and no separate order index: the
//! run *is* the row-id order every scan, snapshot and index build reads,
//! and a row is found in it by arithmetic (`locate`, below). That
//! rests on three facts about row ids:
//!
//! 1. **Ascending.** [`Table::insert`] draws ids from a counter, so a
//!    fresh row is pushed on the back of the run.
//! 2. **Never reissued.** The counter never rewinds (deletes, truncation
//!    and snapshots all keep it), so an id names one row for ever and
//!    the only insert below the back is [`Table::insert_with_id`] — the
//!    undo log restoring a deleted row under its original id, so that
//!    later undo records remain valid.
//! 3. **Gaps only shift rows left.** The entry `k` places in carries at
//!    least the first id plus `k`; an id the run does not hold (an
//!    aborted insert, a swept tombstone, a gap in a loaded image) moves
//!    every later row one place towards the front, never back. So row
//!    `id` sits at or before place `id − first id`, and at most as many
//!    places before it as the run is missing ids.
//!
//! **End trimming.** A delete tombstones its entry in place and then
//! pops every tombstone off both ends of the run, so neither end ever
//! holds one. Tables that delete oldest-first (streams, tuple windows)
//! or delete the row just inserted (an aborted insert) therefore never
//! hold a tombstone at all, and both
//! those deletes and their undo are O(1). Tombstones left in the middle
//! are swept — the run compacted in place — once they outnumber the
//! live rows (and sixteen), which keeps scans O(live) amortised.

use std::collections::{vec_deque, VecDeque};

use sstore_common::{Error, Result, RowId, Schema, Tuple, Value};

use crate::group::{GroupIndex, GroupIndexDef};
use crate::index::{Index, IndexDef, IndexKind};
use crate::stats::TableStats;

/// The role a table plays in the hybrid model (§2: three kinds of state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableKind {
    /// Public shared table: visible to OLTP and streaming transactions.
    Base,
    /// Stream: ordered, unbounded; tuples enter and are garbage-collected
    /// once consumed. Only the engine mutates these directly.
    Stream,
    /// Window state: visible only to the owning stored procedure's
    /// transaction executions.
    Window,
}

impl TableKind {
    /// Stable tag used by the snapshot codec.
    pub fn tag(self) -> u8 {
        match self {
            TableKind::Base => 0,
            TableKind::Stream => 1,
            TableKind::Window => 2,
        }
    }

    /// Inverse of [`TableKind::tag`].
    pub fn from_tag(t: u8) -> Result<Self> {
        match t {
            0 => Ok(TableKind::Base),
            1 => Ok(TableKind::Stream),
            2 => Ok(TableKind::Window),
            _ => Err(Error::Codec(format!("unknown table kind tag {t}"))),
        }
    }
}

/// One place in a table's run: a row id and its tuple, or `None` where
/// the row was deleted and the sweep has not yet come by.
type Entry = (RowId, Option<Tuple>);

/// The live rows of a run, in row-id order.
fn live_rows(run: &VecDeque<Entry>) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
    run.iter().filter_map(|(id, t)| t.as_ref().map(|t| (*id, t)))
}

/// A main-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    kind: TableKind,
    schema: Schema,
    /// Every row, ascending by id, tombstones included (module docs).
    rows: VecDeque<Entry>,
    /// Tombstones currently in `rows`.
    dead: usize,
    indexes: Vec<Index>,
    /// Maintained `GROUP BY`s ([`crate::group`]): derived state, kept by
    /// the same mutation paths as `indexes`, encoded in no snapshot.
    group_indexes: Vec<GroupIndex>,
    next_row_id: u64,
    stats: TableStats,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, kind: TableKind, schema: Schema) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            kind,
            schema,
            rows: VecDeque::new(),
            dead: 0,
            indexes: Vec::new(),
            group_indexes: Vec::new(),
            next_row_id: 0,
            stats: TableStats::default(),
        }
    }

    /// Builds a table from `count` rows in one pass — what snapshot
    /// decode uses in place of [`Table::new`], [`Table::create_index`]
    /// and one [`Table::insert_with_id`] per row. `rows` must arrive in
    /// strictly ascending row-id order (the order [`Table::scan_ordered`],
    /// hence the snapshot encoder, yields them in), so the run is
    /// reserved once and filled by append; each index is then built in
    /// one pass over it. `count` is reserved before any row is read:
    /// the caller bounds it by its input. Fails on the first `Err` row,
    /// a row that does not fit the schema, a repeated or descending row
    /// id, or an index that cannot be built. The row-id counter ends at
    /// `next_row_id` or one past the last row, whichever is higher.
    pub fn bulk_load(
        name: impl Into<String>,
        kind: TableKind,
        schema: Schema,
        next_row_id: u64,
        indexes: Vec<IndexDef>,
        count: usize,
        rows: impl Iterator<Item = Result<(RowId, Tuple)>>,
    ) -> Result<Table> {
        let mut t = Table::new(name, kind, schema);
        t.rows.reserve_exact(count);
        for row in rows {
            let (id, tuple) = row?;
            t.schema.validate(tuple.values())?;
            if t.rows.back().is_some_and(|&(last, _)| last >= id) {
                return Err(Error::Internal(format!(
                    "row id {id} repeats or descends in the rows loaded into {}",
                    t.name
                )));
            }
            t.rows.push_back((id, Some(tuple)));
        }
        t.next_row_id = t.rows.back().map_or(next_row_id, |&(last, _)| next_row_id.max(last.raw() + 1));
        for def in indexes {
            t.create_index(def)?;
        }
        Ok(t)
    }

    /// Table name (lower-cased).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table role.
    pub fn kind(&self) -> TableKind {
        self.kind
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len() - self.dead
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tombstones the run holds just now: zero for a table that only
    /// ever deletes its oldest or newest row, at most `len().max(16)`
    /// for any.
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Mutation/lookup statistics.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The id the next plain insert will receive.
    pub fn peek_next_row_id(&self) -> RowId {
        RowId(self.next_row_id)
    }

    /// Fast-forwards the row-id counter so it will issue at least `next`
    /// (never rewinds): a table rebuilt row by row continues the id
    /// sequence of the one it copies even when that one's trailing
    /// rows had been deleted.
    pub fn advance_row_id_counter(&mut self, next: u64) {
        self.next_row_id = self.next_row_id.max(next);
    }

    // ------------------------------------------------------------------
    // Index management
    // ------------------------------------------------------------------

    /// Adds an index, backfilling it from existing rows. Fails if the
    /// name is taken, a key column is out of range, or (for unique
    /// indexes) existing rows already collide.
    pub fn create_index(&mut self, def: IndexDef) -> Result<()> {
        if self.indexes.iter().any(|ix| ix.def.name == def.name) {
            return Err(Error::already_exists("index", &def.name));
        }
        if def.key_columns.iter().any(|&c| c >= self.schema.arity()) {
            return Err(Error::Plan(format!(
                "index {} references column out of range (table arity {})",
                def.name,
                self.schema.arity()
            )));
        }
        let rows = live_rows(&self.rows).map(|(id, t)| (id, t.values()));
        self.indexes.push(Index::build(def, self.len(), rows)?);
        Ok(())
    }

    /// Drops the named index.
    pub fn drop_index(&mut self, name: &str) -> Result<()> {
        let pos = self
            .indexes
            .iter()
            .position(|ix| ix.def.name == name)
            .ok_or_else(|| Error::not_found("index", name))?;
        self.indexes.remove(pos);
        Ok(())
    }

    /// All index definitions, in declaration order.
    pub fn index_defs(&self) -> impl ExactSizeIterator<Item = &IndexDef> + '_ {
        self.indexes.iter().map(|ix| &ix.def)
    }

    /// Looks up an index by name.
    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.def.name == name)
    }

    /// Finds an index whose key columns are exactly `cols` (used by the
    /// planner to turn equality predicates into point lookups). Prefers
    /// hash over B-tree when both exist.
    pub fn index_on(&self, cols: &[usize]) -> Option<&Index> {
        let mut on = self.indexes.iter().filter(|ix| ix.def.key_columns == cols);
        on.clone().find(|ix| ix.def.kind == IndexKind::Hash).or(on.next_back())
    }

    /// Attaches a group index, built from the live rows; a definition
    /// the table already carries is left as it is.
    pub fn create_group_index(&mut self, def: GroupIndexDef) -> Result<()> {
        if let Some(c) = def.key_columns.iter().chain(&def.agg_columns).find(|&&c| c >= self.schema.arity()) {
            let name = &self.name;
            return Err(Error::Plan(format!("group index on {name} references column {c}, out of range")));
        }
        if self.group_index(&def).is_none() {
            let rows = live_rows(&self.rows).map(|(_, t)| t.values());
            self.group_indexes.push(GroupIndex::build(def, rows));
        }
        Ok(())
    }

    /// The group index with exactly this definition, if attached.
    pub fn group_index(&self, def: &GroupIndexDef) -> Option<&GroupIndex> {
        self.group_indexes.iter().find(|g| g.def == *def)
    }

    /// Readies that group index for a read ([`GroupIndex::refresh`]):
    /// what a reader holding the table mutably does first.
    pub fn refresh_group_index(&mut self, def: &GroupIndexDef) {
        let live = self.len();
        if let Some(g) = self.group_indexes.iter_mut().find(|g| g.def == *def) {
            g.refresh(live, live_rows(&self.rows).map(|(_, t)| t.values()));
        }
    }

    /// Definitions of the attached group indexes.
    pub fn group_index_defs(&self) -> impl Iterator<Item = &GroupIndexDef> + '_ {
        self.group_indexes.iter().map(|g| &g.def)
    }

    /// Checks everything the table keeps against its rows — the oracle
    /// the property tests run after every operation and debug builds of
    /// the engine run before answering a query: the run is strictly
    /// id-ascending, below the id counter, with no tombstone at either
    /// end and `dead` of them inside; every index equals one built
    /// afresh from the live rows; every group index that claims to be
    /// current is the fold of them.
    pub fn verify(&self) -> Result<()> {
        let ids = || self.rows.iter().map(|(id, _)| id.raw());
        let ends = [self.rows.front(), self.rows.back()];
        let rows = || live_rows(&self.rows).map(|(id, t)| (id, t.values()));
        let rebuilt = |ix: &Index| Index::build(ix.def.clone(), self.len(), rows()).is_ok_and(|fresh| fresh == *ix);
        let folded = |g: &GroupIndex| g.agrees_with(rows().map(|(_, values)| values));
        let checks = [
            (ids().zip(ids().skip(1)).all(|(a, b)| a < b), "the run is not strictly id-ascending"),
            (ids().all(|id| id < self.next_row_id), "the run reaches the id counter"),
            (ends.iter().flatten().all(|(_, t)| t.is_some()), "a tombstone sits at an end of the run"),
            (self.rows.iter().filter(|(_, t)| t.is_none()).count() == self.dead, "the tombstone count is off"),
            (self.indexes.iter().all(rebuilt), "an index disagrees with the live rows"),
            (self.group_indexes.iter().all(folded), "a group index disagrees with the live rows"),
        ];
        match checks.iter().find(|(holds, _)| !holds) {
            Some((_, what)) => Err(Error::Internal(format!("table {}: {what}", self.name))),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Where `id` sits in the run (`Ok`: its entry, live or tombstone)
    /// or would be inserted (`Err`). The row is at or before place
    /// `id − first id`, and no further before it than the run is
    /// missing ids (module docs, fact 3): found at that guess when no
    /// id before it is missing, otherwise by binary search backwards
    /// over that many places.
    fn locate(&self, id: RowId) -> std::result::Result<usize, usize> {
        let (Some(&(first, _)), Some(&(last, _))) = (self.rows.front(), self.rows.back()) else {
            return Err(0);
        };
        if id < first || id > last {
            return Err(if id < first { 0 } else { self.rows.len() });
        }
        let guess = (id.raw() - first.raw()) as usize;
        let missing = (last.raw() - first.raw()) as usize - (self.rows.len() - 1);
        let mut hi = guess.min(self.rows.len() - 1);
        if self.rows[hi].0 == id {
            return Ok(hi);
        }
        // The entry at `hi` is past `id`: find the first that is not before it.
        let mut lo = guess.saturating_sub(missing);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rows[mid].0 < id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if self.rows[lo].0 == id { Ok(lo) } else { Err(lo) }
    }

    /// The place of the live row `id`.
    fn locate_live(&self, id: RowId) -> Option<usize> {
        self.locate(id).ok().filter(|&at| self.rows[at].1.is_some())
    }

    /// Inserts a tuple, assigning a fresh row id.
    pub fn insert(&mut self, tuple: Tuple) -> Result<RowId> {
        let id = RowId(self.next_row_id);
        self.insert_at(id, tuple)?;
        self.next_row_id += 1;
        Ok(id)
    }

    /// Re-inserts a tuple under a caller-chosen id. Used by undo (abort
    /// restores a deleted row under its original id). Fails if the id
    /// is currently live.
    pub fn insert_with_id(&mut self, id: RowId, tuple: Tuple) -> Result<()> {
        self.insert_at(id, tuple)?;
        self.advance_row_id_counter(id.raw() + 1);
        Ok(())
    }

    fn insert_at(&mut self, id: RowId, tuple: Tuple) -> Result<()> {
        self.schema.validate(tuple.values())?;
        let at = self.locate(id);
        if at.is_ok_and(|at| self.rows[at].1.is_some()) {
            return Err(Error::Internal(format!("row id {id} already live in {}", self.name)));
        }
        // Compute each index's key once, checking all unique constraints
        // *before* touching any index so a failed insert leaves the
        // table untouched.
        let mut keys: Vec<Vec<Value>> = Vec::with_capacity(self.indexes.len());
        for ix in &self.indexes {
            let key = ix.def.key_of(tuple.values());
            if ix.def.unique && ix.contains_key(&key) {
                return Err(ix.def.violation(&key));
            }
            keys.push(key);
        }
        for (ix, key) in self.indexes.iter_mut().zip(keys) {
            ix.insert(key, id);
        }
        let live = self.len();
        self.group_indexes.iter_mut().for_each(|g| g.apply(tuple.values(), true, live));
        match at {
            // An undo reached its row's tombstone before the sweep did.
            Ok(at) => {
                self.rows[at].1 = Some(tuple);
                self.dead -= 1;
            }
            // A fresh id lands on the back and an undone front delete
            // on the front, both O(1); only an undo whose tombstone was
            // trimmed or swept from the middle shifts entries.
            Err(at) => self.rows.insert(at, (id, Some(tuple))),
        }
        Ok(())
    }

    /// Deletes a row, returning its tuple.
    pub fn delete(&mut self, id: RowId) -> Result<Tuple> {
        let at = self.locate_live(id).ok_or_else(|| row_not_found(&self.name, id))?;
        let tuple = self.rows[at].1.take().expect("located a live row");
        self.dead += 1;
        // Neither end of the run keeps a tombstone (module docs).
        while self.rows.front().is_some_and(|(_, t)| t.is_none()) {
            self.rows.pop_front();
            self.dead -= 1;
        }
        while self.rows.back().is_some_and(|(_, t)| t.is_none()) {
            self.rows.pop_back();
            self.dead -= 1;
        }
        // Sweep the middle once tombstones outnumber live rows
        // (amortized O(1) per delete).
        if self.dead > self.len().max(16) {
            self.rows.retain(|(_, t)| t.is_some());
            self.dead = 0;
        }
        for ix in &mut self.indexes {
            ix.remove(ix.def.key_of(tuple.values()), id);
        }
        let live = self.len();
        self.group_indexes.iter_mut().for_each(|g| g.apply(tuple.values(), false, live));
        Ok(tuple)
    }

    /// Replaces a row's tuple in place, returning the old tuple. The row
    /// keeps its id. Unique indexes are re-checked for the new values.
    pub fn update(&mut self, id: RowId, new: Tuple) -> Result<Tuple> {
        self.schema.validate(new.values())?;
        let at = self.locate_live(id).ok_or_else(|| row_not_found(&self.name, id))?;
        // An index is touched only if one of its key columns changed,
        // and keys are built for those alone: an update that leaves a
        // key where it was costs that index a few value compares. Every
        // unique check passes before any index moves.
        let old = self.rows[at].1.as_ref().expect("located a live row").values();
        let moved = |ix: &Index| ix.def.key_columns.iter().any(|&c| old[c] != new.values()[c]);
        for ix in self.indexes.iter().filter(|ix| ix.def.unique && moved(ix)) {
            let new_key = ix.def.key_of(new.values());
            if ix.contains_key(&new_key) {
                return Err(ix.def.violation(&new_key));
            }
        }
        for ix in self.indexes.iter_mut().filter(|ix| moved(ix)) {
            ix.remove(ix.def.key_of(old), id);
            ix.insert(ix.def.key_of(new.values()), id);
        }
        let live = self.len();
        for g in &mut self.group_indexes {
            g.apply(old, false, live);
            g.apply(new.values(), true, live);
        }
        Ok(self.rows[at].1.replace(new).expect("located a live row"))
    }

    /// Deletes every row, keeping indexes and the row-id counter.
    pub fn truncate(&mut self) {
        self.rows.clear();
        self.dead = 0;
        for ix in &mut self.indexes {
            ix.clear();
        }
        self.group_indexes.iter_mut().for_each(GroupIndex::clear);
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    /// Fetches a row by id.
    pub fn get(&self, id: RowId) -> Option<&Tuple> {
        self.rows[self.locate(id).ok()?].1.as_ref()
    }

    /// True if the row id is live.
    pub fn contains(&self, id: RowId) -> bool {
        self.get(id).is_some()
    }

    /// Iterates live `(RowId, &Tuple)` pairs in row-id order — insert
    /// order, which streams rely on for tuple arrival order. One walk
    /// of the run, skipping tombstones: borrow-based and O(live)
    /// amortized.
    pub fn scan_ordered(&self) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
        live_rows(&self.rows)
    }

    /// Starts a restartable chunked cursor over live rows in row-id
    /// order — the column-extraction feed for the vectorized read path.
    /// Each [`ScanChunks::next_chunk`] call appends up to `cap` borrowed
    /// value slices, so the executor can materialize columnar batches
    /// without cloning tuples.
    pub fn scan_chunks(&self) -> ScanChunks<'_> {
        ScanChunks { rest: self.rows.iter() }
    }

    /// Point lookup through an index on `cols` if one exists, otherwise
    /// a filtered scan. Returns live row ids carrying `key` on `cols`, in
    /// row-id order either way.
    pub fn lookup_eq(&self, cols: &[usize], key: &[Value]) -> Vec<RowId> {
        if let Some(ix) = self.index_on(cols) {
            self.stats.record_index_lookup();
            return ix.get(key).to_vec();
        }
        self.stats.record_scan();
        self.scan_ordered()
            .filter(|(_, t)| cols.iter().zip(key).all(|(&c, k)| t.get(c).cmp_total(k).is_eq()))
            .map(|(id, _)| id)
            .collect()
    }
}

/// Chunked row-id-ordered cursor over a table's live rows, created by
/// [`Table::scan_chunks`]: the walk [`Table::scan_ordered`] makes, `cap`
/// rows at a time.
pub struct ScanChunks<'t> {
    /// The part of the table's run not yet examined.
    rest: vec_deque::Iter<'t, Entry>,
}

impl<'t> ScanChunks<'t> {
    /// Appends up to `cap` live row slices to `out`, in row-id order.
    /// Returns `false` once the scan is exhausted (nothing appended).
    pub fn next_chunk(&mut self, cap: usize, out: &mut Vec<&'t [Value]>) -> bool {
        let start = out.len();
        out.extend(self.rest.by_ref().filter_map(|(_, t)| t.as_ref()).map(Tuple::values).take(cap));
        out.len() > start
    }
}

fn row_not_found(table: &str, id: RowId) -> Error {
    Error::not_found("row", format!("{id} in table {table}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{tuple, DataType};

    fn people() -> Table {
        let schema = Schema::of(&[("id", DataType::Int), ("name", DataType::Text)]);
        Table::new("People", TableKind::Base, schema)
    }

    fn pk() -> IndexDef {
        IndexDef { name: "pk".into(), key_columns: vec![0], kind: IndexKind::Hash, unique: true }
    }

    #[test]
    fn name_is_lowercased() {
        assert_eq!(people().name(), "people");
    }

    #[test]
    fn insert_assigns_monotone_ids() {
        let mut t = people();
        let a = t.insert(tuple![1i64, "a"]).unwrap();
        let b = t.insert(tuple![2i64, "b"]).unwrap();
        assert!(a < b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap(), &tuple![1i64, "a"]);
    }

    #[test]
    fn insert_validates_schema() {
        let mut t = people();
        assert!(t.insert(tuple![1i64]).is_err());
        assert!(t.insert(tuple!["x", "y"]).is_err());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn unique_index_rejects_duplicates_atomically() {
        let mut t = people();
        t.create_index(pk()).unwrap();
        t.insert(tuple![1i64, "a"]).unwrap();
        let err = t.insert(tuple![1i64, "dup"]).unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
        assert_eq!(t.len(), 1);
        // The failed insert must not have polluted any index.
        assert_eq!(t.lookup_eq(&[0], &[Value::Int(1)]).len(), 1);
    }

    #[test]
    fn delete_returns_tuple_and_cleans_indexes() {
        let mut t = people();
        t.create_index(pk()).unwrap();
        let id = t.insert(tuple![1i64, "a"]).unwrap();
        let got = t.delete(id).unwrap();
        assert_eq!(got, tuple![1i64, "a"]);
        assert!(t.is_empty());
        assert!(t.lookup_eq(&[0], &[Value::Int(1)]).is_empty());
        assert!(t.delete(id).is_err());
    }

    #[test]
    fn a_run_entry_is_twenty_four_bytes() {
        // Id, then the tuple's fat pointer: the row's length moved out
        // of a heap `Vec` header into the entry, and a tombstone is
        // still the pointer's null niche.
        assert_eq!(std::mem::size_of::<Entry>(), 24);
    }

    #[test]
    fn ids_are_never_reissued() {
        let mut t = people();
        let a = t.insert(tuple![1i64, "a"]).unwrap();
        t.delete(a).unwrap();
        let b = t.insert(tuple![2i64, "b"]).unwrap();
        assert!(a < b);
        t.truncate();
        assert!(b < t.insert(tuple![3i64, "c"]).unwrap());
        assert_eq!(t.len(), 1);
        assert!(!t.contains(a) && !t.contains(b));
    }

    #[test]
    fn deletes_at_either_end_leave_no_tombstone() {
        let mut t = people();
        let ids: Vec<RowId> = (0..6).map(|i| t.insert(tuple![i as i64, "x"]).unwrap()).collect();
        t.delete(ids[2]).unwrap();
        t.delete(ids[4]).unwrap();
        assert_eq!((t.rows.len(), t.dead), (6, 2));
        // Each end delete takes the tombstones it uncovers with it.
        t.delete(ids[5]).unwrap();
        assert_eq!((t.rows.len(), t.dead), (4, 1));
        t.delete(ids[0]).unwrap();
        t.delete(ids[1]).unwrap();
        assert_eq!((t.rows.len(), t.dead), (1, 0));
        // Undo, newest first: front, front again, then past the end.
        t.insert_with_id(ids[1], tuple![1i64, "x"]).unwrap();
        t.insert_with_id(ids[0], tuple![0i64, "x"]).unwrap();
        t.insert_with_id(ids[5], tuple![5i64, "x"]).unwrap();
        let got: Vec<RowId> = t.scan_ordered().map(|(id, _)| id).collect();
        assert_eq!(got, vec![ids[0], ids[1], ids[3], ids[5]]);
        t.verify().unwrap();
    }

    #[test]
    fn locate_finds_rows_behind_gaps_and_says_where_the_missing_would_go() {
        let rows = [3u64, 4, 9, 10, 11, 40].map(|id| Ok((RowId(id), tuple![id as i64, "x"])));
        let mut t = Table::bulk_load("t", TableKind::Base, people().schema().clone(), 0, vec![], 6, rows.into_iter())
            .unwrap();
        t.delete(RowId(10)).unwrap();
        let places: Vec<_> = [0, 3, 4, 5, 9, 10, 11, 12, 40, 41].iter().map(|&id| t.locate(RowId(id))).collect();
        assert_eq!(places, [Err(0), Ok(0), Ok(1), Err(2), Ok(2), Ok(3), Ok(4), Err(5), Ok(5), Err(6)]);
        assert!(t.get(RowId(10)).is_none() && t.get(RowId(11)).is_some());
    }

    #[test]
    fn insert_with_id_restores_and_bumps_counter() {
        let mut t = people();
        let a = t.insert(tuple![1i64, "a"]).unwrap();
        let gone = t.delete(a).unwrap();
        t.insert_with_id(a, gone).unwrap();
        assert_eq!(t.get(a).unwrap(), &tuple![1i64, "a"]);
        // Counter must not re-issue `a`.
        let b = t.insert(tuple![2i64, "b"]).unwrap();
        assert!(b > a);
        // Re-inserting a live id fails.
        assert!(t.insert_with_id(a, tuple![9i64, "x"]).is_err());
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = people();
        t.create_index(pk()).unwrap();
        let id = t.insert(tuple![1i64, "a"]).unwrap();
        let old = t.update(id, tuple![5i64, "a2"]).unwrap();
        assert_eq!(old, tuple![1i64, "a"]);
        assert!(t.lookup_eq(&[0], &[Value::Int(1)]).is_empty());
        assert_eq!(t.lookup_eq(&[0], &[Value::Int(5)]), vec![id]);
    }

    #[test]
    fn update_unique_collision_rejected() {
        let mut t = people();
        t.create_index(pk()).unwrap();
        t.insert(tuple![1i64, "a"]).unwrap();
        let id2 = t.insert(tuple![2i64, "b"]).unwrap();
        assert!(t.update(id2, tuple![1i64, "b"]).is_err());
        // Unchanged-key update on the same row is fine.
        t.update(id2, tuple![2i64, "b2"]).unwrap();
    }

    #[test]
    fn update_moves_only_the_indexes_whose_key_changed_and_none_on_a_collision() {
        let mut t = people();
        let by_name =
            IndexDef { name: "by_name".into(), key_columns: vec![1], kind: IndexKind::BTree, unique: false };
        t.create_index(by_name).unwrap();
        t.create_index(pk()).unwrap();
        let a = t.insert(tuple![1i64, "a"]).unwrap();
        let b = t.insert(tuple![2i64, "b"]).unwrap();
        // `by_name` (checked first) would move, `pk` collides: neither does.
        assert!(matches!(t.update(b, tuple![1i64, "z"]), Err(Error::UniqueViolation { .. })));
        assert_eq!(t.get(b).unwrap(), &tuple![2i64, "b"]);
        assert_eq!(t.lookup_eq(&[1], &[Value::Text("b".into())]), vec![b]);
        assert!(t.lookup_eq(&[1], &[Value::Text("z".into())]).is_empty());
        assert_eq!(t.lookup_eq(&[0], &[Value::Int(1)]), vec![a]);
        // A rename moves `by_name` alone; `a` joins `b` under its key, in id order.
        t.update(b, tuple![2i64, "q"]).unwrap();
        t.update(a, tuple![1i64, "q"]).unwrap();
        assert_eq!(t.lookup_eq(&[1], &[Value::Text("q".into())]), vec![a, b]);
        assert_eq!(t.lookup_eq(&[0], &[Value::Int(2)]), vec![b]);
    }

    #[test]
    fn create_index_backfills_and_detects_collisions() {
        let mut t = people();
        t.insert(tuple![1i64, "a"]).unwrap();
        t.insert(tuple![1i64, "b"]).unwrap();
        assert!(t.create_index(pk()).is_err());
        let multi = IndexDef {
            name: "multi".into(),
            key_columns: vec![0],
            kind: IndexKind::BTree,
            unique: false,
        };
        t.create_index(multi).unwrap();
        assert_eq!(t.lookup_eq(&[0], &[Value::Int(1)]).len(), 2);
    }

    #[test]
    fn drop_index() {
        let mut t = people();
        t.create_index(pk()).unwrap();
        t.drop_index("pk").unwrap();
        assert!(t.drop_index("pk").is_err());
        assert!(t.index("pk").is_none());
    }

    #[test]
    fn lookup_eq_falls_back_to_scan() {
        let mut t = people();
        let gone = t.insert(tuple![0i64, "x"]).unwrap();
        let a = t.insert(tuple![1i64, "a"]).unwrap();
        t.delete(gone).unwrap();
        let b = t.insert(tuple![2i64, "a"]).unwrap();
        // Row-id order, as an index would answer.
        assert_eq!(t.lookup_eq(&[1], &[Value::Text("a".into())]), vec![a, b]);
        assert!(t.stats().scans() >= 1);
    }

    #[test]
    fn index_on_prefers_hash() {
        let mut t = people();
        t.create_index(IndexDef {
            name: "bt".into(),
            key_columns: vec![0],
            kind: IndexKind::BTree,
            unique: false,
        })
        .unwrap();
        t.create_index(IndexDef {
            name: "h".into(),
            key_columns: vec![0],
            kind: IndexKind::Hash,
            unique: false,
        })
        .unwrap();
        assert_eq!(t.index_on(&[0]).unwrap().def.name, "h");
    }

    #[test]
    fn scan_ordered_sorts_by_row_id() {
        let mut t = people();
        let a = t.insert(tuple![1i64, "a"]).unwrap();
        let b = t.insert(tuple![2i64, "b"]).unwrap();
        t.delete(a).unwrap();
        let c = t.insert(tuple![3i64, "c"]).unwrap();
        let ids: Vec<RowId> = t.scan_ordered().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![b, c]);
    }

    #[test]
    fn scan_ordered_survives_restore() {
        let mut t = people();
        let ids: Vec<RowId> = (0..6).map(|i| t.insert(tuple![i as i64, "x"]).unwrap()).collect();
        // Delete every other row, then restore one of them under its
        // original id (undo path) — it refills its tombstone.
        for &id in ids.iter().step_by(2) {
            t.delete(id).unwrap();
        }
        t.insert_with_id(ids[2], tuple![2i64, "x"]).unwrap();
        let got: Vec<u64> = t.scan_ordered().map(|(id, _)| id.raw()).collect();
        let mut expect: Vec<u64> =
            vec![ids[1].raw(), ids[2].raw(), ids[3].raw(), ids[5].raw()];
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn scan_ordered_after_heavy_churn_matches_oracle() {
        let mut t = people();
        let mut live: Vec<RowId> = Vec::new();
        for round in 0..50i64 {
            live.push(t.insert(tuple![round, "r"]).unwrap());
            if round % 3 == 0 && !live.is_empty() {
                let id = live.remove((round as usize * 7) % live.len());
                t.delete(id).unwrap();
            }
        }
        let mut expect: Vec<u64> = live.iter().map(|id| id.raw()).collect();
        expect.sort_unstable();
        let got: Vec<u64> = t.scan_ordered().map(|(id, _)| id.raw()).collect();
        assert_eq!(got, expect);
        assert_eq!(t.len(), expect.len());
    }

    #[test]
    fn scan_chunks_matches_scan_ordered() {
        let mut t = people();
        let ids: Vec<RowId> = (0..10).map(|i| t.insert(tuple![i as i64, "x"]).unwrap()).collect();
        t.delete(ids[3]).unwrap();
        t.delete(ids[7]).unwrap();
        let expect: Vec<&[Value]> = t.scan_ordered().map(|(_, tu)| tu.values()).collect();
        let mut cursor = t.scan_chunks();
        let mut got: Vec<&[Value]> = Vec::new();
        let mut chunks = 0;
        while cursor.next_chunk(3, &mut got) {
            chunks += 1;
        }
        assert_eq!(got, expect);
        assert_eq!(chunks, 3); // 8 live rows in chunks of ≤3
        // Exhausted cursor stays exhausted.
        assert!(!cursor.next_chunk(3, &mut got));
        // Empty table: first call already reports exhaustion.
        let empty = people();
        let mut c = empty.scan_chunks();
        let mut out: Vec<&[Value]> = Vec::new();
        assert!(!c.next_chunk(4, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn truncate_clears_everything() {
        let mut t = people();
        t.create_index(pk()).unwrap();
        t.insert(tuple![1i64, "a"]).unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert!(t.lookup_eq(&[0], &[Value::Int(1)]).is_empty());
        // Row ids keep counting up after truncate.
        let id = t.insert(tuple![1i64, "a"]).unwrap();
        assert!(id.raw() >= 1);
    }
}
