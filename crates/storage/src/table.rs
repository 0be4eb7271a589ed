//! Slotted in-memory tables with stable row ids and index maintenance.
//!
//! S-Store's central storage trick (§3.2.1–3.2.2) is that *streams and
//! windows are time-varying H-Store tables*. [`TableKind`] tags a table
//! with its role; the engine layers batch/ordering metadata on top as
//! ordinary columns, so one storage structure serves all three kinds of
//! state and is uniformly checkpointed and recovered.
//!
//! Row ids are stable for the lifetime of a row and are re-usable *by
//! explicit request only* ([`Table::insert_with_id`]) — that is what lets
//! the transaction undo log restore a deleted row under its original id
//! so that later undo records remain valid.

use sstore_common::hash::FxHashMap;
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

#[derive(Debug, Clone)]
struct Row {
    id: RowId,
    tuple: Tuple,
}

/// A main-memory table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    kind: TableKind,
    schema: Schema,
    slots: Vec<Option<Row>>,
    free: Vec<u32>,
    by_id: FxHashMap<RowId, u32>,
    indexes: Vec<Index>,
    /// Maintained `GROUP BY`s ([`crate::group`]): derived state, kept by
    /// the same mutation paths as `indexes`, encoded in no snapshot.
    group_indexes: Vec<GroupIndex>,
    next_row_id: u64,
    live: usize,
    /// Row-id-ordered `(row id, slot)` entries, incrementally maintained:
    /// fresh inserts append (row ids are monotone), deletes leave a
    /// stale entry that the ordered scan filters out and that is swept
    /// when stale entries outnumber live ones. This keeps
    /// [`Table::scan_ordered`] a borrow-based O(live) walk instead of a
    /// collect-and-sort per statement.
    order: Vec<(u64, u32)>,
    /// Number of stale (deleted) entries currently in `order`.
    stale: usize,
    stats: TableStats,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, kind: TableKind, schema: Schema) -> Self {
        Table {
            name: name.into().to_ascii_lowercase(),
            kind,
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            by_id: FxHashMap::default(),
            indexes: Vec::new(),
            group_indexes: Vec::new(),
            next_row_id: 0,
            live: 0,
            order: Vec::new(),
            stale: 0,
            stats: TableStats::default(),
        }
    }

    /// Builds a table from `count` rows in one pass — what snapshot
    /// decode uses in place of [`Table::new`], [`Table::create_index`]
    /// and one [`Table::insert_with_id`] per row. `rows` must arrive in
    /// strictly ascending row-id order (the order [`Table::scan_ordered`],
    /// hence the snapshot encoder, yields them in), so the slot vector,
    /// the id map and the order index are reserved once and filled by
    /// append, with nothing on the free list; each index is then built
    /// in one pass over the loaded rows. `count` is reserved before any
    /// row is read: the caller bounds it by its input. Fails on the
    /// first `Err` row, a row that does not fit the schema, a repeated
    /// or descending row id, or an index that cannot be built. The
    /// row-id counter ends at `next_row_id` or one past the last row,
    /// whichever is higher.
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
        t.slots.reserve_exact(count);
        t.by_id.reserve(count);
        t.order.reserve_exact(count);
        for row in rows {
            let (id, tuple) = row?;
            t.schema.validate(tuple.values())?;
            if t.order.last().is_some_and(|&(last, _)| last >= id.raw()) {
                return Err(Error::Internal(format!(
                    "row id {id} repeats or descends in the rows loaded into {}",
                    t.name
                )));
            }
            let slot = t.slots.len() as u32;
            t.slots.push(Some(Row { id, tuple }));
            t.by_id.insert(id, slot);
            t.order.push((id.raw(), slot));
        }
        t.live = t.slots.len();
        t.next_row_id = t.order.last().map_or(next_row_id, |&(last, _)| next_row_id.max(last + 1));
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
        self.live
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
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
        if self.next_row_id < next {
            self.next_row_id = next;
        }
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
        let rows = self.slots.iter().flatten().map(|row| (row.id, row.tuple.values()));
        self.indexes.push(Index::build(def, self.live, rows)?);
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

    /// All index definitions.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.indexes.iter().map(|ix| ix.def.clone()).collect()
    }

    /// Looks up an index by name.
    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.def.name == name)
    }

    /// Finds an index whose key columns are exactly `cols` (used by the
    /// planner to turn equality predicates into point lookups). Prefers
    /// hash over B-tree when both exist.
    pub fn index_on(&self, cols: &[usize]) -> Option<&Index> {
        let mut found: Option<&Index> = None;
        for ix in &self.indexes {
            if ix.def.key_columns == cols {
                match ix.def.kind {
                    IndexKind::Hash => return Some(ix),
                    IndexKind::BTree => found = Some(ix),
                }
            }
        }
        found
    }

    /// Attaches a group index, built from the live rows; a definition
    /// the table already carries is left as it is.
    pub fn create_group_index(&mut self, def: GroupIndexDef) -> Result<()> {
        if let Some(c) = def.key_columns.iter().chain(&def.agg_columns).find(|&&c| c >= self.schema.arity()) {
            let name = &self.name;
            return Err(Error::Plan(format!("group index on {name} references column {c}, out of range")));
        }
        if self.group_index(&def).is_none() {
            let rows = self.slots.iter().flatten().map(|row| row.tuple.values());
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
        if let Some(g) = self.group_indexes.iter_mut().find(|g| g.def == *def) {
            g.refresh(self.live, self.slots.iter().flatten().map(|row| row.tuple.values()));
        }
    }

    /// Definitions of the attached group indexes.
    pub fn group_index_defs(&self) -> impl Iterator<Item = &GroupIndexDef> + '_ {
        self.group_indexes.iter().map(|g| &g.def)
    }

    /// Recomputes every group index from the live rows and compares:
    /// the check chaos and the engine tests run after histories of
    /// aborts, slides and restores.
    pub fn verify_group_indexes(&self) -> Result<()> {
        let rows = || self.slots.iter().flatten().map(|row| row.tuple.values());
        match self.group_indexes.iter().find(|g| !g.agrees_with(rows())) {
            Some(g) => {
                Err(Error::Internal(format!("group index {:?} of {} disagrees with its rows", g.def, self.name)))
            }
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

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
        if self.next_row_id <= id.raw() {
            self.next_row_id = id.raw() + 1;
        }
        Ok(())
    }

    fn insert_at(&mut self, id: RowId, tuple: Tuple) -> Result<()> {
        self.schema.validate(tuple.values())?;
        if self.by_id.contains_key(&id) {
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
        self.group_indexes.iter_mut().for_each(|g| g.apply(tuple.values(), true, self.live));
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(Row { id, tuple });
                s
            }
            None => {
                self.slots.push(Some(Row { id, tuple }));
                (self.slots.len() - 1) as u32
            }
        };
        self.by_id.insert(id, slot);
        self.live += 1;
        self.order_insert(id, slot);
        self.stats.record_insert();
        Ok(())
    }

    /// Registers a freshly inserted row in the order index. Fresh ids
    /// are monotone, so the common case is an O(1) append; only undo's
    /// [`Table::insert_with_id`] restoring an old id pays the ordered
    /// insertion.
    fn order_insert(&mut self, id: RowId, slot: u32) {
        let raw = id.raw();
        match self.order.last() {
            Some(&(last, _)) if last < raw => self.order.push((raw, slot)),
            None => self.order.push((raw, slot)),
            Some(_) => match self.order.binary_search_by_key(&raw, |&(r, _)| r) {
                // A stale entry for this id exists (the row was deleted
                // and is being restored): refresh it in place.
                Ok(pos) => {
                    self.order[pos].1 = slot;
                    self.stale -= 1;
                }
                Err(pos) => self.order.insert(pos, (raw, slot)),
            },
        }
    }

    /// Sweeps stale order entries once they outnumber live rows
    /// (amortized O(1) per delete).
    fn maybe_compact_order(&mut self) {
        if self.stale > self.live.max(16) {
            let slots = &self.slots;
            self.order
                .retain(|&(raw, slot)| matches!(&slots[slot as usize], Some(r) if r.id.raw() == raw));
            self.stale = 0;
        }
    }

    /// Deletes a row, returning its tuple.
    pub fn delete(&mut self, id: RowId) -> Result<Tuple> {
        let slot = *self.by_id.get(&id).ok_or_else(|| row_not_found(&self.name, id))?;
        let row = self.slots[slot as usize].take().expect("by_id points at a live slot");
        self.by_id.remove(&id);
        self.free.push(slot);
        self.live -= 1;
        self.stale += 1;
        for ix in &mut self.indexes {
            ix.remove(ix.def.key_of(row.tuple.values()), id);
        }
        self.group_indexes.iter_mut().for_each(|g| g.apply(row.tuple.values(), false, self.live));
        self.maybe_compact_order();
        self.stats.record_delete();
        Ok(row.tuple)
    }

    /// Replaces a row's tuple in place, returning the old tuple. The row
    /// keeps its id. Unique indexes are re-checked for the new values.
    pub fn update(&mut self, id: RowId, new: Tuple) -> Result<Tuple> {
        self.schema.validate(new.values())?;
        let slot = *self.by_id.get(&id).ok_or_else(|| row_not_found(&self.name, id))?;
        // An index is touched only if one of its key columns changed,
        // and keys are built for those alone: an update that leaves a
        // key where it was costs that index a few value compares. Every
        // unique check passes before any index moves.
        let old = self.slots[slot as usize].as_ref().expect("live slot").tuple.values();
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
        for g in &mut self.group_indexes {
            g.apply(old, false, self.live);
            g.apply(new.values(), true, self.live);
        }
        let row = self.slots[slot as usize].as_mut().expect("live slot");
        let old = std::mem::replace(&mut row.tuple, new);
        self.stats.record_update();
        Ok(old)
    }

    /// Deletes every row, keeping indexes and the row-id counter.
    pub fn truncate(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.by_id.clear();
        self.live = 0;
        self.order.clear();
        self.stale = 0;
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
        let slot = *self.by_id.get(&id)?;
        self.slots[slot as usize].as_ref().map(|r| &r.tuple)
    }

    /// True if the row id is live.
    pub fn contains(&self, id: RowId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Iterates live `(RowId, &Tuple)` pairs in slot order (insert order
    /// for tables that never delete; deterministic regardless).
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
        self.slots.iter().filter_map(|s| s.as_ref().map(|r| (r.id, &r.tuple)))
    }

    /// Like [`Table::scan`] but ordered by row id — streams rely on this
    /// for tuple arrival order. Borrow-based and O(live) amortized: the
    /// order index is maintained incrementally by mutations (fresh row
    /// ids are monotone, so inserts append), not sorted per call.
    pub fn scan_ordered(&self) -> impl Iterator<Item = (RowId, &Tuple)> + '_ {
        self.order.iter().filter_map(move |&(raw, slot)| {
            match &self.slots[slot as usize] {
                Some(row) if row.id.raw() == raw => Some((row.id, &row.tuple)),
                _ => None, // stale entry awaiting compaction
            }
        })
    }

    /// Starts a restartable chunked cursor over live rows in row-id
    /// order — the column-extraction feed for the vectorized read path.
    /// Each [`ScanChunks::next_chunk`] call appends up to `cap` borrowed
    /// value slices, so the executor can materialize columnar batches
    /// without cloning tuples.
    pub fn scan_chunks(&self) -> ScanChunks<'_> {
        ScanChunks { table: self, pos: 0 }
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
            .filter(|(_, t)| {
                cols.iter().zip(key).all(|(&c, k)| t.get(c).cmp_total(k) == std::cmp::Ordering::Equal)
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Approximate bytes held by live tuples.
    pub fn approx_bytes(&self) -> usize {
        self.scan().map(|(_, t)| t.approx_size()).sum()
    }
}

/// Chunked row-id-ordered cursor over a table's live rows, created by
/// [`Table::scan_chunks`]. Yields the same rows in the same order as
/// [`Table::scan_ordered`], `cap` at a time.
pub struct ScanChunks<'t> {
    table: &'t Table,
    /// Next position in the table's order index to examine.
    pos: usize,
}

impl<'t> ScanChunks<'t> {
    /// Appends up to `cap` live row slices to `out`, in row-id order.
    /// Returns `false` once the scan is exhausted (nothing appended).
    pub fn next_chunk(&mut self, cap: usize, out: &mut Vec<&'t [Value]>) -> bool {
        let start = out.len();
        while out.len() - start < cap && self.pos < self.table.order.len() {
            let (raw, slot) = self.table.order[self.pos];
            self.pos += 1;
            if let Some(row) = &self.table.slots[slot as usize] {
                if row.id.raw() == raw {
                    out.push(row.tuple.values());
                }
            }
        }
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
    fn slots_are_recycled_but_ids_are_not() {
        let mut t = people();
        let a = t.insert(tuple![1i64, "a"]).unwrap();
        t.delete(a).unwrap();
        let b = t.insert(tuple![2i64, "b"]).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.len(), 1);
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
            name: "by_id".into(),
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
        let b = t.insert(tuple![2i64, "a"]).unwrap(); // reuses the first slot
        // Row-id order, not slot order, as an index would answer.
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
        let c = t.insert(tuple![3i64, "c"]).unwrap(); // reuses a's slot
        let ids: Vec<RowId> = t.scan_ordered().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![b, c]);
    }

    #[test]
    fn scan_ordered_survives_restore_and_slot_reuse() {
        let mut t = people();
        let ids: Vec<RowId> = (0..6).map(|i| t.insert(tuple![i as i64, "x"]).unwrap()).collect();
        // Delete every other row, then restore one of them under its
        // original id (undo path) — it may land in a recycled slot.
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
