//! Secondary indexes over tables.
//!
//! Two physical kinds, matching what H-Store offers to stored
//! procedures: hash indexes for point lookups (the voter benchmark's
//! phone-number check is the paper's showcase for these, §4.6.3) and
//! B-tree indexes for ordered/range access. Indexes may be composite
//! (multiple key columns) and may enforce uniqueness.
//!
//! An index never owns tuples — it maps key value vectors to [`RowId`]s
//! and is maintained by [`Table`](crate::table::Table) mutation paths.

use std::collections::hash_map::Entry;
use std::collections::{btree_map, BTreeMap};

use sstore_common::hash::FxHashMap;
use sstore_common::{Error, Result, RowId, Value};

/// Physical index kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map: O(1) point lookups, no range scans.
    Hash,
    /// B-tree: ordered lookups and range scans.
    BTree,
}

/// Logical definition of an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within its table.
    pub name: String,
    /// Key column positions within the table schema, in key order.
    pub key_columns: Vec<usize>,
    /// Physical kind.
    pub kind: IndexKind,
    /// If true, at most one live row may carry each key.
    pub unique: bool,
}

impl IndexDef {
    /// Extracts this index's key from a row's values.
    pub fn key_of(&self, values: &[Value]) -> Vec<Value> {
        self.key_columns.iter().map(|&i| values[i].clone()).collect()
    }

    /// The error a second row under one key of this (unique) index is.
    pub(crate) fn violation(&self, key: &[Value]) -> Error {
        let parts: Vec<String> = key.iter().map(ToString::to_string).collect();
        Error::UniqueViolation { index: self.name.clone(), key: parts.join(",") }
    }
}

/// The rows carrying one key, ascending by [`RowId`] — the order a scan
/// meets them in, whatever order inserts, deletes and undo restores
/// happened in. Most keys carry one row (every key of a unique index
/// does), so that case is held inline and costs no allocation; `Many`
/// always holds at least two.
#[derive(Debug, Clone, PartialEq)]
pub enum Postings {
    /// Exactly one row.
    One(RowId),
    /// Two or more rows.
    Many(Vec<RowId>),
}

impl Postings {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Postings::One(row) => std::slice::from_ref(row),
            Postings::Many(rows) => rows,
        }
    }

    /// Adds `row` in id order: fresh ids are the highest yet, so the
    /// common case appends; an undo restore or a key-changing update
    /// finds its place by binary search.
    fn push(&mut self, row: RowId) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![row.min(*first), row.max(*first)]),
            Postings::Many(rows) => match rows.last() {
                Some(last) if *last < row => rows.push(row),
                _ => {
                    let at = rows.partition_point(|r| *r < row);
                    rows.insert(at, row);
                }
            },
        }
    }
}

/// Removes `row` from the postings a map lookup found. Returns whether
/// the row was there and whether the key is now empty (the caller owns
/// the map and drops the key).
fn remove_posting(slot: &mut Postings, row: RowId) -> (bool, bool) {
    match slot {
        Postings::One(only) => (*only == row, *only == row),
        Postings::Many(rows) => {
            let Ok(pos) = rows.binary_search(&row) else {
                return (false, false);
            };
            rows.remove(pos);
            if let [last] = rows[..] {
                *slot = Postings::One(last);
            }
            (true, false)
        }
    }
}

/// Sorts `count` `(key, row)` pairs by key, then row id, and groups
/// them into one entry per distinct key, ascending. Rows need not
/// arrive in id order (a table's backfill does hand them over so).
fn sorted_run<K: Ord>(
    def: &IndexDef,
    count: usize,
    keyed: impl Iterator<Item = (K, RowId)>,
    into_key: impl Fn(K) -> Vec<Value>,
) -> Result<Vec<(Vec<Value>, Postings)>> {
    let mut sorted: Vec<(K, RowId)> = Vec::with_capacity(count);
    sorted.extend(keyed);
    sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut run = Vec::new();
    let mut sorted = sorted.into_iter().peekable();
    while let Some((key, row)) = sorted.next() {
        let mut postings = Postings::One(row);
        while let Some((_, next)) = sorted.next_if(|(k, _)| *k == key) {
            if def.unique {
                return Err(def.violation(&into_key(key)));
            }
            postings.push(next);
        }
        run.push((into_key(key), postings));
    }
    Ok(run)
}

/// The physical index payload.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexData {
    /// Hash-backed.
    Hash(FxHashMap<Vec<Value>, Postings>),
    /// B-tree-backed.
    BTree(BTreeMap<Vec<Value>, Postings>),
}

/// An index: definition plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Index {
    /// Logical definition.
    pub def: IndexDef,
    data: IndexData,
}

impl Index {
    /// Creates an empty index for `def`.
    pub fn new(def: IndexDef) -> Self {
        let data = match def.kind {
            IndexKind::Hash => IndexData::Hash(FxHashMap::default()),
            IndexKind::BTree => IndexData::BTree(BTreeMap::new()),
        };
        Index { def, data }
    }

    /// Builds an index over `count` existing rows in one pass — the one
    /// "index from rows" routine, shared by snapshot bulk load and
    /// [`Table::create_index`](crate::table::Table::create_index)'s
    /// backfill. A hash index is reserved to the row count up front; a
    /// B-tree is built bottom-up from one sorted run instead of by
    /// `count` root-to-leaf inserts. Rows under one key end up in id
    /// order whatever order they arrive in. A second row under one key
    /// of a unique index is an [`Error::UniqueViolation`].
    pub fn build<'r>(
        def: IndexDef,
        count: usize,
        rows: impl Iterator<Item = (RowId, &'r [Value])>,
    ) -> Result<Self> {
        let data = match def.kind {
            IndexKind::Hash => {
                let mut m = FxHashMap::with_capacity_and_hasher(count, Default::default());
                for (row, values) in rows {
                    match m.entry(def.key_of(values)) {
                        Entry::Vacant(slot) => {
                            slot.insert(Postings::One(row));
                        }
                        Entry::Occupied(slot) if def.unique => {
                            return Err(def.violation(slot.key()));
                        }
                        Entry::Occupied(mut slot) => slot.get_mut().push(row),
                    }
                }
                IndexData::Hash(m)
            }
            IndexKind::BTree => {
                // A one-column key — most are — sorts as the bare value:
                // no allocation per row and nothing to chase per
                // comparison; only distinct keys become vectors.
                let run = match def.key_columns[..] {
                    [col] => {
                        sorted_run(&def, count, rows.map(|(row, v)| (v[col].clone(), row)), |k| vec![k])
                    }
                    _ => sorted_run(&def, count, rows.map(|(row, v)| (def.key_of(v), row)), |k| k),
                }?;
                // `from_iter` on a sorted, duplicate-free run is std's
                // bulk build: leaves are filled left to right.
                IndexData::BTree(BTreeMap::from_iter(run))
            }
        };
        Ok(Index { def, data })
    }

    /// Number of distinct keys currently indexed.
    pub fn distinct_keys(&self) -> usize {
        match &self.data {
            IndexData::Hash(m) => m.len(),
            IndexData::BTree(m) => m.len(),
        }
    }

    /// True if `key` is present with at least one row.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        !self.get(key).is_empty()
    }

    /// Rows carrying exactly `key` (empty slice if none).
    pub fn get(&self, key: &[Value]) -> &[RowId] {
        match &self.data {
            IndexData::Hash(m) => m.get(key),
            IndexData::BTree(m) => m.get(key),
        }
        .map_or(&[], Postings::as_slice)
    }

    /// A cursor over every `(key, rows)` entry in key order, walkable
    /// from either end; `None` for a hash index, which has no order.
    pub fn cursor(&self) -> Option<Cursor<'_>> {
        match &self.data {
            IndexData::Hash(_) => None,
            IndexData::BTree(m) => Some(Cursor(m.iter())),
        }
    }

    /// Inserts a `(key, row)` pair. The caller (the table) has already
    /// checked uniqueness; this is pure maintenance.
    pub fn insert(&mut self, key: Vec<Value>, row: RowId) {
        match &mut self.data {
            IndexData::Hash(m) => {
                m.entry(key).and_modify(|p| p.push(row)).or_insert(Postings::One(row));
            }
            IndexData::BTree(m) => {
                m.entry(key).and_modify(|p| p.push(row)).or_insert(Postings::One(row));
            }
        }
    }

    /// Removes a `(key, row)` pair. Returns whether the pair was found.
    /// The key is taken whole so that finding the entry and dropping it
    /// once empty are one descent, not two.
    pub fn remove(&mut self, key: Vec<Value>, row: RowId) -> bool {
        match &mut self.data {
            IndexData::Hash(m) => {
                let Entry::Occupied(mut slot) = m.entry(key) else { return false };
                let (found, emptied) = remove_posting(slot.get_mut(), row);
                if emptied {
                    slot.remove();
                }
                found
            }
            IndexData::BTree(m) => {
                let btree_map::Entry::Occupied(mut slot) = m.entry(key) else { return false };
                let (found, emptied) = remove_posting(slot.get_mut(), row);
                if emptied {
                    slot.remove();
                }
                found
            }
        }
    }

    /// Drops all entries.
    pub fn clear(&mut self) {
        match &mut self.data {
            IndexData::Hash(m) => m.clear(),
            IndexData::BTree(m) => m.clear(),
        }
    }
}

/// A borrowed walk over a B-tree index ([`Index::cursor`]): each entry
/// is a key and the rows carrying it, ascending by row id, both lent by
/// the index — nothing is cloned. `next` walks up the key order,
/// `next_back` down it.
#[derive(Debug, Clone)]
pub struct Cursor<'a>(btree_map::Iter<'a, Vec<Value>, Postings>);

impl<'a> Iterator for Cursor<'a> {
    type Item = (&'a [Value], &'a [RowId]);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, p)| (k.as_slice(), p.as_slice()))
    }
}

impl DoubleEndedIterator for Cursor<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|(k, p)| (k.as_slice(), p.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(kind: IndexKind, unique: bool) -> IndexDef {
        IndexDef { name: "idx".into(), key_columns: vec![0], kind, unique }
    }

    fn k(v: i64) -> Vec<Value> {
        vec![Value::Int(v)]
    }

    #[test]
    fn hash_point_lookup() {
        let mut ix = Index::new(def(IndexKind::Hash, false));
        ix.insert(k(1), RowId(10));
        ix.insert(k(1), RowId(11));
        ix.insert(k(2), RowId(20));
        assert_eq!(ix.get(&k(1)).len(), 2);
        assert_eq!(ix.get(&k(2)), &[RowId(20)]);
        assert!(ix.get(&k(3)).is_empty());
        assert_eq!(ix.distinct_keys(), 2);
    }

    #[test]
    fn remove_clears_empty_keys() {
        let mut ix = Index::new(def(IndexKind::BTree, false));
        ix.insert(k(1), RowId(10));
        assert!(ix.remove(k(1), RowId(10)));
        assert!(!ix.remove(k(1), RowId(10)));
        assert_eq!(ix.distinct_keys(), 0);
        assert!(!ix.contains_key(&k(1)));
    }

    #[test]
    fn cursor_walks_key_order_from_either_end() {
        let mut ix = Index::new(def(IndexKind::BTree, false));
        for v in [5i64, 1, 3, 2, 4] {
            ix.insert(k(v), RowId(v as u64));
        }
        let keys = |c: &mut dyn Iterator<Item = (&[Value], &[RowId])>| -> Vec<i64> {
            c.map(|(key, _)| key[0].as_int().unwrap()).collect()
        };
        assert_eq!(keys(&mut ix.cursor().unwrap()), vec![1, 2, 3, 4, 5]);
        assert_eq!(keys(&mut ix.cursor().unwrap().rev()), vec![5, 4, 3, 2, 1]);
        // The two ends meet: nothing is yielded twice.
        let mut c = ix.cursor().unwrap();
        assert_eq!(c.next().unwrap().1, &[RowId(1)]);
        assert_eq!(c.next_back().unwrap().1, &[RowId(5)]);
        assert_eq!(keys(&mut c), vec![2, 3, 4]);
    }

    #[test]
    fn hash_index_has_no_cursor() {
        let mut ix = Index::new(def(IndexKind::Hash, false));
        ix.insert(k(1), RowId(1));
        assert!(ix.cursor().is_none());
    }

    #[test]
    fn postings_stay_in_row_id_order() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut ix = Index::new(def(kind, false));
            for r in [4u64, 9, 2, 7, 5] {
                ix.insert(k(1), RowId(r));
            }
            assert_eq!(ix.get(&k(1)), [2, 4, 5, 7, 9].map(RowId));
            // A delete in the middle closes the gap; a restore of the
            // same id (undo) lands where it was.
            assert!(ix.remove(k(1), RowId(4)));
            assert!(!ix.remove(k(1), RowId(4)));
            assert_eq!(ix.get(&k(1)), [2, 5, 7, 9].map(RowId));
            ix.insert(k(1), RowId(4));
            assert_eq!(ix.get(&k(1)), [2, 4, 5, 7, 9].map(RowId));
            for r in [2u64, 4, 5, 7] {
                assert!(ix.remove(k(1), RowId(r)));
            }
            assert_eq!(ix.get(&k(1)), &[RowId(9)]);
        }
    }

    #[test]
    fn build_orders_postings_by_row_id_whatever_the_arrival_order() {
        let rows: Vec<(RowId, [Value; 1])> =
            [(7u64, 1i64), (3, 2), (5, 1), (1, 1), (2, 2)].map(|(r, v)| (RowId(r), [Value::Int(v)])).into();
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let ix =
                Index::build(def(kind, false), rows.len(), rows.iter().map(|(r, v)| (*r, &v[..]))).unwrap();
            assert_eq!(ix.get(&k(1)), [1, 5, 7].map(RowId));
            assert_eq!(ix.get(&k(2)), [2, 3].map(RowId));
        }
    }

    #[test]
    fn key_of_extracts_composite() {
        let d = IndexDef {
            name: "c".into(),
            key_columns: vec![2, 0],
            kind: IndexKind::Hash,
            unique: true,
        };
        let vals = [Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(d.key_of(&vals), vec![Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn clear_empties_index() {
        let mut ix = Index::new(def(IndexKind::Hash, false));
        ix.insert(k(1), RowId(1));
        ix.clear();
        assert_eq!(ix.distinct_keys(), 0);
    }
}
