//! Group indexes: a table's `GROUP BY` answer, kept current by the
//! mutations that change it.
//!
//! A [`GroupIndex`] maps the values of its key columns to one
//! [`GroupAcc`] — how many live rows carry that key and, per tracked
//! column, how many of them are non-NULL, their exact integer sum and
//! the sum of their magnitudes. Every quantity is invertible: a row
//! leaving subtracts exactly what it added on arrival, so the index
//! after any history equals a fold over the live rows
//! ([`GroupIndex::build`]), which is also how it is rebuilt. A group with
//! no rows is dropped. Like hash and B-tree indexes it owns no tuples
//! and is maintained by [`Table`](crate::table::Table)'s mutation paths;
//! unlike them it is derived state and appears in no snapshot.
//!
//! Keys live in an ordered map, so a reader meets groups in ascending
//! key order — the order the SELECT output edge is offered groups in —
//! without sorting them per statement.
//!
//! Following every mutation pays off only if the index is read often
//! enough. The rule is on what the index can see, not a setting: once it
//! has absorbed more mutations since its last read than the table holds
//! rows — more work than the one scan that rebuilds it — it stops
//! following and readers scan, as they would without it; the first read
//! ([`GroupIndex::refresh`]) that finds no more mutations than rows
//! behind it rebuilds the index with one scan and it follows again. A
//! 100-row window read once per arrival follows (two mutations a read:
//! the row that slid in and the row that slid out);
//! the same window read once per 100 arrivals only counts its mutations,
//! and its reader pays the scan it always paid.

use std::collections::BTreeMap;

use sstore_common::Value;

/// Which `GROUP BY` a [`GroupIndex`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupIndexDef {
    /// Key column positions, in `GROUP BY` order (empty: one group over
    /// the whole table).
    pub key_columns: Vec<usize>,
    /// Columns whose non-NULL count and integer sum are kept, ascending.
    pub agg_columns: Vec<usize>,
}

/// What is kept per tracked column of a group.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColAcc {
    /// Rows where the column is not NULL.
    pub non_null: u64,
    /// Exact sum of the column's Int values.
    pub sum: i128,
    /// Sum of their magnitudes: while it fits an `i64`, no running sum
    /// over these rows, in any order, can have overflowed one.
    pub abs: u128,
}

/// One group's maintained aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupAcc {
    /// Live rows carrying the key.
    pub rows: u64,
    /// Parallel to [`GroupIndexDef::agg_columns`].
    pub cols: Vec<ColAcc>,
}

/// A maintained `GROUP BY`: definition plus one entry per non-empty group.
#[derive(Debug, Clone)]
pub struct GroupIndex {
    /// What is grouped and tracked.
    pub def: GroupIndexDef,
    groups: BTreeMap<Vec<Value>, GroupAcc>,
    /// Mutations of the table since the last [`GroupIndex::refresh`].
    absorbed: usize,
    /// Mutations are applied as they happen, so `groups` is the fold of
    /// the table's rows (module docs).
    following: bool,
}

impl GroupIndex {
    /// The index over `rows`, following.
    pub fn build<'r>(def: GroupIndexDef, rows: impl Iterator<Item = &'r [Value]>) -> Self {
        let mut ix = GroupIndex { def, groups: BTreeMap::new(), absorbed: 0, following: true };
        rows.for_each(|values| ix.count(values, true));
        ix
    }

    /// The non-empty groups, ascending by key; `None` while the index
    /// is behind its table (a reader then scans, or refreshes first).
    pub fn groups(&self) -> Option<impl Iterator<Item = (&[Value], &GroupAcc)> + '_> {
        self.following.then(|| self.groups.iter().map(|(k, acc)| (k.as_slice(), acc)))
    }

    /// Tells the index a read of its table — these `live` `rows` — is
    /// about to happen. If no more mutations than rows came since the
    /// last one it follows from here, rebuilt with one scan if it had
    /// stopped; otherwise it stays behind and the reader scans.
    pub(crate) fn refresh<'r>(&mut self, live: usize, rows: impl Iterator<Item = &'r [Value]>) {
        let was_behind = !std::mem::replace(&mut self.following, self.absorbed <= live);
        self.absorbed = 0;
        if self.following && was_behind {
            self.groups = GroupIndex::build(self.def.clone(), rows).groups;
        }
    }

    /// True unless the index claims to be current and is not the fold
    /// of `rows`.
    pub(crate) fn agrees_with<'r>(&self, rows: impl Iterator<Item = &'r [Value]>) -> bool {
        !self.following || self.groups == GroupIndex::build(self.def.clone(), rows).groups
    }

    /// The table was emptied.
    pub(crate) fn clear(&mut self) {
        self.groups.clear();
    }

    /// A row arrives in (`arrives`) or leaves a table holding `live` rows.
    pub(crate) fn apply(&mut self, values: &[Value], arrives: bool, live: usize) {
        self.absorbed += 1;
        self.following &= self.absorbed <= live;
        if self.following {
            self.count(values, arrives);
        }
    }

    /// Counts a row in or out of its group.
    fn count(&mut self, values: &[Value], arrives: bool) {
        // A one-column key — most are — is looked up in place.
        let owned: Vec<Value>;
        let key = match self.def.key_columns[..] {
            [c] => std::slice::from_ref(&values[c]),
            ref cols => {
                owned = cols.iter().map(|&c| values[c].clone()).collect();
                &owned
            }
        };
        let agg_columns = &self.def.agg_columns;
        let step = |n: &mut u64| *n = if arrives { *n + 1 } else { *n - 1 };
        let count = |acc: &mut GroupAcc| {
            step(&mut acc.rows);
            for (col, &c) in acc.cols.iter_mut().zip(agg_columns) {
                if values[c].is_null() {
                    continue;
                }
                step(&mut col.non_null);
                if let Value::Int(v) = values[c] {
                    let (v, mag) = (i128::from(v), u128::from(v.unsigned_abs()));
                    col.sum += if arrives { v } else { -v };
                    col.abs = if arrives { col.abs + mag } else { col.abs - mag };
                }
            }
        };
        match self.groups.get_mut(key) {
            Some(acc) => {
                count(acc);
                if acc.rows == 0 {
                    self.groups.remove(key);
                }
            }
            None => {
                let mut acc = GroupAcc { rows: 0, cols: vec![ColAcc::default(); agg_columns.len()] };
                count(&mut acc);
                self.groups.insert(key.to_vec(), acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(k: i64, v: Option<i64>) -> [Value; 2] {
        [Value::Int(k), v.map_or(Value::Null, Value::Int)]
    }

    fn groups(ix: &GroupIndex) -> Vec<(Vec<Value>, GroupAcc)> {
        ix.groups().expect("current").map(|(k, acc)| (k.to_vec(), acc.clone())).collect()
    }

    #[test]
    fn a_row_leaving_takes_back_exactly_what_it_added() {
        let def = GroupIndexDef { key_columns: vec![0], agg_columns: vec![1] };
        let rows = [row(1, Some(i64::MAX)), row(1, Some(i64::MIN)), row(1, None), row(2, Some(-3))];
        let mut ix = GroupIndex::build(def.clone(), rows.iter().map(|r| &r[..]));
        let acc = |k: i64, rows, non_null, sum: i128, abs: u128| {
            (vec![Value::Int(k)], GroupAcc { rows, cols: vec![ColAcc { non_null, sum, abs }] })
        };
        assert_eq!(groups(&ix), vec![acc(1, 3, 2, -1, u128::from(u64::MAX)), acc(2, 1, 1, -3, 3)]);
        ix.apply(&rows[0], false, 4);
        ix.apply(&rows[3], false, 3);
        assert!(ix.agrees_with(rows[1..3].iter().map(|r| &r[..])));
        assert!(!ix.agrees_with(rows[1..].iter().map(|r| &r[..])));
        assert_eq!(groups(&ix).len(), 1, "a group with no rows is dropped");
    }

    #[test]
    fn the_zero_key_index_holds_at_most_one_group() {
        let def = GroupIndexDef { key_columns: vec![], agg_columns: vec![1] };
        let mut ix = GroupIndex::build(def, std::iter::empty());
        assert!(groups(&ix).is_empty());
        ix.refresh(2, std::iter::empty());
        ix.apply(&row(1, Some(4)), true, 2);
        ix.apply(&row(2, Some(5)), true, 2);
        let got = groups(&ix);
        assert!(got[0].0.is_empty());
        assert_eq!((got.len(), got[0].1.rows, got[0].1.cols[0].sum), (1, 2, 9));
    }

    #[test]
    fn follows_while_read_often_and_is_rebuilt_at_the_read_otherwise() {
        let def = GroupIndexDef { key_columns: vec![0], agg_columns: vec![] };
        let rows = [row(1, None), row(1, None), row(2, None)];
        let all = || rows.iter().map(|r| &r[..]);
        let mut ix = GroupIndex::build(def, all());
        // Three mutations against three rows: still following.
        for _ in 0..3 {
            ix.apply(&rows[2], true, 3);
        }
        assert_eq!(groups(&ix)[1].1.rows, 4);
        // The fourth is one more than a rebuild would cost: it stops,
        // and a reader is told to look elsewhere until a refresh.
        ix.apply(&rows[2], true, 3);
        assert!(ix.groups().is_none());
        assert!(ix.agrees_with(std::iter::empty()), "nothing is claimed, nothing to refute");
        // The period that read ends was write-heavy: it keeps counting…
        ix.refresh(3, all());
        assert!(ix.groups().is_none());
        ix.apply(&rows[0], false, 3);
        // …until a read finds no more mutations than rows behind it,
        // rebuilds from the rows and follows again.
        ix.refresh(3, all());
        assert_eq!(groups(&ix)[1].1.rows, 1);
        ix.apply(&rows[0], false, 3);
        assert_eq!(groups(&ix)[0].1.rows, 1);
    }
}
