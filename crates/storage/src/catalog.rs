//! The catalog: a named collection of tables owned by one partition.

use std::collections::BTreeMap;

use sstore_common::{Error, Result, Schema, TableId};

use crate::table::{Table, TableKind};

/// All tables of one partition.
///
/// Tables live in a dense vector addressed by [`TableId`] (assigned in
/// creation order) — the engine and compiled SQL plans resolve names to
/// ids once and use O(1), allocation-free id access on the hot path.
/// Name lookup (case-insensitive; names are stored lower-cased) stays
/// available at the public API edge. The name map is a `BTreeMap` so
/// iteration order — and therefore snapshot byte layout and recovery
/// order — is deterministic.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    /// Dense storage; `None` marks a dropped table (ids stay stable).
    tables: Vec<Option<Table>>,
    by_name: BTreeMap<String, TableId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates a table, assigning the next [`TableId`]. Fails if the
    /// name is taken.
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        kind: TableKind,
        schema: Schema,
    ) -> Result<&mut Table> {
        self.install_table(Table::new(name, kind, schema)).map(move |id| {
            self.tables[id.index()].as_mut().expect("just installed")
        })
    }

    /// Registers an already-built table (snapshot load path), returning
    /// its assigned id.
    pub fn install_table(&mut self, table: Table) -> Result<TableId> {
        let name = table.name().to_owned();
        if self.by_name.contains_key(&name) {
            return Err(Error::already_exists("table", name));
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(Some(table));
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Swaps a table's contents in place, preserving its [`TableId`]
    /// (incremental-checkpoint delta apply: compiled plans and the
    /// engine's id-indexed state address tables by dense id, so a
    /// drop + install — which would mint a NEW id — must never be used
    /// to overwrite an existing table). The replacement must carry the
    /// same name as the table it replaces.
    pub fn replace_table(&mut self, table: Table) -> Result<TableId> {
        let name = table.name().to_owned();
        let id = *self.by_name.get(&name).ok_or_else(|| Error::not_found("table", &name))?;
        self.tables[id.index()] = Some(table);
        Ok(id)
    }

    /// Drops a table. Its id is retired, not reused.
    pub fn drop_table(&mut self, name: &str) -> Result<Table> {
        let key = name.to_ascii_lowercase();
        let id = self.by_name.remove(&key).ok_or_else(|| Error::not_found("table", name))?;
        Ok(self.tables[id.index()].take().expect("named table is present"))
    }

    /// Resolves a (case-insensitive) name to its id.
    pub fn id_of(&self, name: &str) -> Option<TableId> {
        if let Some(id) = self.by_name.get(name) {
            return Some(*id);
        }
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// O(1) access by id. Panics on a retired or foreign id — ids are
    /// only ever minted by this catalog, so that is an engine bug.
    #[inline]
    pub fn get(&self, id: TableId) -> &Table {
        self.tables[id.index()].as_ref().expect("table id is live")
    }

    /// O(1) mutable access by id.
    #[inline]
    pub fn get_mut(&mut self, id: TableId) -> &mut Table {
        self.tables[id.index()].as_mut().expect("table id is live")
    }

    /// Shared access to a table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.id_of(name).map(|id| self.get(id)).ok_or_else(|| Error::not_found("table", name))
    }

    /// Mutable access to a table by name.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let id = self.id_of(name).ok_or_else(|| Error::not_found("table", name))?;
        Ok(self.get_mut(id))
    }

    /// True if the name resolves.
    pub fn contains(&self, name: &str) -> bool {
        self.id_of(name).is_some()
    }

    /// Number of live tables.
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// True when the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }

    /// Iterates tables in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Table> + '_ {
        self.by_name.values().map(|id| self.get(*id))
    }

    /// Iterates `(id, table)` pairs in id (creation) order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (TableId, &Table)> + '_ {
        self.tables
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (TableId(i as u32), t)))
    }

    /// Iterates tables mutably (id order).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Table> + '_ {
        self.tables.iter_mut().flatten()
    }

    /// Names of all tables of a given kind, in name order.
    pub fn names_of_kind(&self, kind: TableKind) -> Vec<String> {
        self.iter()
            .filter(|t| t.kind() == kind)
            .map(|t| t.name().to_owned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::DataType;

    fn schema() -> Schema {
        Schema::of(&[("id", DataType::Int)])
    }

    #[test]
    fn create_get_drop() {
        let mut c = Catalog::new();
        c.create_table("T", TableKind::Base, schema()).unwrap();
        assert!(c.contains("t"));
        assert!(c.contains("T"));
        assert_eq!(c.table("t").unwrap().name(), "t");
        c.table_mut("T").unwrap();
        let t = c.drop_table("t").unwrap();
        assert_eq!(t.name(), "t");
        assert!(c.table("t").is_err());
        assert!(c.drop_table("t").is_err());
    }

    #[test]
    fn duplicate_create_fails() {
        let mut c = Catalog::new();
        c.create_table("t", TableKind::Base, schema()).unwrap();
        assert!(c.create_table("T", TableKind::Stream, schema()).is_err());
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut c = Catalog::new();
        c.create_table("a", TableKind::Base, schema()).unwrap();
        c.create_table("b", TableKind::Stream, schema()).unwrap();
        let a = c.id_of("a").unwrap();
        let b = c.id_of("B").unwrap();
        assert_eq!(a, TableId(0));
        assert_eq!(b, TableId(1));
        assert_eq!(c.get(b).name(), "b");
        c.get_mut(a).insert(sstore_common::tuple![1i64]).unwrap();
        assert_eq!(c.get(a).len(), 1);
        // Dropping `a` retires its id; `b` keeps its id.
        c.drop_table("a").unwrap();
        assert_eq!(c.id_of("b"), Some(TableId(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn names_of_kind_filters_and_orders() {
        let mut c = Catalog::new();
        c.create_table("zz", TableKind::Stream, schema()).unwrap();
        c.create_table("aa", TableKind::Stream, schema()).unwrap();
        c.create_table("mm", TableKind::Base, schema()).unwrap();
        assert_eq!(c.names_of_kind(TableKind::Stream), vec!["aa", "zz"]);
        assert_eq!(c.names_of_kind(TableKind::Window), Vec::<String>::new());
    }

    #[test]
    fn replace_table_preserves_the_id() {
        let mut c = Catalog::new();
        c.create_table("a", TableKind::Base, schema()).unwrap();
        c.create_table("b", TableKind::Base, schema()).unwrap();
        let a = c.id_of("a").unwrap();
        c.get_mut(a).insert(sstore_common::tuple![1i64]).unwrap();
        let mut replacement = Table::new("a", TableKind::Base, schema());
        replacement.insert(sstore_common::tuple![2i64]).unwrap();
        replacement.insert(sstore_common::tuple![3i64]).unwrap();
        let rid = c.replace_table(replacement).unwrap();
        assert_eq!(rid, a, "replacement keeps the dense id");
        assert_eq!(c.get(a).len(), 2);
        assert_eq!(c.id_of("b"), Some(TableId(1)));
        assert!(c.replace_table(Table::new("zz", TableKind::Base, schema())).is_err());
    }

    #[test]
    fn install_table_rejects_duplicates() {
        let mut c = Catalog::new();
        c.install_table(Table::new("t", TableKind::Base, schema())).unwrap();
        assert!(c.install_table(Table::new("t", TableKind::Base, schema())).is_err());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut c = Catalog::new();
        for n in ["b", "a", "c"] {
            c.create_table(n, TableKind::Base, schema()).unwrap();
        }
        let names: Vec<&str> = c.iter().map(Table::name).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        let id_order: Vec<&str> = c.iter_ids().map(|(_, t)| t.name()).collect();
        assert_eq!(id_order, vec!["b", "a", "c"]);
    }
}
