//! Catalog snapshots (checkpoint images).
//!
//! H-Store's recovery scheme (§3.1) periodically writes a persistent
//! snapshot of all committed state, then replays the command log on top.
//! Our snapshot is a byte image of the full [`Catalog`]: every table's
//! kind, schema, index definitions, row-id counter, and live rows (with
//! their row ids, so the restored partition continues the exact id
//! sequence).
//!
//! # Layout (version 2)
//!
//! ```text
//! catalog image := magic:u32  version:u32  ntables:varint  table-frame*
//! table-frame   := len:u64  table-image            (len = bytes of table-image)
//! table-image   := name:str  kind:u8  schema  next_row_id:u64
//!                  nindexes:varint  index-def*
//!                  nrows:varint  (row_id:u64  tuple)*     rows in row-id order
//! index-def     := name:str  kind:u8  unique:u8  ncols:varint  col:varint*
//! ```
//!
//! The magic and version make stale or foreign files fail loudly
//! instead of deserializing garbage; version 1 (unframed tables) is
//! rejected. Each table image is a **frame**: its byte length comes
//! first, back-patched by the one encoder that writes the image, so a
//! reader that only wants some tables — checkpoint-chain restore, which
//! keeps the newest image of each table — reads a frame's name
//! ([`TableFrame`]) and steps over the rest without decoding it.
//!
//! An incremental checkpoint's delta carries each table it names in one
//! of two shapes ([`encode_delta_frame`]): the whole table image, or a
//! **rows frame** — only the rows that changed since the table's last
//! image:
//!
//! ```text
//! delta-frame := 0:u8  table-frame  |  1:u8  rows-frame
//! rows-frame  := len:u64  name:str  next_row_id:u64
//!                ndeleted:varint  row_id:u64*              ascending
//!                nrows:varint  (row_id:u64  tuple)*        rows in row-id order
//! ```
//!
//! [`decode_chain`] rebuilds a table from its last whole image and the
//! rows frames written after it.
//!
//! Decoding trusts nothing the image says about sizes: every count is
//! bounded by the bytes that remain over its item's minimum size before
//! anything is reserved from it (`sstore_common::codec`'s count rule). A
//! table is rebuilt by [`Table::bulk_load`] — rows appended in id
//! order, each index built in one pass — not row by row.

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{Error, Result, RowId, Tuple};

use crate::catalog::Catalog;
use crate::index::{IndexDef, IndexKind};
use crate::table::{Table, TableKind};

const MAGIC: u32 = 0x5353_4E41; // "SSNA" — S-Store 'N'apshot
const VERSION: u32 = 2;

/// Serializes a catalog to a self-contained byte image.
pub fn encode_catalog(catalog: &Catalog) -> Vec<u8> {
    let mut e = Encoder::with_capacity(1024);
    put_catalog(&mut e, catalog);
    e.finish()
}

/// Writes the image [`encode_catalog`] returns into an existing encoder.
pub fn put_catalog(e: &mut Encoder, catalog: &Catalog) {
    e.put_u32(MAGIC);
    e.put_u32(VERSION);
    e.put_seq(catalog.iter(), encode_table_image);
}

/// Serializes one table (name, kind, schema, indexes, rows) as a frame
/// into an existing encoder — the unit of a catalog image and the whole
/// shape of a delta frame. Read back with [`TableFrame::read`].
pub fn encode_table_image(e: &mut Encoder, table: &Table) {
    e.put_framed(|e| {
        e.put_str(table.name());
        e.put_u8(table.kind().tag());
        e.put_schema(table.schema());
        e.put_u64(table.peek_next_row_id().raw());
        e.put_seq(table.index_defs(), |e, d| {
            e.put_str(&d.name);
            e.put_u8(match d.kind {
                IndexKind::Hash => 0,
                IndexKind::BTree => 1,
            });
            e.put_u8(u8::from(d.unique));
            e.put_seq(&d.key_columns, |e, &c| e.put_varint(c as u64));
        });
        // The one sequence not written by `put_seq`: the live-row walk
        // does not know its length, the table does.
        e.put_varint(table.len() as u64);
        for (id, t) in table.scan_ordered() {
            e.put_u64(id.raw());
            e.put_tuple(t);
        }
    });
}

/// Serializes one table of a delta, shape byte first: the whole table
/// image when `changed` is `None`, else a rows frame for
/// `changed = (floor, touched)` — the table's row-id counter at its last
/// image, and the ids below it that an update or a delete named since,
/// ascending and without repeats. The rows frame holds the counter, the
/// touched ids no longer live, then in id order the touched rows that
/// are and every live row from `floor` on. Read back with
/// [`TableFrame::read_delta`].
pub fn encode_delta_frame(e: &mut Encoder, table: &Table, changed: Option<(RowId, &[RowId])>) {
    let Some((floor, touched)) = changed else {
        e.put_u8(0);
        return encode_table_image(e, table);
    };
    e.put_u8(1);
    e.put_framed(|e| {
        e.put_str(table.name());
        e.put_u64(table.peek_next_row_id().raw());
        let deleted: Vec<RowId> = touched.iter().copied().filter(|&id| !table.contains(id)).collect();
        e.put_seq(&deleted, |e, id| e.put_u64(id.raw()));
        let kept = touched.iter().filter_map(|&id| Some((id, table.get(id)?)));
        e.put_varint((touched.len() - deleted.len() + table.scan_from(floor).count()) as u64);
        for (id, t) in kept.chain(table.scan_from(floor)) {
            e.put_u64(id.raw());
            e.put_tuple(t);
        }
    });
}

/// A rows frame's entries in id order: a live row as `Some`, a deleted
/// id as `None`.
pub type RowChanges = Vec<(RowId, Option<Tuple>)>;

/// One table image, located but not decoded: its name, its shape and
/// its bytes.
#[derive(Debug, Clone)]
pub struct TableFrame<'a> {
    /// The table's name (lower-cased, as stored).
    pub name: String,
    /// A rows frame ([`encode_delta_frame`]) rather than a whole image.
    pub rows: bool,
    image: &'a [u8],
}

impl<'a> TableFrame<'a> {
    /// Reads the next frame written by [`encode_table_image`], leaving
    /// `d` just past it. Costs the name, not the rows.
    pub fn read(d: &mut Decoder<'a>) -> Result<Self> {
        let image = d.get_framed()?;
        let name = Decoder::new(image).get_str()?;
        Ok(TableFrame { name, rows: false, image })
    }

    /// Reads the next frame written by [`encode_delta_frame`], as
    /// [`TableFrame::read`] does.
    pub fn read_delta(d: &mut Decoder<'a>) -> Result<Self> {
        let rows = match d.get_u8()? {
            0 => false,
            1 => true,
            t => return Err(Error::Codec(format!("unknown delta frame shape {t}"))),
        };
        Ok(TableFrame { rows, ..Self::read(d)? })
    }

    /// Decodes the table of a whole image.
    pub fn decode(&self) -> Result<Table> {
        decode_chain(std::slice::from_ref(self))
    }

    /// A rows frame's row-id counter and its entries.
    pub fn changes(&self) -> Result<(u64, RowChanges)> {
        let mut d = Decoder::new(self.image);
        d.get_str()?;
        let next_row_id = d.get_u64()?;
        let deleted = d.get_seq(8, "deleted row", |d| Ok((RowId(d.get_u64()?), None)))?;
        let nrows = d.get_count(9, "row")?;
        let rows = (0..nrows).map(|_| Ok((RowId(d.get_u64()?), Some(d.get_tuple()?))));
        let changes = overlay(rows, deleted).collect::<Result<_>>()?;
        self.exhausted(&d)?;
        Ok((next_row_id, changes))
    }

    fn exhausted(&self, d: &Decoder<'_>) -> Result<()> {
        if !d.is_exhausted() {
            return Err(Error::Codec(format!(
                "{} trailing bytes in the image of table {}",
                d.remaining(),
                self.name
            )));
        }
        Ok(())
    }
}

/// `older` with `newer` laid over it, both in ascending id order: an id
/// both hold takes `newer`'s entry. An error in `older` comes out as
/// soon as it is reached.
fn overlay<T>(
    older: impl Iterator<Item = Result<(RowId, T)>>,
    newer: Vec<(RowId, T)>,
) -> impl Iterator<Item = Result<(RowId, T)>> {
    let (mut older, mut newer) = (older.peekable(), newer.into_iter().peekable());
    std::iter::from_fn(move || {
        let take_older = match (older.peek(), newer.peek()) {
            (None, None) => return None,
            (Some(Ok((o, _))), Some((n, _))) if o >= n => {
                if o == n {
                    older.next();
                }
                false
            }
            (Some(_), _) => true,
            (None, Some(_)) => false,
        };
        if take_older {
            older.next()
        } else {
            newer.next().map(Ok)
        }
    })
}

/// The table frames of an image produced by [`encode_catalog`], in
/// image (name) order, with the header and the framing checked and no
/// table decoded.
pub fn catalog_frames(bytes: &[u8]) -> Result<Vec<TableFrame<'_>>> {
    let mut d = Decoder::new(bytes);
    let magic = d.get_u32()?;
    if magic != MAGIC {
        return Err(Error::Codec(format!("bad snapshot magic {magic:#x}")));
    }
    let version = d.get_u32()?;
    if version != VERSION {
        return Err(Error::Codec(format!("unsupported snapshot version {version}")));
    }
    let frames = d.get_seq(8, "table", TableFrame::read)?;
    if !d.is_exhausted() {
        return Err(Error::Codec(format!(
            "{} trailing bytes after snapshot payload",
            d.remaining()
        )));
    }
    Ok(frames)
}

/// Restores a catalog from a byte image produced by [`encode_catalog`].
pub fn decode_catalog(bytes: &[u8]) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    for frame in catalog_frames(bytes)? {
        catalog.install_table(frame.decode()?)?;
    }
    Ok(catalog)
}

/// Decodes a table from its frames in a checkpoint chain: its last
/// whole image, then the rows frames written after it, oldest first.
/// Each rows frame's entries replace or delete the rows it names, a
/// newer frame's over an older's; the whole image's rows are read once,
/// merged with them by id on the way into one [`Table::bulk_load`], so
/// every index is built once.
pub fn decode_chain(frames: &[TableFrame<'_>]) -> Result<Table> {
    let Some((whole, later)) = frames.split_first().filter(|(whole, _)| !whole.rows) else {
        return Err(Error::Codec("a table's frames do not start with a whole image".into()));
    };
    let mut changes = Vec::new();
    let mut last_next = 0;
    for frame in later {
        let (next_row_id, newer) = frame.changes()?;
        changes = overlay(changes.into_iter().map(Ok), newer).collect::<Result<_>>()?;
        last_next = next_row_id;
    }

    let mut d = Decoder::new(whole.image);
    let name = d.get_str()?;
    let kind = TableKind::from_tag(d.get_u8()?)?;
    let schema = d.get_schema()?;
    let next_row_id = d.get_u64()?.max(last_next);

    // An index definition is at least a name length, two tags and a
    // column count.
    let indexes = d.get_seq(4, "index", |d| {
        let name = d.get_str()?;
        let kind = match d.get_u8()? {
            0 => IndexKind::Hash,
            1 => IndexKind::BTree,
            t => return Err(Error::Codec(format!("unknown index kind tag {t}"))),
        };
        let unique = d.get_u8()? != 0;
        let key_columns = d.get_seq(1, "index key column", |d| Ok(d.get_varint()? as usize))?;
        Ok(IndexDef { name, key_columns, kind, unique })
    })?;

    // A row is at least eight id bytes and one arity byte.
    let nrows = d.get_count(9, "row")?;
    let count = nrows + changes.len();
    let rows = (0..nrows).map(|_| Ok((RowId(d.get_u64()?), Some(d.get_tuple()?))));
    let live = overlay(rows, changes).filter_map(|row| row.map(|(id, t)| t.map(|t| (id, t))).transpose());
    let table = Table::bulk_load(name, kind, schema, next_row_id, indexes, count, live)
        .map_err(|e| Error::Codec(format!("rebuilding table failed: {e}")))?;
    whole.exhausted(&d)?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{tuple, DataType, Schema, Value};

    fn sample_catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = c
            .create_table(
                "votes",
                TableKind::Base,
                Schema::of(&[("phone", DataType::Int), ("contestant", DataType::Int)]),
            )
            .unwrap();
        t.create_index(IndexDef {
            name: "by_phone".into(),
            key_columns: vec![0],
            kind: IndexKind::Hash,
            unique: true,
        })
        .unwrap();
        t.insert(tuple![5551000i64, 1i64]).unwrap();
        t.insert(tuple![5551001i64, 2i64]).unwrap();
        let gone = t.insert(tuple![5551002i64, 3i64]).unwrap();
        t.delete(gone).unwrap(); // counter now ahead of max live id

        let s = c
            .create_table("s1", TableKind::Stream, Schema::of(&[("v", DataType::Int)]))
            .unwrap();
        s.insert(tuple![42i64]).unwrap();
        c.create_table("w1", TableKind::Window, Schema::of(&[("v", DataType::Float)])).unwrap();
        c
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = sample_catalog();
        let bytes = encode_catalog(&original);
        let restored = decode_catalog(&bytes).unwrap();

        assert_eq!(restored.len(), original.len());
        for t in original.iter() {
            let r = restored.table(t.name()).unwrap();
            assert_eq!(r.kind(), t.kind());
            assert_eq!(r.schema(), t.schema());
            assert_eq!(r.len(), t.len());
            assert_eq!(r.peek_next_row_id(), t.peek_next_row_id());
            assert!(r.index_defs().eq(t.index_defs()));
            let orig_rows: Vec<_> = t.scan_ordered().collect();
            let rest_rows: Vec<_> = r.scan_ordered().collect();
            assert_eq!(orig_rows.len(), rest_rows.len());
            for ((ia, ta), (ib, tb)) in orig_rows.iter().zip(&rest_rows) {
                assert_eq!(ia, ib);
                assert_eq!(ta, tb);
            }
        }
    }

    #[test]
    fn restored_indexes_answer_lookups() {
        let bytes = encode_catalog(&sample_catalog());
        let restored = decode_catalog(&bytes).unwrap();
        let votes = restored.table("votes").unwrap();
        assert_eq!(votes.lookup_eq(&[0], &[Value::Int(5551000)]).len(), 1);
        assert!(votes.lookup_eq(&[0], &[Value::Int(5551002)]).is_empty());
        assert!(votes.stats().index_lookups() >= 1, "lookup must use the restored index");
    }

    #[test]
    fn restored_counter_continues_sequence() {
        let original = sample_catalog();
        let next_before = original.table("votes").unwrap().peek_next_row_id();
        let bytes = encode_catalog(&original);
        let mut restored = decode_catalog(&bytes).unwrap();
        let id = restored.table_mut("votes").unwrap().insert(tuple![5559999i64, 4i64]).unwrap();
        assert_eq!(id, next_before);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_catalog(&sample_catalog());
        bytes[0] ^= 0xff;
        assert!(matches!(decode_catalog(&bytes), Err(Error::Codec(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_catalog(&sample_catalog());
        bytes[4] = 99;
        assert!(decode_catalog(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_catalog(&sample_catalog());
        bytes.push(0);
        assert!(decode_catalog(&bytes).is_err());
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let bytes = encode_catalog(&sample_catalog());
        for cut in 0..bytes.len() {
            assert!(decode_catalog(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Offset of the first row of the first table ("s1", one Int
    /// column, no indexes, one row): everything before it is header.
    fn first_row_offset(bytes: &[u8]) -> usize {
        let mut d = Decoder::new(bytes);
        d.get_u32().unwrap();
        d.get_u32().unwrap();
        d.get_varint().unwrap();
        d.get_u64().unwrap(); // frame length
        assert_eq!(d.get_str().unwrap(), "s1");
        d.get_u8().unwrap();
        d.get_schema().unwrap();
        d.get_u64().unwrap();
        assert_eq!(d.get_varint().unwrap(), 0);
        assert_eq!(d.get_varint().unwrap(), 1);
        d.position()
    }

    #[test]
    fn corrupt_header_bytes_never_panic_and_hostile_counts_are_errors() {
        let bytes = encode_catalog(&sample_catalog());
        let header = first_row_offset(&bytes);
        // Any single corrupted byte: decode returns (some corruptions —
        // a letter of a name — are simply another valid image).
        for at in 0..header {
            for v in 0..=255u8 {
                let mut b = bytes.clone();
                b[at] = v;
                let _ = decode_catalog(&b);
            }
        }
        // Counts and lengths the image supplies, made huge: each must
        // be refused before anything is reserved from it. In order:
        // table count, frame length (top byte), index count, row count.
        for (at, v) in [(8, 0x7f), (9 + 7, 0x7f), (header - 2, 0x7f), (header - 1, 0x7f)] {
            let mut b = bytes.clone();
            b[at] = v;
            assert!(decode_catalog(&b).is_err(), "byte {at} = {v:#x}");
        }
        // Multi-byte varints too: a row count of u64::MAX spliced in.
        let mut b = bytes[..header - 1].to_vec();
        b.extend_from_slice(&[0xff; 9]);
        b.push(0x01);
        b.extend_from_slice(&bytes[header..]);
        assert!(decode_catalog(&b).is_err());
    }

    #[test]
    fn duplicate_keys_and_row_ids_are_codec_errors() {
        // Two rows under one key of a unique index, and a repeated row
        // id: images no encoder writes, found while the table is built.
        let mut c = Catalog::new();
        let t = c.create_table("t", TableKind::Base, Schema::of(&[("k", DataType::Int)])).unwrap();
        t.insert(tuple![1i64]).unwrap();
        t.insert(tuple![2i64]).unwrap();
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut dup = c.clone();
            let t = dup.table_mut("t").unwrap();
            t.update(RowId(1), tuple![1i64]).unwrap();
            let mut bytes = encode_catalog(&dup);
            // Declare the unique index in the image only: splice an
            // index definition in place of the zero index count.
            let at = bytes.len() - (1 + 2 * (8 + 1 + 1 + 8)) - 1;
            assert_eq!(bytes[at], 0, "index count");
            let mut e = Encoder::new();
            e.put_varint(1);
            e.put_str("u");
            e.put_u8(if kind == IndexKind::Hash { 0 } else { 1 });
            e.put_u8(1);
            e.put_varint(1);
            e.put_varint(0);
            bytes.splice(at..=at, e.finish());
            let len = (bytes.len() - 17) as u64;
            bytes[9..17].copy_from_slice(&len.to_le_bytes());
            let err = decode_catalog(&bytes).unwrap_err();
            assert!(matches!(&err, Error::Codec(m) if m.contains("unique")), "{kind:?}: {err}");
        }
        let mut bytes = encode_catalog(&c);
        let second_id = bytes.len() - (8 + 1 + 1 + 8);
        bytes[second_id] = 0; // row id 1 → 0, repeating the first
        let err = decode_catalog(&bytes).unwrap_err();
        assert!(matches!(&err, Error::Codec(m) if m.contains("repeats")), "{err}");
    }

    #[test]
    fn empty_catalog_roundtrips() {
        let c = Catalog::new();
        let restored = decode_catalog(&encode_catalog(&c)).unwrap();
        assert!(restored.is_empty());
    }
}
