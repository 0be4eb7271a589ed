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
//! Decoding trusts nothing the image says about sizes: every count is
//! bounded by the bytes that remain over its item's minimum size before
//! anything is reserved from it (`sstore_common::codec`'s count rule). A
//! table is rebuilt by [`Table::bulk_load`] — rows appended in id
//! order, each index built in one pass — not row by row.

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{Error, Result, RowId};

use crate::catalog::Catalog;
use crate::index::{IndexDef, IndexKind};
use crate::table::{Table, TableKind};

const MAGIC: u32 = 0x5353_4E41; // "SSNA" — S-Store 'N'apshot
const VERSION: u32 = 2;

/// Serializes a catalog to a self-contained byte image.
pub fn encode_catalog(catalog: &Catalog) -> Vec<u8> {
    let mut e = Encoder::with_capacity(1024);
    e.put_u32(MAGIC);
    e.put_u32(VERSION);
    e.put_seq(catalog.iter(), encode_table_image);
    e.finish()
}

/// Serializes one table (name, kind, schema, indexes, rows) as a frame
/// into an existing encoder — the unit of a catalog image and of an
/// incremental-checkpoint delta, which carries only the tables dirtied
/// since the previous image. Read back with [`TableFrame::read`].
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

/// One table image, located but not decoded: its name and its bytes.
#[derive(Debug, Clone)]
pub struct TableFrame<'a> {
    /// The table's name (lower-cased, as stored).
    pub name: String,
    image: &'a [u8],
}

impl<'a> TableFrame<'a> {
    /// Reads the next frame written by [`encode_table_image`], leaving
    /// `d` just past it. Costs the name, not the rows.
    pub fn read(d: &mut Decoder<'a>) -> Result<Self> {
        let image = d.get_framed()?;
        let name = Decoder::new(image).get_str()?;
        Ok(TableFrame { name, image })
    }

    /// Decodes the table.
    pub fn decode(&self) -> Result<Table> {
        let mut d = Decoder::new(self.image);
        let table = decode_table(&mut d)?;
        if !d.is_exhausted() {
            return Err(Error::Codec(format!(
                "{} trailing bytes in the image of table {}",
                d.remaining(),
                self.name
            )));
        }
        Ok(table)
    }
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

fn decode_table(d: &mut Decoder<'_>) -> Result<Table> {
    let name = d.get_str()?;
    let kind = TableKind::from_tag(d.get_u8()?)?;
    let schema = d.get_schema()?;
    let next_row_id = d.get_u64()?;

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
    let rows = (0..nrows).map(|_| Ok((RowId(d.get_u64()?), d.get_tuple()?)));
    Table::bulk_load(name, kind, schema, next_row_id, indexes, nrows, rows)
        .map_err(|e| Error::Codec(format!("rebuilding table failed: {e}")))
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
