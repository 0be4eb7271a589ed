//! Checkpoint files (§3.1): a persistent image of one partition's
//! committed state, plus the engine-level counters recovery must resume
//! (log watermark, per-stream batch counters) — and the **durability
//! manifest** that names which checkpoint images and log floors are
//! authoritative.
//!
//! Since v4 a checkpoint is *incremental*: an epoch's image is either a
//! **base** (full EE state) or a **delta** (only the tables, streams,
//! and windows dirtied since the previous epoch). Since v7 a delta is
//! **row-granular**: a dirty table is written as a *rows frame* — its
//! row-id counter, the ids of its older rows deleted since its last
//! image, then the older rows updated since and every row inserted
//! since — unless its record of updated and deleted rows outgrew its
//! rows, when it is written whole, as in a base. Recovery restores
//! each table from its last whole image in the chain, stepping over
//! every frame before that one by its length, with the rows frames
//! after it laid over its rows in chain order
//! ([`crate::ee::ExecutionEngine::restore_chain`]).
//!
//! # EE image layout (v7)
//!
//! ```text
//! base  := catalog:bytes  sections       catalog = a storage snapshot image (v2),
//!                                        itself a sequence of table frames
//! delta := ntables:varint  delta-frame*  sections
//! delta-frame := 0:u8  len:u64  table-image     whole (sstore_storage::snapshot)
//!              | 1:u8  len:u64  rows-image      rows changed since the last image
//! rows-image := name:str  next_row_id:u64  seq of deleted row-id:u64
//!               nrows:varint  (row-id:u64  tuple)*            rows in row-id order
//! sections := seq of (name:str  stream-state  high:opt-i64)
//!             seq of window-slot                       (window.rs)
//! stream-state := seq of (batch:u64  seq of row-id:u64)
//! ```
//!
//! `seq of X` is a varint count then that many `X`, and `opt-i64` is a
//! tag byte `0`, or `1` then an `i64` (`sstore_common::codec`). The file
//! around an image, and the manifest:
//!
//! ```text
//! checkpoint := magic:u32  version:u32  epoch:u64  kind:u8  last_lsn:u64
//!               batch_counters  exchange_floor  ee_image:bytes
//! counters   := seq of (name:str  value:u64)        in name order
//! manifest   := magic:u32  version:u32  epochs:seq of u64  floors:seq of u64
//! ```
//!
//! A partition encodes its whole file in one buffer — its head, then the
//! EE image written in place ([`Encoder::put_bytes_with`]) — and the
//! engine writes that buffer; reading keeps the image in the buffer the
//! file was read into.
//!
//! Every table frame, in a base and in a delta alike, is preceded by
//! its byte length; that is what lets restore step over a superseded
//! image in O(1). Stream and window sections carry bookkeeping (pending
//! batch ids; staged tuples and a time window's watermark and extent
//! cursor — what is *active* in a window is its table's rows, in its
//! table frames and nowhere else), are small, and are not framed: restore
//! decodes them in chain order and a later one overwrites an earlier.
//! Everything is in name order, so the bytes do not depend on id
//! assignment.
//!
//! The manifest is the
//! commit point of the whole scheme: it records the live epoch chain
//! and the per-partition log floor (last LSN covered), is written via
//! the atomic-rename path, and everything it does *not* reference —
//! superseded images, log segments wholly below the floor — is garbage
//! collectible. Crashing between the manifest write and the unlinks
//! merely leaves unreferenced files for the next GC pass; crashing
//! before it leaves the previous manifest (and everything it
//! references) intact.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{Error, Lsn, Result};

use crate::vfs::{StdVfs, Vfs};

const MAGIC: u32 = 0x5353_434B; // "SSCK"
// v3: EE image carries per-stream event-time high marks and tagged
// (tuple vs. time) window sections. Older images are rejected loudly.
// v4: incremental checkpoints — images carry a base/delta kind tag.
// v5: every table image inside the EE image is length-framed.
// v6: window sections hold staging (and a time window's cursor) only:
// no list of active row ids, no activation or late-tuple counters. A
// window table's row ids also differ from v5's (staged tuples draw none).
// v7: a delta's table frames carry a shape byte; a rows frame holds the
// rows changed since the table's last image.
const VERSION: u32 = 7;

/// Whether an image is a full base or an incremental delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointKind {
    /// Full EE state; a chain starts here.
    Base,
    /// Only state dirtied since the previous epoch in the chain.
    Delta,
}

/// One partition's checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFile {
    /// Which engine-wide checkpoint round this file belongs to. All
    /// partitions written by one [`crate::engine::Engine::checkpoint`]
    /// call carry the same epoch; recovery uses it to detect a
    /// checkpoint set torn by a crash between the per-partition writes
    /// (fatal for weak recovery of cross-partition workflows, where
    /// partitions must restart from a mutually consistent cut).
    pub epoch: u64,
    /// Base or delta image.
    pub kind: CheckpointKind,
    /// Last LSN whose effects are contained in the image; recovery
    /// replays records strictly after this.
    pub last_lsn: Lsn,
    /// Per-stream next-batch counters at checkpoint time. Full on both
    /// base and delta images (the maps are small; only `ee_image` is
    /// incremental).
    pub batch_counters: HashMap<String, u64>,
    /// Per-exchange-stream watermark: highest batch this partition has
    /// applied from an exchange delivery. Recovery restores it so
    /// re-sent exchange batches (dangling upstream batches re-fired
    /// after replay) are recognized as duplicates and dropped.
    pub exchange_floor: HashMap<String, u64>,
    /// The EE state image: [`crate::ee::ExecutionEngine::checkpoint`]
    /// for a base, `checkpoint_delta` for a delta.
    pub ee_image: Vec<u8>,
}

/// A counter map as a sequence of `(name, value)` in name order, so the
/// bytes do not depend on hash order.
fn put_counters(e: &mut Encoder, counters: &HashMap<String, u64>) {
    let mut entries: Vec<_> = counters.iter().collect();
    entries.sort();
    e.put_seq(entries, |e, (name, v)| {
        e.put_str(name);
        e.put_u64(*v);
    });
}

fn get_counters(d: &mut Decoder<'_>) -> Result<HashMap<String, u64>> {
    // An entry is at least a name length and a u64.
    Ok(d.get_seq(9, "counter", |d| Ok((d.get_str()?, d.get_u64()?)))?.into_iter().collect())
}

/// Every checkpoint image in `dir` — a file named the way
/// [`crate::config::EngineConfig::checkpoint_path`] names one — as
/// `(epoch, path)`, in directory order.
pub fn list_images(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let image = |path: &Path| {
        let (stem, epoch) = path.file_name()?.to_str()?.rsplit_once('.')?;
        let ours = stem.starts_with("partition-") && stem.ends_with(".snapshot");
        epoch.parse().ok().filter(|_| ours)
    };
    Ok(vfs.list_dir(dir)?.into_iter().filter_map(|p| Some((image(&p)?, p))).collect())
}

/// Writes a checkpoint atomically (temp file + rename) on the real
/// filesystem. Returns the encoded size in bytes.
pub fn write_checkpoint(path: &Path, ck: &CheckpointFile) -> Result<u64> {
    let mut e = Encoder::with_capacity(ck.ee_image.len() + 128);
    put_head(&mut e, ck);
    e.put_bytes(&ck.ee_image);
    write_file_on(&StdVfs, path, e.as_bytes())?;
    Ok(e.len() as u64)
}

/// Writes everything of a checkpoint file before its EE image, which
/// follows as one length-prefixed byte string (`ck.ee_image` is not
/// read).
pub(crate) fn put_head(e: &mut Encoder, ck: &CheckpointFile) {
    e.put_u32(MAGIC);
    e.put_u32(VERSION);
    e.put_u64(ck.epoch);
    e.put_u8(match ck.kind {
        CheckpointKind::Base => 0,
        CheckpointKind::Delta => 1,
    });
    e.put_u64(ck.last_lsn.raw());
    put_counters(e, &ck.batch_counters);
    put_counters(e, &ck.exchange_floor);
}

/// Writes an encoded checkpoint file atomically on `vfs`, creating its
/// directory first.
pub(crate) fn write_file_on(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<()> {
    if let Some(dir) = path.parent() {
        vfs.create_dir_all(dir)?;
    }
    vfs.write_atomic(path, bytes)
}

/// Reads a checkpoint from the real filesystem; `Ok(None)` when the
/// file does not exist (fresh start or crash before the first
/// checkpoint).
pub fn read_checkpoint(path: &Path) -> Result<Option<CheckpointFile>> {
    read_checkpoint_on(&StdVfs, path)
}

/// Reads a checkpoint from an explicit [`Vfs`]. The EE image stays in
/// the buffer the file was read into, the head moved off its front.
pub fn read_checkpoint_on(vfs: &dyn Vfs, path: &Path) -> Result<Option<CheckpointFile>> {
    let Some(mut bytes) = vfs.read(path)? else {
        return Ok(None);
    };
    let mut d = Decoder::new(&bytes);
    if d.get_u32()? != MAGIC {
        return Err(Error::Codec(format!("bad checkpoint magic in {}", path.display())));
    }
    let version = d.get_u32()?;
    if version != VERSION {
        return Err(Error::Codec(format!(
            "unsupported checkpoint version {version} (this build reads {VERSION})"
        )));
    }
    let epoch = d.get_u64()?;
    let kind = match d.get_u8()? {
        0 => CheckpointKind::Base,
        1 => CheckpointKind::Delta,
        t => return Err(Error::Codec(format!("unknown checkpoint kind tag {t}"))),
    };
    let last_lsn = Lsn(d.get_u64()?);
    let batch_counters = get_counters(&mut d)?;
    let exchange_floor = get_counters(&mut d)?;
    let len = d.get_bytes()?.len();
    if !d.is_exhausted() {
        return Err(Error::Codec("trailing bytes in checkpoint file".into()));
    }
    bytes.drain(..bytes.len() - len);
    Ok(Some(CheckpointFile { epoch, kind, last_lsn, batch_counters, exchange_floor, ee_image: bytes }))
}

const MANIFEST_MAGIC: u32 = 0x5353_4D46; // "SSMF"
const MANIFEST_VERSION: u32 = 1;

/// The durability manifest: the single authoritative statement of which
/// checkpoint epochs are live and how much log each partition may
/// discard. Written atomically *after* every partition's image of a new
/// epoch is durably on disk; read first at recovery.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Live epoch chain, ascending: `epochs[0]` is the base image's
    /// epoch, the rest are deltas applied in order. Empty = no
    /// checkpoint yet (full-log replay).
    pub epochs: Vec<u64>,
    /// Per-partition log floor: the last LSN covered by the newest
    /// epoch, indexed by partition id. Log segments wholly at or below
    /// the floor are garbage.
    pub floors: Vec<u64>,
}

impl Manifest {
    /// The last LSN partition `p` may treat as checkpoint-covered.
    pub fn floor(&self, p: usize) -> Lsn {
        Lsn(self.floors.get(p).copied().unwrap_or(0))
    }
}

/// Writes the manifest atomically (temp file + rename) on `vfs`.
pub fn write_manifest_on(vfs: &dyn Vfs, path: &Path, m: &Manifest) -> Result<()> {
    let mut e = Encoder::with_capacity(64);
    e.put_u32(MANIFEST_MAGIC);
    e.put_u32(MANIFEST_VERSION);
    e.put_seq(&m.epochs, |e, &ep| e.put_u64(ep));
    e.put_seq(&m.floors, |e, &f| e.put_u64(f));
    if let Some(dir) = path.parent() {
        vfs.create_dir_all(dir)?;
    }
    vfs.write_atomic(path, &e.finish())
}

/// Reads the manifest from `vfs`; `Ok(None)` when the file does not
/// exist (no checkpoint has ever committed).
pub fn read_manifest_on(vfs: &dyn Vfs, path: &Path) -> Result<Option<Manifest>> {
    let Some(bytes) = vfs.read(path)? else {
        return Ok(None);
    };
    let mut d = Decoder::new(&bytes);
    if d.get_u32()? != MANIFEST_MAGIC {
        return Err(Error::Codec(format!("bad manifest magic in {}", path.display())));
    }
    let version = d.get_u32()?;
    if version != MANIFEST_VERSION {
        return Err(Error::Codec(format!("unsupported manifest version {version}")));
    }
    let epochs = d.get_seq(8, "manifest epoch", Decoder::get_u64)?;
    let floors = d.get_seq(8, "manifest floor", Decoder::get_u64)?;
    if !d.is_exhausted() {
        return Err(Error::Codec("trailing bytes in manifest file".into()));
    }
    Ok(Some(Manifest { epochs, floors }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir()
            .join("sstore-ck-tests")
            .join(format!("{name}-{}.snapshot", std::process::id()))
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip");
        for kind in [CheckpointKind::Base, CheckpointKind::Delta] {
            let ck = CheckpointFile {
                epoch: 3,
                kind,
                last_lsn: Lsn(41),
                batch_counters: HashMap::from([("votes_in".into(), 7u64), ("s2".into(), 3u64)]),
                exchange_floor: HashMap::from([("xmid".into(), 5u64)]),
                ee_image: vec![1, 2, 3, 4, 5],
            };
            write_checkpoint(&path, &ck).unwrap();
            let got = read_checkpoint(&path).unwrap().unwrap();
            assert_eq!(got, ck);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_none() {
        assert!(read_checkpoint(Path::new("/nonexistent/x.snapshot")).unwrap().is_none());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let path = tmp("corrupt");
        let ck = CheckpointFile {
            epoch: 0,
            kind: CheckpointKind::Base,
            last_lsn: Lsn(0),
            batch_counters: HashMap::new(),
            exchange_floor: HashMap::new(),
            ee_image: vec![],
        };
        write_checkpoint(&path, &ck).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        assert!(read_checkpoint(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_roundtrips_and_missing_is_none() {
        let path = tmp("manifest");
        let m = Manifest { epochs: vec![4, 5, 7], floors: vec![120, 98] };
        write_manifest_on(&StdVfs, &path, &m).unwrap();
        let got = read_manifest_on(&StdVfs, &path).unwrap().unwrap();
        assert_eq!(got, m);
        assert_eq!(got.floor(0), Lsn(120));
        assert_eq!(got.floor(1), Lsn(98));
        assert_eq!(got.floor(9), Lsn(0), "unknown partition floors to zero");
        assert!(read_manifest_on(&StdVfs, Path::new("/nonexistent/m")).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_corruption_rejected() {
        let path = tmp("manifest-bad");
        write_manifest_on(&StdVfs, &path, &Manifest { epochs: vec![1], floors: vec![2] }).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_manifest_on(&StdVfs, &path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
