//! The command log (§3.1, §3.2.5, §4.4).
//!
//! H-Store logs *commands* — stored-procedure name plus input arguments —
//! not data pages. A record is appended at commit; group commit batches
//! several records per flush to amortize the write (and optional
//! fdatasync) cost.
//!
//! What gets logged depends on the recovery mode:
//! * **strong**: every committed transaction (OLTP, border, interior);
//! * **weak**: only *border* transactions, carrying their input batch —
//!   upstream backup; interior work is re-derived through PE triggers.
//!
//! The log is a **chain of segment files**: segment 0 is the configured
//! log path itself, segment `n > 0` appends a `.{n:08}` suffix. When a
//! flush pushes the active segment past
//! [`LoggingConfig::segment_bytes`], the segment is *sealed* — synced
//! unconditionally (a sealed segment is never written or synced again,
//! so its bytes must be durable before the chain moves past it) — and
//! the next record opens a fresh segment. Sealed segments are the unit
//! of log GC: one wholly covered by the latest durable checkpoint is
//! deleted (see `Engine::checkpoint`), bounding on-disk log bytes.
//!
//! File layout per segment: a 24-byte header (`[u32 magic][u32
//! version][u64 seq][u64 base_lsn]` — logs from other format versions
//! are rejected loudly, never misparsed; `base_lsn` is the LSN of the
//! segment's first record, so a chain whose old segments were GC'd
//! still places itself on the LSN axis) followed by records framed
//! `[u32 len][u32 crc32][payload]`, payload via `common::codec` (its
//! layout is at `encode_payload`), CRC32
//! (IEEE) over the payload. A torn final record (crash mid-write) is
//! detected by a short frame or a checksum mismatch and ignored, which
//! is the correct crash semantics: that transaction never acknowledged
//! its commit. A checksum mismatch on any *earlier* record is
//! corruption of acknowledged work and fails recovery loudly. A torn
//! segment drops every *later* segment with it (those bytes were
//! written after the tear point and were never durably acknowledged —
//! only the unsynced active segment can tear).

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sstore_common::codec::{Decoder, Encoder};
use sstore_common::{BatchId, Error, Lsn, Result, Tuple, Value};

use crate::config::LoggingConfig;
use crate::vfs::{LogFile, StdVfs, Vfs};

/// CRC32 (IEEE 802.3) slice-by-8 lookup tables, built at compile time.
/// `CRC32_TABLES[k][b]` is the CRC state of byte `b` followed by `k`
/// zero bytes — `8 · (k + 1)` shift steps of `b` — so row 0 is the
/// byte-at-a-time table, and eight input bytes fold into the state with
/// eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let (mut c, mut step) = (b as u32, 1);
        while step <= 64 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            if step % 8 == 0 {
                t[step / 8 - 1][b] = c;
            }
            step += 1;
        }
        b += 1;
    }
    t
};

/// CRC32 (IEEE) of `bytes`, eight bytes a step (slice-by-8); the same
/// checksum as the byte-at-a-time loop the tail runs.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        // The state folds into the word's first four bytes; byte `k` of
        // the result is then followed by `7 − k` more.
        let x = u64::from_le_bytes(w.try_into().expect("eight bytes")) ^ u64::from(c);
        c = (0..8).fold(0, |acc, k| acc ^ CRC32_TABLES[7 - k][(x >> (8 * k)) as u8 as usize]);
    }
    for &b in words.remainder() {
        c = CRC32_TABLES[0][(c as u8 ^ b) as usize] ^ (c >> 8);
    }
    !c
}

/// Bytes of framing before each record's payload: length + checksum.
const FRAME_LEN: usize = 8;

/// Log segment header: magic ("SSLG") + format version + segment
/// sequence number + base LSN. A segment whose header does not match is
/// rejected loudly instead of being misparsed (the record framing has
/// changed across versions — old logs would otherwise read as garbage
/// or, worse, as an empty log).
const LOG_MAGIC: u32 = 0x5353_4C47;
// v3: LSNs are 1-based. A checkpoint's `last_lsn` of 0 therefore means
// "covers no records" — with 0-based LSNs a checkpoint taken before the
// first append claimed to cover lsn 0, and strictly-after replay then
// silently skipped the first post-checkpoint record (found by the
// chaos harness: strong recovery replayed an interior record whose
// border had been filtered out).
// v4: segmented logs. The header grows a segment sequence number and
// the base LSN of the segment's first record, so a chain whose GC'd
// prefix is gone still knows where it sits on the LSN axis.
const LOG_VERSION: u32 = 4;
const HEADER_LEN: usize = 24;

/// The LSN assigned to the first record of a fresh log. LSNs are
/// 1-based: `Lsn(0)` is reserved as "before every record" so inclusive
/// watermarks can express an empty prefix.
pub const FIRST_LSN: u64 = 1;

fn header_bytes(seq: u64, base_lsn: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&LOG_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&LOG_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h[16..24].copy_from_slice(&base_lsn.to_le_bytes());
    h
}

/// Path of segment `seq` of the log chain named by `prefix`. Segment 0
/// *is* the prefix (the path the log was configured with); later
/// segments append a zero-padded numeric suffix, so a directory listing
/// sorts them in chain order.
pub fn segment_path(prefix: &Path, seq: u64) -> PathBuf {
    if seq == 0 {
        return prefix.to_path_buf();
    }
    let name = prefix
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    prefix.with_file_name(format!("{name}.{seq:08}"))
}

/// Lists the on-disk segments of a log chain, sorted by sequence
/// number: the prefix file itself (seq 0) plus every `<prefix>.<digits>`
/// sibling.
fn list_segments(vfs: &dyn Vfs, prefix: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let Some(dir) = prefix.parent() else { return Ok(Vec::new()) };
    let Some(base) = prefix.file_name().map(|s| s.to_string_lossy().into_owned()) else {
        return Ok(Vec::new());
    };
    let dotted = format!("{base}.");
    let mut out = Vec::new();
    for p in vfs.list_dir(dir)? {
        let Some(name) = p.file_name().map(|s| s.to_string_lossy().into_owned()) else {
            continue;
        };
        if name == base {
            out.push((0, p));
        } else if let Some(suffix) = name.strip_prefix(&dotted) {
            if !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(seq) = suffix.parse::<u64>() {
                    if seq > 0 {
                        out.push((seq, p));
                    }
                }
            }
        }
    }
    out.sort_by_key(|(s, _)| *s);
    Ok(out)
}

/// One segment of a [`CommandLog`]'s chain, as the writer tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Position in the chain (also the filename suffix; 0 = prefix).
    pub seq: u64,
    /// LSN of the segment's first record.
    pub base_lsn: u64,
    /// Bytes written to the file so far (excludes the in-process
    /// buffer).
    pub bytes: u64,
}

/// What kind of transaction a record describes. The payloads are
/// `Cow`s: an append builds one borrowing the committed invocation's
/// own parts (no copy on the commit path), and [`CommandLog::read_all`]
/// returns owned ones ([`LogRecord`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LogKind<'a> {
    /// Client OLTP invocation with its parameters.
    Oltp {
        /// Invocation parameters.
        params: Cow<'a, [Value]>,
    },
    /// Border streaming transaction: the externally-ingested batch.
    Border {
        /// Input stream name.
        stream: Cow<'a, str>,
        /// Batch id assigned at ingestion.
        batch: BatchId,
        /// The raw input tuples (upstream backup payload).
        rows: Cow<'a, [Tuple]>,
    },
    /// Interior streaming transaction (strong mode only): identified by
    /// its input stream and batch — the data itself is re-derived by
    /// replaying predecessors.
    Interior {
        /// Input stream name.
        stream: Cow<'a, str>,
        /// Batch id consumed.
        batch: BatchId,
    },
    /// Exchange-delivered transaction (strong mode only): a merged
    /// sub-batch that arrived from other partitions' exchange sends.
    /// Carries its rows, because the data lives on the *sending*
    /// partitions' logs — each partition's log must replay on its own
    /// (weak mode instead re-derives exchange deliveries by replaying
    /// the upstream borders with triggers enabled, so it logs nothing).
    Exchange {
        /// Exchange stream name.
        stream: Cow<'a, str>,
        /// Batch id delivered.
        batch: BatchId,
        /// The merged rows, in source-partition order.
        rows: Cow<'a, [Tuple]>,
    },
    /// Ad-hoc SQL transaction (`Engine::query_at`): the command is the
    /// SQL text itself — replay re-plans it against the recovered
    /// catalog and re-executes, the same command-logging discipline as
    /// a stored-procedure invocation.
    AdHoc {
        /// The statement text.
        sql: Cow<'a, str>,
        /// Bound parameters.
        params: Cow<'a, [Value]>,
    },
}

/// One command-log record, as read back.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Sequence number (position in the log).
    pub lsn: Lsn,
    /// Stored procedure that committed.
    pub proc: String,
    /// Invocation payload.
    pub kind: LogKind<'static>,
}

/// Record payload layout, after the frame's length and CRC:
///
/// ```text
/// payload := lsn:u64  proc:str  kind
/// kind    := 0 params | 1 stream:str batch:u64 rows | 2 stream:str batch:u64
///          | 3 stream:str batch:u64 rows | 4 sql:str params
/// params  := seq of value        rows := seq of tuple
/// ```
///
/// Encoded into a reused encoder buffer.
fn encode_payload(e: &mut Encoder, lsn: Lsn, proc: &str, kind: &LogKind<'_>) {
    e.reset();
    e.put_u64(lsn.raw());
    e.put_str(proc);
    match kind {
        LogKind::Oltp { params } => {
            e.put_u8(0);
            e.put_seq(params.iter(), Encoder::put_value);
        }
        LogKind::Border { stream, batch, rows } | LogKind::Exchange { stream, batch, rows } => {
            e.put_u8(if matches!(kind, LogKind::Border { .. }) { 1 } else { 3 });
            e.put_str(stream);
            e.put_u64(batch.raw());
            e.put_seq(rows.iter(), Encoder::put_tuple);
        }
        LogKind::Interior { stream, batch } => {
            e.put_u8(2);
            e.put_str(stream);
            e.put_u64(batch.raw());
        }
        LogKind::AdHoc { sql, params } => {
            e.put_u8(4);
            e.put_str(sql);
            e.put_seq(params.iter(), Encoder::put_value);
        }
    }
}

impl LogRecord {
    fn decode(bytes: &[u8]) -> Result<LogRecord> {
        let mut d = Decoder::new(bytes);
        let lsn = Lsn(d.get_u64()?);
        let proc = d.get_str()?;
        // A value and a tuple each take at least one byte.
        let kind = match d.get_u8()? {
            0 => LogKind::Oltp { params: d.get_seq(1, "param", Decoder::get_value)?.into() },
            tag @ (1 | 3) => {
                let stream = d.get_str()?.into();
                let batch = BatchId(d.get_u64()?);
                let rows = d.get_seq(1, "row", Decoder::get_tuple)?.into();
                if tag == 1 {
                    LogKind::Border { stream, batch, rows }
                } else {
                    LogKind::Exchange { stream, batch, rows }
                }
            }
            2 => LogKind::Interior { stream: d.get_str()?.into(), batch: BatchId(d.get_u64()?) },
            4 => LogKind::AdHoc {
                sql: d.get_str()?.into(),
                params: d.get_seq(1, "param", Decoder::get_value)?.into(),
            },
            t => return Err(Error::Codec(format!("unknown log record kind {t}"))),
        };
        if !d.is_exhausted() {
            return Err(Error::Codec("trailing bytes in log record".into()));
        }
        Ok(LogRecord { lsn, proc, kind })
    }
}

/// Append-only command log for one partition.
///
/// Records accumulate in an in-process buffer and reach the
/// [`Vfs`] only on flush (one `append` per group commit, plus a `sync`
/// when `fsync` is configured) — the hot path never crosses the VFS
/// seam. A failed flush **poisons** the log: the bytes on disk may end
/// in a torn frame, so appending anything after it would turn a clean
/// torn tail into interior corruption. Every later append or flush
/// returns the original error; the partition surfaces it per
/// transaction and the shutdown path reports it through
/// [`CommandLog::close`].
#[derive(Debug)]
pub struct CommandLog {
    /// Chain name: segment 0's path, later segments suffixed.
    path: PathBuf,
    /// Handle of the *active* (last) segment.
    file: Box<dyn LogFile>,
    /// Filesystem the chain lives on (sealing opens new segments).
    vfs: Arc<dyn Vfs>,
    config: LoggingConfig,
    next_lsn: u64,
    pending: usize,
    /// Encoded frames awaiting the next flush.
    buf: Vec<u8>,
    flushes: u64,
    /// Reused per-record encode buffer (no allocation per append).
    enc: Encoder,
    /// First flush failure; set once, never cleared.
    poisoned: Option<Error>,
    /// On-disk segments, ascending seq; the last entry is active.
    chain: Vec<SegmentMeta>,
    /// Bytes written to the active segment's file.
    seg_written: u64,
}

impl CommandLog {
    /// Opens (creating or truncating) a log chain for writing on the
    /// real filesystem.
    pub fn create(path: impl Into<PathBuf>, config: LoggingConfig) -> Result<Self> {
        Self::create_on(Arc::new(StdVfs), path, config)
    }

    /// Opens (creating or truncating) a log chain for writing on `vfs`.
    pub fn create_on(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
        config: LoggingConfig,
    ) -> Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            vfs.create_dir_all(dir)?;
        }
        // A fresh log starts a fresh chain: leftover higher segments
        // from a previous incarnation would otherwise read back as this
        // log's history.
        for (seq, p) in list_segments(vfs.as_ref(), &path)? {
            if seq > 0 {
                vfs.remove_file(&p)?;
            }
        }
        let (file, _) = vfs.open_log(&path, true)?;
        // The header rides in the buffer ahead of the first record
        // group: a freshly created log touches the device only at its
        // first flush (an empty file is a valid empty log), and a
        // write-failing device surfaces on the commit/close path — not
        // at startup, where nothing durable was promised yet.
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(&header_bytes(0, FIRST_LSN));
        Ok(CommandLog {
            path,
            file,
            vfs,
            config,
            next_lsn: FIRST_LSN,
            pending: 0,
            buf,
            flushes: 0,
            enc: Encoder::with_capacity(256),
            poisoned: None,
            chain: vec![SegmentMeta { seq: 0, base_lsn: FIRST_LSN, bytes: 0 }],
            seg_written: 0,
        })
    }

    /// Opens a log for appending after recovery on the real
    /// filesystem, continuing the LSN sequence past `resume_after`.
    pub fn resume(path: impl Into<PathBuf>, config: LoggingConfig, resume_after: Lsn) -> Result<Self> {
        Self::resume_on(Arc::new(StdVfs), path, config, resume_after)
    }

    /// Opens a log for appending after recovery on `vfs`, continuing
    /// the LSN sequence past `resume_after`. Appends go to the chain's
    /// last surviving segment (recovery trimmed any torn tail first);
    /// if no segment survives — logging newly enabled, or everything
    /// was GC'd behind a checkpoint and then removed — a fresh chain
    /// starts whose base LSN continues the sequence.
    pub fn resume_on(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
        config: LoggingConfig,
        resume_after: Lsn,
    ) -> Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            vfs.create_dir_all(dir)?;
        }
        let mut chain = Vec::new();
        for (seq, p) in list_segments(vfs.as_ref(), &path)? {
            let Some(bytes) = vfs.read(&p)? else { continue };
            let base_lsn = if bytes.len() >= HEADER_LEN {
                u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"))
            } else {
                // Header never made it out (empty or torn-to-nothing
                // segment): it holds no records, so the resume point is
                // its base.
                resume_after.raw() + 1
            };
            chain.push(SegmentMeta { seq, base_lsn, bytes: bytes.len() as u64 });
        }
        let mut buf = Vec::with_capacity(1024);
        let (file, seg_written) = match chain.last().copied() {
            None => {
                let (file, _) = vfs.open_log(&path, true)?;
                buf.extend_from_slice(&header_bytes(0, resume_after.raw() + 1));
                chain.push(SegmentMeta { seq: 0, base_lsn: resume_after.raw() + 1, bytes: 0 });
                (file, 0)
            }
            Some(last) => {
                let (file, len) = vfs.open_log(&segment_path(&path, last.seq), false)?;
                if len == 0 {
                    buf.extend_from_slice(&header_bytes(last.seq, resume_after.raw() + 1));
                    chain.last_mut().expect("chain non-empty").base_lsn = resume_after.raw() + 1;
                }
                (file, len)
            }
        };
        Ok(CommandLog {
            path,
            file,
            vfs,
            config,
            next_lsn: resume_after.raw() + 1,
            pending: 0,
            buf,
            flushes: 0,
            enc: Encoder::with_capacity(256),
            poisoned: None,
            chain,
            seg_written,
        })
    }

    /// Log chain path (segment 0's file).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The chain's segments, ascending; the last one is active.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.chain
    }

    /// Number of on-disk segments in the chain.
    pub fn segment_count(&self) -> usize {
        self.chain.len()
    }

    /// Total on-disk bytes across the chain (excludes the in-process
    /// buffer).
    pub fn total_bytes(&self) -> u64 {
        self.chain.iter().map(|m| m.bytes).sum()
    }

    /// Segments wholly covered by a checkpoint that includes every
    /// record up to `covered` (inclusive): safe to delete, because
    /// recovery will never need to replay past the image. The active
    /// (last) segment is never a candidate — it holds the append head.
    pub fn gc_candidates(&self, covered: Lsn) -> Vec<(u64, PathBuf)> {
        let mut out = Vec::new();
        for w in self.chain.windows(2) {
            // Segment w[0] spans [w[0].base_lsn, w[1].base_lsn).
            if w[1].base_lsn <= covered.raw().saturating_add(1) {
                out.push((w[0].seq, segment_path(&self.path, w[0].seq)));
            } else {
                break;
            }
        }
        out
    }

    /// Forgets a segment the caller just unlinked (GC bookkeeping).
    pub fn drop_segment(&mut self, seq: u64) {
        self.chain.retain(|m| m.seq != seq);
    }

    /// Number of flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// LSN the next append will get.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.next_lsn)
    }

    /// Appends a record (assigning its LSN) and flushes according to the
    /// group-commit policy. Returns the LSN. Build `kind` borrowing the
    /// committed invocation's parts: nothing is copied but the bytes.
    pub fn append(&mut self, proc: &str, kind: LogKind<'_>) -> Result<Lsn> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        encode_payload(&mut self.enc, lsn, proc, &kind);
        let payload = self.enc.as_bytes();
        self.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.pending += 1;
        if self.pending >= self.config.group_commit.max(1) {
            self.flush()?;
        }
        Ok(lsn)
    }

    /// Appends a border record (upstream backup) from borrowed parts.
    pub fn append_border(
        &mut self,
        proc: &str,
        stream: &str,
        batch: BatchId,
        rows: &[Tuple],
    ) -> Result<Lsn> {
        self.append(proc, LogKind::Border { stream: stream.into(), batch, rows: rows.into() })
    }

    /// Forces out any buffered records (end of a benchmark phase, clean
    /// shutdown, or a group-commit deadline).
    pub fn flush(&mut self) -> Result<()> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.pending == 0 {
            return Ok(());
        }
        let out: Result<()> = (|| {
            self.file.append(&self.buf)?;
            if self.config.fsync {
                self.file.sync()?;
            }
            Ok(())
        })();
        if let Err(e) = &out {
            // The file may now end in a torn frame (a short write).
            // Appending anything after it would turn that clean torn
            // tail into interior corruption of acknowledged records —
            // seal the log instead; recovery treats the tear as the
            // crash semantics it is.
            self.poisoned = Some(e.clone());
            self.buf.clear();
            self.pending = 0;
            return out;
        }
        self.seg_written += self.buf.len() as u64;
        if let Some(m) = self.chain.last_mut() {
            m.bytes = self.seg_written;
        }
        self.buf.clear();
        self.pending = 0;
        self.flushes += 1;
        if self.seg_written >= self.config.segment_bytes {
            self.seal()?;
        }
        Ok(())
    }

    /// Seals the active segment and opens the next one. The sealed
    /// segment is synced unconditionally first: nothing ever writes or
    /// syncs it again, and an unsynced tail there would otherwise tear
    /// *behind* records its successor acknowledged. The new segment's
    /// header rides the buffer (like a fresh log's) so the device is
    /// only touched again at the next flush.
    fn seal(&mut self) -> Result<()> {
        if !self.config.fsync {
            if let Err(e) = self.file.sync() {
                self.poisoned = Some(e.clone());
                return Err(e);
            }
        }
        let seq = self.chain.last().map_or(1, |m| m.seq + 1);
        match self.vfs.open_log(&segment_path(&self.path, seq), true) {
            Ok((file, _)) => {
                self.file = file;
                self.chain.push(SegmentMeta { seq, base_lsn: self.next_lsn, bytes: 0 });
                self.seg_written = 0;
                self.buf.extend_from_slice(&header_bytes(seq, self.next_lsn));
                Ok(())
            }
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Flush + unconditional fsync, regardless of the configured
    /// `fsync` policy. Called before a checkpoint image is written: a
    /// checkpoint must never outrun its log (the image can contain a
    /// transaction whose record is only in the page cache — a crash
    /// would then recover state with no durable provenance).
    pub fn sync_for_checkpoint(&mut self) -> Result<()> {
        self.flush()?;
        if !self.config.fsync {
            if let Err(e) = self.file.sync() {
                // Same discipline as flush(): a failed fsync means
                // previously-flushed bytes may be gone from the page
                // cache (the kernel clears the error after reporting
                // it once), so a later checkpoint could cover records
                // with no durable provenance. Seal the log.
                self.poisoned = Some(e.clone());
                return Err(e);
            }
        }
        Ok(())
    }

    /// Closes the log for a clean shutdown, *propagating* a failed
    /// final flush/fsync. `Drop` also flushes, but `Drop` cannot
    /// report failure — a shutdown path that relied on it would read a
    /// lost tail as a clean exit. Call this from the engine/partition
    /// shutdown path; `Drop` remains the best-effort fallback for
    /// panics and aborts.
    pub fn close(&mut self) -> Result<()> {
        self.flush()
    }

    /// Reads every complete record from a log chain (`path` names the
    /// chain — segment 0's file). A torn *final* record — cut short by
    /// a crash mid-write, or failing its checksum where the flush died
    /// — is ignored, which is the correct crash semantics: that
    /// transaction never acknowledged its commit. A checksum or decode
    /// failure anywhere *before* the final record of a segment is an
    /// error: those records were durably acknowledged, so losing them
    /// silently would drop committed work. (A corrupted *length*
    /// prefix whose frame runs past EOF is indistinguishable from a
    /// torn tail without a side index and is treated as one; the
    /// per-record CRC catches every payload-level corruption
    /// deterministically.) A segment that ends torn drops every later
    /// segment with it — only the unsynced active segment can tear, so
    /// anything past the tear was never durably acknowledged.
    pub fn read_all(path: impl AsRef<Path>) -> Result<Vec<LogRecord>> {
        Self::read_all_on(&StdVfs, path.as_ref())
    }

    /// [`CommandLog::read_all`] against an explicit [`Vfs`].
    pub fn read_all_on(vfs: &dyn Vfs, path: &Path) -> Result<Vec<LogRecord>> {
        Ok(Self::scan_chain(vfs, path)?.0)
    }

    /// Reads every complete record **and trims the detected damage off
    /// the chain**: the torn segment is truncated to its last clean
    /// record and every segment after it is deleted. Recovery must use
    /// this before the log is reopened for appending: resuming in
    /// append mode after torn crash bytes would put new records behind
    /// garbage, turning a clean torn tail into interior corruption of
    /// acknowledged work on the *next* recovery.
    pub fn read_all_trimming(vfs: &dyn Vfs, path: &Path) -> Result<Vec<LogRecord>> {
        let (records, trims) = Self::scan_chain(vfs, path)?;
        for t in trims {
            match t {
                TrimAction::Truncate(p, len) => vfs.truncate(&p, len)?,
                TrimAction::Remove(p) => vfs.remove_file(&p)?,
            }
        }
        Ok(records)
    }

    /// Shared chain scan: all records in LSN order, plus the trim
    /// actions that would make the on-disk chain end cleanly.
    fn scan_chain(vfs: &dyn Vfs, prefix: &Path) -> Result<(Vec<LogRecord>, Vec<TrimAction>)> {
        let mut records = Vec::new();
        let mut trims = Vec::new();
        // Set once a segment ends unclean: everything after it was
        // never durably acknowledged (sealing syncs), so later
        // segments are dropped whole.
        let mut dropping = false;
        // The LSN the next segment's base must equal (chain
        // contiguity); `None` before the first record-bearing segment.
        let mut expect_lsn: Option<u64> = None;
        for (seq, path) in list_segments(vfs, prefix)? {
            if dropping {
                trims.push(TrimAction::Remove(path));
                continue;
            }
            let Some(bytes) = vfs.read(&path)? else { continue };
            if bytes.is_empty() {
                // Created but never flushed: a valid empty segment.
                continue;
            }
            if bytes.len() < HEADER_LEN {
                // A crash tore the very first flush mid-header: nothing
                // was ever acknowledged from this segment.
                trims.push(TrimAction::Truncate(path, 0));
                dropping = true;
                continue;
            }
            if bytes[..4] != LOG_MAGIC.to_le_bytes() || bytes[4..8] != LOG_VERSION.to_le_bytes() {
                return Err(Error::Codec(format!(
                    "{} is not a version-{LOG_VERSION} command log (bad or missing header)",
                    path.display()
                )));
            }
            let hdr_seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
            if hdr_seq != seq {
                return Err(Error::Codec(format!(
                    "{}: segment header says seq {hdr_seq}, filename says {seq}",
                    path.display()
                )));
            }
            let base_lsn = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
            if let Some(exp) = expect_lsn {
                if base_lsn != exp {
                    // An orphan: a previous recovery trimmed the chain
                    // before this segment but crashed before deleting
                    // it. Its records were never acknowledged.
                    trims.push(TrimAction::Remove(path));
                    dropping = true;
                    continue;
                }
            }
            let (segrecs, clean_end) = Self::scan_segment(&bytes, base_lsn)?;
            expect_lsn = Some(segrecs.last().map_or(base_lsn, |r| r.lsn.raw() + 1));
            if (clean_end as u64) < bytes.len() as u64 {
                trims.push(TrimAction::Truncate(path, clean_end as u64));
                dropping = true;
            }
            records.extend(segrecs);
        }
        Ok((records, trims))
    }

    /// Scans one segment's bytes (header already validated): its
    /// records and the byte offset after the last clean one.
    fn scan_segment(bytes: &[u8], base_lsn: u64) -> Result<(Vec<LogRecord>, usize)> {
        let mut records: Vec<LogRecord> = Vec::new();
        let mut off = HEADER_LEN;
        while off + FRAME_LEN <= bytes.len() {
            let len =
                u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte slice")) as usize;
            let want_crc = u32::from_le_bytes(
                bytes[off + 4..off + FRAME_LEN].try_into().expect("4-byte slice"),
            );
            let start = off + FRAME_LEN;
            let end = match start.checked_add(len) {
                Some(end) if end <= bytes.len() => end,
                _ => break, // torn tail: framed length runs past EOF
            };
            if crc32(&bytes[start..end]) != want_crc {
                if end == bytes.len() {
                    break; // torn tail: the final flush died mid-record
                }
                return Err(Error::Codec(format!(
                    "command log corrupted at byte {off}: checksum mismatch on a \
                     non-final record"
                )));
            }
            match LogRecord::decode(&bytes[start..end]) {
                Ok(rec) => {
                    // LSNs run contiguously from the header's base —
                    // a CRC-valid record out of sequence is corruption
                    // the checksum cannot see (e.g. a misdirected
                    // write), never a torn tail.
                    let want = records.last().map_or(base_lsn, |r: &LogRecord| r.lsn.raw() + 1);
                    if rec.lsn.raw() != want {
                        return Err(Error::Codec(format!(
                            "command log corrupted at byte {off}: lsn {} where {want} \
                             was expected",
                            rec.lsn.raw()
                        )));
                    }
                    records.push(rec);
                }
                // Checksum passed but decode failed: tolerated only in
                // final position, like any other torn tail.
                Err(_) if end == bytes.len() => break,
                Err(e) => return Err(e),
            }
            off = end;
        }
        Ok((records, off))
    }
}

/// One repair step [`CommandLog::read_all_trimming`] applies to make a
/// crashed chain end cleanly.
enum TrimAction {
    /// Cut the torn segment back to its last clean record.
    Truncate(PathBuf, u64),
    /// Delete a segment that lies entirely past the tear point.
    Remove(PathBuf),
}

impl Drop for CommandLog {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::tuple;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sstore-log-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.cmdlog", std::process::id()))
    }

    fn sample_records() -> Vec<(String, LogKind<'static>)> {
        vec![
            ("vote".into(), LogKind::Border {
                stream: "votes_in".into(),
                batch: BatchId(1),
                rows: vec![tuple![5551000i64, 3i64], tuple![5551001i64, 1i64]].into(),
            }),
            ("maintain".into(), LogKind::Interior { stream: "validated".into(), batch: BatchId(1) }),
            ("report".into(), LogKind::Oltp { params: vec![Value::Int(3), Value::Text("x".into())].into() }),
            ("merge".into(), LogKind::Exchange {
                stream: "xmid".into(),
                batch: BatchId(2),
                rows: vec![tuple![1i64, 10i64]].into(),
            }),
            ("@adhoc".into(), LogKind::AdHoc {
                sql: "UPDATE t SET v = ? WHERE k = ?".into(),
                params: vec![Value::Int(9), Value::Int(1)].into(),
            }),
        ]
    }

    #[test]
    fn append_read_roundtrip() {
        let path = tmp("roundtrip");
        let mut log = CommandLog::create(&path, LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() }).unwrap();
        for (proc, kind) in sample_records() {
            log.append(&proc, kind).unwrap();
        }
        log.flush().unwrap();
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[0].lsn, Lsn(FIRST_LSN));
        assert_eq!(records[4].lsn, Lsn(FIRST_LSN + 4));
        assert!(matches!(records[0].kind, LogKind::Border { ref rows, .. } if rows.len() == 2));
        assert!(matches!(records[1].kind, LogKind::Interior { .. }));
        assert!(matches!(records[2].kind, LogKind::Oltp { ref params } if params.len() == 2));
        assert!(matches!(records[3].kind, LogKind::Exchange { ref rows, .. } if rows.len() == 1));
        assert_eq!(records[4].proc, "@adhoc");
        assert!(matches!(
            records[4].kind,
            LogKind::AdHoc { ref sql, ref params } if sql.starts_with("UPDATE") && params.len() == 2
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_batches_flushes() {
        let path = tmp("group");
        let mut log = CommandLog::create(&path, LoggingConfig { enabled: true, group_commit: 4, fsync: false, ..Default::default() }).unwrap();
        for i in 0..10 {
            log.append("p", LogKind::Oltp { params: vec![Value::Int(i)].into() }).unwrap();
        }
        // 10 records / group of 4 → 2 automatic flushes, 2 pending.
        assert_eq!(log.flushes(), 2);
        log.flush().unwrap();
        assert_eq!(log.flushes(), 3);
        assert_eq!(CommandLog::read_all(&path).unwrap().len(), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_group_commit_flushes_every_record() {
        let path = tmp("nogroup");
        let mut log = CommandLog::create(&path, LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() }).unwrap();
        for i in 0..5 {
            log.append("p", LogKind::Oltp { params: vec![Value::Int(i)].into() }).unwrap();
        }
        assert_eq!(log.flushes(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = tmp("torn");
        let mut log = CommandLog::create(&path, LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() }).unwrap();
        for (proc, kind) in sample_records() {
            log.append(&proc, kind).unwrap();
        }
        log.flush().unwrap();
        drop(log);
        // Append garbage simulating a torn write.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&100u32.to_le_bytes()).unwrap();
        f.write_all(&[1, 2, 3]).unwrap();
        drop(f);
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_final_record_is_treated_as_torn_tail() {
        let path = tmp("flip-tail");
        let mut log = CommandLog::create(&path, LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() }).unwrap();
        for (proc, kind) in sample_records() {
            log.append(&proc, kind).unwrap();
        }
        log.flush().unwrap();
        drop(log);
        // Overwrite the final record's payload (framing intact) with
        // garbage — a flush that died mid-write can leave exactly this.
        let mut bytes = std::fs::read(&path).unwrap();
        let mut off = HEADER_LEN;
        let mut last_payload = 0usize;
        while off + FRAME_LEN <= bytes.len() {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            last_payload = off + FRAME_LEN;
            off += FRAME_LEN + len;
        }
        for b in &mut bytes[last_payload..] {
            *b = 0xFF;
        }
        std::fs::write(&path, &bytes).unwrap();
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 4, "corrupt tail record dropped, prefix kept");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_interior_record_is_an_error() {
        let path = tmp("flip-mid");
        let mut log = CommandLog::create(&path, LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() }).unwrap();
        for (proc, kind) in sample_records() {
            log.append(&proc, kind).unwrap();
        }
        log.flush().unwrap();
        drop(log);
        // Corrupt the FIRST record's payload: that record was durably
        // acknowledged (records follow it), so this is real corruption,
        // not a torn tail — recovery must fail loudly.
        let mut bytes = std::fs::read(&path).unwrap();
        let len =
            u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
        let start = HEADER_LEN + FRAME_LEN;
        for b in &mut bytes[start..start + len] {
            *b = 0xFF;
        }
        std::fs::write(&path, &bytes).unwrap();
        assert!(CommandLog::read_all(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_bit_flip_is_caught_by_the_checksum() {
        let path = tmp("bitflip");
        let mut log = CommandLog::create(&path, LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() }).unwrap();
        for (proc, kind) in sample_records() {
            log.append(&proc, kind).unwrap();
        }
        log.flush().unwrap();
        drop(log);
        let clean = std::fs::read(&path).unwrap();
        let len =
            u32::from_le_bytes(clean[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
        // A flip that would still decode as a valid record (a value
        // byte near the payload end) must not replay silently wrong.
        let mut bytes = clean.clone();
        bytes[HEADER_LEN + FRAME_LEN + len - 1] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert!(CommandLog::read_all(&path).is_err(), "interior flip must error");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slice_by_8_crc32_equals_the_bytewise_reference() {
        // The byte-at-a-time CRC32 the log format was written with.
        fn reference(bytes: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in bytes {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
            }
            !c
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // An 11.5 KB buffer (a Linear Road border record's size), and
        // every length up to 64 at every alignment of the 8-byte steps.
        let buf: Vec<u8> = (0..11_776u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        assert_eq!(crc32(&buf), reference(&buf));
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), reference(s), "start {start}, length {len}");
            }
        }
    }

    #[test]
    fn foreign_or_stale_format_rejected_by_header() {
        let path = tmp("badheader");
        // A file that predates the header (or is not a log at all) must
        // fail loudly, not read as empty/garbage.
        std::fs::write(&path, [7u8; 64]).unwrap();
        assert!(CommandLog::read_all(&path).is_err());
        // A sub-header fragment is a first flush torn mid-header:
        // nothing was ever acknowledged, so it reads as empty.
        std::fs::write(&path, [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10]).unwrap();
        assert!(CommandLog::read_all(&path).unwrap().is_empty());
        // An empty file (created, never written) is a valid empty log.
        std::fs::write(&path, []).unwrap();
        assert!(CommandLog::read_all(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reads_empty() {
        assert!(CommandLog::read_all("/nonexistent/sstore.cmdlog").unwrap().is_empty());
    }

    /// Satellite regression: a write-failing target must surface
    /// through `close()` instead of vanishing in `Drop`'s best-effort
    /// flush. `/dev/full` fails every write with ENOSPC, exactly like
    /// a full disk at shutdown.
    #[test]
    fn close_propagates_flush_failure() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return; // non-Linux or sandboxed environment
        }
        let config = LoggingConfig { enabled: true, group_commit: 1_000_000, fsync: false, ..Default::default() };
        // Header + records fit in the BufWriter, so nothing touches
        // the device until the final flush — the failure mode this
        // guards against.
        let mut log = CommandLog::create(full, config).unwrap();
        for (proc, kind) in sample_records() {
            log.append(&proc, kind).unwrap();
        }
        log.close().expect_err("flush onto /dev/full must fail");
        // Drop stays best-effort: it must not panic on the same error.
        drop(log);
    }

    #[test]
    fn close_succeeds_on_healthy_target() {
        let path = tmp("close-ok");
        let mut log = CommandLog::create(&path, LoggingConfig { enabled: true, group_commit: 100, fsync: false, ..Default::default() }).unwrap();
        log.append("p", LogKind::Oltp { params: vec![].into() }).unwrap();
        log.close().unwrap();
        assert_eq!(CommandLog::read_all(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    /// Tiny-segment config: every flush overshoots `segment_bytes`, so
    /// each record group seals its own segment.
    fn tiny_segments(group_commit: usize) -> LoggingConfig {
        LoggingConfig {
            enabled: true,
            group_commit,
            fsync: false,
            segment_bytes: 1,
            ..Default::default()
        }
    }

    fn cleanup_chain(path: &Path) {
        for seq in 0..32 {
            std::fs::remove_file(segment_path(path, seq)).ok();
        }
    }

    #[test]
    fn tiny_segments_seal_per_flush_and_read_back_in_order() {
        let path = tmp("chain");
        let mut log = CommandLog::create(&path, tiny_segments(1)).unwrap();
        for i in 0..7 {
            log.append("p", LogKind::Oltp { params: vec![Value::Int(i)].into() }).unwrap();
        }
        // 7 flushes → 7 sealed segments + the fresh active one.
        assert_eq!(log.segment_count(), 8);
        assert!(log.total_bytes() > 7 * HEADER_LEN as u64);
        let bases: Vec<u64> = log.segments().iter().map(|m| m.base_lsn).collect();
        assert_eq!(bases, (FIRST_LSN..FIRST_LSN + 8).collect::<Vec<_>>());
        drop(log);
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 7);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.lsn, Lsn(FIRST_LSN + i as u64));
        }
        cleanup_chain(&path);
    }

    #[test]
    fn gc_candidates_cover_only_whole_segments_behind_the_watermark() {
        let path = tmp("gc");
        let mut log = CommandLog::create(&path, tiny_segments(2)).unwrap();
        for i in 0..8 {
            log.append("p", LogKind::Oltp { params: vec![Value::Int(i)].into() }).unwrap();
        }
        // Segments hold lsns [1,2][3,4][5,6][7,8] + empty active.
        assert_eq!(log.segment_count(), 5);
        assert!(log.gc_candidates(Lsn(0)).is_empty());
        assert!(log.gc_candidates(Lsn(1)).is_empty(), "lsn 2 not covered yet");
        assert_eq!(log.gc_candidates(Lsn(2)).len(), 1);
        assert_eq!(log.gc_candidates(Lsn(5)).len(), 2, "segment [5,6] only half covered");
        let all = log.gc_candidates(Lsn(8));
        assert_eq!(all.len(), 4, "active segment is never a candidate");
        // Delete them the way the partition GC does, oldest first.
        for (seq, p) in all {
            std::fs::remove_file(&p).unwrap();
            log.drop_segment(seq);
        }
        assert_eq!(log.segment_count(), 1);
        // The survivors still read back: a chain whose GC'd prefix is
        // gone places itself on the LSN axis via base_lsn.
        log.append("p", LogKind::Oltp { params: vec![Value::Int(99)].into() }).unwrap();
        drop(log);
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].lsn, Lsn(9));
        cleanup_chain(&path);
    }

    #[test]
    fn resume_reopens_the_chain_tail() {
        let path = tmp("chain-resume");
        {
            let mut log = CommandLog::create(&path, tiny_segments(1)).unwrap();
            for i in 0..3 {
                log.append("a", LogKind::Oltp { params: vec![Value::Int(i)].into() }).unwrap();
            }
        }
        let mut log = CommandLog::resume(&path, tiny_segments(1), Lsn(3)).unwrap();
        assert_eq!(log.segment_count(), 4, "resume discovers every on-disk segment");
        let lsn = log.append("b", LogKind::Oltp { params: vec![].into() }).unwrap();
        assert_eq!(lsn, Lsn(4));
        drop(log);
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[3].proc, "b");
        cleanup_chain(&path);
    }

    #[test]
    fn resume_after_full_gc_starts_a_continuing_chain() {
        let path = tmp("chain-gcall");
        {
            let mut log = CommandLog::create(&path, tiny_segments(1)).unwrap();
            for i in 0..3 {
                log.append("a", LogKind::Oltp { params: vec![Value::Int(i)].into() }).unwrap();
            }
        }
        // Simulate GC behind a checkpoint covering everything, plus
        // removal of the (empty) active segment at shutdown.
        cleanup_chain(&path);
        let mut log = CommandLog::resume(&path, tiny_segments(1), Lsn(3)).unwrap();
        let lsn = log.append("b", LogKind::Oltp { params: vec![].into() }).unwrap();
        assert_eq!(lsn, Lsn(4));
        drop(log);
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].lsn, Lsn(4), "fresh segment carries the continued base lsn");
        cleanup_chain(&path);
    }

    #[test]
    fn torn_segment_drops_every_later_segment() {
        let path = tmp("chain-torn");
        let mut log = CommandLog::create(&path, tiny_segments(1)).unwrap();
        for i in 0..4 {
            log.append("a", LogKind::Oltp { params: vec![Value::Int(i)].into() }).unwrap();
        }
        drop(log);
        // Tear segment 1's tail: frame length runs past EOF. Segments
        // 2+ hold records appended *after* the tear point, which (had
        // this been a real crash) were never durably acknowledged.
        let seg1 = segment_path(&path, 1);
        let mut f = OpenOptions::new().append(true).open(&seg1).unwrap();
        f.write_all(&1000u32.to_le_bytes()).unwrap();
        f.write_all(&[0xAB; 6]).unwrap();
        drop(f);
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 2, "clean prefix: segments 0 and 1's records");
        // Trimming repairs the chain on disk: the tear is cut off and
        // the later segments are unlinked.
        let before = std::fs::metadata(&seg1).unwrap().len();
        let records = CommandLog::read_all_trimming(&StdVfs, &path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(std::fs::metadata(&seg1).unwrap().len() < before);
        assert!(!segment_path(&path, 2).exists());
        assert!(!segment_path(&path, 3).exists());
        cleanup_chain(&path);
    }

    #[test]
    fn orphan_segment_with_discontinuous_base_is_removed() {
        let path = tmp("chain-orphan");
        let mut log = CommandLog::create(&path, tiny_segments(1)).unwrap();
        for i in 0..2 {
            log.append("a", LogKind::Oltp { params: vec![Value::Int(i)].into() }).unwrap();
        }
        drop(log); // segments 0,1 hold lsns 1,2; segment 2 is empty
        // Forge segment 2 as an orphan: header-only with a base LSN
        // that does not continue the chain (a stale leftover from an
        // earlier trim that crashed before the unlink).
        let seg2 = segment_path(&path, 2);
        std::fs::write(&seg2, header_bytes(2, 999)).unwrap();
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 2, "orphan contributes nothing");
        CommandLog::read_all_trimming(&StdVfs, &path).unwrap();
        assert!(!seg2.exists(), "trimming unlinks the orphan");
        cleanup_chain(&path);
    }

    #[test]
    fn lsn_discontinuity_inside_a_segment_is_corruption() {
        let path = tmp("chain-skip");
        let mut log = CommandLog::create(
            &path,
            LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() },
        )
        .unwrap();
        log.append("a", LogKind::Oltp { params: vec![].into() }).unwrap();
        log.append("b", LogKind::Oltp { params: vec![].into() }).unwrap();
        drop(log);
        // Splice out the FIRST record (keep header + second record):
        // CRC-valid bytes whose lsn does not continue from base_lsn.
        let bytes = std::fs::read(&path).unwrap();
        let len = u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap()) as usize;
        let mut spliced = bytes[..HEADER_LEN].to_vec();
        spliced.extend_from_slice(&bytes[HEADER_LEN + FRAME_LEN + len..]);
        std::fs::write(&path, &spliced).unwrap();
        assert!(CommandLog::read_all(&path).is_err(), "a silently missing record must not replay");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_removes_stale_higher_segments() {
        let path = tmp("chain-stale");
        {
            let mut log = CommandLog::create(&path, tiny_segments(1)).unwrap();
            for i in 0..3 {
                log.append("a", LogKind::Oltp { params: vec![Value::Int(i)].into() }).unwrap();
            }
        }
        let log = CommandLog::create(&path, tiny_segments(1)).unwrap();
        assert_eq!(log.segment_count(), 1);
        drop(log);
        assert!(!segment_path(&path, 1).exists(), "previous incarnation's segments unlinked");
        assert!(CommandLog::read_all(&path).unwrap().is_empty());
        cleanup_chain(&path);
    }

    #[test]
    fn resume_continues_lsns() {
        let path = tmp("resume");
        {
            let mut log = CommandLog::create(&path, LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() }).unwrap();
            log.append("a", LogKind::Oltp { params: vec![].into() }).unwrap();
        }
        let mut log = CommandLog::resume(&path, LoggingConfig { enabled: true, group_commit: 1, fsync: false, ..Default::default() }, Lsn(FIRST_LSN)).unwrap();
        let lsn = log.append("b", LogKind::Oltp { params: vec![].into() }).unwrap();
        assert_eq!(lsn, Lsn(FIRST_LSN + 1));
        drop(log);
        let records = CommandLog::read_all(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].proc, "b");
        std::fs::remove_file(&path).ok();
    }
}
