//! The virtual filesystem seam under all durable I/O.
//!
//! Everything the engine persists — command logs ([`crate::log`]) and
//! checkpoint images ([`crate::checkpoint`]) — goes through a [`Vfs`],
//! selected by [`crate::config::EngineConfig::vfs`]. Production uses
//! [`StdVfs`], which is exactly the `std::fs` code the engine always
//! had (the seam costs one virtual call per *flush*, never per record —
//! the hot append path stays in-process buffers). Tests use [`SimVfs`],
//! a deterministic in-memory filesystem that injects the failure modes
//! a real disk has:
//!
//! * **short writes** — an append lands only a prefix of its bytes and
//!   reports failure, exactly what a crash mid-`write(2)` leaves;
//! * **write/fsync errors** — `ENOSPC`/`EIO` at a chosen operation;
//! * **torn tails** — on [`SimVfs::restart_after_crash`], bytes written
//!   but never fsynced survive only up to a seeded-random cut, modeling
//!   the page cache a power failure throws away;
//! * **crash-at-byte-N** — freezing all durable I/O once a global byte
//!   budget is spent, so a "crash" can land at an arbitrary byte
//!   instead of a named crash point.
//!
//! The crash model: when the simulated machine dies ([`SimVfs::freeze`],
//! or a [`crate::faults::FaultInjector`] crash point firing), every
//! subsequent write errors and *nothing further becomes durable*. The
//! harness then discards the engine, calls
//! [`SimVfs::restart_after_crash`] (which applies the torn-tail rule to
//! every file), and recovers a fresh engine from what survived —
//! the exact sequence a real kill -9 + restart would produce, minus the
//! process boundary.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use sstore_common::{lock, Error, Result};

/// An open append-only file (command log). Appends are buffered by the
/// caller ([`crate::log::CommandLog`] groups records) — each `append`
/// here is one flush-sized write, not one record.
pub trait LogFile: Send + fmt::Debug {
    /// Appends `bytes` at the end of the file. On error, the file may
    /// hold any *prefix* of `bytes` (short write) — callers must treat
    /// the log as poisoned afterwards.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;

    /// Makes everything appended so far durable (`fdatasync`).
    fn sync(&mut self) -> Result<()>;
}

/// The filesystem operations the engine's durability layer needs.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Opens `path` for appending. `truncate` starts it empty (log
    /// create); otherwise existing bytes are kept (log resume). Returns
    /// the handle and the pre-existing length.
    fn open_log(&self, path: &Path, truncate: bool) -> Result<(Box<dyn LogFile>, u64)>;

    /// Reads a whole file; `None` when it does not exist.
    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>>;

    /// Replaces `path` with `bytes` atomically (tmp file + rename):
    /// after a crash the file holds either the old or the new content,
    /// never a mix. Used for checkpoint images.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()>;

    /// Truncates `path` to `len` bytes (recovery trimming a torn log
    /// tail before the log is reopened for appending). No-op when the
    /// file is already at or below `len`, or does not exist.
    fn truncate(&self, path: &Path, len: u64) -> Result<()>;

    /// Creates a directory and its parents (no-op if present).
    fn create_dir_all(&self, path: &Path) -> Result<()>;

    /// Lists the files directly inside `dir`, sorted by path. A missing
    /// directory lists as empty (log GC scans before the first
    /// checkpoint ever wrote anything).
    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>>;

    /// Deletes a file (log-segment / stale-image GC). Removing a file
    /// that does not exist is a no-op: GC retries after a crash between
    /// manifest write and unlink, and the second pass must succeed.
    fn remove_file(&self, path: &Path) -> Result<()>;
}

// ----------------------------------------------------------------------
// Production: std::fs
// ----------------------------------------------------------------------

/// The real filesystem — today's `std::fs` code behind the seam.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

#[derive(Debug)]
struct StdLogFile {
    file: File,
}

impl LogFile for StdLogFile {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

impl Vfs for StdVfs {
    fn open_log(&self, path: &Path, truncate: bool) -> Result<(Box<dyn LogFile>, u64)> {
        let file = if truncate {
            OpenOptions::new().create(true).write(true).truncate(true).open(path)?
        } else {
            OpenOptions::new().create(true).append(true).open(path)?
        };
        let len = file.metadata()?.len();
        Ok((Box::new(StdLogFile { file }), len))
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(bytes)?;
            // The tmp file's DATA must be durable before the rename:
            // journaled filesystems persist the rename (metadata)
            // independently of the data blocks, so without this a
            // power loss can leave the renamed file full of zeros —
            // neither old nor new content, breaking the trait's
            // atomicity promise.
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself (directory entry). Best-effort:
        // some platforms cannot fsync directories; losing the rename
        // then yields the OLD file, which is still atomic.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        match OpenOptions::new().write(true).open(path) {
            Ok(file) => {
                if file.metadata()?.len() > len {
                    file.set_len(len)?;
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn create_dir_all(&self, path: &Path) -> Result<()> {
        std::fs::create_dir_all(path)?;
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

// ----------------------------------------------------------------------
// Simulation: deterministic in-memory filesystem with fault injection
// ----------------------------------------------------------------------

/// Which VFS operation an [`IoFault`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A [`LogFile::append`] (one per flush; the file header is the
    /// first append of a fresh log).
    Append,
    /// A [`LogFile::sync`].
    Sync,
}

/// How a targeted operation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// The operation fails with an I/O error; no bytes land (`Append`)
    /// or nothing becomes durable (`Sync`).
    Fail,
    /// `Append` only: a seeded-random *proper prefix* of the bytes
    /// lands, then the call fails — a torn write in the middle of the
    /// file's life, not just at a crash.
    Short,
}

/// One planned I/O failure: the `nth` (1-based, per file) operation of
/// kind `op` on any file whose path contains `file_contains`.
#[derive(Debug, Clone)]
pub struct IoFault {
    /// Path substring selecting the target file(s).
    pub file_contains: String,
    /// Operation kind to fail.
    pub op: IoOp,
    /// Which occurrence (1-based, counted per file) fails.
    pub nth: u64,
    /// Failure flavor.
    pub kind: IoFaultKind,
}

#[derive(Debug, Default, Clone)]
struct SimFile {
    /// All bytes the process has written.
    data: Vec<u8>,
    /// Prefix guaranteed to survive a crash (fsynced).
    durable: usize,
    /// Appends seen (fault targeting).
    appends: u64,
    /// Syncs seen (fault targeting).
    syncs: u64,
}

#[derive(Debug)]
struct SimState {
    files: BTreeMap<PathBuf, SimFile>,
    frozen: bool,
    rng: u64,
    faults: Vec<IoFault>,
    faults_fired: u64,
    /// Total bytes appended across all files; when it crosses
    /// `crash_at_byte`, the machine freezes (crash-at-byte-N).
    bytes_written: u64,
    crash_at_byte: Option<u64>,
}

/// Deterministic in-memory filesystem with seeded fault injection.
/// Cloning shares the state, so the same `SimVfs` handle serves the
/// engine (as its [`Vfs`]) and the test harness (freeze / restart /
/// inspection) at once.
#[derive(Clone)]
pub struct SimVfs {
    state: Arc<Mutex<SimState>>,
}

impl fmt::Debug for SimVfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = lock(&self.state);
        f.debug_struct("SimVfs")
            .field("files", &s.files.len())
            .field("frozen", &s.frozen)
            .field("faults", &s.faults.len())
            .field("faults_fired", &s.faults_fired)
            .finish()
    }
}

/// SplitMix64 step — deterministic, seed-stable.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn frozen_err() -> Error {
    Error::Io("simulated crash: durable I/O is frozen".into())
}

impl SimVfs {
    /// Fresh empty filesystem; `seed` drives every random choice
    /// (short-write cut points, torn-tail survival).
    pub fn new(seed: u64) -> SimVfs {
        SimVfs {
            state: Arc::new(Mutex::new(SimState {
                files: BTreeMap::new(),
                frozen: false,
                rng: seed ^ 0x5353_564F_5F56_4653, // "SSVO_VFS"
                faults: Vec::new(),
                faults_fired: 0,
                bytes_written: 0,
                crash_at_byte: None,
            })),
        }
    }

    /// Installs planned I/O faults (each fires at most once).
    pub fn plan_faults(&self, faults: Vec<IoFault>) {
        lock(&self.state).faults.extend(faults);
    }

    /// Drops any not-yet-fired faults (e.g. before a verification
    /// recovery that must run clean).
    pub fn clear_faults(&self) {
        lock(&self.state).faults.clear();
    }

    /// How many planned faults have fired so far.
    pub fn faults_fired(&self) -> u64 {
        lock(&self.state).faults_fired
    }

    /// Arms crash-at-byte-N: once `n` total bytes have been appended
    /// (across all files), the machine freezes mid-write.
    pub fn crash_at_byte(&self, n: u64) {
        lock(&self.state).crash_at_byte = Some(n);
    }

    /// Simulates the machine dying *now*: every subsequent write
    /// errors, nothing further becomes durable.
    pub fn freeze(&self) {
        lock(&self.state).frozen = true;
    }

    /// True once the machine has crashed (frozen).
    pub fn crashed(&self) -> bool {
        lock(&self.state).frozen
    }

    /// Brings the machine back up after a crash: for every file, the
    /// fsynced prefix survives intact and the unsynced tail survives
    /// only up to a seeded-random cut (possibly mid-record — a torn
    /// tail). Unfreezes I/O.
    pub fn restart_after_crash(&self) {
        let mut s = lock(&self.state);
        let mut rng = s.rng;
        for f in s.files.values_mut() {
            let unsynced = f.data.len() - f.durable;
            if unsynced > 0 {
                // Uniform cut in [0, unsynced]: keep nothing, a torn
                // prefix, or everything.
                let keep = (splitmix(&mut rng) % (unsynced as u64 + 1)) as usize;
                f.data.truncate(f.durable + keep);
            }
            f.durable = f.data.len();
        }
        s.rng = rng;
        s.frozen = false;
        s.crash_at_byte = None;
    }

    /// A snapshot of one file's current bytes (tests / the chaos
    /// harness inspecting durable state).
    pub fn snapshot(&self, path: &Path) -> Option<Vec<u8>> {
        lock(&self.state).files.get(path).map(|f| f.data.clone())
    }

    /// Fails the matching fault if one is due; consumed on fire.
    fn take_fault(s: &mut SimState, path: &Path, op: IoOp, count: u64) -> Option<IoFault> {
        let pos = s.faults.iter().position(|f| {
            f.op == op && f.nth == count && path.to_string_lossy().contains(&f.file_contains)
        })?;
        s.faults_fired += 1;
        Some(s.faults.remove(pos))
    }
}

struct SimLogFile {
    state: Arc<Mutex<SimState>>,
    path: PathBuf,
}

impl fmt::Debug for SimLogFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimLogFile").field("path", &self.path).finish()
    }
}

impl LogFile for SimLogFile {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let mut s = lock(&self.state);
        if s.frozen {
            return Err(frozen_err());
        }
        let count = {
            let f = s.files.entry(self.path.clone()).or_default();
            f.appends += 1;
            f.appends
        };
        match SimVfs::take_fault(&mut s, &self.path, IoOp::Append, count) {
            Some(IoFault { kind: IoFaultKind::Fail, .. }) => {
                return Err(Error::Io(format!(
                    "injected append failure on {}",
                    self.path.display()
                )));
            }
            Some(IoFault { kind: IoFaultKind::Short, .. }) => {
                // A proper prefix lands (torn write), then the call
                // fails — the caller must poison the log.
                let cut = if bytes.is_empty() {
                    0
                } else {
                    let mut rng = s.rng;
                    let c = (splitmix(&mut rng) % bytes.len() as u64) as usize;
                    s.rng = rng;
                    c
                };
                let f = s.files.get_mut(&self.path).expect("entry just touched");
                f.data.extend_from_slice(&bytes[..cut]);
                s.bytes_written += cut as u64;
                return Err(Error::Io(format!(
                    "injected short write on {} ({cut}/{} bytes landed)",
                    self.path.display(),
                    bytes.len()
                )));
            }
            None => {}
        }
        // Crash-at-byte-N: the machine dies partway through this write.
        if let Some(limit) = s.crash_at_byte {
            if s.bytes_written + bytes.len() as u64 > limit {
                let cut = (limit - s.bytes_written.min(limit)) as usize;
                let f = s.files.get_mut(&self.path).expect("entry just touched");
                f.data.extend_from_slice(&bytes[..cut.min(bytes.len())]);
                s.bytes_written = limit;
                s.frozen = true;
                return Err(frozen_err());
            }
        }
        let f = s.files.get_mut(&self.path).expect("entry just touched");
        f.data.extend_from_slice(bytes);
        s.bytes_written += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut s = lock(&self.state);
        if s.frozen {
            return Err(frozen_err());
        }
        let count = {
            let f = s.files.entry(self.path.clone()).or_default();
            f.syncs += 1;
            f.syncs
        };
        if SimVfs::take_fault(&mut s, &self.path, IoOp::Sync, count).is_some() {
            return Err(Error::Io(format!("injected fsync failure on {}", self.path.display())));
        }
        let f = s.files.get_mut(&self.path).expect("entry just touched");
        f.durable = f.data.len();
        Ok(())
    }
}

impl Vfs for SimVfs {
    fn open_log(&self, path: &Path, truncate: bool) -> Result<(Box<dyn LogFile>, u64)> {
        let mut s = lock(&self.state);
        if s.frozen {
            return Err(frozen_err());
        }
        let f = s.files.entry(path.to_path_buf()).or_default();
        if truncate {
            f.data.clear();
            f.durable = 0;
        }
        let len = f.data.len() as u64;
        drop(s);
        Ok((Box::new(SimLogFile { state: self.state.clone(), path: path.to_path_buf() }), len))
    }

    fn read(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        Ok(lock(&self.state).files.get(path).map(|f| f.data.clone()))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        let mut s = lock(&self.state);
        if s.frozen {
            return Err(frozen_err());
        }
        // Rename is all-or-nothing: the new content replaces the old in
        // one step, and (like a journaled rename) survives the crash
        // whole. Torn checkpoint *sets* still happen — between files,
        // via the crash points in Engine::checkpoint.
        let f = s.files.entry(path.to_path_buf()).or_default();
        f.data = bytes.to_vec();
        f.durable = f.data.len();
        s.bytes_written += bytes.len() as u64;
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> Result<()> {
        let mut s = lock(&self.state);
        if s.frozen {
            return Err(frozen_err());
        }
        if let Some(f) = s.files.get_mut(path) {
            if f.data.len() as u64 > len {
                f.data.truncate(len as usize);
                f.durable = f.durable.min(len as usize);
            }
        }
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> Result<()> {
        Ok(())
    }

    fn list_dir(&self, dir: &Path) -> Result<Vec<PathBuf>> {
        // BTreeMap keys are already path-sorted.
        Ok(lock(&self.state)
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        let mut s = lock(&self.state);
        if s.frozen {
            return Err(frozen_err());
        }
        // Like a journaled unlink: immediate and durable — there is no
        // "torn" unlink, the file is either there or gone after a crash.
        s.files.remove(path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn std_vfs_roundtrips_and_appends() {
        let dir = std::env::temp_dir().join(format!("sstore-vfs-{}", std::process::id()));
        let vfs = StdVfs;
        vfs.create_dir_all(&dir).unwrap();
        let path = dir.join("x.log");
        let (mut f, len) = vfs.open_log(&path, true).unwrap();
        assert_eq!(len, 0);
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        drop(f);
        let (mut f, len) = vfs.open_log(&path, false).unwrap();
        assert_eq!(len, 3);
        f.append(b"def").unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap().unwrap(), b"abcdef");
        vfs.write_atomic(&dir.join("ck"), b"image").unwrap();
        assert_eq!(vfs.read(&dir.join("ck")).unwrap().unwrap(), b"image");
        assert!(vfs.read(&dir.join("missing")).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sim_vfs_basic_io_matches_std_semantics() {
        let vfs = SimVfs::new(1);
        let (mut f, len) = vfs.open_log(&p("/a/l"), true).unwrap();
        assert_eq!(len, 0);
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        f.append(b"def").unwrap();
        assert_eq!(vfs.read(&p("/a/l")).unwrap().unwrap(), b"abcdef");
        assert!(vfs.read(&p("/nope")).unwrap().is_none());
        let (_, len) = vfs.open_log(&p("/a/l"), false).unwrap();
        assert_eq!(len, 6, "resume keeps bytes");
        let (_, len) = vfs.open_log(&p("/a/l"), true).unwrap();
        assert_eq!(len, 0, "truncate empties");
    }

    #[test]
    fn crash_keeps_synced_prefix_and_tears_unsynced_tail() {
        for seed in 0..20 {
            let vfs = SimVfs::new(seed);
            let (mut f, _) = vfs.open_log(&p("/l"), true).unwrap();
            f.append(b"durable!").unwrap();
            f.sync().unwrap();
            f.append(b"lost-or-torn").unwrap();
            vfs.freeze();
            assert!(f.append(b"x").is_err(), "frozen writes must fail");
            assert!(f.sync().is_err());
            vfs.restart_after_crash();
            let bytes = vfs.read(&p("/l")).unwrap().unwrap();
            assert!(bytes.starts_with(b"durable!"), "synced prefix survives");
            assert!(bytes.len() <= b"durable!lost-or-torn".len());
            // And I/O works again.
            let (mut f, _) = vfs.open_log(&p("/l"), false).unwrap();
            f.append(b"+post").unwrap();
        }
        // Determinism: same seed, same surviving bytes.
        let run = |seed| {
            let vfs = SimVfs::new(seed);
            let (mut f, _) = vfs.open_log(&p("/l"), true).unwrap();
            f.append(b"aa").unwrap();
            f.sync().unwrap();
            f.append(b"bbbbbbbb").unwrap();
            vfs.freeze();
            vfs.restart_after_crash();
            vfs.read(&p("/l")).unwrap().unwrap()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn planned_append_and_sync_faults_fire_once() {
        let vfs = SimVfs::new(3);
        vfs.plan_faults(vec![
            IoFault { file_contains: "l0".into(), op: IoOp::Append, nth: 2, kind: IoFaultKind::Fail },
            IoFault { file_contains: "l0".into(), op: IoOp::Sync, nth: 1, kind: IoFaultKind::Fail },
        ]);
        let (mut f, _) = vfs.open_log(&p("/l0"), true).unwrap();
        f.append(b"first").unwrap();
        assert!(f.sync().is_err(), "sync #1 injected");
        assert!(f.append(b"second").is_err(), "append #2 injected, no bytes land");
        assert_eq!(vfs.read(&p("/l0")).unwrap().unwrap(), b"first");
        f.append(b"third").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.faults_fired(), 2);
        // Other files untouched by the filter.
        let (mut g, _) = vfs.open_log(&p("/l1"), true).unwrap();
        g.append(b"x").unwrap();
        g.append(b"y").unwrap();
    }

    #[test]
    fn short_write_leaves_a_proper_prefix() {
        let vfs = SimVfs::new(9);
        vfs.plan_faults(vec![IoFault {
            file_contains: "l".into(),
            op: IoOp::Append,
            nth: 1,
            kind: IoFaultKind::Short,
        }]);
        let (mut f, _) = vfs.open_log(&p("/l"), true).unwrap();
        assert!(f.append(b"0123456789").is_err());
        let bytes = vfs.read(&p("/l")).unwrap().unwrap();
        assert!(bytes.len() < 10, "short write must not land everything");
        assert_eq!(&bytes[..], &b"0123456789"[..bytes.len()], "prefix, not garbage");
    }

    #[test]
    fn crash_at_byte_freezes_mid_write() {
        let vfs = SimVfs::new(4);
        vfs.crash_at_byte(5);
        let (mut f, _) = vfs.open_log(&p("/l"), true).unwrap();
        f.append(b"abc").unwrap();
        assert!(f.append(b"defgh").is_err(), "crosses the byte budget");
        assert!(vfs.crashed());
        vfs.restart_after_crash();
        let bytes = vfs.read(&p("/l")).unwrap().unwrap();
        assert!(bytes.len() <= 5, "nothing past the crash byte: {bytes:?}");
    }

    #[test]
    fn list_dir_and_remove_file_on_both_vfs() {
        // SimVfs: sorted listing, parent-scoped, idempotent remove.
        let vfs = SimVfs::new(6);
        let (mut f, _) = vfs.open_log(&p("/d/b.log"), true).unwrap();
        f.append(b"x").unwrap();
        let (mut g, _) = vfs.open_log(&p("/d/a.log"), true).unwrap();
        g.append(b"y").unwrap();
        vfs.write_atomic(&p("/other/c"), b"z").unwrap();
        assert_eq!(vfs.list_dir(&p("/d")).unwrap(), vec![p("/d/a.log"), p("/d/b.log")]);
        assert_eq!(vfs.list_dir(&p("/missing")).unwrap(), Vec::<PathBuf>::new());
        vfs.remove_file(&p("/d/a.log")).unwrap();
        vfs.remove_file(&p("/d/a.log")).unwrap(); // idempotent
        assert_eq!(vfs.list_dir(&p("/d")).unwrap(), vec![p("/d/b.log")]);
        // Removal is refused while crashed (frozen I/O) — GC must not
        // delete anything on a dead machine.
        vfs.freeze();
        assert!(vfs.remove_file(&p("/d/b.log")).is_err());
        vfs.restart_after_crash();
        assert!(vfs.read(&p("/d/b.log")).unwrap().is_some());

        // StdVfs mirrors the semantics.
        let dir = std::env::temp_dir().join(format!("sstore-vfs-ls-{}", std::process::id()));
        let std_vfs = StdVfs;
        std_vfs.create_dir_all(&dir).unwrap();
        std_vfs.write_atomic(&dir.join("b"), b"1").unwrap();
        std_vfs.write_atomic(&dir.join("a"), b"2").unwrap();
        assert_eq!(std_vfs.list_dir(&dir).unwrap(), vec![dir.join("a"), dir.join("b")]);
        assert!(std_vfs.list_dir(&dir.join("missing")).unwrap().is_empty());
        std_vfs.remove_file(&dir.join("a")).unwrap();
        std_vfs.remove_file(&dir.join("a")).unwrap(); // idempotent
        assert_eq!(std_vfs.list_dir(&dir).unwrap(), vec![dir.join("b")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_is_all_or_nothing_across_crash() {
        let vfs = SimVfs::new(5);
        vfs.write_atomic(&p("/ck"), b"old").unwrap();
        vfs.freeze();
        assert!(vfs.write_atomic(&p("/ck"), b"new").is_err());
        vfs.restart_after_crash();
        assert_eq!(vfs.read(&p("/ck")).unwrap().unwrap(), b"old");
        vfs.write_atomic(&p("/ck"), b"new").unwrap();
        assert_eq!(vfs.read(&p("/ck")).unwrap().unwrap(), b"new");
    }
}
