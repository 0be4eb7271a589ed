//! What the benchmark records about where it ran, and where it keeps
//! its files.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::json::Json;

fn proc_status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse::<f64>().ok()
}

/// Peak resident set of this process so far (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// Sets the CPUs (a bit mask over the first 64) every thread this
/// process has now may run on — what `taskset -a -p` does from outside.
fn confine_threads(mask: u64) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for t in tasks.flatten() {
        if let Ok(tid) = t.file_name().to_string_lossy().parse::<i32>() {
            // SAFETY: `mask` outlives the call, which reads 8 bytes
            // from it; a thread that has since exited makes the call
            // fail, nothing else.
            unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) };
        }
    }
}

/// While this lives, every thread the process had when it was made runs
/// on one CPU (the lowest the process is allowed). For a closed loop of
/// one, whose threads run strictly in turn and so lose nothing by it: a
/// hand-over between threads on one CPU is a context switch, between two
/// it is an inter-processor interrupt to a vCPU that has halted, whose
/// cost is the host's. Left to itself the guest's scheduler settles into
/// one placement or the other for tens of minutes at a time — medians of
/// 110 µs or 160 µs for the same synchronous vote on the same build.
pub struct OneCpu {
    allowed: u64,
}

impl OneCpu {
    pub fn confine() -> OneCpu {
        let mut allowed = 0u64;
        // SAFETY: `allowed` is a writable 8-byte buffer and the size
        // passed is its size; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut allowed) } != 0 {
            allowed = 0;
        }
        if allowed != 0 {
            confine_threads(allowed & allowed.wrapping_neg());
        }
        OneCpu { allowed }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if self.allowed != 0 {
            confine_threads(self.allowed);
        }
    }
}

/// Root for everything a run writes: next to the executable's target
/// directory, so it is inside the checkout the benchmark was built in
/// (the benchmark may read and write only there) and is covered by the
/// same ignore rule as the build output.
pub fn data_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("."));
    // <target>/release/bench → <target>; test binaries sit one deeper
    // (<target>/debug/deps/…), which is still inside <target>.
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or_else(|| Path::new("."));
    target.join("perfbench-data")
}

/// A fresh directory under [`data_root`] for one engine instance.
pub fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = data_root().join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data dir under the target directory");
    dir
}

/// Removes every directory this process created under [`data_root`].
pub fn cleanup() {
    let Ok(entries) = std::fs::read_dir(data_root()) else {
        return;
    };
    let mine = format!("-{}-", std::process::id());
    for e in entries.flatten() {
        if e.file_name().to_string_lossy().contains(&mine) {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best = ("", "unknown");
    for line in mounts.lines() {
        let mut it = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fs)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0.len() {
            best = (mount, fs);
        }
    }
    best.1.to_owned()
}

fn git_commit() -> String {
    // The driver's checkout is not a git repository; a developer's is.
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The host record written with every result file.
pub fn record() -> Json {
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("commit", Json::Str(git_commit())),
        ("rustc", Json::Str(rustc_version())),
        ("data_dir_fs", Json::Str(filesystem_of(&data_root()))),
        ("debug_build", Json::Bool(cfg!(debug_assertions))),
    ])
}
