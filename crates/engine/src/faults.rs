//! Named crash points and the fault injector that drives them.
//!
//! A **crash point** is a place in the engine where a real process can
//! die with observable consequences: between a transaction's work and
//! its log append, between the append and its downstream sends, between
//! the two phases of a checkpoint, after an exchange ship. The
//! [`FaultInjector`] lets a test arm exactly one of them — "crash at
//! the `n`-th time partition `p` reaches point `X`" — and when it
//! fires, the injector (a) marks the engine crashed, (b) runs the
//! registered `on_crash` hook (the chaos harness freezes its
//! [`crate::vfs::SimVfs`] there, so nothing written after the crash
//! instant is durable), and (c) fails the current operation and every
//! later one. The harness then discards the engine and recovers from
//! the frozen durable state — a deterministic kill -9 at an exact step.
//!
//! Cost when disarmed (every production engine): one relaxed atomic
//! load per [`FaultInjector::hit`] call site — no locks, no branches on
//! the hot path beyond that load.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sstore_common::{lock, Error, Result};

/// Where in the engine a crash can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// In the partition's commit path, after the body ran but before
    /// the command-log append: the transaction's work is complete in
    /// memory, nothing is durable.
    PreCommitAppend,
    /// After the log append (durable per the group-commit/fsync
    /// policy) but before the EE commit, the reply, and any exchange
    /// sends: the log says committed, nobody was told.
    PostAppendPreSend,
    /// In [`crate::engine::Engine::checkpoint`], between phase 1
    /// (collecting every partition's image) and phase 2 (writing the
    /// files): no file of the new epoch exists yet.
    MidCheckpointPhase1,
    /// In phase 2, between per-partition checkpoint writes: the set is
    /// torn — some partitions carry the new epoch, some the old.
    MidCheckpointPhase2,
    /// After a committed batch's exchange sub-batches were shipped to
    /// every peer: receivers hold work the sender may not remember.
    PostExchangeShip,
    /// In the GC pass, immediately before unlinking one obsolete log
    /// segment (the manifest already points past it): some covered
    /// segments may be gone, others still on disk.
    PreSegmentUnlink,
    /// After the new retention manifest became durable but before any
    /// unlink ran: the manifest references the new chain while every
    /// now-obsolete segment and image still exists.
    PostManifestPreUnlink,
    /// During checkpoint compaction, after the new base image was
    /// written but before the manifest adopted it: the compacted base
    /// is an orphan the old manifest never references.
    MidCompaction,
}

impl CrashPoint {
    /// All points, in [`CrashPoint::index`] order.
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::PreCommitAppend,
        CrashPoint::PostAppendPreSend,
        CrashPoint::MidCheckpointPhase1,
        CrashPoint::MidCheckpointPhase2,
        CrashPoint::PostExchangeShip,
        CrashPoint::PreSegmentUnlink,
        CrashPoint::PostManifestPreUnlink,
        CrashPoint::MidCompaction,
    ];

    /// Dense index for per-point counters.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CrashPoint::PreCommitAppend => 0,
            CrashPoint::PostAppendPreSend => 1,
            CrashPoint::MidCheckpointPhase1 => 2,
            CrashPoint::MidCheckpointPhase2 => 3,
            CrashPoint::PostExchangeShip => 4,
            CrashPoint::PreSegmentUnlink => 5,
            CrashPoint::PostManifestPreUnlink => 6,
            CrashPoint::MidCompaction => 7,
        }
    }

    /// Stable display name (chaos plans, failure repros).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::PreCommitAppend => "pre-commit-append",
            CrashPoint::PostAppendPreSend => "post-append-pre-send",
            CrashPoint::MidCheckpointPhase1 => "mid-checkpoint-phase-1",
            CrashPoint::MidCheckpointPhase2 => "mid-checkpoint-phase-2",
            CrashPoint::PostExchangeShip => "post-exchange-ship",
            CrashPoint::PreSegmentUnlink => "pre-segment-unlink",
            CrashPoint::PostManifestPreUnlink => "post-manifest-pre-unlink",
            CrashPoint::MidCompaction => "mid-compaction",
        }
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed crash: fire at the `remaining`-th future hit of `point`
/// (scoped to one partition when `partition` is `Some`).
#[derive(Debug, Clone, Copy)]
struct ArmedCrash {
    point: CrashPoint,
    /// `None` matches hits from any partition *and* the engine facade
    /// (checkpoint points report no partition).
    partition: Option<usize>,
    remaining: u64,
}

/// The crash-point scheduler shared by every engine component (via
/// [`crate::config::EngineConfig::faults`]).
pub struct FaultInjector {
    /// Fast-path gate: false on every production engine, so `hit` is a
    /// single relaxed load.
    armed: AtomicBool,
    crashed: AtomicBool,
    plan: Mutex<Option<ArmedCrash>>,
    on_crash: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// Observed hits per point (diagnostics; only counted while armed).
    hits: [AtomicU64; CrashPoint::ALL.len()],
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("armed", &self.armed.load(Ordering::Relaxed))
            .field("crashed", &self.crashed.load(Ordering::Relaxed))
            .field("plan", &*lock(&self.plan))
            .finish()
    }
}

impl FaultInjector {
    /// A disarmed injector — the default on every engine. `hit` costs
    /// one relaxed load and does nothing.
    pub fn disabled() -> Arc<FaultInjector> {
        Arc::new(FaultInjector {
            armed: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            plan: Mutex::new(None),
            on_crash: Mutex::new(None),
            hits: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }

    /// Registers the hook run at the crash instant, *before* the
    /// failing error is returned (the chaos harness freezes its
    /// `SimVfs` here so post-crash writes are not durable).
    pub fn on_crash(&self, f: impl Fn() + Send + Sync + 'static) {
        *lock(&self.on_crash) = Some(Box::new(f));
    }

    /// Arms one crash: the `nth` (1-based) future hit of `point` —
    /// restricted to `partition` when given — kills the engine.
    /// Replaces any previously armed crash.
    pub fn arm(&self, point: CrashPoint, partition: Option<usize>, nth: u64) {
        *lock(&self.plan) = Some(ArmedCrash { point, partition, remaining: nth.max(1) });
        self.armed.store(true, Ordering::Release);
    }

    /// True once an armed crash has fired (and until [`FaultInjector::reset`]).
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Clears the crashed state after the harness restarted the
    /// simulated machine. Stays armed if a new crash was armed.
    pub fn reset(&self) {
        self.crashed.store(false, Ordering::Release);
        self.armed.store(lock(&self.plan).is_some(), Ordering::Release);
    }

    /// Drops any armed crash and clears the crashed state — the
    /// injector goes back to costing one relaxed load per hit (used
    /// before a verification recovery that must run clean).
    pub fn disarm(&self) {
        *lock(&self.plan) = None;
        self.crashed.store(false, Ordering::Release);
        self.armed.store(false, Ordering::Release);
    }

    /// True while an armed crash has not fired yet.
    pub fn armed_pending(&self) -> bool {
        lock(&self.plan).is_some()
    }

    /// Times this point has been reached while the injector was armed.
    pub fn hits(&self, point: CrashPoint) -> u64 {
        self.hits[point.index()].load(Ordering::Relaxed)
    }

    /// A crash-point call site. Disarmed: free. Armed: counts the hit,
    /// fires the armed crash when due (freezing I/O via the `on_crash`
    /// hook and failing this operation), and after a crash fails every
    /// subsequent operation fast so the dead engine cannot limp on.
    #[inline]
    pub fn hit(&self, point: CrashPoint, partition: Option<usize>) -> Result<()> {
        if !self.armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.hit_slow(point, partition)
    }

    #[cold]
    fn hit_slow(&self, point: CrashPoint, partition: Option<usize>) -> Result<()> {
        if self.crashed.load(Ordering::Acquire) {
            return Err(Error::Io(format!(
                "simulated crash: engine is down (reached {point} post-crash)"
            )));
        }
        self.hits[point.index()].fetch_add(1, Ordering::Relaxed);
        let fire = {
            let mut plan = lock(&self.plan);
            match plan.as_mut() {
                Some(a)
                    if a.point == point
                        && (a.partition.is_none() || a.partition == partition) =>
                {
                    a.remaining -= 1;
                    if a.remaining == 0 {
                        *plan = None;
                        true
                    } else {
                        false
                    }
                }
                _ => false,
            }
        };
        if !fire {
            return Ok(());
        }
        self.crashed.store(true, Ordering::Release);
        if let Some(f) = &*lock(&self.on_crash) {
            f();
        }
        Err(Error::Io(format!(
            "simulated crash at {point}{}",
            partition.map(|p| format!(" on partition {p}")).unwrap_or_default()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_is_free_and_never_fires() {
        let inj = FaultInjector::disabled();
        for point in CrashPoint::ALL {
            inj.hit(point, Some(0)).unwrap();
        }
        assert!(!inj.crashed());
        assert_eq!(inj.hits(CrashPoint::PreCommitAppend), 0, "hits counted only while armed");
    }

    #[test]
    fn fires_on_the_nth_hit_of_the_right_point_and_partition() {
        let inj = FaultInjector::disabled();
        let fired = Arc::new(AtomicBool::new(false));
        let f2 = fired.clone();
        inj.on_crash(move || f2.store(true, Ordering::SeqCst));
        inj.arm(CrashPoint::PostAppendPreSend, Some(1), 2);
        // Wrong point / wrong partition: no fire.
        inj.hit(CrashPoint::PreCommitAppend, Some(1)).unwrap();
        inj.hit(CrashPoint::PostAppendPreSend, Some(0)).unwrap();
        // Right hits: second one fires.
        inj.hit(CrashPoint::PostAppendPreSend, Some(1)).unwrap();
        let err = inj.hit(CrashPoint::PostAppendPreSend, Some(1)).unwrap_err();
        assert!(err.to_string().contains("post-append-pre-send"), "got: {err}");
        assert!(inj.crashed());
        assert!(fired.load(Ordering::SeqCst), "on_crash hook ran");
        // Everything fails until reset.
        assert!(inj.hit(CrashPoint::PreCommitAppend, Some(0)).is_err());
        inj.reset();
        assert!(!inj.crashed());
        inj.hit(CrashPoint::PreCommitAppend, Some(0)).unwrap();
    }

    #[test]
    fn unscoped_plan_matches_any_partition_and_the_engine_facade() {
        let inj = FaultInjector::disabled();
        inj.arm(CrashPoint::MidCheckpointPhase1, None, 1);
        assert!(inj.hit(CrashPoint::MidCheckpointPhase1, None).is_err());
        inj.reset();
        inj.arm(CrashPoint::PreCommitAppend, None, 1);
        assert!(inj.hit(CrashPoint::PreCommitAppend, Some(3)).is_err());
    }

    #[test]
    fn indices_dense_and_names_stable() {
        let mut seen = [false; CrashPoint::ALL.len()];
        for p in CrashPoint::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
            assert!(!p.name().is_empty());
        }
        assert!(seen.iter().all(|s| *s));
    }
}
