//! Engine-wide counters, per-class latency histograms, and the
//! optional execution trace.
//!
//! Shared between partition threads and the caller via `Arc`; all hot
//! counters are relaxed atomics (they feed throughput reports, not
//! synchronization). Latency is recorded into fixed-size, log-linear
//! histograms — one per ([`TxnClass`], [`LatencyKind`]) pair — so the
//! per-transaction cost is two `Instant::now()` calls and three relaxed
//! increments, and a `p50/p95/p99` snapshot is available at any time
//! without locking the hot path.
//!
//! One declaration per counter: each is a field of [`EngineMetrics`]
//! written once, with its wire name and doc, in the `engine_metrics!`
//! table below. [`EngineMetrics::reset`], [`EngineMetrics::entries`]
//! (the wire's `Metrics` rows) and the tests all walk
//! [`EngineMetrics::counters`] instead of listing fields again. A
//! counter is only ever added to; a gauge (`log_segments`, `log_bytes`,
//! `checkpoint_bytes`, `recovery_replay_ms`, `recovery_restore_ms`) is
//! set by one engine-level writer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use sstore_common::hash::FxHashMap;
use sstore_common::{lock, ProcId};

use crate::admission::TxnClass;
use crate::names::AppIds;
use crate::workflow::TraceEvent;

/// Linear sub-buckets per octave, as a bit count: 8 per power of two.
const SUB_BITS: u32 = 3;
const SUBS: u64 = 1 << SUB_BITS;

/// Buckets per histogram: 37 groups of 8. Group 0 holds 0–7 ns one
/// value per bucket; group `g ≥ 1` splits the octave
/// `[2^(g+2), 2^(g+3))` ns into 8 equal sub-buckets, so a bucket is at
/// most an eighth as wide as its lower bound. The last bucket also
/// absorbs everything from `2^39` ns (≈ 9 minutes) up — far beyond any
/// sane transaction latency.
pub const LATENCY_BUCKETS: usize = 37 << SUB_BITS;

/// One fixed-size, log-linear latency histogram. Recording is a single
/// relaxed `fetch_add`; quantiles are computed from a bucket snapshot
/// and reported as the largest value the bucket holds — at most 12.5 %
/// above the true sample, exact below 16 ns, monotone across quantiles
/// by construction.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

/// Count + quantiles of one histogram at a point in time. Each quantile
/// is the largest value of the bucket its rank falls in (≤ 12.5 % above
/// the sample of that rank; samples clamped into the last bucket
/// report `2^39 − 1` ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// Bucket index for a duration: the nanosecond count itself below
    /// 8, else octave group and the three bits after the leading one,
    /// clamped into range.
    #[inline]
    fn bucket_of(d: Duration) -> usize {
        let nanos = d.as_nanos().min(u128::from(u64::MAX)) as u64;
        if nanos < SUBS {
            return nanos as usize;
        }
        let shift = 63 - nanos.leading_zeros() - SUB_BITS;
        let sub = (nanos >> shift) & (SUBS - 1);
        ((u64::from(shift + 1) << SUB_BITS | sub) as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Largest unclamped value bucket `i` holds, the value quantiles
    /// report.
    #[inline]
    fn bucket_upper(i: usize) -> Duration {
        let (group, sub) = ((i as u64) >> SUB_BITS, (i as u64) & (SUBS - 1));
        if group == 0 {
            return Duration::from_nanos(sub);
        }
        Duration::from_nanos(((SUBS + sub + 1) << (group - 1)) - 1)
    }

    /// Records one sample (relaxed; safe from any thread).
    #[inline]
    pub fn record(&self, d: Duration) {
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Count and p50/p95/p99 from one read of the buckets: the sample
    /// of rank `⌈q·count⌉`, reported as its bucket's largest value (see
    /// [`HistogramSnapshot`]); all zero when nothing was recorded.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        let quantile = |q: f64| -> Duration {
            if total == 0 {
                return Duration::ZERO;
            }
            // Rank of the q-th sample, 1-based, at least 1.
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::bucket_upper(i);
                }
            }
            Self::bucket_upper(LATENCY_BUCKETS - 1)
        };
        HistogramSnapshot {
            count: total,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }

    /// Zeroes every bucket.
    pub fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Which latency of a transaction execution a histogram tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyKind {
    /// Admission (or internal enqueue) → dispatch by the partition.
    QueueWait,
    /// Dispatch → commit/abort.
    Execution,
    /// Admission → commit/abort (what a client observes).
    EndToEnd,
}

impl LatencyKind {
    /// All kinds, in [`LatencyKind::index`] order.
    pub const ALL: [LatencyKind; 3] =
        [LatencyKind::QueueWait, LatencyKind::Execution, LatencyKind::EndToEnd];

    /// Dense index for per-kind arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            LatencyKind::QueueWait => 0,
            LatencyKind::Execution => 1,
            LatencyKind::EndToEnd => 2,
        }
    }
}

/// Latency histograms for every ([`TxnClass`], [`LatencyKind`]) pair.
#[derive(Debug)]
pub struct LatencyStats {
    hists: [[LatencyHistogram; LatencyKind::ALL.len()]; TxnClass::ALL.len()],
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats {
            hists: std::array::from_fn(|_| std::array::from_fn(|_| LatencyHistogram::default())),
        }
    }
}

impl LatencyStats {
    /// The histogram for one class/kind pair.
    pub fn histogram(&self, class: TxnClass, kind: LatencyKind) -> &LatencyHistogram {
        &self.hists[class.index()][kind.index()]
    }

    fn clear(&self) {
        for row in &self.hists {
            for h in row {
                h.clear();
            }
        }
    }
}

/// Per-class latency snapshot (one entry per kind).
#[derive(Debug, Clone, Copy)]
pub struct ClassLatency {
    /// The transaction class.
    pub class: TxnClass,
    /// Admission/enqueue → dispatch.
    pub queue_wait: HistogramSnapshot,
    /// Dispatch → commit/abort.
    pub execution: HistogramSnapshot,
    /// Admission/enqueue → commit/abort.
    pub end_to_end: HistogramSnapshot,
}

/// Declares [`EngineMetrics`] and its counter registry in one place.
/// A field written `name: AtomicU64 => "wire.name"` is a registered
/// counter: [`EngineMetrics::counters`] lists it under that name, in
/// declaration order, so `reset`, the wire's `Metrics` response and the
/// tests cannot miss one. Every other field is declared as written.
macro_rules! engine_metrics {
    (
        $(#[$meta:meta])*
        pub struct EngineMetrics {
            $( $(#[$fmeta:meta])* $vis:vis $field:ident : $ty:ty $(=> $wire:literal)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct EngineMetrics {
            $( $(#[$fmeta])* $vis $field: $ty, )*
        }

        impl EngineMetrics {
            /// How many counters the registry holds.
            const COUNTERS: usize = [$($($wire,)?)*].len();

            /// Every registered counter with its wire name, in
            /// declaration order.
            pub fn counters(&self) -> [(&'static str, &AtomicU64); Self::COUNTERS] {
                [$($(($wire, &self.$field),)?)*]
            }
        }
    };
}

engine_metrics! {
/// Counters for one engine instance.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Committed transaction executions (OLTP + streaming).
    pub txns_committed: AtomicU64 => "engine.partition.txns_committed",
    /// Aborted transaction executions.
    pub txns_aborted: AtomicU64 => "engine.partition.txns_aborted",
    /// Completed workflows (commits of sink procedures — procedures
    /// with no declared output streams).
    pub workflows_completed: AtomicU64 => "engine.partition.workflows_completed",
    /// Command-log records appended.
    pub log_records: AtomicU64 => "engine.log.records",
    /// Command-log flushes (each is a write syscall, plus fsync when
    /// configured), summed over partitions — the contended resource in
    /// §4.4.
    pub log_flushes: AtomicU64 => "engine.log.flushes",
    /// PE→EE boundary crossings (the resource EE triggers save, §4.1).
    pub ee_round_trips: AtomicU64 => "engine.ee.round_trips",
    /// PE-trigger activations performed (S-Store mode only).
    pub pe_trigger_fires: AtomicU64 => "engine.scheduler.pe_trigger_fires",
    /// EE-trigger executions performed inside the EE.
    pub ee_trigger_fires: AtomicU64 => "engine.ee.ee_trigger_fires",
    /// Columnar batches processed by the vectorized SELECT path (one
    /// per ≤1024-row chunk streamed through a scan). Zero means every
    /// read went row-at-a-time — bench smoke asserts this is non-zero
    /// so the fast path can't silently un-wire itself.
    pub columnar_batches: AtomicU64 => "engine.sql.columnar_batches",
    /// The subset of [`EngineMetrics::columnar_batches`] scanned from
    /// Window-kind tables — slide-trigger `SELECT ... GROUP BY` over
    /// window extents. Bench smoke asserts this is non-zero for the
    /// windowed-aggregation workload.
    pub columnar_window_batches: AtomicU64 => "engine.sql.columnar_window_batches",
    /// SELECT dispatches that stayed row-wise because the table was
    /// below the `COLUMNAR_MIN_ROWS` cutoff (expected for trigger
    /// cascades over ~1-row stream tables).
    pub columnar_fallback_small: AtomicU64 => "engine.sql.columnar_fallback_small",
    /// SELECT dispatches that stayed row-wise because the plan shape is
    /// not vectorized: joins, index point lookups (`IndexEq`) and
    /// ordered index walks (`IndexOrder`).
    pub columnar_fallback_shape: AtomicU64 => "engine.sql.columnar_fallback_shape",
    /// Ad-hoc plan-cache hits: `query_at`/`prepare` served an already
    /// bound `Arc<BoundStatement>` for the same SQL text.
    pub adhoc_plan_hits: AtomicU64 => "engine.sql.adhoc_plan_hits",
    /// Ad-hoc plans actually computed (cache misses, including the
    /// first sight of each statement and post-invalidation re-plans).
    pub adhoc_plan_misses: AtomicU64 => "engine.sql.adhoc_plan_misses",
    /// Exchange batches merged from all sources and handed to the
    /// scheduler on a receiving partition.
    pub exchange_batches: AtomicU64 => "engine.exchange.batches",
    /// Exchange batches dropped as duplicates by the per-partition
    /// watermark (recovery re-sends).
    pub exchange_dups_dropped: AtomicU64 => "engine.exchange.dups_dropped",
    /// Time-window slides applied (non-trivial extents fired by the
    /// partition watermark).
    pub window_slides: AtomicU64 => "engine.window.slides",
    /// Late tuples merged into a time window's active extent (within
    /// allowed lateness).
    pub window_late_merged: AtomicU64 => "engine.window.late_merged",
    /// Late tuples dropped by a time window (beyond allowed lateness) —
    /// the metrics hook for out-of-order overflow.
    pub window_late_dropped: AtomicU64 => "engine.window.late_dropped",
    /// Client requests rejected at the admission border (Shed policy,
    /// or a Block timeout expiring) — total across origins. Rejected
    /// work touched no state.
    pub shed_batches: AtomicU64 => "engine.admission.shed",
    /// Shed counts by origin: the stream name for ingested batches,
    /// the procedure name for OLTP calls, `"@adhoc"` for ad-hoc SQL.
    /// Cold path (only bumped on rejection), so a mutex is fine.
    shed_by_origin: Mutex<FxHashMap<String, u64>>,
    /// Log segments currently on disk, summed over partitions (gauge;
    /// refreshed after every checkpoint's GC pass).
    pub log_segments: AtomicU64 => "engine.log.segments",
    /// Command-log bytes currently on disk, summed over partitions
    /// (gauge; refreshed after every checkpoint's GC pass).
    pub log_bytes: AtomicU64 => "engine.log.bytes",
    /// Checkpoint-image bytes written by the most recent checkpoint,
    /// summed over partitions (gauge; a delta epoch shows how much
    /// smaller incremental images are than a base).
    pub checkpoint_bytes: AtomicU64 => "engine.checkpoint.bytes",
    /// Log segments deleted by checkpoint GC (cumulative).
    pub gc_segments_deleted: AtomicU64 => "engine.checkpoint.gc_segments",
    /// Wall-clock milliseconds the last recovery spent replaying
    /// per-partition logs (gauge; the max over partitions, since they
    /// replay in parallel — the RTO contribution of replay).
    pub recovery_replay_ms: AtomicU64 => "engine.recovery.replay_ms",
    /// Wall-clock milliseconds the last recovery spent restoring
    /// checkpoint chains (gauge; the max over partitions, which restore
    /// concurrently — the RTO contribution of restore).
    pub recovery_restore_ms: AtomicU64 => "engine.recovery.restore_ms",
    /// Table frames checkpoint-chain restores decoded, summed over
    /// partitions: per table, its last whole image in the chain and
    /// every rows frame after it.
    pub restore_images_decoded: AtomicU64 => "engine.recovery.images_decoded",
    /// Table frames checkpoint-chain restores stepped over undecoded
    /// because a later whole image of their table superseded them.
    pub restore_images_skipped: AtomicU64 => "engine.recovery.images_skipped",
    /// Per-class queue-wait / execution / end-to-end histograms.
    pub latency: LatencyStats,
    /// Per stored procedure, indexed by `ProcId`: executions and their
    /// summed execution time, over all partitions. Sized from the
    /// application's procedures by the first execution recorded.
    procs: OnceLock<Vec<ProcStats>>,
    /// Execution trace of committed TEs, recorded only when
    /// [`crate::config::EngineConfig::trace`] is on.
    pub trace: Mutex<Vec<TraceEvent>>,
}
}

/// One stored procedure's execution counters (relaxed, like the rest).
#[derive(Debug)]
struct ProcStats {
    name: String,
    count: AtomicU64,
    exec_ns: AtomicU64,
}

impl EngineMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        EngineMetrics::default()
    }

    /// Records one execution of `proc`, a stored procedure of `ids`
    /// (dispatch to done, commit or abort). Ad-hoc SQL has no procedure;
    /// the partition does not record it here.
    #[inline]
    pub fn record_proc(&self, ids: &AppIds, proc: ProcId, exec: Duration) {
        let procs = self.procs.get_or_init(|| {
            (0..ids.proc_count() as u32)
                .map(|i| ProcStats {
                    name: ids.proc_name(ProcId(i)).to_string(),
                    count: AtomicU64::new(0),
                    exec_ns: AtomicU64::new(0),
                })
                .collect()
        });
        let p = &procs[proc.index()];
        p.count.fetch_add(1, Ordering::Relaxed);
        p.exec_ns.fetch_add(exec.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Relaxed increment helper.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read helper.
    #[inline]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Records one shed (admission rejection) for `origin`.
    pub fn bump_shed(&self, origin: &str) {
        self.bump_shed_n(origin, 1);
    }

    /// Records `n` sheds for `origin` at once — a split batch that
    /// fails all-or-nothing admission sheds every one of its
    /// sub-requests, so the counter stays equal to offered − admitted
    /// sub-requests.
    pub fn bump_shed_n(&self, origin: &str, n: u64) {
        self.shed_batches.fetch_add(n, Ordering::Relaxed);
        *lock(&self.shed_by_origin).entry(origin.to_owned()).or_insert(0) += n;
    }

    /// Shed count for one origin (stream or procedure name).
    pub fn shed_for(&self, origin: &str) -> u64 {
        lock(&self.shed_by_origin).get(origin).copied().unwrap_or(0)
    }

    /// All origins that shed at least one request, with counts,
    /// sorted by origin name.
    pub fn sheds_by_origin(&self) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> =
            lock(&self.shed_by_origin).iter().map(|(k, n)| (k.clone(), *n)).collect();
        v.sort();
        v
    }

    /// Records all three latencies of one finished transaction
    /// execution from its monotonic timestamps (admit ≤ dispatch ≤
    /// done; saturating on the clock's behalf).
    #[inline]
    pub fn record_latency(
        &self,
        class: TxnClass,
        admitted_at: Instant,
        dispatched_at: Instant,
        done_at: Instant,
    ) {
        let l = &self.latency;
        l.histogram(class, LatencyKind::QueueWait)
            .record(dispatched_at.saturating_duration_since(admitted_at));
        l.histogram(class, LatencyKind::Execution)
            .record(done_at.saturating_duration_since(dispatched_at));
        l.histogram(class, LatencyKind::EndToEnd)
            .record(done_at.saturating_duration_since(admitted_at));
    }

    /// Latency snapshot for one class: a [`HistogramSnapshot`] per
    /// [`LatencyKind`], each at the histogram's ≤ 12.5 % resolution, so
    /// two snapshots' quantiles can be compared as a ratio.
    pub fn class_latency(&self, class: TxnClass) -> ClassLatency {
        ClassLatency {
            class,
            queue_wait: self.latency.histogram(class, LatencyKind::QueueWait).snapshot(),
            execution: self.latency.histogram(class, LatencyKind::Execution).snapshot(),
            end_to_end: self.latency.histogram(class, LatencyKind::EndToEnd).snapshot(),
        }
    }

    /// Latency snapshot of every class that recorded at least one
    /// sample, in [`TxnClass::ALL`] order.
    pub fn latency_snapshot(&self) -> Vec<ClassLatency> {
        TxnClass::ALL
            .into_iter()
            .map(|c| self.class_latency(c))
            .filter(|c| c.end_to_end.count > 0)
            .collect()
    }

    /// Snapshot of the trace.
    pub fn trace_snapshot(&self) -> Vec<TraceEvent> {
        lock(&self.trace).clone()
    }

    /// Zeroes every registered counter and clears the histograms, the
    /// shed map, the per-procedure counters and the trace (between
    /// benchmark phases).
    pub fn reset(&self) {
        for (_, counter) in self.counters() {
            counter.store(0, Ordering::Relaxed);
        }
        lock(&self.shed_by_origin).clear();
        for p in self.procs.get().into_iter().flatten() {
            p.count.store(0, Ordering::Relaxed);
            p.exec_ns.store(0, Ordering::Relaxed);
        }
        self.latency.clear();
        lock(&self.trace).clear();
    }

    /// Everything this struct counts, flattened into the wire's
    /// `(name, value)` rows: every registered counter, then per class
    /// that recorded a sample its count and p50 / p95 / p99 in µs of
    /// each [`LatencyKind`], the sheds by origin, and per stored
    /// procedure its executions and summed execution time.
    pub fn entries(&self) -> Vec<(String, u64)> {
        let mut entries: Vec<(String, u64)> =
            self.counters().map(|(name, c)| (name.to_owned(), Self::get(c))).into();
        for cl in self.latency_snapshot() {
            let class = format!("engine.class.{}", cl.class.name());
            entries.push((format!("{class}.count"), cl.end_to_end.count));
            let kinds = [("queue", cl.queue_wait), ("exec", cl.execution), ("e2e", cl.end_to_end)];
            for (kind, h) in kinds {
                for (q, d) in [("p50", h.p50), ("p95", h.p95), ("p99", h.p99)] {
                    entries.push((format!("{class}.{kind}_{q}_us"), d.as_micros() as u64));
                }
            }
        }
        for (origin, n) in self.sheds_by_origin() {
            entries.push((format!("engine.shed.{origin}"), n));
        }
        // Per stored procedure, in declaration order, once one has run.
        for p in self.procs.get().into_iter().flatten() {
            entries.push((format!("engine.proc.{}.count", p.name), Self::get(&p.count)));
            entries.push((format!("engine.proc.{}.exec_us", p.name), Self::get(&p.exec_ns) / 1_000));
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_bump_and_reset() {
        let m = EngineMetrics::new();
        EngineMetrics::bump(&m.txns_committed);
        EngineMetrics::bump(&m.txns_committed);
        assert_eq!(EngineMetrics::get(&m.txns_committed), 2);
        lock(&m.trace).push(TraceEvent { proc: "p".into(), batch: None, partition: 0 });
        assert_eq!(m.trace_snapshot().len(), 1);
        m.reset();
        assert_eq!(EngineMetrics::get(&m.txns_committed), 0);
        assert!(m.trace_snapshot().is_empty());
    }

    #[test]
    fn histogram_buckets_are_log_linear_and_quantiles_ordered() {
        let h = LatencyHistogram::default();
        // 89 fast samples, 9 medium, 2 slow: the p50 rank (50) sits in
        // the fast bucket, p95 (rank 95) in the medium one, p99 (rank
        // 99) in the slow one.
        for _ in 0..89 {
            h.record(Duration::from_nanos(800)); // [768, 832) ns
        }
        for _ in 0..9 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        h.record(Duration::from_millis(50));
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, Duration::from_nanos(831));
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "quantiles must be ordered: {s:?}");
        // Each quantile is at or above its sample, by at most an eighth.
        for (got, sample) in [(s.p95, 100_000u64), (s.p99, 50_000_000)] {
            let got = got.as_nanos() as u64;
            assert!(got >= sample && got <= sample + sample / 8, "{got} vs {sample}");
        }
        h.clear();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, Duration::ZERO);
    }

    #[test]
    fn histogram_extremes_clamp() {
        let h = LatencyHistogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(100_000)); // beyond the last bucket
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.p99, Duration::from_nanos((1 << 39) - 1), "clamped into the last bucket");
        // Small values are exact; every bucket boundary maps back to itself.
        for ns in (0..64).chain([1023, 1024, 1025, (1 << 39) - 1]) {
            let upper = LatencyHistogram::bucket_upper(LatencyHistogram::bucket_of(
                Duration::from_nanos(ns),
            ));
            let upper = upper.as_nanos() as u64;
            assert!(upper >= ns && upper <= ns + ns / 8, "{ns} reported as {upper}");
        }
    }

    #[test]
    fn latency_recording_per_class_and_reset() {
        let m = EngineMetrics::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(10);
        let t2 = t1 + Duration::from_micros(30);
        m.record_latency(TxnClass::Border, t0, t1, t2);
        m.record_latency(TxnClass::Border, t0, t1, t2);
        m.record_latency(TxnClass::Oltp, t0, t0, t1);
        let snap = m.latency_snapshot();
        assert_eq!(snap.len(), 2, "only classes with samples appear");
        let border = m.class_latency(TxnClass::Border);
        assert_eq!(border.end_to_end.count, 2);
        assert_eq!(border.queue_wait.count, 2);
        assert!(border.end_to_end.p50 >= Duration::from_micros(40));
        assert_eq!(m.class_latency(TxnClass::WindowSlide).end_to_end.count, 0);
        // On the wire: a count and three quantiles per kind, per class
        // that has samples.
        let entries = m.entries();
        let row = |k: &str| entries.iter().find(|(name, _)| name == k).expect(k).1;
        assert_eq!(row("engine.class.border.count"), 2);
        assert!(row("engine.class.border.queue_p50_us") >= 10);
        assert!(row("engine.class.border.exec_p95_us") >= 30);
        assert!(row("engine.class.border.e2e_p99_us") >= 40);
        assert!(!entries.iter().any(|(k, _)| k.starts_with("engine.class.window_slide.")));
        // Out-of-order timestamps saturate instead of panicking.
        m.record_latency(TxnClass::Oltp, t2, t1, t0);
        m.reset();
        assert!(m.latency_snapshot().is_empty(), "reset clears histograms");
        assert_eq!(m.class_latency(TxnClass::Border).end_to_end.count, 0);
    }

    #[test]
    fn log_lifecycle_gauges_read_and_reset() {
        let m = EngineMetrics::new();
        m.log_segments.store(3, Ordering::Relaxed);
        m.log_bytes.store(4096, Ordering::Relaxed);
        m.checkpoint_bytes.store(128, Ordering::Relaxed);
        m.gc_segments_deleted.fetch_add(2, Ordering::Relaxed);
        m.recovery_replay_ms.store(17, Ordering::Relaxed);
        m.recovery_restore_ms.store(5, Ordering::Relaxed);
        let read = |m: &EngineMetrics| {
            let entries = m.entries();
            [
                "engine.log.segments",
                "engine.log.bytes",
                "engine.checkpoint.bytes",
                "engine.checkpoint.gc_segments",
                "engine.recovery.replay_ms",
                "engine.recovery.restore_ms",
            ]
            .map(|k| entries.iter().find(|(name, _)| name == k).expect(k).1)
        };
        assert_eq!(read(&m), [3, 4096, 128, 2, 17, 5]);
        m.reset();
        assert_eq!(read(&m), [0; 6]);
    }

    #[test]
    fn shed_accounting_per_origin() {
        let m = EngineMetrics::new();
        m.bump_shed("s1");
        m.bump_shed("s1");
        m.bump_shed("oltp_proc");
        assert_eq!(EngineMetrics::get(&m.shed_batches), 3);
        assert_eq!(m.shed_for("s1"), 2);
        assert_eq!(m.shed_for("nope"), 0);
        assert_eq!(
            m.sheds_by_origin(),
            vec![("oltp_proc".to_string(), 1), ("s1".to_string(), 2)]
        );
        let entries = m.entries();
        assert!(entries.contains(&("engine.admission.shed".to_string(), 3)));
        assert!(entries.contains(&("engine.shed.s1".to_string(), 2)));
        m.reset();
        assert_eq!(EngineMetrics::get(&m.shed_batches), 0);
        assert_eq!(m.shed_for("s1"), 0);
    }
}
