//! Satellite properties for the latency histograms: quantile snapshots
//! are monotone (p50 ≤ p95 ≤ p99) for ANY sample distribution and at
//! most 12.5 % above the true quantile, `reset()` zeroes everything
//! public, and it composes with concurrent recording — snapshots taken
//! while recorders and resetters race stay well-formed and nothing
//! panics or is left behind once the recorders stop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use sstore_engine::admission::TxnClass;
use sstore_engine::metrics::{EngineMetrics, LatencyHistogram};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantiles are monotone and the count is exact for any mix of
    /// durations, from zero through the clamped overflow bucket.
    #[test]
    fn quantile_snapshots_are_monotone(
        samples in proptest::collection::vec(0u64..u64::MAX / 2, 0..300),
    ) {
        let h = LatencyHistogram::default();
        for &ns in &samples {
            h.record(Duration::from_nanos(ns));
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, samples.len() as u64);
        prop_assert!(s.p50 <= s.p95, "p50 {:?} > p95 {:?}", s.p50, s.p95);
        prop_assert!(s.p95 <= s.p99, "p95 {:?} > p99 {:?}", s.p95, s.p99);
        h.clear();
        prop_assert_eq!(h.snapshot().count, 0);
    }

    /// A reported quantile is the true one (the sample of rank
    /// ⌈q·n⌉) or at most an eighth above it — fine enough that a tail
    /// gate can be a ratio.
    #[test]
    fn quantiles_are_within_an_eighth_above_the_true_ones(
        samples in proptest::collection::vec(0u64..1 << 39, 1..300),
    ) {
        let h = LatencyHistogram::default();
        for &ns in &samples {
            h.record(Duration::from_nanos(ns));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let s = h.snapshot();
        for (q, got) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let (truth, got) = (sorted[rank - 1], got.as_nanos() as u64);
            prop_assert!(
                got >= truth && got <= truth + truth / 8,
                "q{}: reported {} for true {}", q, got, truth
            );
        }
    }

    /// Per-class accounting through EngineMetrics stays monotone too
    /// (the three kinds share one recording call).
    #[test]
    fn class_latency_snapshots_are_monotone(
        waits in proptest::collection::vec((0u64..10_000_000, 0u64..10_000_000), 1..80),
    ) {
        let m = EngineMetrics::new();
        let t0 = Instant::now();
        for &(queue_ns, exec_ns) in &waits {
            let t1 = t0 + Duration::from_nanos(queue_ns);
            let t2 = t1 + Duration::from_nanos(exec_ns);
            m.record_latency(TxnClass::Border, t0, t1, t2);
        }
        let c = m.class_latency(TxnClass::Border);
        for s in [c.queue_wait, c.execution, c.end_to_end] {
            prop_assert_eq!(s.count, waits.len() as u64);
            prop_assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "non-monotone: {:?}", s);
        }
    }
}

/// `reset()` zeroes every registered counter, the per-procedure
/// counters, the latency histograms, the shed map and the trace —
/// benchmark phases read deltas from zero and rely on it. The counters
/// come from the registry, so one added later is covered here too.
#[test]
fn reset_clears_every_public_counter_histogram_and_shed() {
    let m = EngineMetrics::new();
    m.counters().iter().for_each(|(_, c)| EngineMetrics::bump(c));
    m.bump_shed("reqs");
    let t0 = Instant::now();
    m.record_latency(TxnClass::Border, t0, t0 + Duration::from_micros(5), t0 + Duration::from_micros(9));
    assert!(m.counters().iter().all(|(_, c)| EngineMetrics::get(c) >= 1));
    assert_eq!(m.latency_snapshot().len(), 1);
    assert_eq!(m.sheds_by_origin(), vec![("reqs".to_string(), 1)]);

    m.reset();
    let left: Vec<(&str, u64)> =
        m.counters().iter().map(|(name, c)| (*name, EngineMetrics::get(c))).collect();
    assert!(left.iter().all(|&(_, n)| n == 0), "reset left a counter: {left:?}");
    assert!(m.latency_snapshot().is_empty(), "reset left latency samples");
    assert!(m.sheds_by_origin().is_empty(), "reset left the shed map");
    assert_eq!(m.shed_for("reqs"), 0);
}

/// `reset()` racing concurrent recorders: no panic, every snapshot
/// taken mid-race is well-formed (monotone, count bounded by the total
/// offered), and a final reset leaves nothing behind.
#[test]
fn reset_composes_with_concurrent_recording() {
    let m = EngineMetrics::new();
    let stop = AtomicBool::new(false);
    let per_thread = 20_000u64;
    std::thread::scope(|s| {
        for worker in 0..3u64 {
            let m = &m;
            let stop = &stop;
            s.spawn(move || {
                let t0 = Instant::now();
                for i in 0..per_thread {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let class = TxnClass::ALL[(worker as usize + i as usize) % TxnClass::ALL.len()];
                    let t1 = t0 + Duration::from_nanos(i * 7 % 1_000_000);
                    let t2 = t1 + Duration::from_nanos(i * 13 % 5_000_000);
                    m.record_latency(class, t0, t1, t2);
                }
            });
        }
        // Resetter + sampler interleaved with the recorders.
        for _ in 0..200 {
            for class in TxnClass::ALL {
                let c = m.class_latency(class);
                for s in [c.queue_wait, c.execution, c.end_to_end] {
                    assert!(s.p50 <= s.p95 && s.p95 <= s.p99, "mid-race snapshot torn: {s:?}");
                    assert!(s.count <= 3 * per_thread);
                }
            }
            m.reset();
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Recorders are done: one final reset clears everything for good.
    m.reset();
    assert!(m.latency_snapshot().is_empty(), "reset left samples behind");
    for class in TxnClass::ALL {
        assert_eq!(m.class_latency(class).end_to_end.count, 0);
    }
}
