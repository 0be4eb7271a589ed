//! Open-loop pacing: operation `i` is due at `i × period` after the
//! phase starts, whatever the system under test is doing, and its
//! latency is counted from that due time — so a stall is charged to
//! every operation that had to wait behind it, not hidden by a
//! generator that politely slowed down.

use std::time::{Duration, Instant};

/// The arithmetic of a fixed-rate schedule, on nanosecond offsets from
/// the phase start (pure, so it can be tested without sleeping).
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period_ns: u64,
}

impl Schedule {
    pub fn per_second(rate: f64) -> Self {
        Schedule {
            period_ns: (1e9 / rate).round() as u64,
        }
    }

    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }

    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// How late the generator is when it gets round to op `i` at
    /// `now_ns` (zero when it is early and will sleep).
    pub fn slip_ns(&self, i: u64, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.due_ns(i))
    }

    /// Latency of op `i` completed at `done_ns`: from the due time, so
    /// it includes any slip.
    pub fn latency_ns(&self, i: u64, done_ns: u64) -> u64 {
        done_ns.saturating_sub(self.due_ns(i))
    }
}

/// A schedule bound to a wall-clock start.
pub struct Pacer {
    pub schedule: Schedule,
    start: Instant,
}

impl Pacer {
    pub fn start(rate: f64) -> Self {
        Pacer {
            schedule: Schedule::per_second(rate),
            start: Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Sleeps until op `i` is due and returns the slip. (A timer sleep,
    /// not a busy-wait: the only schedule kept here is `hybrid_scan`'s
    /// reader, whose operations take milliseconds and whose writer side
    /// needs both cores.)
    pub fn wait(&self, i: u64) -> u64 {
        let (due, now) = (self.schedule.due_ns(i), self.now_ns());
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        self.schedule.slip_ns(i, self.now_ns())
    }
}

/// True when a series of backlog samples (in ops, in time order) is
/// still climbing at its end: the median of the last quarter exceeds
/// the median of the second quarter by more than `slack` ops. A phase
/// that ends like that was offered more than the system sustains, and
/// its latencies describe the run length, not the system.
pub fn backlog_growing(samples: &[f64], slack: f64) -> bool {
    if samples.len() < 8 {
        return false;
    }
    let q = samples.len() / 4;
    let early = crate::stats::median(&mut samples[q..2 * q].to_vec());
    let late = crate::stats::median(&mut samples[samples.len() - q..].to_vec());
    late > early + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_instant_not_the_send() {
        let s = Schedule::per_second(1000.0); // 1 ms period
        assert_eq!(s.due_ns(5), 5_000_000);
        // Generator got to op 5 at 7.2 ms: 2.2 ms of slip …
        assert_eq!(s.slip_ns(5, 7_200_000), 2_200_000);
        // … and an op that then took 0.3 ms is charged 2.5 ms.
        assert_eq!(s.latency_ns(5, 7_500_000), 2_500_000);
        // Early generator: no slip, and latency still from due time.
        assert_eq!(s.slip_ns(5, 4_000_000), 0);
        assert_eq!(s.latency_ns(5, 5_100_000), 100_000);
    }

    #[test]
    fn pacer_reports_slip_when_started_late() {
        let p = Pacer::start(1_000_000.0); // 1 µs period: always late
        std::thread::sleep(Duration::from_millis(2));
        assert!(p.wait(0) >= 2_000_000);
        let q = Pacer::start(100.0);
        assert!(q.wait(1) < 5_000_000, "waited to the due time, small slip");
        assert!(q.now_ns() >= 10_000_000, "not before it");
    }

    #[test]
    fn growing_backlog_is_flagged_and_a_flat_one_is_not() {
        let flat: Vec<f64> = (0..100).map(|i| f64::from(i % 3)).collect();
        assert!(!backlog_growing(&flat, 16.0));
        let ramp: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(backlog_growing(&ramp, 16.0));
        // A burst in the middle that has drained by the end is fine.
        let mut burst = vec![0.0; 100];
        burst[40..60].iter_mut().for_each(|b| *b = 500.0);
        assert!(!backlog_growing(&burst, 16.0));
    }
}
