//! Admission control: credit-based flow control at the client edge.
//!
//! The partitions' request channels are unbounded, which is exactly
//! right for *internal* traffic (PE triggers, exchange deliveries,
//! window slides must never block — a blocked cross-partition send
//! would deadlock two partitions against each other) and exactly wrong
//! for *client* traffic: any sustained offered load above capacity
//! grows the queues without bound. This module bounds the client side
//! only. Every client-origin request ([`Engine::ingest`] /
//! [`Engine::ingest_sync`] / [`Engine::call_at`] / [`Engine::query_at`]
//! sub-request) must hold an [`AdmissionPermit`] drawn from its target
//! partition's [`AdmissionGate`]; the permit travels inside the
//! [`TxnRequest`] and returns its credit when the request finishes —
//! commit, abort, or any drop path (a dead partition dropping its
//! queue included), so credits cannot leak.
//!
//! What happens when the gate is empty is the [`OverloadPolicy`]:
//! *Block* parks the caller (bounded by a timeout) — a closed-loop
//! client self-clocks to engine capacity; *Shed* rejects immediately
//! with [`Error::Overloaded`] *before any state is touched* — an
//! open-loop edge stays responsive and bounded at 10× over-capacity,
//! trading completeness for latency (the TSP "load shedding" axis).
//!
//! [`Engine::ingest`]: crate::engine::Engine::ingest
//! [`Engine::ingest_sync`]: crate::engine::Engine::ingest_sync
//! [`Engine::call_at`]: crate::engine::Engine::call_at
//! [`Engine::query_at`]: crate::engine::Engine::query_at
//! [`TxnRequest`]: crate::partition::TxnRequest
//! [`OverloadPolicy`]: crate::config::OverloadPolicy
//! [`Error::Overloaded`]: sstore_common::Error::Overloaded

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use sstore_common::lock;

/// What kind of transaction execution a request is, for latency
/// accounting and admission exemption. Client-origin classes
/// ([`Border`], [`Oltp`]) are admission-controlled; engine-internal
/// classes ([`Interior`], [`ExchangeMerge`], [`WindowSlide`]) are
/// exempt — they are downstream work of batches that were already
/// admitted, and gating them could deadlock cross-partition sends.
///
/// [`Border`]: TxnClass::Border
/// [`Oltp`]: TxnClass::Oltp
/// [`Interior`]: TxnClass::Interior
/// [`ExchangeMerge`]: TxnClass::ExchangeMerge
/// [`WindowSlide`]: TxnClass::WindowSlide
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnClass {
    /// Border streaming transaction: an externally ingested batch.
    Border,
    /// Interior streaming transaction (PE-triggered or client-driven).
    Interior,
    /// OLTP call (stored procedure or ad-hoc SQL).
    Oltp,
    /// Watermark-driven time-window slide.
    WindowSlide,
    /// Exchange-delivered merge from other partitions.
    ExchangeMerge,
}

impl TxnClass {
    /// All classes, in [`TxnClass::index`] order.
    pub const ALL: [TxnClass; 5] = [
        TxnClass::Border,
        TxnClass::Interior,
        TxnClass::Oltp,
        TxnClass::WindowSlide,
        TxnClass::ExchangeMerge,
    ];

    /// Dense index for per-class metric arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TxnClass::Border => 0,
            TxnClass::Interior => 1,
            TxnClass::Oltp => 2,
            TxnClass::WindowSlide => 3,
            TxnClass::ExchangeMerge => 4,
        }
    }

    /// Stable display name (benchmark JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            TxnClass::Border => "border",
            TxnClass::Interior => "interior",
            TxnClass::Oltp => "oltp",
            TxnClass::WindowSlide => "window_slide",
            TxnClass::ExchangeMerge => "exchange_merge",
        }
    }
}

impl fmt::Display for TxnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Mutable state of one [`AdmissionGate`], under its mutex.
///
/// `reserved` is the direct-handoff mechanism: a freed credit with
/// parked waiters is *earmarked* for exactly one of them (and exactly
/// one `notify_one` is issued), instead of being thrown back into a
/// free-for-all where the woken waiter races every barging
/// `try_acquire` and — losing — re-parks. With a thousand parked
/// sessions that free-for-all is a thundering herd: each freed credit
/// triggers a wake → lock re-contention → re-park cycle whose only
/// product is scheduler load. Under handoff a woken waiter *always*
/// finds its credit (invariant: `reserved ≤ free`), and barging
/// acquirers can only take the un-earmarked surplus
/// (`free - reserved`), so parked waiters cannot be starved by a
/// stream of fresh arrivals either.
#[derive(Debug)]
struct GateState {
    /// Credits not held by any permit (earmarked ones included).
    free: usize,
    /// Credits earmarked for specific parked waiters (≤ `free`, and
    /// ≤ `parked` — one outstanding wakeup per earmark).
    reserved: usize,
    /// Waiters currently parked in [`AdmissionGate::acquire_timeout`].
    parked: usize,
}

/// One partition's pool of admission credits. Client-origin requests
/// draw one credit each and hold it for their full lifetime (queue
/// wait + execution); internal traffic never touches the gate.
#[derive(Debug)]
pub struct AdmissionGate {
    capacity: usize,
    state: Mutex<GateState>,
    /// Signalled once per handoff (`notify_one`, never a broadcast):
    /// a freed credit wakes at most one parked session.
    woken: Condvar,
    /// Wakeups that found no earmarked credit (OS-level phantom
    /// wakeups, or a sibling waiter consuming the earmark first).
    /// Under direct handoff this stays near zero even with thousands
    /// of parked sessions — the contention test pins that.
    spurious_wakeups: std::sync::atomic::AtomicU64,
    /// Credits handed directly to a parked waiter (vs taken from the
    /// free surplus without parking).
    handoffs: std::sync::atomic::AtomicU64,
}

impl AdmissionGate {
    /// A gate with `capacity` credits (clamped to at least 1 — a
    /// zero-credit gate could admit nothing, ever).
    pub fn new(capacity: usize) -> Arc<AdmissionGate> {
        let capacity = capacity.max(1);
        Arc::new(AdmissionGate {
            capacity,
            state: Mutex::new(GateState { free: capacity, reserved: 0, parked: 0 }),
            woken: Condvar::new(),
            spurious_wakeups: std::sync::atomic::AtomicU64::new(0),
            handoffs: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Total credits this gate was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Credits currently free (not held by a permit; earmarked-for-a-
    /// waiter credits count as free until the waiter picks them up).
    pub fn available(&self) -> usize {
        lock(&self.state).free
    }

    /// Credits currently held by in-flight client requests.
    pub fn in_use(&self) -> usize {
        self.capacity - self.available()
    }

    /// Waiters currently parked on this gate (Block policy).
    pub fn parked(&self) -> usize {
        lock(&self.state).parked
    }

    /// Wakeups that found no earmarked credit since the gate was
    /// built. Direct handoff keeps this near zero regardless of how
    /// many sessions are parked; a regression to broadcast-style
    /// wakeups makes it grow with the waiter count.
    pub fn spurious_wakeups(&self) -> u64 {
        self.spurious_wakeups.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Credits handed directly to a parked waiter since the gate was
    /// built.
    pub fn handoffs(&self) -> u64 {
        self.handoffs.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Takes a credit if one is free, without blocking (the *Shed*
    /// policy's acquire). Only the un-earmarked surplus is up for
    /// grabs: credits already handed to parked waiters are theirs.
    pub fn try_acquire(self: &Arc<Self>) -> Option<AdmissionPermit> {
        let mut s = lock(&self.state);
        if s.free <= s.reserved {
            return None;
        }
        s.free -= 1;
        Some(AdmissionPermit { gate: self.clone() })
    }

    /// Blocks until a credit frees, up to `timeout` (the *Block*
    /// policy's acquire). Returns `None` on timeout. A `timeout` too
    /// large to represent as a deadline (e.g. `Duration::MAX`, the
    /// natural spelling of "block forever") waits without one.
    ///
    /// Parked waiters are woken by *direct handoff*: each freed credit
    /// earmarks itself for one waiter and wakes exactly that many
    /// threads, so a single free credit cannot stampede a thousand
    /// parked sessions into re-contending the lock.
    pub fn acquire_timeout(self: &Arc<Self>, timeout: Duration) -> Option<AdmissionPermit> {
        let deadline = Instant::now().checked_add(timeout);
        let mut s = lock(&self.state);
        if s.free > s.reserved {
            s.free -= 1;
            return Some(AdmissionPermit { gate: self.clone() });
        }
        s.parked += 1;
        loop {
            let timed_out;
            match deadline {
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        s.parked -= 1;
                        // This thread may have swallowed a notify meant
                        // for a sibling (notify_one does not name its
                        // target): if earmarks remain for the waiters
                        // still parked, pass the wakeup along; if an
                        // earmark now has no waiter left to take it,
                        // release it back to the barging surplus.
                        if s.reserved > s.parked {
                            s.reserved = s.parked;
                        } else if s.reserved > 0 {
                            self.woken.notify_one();
                        }
                        return None;
                    }
                    let (guard, res) = self
                        .woken
                        .wait_timeout(s, dl - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    s = guard;
                    timed_out = res.timed_out();
                }
                None => {
                    s = self.woken.wait(s).unwrap_or_else(PoisonError::into_inner);
                    timed_out = false;
                }
            }
            // Earmarks are claimed only on this side of a wait: a
            // thread that just parked must not barge through the check
            // and steal the credit whose notify is already in flight
            // to a sibling — that steal is exactly the wake → find
            // nothing → re-park churn handoff exists to prevent. A
            // deadline that expired while we slept still claims an
            // earmarked credit (prefer admitting work that was already
            // paid a wakeup over rejecting it on a tie); without an
            // earmark the expiry is handled at the top of the loop.
            if s.reserved > 0 {
                s.reserved -= 1;
                s.free -= 1;
                s.parked -= 1;
                self.handoffs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return Some(AdmissionPermit { gate: self.clone() });
            }
            if !timed_out {
                // Woken with nothing earmarked: an OS phantom wakeup or
                // a sibling got there first. Counted so the contention
                // test can pin that handoff keeps this rare.
                self.spurious_wakeups.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
}

/// One held admission credit. Returned to its gate on drop — which is
/// how commit, abort, shed-after-acquire, and every teardown path
/// (dropped queues, dead channels) all return credits without any of
/// them having to remember to.
pub struct AdmissionPermit {
    gate: Arc<AdmissionGate>,
}

impl fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("AdmissionPermit { .. }")
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let gate = &self.gate;
        let mut s = lock(&gate.state);
        s.free += 1;
        // Direct handoff: earmark the credit for one parked waiter and
        // wake exactly one thread — but only if some waiter does not
        // already have a pending earmark (otherwise every parked
        // session has a wakeup in flight and notifying again would
        // just manufacture spurious wakeups).
        if s.parked > s.reserved {
            s.reserved += 1;
            gate.woken.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_bound_and_return() {
        let gate = AdmissionGate::new(2);
        assert_eq!(gate.capacity(), 2);
        let a = gate.try_acquire().unwrap();
        let b = gate.try_acquire().unwrap();
        assert!(gate.try_acquire().is_none());
        assert_eq!(gate.in_use(), 2);
        drop(a);
        assert_eq!(gate.available(), 1);
        drop(b);
        assert_eq!(gate.available(), 2);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let gate = AdmissionGate::new(0);
        assert_eq!(gate.capacity(), 1);
        assert!(gate.try_acquire().is_some());
    }

    #[test]
    fn huge_timeout_means_no_deadline_not_a_panic() {
        let gate = AdmissionGate::new(1);
        // With a free credit, Duration::MAX must acquire immediately
        // (the unrepresentable deadline must not overflow).
        assert!(gate.acquire_timeout(Duration::MAX).is_some());
        // And a waiter with no deadline still wakes on a free. No
        // sleep-based timing: the handshake only proves the waiter
        // thread is running before the credit frees — whether it has
        // parked yet or not, the condvar loop re-checks the counter,
        // so the release cannot be missed.
        let held = gate.try_acquire().unwrap();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let g2 = gate.clone();
        let t = std::thread::spawn(move || {
            ready_tx.send(()).expect("main is waiting");
            g2.acquire_timeout(Duration::MAX).is_some()
        });
        ready_rx.recv().expect("waiter started");
        drop(held);
        assert!(t.join().unwrap());
    }

    #[test]
    fn acquire_timeout_expires_empty() {
        let gate = AdmissionGate::new(1);
        let held = gate.try_acquire().unwrap();
        let start = Instant::now();
        assert!(gate.acquire_timeout(Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
        drop(held);
        assert!(gate.acquire_timeout(Duration::from_millis(30)).is_some());
    }

    #[test]
    fn blocked_acquire_wakes_on_free() {
        let gate = AdmissionGate::new(1);
        let held = gate.try_acquire().unwrap();
        // Explicit handshake instead of a sleep: under heavy CI load a
        // fixed sleep neither guarantees the waiter parked first nor
        // bounds how late it runs — but correctness needs neither. The
        // waiter signals it is live, then acquires with no deadline;
        // the release below must wake it whether it parked before or
        // after the drop (the wait loop re-checks the counter).
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let g2 = gate.clone();
        let t = std::thread::spawn(move || {
            ready_tx.send(()).expect("main is waiting");
            g2.acquire_timeout(Duration::MAX).is_some()
        });
        ready_rx.recv().expect("waiter started");
        drop(held);
        assert!(t.join().unwrap(), "waiter must wake when the credit frees");
        assert_eq!(gate.available(), 1, "waiter's permit dropped at thread end");
    }

    #[test]
    fn freed_credit_is_handed_to_the_parked_waiter_not_grabbable() {
        let gate = AdmissionGate::new(1);
        let held = gate.try_acquire().unwrap();
        // The waiter keeps what it wins until the barging check below
        // is done: a permit dropped the moment the waiter returned
        // would free the credit again first, and the check could then
        // rightly succeed.
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let g = gate.clone();
        let waiter = std::thread::spawn(move || {
            let permit = g.acquire_timeout(Duration::MAX);
            release_rx.recv().expect("main releases the waiter");
            permit.is_some()
        });
        while gate.parked() < 1 {
            std::thread::yield_now();
        }
        // Freeing the credit earmarks it for the parked waiter: a
        // barging try_acquire must NOT be able to steal it, whether or
        // not the waiter has rescheduled and picked it up yet.
        drop(held);
        assert!(
            gate.try_acquire().is_none(),
            "barging acquire stole a credit earmarked for a parked waiter"
        );
        release_tx.send(()).unwrap();
        assert!(waiter.join().unwrap(), "parked waiter must receive the handoff");
        assert_eq!(gate.available(), 1, "waiter's permit dropped at thread end");
        assert_eq!(gate.handoffs(), 1);
    }

    #[test]
    fn single_waiter_wakeup_under_contention_no_thundering_herd() {
        // Every round parks 8 waiters on a 2-credit gate whose credits
        // the test thread holds, then frees both; each waiter holds
        // what it wins for 1 ms. Under direct handoff each freed
        // credit is earmarked for one waiter and wakes only it, so a
        // woken waiter always finds its credit and spurious wakeups
        // stay near zero (OS phantom wakeups are permitted but rare).
        // A broadcast wakeup without earmarks wakes every parked
        // waiter for each free, and all but one re-park empty-handed.
        const THREADS: usize = 8;
        const ROUNDS: usize = 20;
        let gate = AdmissionGate::new(2);
        for _ in 0..ROUNDS {
            let held = [gate.try_acquire().unwrap(), gate.try_acquire().unwrap()];
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    let g = &gate;
                    s.spawn(move || {
                        let _permit = g.acquire_timeout(Duration::MAX).expect("no deadline");
                        std::thread::sleep(Duration::from_millis(1));
                    });
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                while gate.parked() < THREADS {
                    assert!(Instant::now() < deadline, "waiters never all parked");
                    std::thread::yield_now();
                }
                drop(held);
            });
        }
        assert_eq!(gate.available(), 2, "all credits returned");
        assert_eq!(gate.parked(), 0);
        let total = (THREADS * ROUNDS) as u64;
        let spurious = gate.spurious_wakeups();
        assert!(
            spurious <= total / 10,
            "spurious wakeups not bounded: {spurious} of {total} acquisitions \
             (direct handoff should keep this near zero)"
        );
        assert_eq!(gate.handoffs(), total, "every acquisition parked, so each was a handoff");
    }

    #[test]
    fn timed_out_waiter_releases_or_forwards_its_earmark() {
        let gate = AdmissionGate::new(1);
        let held = gate.try_acquire().unwrap();
        // A waiter that gives up while no credit ever freed leaves no
        // earmark behind...
        assert!(gate.acquire_timeout(Duration::from_millis(20)).is_none());
        assert_eq!(gate.parked(), 0);
        // ...so the freed credit is plain surplus again.
        drop(held);
        assert_eq!(gate.available(), 1);
        let p = gate.try_acquire();
        assert!(p.is_some(), "no stale reservation may linger after a timeout");
        drop(p);
        assert_eq!(gate.available(), 1);
    }

    #[test]
    fn class_indices_are_dense_and_distinct() {
        let mut seen = [false; TxnClass::ALL.len()];
        for c in TxnClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
