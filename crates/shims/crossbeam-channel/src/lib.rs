//! Offline stand-in for `crossbeam-channel`.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of the crossbeam-channel API the workspace uses — `bounded`
//! / `unbounded` MPMC channels with blocking `send`/`recv`, `try_recv`,
//! and disconnection semantics — implemented over a `Mutex` + `Condvar`
//! queue. Performance is adequate for the per-batch control-plane
//! messaging this workspace does (the hot path inside a partition never
//! touches a channel in `BoundaryMode::Inline`).

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Error returned by [`Sender::send`] when all receivers are gone.
/// Carries the unsent message, like the real crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// all senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel is currently empty (senders still connected).
    Empty,
    /// Channel is empty and all senders dropped.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "receiving on an empty channel"),
            TryRecvError::Disconnected => {
                write!(f, "receiving on an empty and disconnected channel")
            }
        }
    }
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers parked on `not_empty` and senders parked on
    /// `not_full`: a notify is a syscall, made only when one waits.
    parked_receivers: usize,
    parked_senders: usize,
}

struct Chan<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    /// `None` = unbounded.
    cap: Option<usize>,
}

/// Sending half of a channel. Clonable; the channel disconnects for
/// receivers when the last clone drops.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Receiving half of a channel. Clonable; the channel disconnects for
/// senders when the last clone drops.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Creates a channel that holds at most `cap` queued messages; `send`
/// blocks while full. A capacity of 0 (crossbeam's rendezvous channel)
/// is treated as 1, which preserves the blocking hand-off behavior the
/// callers in this workspace rely on.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    make(Some(cap.max(1)))
}

/// Creates a channel with an unbounded queue.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    make(None)
}

fn make<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

fn lock<T>(chan: &Chan<T>) -> std::sync::MutexGuard<'_, Inner<T>> {
    // A panicking holder cannot leave the queue structurally broken, so
    // poison is safe to clear.
    chan.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Parks on `cond`, counted in the `parked` count `count` selects
/// while parked.
fn park<'a, T>(
    cond: &Condvar,
    mut inner: MutexGuard<'a, Inner<T>>,
    count: fn(&mut Inner<T>) -> &mut usize,
) -> MutexGuard<'a, Inner<T>> {
    *count(&mut inner) += 1;
    let mut inner = cond.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
    *count(&mut inner) -= 1;
    inner
}

/// Releases the lock, then wakes one thread parked on `cond` if
/// `parked` counts one.
fn release_and_wake<T>(inner: MutexGuard<'_, Inner<T>>, cond: &Condvar, parked: fn(&Inner<T>) -> usize) {
    let wake = parked(&inner) > 0;
    drop(inner);
    if wake {
        cond.notify_one();
    }
}

impl<T> Sender<T> {
    /// Blocks until the message is queued (bounded channels only block
    /// while full). Fails, returning the message, once every receiver
    /// has been dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut inner = lock(&self.chan);
        loop {
            if inner.receivers == 0 {
                return Err(SendError(msg));
            }
            match self.chan.cap {
                Some(cap) if inner.queue.len() >= cap => {
                    inner = park(&self.chan.not_full, inner, |i| &mut i.parked_senders);
                }
                _ => break,
            }
        }
        inner.queue.push_back(msg);
        release_and_wake(inner, &self.chan.not_empty, |i| i.parked_receivers);
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.chan).senders += 1;
        Sender { chan: self.chan.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.chan);
        inner.senders -= 1;
        let disconnect = inner.senders == 0;
        drop(inner);
        if disconnect {
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives. Fails once the channel is empty
    /// and every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = lock(&self.chan);
        loop {
            if let Some(v) = inner.queue.pop_front() {
                release_and_wake(inner, &self.chan.not_full, |i| i.parked_senders);
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = park(&self.chan.not_empty, inner, |i| &mut i.parked_receivers);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = lock(&self.chan);
        if let Some(v) = inner.queue.pop_front() {
            release_and_wake(inner, &self.chan.not_full, |i| i.parked_senders);
            return Ok(v);
        }
        if inner.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// True when no message is currently queued.
    pub fn is_empty(&self) -> bool {
        lock(&self.chan).queue.is_empty()
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        lock(&self.chan).queue.len()
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        lock(&self.chan).receivers += 1;
        Receiver { chan: self.chan.clone() }
    }
}

impl<T> Drop for Receiver<T> {
    /// The last receiver to go discards every queued message, as the
    /// real crate does: nothing can receive them any more, and a message
    /// that owns a reply sender must drop it so its waiter wakes.
    fn drop(&mut self) {
        let mut inner = lock(&self.chan);
        inner.receivers -= 1;
        if inner.receivers > 0 {
            return;
        }
        let discarded = std::mem::take(&mut inner.queue);
        drop(inner);
        drop(discarded);
        self.chan.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.is_empty());
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = unbounded::<i32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = bounded::<i32>(1);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_receiver_drops() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn last_receiver_drop_discards_queued_messages() {
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = bounded::<()>(1);
        tx.send(reply_tx).unwrap();
        drop(rx);
        // The queued sender went with the receiver: its waiter wakes.
        assert_eq!(reply_rx.recv(), Err(RecvError));
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).map_err(|_| ()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap().unwrap();
    }

    /// Ping-pong through two one-slot channels, beside three senders
    /// sharing a third: nearly every message finds its peer parked, so
    /// one skipped wakeup hangs the exchange, and the bound fails it.
    #[test]
    fn parked_threads_always_wake() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let exchange = std::thread::spawn(move || {
            let (ping_tx, ping_rx) = bounded::<u32>(1);
            let (pong_tx, pong_rx) = bounded::<u32>(1);
            let echo = std::thread::spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    pong_tx.send(v).unwrap();
                }
            });
            let (many_tx, many_rx) = bounded::<u32>(1);
            let senders: Vec<_> = (0..3)
                .map(|_| {
                    let tx = many_tx.clone();
                    std::thread::spawn(move || (0..20_000).for_each(|v| tx.send(v).unwrap()))
                })
                .collect();
            drop(many_tx);
            let drain = std::thread::spawn(move || std::iter::from_fn(|| many_rx.recv().ok()).count());
            for v in 0..50_000 {
                ping_tx.send(v).unwrap();
                assert_eq!(pong_rx.recv(), Ok(v));
            }
            drop(ping_tx);
            echo.join().unwrap();
            senders.into_iter().for_each(|t| t.join().unwrap());
            done_tx.send(drain.join().unwrap()).unwrap();
        });
        let received = done_rx.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(received, Ok(60_000), "a parked thread was never woken");
        exchange.join().unwrap();
    }

    #[test]
    fn cross_thread_round_trip() {
        let (req_tx, req_rx) = bounded::<i32>(1);
        let (resp_tx, resp_rx) = bounded::<i32>(1);
        let t = std::thread::spawn(move || {
            while let Ok(v) = req_rx.recv() {
                if resp_tx.send(v * 2).is_err() {
                    break;
                }
            }
        });
        for i in 0..100 {
            req_tx.send(i).unwrap();
            assert_eq!(resp_rx.recv(), Ok(i * 2));
        }
        drop(req_tx);
        t.join().unwrap();
    }
}
