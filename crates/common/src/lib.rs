//! Shared kernel for the S-Store reproduction.
//!
//! This crate holds the vocabulary types used by every layer of the
//! system: dynamically-typed [`Value`]s, [`Schema`] definitions, tuple
//! representations, identifier newtypes ([`ids`]), the error type, and a
//! compact self-describing binary codec ([`codec`]) used by checkpoints
//! and the command log.
//!
//! Nothing in this crate knows about tables, transactions, or streams —
//! it is the dependency root of the workspace.

pub mod codec;
pub mod error;
pub mod hash;
pub mod ids;
pub mod schema;
pub mod tuple;
pub mod value;

pub use error::{Error, Result};
pub use ids::{BatchId, Lsn, PartitionId, ProcId, RowId, TableId, Timestamp, TxnId};
pub use schema::{Column, DataType, Schema};
pub use tuple::Tuple;
pub use value::Value;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, clearing poison: a lock whose holder panicked stays
/// usable. This is the rule for every mutex in the engine and the
/// server: a panic is reported where it happened, and does not turn
/// into a second one in whoever locks next.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_lock_whose_holder_panicked_stays_usable() {
        let m = Mutex::new(1);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut g = lock(&m);
                *g += 1;
                panic!("holder panics with the lock held");
            })
            .join()
            .is_err()
        });
        assert!(panicked && m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 3);
    }

    /// The engine's round trips — a request on one `mpsc` channel, the
    /// answer on another — run beside senders that contend for a
    /// one-slot channel and for a mutex taken through `lock`. Every
    /// thread parked on either primitive must be woken: a lost wakeup
    /// shows as a stall past the time bound.
    #[test]
    fn parked_threads_always_wake() {
        use std::sync::mpsc::{channel, sync_channel};
        let (done_tx, done_rx) = channel();
        let exchange = std::thread::spawn(move || {
            let (ping_tx, ping_rx) = channel::<u32>();
            let (pong_tx, pong_rx) = channel::<u32>();
            let echo = std::thread::spawn(move || {
                while let Ok(v) = ping_rx.recv() {
                    pong_tx.send(v).unwrap();
                }
            });
            let sent = std::sync::Arc::new(Mutex::new(0u32));
            let (many_tx, many_rx) = sync_channel::<u32>(1);
            let senders: Vec<_> = (0..3)
                .map(|_| {
                    let (tx, sent) = (many_tx.clone(), sent.clone());
                    std::thread::spawn(move || {
                        for v in 0..20_000 {
                            *lock(&sent) += 1;
                            tx.send(v).unwrap();
                        }
                    })
                })
                .collect();
            drop(many_tx);
            let drain = std::thread::spawn(move || many_rx.iter().count());
            for v in 0..50_000 {
                ping_tx.send(v).unwrap();
                assert_eq!(pong_rx.recv(), Ok(v));
            }
            drop(ping_tx);
            echo.join().unwrap();
            senders.into_iter().for_each(|t| t.join().unwrap());
            let received = drain.join().unwrap();
            done_tx.send((received, *lock(&sent))).unwrap();
        });
        let counts = done_rx.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(counts, Ok((60_000, 60_000)), "a parked thread was never woken");
        exchange.join().unwrap();
    }
}
