//! The streaming scheduler (§3.2.4).
//!
//! H-Store serves transaction requests FIFO. S-Store short-circuits that
//! queue: transactions activated by PE triggers are *fast-tracked* ahead
//! of queued client work, so the TEs of one workflow round run
//! back-to-back in topological order and no queued client work
//! interleaves them. The queue is two lanes:
//!
//! * **fast lane** — triggered work. A committing TE's own successors
//!   are pushed to the *front* (depth-first: the current round finishes
//!   before other triggered work resumes); exchange-delivered
//!   transactions from other partitions join at the *back* (they are
//!   triggered work too, and arrive in batch order — see
//!   [`SchedulerQueue::push_behind_round`]).
//! * **normal lane** — client submissions (OLTP calls, border
//!   ingestion), FIFO.
//!
//! Streaming mode pops the fast lane first. The [`SchedulerMode::Fifo`]
//! ablation funnels everything through the normal lane — tests show it
//! can violate the ordering guarantees that applications like
//! leaderboard maintenance rely on (triggered work waits behind every
//! queued client request).
//!
//! [`SchedulerMode::Fifo`]: crate::config::SchedulerMode::Fifo

use std::collections::VecDeque;

use crate::config::SchedulerMode;
use crate::partition::TxnRequest;

/// The per-partition transaction request queue.
#[derive(Debug)]
pub struct SchedulerQueue {
    mode: SchedulerMode,
    /// Triggered work (Streaming mode only; empty under FIFO).
    fast: VecDeque<TxnRequest>,
    /// Client work (everything, under FIFO).
    normal: VecDeque<TxnRequest>,
}

impl SchedulerQueue {
    /// Empty queue with the given discipline.
    pub fn new(mode: SchedulerMode) -> Self {
        SchedulerQueue { mode, fast: VecDeque::new(), normal: VecDeque::new() }
    }

    /// Enqueues a client-submitted request (OLTP call or stream batch
    /// ingestion) at the back of the normal lane — FIFO among client
    /// work.
    pub fn push_client(&mut self, req: TxnRequest) {
        self.normal.push_back(req);
    }

    /// Enqueues a committing TE's PE-triggered successors, preserving
    /// their given order (the engine passes them in the order the
    /// streams were emitted). Streaming mode fast-tracks them to the
    /// *front* of the fast lane, so they still run in that order; FIFO
    /// mode (ablation) treats them like client work.
    pub fn push_triggered_batch(&mut self, reqs: Vec<TxnRequest>) {
        match self.mode {
            SchedulerMode::Streaming => {
                for req in reqs.into_iter().rev() {
                    self.fast.push_front(req);
                }
            }
            SchedulerMode::Fifo => self.normal.extend(reqs),
        }
    }

    /// Enqueues triggered work that belongs behind the current round:
    /// an exchange-delivered transaction from another partition, or a
    /// watermark-driven window-slide transaction (derived work flagged
    /// by a commit that advanced the partition watermark past a pane
    /// boundary). Streaming mode appends it to the *back* of the fast
    /// lane — ahead of all client work (a slide, and any stats its
    /// triggers emit, belong to the batch whose commit crossed the
    /// boundary), but behind the current round's own successors, and in
    /// arrival order (the exchange merge completes batches in batch
    /// order, so FIFO-within-the-lane preserves batch order). FIFO mode
    /// queues it behind client work like everything else.
    pub fn push_behind_round(&mut self, req: TxnRequest) {
        match self.mode {
            SchedulerMode::Streaming => self.fast.push_back(req),
            SchedulerMode::Fifo => self.normal.push_back(req),
        }
    }

    /// Next request to execute: fast lane first.
    pub fn pop(&mut self) -> Option<TxnRequest> {
        self.fast.pop_front().or_else(|| self.normal.pop_front())
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.fast.len() + self.normal.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.fast.is_empty() && self.normal.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Invocation;
    use sstore_common::ProcId;

    fn req(tag: u32) -> TxnRequest {
        TxnRequest::internal(ProcId(tag), Invocation::Oltp { params: Vec::new() }, None)
    }

    fn order(q: &mut SchedulerQueue) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(r) = q.pop() {
            out.push(r.proc.raw());
        }
        out
    }

    const CLIENT_A: u32 = 1;
    const CLIENT_B: u32 = 2;
    const TRIGGERED: u32 = 10;
    const TRIGGERED_2: u32 = 11;
    const EXCHANGE_B1: u32 = 20;
    const EXCHANGE_B2: u32 = 21;

    #[test]
    fn streaming_fast_tracks_triggered_work() {
        let mut q = SchedulerQueue::new(SchedulerMode::Streaming);
        q.push_client(req(CLIENT_A));
        q.push_client(req(CLIENT_B));
        q.push_triggered_batch(vec![req(TRIGGERED)]);
        assert_eq!(order(&mut q), vec![TRIGGERED, CLIENT_A, CLIENT_B]);
    }

    #[test]
    fn triggered_batch_preserves_internal_order() {
        let mut q = SchedulerQueue::new(SchedulerMode::Streaming);
        q.push_client(req(CLIENT_A));
        q.push_triggered_batch(vec![req(TRIGGERED), req(TRIGGERED_2)]);
        assert_eq!(order(&mut q), vec![TRIGGERED, TRIGGERED_2, CLIENT_A]);
    }

    #[test]
    fn fifo_mode_does_not_fast_track() {
        let mut q = SchedulerQueue::new(SchedulerMode::Fifo);
        q.push_client(req(CLIENT_A));
        q.push_triggered_batch(vec![req(TRIGGERED)]);
        assert_eq!(order(&mut q), vec![CLIENT_A, TRIGGERED]);
    }

    #[test]
    fn exchange_work_outranks_clients_but_keeps_arrival_order() {
        let mut q = SchedulerQueue::new(SchedulerMode::Streaming);
        q.push_client(req(CLIENT_A));
        q.push_behind_round(req(EXCHANGE_B1));
        q.push_behind_round(req(EXCHANGE_B2));
        // Exchange arrivals run before client work, FIFO among
        // themselves (arrival order == batch order).
        assert_eq!(order(&mut q), vec![EXCHANGE_B1, EXCHANGE_B2, CLIENT_A]);
    }

    #[test]
    fn current_round_successors_preempt_queued_exchange_work() {
        let mut q = SchedulerQueue::new(SchedulerMode::Streaming);
        q.push_behind_round(req(EXCHANGE_B2));
        // A TE just committed and triggered its successor: it must run
        // next, before exchange work queued behind the current round.
        q.push_triggered_batch(vec![req(TRIGGERED)]);
        assert_eq!(order(&mut q), vec![TRIGGERED, EXCHANGE_B2]);
    }

    const SLIDE: u32 = 30;

    #[test]
    fn slide_work_rides_the_fast_lane_in_batch_order() {
        let mut q = SchedulerQueue::new(SchedulerMode::Streaming);
        q.push_client(req(CLIENT_A));
        q.push_behind_round(req(EXCHANGE_B1));
        q.push_behind_round(req(SLIDE));
        // A commit's own successor still preempts queued slide work.
        q.push_triggered_batch(vec![req(TRIGGERED)]);
        assert_eq!(order(&mut q), vec![TRIGGERED, EXCHANGE_B1, SLIDE, CLIENT_A]);
        // FIFO ablation: slides queue behind client work.
        let mut q = SchedulerQueue::new(SchedulerMode::Fifo);
        q.push_client(req(CLIENT_A));
        q.push_behind_round(req(SLIDE));
        assert_eq!(order(&mut q), vec![CLIENT_A, SLIDE]);
    }

    #[test]
    fn fifo_mode_buries_exchange_work_behind_clients() {
        let mut q = SchedulerQueue::new(SchedulerMode::Fifo);
        q.push_client(req(CLIENT_A));
        q.push_behind_round(req(EXCHANGE_B1));
        q.push_client(req(CLIENT_B));
        assert_eq!(order(&mut q), vec![CLIENT_A, EXCHANGE_B1, CLIENT_B]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = SchedulerQueue::new(SchedulerMode::Streaming);
        assert!(q.is_empty());
        q.push_client(req(CLIENT_A));
        q.push_behind_round(req(EXCHANGE_B1));
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }
}
