//! The partition runtime: one thread that serially executes transaction
//! executions for one partition (H-Store's single-sited execution model,
//! §3.1), extended with S-Store's PE triggers and streaming scheduler.
//!
//! The thread owns the scheduler queue, the stored-procedure bodies, the
//! command log, and an [`EeHandle`] to its execution engine. Clients and
//! the stream-injection module talk to it over a channel — that channel
//! is "the network" whose round trips H-Store must pay once per workflow
//! step (§4.2) and S-Store avoids via PE triggers.
//!
//! Requests address procedures and streams by interned [`ProcId`] /
//! [`TableId`] (see [`crate::names`]): the execution loop performs no
//! string hashing or lower-casing, and PE-trigger dispatch is an array
//! walk.
//!
//! The channel carries two kinds of traffic. The *data plane* —
//! [`PartitionMsg::Submit`] and [`PartitionMsg::Exchange`], one or more
//! per transaction — is typed and unboxed. Everything else (checkpoint,
//! restore, log truncation and flush, drain, trigger switching,
//! dangling-batch re-fire, ad-hoc reads) is the *control plane*: a
//! [`Job`] closure the thread runs between transactions against its
//! [`PartitionRuntime`], which sends its own answer back. Adding a
//! control operation is a runtime method and a call to
//! [`crate::engine::Engine`]'s one helper, not a message variant.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{Receiver, Sender, TryRecvError};
use sstore_common::codec::Encoder;
use sstore_common::hash::FxHashMap;
use sstore_common::{BatchId, Error, Lsn, ProcId, Result, TableId, Tuple, Value};
use sstore_sql::{BoundStatement, QueryResult};

use crate::admission::{AdmissionPermit, TxnClass};
use crate::app::App;
use crate::boundary::EeHandle;
use crate::checkpoint::{self, CheckpointFile, CheckpointKind};
use crate::config::{EngineConfig, EngineMode};
use crate::ee::ExecutionEngine;
use crate::faults::CrashPoint;
use crate::log::{CommandLog, LogKind};
use crate::metrics::EngineMetrics;
use crate::names::AppIds;
use crate::procedure::ProcCtx;
use crate::scheduler::SchedulerQueue;
use crate::workflow::TraceEvent;

/// Sentinel [`ProcId`] for ad-hoc SQL requests, which have no stored
/// procedure. [`Invocation::AdHoc`] is dispatched before procedure
/// resolution, so this id is never looked up.
pub const ADHOC_PROC: ProcId = ProcId(u32::MAX);

/// Log/trace display name for ad-hoc SQL transactions. Starts with a
/// character that cannot begin a declared procedure name, so it can
/// never collide with (or shadow) an installed procedure.
pub const ADHOC_NAME: &str = "@adhoc";

/// How a transaction execution is invoked.
#[derive(Debug, Clone)]
pub enum Invocation {
    /// Client OLTP call (pull).
    Oltp {
        /// Invocation parameters.
        params: Vec<Value>,
    },
    /// Border streaming transaction: an externally ingested batch (push).
    Border {
        /// Input stream.
        stream: TableId,
        /// The atomic batch.
        rows: Vec<Tuple>,
    },
    /// Interior streaming transaction: consumes a batch a predecessor
    /// committed onto `stream`.
    Interior {
        /// Input stream.
        stream: TableId,
    },
    /// Exchange-delivered streaming transaction: consumes a merged
    /// sub-batch shipped from other partitions' exchange sends. The
    /// rows arrive with the invocation (they were extracted from the
    /// sending partitions' stream tables), so nothing is consumed from
    /// this partition's stream state.
    Exchange {
        /// The exchange stream the batch travelled on.
        stream: TableId,
        /// Merged rows, in source-partition order.
        rows: Vec<Tuple>,
    },
    /// Watermark-driven slide transaction for a time window: a commit
    /// advanced the partition watermark past a pane boundary, and this
    /// derived transaction applies the pending slides (activations,
    /// expirations, on-slide EE triggers). Never logged — recovery
    /// re-derives it by replaying the commits that advanced the
    /// watermark.
    WindowSlide {
        /// The time window to slide.
        window: TableId,
    },
    /// Ad-hoc SQL transaction ([`crate::engine::Engine::query_at`]):
    /// one statement planned at the engine edge against the shared
    /// catalog layout, executed like an OLTP call — admitted, logged
    /// (it replays from the SQL text), and undo-able. Uses the
    /// [`ADHOC_PROC`] sentinel instead of a stored procedure.
    AdHoc {
        /// Original SQL text (what the command log stores).
        sql: String,
        /// The edge-planned statement (table ids are install-order
        /// deterministic, so the plan is valid on every partition).
        stmt: Arc<BoundStatement>,
        /// Bound parameters.
        params: Vec<Value>,
    },
}

impl Invocation {
    /// The transaction class of this invocation, for latency
    /// accounting and admission exemption.
    pub fn class(&self) -> TxnClass {
        match self {
            Invocation::Oltp { .. } | Invocation::AdHoc { .. } => TxnClass::Oltp,
            Invocation::Border { .. } => TxnClass::Border,
            Invocation::Interior { .. } => TxnClass::Interior,
            Invocation::Exchange { .. } => TxnClass::ExchangeMerge,
            Invocation::WindowSlide { .. } => TxnClass::WindowSlide,
        }
    }
}

/// A queued transaction request.
#[derive(Debug)]
pub struct TxnRequest {
    /// Stored procedure (or nested transaction) to run.
    pub proc: ProcId,
    /// Invocation payload.
    pub invocation: Invocation,
    /// Batch id (streaming invocations; assigned at ingestion and
    /// propagated through the workflow).
    pub batch: Option<BatchId>,
    /// Reply channel for synchronous callers.
    pub reply: Option<Sender<Result<CallOutcome>>>,
    /// True during log replay: suppresses re-logging.
    pub replay: bool,
    /// Transaction class, for per-class latency accounting (derived
    /// from the invocation at construction).
    pub class: TxnClass,
    /// Monotonic timestamp of when this request entered the system:
    /// admission for client-origin work, enqueue for engine-internal
    /// work. Queue wait = dispatch − admitted; end-to-end = commit −
    /// admitted.
    pub admitted_at: Instant,
    /// Admission credit held by client-origin requests; `None` for
    /// internal traffic (PE triggers, exchange deliveries, window
    /// slides, recovery replay), which is exempt. The credit returns
    /// to its gate when the permit drops — at commit, abort, or any
    /// teardown path.
    pub permit: Option<AdmissionPermit>,
}

impl TxnRequest {
    /// An engine-internal request: PE-triggered, exchange-delivered,
    /// slide, or recovery work — exempt from admission (no permit).
    pub fn internal(proc: ProcId, invocation: Invocation, batch: Option<BatchId>) -> Self {
        let class = invocation.class();
        TxnRequest {
            proc,
            invocation,
            batch,
            reply: None,
            replay: false,
            class,
            admitted_at: Instant::now(),
            permit: None,
        }
    }

    /// Attaches a reply channel for a synchronous caller.
    pub fn with_reply(mut self, reply: Sender<Result<CallOutcome>>) -> Self {
        self.reply = Some(reply);
        self
    }

    /// Marks the request as log replay (suppresses re-logging).
    pub fn replayed(mut self) -> Self {
        self.replay = true;
        self
    }

    /// Attaches an admission permit (client-origin requests only).
    pub fn admitted(mut self, permit: AdmissionPermit) -> Self {
        self.permit = Some(permit);
        self
    }
}

/// A downstream activation H-Store-mode clients must drive themselves.
/// Carries resolved names — this is the client-facing slow path, and
/// clients speak names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingActivation {
    /// Downstream procedure.
    pub proc: String,
    /// Stream carrying the batch.
    pub stream: String,
    /// The batch to consume.
    pub batch: BatchId,
}

/// What a synchronous caller gets back from a committed TE.
#[derive(Debug, Default)]
pub struct CallOutcome {
    /// The result the procedure body set via [`ProcCtx::set_result`].
    pub result: QueryResult,
    /// Downstream activations (non-empty only when PE triggers are off:
    /// H-Store mode or recovery replay).
    pub pending: Vec<PendingActivation>,
}

/// A control-plane operation: run on the partition thread between
/// transactions; it answers through whatever sender it captured.
pub(crate) type Job = Box<dyn FnOnce(&mut PartitionRuntime) + Send>;

/// Messages to a partition thread.
pub(crate) enum PartitionMsg {
    /// Submit a transaction request (client call or ingestion).
    Submit(TxnRequest),
    /// One partition's sub-batch of an exchange hop (§4.7 meets the
    /// Risingwave-style exchange operator): `source` committed `batch`
    /// onto `stream` and these are the rows whose partition key hashes
    /// here. Every source ships exactly one sub-batch (possibly empty)
    /// per batch; the receiver merges all of them before triggering the
    /// downstream transaction.
    Exchange {
        /// Exchange stream.
        stream: TableId,
        /// Batch id (assigned at ingestion, propagated through the
        /// workflow).
        batch: BatchId,
        /// Sending partition.
        source: usize,
        /// Rows routed to this partition.
        rows: Vec<Tuple>,
    },
    /// A control-plane operation ([`Job`]).
    Run(Job),
    /// Stop the partition thread. The reply carries the result of
    /// closing the command log: a failed final flush/fsync must NOT
    /// read as a clean shutdown (it silently loses the log tail).
    Shutdown(Sender<Result<()>>),
}

/// The error for a partition whose thread is gone: it refused a
/// message, or dropped a reply it owed.
pub(crate) fn partition_down(partition: usize) -> Error {
    Error::InvalidState(format!("partition {partition} is down"))
}

/// Handle the engine keeps per partition.
pub(crate) struct PartitionHandle {
    id: usize,
    /// Message channel into the partition thread.
    pub(crate) tx: Sender<PartitionMsg>,
    join: Option<JoinHandle<()>>,
}

impl PartitionHandle {
    /// Wraps a partition's sender and thread handle.
    pub(crate) fn new(id: usize, tx: Sender<PartitionMsg>, join: JoinHandle<()>) -> Self {
        PartitionHandle { id, tx, join: Some(join) }
    }

    /// Sends shutdown, joins the thread, and propagates the log-close
    /// result — a failed final flush means the log tail was lost and
    /// must not masquerade as a clean shutdown. Neither may a thread
    /// that died before it could answer: that is an error naming the
    /// partition (and the panic, if it left a message).
    pub(crate) fn close(&mut self) -> Result<()> {
        let (tx, rx) = crossbeam_channel::bounded(1);
        let closed = self.tx.send(PartitionMsg::Shutdown(tx)).ok().and_then(|()| rx.recv().ok());
        let joined = self.join.take().map_or(Ok(()), JoinHandle::join);
        match (closed, joined) {
            (Some(out), Ok(())) => out,
            (_, Err(panic)) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("no message");
                Err(Error::InvalidState(format!(
                    "partition {} is down: its thread panicked ({msg})",
                    self.id
                )))
            }
            (None, Ok(())) => Err(partition_down(self.id)),
        }
    }

    /// Sends shutdown and joins the thread, ignoring log-close errors
    /// (best-effort teardown; prefer [`PartitionHandle::close`]).
    pub fn shutdown(&mut self) {
        let _ = self.close();
    }
}

impl Drop for PartitionHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

pub(crate) struct PartitionRuntime {
    partition_id: usize,
    config: EngineConfig,
    ee: EeHandle,
    ids: Arc<AppIds>,
    /// Procedure bodies, indexed by [`ProcId`].
    bodies: Vec<Option<crate::app::ProcBody>>,
    queue: SchedulerQueue,
    rx: Receiver<PartitionMsg>,
    /// Senders to every partition (including self), for exchange hops.
    peers: Vec<Sender<PartitionMsg>>,
    /// In-progress exchange merges, keyed by (stream, batch): one slot
    /// per source partition, `None` until its sub-batch arrives.
    exchange_buf: FxHashMap<(TableId, BatchId), Vec<Option<Vec<Tuple>>>>,
    /// Highest exchange batch applied per stream (by table id).
    /// Dedups recovery re-sends; persisted in checkpoints.
    exchange_applied: Vec<u64>,
    /// True while a slide transaction for this window (by table id) is
    /// queued but not yet started. `advance_watermark` reports
    /// *pending state*, not an edge, so every commit ahead of a queued
    /// slide would re-flag it — this dedups the enqueue. Cleared when
    /// the slide transaction starts (even if it then aborts: the next
    /// commit legitimately re-schedules the retry). Not persisted —
    /// recovery re-derives slides from replayed commits.
    slide_inflight: Vec<bool>,
    log: Option<CommandLog>,
    metrics: Arc<EngineMetrics>,
    exchange_sends: Arc<ExchangeSends>,
    triggers_enabled: bool,
    pending_drains: Vec<Sender<()>>,
}

/// Everything [`spawn_partition`] needs that is specific to one
/// partition (the engine builds all channels up front so every runtime
/// can hold senders to its peers).
pub(crate) struct PartitionSeed {
    /// This partition's id.
    pub id: usize,
    /// This partition's message receiver.
    pub rx: Receiver<PartitionMsg>,
    /// Senders to every partition, including self (exchange hops).
    pub peers: Vec<Sender<PartitionMsg>>,
    /// PE triggers start enabled?
    pub triggers_enabled: bool,
    /// Resume the command log after this LSN (recovery).
    pub resume_lsn: Option<Lsn>,
    /// Checkpoint-restored exchange watermarks, indexed by [`TableId`].
    pub exchange_applied: Vec<u64>,
    /// The engine-wide exchange sends in flight.
    pub exchange_sends: Arc<ExchangeSends>,
}

/// Exchange sub-batch sends, shared by the engine and every partition:
/// a sender bumps `started` before the channel send and `done` after,
/// so `started == done` tells [`crate::engine::Engine::drain`] that no
/// send is in flight. Synchronisation, not an observation: nothing
/// resets it, and every access is SeqCst (see `drain`).
#[derive(Debug, Default)]
pub(crate) struct ExchangeSends {
    pub started: AtomicU64,
    pub done: AtomicU64,
}

/// Runs one operation on a partition's command log and adds the
/// flushes it performed to the engine-wide `log_flushes`: every
/// partition adds its own, so the cell holds their sum.
#[inline]
fn count_flushes<R>(
    metrics: &EngineMetrics,
    log: &mut CommandLog,
    op: impl FnOnce(&mut CommandLog) -> R,
) -> R {
    let before = log.flushes();
    let out = op(log);
    let flushed = log.flushes() - before;
    if flushed > 0 {
        metrics.log_flushes.fetch_add(flushed, std::sync::atomic::Ordering::Relaxed);
    }
    out
}

/// Spawns a partition thread.
pub(crate) fn spawn_partition(
    seed: PartitionSeed,
    config: EngineConfig,
    app: &App,
    ids: Arc<AppIds>,
    ee: EeHandle,
    metrics: Arc<EngineMetrics>,
) -> Result<JoinHandle<()>> {
    let bodies = app.procs.iter().map(|p| p.body.clone()).collect();

    let log = if config.logging.enabled {
        let path = config.log_path(seed.id);
        let vfs = config.vfs.clone();
        Some(match seed.resume_lsn {
            Some(lsn) => CommandLog::resume_on(vfs, path, config.logging.clone(), lsn)?,
            None => CommandLog::create_on(vfs, path, config.logging.clone())?,
        })
    } else {
        None
    };

    let slide_inflight = vec![false; ids.table_count()];

    let queue = SchedulerQueue::new(config.scheduler);
    let runtime = PartitionRuntime {
        partition_id: seed.id,
        config,
        ee,
        ids,
        bodies,
        queue,
        rx: seed.rx,
        peers: seed.peers,
        exchange_buf: FxHashMap::default(),
        exchange_applied: seed.exchange_applied,
        slide_inflight,
        log,
        metrics,
        exchange_sends: seed.exchange_sends,
        triggers_enabled: seed.triggers_enabled,
        pending_drains: Vec::new(),
    };
    let id = seed.id;
    std::thread::Builder::new()
        .name(format!("sstore-pe-{id}"))
        .spawn(move || runtime.run())
        .map_err(|e| Error::Internal(format!("spawning partition thread: {e}")))
}

impl PartitionRuntime {
    fn run(mut self) {
        loop {
            // Ingest all control-plane messages without blocking; block
            // only when there is nothing queued to execute.
            loop {
                match self.rx.try_recv() {
                    Ok(msg) => {
                        if self.handle_msg(msg) {
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            if let Some(req) = self.queue.pop() {
                self.execute_te(req);
                continue;
            }
            // Idle: answer drains, then block for the next message.
            self.flush_drains();
            match self.rx.recv() {
                Ok(msg) => {
                    if self.handle_msg(msg) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    }

    fn flush_drains(&mut self) {
        if self.queue.is_empty() && self.rx.is_empty() {
            for d in self.pending_drains.drain(..) {
                let _ = d.send(());
            }
        }
    }

    /// Returns true on shutdown.
    fn handle_msg(&mut self, msg: PartitionMsg) -> bool {
        match msg {
            PartitionMsg::Submit(req) => self.queue.push_client(req),
            PartitionMsg::Exchange { stream, batch, source, rows } => {
                self.handle_exchange(stream, batch, source, rows);
            }
            PartitionMsg::Run(job) => job(self),
            PartitionMsg::Shutdown(reply) => {
                // Close (not just flush) the log so a failed final
                // flush/fsync surfaces to the caller instead of
                // silently losing the tail.
                let closed = match &mut self.log {
                    Some(log) => count_flushes(&self.metrics, log, CommandLog::close),
                    None => Ok(()),
                };
                self.ee.shutdown();
                let _ = reply.send(closed);
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Control-plane operations (each runs as a `Job`)
    // ------------------------------------------------------------------

    /// A signal that fires once the queue is empty and no work is in
    /// flight — at once, if that is already so.
    pub(crate) fn drain(&mut self) -> Receiver<()> {
        let (tx, rx) = crossbeam_channel::bounded(1);
        self.pending_drains.push(tx);
        self.flush_drains();
        rx
    }

    /// Enables or disables PE triggers (recovery protocol).
    pub(crate) fn set_triggers(&mut self, enabled: bool) {
        self.triggers_enabled = enabled;
    }

    /// Ad-hoc read-only query, planned at the engine edge.
    pub(crate) fn query(&mut self, stmt: Arc<BoundStatement>, params: Vec<Value>) -> Result<QueryResult> {
        self.ee.run(move |ee| ee.query_bound(&stmt, &params))
    }

    /// Restores EE state from an epoch chain — base image + deltas,
    /// oldest first (recovery bootstrap) — and returns the wall-clock
    /// milliseconds it took.
    pub(crate) fn restore(&mut self, chain: Vec<Vec<u8>>) -> Result<u64> {
        let start = Instant::now();
        self.ee.run(move |ee| ee.restore_chain(&chain))?;
        Ok(start.elapsed().as_millis() as u64)
    }

    /// Flushes the command log (end of benchmark phase).
    pub(crate) fn flush_log(&mut self) -> Result<()> {
        let Some(log) = &mut self.log else { return Ok(()) };
        count_flushes(&self.metrics, log, CommandLog::flush)
    }

    /// Takes a checkpoint (`full` = base image, else a delta of state
    /// changed since the last image) and encodes this partition's whole
    /// file for epoch `epoch` in one buffer: the head — the last LSN the
    /// image covers, `batch_counters` and the exchange watermarks (by
    /// stream name) — then the EE image, written in place. Returns the
    /// file's bytes and that LSN.
    pub(crate) fn checkpoint(
        &mut self,
        epoch: u64,
        full: bool,
        batch_counters: HashMap<String, u64>,
    ) -> Result<(Vec<u8>, Lsn)> {
        let last_lsn = match &mut self.log {
            Some(log) => {
                // Flush + unconditional fsync: the image about to be
                // taken must never cover a transaction whose log
                // record could still vanish in a crash (checkpoints
                // must not outrun their log).
                count_flushes(&self.metrics, log, CommandLog::sync_for_checkpoint)?;
                Lsn(log.next_lsn().raw().saturating_sub(1))
            }
            None => Lsn(0),
        };
        let exchange_floor = self
            .exchange_applied
            .iter()
            .enumerate()
            .filter(|(_, v)| **v > 0)
            .map(|(i, v)| (self.ids.table_name(TableId(i as u32)).to_string(), *v))
            .collect();
        let head = CheckpointFile {
            epoch,
            kind: if full { CheckpointKind::Base } else { CheckpointKind::Delta },
            last_lsn,
            batch_counters,
            exchange_floor,
            ee_image: Vec::new(),
        };
        let mut e = Encoder::with_capacity(4096);
        checkpoint::put_head(&mut e, &head);
        let e = self.ee.run(move |ee| {
            e.put_bytes_with(|e| ee.write_image(e, full))?;
            Ok(e)
        })?;
        Ok((e.finish(), last_lsn))
    }

    /// Deletes log segments wholly covered by the durable checkpoint
    /// floor `covered` (GC); returns how many were unlinked plus the
    /// surviving chain's shape (segment count, total bytes). Each
    /// unlink is preceded by the `pre-segment-unlink` crash point: a
    /// crash between unlinks leaves a chain whose oldest surviving
    /// segment still carries its base LSN, so recovery folds the
    /// missing history through the checkpoint it was truncated against.
    pub(crate) fn truncate_log(&mut self, covered: Lsn) -> Result<(usize, usize, u64)> {
        let Some(log) = &mut self.log else { return Ok((0, 0, 0)) };
        let mut deleted = 0;
        for (seq, path) in log.gc_candidates(covered) {
            self.config.faults.hit(CrashPoint::PreSegmentUnlink, Some(self.partition_id))?;
            self.config.vfs.remove_file(&path)?;
            log.drop_segment(seq);
            deleted += 1;
        }
        Ok((deleted, log.segment_count(), log.total_bytes()))
    }

    // ------------------------------------------------------------------
    // Exchange: cross-partition workflow edges
    // ------------------------------------------------------------------

    /// Collects one source's sub-batch of an exchange hop; when all
    /// sources have delivered, merges them (source order) and enqueues
    /// the downstream transaction(s). Sub-batches from one source
    /// arrive in batch order (the source commits batches in order and
    /// the channel is FIFO), so merges complete in batch order per
    /// stream — the scheduler's exchange lane preserves that.
    fn handle_exchange(&mut self, stream: TableId, batch: BatchId, source: usize, rows: Vec<Tuple>) {
        let n = self.peers.len();
        let parts = self.exchange_buf.entry((stream, batch)).or_insert_with(|| vec![None; n]);
        parts[source] = Some(rows);
        if parts.iter().any(Option::is_none) {
            return;
        }
        let parts = self.exchange_buf.remove(&(stream, batch)).expect("entry just filled");
        // Recovery can legitimately re-ship a batch this partition
        // already applied (a dangling upstream batch re-fired after
        // replay); the watermark makes delivery exactly-once.
        if batch.raw() <= self.exchange_applied[stream.index()] {
            EngineMetrics::bump(&self.metrics.exchange_dups_dropped);
            return;
        }
        let merged: Vec<Tuple> = parts.into_iter().flatten().flatten().collect();
        EngineMetrics::bump(&self.metrics.exchange_batches);
        for &target in self.ids.pe_targets_of(stream) {
            self.queue.push_behind_round(TxnRequest::internal(
                target,
                Invocation::Exchange { stream, rows: merged.clone() },
                Some(batch),
            ));
        }
    }

    /// True when commits on this partition should ship exchange batches
    /// to peers (instead of treating exchange streams as local PE
    /// streams): multi-partition S-Store with triggers on. Recovery
    /// replay (triggers off) leaves exchange batches dangling on their
    /// producing partition; they are re-shipped by `fire_dangling`.
    fn exchange_active(&self) -> bool {
        self.peers.len() > 1
            && self.config.mode == EngineMode::SStore
            && self.triggers_enabled
    }

    /// Extracts a committed batch from a local exchange stream and
    /// ships one sub-batch (possibly empty) to every partition, rows
    /// routed by partition-key hash.
    fn exchange_send(&mut self, stream: TableId, batch: BatchId) -> Result<()> {
        let col = self
            .ids
            .table(stream)
            .stream
            .as_ref()
            .and_then(|s| s.partition_col)
            .ok_or_else(|| {
                Error::Internal(format!(
                    "exchange stream {} lost its partition column",
                    self.ids.table_name(stream)
                ))
            })?;
        // Pull the rows out of the local stream table in a mini
        // transaction of their own (the producing TE has already
        // committed; the extraction must be atomic and durable-free).
        self.ee.run(move |ee| ee.begin(Some(batch)))?;
        let rows = self.ee.run(move |ee| ee.consume(stream, batch, false))?;
        let outcome = self.ee.run(ExecutionEngine::commit)?;
        self.enqueue_slides(outcome.slides, Some(batch));
        let n = self.peers.len();
        let parts = crate::engine::split_by_key(rows, col, n);
        for (p, rows) in parts.into_iter().enumerate() {
            // Straddle the send with two counters: `started` before,
            // `done` after. Engine::drain treats `started != done`
            // as work in flight, closing the window where a send was
            // counted but its message had not yet reached the
            // receiver's channel when that receiver drained. SeqCst:
            // drain's correctness argument needs the counter updates
            // ordered with the channel operations across threads.
            self.exchange_sends.started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let sent = self.peers[p].send(PartitionMsg::Exchange {
                stream,
                batch,
                source: self.partition_id,
                rows,
            });
            // Balance the pair even on failure so drain cannot spin on
            // started != done; the error still surfaces below.
            self.exchange_sends.done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if sent.is_err() {
                return Err(Error::InvalidState(format!(
                    "partition {p} is down: exchange sub-batch of batch {batch} on {} lost",
                    self.ids.table_name(stream)
                )));
            }
        }
        // Crash point: every peer holds a sub-batch of work this
        // partition may not remember shipping.
        self.config.faults.hit(CrashPoint::PostExchangeShip, Some(self.partition_id))?;
        Ok(())
    }

    /// Recovery: re-fires PE triggers for batches sitting on streams
    /// (restored from the snapshot or re-created by replay). Enqueues in
    /// (batch, topological position) order so the §2.2 constraints hold.
    /// Dangling batches on *exchange* streams are shipped to their
    /// owning partitions instead (strong replay leaves one behind for
    /// every replayed upstream commit — receivers drop the ones they
    /// already applied via the exchange watermark).
    pub(crate) fn fire_dangling(&mut self) -> Result<usize> {
        let dangling = self.ee.run(|ee| Ok(ee.dangling_batches()))?;
        let mut shipped = 0usize;
        let mut reqs: Vec<(BatchId, usize, TxnRequest)> = Vec::new();
        for (stream, batch) in dangling {
            let is_exchange =
                self.ids.table(stream).stream.as_ref().is_some_and(|s| s.exchange);
            if is_exchange && self.exchange_active() {
                // `dangling` is batch-ordered per stream, so re-ships
                // leave the receivers' merge order intact.
                self.exchange_send(stream, batch)?;
                shipped += 1;
                continue;
            }
            for &target in self.ids.pe_targets_of(stream) {
                let pos = self.ids.proc(target).topo_pos;
                reqs.push((
                    batch,
                    pos,
                    TxnRequest::internal(target, Invocation::Interior { stream }, Some(batch)),
                ));
            }
        }
        reqs.sort_by_key(|(b, p, _)| (*b, *p));
        let n = reqs.len() + shipped;
        for (_, _, r) in reqs {
            self.queue.push_client(r);
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Transaction execution
    // ------------------------------------------------------------------

    fn execute_te(&mut self, req: TxnRequest) {
        let TxnRequest { proc, invocation, batch, reply, replay, class, admitted_at, permit } =
            req;
        // The queued slide is now starting: later commits may schedule
        // the next one (including the retry after an abort).
        if let Invocation::WindowSlide { window } = &invocation {
            self.slide_inflight[window.index()] = false;
        }
        let dispatched_at = Instant::now();
        let outcome = self.try_execute(proc, &invocation, batch, replay);
        let done_at = Instant::now();
        // Return the admission credit *before* replying: a synchronous
        // caller that resubmits the moment its reply arrives must find
        // the credit it just finished with already free, not racing the
        // drop below.
        drop(permit);
        // Replay timings describe the recovery loop, not any client
        // request — keep them out of the latency histograms.
        if !replay {
            self.metrics.record_latency(class, admitted_at, dispatched_at, done_at);
            if proc != ADHOC_PROC {
                let exec = done_at.saturating_duration_since(dispatched_at);
                self.metrics.record_proc(&self.ids, proc, exec);
            }
        }
        match outcome {
            Ok(out) => {
                if let Some(reply) = reply {
                    let _ = reply.send(Ok(out));
                }
            }
            Err(e) => {
                // Roll back whatever the failed TE did. Abort errors when
                // no transaction is open are expected (failure before
                // begin) and ignored.
                let _ = self.ee.run(ExecutionEngine::abort);
                EngineMetrics::bump(&self.metrics.txns_aborted);
                if let Some(reply) = reply {
                    let _ = reply.send(Err(e));
                }
            }
        }
    }

    fn try_execute(
        &mut self,
        proc_id: ProcId,
        invocation: &Invocation,
        batch: Option<BatchId>,
        replay: bool,
    ) -> Result<CallOutcome> {
        // Ad-hoc SQL has no stored procedure (ADHOC_PROC is a
        // sentinel); everything else reads its compiled metadata. It is
        // borrowed where used, never held: `self.ids` is shared by every
        // partition, and a per-transaction `Arc` clone would make its
        // count a line all of them write.
        let adhoc = matches!(invocation, Invocation::AdHoc { .. });

        self.ee.run(move |ee| ee.begin(batch))?;

        // Resolve the input batch.
        let input: Vec<Tuple> = match invocation {
            Invocation::Oltp { .. } | Invocation::WindowSlide { .. } | Invocation::AdHoc { .. } => {
                Vec::new()
            }
            // Shared-buffer tuples: cloning the batch is a refcount bump
            // per row, not a deep copy.
            Invocation::Border { rows, .. } => rows.clone(),
            // Exchange deliveries carry their rows (extracted on the
            // sending partitions) — nothing lives in local stream state.
            Invocation::Exchange { rows, .. } => rows.clone(),
            Invocation::Interior { stream } => {
                let b = batch.ok_or_else(|| {
                    Error::Internal("interior invocation without batch".into())
                })?;
                let stream = *stream;
                self.ee.run(move |ee| ee.consume(stream, b, true))?
            }
        };
        let params = match invocation {
            Invocation::Oltp { params } => params.clone(),
            _ => Vec::new(),
        };

        // Border/exchange batches hand their rows straight to the body
        // without touching the input stream's table, so their event
        // timestamps must be observed explicitly to advance the
        // stream's high mark (the watermark input). Skipped entirely
        // for untimed streams — no boundary crossing on that hot path.
        if let Invocation::Border { stream, .. } | Invocation::Exchange { stream, .. } =
            invocation
        {
            let timed = self.ids.table(*stream).ts_col.is_some();
            if timed && !input.is_empty() {
                // O(1) clone per tuple — shared buffers.
                let (stream, rows) = (*stream, input.clone());
                self.ee.run(move |ee| ee.observe_input(stream, &rows))?;
            }
        }

        // Alignment pre-registration (multi-partition workflows), the
        // one alignment mechanism: every produced stream on a path to an
        // exchange gets its batch entry created up front — empty if the
        // body then emits nothing — so this partition's copy of the
        // workflow advances for every batch even through stages whose
        // emission is data-dependent (e.g. per-row SQL inserts), and
        // the commit ships every exchange output, empty or not. Without
        // this, a stage receiving an empty sub-batch would emit nothing,
        // its successor would never run here, and a downstream exchange
        // merge would wait forever for this partition's sub-batch.
        // Registering *before* the body keeps nested transactions
        // intact: a child consuming the batch internally consumes the
        // empty entry with it. (Slide transactions skip alignment: they
        // are per-partition derived work, not batch-aligned workflow
        // stages. Ad-hoc SQL carries no batch.)
        if batch.is_some()
            && self.peers.len() > 1
            && self.config.mode == EngineMode::SStore
            && !matches!(invocation, Invocation::WindowSlide { .. })
        {
            for &sid in &self.ids.proc(proc_id).align_outputs {
                self.ee.run(move |ee| ee.emit(sid, Vec::new()))?;
            }
        }

        // Run the body — or, for a nested transaction, the ordered
        // children inside this single undo scope (§2.3: commit/abort as
        // one unit; nothing interleaves because execution is serial and
        // the commit happens once at the end). Slide transactions have
        // no body: they apply the window's pending watermark-driven
        // slides (which fire the window's on-slide EE triggers).
        let result = if let Invocation::WindowSlide { window } = invocation {
            let window = *window;
            self.ee.run(move |ee| ee.process_slides(window))?;
            QueryResult::default()
        } else if let Invocation::AdHoc { stmt, params, .. } = invocation {
            // One edge-planned statement, same effects/undo/cascade
            // discipline as a compiled procedure statement.
            let (stmt, params) = (stmt.clone(), params.clone());
            self.ee.run(move |ee| ee.exec_bound(&stmt, &params))?
        } else if self.ids.proc(proc_id).children.is_empty() {
            self.run_body(proc_id, input, batch, params)?
        } else {
            let mut last = QueryResult::default();
            for i in 0..self.ids.proc(proc_id).children.len() {
                let child_id = self.ids.proc(proc_id).children[i];
                let child_input = if i == 0 {
                    input.clone()
                } else {
                    // A later child consumes what its predecessors
                    // emitted this round, if anything.
                    match (self.ids.proc(child_id).input_stream, batch) {
                        (Some(stream), Some(b)) => {
                            self.ee.run(move |ee| ee.consume(stream, b, false))?
                        }
                        _ => Vec::new(),
                    }
                };
                last = self.run_body(child_id, child_input, batch, Vec::new())?;
            }
            last
        };

        // Crash point: the transaction's work is complete in memory,
        // nothing about it is durable yet.
        self.config.faults.hit(CrashPoint::PreCommitAppend, Some(self.partition_id))?;

        // Command logging (before commit: the record must be durable —
        // modulo group commit — before the transaction acknowledges).
        if !replay {
            if let Some(log) = &mut self.log {
                let strong = self.config.recovery == crate::config::RecoveryMode::Strong;
                let name = |s: &TableId| Cow::Borrowed(&**self.ids.table_name(*s));
                let kind = match invocation {
                    Invocation::Oltp { params } => Some(LogKind::Oltp { params: params.into() }),
                    Invocation::Border { stream, rows } => Some(LogKind::Border {
                        stream: name(stream),
                        batch: batch.expect("border invocations carry a batch"),
                        rows: rows.into(),
                    }),
                    Invocation::Interior { stream } if strong => Some(LogKind::Interior {
                        stream: name(stream),
                        batch: batch.expect("interior invocations carry a batch"),
                    }),
                    // Strong mode logs the delivered rows: each
                    // partition's log must replay on its own, and the
                    // data for this TE lives in the *senders'* logs.
                    // Weak mode re-derives deliveries by replaying the
                    // upstream borders with triggers enabled.
                    Invocation::Exchange { stream, rows } if strong => Some(LogKind::Exchange {
                        stream: name(stream),
                        batch: batch.expect("exchange invocations carry a batch"),
                        rows: rows.into(),
                    }),
                    // Ad-hoc SQL is logged by its text in both modes
                    // (like OLTP): replay re-plans and re-executes it.
                    Invocation::AdHoc { sql, params, .. } => {
                        Some(LogKind::AdHoc { sql: sql.into(), params: params.into() })
                    }
                    // Weak mode re-derives interior and exchange work
                    // from the borders. Slide transactions are derived
                    // state in BOTH modes: replaying the commits that
                    // advanced the watermark re-derives them.
                    Invocation::Interior { .. }
                    | Invocation::Exchange { .. }
                    | Invocation::WindowSlide { .. } => None,
                };
                if let Some(kind) = kind {
                    let proc_name = if adhoc { ADHOC_NAME } else { self.ids.proc_name(proc_id) };
                    count_flushes(&self.metrics, log, |log| log.append(proc_name, kind))?;
                    EngineMetrics::bump(&self.metrics.log_records);
                }
            }
        }

        // Crash point: the record (if any) is appended — durable per
        // the group-commit/fsync policy — but the commit, the reply,
        // and any exchange sends have not happened.
        self.config.faults.hit(CrashPoint::PostAppendPreSend, Some(self.partition_id))?;

        let crate::ee::CommitOutcome { outputs, slides } = self.ee.run(ExecutionEngine::commit)?;
        EngineMetrics::bump(&self.metrics.txns_committed);
        if self.config.trace {
            let proc_name = if adhoc { ADHOC_NAME } else { self.ids.proc_name(proc_id) };
            self.metrics.trace.lock().push(TraceEvent {
                proc: proc_name.to_string(),
                batch,
                partition: self.partition_id,
            });
        }

        // The delivery watermark advances at commit: a replayed or
        // re-shipped copy of this batch must never apply twice.
        if let (Invocation::Exchange { stream, .. }, Some(b)) = (invocation, batch) {
            let w = &mut self.exchange_applied[stream.index()];
            *w = (*w).max(b.raw());
        }

        // Exchange hops (cross-partition workflow edges): ship one
        // sub-batch per peer for every exchange stream this commit
        // wrote, and leave the rest for PE triggers. The build's writer
        // rule sends every such write through a declared output, and
        // pre-registration gave each of those a batch, empty or not, so
        // every source ships each exchange batch exactly once. A batch a
        // nested sibling consumed inside this transaction is no output
        // and ships from no partition: each runs the same children.
        let mut shipped = 0usize;
        let mut local_outputs = outputs;
        if self.exchange_active() {
            let mut send = Vec::new();
            local_outputs.retain(|&(s, b)| {
                let is_exchange = self.ids.table(s).stream.as_ref().is_some_and(|m| m.exchange);
                if is_exchange {
                    send.push((s, b));
                }
                !is_exchange
            });
            for (s, ob) in send {
                self.exchange_send(s, ob)?;
                shipped += 1;
            }
        }

        // PE triggers (§3.2.3/3.2.4) or pending activations for the
        // client (H-Store mode / replay).
        let mut pending = Vec::new();
        let mut triggered = Vec::new();
        for (stream, b) in local_outputs {
            for &target in self.ids.pe_targets_of(stream) {
                if self.config.mode == EngineMode::SStore && self.triggers_enabled {
                    EngineMetrics::bump(&self.metrics.pe_trigger_fires);
                    triggered.push(TxnRequest::internal(
                        target,
                        Invocation::Interior { stream },
                        Some(b),
                    ));
                } else {
                    pending.push(PendingActivation {
                        proc: self.ids.proc_name(target).to_string(),
                        stream: self.ids.table_name(stream).to_string(),
                        batch: b,
                    });
                }
            }
        }
        let no_successors = triggered.is_empty() && pending.is_empty() && shipped == 0;
        self.queue.push_triggered_batch(triggered);
        // Watermark-driven slide work rides the fast lane in batch
        // order (behind the round's own successors pushed above). A
        // commit that merely *observes* pending slide state (already
        // queued by an earlier commit — dedup below) spawned nothing:
        // it is still the terminal TE of its own workflow round.
        let slides_enqueued = self.enqueue_slides(slides, batch);

        if batch.is_some() && no_successors && slides_enqueued == 0 {
            // Terminal TE of a workflow round = one completed workflow.
            EngineMetrics::bump(&self.metrics.workflows_completed);
        }
        Ok(CallOutcome { result, pending })
    }

    /// Schedules one slide transaction per flagged time window,
    /// attributed to the window's owner procedure and carrying the
    /// batch id of the commit that advanced the watermark. A window
    /// whose slide is already queued is skipped — commits running
    /// ahead of the queued slide see its pending state too, and their
    /// duplicates would execute as no-op transactions.
    fn enqueue_slides(&mut self, slides: Vec<TableId>, batch: Option<BatchId>) -> usize {
        let mut enqueued = 0;
        for window in slides {
            if self.slide_inflight[window.index()] {
                continue;
            }
            let Some(owner) = self.ids.table(window).owner_proc else {
                continue;
            };
            self.slide_inflight[window.index()] = true;
            self.queue.push_behind_round(TxnRequest::internal(
                owner,
                Invocation::WindowSlide { window },
                batch,
            ));
            enqueued += 1;
        }
        enqueued
    }

    fn run_body(
        &mut self,
        proc_id: ProcId,
        input: Vec<Tuple>,
        batch: Option<BatchId>,
        params: Vec<Value>,
    ) -> Result<QueryResult> {
        let meta = self.ids.proc(proc_id);
        let body = self.bodies[proc_id.index()]
            .clone()
            .ok_or_else(|| Error::Plan(format!("procedure {} has no body", meta.name)))?;
        let mut ctx = ProcCtx::new(&mut self.ee, meta, input, batch, params);
        body(&mut ctx)?;
        Ok(ctx.take_result())
    }
}
